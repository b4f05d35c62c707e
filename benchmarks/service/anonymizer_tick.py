"""``anonymizer_tick``: the bare anonymizers, nothing else running.

Single-process anonymizers straight from the policy registry, a dense
hotspot population that jitters every tick.  Arm A (``basic``) and arm B
(``adaptive``) replay the same ticks: ``update_batch`` of everyone, then
``cloak`` of a sampled tenth — the SoA kernels, the cut maintenance and
the cloak cache under total invalidation do all the work.  This is the
guard for the scalar-backend deletion and the one place the basic /
adaptive batch-update gap is a number.
"""

from __future__ import annotations

import hashlib
from pathlib import Path
from time import perf_counter

from repro.anonymizer import get_policy
from repro.errors import CasperError

from benchmarks.service.harness import (
    ORACLE_EVERY,
    Failures,
    MachineSpeed,
    Measurement,
    Samples,
    both_views,
    cache_counts,
    check_cloak,
    latency_detail,
    layer_table,
    median_rate,
    percentile,
    rate,
    traced_measurement,
    window_percentile,
)
from benchmarks.service.inputs import HEIGHT, UNIT, Inputs
from benchmarks.service.tracing import Operation, TimedProxy, Tracer

NAME = "anonymizer_tick"
WHY = (
    "bare basic and adaptive anonymizers under batch updates and total cloak-cache "
    "invalidation: only the pyramid kernels work, so a backend or cache change shows "
    "here undiluted"
)

#: Share of the measured time given to arm A; arm B's batches are ~20x
#: longer, so it gets the larger share to collect enough of them.
ARM_A_SHARE = 0.3
#: Reference samples before each tick (see ``harness.MachineSpeed``).
SPEED_SAMPLES_PER_TICK = 3


class Arm:
    """One anonymizer replaying the recorded ticks."""

    def __init__(
        self, policy: str, inputs: Inputs, failures: Failures,
        tracer: Tracer | None = None, observe_all: bool = False,
    ) -> None:
        self.inputs = inputs
        self.failures = failures
        self.tracer = tracer
        #: Digest and over-cloaking ratios of *every* cloak (both passes
        #: of a traced run); a timed run only samples the oracle.
        self.observe_all = observe_all
        self.engine = get_policy(policy).single(UNIT, HEIGHT, 8192, None)
        #: ``update_batch`` calls per tick.  Arm A moves everyone in one
        #: call; arm B splits the tick into equal batches so a run holds
        #: enough timed samples of a call that takes ~1 s for everyone.
        self.batches = 1 if policy == "basic" else inputs.sizes["adaptive_batches"]
        #: What the ticks call: the engine, or its timed proxy
        #: (``anonymizer.*`` spans for arm A, ``adaptive.*`` for arm B).
        self.target: object = self.engine if tracer is None else TimedProxy(
            self.engine, tracer, "anonymizer" if policy == "basic" else policy
        )
        population = inputs.population
        for uid, (point, profile) in enumerate(zip(population.start, population.profiles)):
            self.engine.register(uid, point, profile)
        #: Registration bumps the maintenance counters too.
        self.counters0 = self.engine.stats.counter_updates
        self._schedule = population.schedule()
        #: Sampled before every tick; a timed run swaps in an active one.
        self.speed = MachineSpeed(active=False)
        #: Seconds each ``update_batch`` call took.
        self.update_seconds = Samples()
        self.cloak_latencies = Samples()
        self.regions = hashlib.sha256()
        self.area_over_amin = 0.0
        self.k_over_k = 0.0
        self._cloaks_seen = 0

    def tick(self) -> None:
        inputs, target, tracer = self.inputs, self.target, self.tracer
        self.speed.sample(SPEED_SAMPLES_PER_TICK)
        factor = self.speed.current
        tick = next(self._schedule)
        moves = inputs.population.moves(tick)
        xy = inputs.population.tick_xy[tick]
        profiles = inputs.population.profiles
        self.failures.attempted += len(moves)
        size = len(moves) // self.batches
        for first in range(0, size * self.batches, size):
            batch = moves[first : first + size]
            try:
                with Operation(tracer) as op:
                    target.update_batch(batch)  # type: ignore[attr-defined]
            except CasperError as error:
                self.failures.fail(f"error:{type(error).__name__}", len(batch))
            self.update_seconds.add(op.seconds, factor)
        cloak = target.cloak  # type: ignore[attr-defined]
        for uid in inputs.cloak_uids[tick]:
            self.failures.attempted += 1
            try:
                with Operation(tracer) as op:
                    region = cloak(uid)
            except CasperError as error:
                self.failures.fail(f"error:{type(error).__name__}")
                continue
            self.cloak_latencies.add(op.seconds, factor)
            self._cloaks_seen += 1
            if self.observe_all or self._cloaks_seen % ORACLE_EVERY == 0:
                self._observe(region, uid, xy, profiles[uid])

    def _observe(self, region: object, uid: int, xy: object, profile: object) -> None:
        """Outside the timers: the oracle on every 50th cloak, plus the
        over-cloaking ratios and the output digest."""
        if self._cloaks_seen % ORACLE_EVERY == 0:
            self.failures.oracle_checks += 1
            if not check_cloak(region, profile, xy):  # type: ignore[arg-type]
                self.failures.fail("oracle:cloak")
        self.regions.update(repr((uid, region)).encode())
        self.area_over_amin += region.accuracy_area(profile)  # type: ignore[attr-defined]
        self.k_over_k += region.accuracy_k(profile)  # type: ignore[attr-defined]

    @property
    def batch_size(self) -> int:
        return self.inputs.population.num_users // self.batches

    @property
    def moves(self) -> int:
        return len(self.update_seconds) * self.batch_size

    @property
    def busy(self) -> float:
        return sum(self.update_seconds.raw) + sum(self.cloak_latencies.raw)

    def updates_per_s(self, view: str) -> float:
        """Median over ``update_batch`` calls of moves per second."""
        return median_rate(self.batch_size, getattr(self.update_seconds, view))


class AnonymizerDeployment:
    def __init__(self, inputs: Inputs) -> None:
        self.failures = Failures()
        self.basic = Arm("basic", inputs, self.failures)
        self.adaptive = Arm("adaptive", inputs, self.failures)

    def close(self) -> None:
        """Nothing to release: both arms are plain in-process objects."""


def deploy(inputs: Inputs) -> AnonymizerDeployment:
    return AnonymizerDeployment(inputs)


def measure(
    deployment: AnonymizerDeployment, inputs: Inputs, seconds: float,
    speed: MachineSpeed,
) -> Measurement:
    basic, adaptive = deployment.basic, deployment.adaptive
    basic.speed = adaptive.speed = speed
    deadline = perf_counter() + 4 * seconds + 10
    for arm, budget in ((basic, ARM_A_SHARE * seconds), (adaptive, seconds)):
        # Arm B runs until both arms together have used `seconds`.
        while True:
            arm.tick()
            if basic.busy + adaptive.busy >= budget or perf_counter() > deadline:
                break
    users = inputs.population.num_users
    cloaks = basic.cloak_latencies
    detail = {
        "updates_per_s": (rate(basic.moves, sum(basic.update_seconds.raw)), "1/s"),
        "adaptive_updates_per_s": (
            rate(adaptive.moves, sum(adaptive.update_seconds.raw)), "1/s",
        ),
        "cloaks_per_s": (rate(len(cloaks), sum(cloaks.raw)), "1/s"),
        "adaptive_cloaks_per_s": (
            rate(len(adaptive.cloak_latencies), sum(adaptive.cloak_latencies.raw)),
            "1/s",
        ),
        "basic_ticks": (float(basic.moves // users), "count"),
        "adaptive_ticks": (float(adaptive.moves // users), "count"),
    }
    detail.update(latency_detail("cloak", cloaks.raw))
    # One window is one tick's cloak phase.
    per_tick = inputs.sizes["cloaks"]

    def contract(view: str) -> dict[str, tuple[float, str]]:
        latencies = getattr(cloaks, view)
        return {
            "primary_ops_per_s": (basic.updates_per_s(view), "1/s"),
            "secondary_ops_per_s": (adaptive.updates_per_s(view), "1/s"),
            "request_p50_ms": (percentile(latencies, 50) * 1e3, "ms"),
            "request_p95_ms": (window_percentile(latencies, per_tick, 95) * 1e3, "ms"),
        }

    metrics, raw = both_views(contract)
    return Measurement(metrics, deployment.failures, detail={**detail, **raw})


def _replay(inputs: Inputs, failures: Failures, tracer: Tracer | None) -> tuple[Arm, Arm]:
    basic = Arm("basic", inputs, failures, tracer, observe_all=True)
    adaptive = Arm("adaptive", inputs, failures, tracer, observe_all=True)
    for _ in range(inputs.sizes["trace_ticks"]):
        basic.tick()
    for _ in range(inputs.sizes["trace_ticks_adaptive"]):
        adaptive.tick()
    return basic, adaptive


def trace(inputs: Inputs, out_dir: Path) -> Measurement:
    failures = Failures()
    plain = _replay(inputs, failures, None)
    tracer = Tracer()
    basic, adaptive = _replay(inputs, failures, tracer)
    table = layer_table(tracer)
    hits, misses = cache_counts(basic.engine)
    cloaks = len(basic.cloak_latencies) + len(adaptive.cloak_latencies)
    stats = basic.engine.stats
    table.update(
        {
            "anonymizer.update_count": float(basic.moves),
            "anonymizer.adaptive_update_count": float(adaptive.moves),
            "anonymizer.cache_hit_rate": hits / max(hits + misses, 1),
            "anonymizer.counter_updates_per_update": (
                stats.counter_updates - basic.counters0
            ) / max(stats.location_updates, 1),
            "anonymizer.area_over_amin_mean": (
                basic.area_over_amin + adaptive.area_over_amin
            ) / max(cloaks, 1),
            "anonymizer.k_achieved_over_k_mean": (
                basic.k_over_k + adaptive.k_over_k
            ) / max(cloaks, 1),
        }
    )
    same = all(
        before.regions.digest() == after.regions.digest()
        for before, after in zip(plain, (basic, adaptive))
    )
    return traced_measurement(
        NAME, table, tracer, failures,
        sum(arm.busy for arm in plain), basic.busy + adaptive.busy, same, out_dir,
    )
