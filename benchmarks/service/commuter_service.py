"""``commuter_service``: the whole pipeline, writes beside reads.

``Casper(policy="basic", shards=2, parallel=True)`` plus a
``ContinuousQueryMonitor`` holding safe-region kNN standing queries over
a commuter population.  Every tick moves everyone (each update re-cloaks
across the process boundary and rewrites the server's private R-tree),
flushes the monitor, then issues ad-hoc queries whose cloaks were just
invalidated — a cache or index change that wins on ``query_static`` and
pays here shows.  It goes through the ``Casper`` facade because that is
the only public composition of anonymizer and server.
"""

from __future__ import annotations

import hashlib
from pathlib import Path
from time import perf_counter

from repro.continuous.monitor import ContinuousQueryMonitor
from repro.errors import CasperError
from repro.observability import runtime as telemetry
from repro.server.casper import Casper
from repro.server.database import LocationServer
from repro.sharding import make_sharded

from benchmarks.service.harness import (
    Failures,
    MachineSpeed,
    Measurement,
    Samples,
    both_views,
    cache_counts,
    layer_table,
    median_rate,
    rate,
    traced_measurement,
    window_rate,
    worker_telemetry,
)
from benchmarks.service.inputs import HEIGHT, UNIT, Inputs
from benchmarks.service.queries import QueryClient
from benchmarks.service.tracing import (
    Operation,
    TimedProxy,
    Tracer,
    span_of,
    timed_server,
)

NAME = "commuter_service"
WHY = (
    "every tick re-cloaks all users across the process boundary, rewrites the "
    "private R-tree, flushes standing kNN queries and answers fresh ad-hoc queries: "
    "a read-path win that taxes writes shows here"
)

NUM_SHARDS = 2
STANDING_K = 5
#: A run holds ~30 ticks; three reference samples before each give the
#: machine-speed factor ~100 samples to take its median over.
SPEED_SAMPLES_PER_TICK = 3


class CommuterDeployment:
    """Facade, worker fleet, loaded server and registered monitor."""

    def __init__(self, inputs: Inputs, tracer: Tracer | None = None) -> None:
        self.inputs = inputs
        self.tracer = tracer
        #: Sampled before every tick; a timed run swaps in an active one.
        self.speed = MachineSpeed(active=False)
        self.failures = Failures()
        #: Seconds each measured tick spent in on_users_moved + flush.
        self.tick_seconds = Samples()
        if tracer is None:
            self.casper = Casper(
                UNIT, HEIGHT, policy="basic", shards=NUM_SHARDS, parallel=True
            )
            #: The worker-fleet anonymizer itself, never a proxy: its
            #: counters are read outside any span.
            self.pool = self.casper.anonymizer
            facade: object = self.casper
        else:
            self.pool = pool = make_sharded(
                UNIT, HEIGHT, num_shards=NUM_SHARDS, kind="basic", parallel=True
            )
            try:
                self.casper = Casper(
                    UNIT, HEIGHT,
                    anonymizer=TimedProxy(pool, tracer, "anonymizer"),
                    server=timed_server(LocationServer(), tracer),  # type: ignore[arg-type]
                )
            except BaseException:
                pool.close()
                raise
            facade = TimedProxy(self.casper, tracer, "casper")
        try:
            population = inputs.population
            for uid, (point, profile) in enumerate(
                zip(population.start, population.profiles)
            ):
                facade.register_user(uid, point, profile)  # type: ignore[attr-defined]
            facade.add_public_targets(inputs.targets)  # type: ignore[attr-defined]
            self.monitor = ContinuousQueryMonitor(facade)  # type: ignore[arg-type]
            for uid in inputs.standing_uids:
                self.monitor.register_knn(("standing", uid), uid, k=STANDING_K)
            self.client = QueryClient(facade, inputs, self.failures, tracer)
            self._schedule = population.schedule()
            # Warm-up tick: every stored cloak now reflects the whole
            # population, and lazy state along the update path exists.
            self.tick(with_queries=False)
            self.tick_seconds = Samples()
            self.failures.attempted = 0
            if tracer is not None:
                tracer.reset()
        except BaseException:
            self.close()
            raise

    def close(self) -> None:
        self.casper.close()

    def tick(self, with_queries: bool = True) -> bool:
        """Replay the next recorded tick; False once an update failed."""
        inputs, tracer = self.inputs, self.tracer
        self.speed.sample(SPEED_SAMPLES_PER_TICK)
        tick = next(self._schedule)
        moves = inputs.population.moves(tick)
        self.client.xy = inputs.population.tick_xy[tick]
        self.failures.attempted += len(moves)
        try:
            with Operation(tracer) as op:
                with span_of(tracer, "monitor.on_users_moved"):
                    self.monitor.on_users_moved(moves)
                with span_of(tracer, "monitor.flush"):
                    self.monitor.flush()
        except (CasperError, RuntimeError) as error:
            self.failures.fail(f"error:{type(error).__name__}", len(moves))
            return False
        self.tick_seconds.add(op.seconds, self.speed.current)
        if with_queries:
            per_tick = inputs.sizes["queries_per_tick"]
            for kind, uid in inputs.script[tick * per_tick : (tick + 1) * per_tick]:
                self.client.issue(kind, uid)
        return True

    @property
    def moves(self) -> int:
        return len(self.tick_seconds) * self.inputs.population.num_users

    @property
    def busy(self) -> float:
        return sum(self.tick_seconds.raw) + self.client.busy

    def standing_answers(self) -> bytes:
        """Digest of every standing query's current answer set."""
        sha = hashlib.sha256()
        for uid in self.inputs.standing_uids:
            sha.update(repr(sorted(self.monitor.answer_of(("standing", uid)))).encode())
        return sha.digest()


def deploy(inputs: Inputs) -> CommuterDeployment:
    return CommuterDeployment(inputs)


def _monitor_rows(deployment: CommuterDeployment) -> dict[str, float]:
    monitor, standing = deployment.monitor, deployment.inputs.standing_uids
    counters = monitor.counters
    # Counter values since registration; the warm-up tick is one of
    # `counters["ticks"]`, so rates divide by every tick the monitor saw.
    return {
        "monitor.knn_evaluations": float(counters["knn_evaluations"]),
        "monitor.suppressed": float(counters["suppressed"]),
        "monitor.validity_exits": float(counters["validity_exits"]),
        "monitor.requery_rate": counters["knn_evaluations"]
        / max(len(standing) * counters["ticks"], 1),
        "monitor.candidates_mean": sum(
            len(monitor.candidates_of(("standing", uid))) for uid in standing
        ) / max(len(standing), 1),
    }


def measure(
    deployment: CommuterDeployment, inputs: Inputs, seconds: float,
    speed: MachineSpeed,
) -> Measurement:
    deployment.speed = deployment.client.speed = speed
    deadline = perf_counter() + 4 * seconds + 10
    while deployment.tick():
        if deployment.busy >= seconds or perf_counter() > deadline:
            break
    client, users = deployment.client, inputs.population.num_users
    ticks = deployment.tick_seconds
    detail = client.detail()
    detail["updates_per_s"] = (rate(deployment.moves, sum(ticks.raw)), "1/s")
    detail["ticks"] = (float(len(ticks)), "count")
    detail["requery_rate"] = (_monitor_rows(deployment)["monitor.requery_rate"], "ratio")
    # One window is one tick: its moves, or the queries issued after it.
    per_tick = inputs.sizes["queries_per_tick"]

    def contract(view: str) -> dict[str, tuple[float, str]]:
        return {
            "primary_ops_per_s": (
                median_rate(users, getattr(ticks, view)), "1/s",
            ),
            "secondary_ops_per_s": (
                window_rate(getattr(client.sequence, view), per_tick), "1/s",
            ),
            **client.headline(per_tick, view),
        }

    metrics, raw = both_views(contract)
    return Measurement(metrics, deployment.failures, detail={**detail, **raw})


def _replay(inputs: Inputs, tracer: Tracer | None) -> tuple[CommuterDeployment, dict]:
    deployment = CommuterDeployment(inputs, tracer)
    rows: dict[str, float] = {}
    try:
        pool = deployment.pool
        session = telemetry.active()
        if session is not None:
            session.clear()  # set-up's round trips are not the ticks'
        hits0, misses0 = cache_counts(pool)
        updates0, counters0 = pool.stats.location_updates, pool.stats.counter_updates
        for _ in range(inputs.sizes["trace_ticks"]):
            if not deployment.tick():
                break
        hits, misses = cache_counts(pool)
        lookups = (hits - hits0) + (misses - misses0)
        rows = {
            "anonymizer.cache_hit_rate": (hits - hits0) / lookups if lookups else 0.0,
            "anonymizer.counter_updates_per_update": (
                pool.stats.counter_updates - counters0
            ) / max(pool.stats.location_updates - updates0, 1),
            "anonymizer.update_count": float(deployment.moves),
            "database.private_index_size": float(deployment.casper.server.num_private),
            "workers.crashes": float(pool.worker_crashes),
            "workers.heals": float(pool.worker_heals),
            **_monitor_rows(deployment),
        }
    finally:
        deployment.close()
    return deployment, rows


def trace(inputs: Inputs, out_dir: Path) -> Measurement:
    plain, _rows = _replay(inputs, None)
    tracer = Tracer()
    with telemetry.enabled() as session:
        traced, rows = _replay(inputs, tracer)
        rows.update(worker_telemetry(session))
    failures = traced.failures
    failures.absorb(plain.failures)
    table = layer_table(tracer)
    table.update(traced.client.layer_counts())
    table.update(rows)
    same = (
        plain.client.encoded.digest() == traced.client.encoded.digest()
        and plain.standing_answers() == traced.standing_answers()
    )
    return traced_measurement(
        NAME, table, tracer, failures, plain.busy, traced.busy, same, out_dir
    )
