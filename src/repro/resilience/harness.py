"""The chaos harness: replay one workload twice and diff the outcomes.

``run_chaos`` builds two identical Casper deployments from the same
seeded workload — one fault-free **baseline**, one with a
:class:`~repro.resilience.runtime.ResilienceRuntime` executing the given
:class:`~repro.resilience.faults.FaultPlan` — drives both through the
same scripted sequence of movements, snapshot queries and continuous-
monitor flushes, and reports:

* **privacy** — every cloak the faulted pipeline emitted, audited
  against its user's ``(k, A_min)`` (the count that must be zero under
  every scenario: faults degrade availability, never privacy);
* **SLOs** — how many queries were answered vs explicitly degraded, and
  how many answers still match the fault-free baseline;
* **determinism** — the fault-trace digest; the whole report contains
  only seed-derived values (counts, ratios, virtual backoff), so the
  same scenario + seed reproduces it byte-for-byte.

Everything uses string user/object ids: the candidate-list record
carries ids as UTF-8 (the update frame carries int or str ids alike),
and the baseline must produce comparable answers.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass, field, fields

import numpy as np

from repro.anonymizer import PrivacyProfile, get_policy
from repro.continuous.monitor import ContinuousQueryMonitor
from repro.errors import DegradedModeError, UpdateDeliveryError
from repro.geometry import Point, Rect
from repro.resilience.faults import FaultPlan
from repro.resilience.runtime import ResilienceRuntime
from repro.server.casper import Casper
from repro.server.client import MobileClient
from repro.utils.rng import spawn_rngs

__all__ = ["ChaosWorkload", "ChaosReport", "run_chaos"]


@dataclass(frozen=True, slots=True)
class ChaosWorkload:
    """The seeded workload a chaos run replays."""

    users: int = 32
    targets: int = 48
    steps: int = 240
    seed: int = 0
    anonymizer: str = "adaptive"  # any registered policy name
    pyramid_height: int = 6
    bounds: Rect = field(default=Rect(0.0, 0.0, 1024.0, 1024.0))
    #: Continuous NN queries registered on the monitor (0 disables it).
    continuous_queries: int = 6
    #: Safe-region continuous kNN queries (k=3) registered on the
    #: monitor, drawn from the *end* of the sorted user list so they can
    #: coexist with the NN queries on small populations.
    continuous_knn: int = 0
    #: Steps between monitor flushes.
    flush_every: int = 40
    #: Anonymizer shard count (1 = the single-pyramid implementations).
    shards: int = 1
    #: Run the *faulted* deployment's shards as worker processes over
    #: the wire protocol.  The baseline stays in-process, so the diff
    #: doubles as a cross-runtime equivalence check.
    parallel: bool = False

    def __post_init__(self) -> None:
        if self.users < 2 or self.targets < 1 or self.steps < 1:
            raise ValueError("workload needs >= 2 users, >= 1 target, >= 1 step")
        get_policy(self.anonymizer)  # raises ValueError for unknown names
        if self.continuous_queries > self.users:
            raise ValueError("more continuous queries than users")
        if self.continuous_knn < 0 or self.continuous_knn > self.users:
            raise ValueError("continuous_knn must be in [0, users]")
        if self.flush_every < 1:
            raise ValueError("flush_every must be >= 1")
        if self.shards < 1:
            raise ValueError("shards must be >= 1")


@dataclass(frozen=True, slots=True)
class ChaosReport:
    """The deterministic outcome of one chaos run."""

    scenario: str
    seed: int
    workload: dict[str, object]
    runtime: dict[str, object]
    slo: dict[str, object]
    privacy_violations: int
    trace_digest: str

    @property
    def ok(self) -> bool:
        """The hard gate: no silent privacy violation ever."""
        return self.privacy_violations == 0

    def to_json(self, indent: int | None = None) -> str:
        """Canonical JSON — byte-identical for identical seeds."""
        payload = asdict(self)
        if indent is None:
            return json.dumps(payload, sort_keys=True, separators=(",", ":"))
        return json.dumps(payload, sort_keys=True, indent=indent)


@dataclass(frozen=True, slots=True)
class _Op:
    """One scripted workload step."""

    kind: str  # "move" | "nn" | "range"
    uid: str
    point: Point | None = None  # move destination
    radius: float = 0.0  # range radius


def _script(workload: ChaosWorkload) -> tuple[
    dict[str, tuple[Point, PrivacyProfile]], dict[str, Point], list[_Op]
]:
    """Generate the deterministic cast and op sequence for a workload."""
    rng_users, rng_targets, rng_ops = spawn_rngs(workload.seed, 3)
    bounds = workload.bounds

    def random_point(rng: np.random.Generator) -> Point:
        x = bounds.x_min + float(rng.random()) * bounds.width
        y = bounds.y_min + float(rng.random()) * bounds.height
        return Point(x, y)

    users: dict[str, tuple[Point, PrivacyProfile]] = {}
    for i in range(workload.users):
        k = 2 + int(rng_users.integers(6))
        a_min = 0.0 if rng_users.random() < 0.5 else bounds.area / 4096.0
        users[f"u{i:03d}"] = (random_point(rng_users), PrivacyProfile(k, a_min))
    targets = {
        f"t{i:03d}": random_point(rng_targets) for i in range(workload.targets)
    }
    uids = sorted(users)
    ops: list[_Op] = []
    for _step in range(workload.steps):
        uid = uids[int(rng_ops.integers(len(uids)))]
        draw = float(rng_ops.random())
        if draw < 0.5:
            ops.append(_Op("move", uid, point=random_point(rng_ops)))
        elif draw < 0.8:
            ops.append(_Op("nn", uid))
        else:
            radius = bounds.width * (0.02 + 0.1 * float(rng_ops.random()))
            ops.append(_Op("range", uid, radius=radius))
    return users, targets, ops


def _knn_users(
    workload: ChaosWorkload, users: dict[str, tuple[Point, PrivacyProfile]]
) -> list[str]:
    uids = sorted(users)
    return uids[len(uids) - workload.continuous_knn:]


def _build_deployment(
    workload: ChaosWorkload,
    users: dict[str, tuple[Point, PrivacyProfile]],
    targets: dict[str, Point],
    runtime: ResilienceRuntime | None,
) -> tuple[Casper, dict[str, MobileClient], ContinuousQueryMonitor | None]:
    casper = Casper(
        workload.bounds,
        pyramid_height=workload.pyramid_height,
        anonymizer=workload.anonymizer,  # type: ignore[arg-type]
        resilience=runtime,
        shards=workload.shards,
        # Only the faulted deployment runs the process pool: the
        # baseline replays in-process, so matching answers also witness
        # the two runtimes' byte-for-byte equivalence.
        parallel=workload.parallel and runtime is not None,
    )
    clients = {
        uid: MobileClient(casper, uid, point, profile)
        for uid, (point, profile) in sorted(users.items())
    }
    casper.add_public_targets(dict(sorted(targets.items())))
    monitor: ContinuousQueryMonitor | None = None
    if workload.continuous_queries or workload.continuous_knn:
        monitor = ContinuousQueryMonitor(casper)
        for uid in sorted(users)[: workload.continuous_queries]:
            monitor.register_nn(f"cq-{uid}", uid)
        for uid in _knn_users(workload, users):
            monitor.register_knn(f"ck-{uid}", uid, k=3)
    return casper, clients, monitor


@dataclass(slots=True)
class _RunOutcome:
    """Raw per-deployment results, diffed by :func:`run_chaos`."""

    answers: list[object] = field(default_factory=list)
    monitor_answers: dict[str, tuple[str, ...]] = field(default_factory=dict)
    update_failures: int = 0
    degraded_queries: int = 0
    monitor_degraded_max: int = 0
    flushes: int = 0
    safe_region_counters: dict[str, int] = field(default_factory=dict)


def _run_one(
    workload: ChaosWorkload,
    users: dict[str, tuple[Point, PrivacyProfile]],
    targets: dict[str, Point],
    ops: list[_Op],
    runtime: ResilienceRuntime | None,
) -> _RunOutcome:
    """Drive one deployment through the script; returns raw outcomes."""
    casper, clients, monitor = _build_deployment(workload, users, targets, runtime)
    try:
        outcome = _drive(workload, users, ops, casper, clients, monitor)
    finally:
        # Reap worker processes even when an op raises: a chaos run must
        # never leak OS processes, least of all a failing one.
        casper.close()
    return outcome


def _drive(
    workload: ChaosWorkload,
    users: dict[str, tuple[Point, PrivacyProfile]],
    ops: list[_Op],
    casper: Casper,
    clients: dict[str, MobileClient],
    monitor: ContinuousQueryMonitor | None,
) -> _RunOutcome:
    outcome = _RunOutcome()

    def flush(monitor: ContinuousQueryMonitor) -> None:
        monitor.flush()
        outcome.flushes += 1
        outcome.monitor_degraded_max = max(
            outcome.monitor_degraded_max, len(monitor.last_degraded)
        )

    for step, op in enumerate(ops, start=1):
        answer: object = None
        if op.kind == "move":
            assert op.point is not None
            try:
                clients[op.uid].move_to(op.point)
            except UpdateDeliveryError:
                outcome.update_failures += 1
        else:
            try:
                if op.kind == "nn":
                    answer = str(casper.query_nearest_public(op.uid).answer)
                else:
                    result = casper.query_range_public(op.uid, op.radius)
                    answer = tuple(sorted(str(o) for o in result.answer))
            except DegradedModeError:
                outcome.degraded_queries += 1
                answer = "<degraded>"
        outcome.answers.append(answer)
        if monitor is not None and step % workload.flush_every == 0:
            flush(monitor)
    if monitor is not None:
        flush(monitor)
        query_ids = [
            f"cq-{uid}" for uid in sorted(users)[: workload.continuous_queries]
        ] + [f"ck-{uid}" for uid in _knn_users(workload, users)]
        for query_id in query_ids:
            outcome.monitor_answers[query_id] = tuple(
                sorted(str(o) for o in monitor.answer_of(query_id))
            )
        outcome.safe_region_counters = dict(monitor.counters)
    # Whatever the faults did, the surviving state must be internally
    # consistent — a corrupted pyramid would be a resilience bug even if
    # no query happened to observe it.
    casper.anonymizer.check_invariants()
    return outcome


def run_chaos(plan: FaultPlan, workload: ChaosWorkload | None = None) -> ChaosReport:
    """Replay ``workload`` fault-free and under ``plan``; diff and audit."""
    workload = workload if workload is not None else ChaosWorkload()
    users, targets, ops = _script(workload)
    baseline = _run_one(workload, users, targets, ops, None)
    runtime = ResilienceRuntime(plan)
    faulted = _run_one(workload, users, targets, ops, runtime)

    query_ops = sum(1 for op in ops if op.kind != "move")
    move_ops = len(ops) - query_ops
    matching = sum(
        1
        for base, fault in zip(baseline.answers, faulted.answers)
        if base is not None and fault != "<degraded>" and base == fault
    )
    answered = query_ops - faulted.degraded_queries
    monitor_matching = sum(
        1
        for query_id, base in baseline.monitor_answers.items()
        if faulted.monitor_answers.get(query_id) == base
    )
    slo: dict[str, object] = {
        "ops_total": len(ops),
        "moves_total": move_ops,
        "queries_total": query_ops,
        "queries_answered": answered,
        "queries_degraded": faulted.degraded_queries,
        "answers_matching_baseline": matching,
        "match_ratio": round(matching / query_ops, 6) if query_ops else 1.0,
        "availability": round(answered / query_ops, 6) if query_ops else 1.0,
        "update_failures": faulted.update_failures,
        "monitor_flushes": faulted.flushes,
        "monitor_degraded_max": faulted.monitor_degraded_max,
        "monitor_queries_matching_baseline": monitor_matching,
        "monitor_queries_total": (
            workload.continuous_queries + workload.continuous_knn
        ),
        "monitor_knn_queries_total": workload.continuous_knn,
        "safe_region_counters": dict(faulted.safe_region_counters),
    }
    violations = runtime.privacy_violations()
    return ChaosReport(
        scenario=plan.name,
        seed=plan.seed,
        # Every workload knob but the service area (a Rect, not JSON).
        workload={
            f.name: getattr(workload, f.name)
            for f in fields(workload) if f.name != "bounds"
        },
        runtime=runtime.report(),
        slo=slo,
        privacy_violations=len(violations),
        trace_digest=runtime.injector.trace_digest(),
    )
