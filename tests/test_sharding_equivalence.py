"""Shard-seam regressions, as replays of the spec machine.

The sharded anonymizers are deployments, not approximations: the
machine in ``tests/test_spec_machine.py`` drives every policy on one
instance, the in-process and worker-pool fleets and the scalar
reference — with, for ``basic``, its cell-set statement of the
composite cache epochs — and holds cloaks, costs, statistics, per-shard
cache rows and epochs equal at every step.  What a random walk rarely
reaches is pinned here as fixed steps through its lanes, at the shard
counts where it matters.  The deterministic telemetry stream, which no
lane compares, keeps its own tests.
"""

from __future__ import annotations

import pytest

from repro.anonymizer import PrivacyProfile, get_policy
from repro.geometry import Point
from repro.observability import enabled
from repro.sharding import make_sharded
from tests.test_spec_machine import HEIGHT, STAND_IN, UNIT, crowd, replay, users

SHARD_COUNTS = (1, 2, 4, 8)


def grid_point(i: int) -> Point:
    """A spread of twelve fixed points over the area."""
    return Point(i % 3 / 3 + 0.05, i % 4 / 4 + 0.1)


#: Twelve users, each cloaked, moved and cloaked again, then a profile
#: change, a departure and a batch of cloaks.
CHURN = crowd(12, k=2) + [
    step
    for uid in range(12)
    for step in (("cloak", uid), ("update", uid, grid_point(uid)), ("cloak", uid))
] + [("set_profile", 3, PrivacyProfile(5, 0.01)), ("deregister", 4),
     ("cloak_many", list(range(12)), STAND_IN)]


class TestLockstepEquivalence:
    def test_basic(self) -> None:
        for shards in SHARD_COUNTS:
            replay("basic", CHURN, shards=shards)

    def test_adaptive(self) -> None:
        for shards in SHARD_COUNTS:
            replay("adaptive", CHURN, shards=shards)


class TestFailingBatchIsTheSequentialLoop:
    """``update_batch`` is the sequential loop on every deployment: on
    the first bad move every earlier move has been applied, no later
    one has, and the same exception is raised."""

    HOMES = crowd(6, k=2)
    # The move *after* the failing one lands in the lowest shard and the
    # failing one in the highest, so a fleet applying per-shard groups
    # in shard order would run it before raising.
    BAD = {
        "out_of_bounds": (3, Point(1.5, 0.95)),
        "unknown_uid": ("ghost", Point(0.95, 0.95)),
    }

    @pytest.mark.parametrize("bad", sorted(BAD))
    def test_prefix_applied_and_same_exception(self, bad) -> None:
        moves = [(0, Point(0.85, 0.20)), (1, Point(0.12, 0.80)),
                 (2, Point(0.55, 0.45)), self.BAD[bad], (4, Point(0.05, 0.05))]
        *_, (status, _error) = replay("basic", self.HOMES + [("update_batch", moves)])
        assert status == "raised"


class TestCompositeEpochOracle:
    """Production bumps epochs by Morton arithmetic (one bincount per
    batch); ``ReferenceBasic(num_shards=N)`` by the set of cells each
    per-cell walk touched — the machine's ``reference_sharded`` lane."""

    STEPS = crowd(8, k=2) + [
        ("save",),
        ("update_batch", [(0, Point(0.9, 0.9)), (1, Point(0.1, 0.12)),
                          (5, Point(0.52, 0.3))]),
        ("cloak", 0), ("cloak", 5), ("update", 2, Point(0.26, 0.74)),
        ("register", 9, Point(0.51, 0.49), PrivacyProfile(3)), ("cloak", 9),
        ("deregister", 3), ("cloak", 1), ("reload",), ("cloak", 0),
        ("update_batch", [(u, Point(0.05 + u / 10, 0.95 - u / 10)) for u in range(8)]),
        ("cloak_many", list(range(8)), STAND_IN),
    ]

    @pytest.mark.parametrize("num_shards", SHARD_COUNTS)
    def test_lockstep(self, num_shards) -> None:
        replay("basic", self.STEPS, shards=num_shards)


class TestCrossBoundaryEscalation:
    """At 4 shards and height 5 the spine level is 1, so the seam between
    blocks (1,0,0) and (1,1,0) is the x=0.5 line.  A cloak that starts
    next to it and must escalate to the spine reads counts other shards
    own — the path a stale boundary cache or a missed spine update would
    corrupt."""

    WEST = [Point(0.46, 0.20), Point(0.48, 0.30), Point(0.49, 0.10)]
    EAST = [Point(0.51, 0.20), Point(0.53, 0.30)]
    SEAM = (
        [("register", f"w{i}", p, PrivacyProfile(2)) for i, p in enumerate(WEST)]
        + [("register", f"e{i}", p, PrivacyProfile(2)) for i, p in enumerate(EAST)]
        + [("set_profile", "w0", PrivacyProfile(5))]
    )

    @pytest.mark.parametrize("kind", ["basic", "adaptive"])
    def test_escalating_cloak_crosses_the_seam_identically(self, kind) -> None:
        *_, (_, (region, achieved_k, _)) = replay(kind, self.SEAM + [("cloak", "w0")])
        assert region.x_min < 0.5 < region.x_max and achieved_k == 5

    @pytest.mark.parametrize("kind", ["basic", "adaptive"])
    def test_remote_shard_mutation_invalidates_the_spine_cloak(self, kind) -> None:
        # A registration homed in the *eastern* shard changes a count the
        # cached western cloak read: achieved_k rises from 5 to 6.
        late = ("register", "late", Point(0.52, 0.12), PrivacyProfile(2))
        steps = [("cloak", "w0"), late, ("cloak", "w0")]
        *_, before, _, after = replay(kind, self.SEAM + steps)
        assert before != after

    @pytest.mark.parametrize("kind", ["basic", "adaptive"])
    def test_moving_across_the_seam_rehomes_and_stays_identical(self, kind) -> None:
        steps = [("set_profile", "e0", PrivacyProfile(4)),
                 ("update", "e0", Point(0.47, 0.22)), ("cloak", "e0")]
        replay(kind, self.SEAM + steps)


def _deterministic(session, names) -> dict:
    fields = ("value", "counts", "sum", "boundaries", "kind")
    return {
        (e["name"], tuple(map(tuple, e["labels"]))):
            {k: v for k, v in e.items() if k in fields}
        for e in session.metrics.snapshot()["metrics"] if e["name"] in names
    }


class TestSloCountersMatch:
    """The deterministic instruments — request counters and the k-ratio
    histogram of the ``k_satisfaction`` objective — and the per-shard
    operation stream do not depend on the deployment."""

    @pytest.mark.parametrize("kind", ["basic", "adaptive"])
    def test_counters_identical_across_shard_counts(self, kind) -> None:
        builds = [lambda: get_policy(kind).single(UNIT, HEIGHT, 8192)] + [
            lambda n=n: make_sharded(UNIT, HEIGHT, n, kind) for n in SHARD_COUNTS]
        streams = []
        for build in builds:
            impl = build()
            with enabled() as session:
                for _, uid, point, profile in users(12, k=2):
                    impl.register(uid, point, profile)
                for uid in range(12):
                    impl.cloak(uid)
                    impl.update(uid, grid_point(uid))
                    impl.cloak(uid)
            names = {"casper_cloak_requests_total", "casper_cloak_k_ratio"}
            streams.append(_deterministic(session, names))
        assert all(stream == streams[0] for stream in streams[1:])

    def test_update_batch_records_the_scalar_loops_shard_telemetry(self) -> None:
        """One code path whether or not telemetry is on: a batch (the
        bincount form of the epoch rule) records the scalar loop's
        per-(shard, op) counts and occupancy gauges."""
        moves = [(i, Point(i * 7 % 12 / 12 + 0.03, i * 5 % 12 / 12 + 0.04))
                 for i in range(12)]
        streams = []
        for batched in (False, True):
            fleet = make_sharded(UNIT, height=HEIGHT, num_shards=4)
            with enabled() as session:
                for i in range(12):
                    home = Point(i % 4 / 4 + 0.1, i // 4 / 3 + 0.05)
                    fleet.register(i, home, PrivacyProfile(k=2))
                if batched:
                    fleet.update_batch(moves)
                else:
                    for uid, point in moves:
                        fleet.update(uid, point)
                names = {"casper_shard_ops_total", "casper_shard_users"}
                streams.append(_deterministic(session, names))
        scalar, batch = streams
        assert scalar == batch
        ops = [(dict(labels)["op"], value["value"])
               for (name, labels), value in scalar.items()
               if name == "casper_shard_ops_total"]
        assert "rehome" in dict(ops)
        assert sum(n for op, n in ops if op == "update") == len(moves)
