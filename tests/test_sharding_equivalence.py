"""The sharding contract: byte-for-byte equivalence with one pyramid.

The sharded anonymizers are *deployments*, not approximations — for any
shard count they must emit exactly the cloaks, candidate lists,
maintenance counters and SLO-relevant telemetry of the single-pyramid
implementations.  Every test here drives the single implementation and
sharded fleets of N ∈ {1, 2, 4, 8} through identical operation sequences
and compares full fingerprints, including the regression that motivates
the spine: cloaks escalating across a shard seam.
"""

from __future__ import annotations

import dataclasses

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.anonymizer import AdaptiveAnonymizer, BasicAnonymizer, PrivacyProfile
from repro.errors import ProfileUnsatisfiableError
from repro.geometry import Point, Rect
from repro.sharding import make_sharded
from tests.conftest import UNIT
from tests.reference_pyramid import ReferenceBasic

HEIGHT = 5
SHARD_COUNTS = (1, 2, 4, 8)

coords = st.floats(min_value=0.0, max_value=1.0, allow_nan=False)
ks = st.integers(1, 12)
a_mins = st.sampled_from([0.0, 0.001, 0.01, 0.1])
uids = st.integers(0, 11)

register_ops = st.tuples(st.just("register"), uids, coords, coords, ks, a_mins)
move_ops = st.tuples(st.just("move"), uids, coords, coords)
profile_ops = st.tuples(st.just("profile"), uids, ks, a_mins)
cloak_ops = st.tuples(st.just("cloak"), uids)
deregister_ops = st.tuples(st.just("deregister"), uids)

op_lists = st.lists(
    st.one_of(register_ops, move_ops, cloak_ops, profile_ops, deregister_ops),
    min_size=1,
    max_size=60,
)


def _build(kind: str) -> list:
    single = (
        BasicAnonymizer(UNIT, height=HEIGHT)
        if kind == "basic"
        else AdaptiveAnonymizer(UNIT, height=HEIGHT)
    )
    fleets = [
        make_sharded(UNIT, height=HEIGHT, num_shards=n, kind=kind)
        for n in SHARD_COUNTS
    ]
    return [single, *fleets]


def _cloak_bytes(anonymizer, uid) -> object:
    try:
        region = anonymizer.cloak(uid)
    except ProfileUnsatisfiableError:
        return "unsatisfiable"
    return (region.region.as_tuple(), region.achieved_k, region.cells)


def _drive_lockstep(kind: str, ops) -> None:
    """Replay ``ops`` on every implementation, comparing as we go."""
    impls = _build(kind)
    alive: set[int] = set()
    for op in ops:
        uid = op[1]
        if op[0] == "register":
            if uid in alive:
                continue
            _, _, x, y, k, a_min = op
            for impl in impls:
                impl.register(uid, Point(x, y), PrivacyProfile(k, a_min))
            alive.add(uid)
        elif uid not in alive:
            continue
        elif op[0] == "move":
            _, _, x, y = op
            costs = {impl.update(uid, Point(x, y)) for impl in impls}
            assert len(costs) == 1, "update cost diverged"
        elif op[0] == "profile":
            _, _, k, a_min = op
            for impl in impls:
                impl.set_profile(uid, PrivacyProfile(k, a_min))
        elif op[0] == "cloak":
            cloaks = {_cloak_bytes(impl, uid) for impl in impls}
            assert len(cloaks) == 1, "cloak diverged"
        else:  # deregister
            for impl in impls:
                impl.deregister(uid)
            alive.discard(uid)
    single, *fleets = impls
    reference = dataclasses.asdict(single.stats)
    reference_cache = {
        "hits": single.cloak_cache.hits,
        "misses": single.cloak_cache.misses,
        "invalidations": single.cloak_cache.invalidations,
        "evictions": single.cloak_cache.evictions,
    }
    for fleet in fleets:
        fleet.check_invariants()
        assert dataclasses.asdict(fleet.stats) == reference
        assert fleet.cache_stats() == reference_cache
        assert fleet.num_users == single.num_users
        assert sum(fleet.shard_occupancy()) == single.num_users
        if kind == "adaptive":
            assert fleet.num_maintained_cells == single.num_maintained_cells


class TestLockstepEquivalence:
    @settings(max_examples=40)
    @given(ops=op_lists)
    def test_basic(self, ops) -> None:
        _drive_lockstep("basic", ops)

    @settings(max_examples=40)
    @given(ops=op_lists)
    def test_adaptive(self, ops) -> None:
        _drive_lockstep("adaptive", ops)


class TestFailingBatchIsTheSequentialLoop:
    """``update_batch`` promises the sequential loop's error semantics:
    on the first bad move every earlier move has been applied, no later
    one has, and the same exception is raised — on every deployment."""

    HOMES = [
        Point(0.10, 0.10), Point(0.80, 0.15), Point(0.20, 0.85),
        Point(0.90, 0.90), Point(0.45, 0.55), Point(0.60, 0.30),
    ]
    # The move *after* the failing one lands in the lowest shard and the
    # failing one in the highest, so a fleet applying per-shard groups
    # in shard order would run it before raising.
    BAD = {
        "out_of_bounds": (3, Point(1.5, 0.95)),
        "unknown_uid": ("ghost", Point(0.95, 0.95)),
    }

    @pytest.mark.parametrize("bad", sorted(BAD))
    def test_prefix_applied_and_same_exception(self, bad) -> None:
        moves = [
            (0, Point(0.85, 0.20)),
            (1, Point(0.12, 0.80)),
            (2, Point(0.55, 0.45)),
            self.BAD[bad],
            (4, Point(0.05, 0.05)),
        ]
        outcomes = []
        for impl in _build("basic"):
            for uid, home in enumerate(self.HOMES):
                impl.register(uid, home, PrivacyProfile(k=2))
            with pytest.raises(Exception) as raised:
                impl.update_batch(moves)
            outcomes.append(
                (
                    type(raised.value),
                    str(raised.value),
                    [impl.location_of(uid) for uid in range(len(self.HOMES))],
                    dataclasses.asdict(impl.stats),
                )
            )
            assert impl.stats.location_updates == 3
        assert all(outcome == outcomes[0] for outcome in outcomes[1:])


snapshot_ops = st.just(("snapshot",))
restore_ops = st.just(("restore",))
batch_ops = st.tuples(
    st.just("batch"),
    st.lists(
        st.tuples(uids, coords, coords),
        min_size=2, max_size=8, unique_by=lambda move: move[0],
    ),
)
epoch_op_lists = st.lists(
    st.one_of(
        register_ops, move_ops, batch_ops, cloak_ops, deregister_ops,
        snapshot_ops, restore_ops,
    ),
    min_size=1,
    max_size=60,
)


class TestCompositeEpochOracle:
    """The production fleet and its worker replicas are one class, so
    the composite-epoch rule is pinned against an independent
    statement of it: ``ReferenceBasic(num_shards=N)`` bumps epochs from
    the *set of cells* each per-cell walk touched, production from
    Morton arithmetic (one bincount for a whole batch).  Cloaks, costs,
    per-shard cache rows and the epochs themselves agree at every
    step."""

    @staticmethod
    def _observe(impl) -> tuple:
        return (
            impl.cache_stats_per_shard(),
            impl._shard_epochs,
            impl._boundary_epoch,
            dataclasses.asdict(impl.stats),
        )

    @settings(max_examples=25)
    @given(ops=epoch_op_lists)
    @pytest.mark.parametrize("num_shards", SHARD_COUNTS)
    def test_lockstep(self, num_shards, ops) -> None:
        oracle = ReferenceBasic(UNIT, height=HEIGHT, num_shards=num_shards)
        fleet = make_sharded(UNIT, height=HEIGHT, num_shards=num_shards)
        pair = (oracle, fleet)
        # A standing population, so every drawn batch has members.
        alive = set(range(8))
        for uid in alive:
            for impl in pair:
                impl.register(
                    uid,
                    Point(uid % 4 / 4 + 0.1, uid // 4 / 2 + 0.2),
                    PrivacyProfile(k=2 + uid % 3),
                )
        saved = (set(alive), [impl.snapshot() for impl in pair])
        for op in ops:
            kind = op[0]
            if kind == "register":
                _, uid, x, y, k, a_min = op
                if uid in alive:
                    continue
                for impl in pair:
                    impl.register(uid, Point(x, y), PrivacyProfile(k, a_min))
                alive.add(uid)
            elif kind == "move":
                _, uid, x, y = op
                if uid not in alive:
                    continue
                assert oracle.update(uid, Point(x, y)) == fleet.update(
                    uid, Point(x, y)
                )
            elif kind == "batch":
                moves = [(u, Point(x, y)) for u, x, y in op[1] if u in alive]
                assert oracle.update_batch(moves) == fleet.update_batch(moves)
            elif kind == "cloak":
                if op[1] not in alive:
                    continue
                assert _cloak_bytes(oracle, op[1]) == _cloak_bytes(fleet, op[1])
            elif kind == "deregister":
                if op[1] not in alive:
                    continue
                for impl in pair:
                    impl.deregister(op[1])
                alive.discard(op[1])
            elif kind == "snapshot":
                saved = (set(alive), [impl.snapshot() for impl in pair])
            else:  # restore
                alive = set(saved[0])
                for impl, state in zip(pair, saved[1]):
                    impl.restore(state)
            assert self._observe(oracle) == self._observe(fleet), op
        fleet.check_invariants()
        oracle.check_invariants()


class TestCrossBoundaryEscalation:
    """Regression pinned at a shard seam.

    With N=4 shards at height 5 the spine level is 1, so the seam
    between blocks (1,0,0) and (1,1,0) is the x=0.5 line.  A cloak that
    starts next to the seam and must escalate to the spine reads counts
    contributed by *other* shards — the exact path a stale boundary
    cache or a missed spine update would corrupt.
    """

    WEST = [Point(0.46, 0.20), Point(0.48, 0.30), Point(0.49, 0.10)]
    EAST = [Point(0.51, 0.20), Point(0.53, 0.30)]

    def _populated(self, kind: str) -> list:
        impls = _build(kind)
        for impl in impls:
            for i, point in enumerate(self.WEST):
                impl.register(f"w{i}", point, PrivacyProfile(k=2))
            for i, point in enumerate(self.EAST):
                impl.register(f"e{i}", point, PrivacyProfile(k=2))
        return impls

    @pytest.mark.parametrize("kind", ["basic", "adaptive"])
    def test_escalating_cloak_crosses_the_seam_identically(self, kind) -> None:
        impls = self._populated(kind)
        # k=5 is satisfiable only above the block level: the cloak must
        # swallow users on both sides of the seam.
        for impl in impls:
            impl.set_profile("w0", PrivacyProfile(k=5))
        cloaks = {_cloak_bytes(impl, "w0") for impl in impls}
        assert len(cloaks) == 1
        (cloak,) = cloaks
        assert cloak != "unsatisfiable"
        region = Rect(*cloak[0])
        assert region.x_min < 0.5 < region.x_max, "cloak must span the seam"
        assert cloak[1] == 5

    @pytest.mark.parametrize("kind", ["basic", "adaptive"])
    def test_remote_shard_mutation_invalidates_the_spine_cloak(self, kind) -> None:
        impls = self._populated(kind)
        for impl in impls:
            impl.set_profile("w0", PrivacyProfile(k=5))
        before = {_cloak_bytes(impl, "w0") for impl in impls}
        assert len(before) == 1
        # A registration homed in the *eastern* shard changes the count
        # the cached western cloak depends on; every deployment must
        # notice (composite core/boundary epoch) and agree afresh.
        for impl in impls:
            impl.register("late", Point(0.52, 0.12), PrivacyProfile(k=2))
        after = {_cloak_bytes(impl, "w0") for impl in impls}
        assert len(after) == 1
        assert after != before  # achieved_k rose from 5 to 6

    @pytest.mark.parametrize("kind", ["basic", "adaptive"])
    def test_moving_across_the_seam_rehomes_and_stays_identical(self, kind) -> None:
        impls = self._populated(kind)
        for impl in impls:
            impl.set_profile("e0", PrivacyProfile(k=4))
            impl.update("e0", Point(0.47, 0.22))  # east -> west shard
        cloaks = {_cloak_bytes(impl, "e0") for impl in impls}
        assert len(cloaks) == 1
        single, *fleets = impls
        for fleet in fleets:
            fleet.check_invariants()
            if fleet.num_shards == 4:
                assert fleet.shard_of_user("e0") == fleet.shard_of_user("w0")
            assert dataclasses.asdict(fleet.stats) == dataclasses.asdict(
                single.stats
            )


class TestSloCountersMatch:
    """The SLO-relevant telemetry stream is deployment-independent.

    Wall-clock histograms differ between runs by construction; the
    deterministic instruments — request counters and the k-ratio
    histogram feeding the ``k_satisfaction`` SLO — must not.
    """

    @staticmethod
    def _deterministic_metrics(session) -> dict[tuple, object]:
        snapshot = session.metrics.snapshot()
        keep = {"casper_cloak_requests_total", "casper_cloak_k_ratio"}
        out: dict[tuple, object] = {}
        for entry in snapshot["metrics"]:
            if entry["name"] not in keep:
                continue
            key = (entry["name"], tuple(map(tuple, entry["labels"])))
            out[key] = {
                k: v
                for k, v in entry.items()
                if k in ("value", "counts", "sum", "boundaries", "kind")
            }
        return out

    @pytest.mark.parametrize("kind", ["basic", "adaptive"])
    def test_counters_identical_across_shard_counts(self, kind) -> None:
        from repro.observability import enabled

        streams = []
        for build in range(len(SHARD_COUNTS) + 1):
            impls = _build(kind)
            impl = impls[build]
            with enabled() as session:
                for i in range(12):
                    impl.register(
                        i,
                        Point((i % 4) / 4 + 0.1, (i // 4) / 3 + 0.05),
                        PrivacyProfile(k=2 + i % 3),
                    )
                for i in range(12):
                    _cloak_bytes(impl, i)
                    impl.update(i, Point((i % 3) / 3 + 0.05, (i % 4) / 4 + 0.1))
                    _cloak_bytes(impl, i)
                streams.append(self._deterministic_metrics(session))
        assert all(stream == streams[0] for stream in streams[1:])

    def test_update_batch_records_the_scalar_loops_shard_telemetry(self) -> None:
        """One code path whether or not telemetry is on: a batch (the
        bincount form of the epoch rule) records the same per-(shard,
        op) counts and occupancy gauges as the scalar loop."""
        from repro.observability import enabled

        moves = [
            (i, Point((i * 7 % 12) / 12 + 0.03, (i * 5 % 12) / 12 + 0.04))
            for i in range(12)
        ]
        streams = []
        for batched in (False, True):
            fleet = make_sharded(UNIT, height=HEIGHT, num_shards=4)
            with enabled() as session:
                for i in range(12):
                    fleet.register(
                        i,
                        Point((i % 4) / 4 + 0.1, (i // 4) / 3 + 0.05),
                        PrivacyProfile(k=2),
                    )
                if batched:
                    fleet.update_batch(moves)
                else:
                    for uid, point in moves:
                        fleet.update(uid, point)
                streams.append(
                    {
                        (entry["name"], tuple(map(tuple, entry["labels"]))):
                            entry["value"]
                        for entry in session.metrics.snapshot()["metrics"]
                        if entry["name"]
                        in ("casper_shard_ops_total", "casper_shard_users")
                    }
                )
        scalar, batch = streams
        assert scalar == batch
        ops = {key[1]: value for key, value in scalar.items() if "ops" in key[0]}
        assert any(dict(labels)["op"] == "rehome" for labels in ops)
        assert sum(
            value for labels, value in ops.items()
            if dict(labels)["op"] == "update"
        ) == len(moves)
