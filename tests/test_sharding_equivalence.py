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
