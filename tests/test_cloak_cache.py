"""Cloak-cache correctness: memoized cloaks must be indistinguishable
from fresh :func:`bottom_up_cloak` runs, under any mutation pattern."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.anonymizer import (
    AdaptiveAnonymizer,
    BasicAnonymizer,
    CloakCache,
    PrivacyProfile,
    bottom_up_cloak,
)
from repro.anonymizer.basic import _KERNEL_ROWS
from repro.anonymizer.cloak import BatchCloaking
from repro.errors import ProfileUnsatisfiableError
from repro.geometry import Point, Rect
from repro.observability import enabled
from repro.sharding import make_sharded
from repro.sharding.surface import cache_counters
from tests.test_spec_machine import calls, replay

UNIT = Rect(0.0, 0.0, 1.0, 1.0)


def _fresh_cloak(anonymizer, uid):
    """What the seed implementation would have returned: Algorithm 1
    run from scratch against the live counters."""
    point = anonymizer.location_of(uid)
    if isinstance(anonymizer, BasicAnonymizer):
        start = anonymizer.grid.cell_of(point)
    else:
        start = anonymizer.leaf_for_point(point)
    return bottom_up_cloak(
        anonymizer.grid, anonymizer.cell_count, anonymizer.profile_of(uid), start
    )


coords = st.floats(min_value=0.0, max_value=1.0, allow_nan=False, width=32)


@pytest.mark.parametrize("make", [BasicAnonymizer, AdaptiveAnonymizer])
@settings(max_examples=15)
@given(steps=st.lists(calls, max_size=40))
def test_property_cached_cloaks_match_fresh_under_churn(make, steps):
    """Under any churn every cloak — cache hit or miss — is Algorithm 1
    run afresh on the spec's counts (the spec machine's judgement); at
    the end every user is cloaked twice, the miss then the hit."""
    final = [("cloak", uid) for uid in range(12)] * 2
    replay(make.label, steps + final, only=("single",))


@pytest.mark.parametrize("make", [BasicAnonymizer, AdaptiveAnonymizer])
def test_co_located_users_share_one_computation(make):
    anonymizer = make(UNIT, height=6)
    profile = PrivacyProfile(k=5)
    for uid in range(20):
        anonymizer.register(uid, Point(0.3, 0.3), profile)
    regions = [anonymizer.cloak(uid).region for uid in range(20)]
    assert len(set(regions)) == 1
    cache = anonymizer.cloak_cache
    assert cache.misses == 1
    assert cache.hits == 19
    assert cache.hit_rate == pytest.approx(19 / 20)


def test_mutation_invalidates_stale_entry():
    anonymizer = BasicAnonymizer(UNIT, height=5)
    for uid in range(4):
        anonymizer.register(uid, Point(0.1, 0.1), PrivacyProfile(k=4))
    first = anonymizer.cloak(0)
    # A fifth user in the same cell changes the counters Algorithm 1
    # read, so the cached entry may not be served verbatim.
    anonymizer.register(99, Point(0.1, 0.1), PrivacyProfile(k=4))
    second = anonymizer.cloak(0)
    assert second == _fresh_cloak(anonymizer, 0)
    assert second.achieved_k == first.achieved_k + 1


def test_unrelated_mutation_keeps_entry_valid():
    anonymizer = BasicAnonymizer(UNIT, height=5)
    for uid in range(6):
        anonymizer.register(uid, Point(0.1, 0.1), PrivacyProfile(k=4))
    anonymizer.cloak(0)
    hits_before = anonymizer.cloak_cache.hits
    # A user in the far corner touches a disjoint ancestor path below
    # the root... except the root itself, whose count *does* change; the
    # snapshot only covers cells the cloak walk actually read, so the
    # entry survives if the walk stopped before the root.
    anonymizer.register(50, Point(0.9, 0.9), PrivacyProfile(k=1))
    region = anonymizer.cloak(0)
    assert region == _fresh_cloak(anonymizer, 0)
    assert anonymizer.cloak_cache.hits == hits_before + 1
    assert anonymizer.cloak_cache.invalidations == 0


def test_capacity_zero_disables_caching():
    anonymizer = BasicAnonymizer(UNIT, height=5, cloak_cache_size=0)
    for uid in range(5):
        anonymizer.register(uid, Point(0.2, 0.2), PrivacyProfile(k=3))
    for _ in range(3):
        assert anonymizer.cloak(0) == _fresh_cloak(anonymizer, 0)
    assert len(anonymizer.cloak_cache) == 0
    assert anonymizer.cloak_cache.hits == 0
    assert anonymizer.cloak_cache.misses == 0


def test_lru_eviction_bounds_size():
    cache = CloakCache(capacity=2)
    anonymizer = BasicAnonymizer(UNIT, height=5)
    anonymizer.cloak_cache = cache
    profile = PrivacyProfile(k=1)
    for uid, x in enumerate((0.1, 0.4, 0.7, 0.9)):
        anonymizer.register(uid, Point(x, x), profile)
    for uid in range(4):
        anonymizer.cloak(uid)
    assert len(cache) == 2
    assert cache.evictions == 2
    # Evicted entries recompute correctly.
    assert anonymizer.cloak(0) == _fresh_cloak(anonymizer, 0)


def test_negative_capacity_rejected():
    with pytest.raises(ValueError):
        CloakCache(capacity=-1)


def test_unsatisfiable_profiles_are_not_cached():
    anonymizer = BasicAnonymizer(UNIT, height=5)
    anonymizer.register(0, Point(0.5, 0.5), PrivacyProfile(k=10))
    with pytest.raises(ProfileUnsatisfiableError):
        anonymizer.cloak(0)
    assert len(anonymizer.cloak_cache) == 0
    # Once satisfiable, the answer is computed (and cached) normally.
    for uid in range(1, 10):
        anonymizer.register(uid, Point(0.5, 0.5), PrivacyProfile(k=2))
    assert anonymizer.cloak(0) == _fresh_cloak(anonymizer, 0)


def test_adaptive_split_and_merge_invalidate():
    anonymizer = AdaptiveAnonymizer(UNIT, height=6)
    relaxed = PrivacyProfile(k=1)
    for uid in range(8):
        anonymizer.register(uid, Point(0.05 + uid * 0.001, 0.05), relaxed)
    before = anonymizer.cloak(0)
    assert before == _fresh_cloak(anonymizer, 0)
    # Deregistering most of the cluster forces merges; the survivor's
    # cloak must track the reshaped pyramid.
    for uid in range(1, 8):
        anonymizer.deregister(uid)
    assert anonymizer.cloak(0) == _fresh_cloak(anonymizer, 0)


# ----------------------------------------------------------------------
# cloak_many is the cloak loop: twins fed the same stream, one answering
# each batch with ``cloak_many`` (the level-at-a-time kernel from
# ``_KERNEL_ROWS`` distinct misses up), the other with the loop itself.
# ----------------------------------------------------------------------
TWIN_UIDS = 24


def _twins(num_shards, cache_size):
    if num_shards is None:
        return [BasicAnonymizer(UNIT, 5, cache_size) for _ in range(2)]
    return [
        make_sharded(UNIT, 5, num_shards, kind="basic", cloak_cache_size=cache_size)
        for _ in range(2)
    ]


def _cloak_state(anonymizer):
    """Statistics, epochs and every cache's counters, key order and
    entries (region, recorded reads, epoch)."""
    caches = getattr(anonymizer, "_caches", None) or [anonymizer.cloak_cache]
    return (
        vars(anonymizer.stats),
        [getattr(anonymizer, name, None)
         for name in ("_epoch", "_shard_epochs", "_boundary_epoch")],
        [
            (cache_counters(c),
             [(key, e.region, e.snapshot, e.epoch) for key, e in c._entries.items()])
            for c in caches
        ],
    )


def _outcome(call):
    try:
        return call()
    except ProfileUnsatisfiableError as exc:
        return type(exc), str(exc)


twin_uids = st.integers(0, TWIN_UIDS - 1)
twin_ticks = st.lists(
    st.tuples(
        st.lists(st.tuples(twin_uids, coords, coords), max_size=TWIN_UIDS,
                 unique_by=lambda move: move[0]),
        st.lists(twin_uids, min_size=1, max_size=4 * _KERNEL_ROWS),
        st.booleans(),
    ),
    min_size=1, max_size=6,
)


@pytest.mark.parametrize("cache_size", [0, 3, 8192])
@pytest.mark.parametrize("num_shards", [None, 1, 2, 4])
@settings(max_examples=12)
@given(
    homes=st.lists(st.tuples(coords, coords), min_size=TWIN_UIDS, max_size=TWIN_UIDS),
    ticks=twin_ticks,
)
def test_property_cloak_many_is_the_cloak_loop(num_shards, cache_size, homes, ticks):
    batched, looped = twins = _twins(num_shards, cache_size)
    for uid, (x, y) in enumerate(homes):
        # Every fourth user shares one cell and profile; k = 40 cannot
        # be satisfied by 24 users.
        point = Point(0.3, 0.3) if uid % 4 == 0 else Point(x, y)
        profile = PrivacyProfile((1, 2, 3, 5, 8, 40)[uid % 6], (0.0, 0.01, 0.2)[uid % 3])
        for twin in twins:
            twin.register(uid, point, profile)
    stand_in = batched.cloak(1)
    assert looped.cloak(1) == stand_in
    for moves, batch, with_stand_in in ticks:
        for twin in twins:
            twin.update_batch([(uid, Point(x, y)) for uid, x, y in moves])
        unsatisfiable = stand_in if with_stand_in else None
        assert _outcome(
            lambda: batched.cloak_many(batch, unsatisfiable=unsatisfiable)
        ) == _outcome(
            lambda: BatchCloaking.cloak_many(looped, batch, unsatisfiable=unsatisfiable)
        )
        assert _cloak_state(batched) == _cloak_state(looped)


@pytest.mark.parametrize("num_shards", [None, 2])
def test_cloak_many_emits_the_loops_telemetry(num_shards):
    observed = []
    for answer in (lambda twin, uids: twin.cloak_many(uids), BatchCloaking.cloak_many):
        (twin, _) = _twins(num_shards, 8192)
        for uid in range(3 * _KERNEL_ROWS):
            twin.register(uid, Point((uid * 0.37) % 1, (uid * 0.61) % 1), PrivacyProfile(3))
        with enabled() as session:
            answer(twin, list(range(3 * _KERNEL_ROWS)) * 2)
        observed.append(
            {(m.name, m.labels): getattr(m, "count", None) or m.value
             for m in session.metrics if "seconds" not in m.name or hasattr(m, "count")}
        )
    assert observed[0] == observed[1] and observed[0]
