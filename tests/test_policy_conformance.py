"""Conformance suite for the cloaking-policy registry.

Every policy registered in ``repro.anonymizer.policy`` — the paper's
pyramid cloakers and the related-work baselines alike — must satisfy
the :class:`CloakingPolicy` contract: honour ``(k, A_min)`` profiles,
include the requesting user in the cloak, survive snapshot round-trips,
and run unchanged behind the sharded and parallel deployment seams.
The suite auto-parametrizes over :func:`available_policies`, so a newly
registered policy is covered without touching this file.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.anonymizer import (
    BasicAnonymizer,
    CloakingPolicy,
    available_policies,
    get_policy,
)
from repro.anonymizer.profile import PrivacyProfile
from repro.anonymizer.soa import MAX_SOA_HEIGHT, MAX_TABLE_HEIGHT
from repro.errors import (
    DuplicateUserError,
    OutOfBoundsError,
    ProfileUnsatisfiableError,
    UnknownUserError,
)
from repro.geometry import Point, Rect
from repro.server import Casper
from repro.sharding import ReplicatedShardedAnonymizer, make_sharded
from repro.sharding.workers import ShardWorker, WorkerPool, _WorkerConfig
from tests.conftest import UNIT, random_points

HEIGHT = 6
A_MIN = 0.004  # large enough to force climbing above the leaf level


def build(name: str) -> CloakingPolicy:
    return get_policy(name).single(UNIT, HEIGHT, 8192)


def populate(anonymizer, n: int = 160, k: int = 8, seed: int = 7):
    rng = np.random.default_rng(seed)
    points = random_points(rng, n)
    profile = PrivacyProfile(k=k, a_min=A_MIN)
    for uid, point in enumerate(points):
        anonymizer.register(uid, point, profile)
    return points, profile


@pytest.fixture(params=available_policies())
def policy_name(request) -> str:
    return request.param


class TestRegistry:
    def test_spec_shape(self, policy_name):
        spec = get_policy(policy_name)
        assert spec.name == policy_name
        assert callable(spec.single)
        # Native fleet <=> workers partition; otherwise the broadcast wrapper.
        worker = ShardWorker(_WorkerConfig(policy_name, UNIT, HEIGHT, 4, 64), 0, None)
        for fleet in (make_sharded(UNIT, HEIGHT, 4, policy_name), worker._replica):
            assert isinstance(fleet, ReplicatedShardedAnonymizer) is (spec.sharded is None)

    def test_unknown_name_lists_known(self):
        with pytest.raises(ValueError, match="registered policies"):
            get_policy("does-not-exist")

    def test_instance_satisfies_protocol(self, policy_name):
        assert isinstance(build(policy_name), CloakingPolicy)


class TestCloakContract:
    def test_k_satisfaction_and_inclusiveness(self, policy_name):
        anonymizer = build(policy_name)
        points, profile = populate(anonymizer)
        for uid in range(0, 160, 13):
            cloaked = anonymizer.cloak(uid)
            assert cloaked.achieved_k >= profile.k
            assert cloaked.region.contains_point(points[uid])
            assert UNIT.contains_rect(cloaked.region)

    def test_a_min_respected(self, policy_name):
        anonymizer = build(policy_name)
        populate(anonymizer)
        for uid in range(0, 160, 29):
            area = anonymizer.cloak(uid).region.area
            assert area >= A_MIN * (1 - 1e-9)

    def test_cloak_location_matches_cloak(self, policy_name):
        anonymizer = build(policy_name)
        points, profile = populate(anonymizer)
        assert (
            anonymizer.cloak_location(points[3], profile).region
            == anonymizer.cloak(3).region
        )

    def test_cloak_many_is_the_cloaks_with_per_item_outcomes(self, policy_name):
        a, b = build(policy_name), build(policy_name)
        for anonymizer in (a, b):
            populate(anonymizer, n=40)
            anonymizer.set_profile(5, PrivacyProfile(k=1000))  # unsatisfiable
        uids = [3, 5, 7, 3, 11]
        stand_in = a.cloak(0)
        expected = [b.cloak(uid) if uid != 5 else stand_in for uid in uids]
        assert a.cloak_many(uids, unsatisfiable=stand_in) == expected
        with pytest.raises(ProfileUnsatisfiableError):
            a.cloak_many(uids)
        # The whole batch ran before the earliest failure was raised.
        assert a.stats.cloak_requests == 1 + 2 * len(uids)
        assert a.cloak_many([]) == []
        with pytest.raises(UnknownUserError):
            a.cloak_many([3, "ghost"])

    def test_unknown_user_raises(self, policy_name):
        anonymizer = build(policy_name)
        with pytest.raises(UnknownUserError):
            anonymizer.cloak("ghost")
        with pytest.raises(UnknownUserError):
            anonymizer.update("ghost", Point(0.5, 0.5))
        with pytest.raises(UnknownUserError):
            anonymizer.deregister("ghost")


class TestLifecycle:
    def test_register_update_deregister(self, policy_name):
        anonymizer = build(policy_name)
        populate(anonymizer, n=40)
        assert anonymizer.num_users == 40
        assert 7 in anonymizer
        anonymizer.update(7, Point(0.9, 0.9))
        assert anonymizer.location_of(7) == Point(0.9, 0.9)
        anonymizer.deregister(7)
        assert 7 not in anonymizer
        assert anonymizer.num_users == 39
        anonymizer.check_invariants()

    def test_update_batch_matches_loop(self, policy_name):
        a, b = build(policy_name), build(policy_name)
        populate(a, n=60)
        populate(b, n=60)
        rng = np.random.default_rng(23)
        moves = [(uid, p) for uid, p in zip(range(0, 60, 7), random_points(rng, 9))]
        batched = a.update_batch(list(moves))
        looped = [b.update(uid, p) for uid, p in moves]
        assert batched == looped
        for uid, p in moves:
            assert a.location_of(uid) == b.location_of(uid) == p

    def test_users_in_rect_counts_population(self, policy_name):
        anonymizer = build(policy_name)
        populate(anonymizer, n=50)
        assert anonymizer.users_in_rect(UNIT) == 50


#: The two ways every policy deploys in-process: one instance, and the
#: sharded wrapper ``make_sharded`` picks for it.
DEPLOYMENTS = {
    "single": build,
    "sharded": lambda name: make_sharded(UNIT, HEIGHT, num_shards=2, kind=name),
}


def population_state(anonymizer, uids):
    """Everything the population surface shows, plus a snapshot."""
    present = [uid for uid in uids if uid in anonymizer]
    return (
        anonymizer.num_users,
        present,
        [anonymizer.location_of(uid) for uid in present],
        [anonymizer.profile_of(uid) for uid in present],
        anonymizer.users_in_rect(UNIT),
        getattr(anonymizer, "shard_occupancy", list)(),
        anonymizer.snapshot(),
    )


@pytest.mark.parametrize("deployment", [*sorted(DEPLOYMENTS), "parallel"])
def test_a_refused_cloak_batch_leaves_no_trace(policy_name, deployment):
    """``cloak_many`` resolves every uid before it cloaks, counts or
    caches anything — the one rule of every host, on both sides of the
    basic kernel's batch-size threshold."""
    if deployment == "parallel":
        anonymizer = make_sharded(UNIT, HEIGHT, num_shards=2, kind=policy_name, parallel=True)
    else:
        anonymizer = DEPLOYMENTS[deployment](policy_name)
    try:
        populate(anonymizer, n=40)
        anonymizer.cloak(0)

        def traces():
            caches = getattr(anonymizer, "cache_stats", None)
            own = getattr(anonymizer, "cloak_cache", None)
            return (
                anonymizer.stats.cloak_requests,
                caches() if caches else own and (own.hits, own.misses, len(own)),
            )

        before = traces()
        for batch in ([0, 1, "nope", 2], [*range(30), "nope", 31]):
            with pytest.raises(UnknownUserError):
                anonymizer.cloak_many(batch)
            assert traces() == before
    finally:
        getattr(anonymizer, "close", lambda: None)()


@pytest.mark.parametrize("deployment", sorted(DEPLOYMENTS))
class TestPopulationContract:
    """One row per user, one admission rule — the same on every policy
    and every deployment, because it is the chassis's, not the
    policy's."""

    #: Two users under a strict profile keep the adaptive cut's root a
    #: leaf; eighty under a relaxed one split it several levels deep.
    @pytest.mark.parametrize("n, k", [(2, 50), (80, 3)], ids=["unsplit", "split"])
    @pytest.mark.parametrize("outside", [Point(-3.0, 0.5), Point(7.0, 7.0)])
    def test_a_refused_point_leaves_no_trace(
        self, policy_name, deployment, n, k, outside
    ):
        anonymizer = DEPLOYMENTS[deployment](policy_name)
        populate(anonymizer, n=n, k=k)
        uids = [*range(n), "late"]
        before = population_state(anonymizer, uids)
        refused = {
            "register": lambda: anonymizer.register(
                "late", outside, PrivacyProfile(k=k)
            ),
            "update": lambda: anonymizer.update(1, outside),
            "update_batch": lambda: anonymizer.update_batch(
                [(1, outside), (0, Point(0.5, 0.5))]
            ),
        }
        for op, call in refused.items():
            with pytest.raises(OutOfBoundsError):
                call()
            assert population_state(anonymizer, uids) == before, op
            anonymizer.check_invariants()

    def test_rows_are_bit_exact(self, policy_name, deployment):
        anonymizer = DEPLOYMENTS[deployment](policy_name)
        rng = np.random.default_rng(3)
        profile = PrivacyProfile(k=3, a_min=float(rng.random()) / 7)
        point = Point(*rng.random(2).tolist())
        anonymizer.register("u", point, profile)
        assert anonymizer.location_of("u") == point
        assert anonymizer.profile_of("u") == profile
        moved = Point(*rng.random(2).tolist())
        anonymizer.update("u", moved)
        changed = PrivacyProfile(k=2, a_min=float(rng.random()) / 3)
        anonymizer.set_profile("u", changed)
        assert anonymizer.location_of("u") == moved
        assert anonymizer.profile_of("u") == changed
        with pytest.raises(DuplicateUserError):
            anonymizer.register("u", point, profile)
        assert anonymizer.location_of("u") == moved

    def test_users_in_rect_is_a_brute_count(self, policy_name, deployment):
        anonymizer = DEPLOYMENTS[deployment](policy_name)
        points, _ = populate(anonymizer, n=90)
        anonymizer.deregister(4)
        anonymizer.update(9, Point(0.31, 0.62))
        live = {uid: p for uid, p in enumerate(points) if uid != 4}
        live[9] = Point(0.31, 0.62)
        for rect in (UNIT, Rect(0.1, 0.2, 0.6, 0.7), Rect(0.31, 0.62, 0.31, 0.62)):
            assert anonymizer.users_in_rect(rect) == sum(
                rect.contains_point(p) for p in live.values()
            )


class TestSnapshot:
    def test_roundtrip_preserves_cloaks(self, policy_name):
        anonymizer = build(policy_name)
        points, profile = populate(anonymizer)
        before = {uid: anonymizer.cloak(uid).region for uid in range(0, 160, 31)}
        state = anonymizer.snapshot()
        # Mutate past the snapshot, then restore.
        anonymizer.register("late", Point(0.25, 0.75), profile)
        anonymizer.deregister(5)
        anonymizer.restore(state)
        assert anonymizer.num_users == 160
        assert "late" not in anonymizer
        assert 5 in anonymizer
        for uid, region in before.items():
            assert anonymizer.cloak(uid).region == region
        anonymizer.check_invariants()

    def test_restore_rejects_foreign_state(self, policy_name):
        anonymizer = build(policy_name)
        with pytest.raises(TypeError):
            anonymizer.restore(object())


class TestDeploymentSeams:
    def test_sharded_matches_single(self, policy_name):
        single = build(policy_name)
        fleet = make_sharded(
            UNIT, height=HEIGHT, num_shards=4, kind=policy_name
        )
        points, _ = populate(single)
        populate(fleet)
        for uid in range(0, 160, 17):
            assert fleet.cloak(uid).region == single.cloak(uid).region
        fleet.check_invariants()

    def test_sharded_snapshot_roundtrip(self, policy_name):
        fleet = make_sharded(UNIT, height=HEIGHT, num_shards=4, kind=policy_name)
        populate(fleet, n=80)
        state = fleet.snapshot()
        regions = {uid: fleet.cloak(uid).region for uid in range(0, 80, 19)}
        restored = make_sharded(
            UNIT, height=HEIGHT, num_shards=4, kind=policy_name
        )
        restored.restore(state)
        assert restored.num_users == 80
        for uid, region in regions.items():
            assert restored.cloak(uid).region == region
        restored.check_invariants()

    def test_sharded_snapshot_roundtrip_keeps_homes(self, policy_name):
        fleet = DEPLOYMENTS["sharded"](policy_name)
        points, profile = populate(fleet, n=60)
        state = fleet.snapshot()
        homes = [fleet.shard_of_user(uid) for uid in range(60)]
        occupancy = fleet.shard_occupancy()
        assert sum(occupancy) == 60
        for uid in range(0, 60, 3):
            fleet.update(uid, Point(1.0 - points[uid].x, 1.0 - points[uid].y))
        fleet.register("late", Point(0.9, 0.1), profile)
        fleet.deregister(7)
        fleet.restore(state)
        assert [fleet.shard_of_user(uid) for uid in range(60)] == homes
        assert fleet.shard_occupancy() == occupancy
        fleet.check_invariants()


TOO_DEEP = MAX_SOA_HEIGHT + 1

#: Every way to deploy the basic policy by name.
BASIC_SEAMS = {
    "single": lambda h: get_policy("basic").single(UNIT, h, 8192),
    "sharded": lambda h: make_sharded(UNIT, height=h, num_shards=2, kind="basic"),
    "parallel": lambda h: make_sharded(
        UNIT, height=h, num_shards=2, kind="basic", parallel=True
    ),
    "casper-parallel": lambda h: Casper(
        UNIT, pyramid_height=h, policy="basic", shards=2, parallel=True
    ),
}


@pytest.mark.parametrize("seam", sorted(BASIC_SEAMS))
def test_basic_rejects_height_past_the_array_cap_up_front(seam, monkeypatch):
    """``basic`` keeps complete per-level arrays, so every seam rejects a
    deeper pyramid with the same error, in the calling process, before
    any worker exists."""

    def no_spawn(self):
        raise AssertionError("a worker was spawned before validation")

    monkeypatch.setattr(WorkerPool, "spawn_all", no_spawn)
    with pytest.raises(ValueError, match="adaptive") as direct:
        BasicAnonymizer(UNIT, height=TOO_DEEP)
    assert f"0..{MAX_SOA_HEIGHT}" in str(direct.value)
    with pytest.raises(ValueError) as rejected:
        BASIC_SEAMS[seam](TOO_DEEP)
    assert str(rejected.value) == str(direct.value)


def test_adaptive_runs_past_the_basic_height_cap():
    """The adaptive cut is a sparse dict with no cap of its own, so it
    is where the basic policy's error points for deeper pyramids."""
    casper = Casper(UNIT, pyramid_height=TOO_DEEP, policy="adaptive")
    points, profile = populate(casper.anonymizer, n=40, k=3)
    casper.update_location(7, Point(0.9, 0.9))
    cloaked = casper.anonymizer.cloak(7)
    assert cloaked.achieved_k >= profile.k
    assert cloaked.region.contains_point(Point(0.9, 0.9))
    casper.anonymizer.check_invariants()


@pytest.mark.parametrize("name", available_policies())
def test_every_policy_refuses_a_height_past_the_table_cap(name):
    """The one cap every policy shares is the user table's: a row holds
    its lowest-level Morton code in an int64."""
    with pytest.raises(ValueError, match=f"0..{MAX_TABLE_HEIGHT}"):
        get_policy(name).single(UNIT, MAX_TABLE_HEIGHT + 1, 8192)
    if name != "basic":
        policy = get_policy(name).single(UNIT, MAX_TABLE_HEIGHT, 8192)
        populate(policy, n=20, k=3)
        policy.check_invariants()


def test_baseline_policy_runs_parallel_end_to_end():
    """A non-paper cloaker answers a private query through the full
    ``Casper(policy=..., shards=4, parallel=True)`` process pool."""
    rng = np.random.default_rng(11)
    with Casper(UNIT, pyramid_height=5, policy="interval", shards=4, parallel=True) as casper:
        for uid, point in enumerate(random_points(rng, 64)):
            casper.register_user(uid, point, PrivacyProfile(k=4))
        casper.add_public_targets({"t1": Point(0.5, 0.5), "t2": Point(0.9, 0.1)})
        answer = casper.query_nearest_private(3)
        assert answer.candidates
        casper.anonymizer.check_invariants()
