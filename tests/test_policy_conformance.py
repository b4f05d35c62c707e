"""Conformance of the cloaking-policy registry.

Every registered policy — the paper's pyramids and the related-work
baselines — resolves by name, satisfies the :class:`CloakingPolicy`
protocol and honours the height caps on every seam.  The named
contracts below are replays: fixed calls through the lanes and
invariants of ``tests/test_spec_machine.py``, which hold every policy
to the brute-force spec on every deployment.
"""

from __future__ import annotations

import pytest

from repro.anonymizer import (
    BasicAnonymizer,
    CloakingPolicy,
    available_policies,
    get_policy,
)
from repro.anonymizer.profile import PrivacyProfile
from repro.anonymizer.soa import MAX_SOA_HEIGHT, MAX_TABLE_HEIGHT
from repro.geometry import Point
from repro.server import Casper
from repro.sharding import ReplicatedShardedAnonymizer, make_sharded
from repro.sharding.workers import ShardWorker, WorkerPool, _WorkerConfig
from tests.conftest import UNIT
from tests.test_spec_machine import STAND_IN, crowd, replay, users

HEIGHT = 6
#: Forty users under (8, 0.004): cloaks climb above the leaf level.
ROWS = users(40, k=8, a_min=0.004)
POP = [("burst", ROWS)]
#: One instance and its scalar reference; one instance and its fleet.
SINGLE, SEAMS = ("single", "reference"), ("single", "sharded")


def cloaks(uids) -> list[tuple]:
    return [("cloak", uid) for uid in uids]


def replaying(steps: list[tuple], only: tuple[str, ...] = SINGLE):
    """A contract test: ``steps`` through the machine's ``only`` lanes
    for each policy."""

    def test(self, policy_name: str) -> None:
        replay(policy_name, steps, only=only)

    return test


@pytest.fixture(params=available_policies())
def policy_name(request) -> str:
    return request.param


class TestRegistry:
    def test_spec_shape(self, policy_name):
        spec = get_policy(policy_name)
        assert spec.name == policy_name
        assert callable(spec.single)
        # One wrapper in process and on every worker; only the complete
        # pyramid's cloaks stay inside a user's block.
        config = _WorkerConfig(policy_name, UNIT, HEIGHT, 4, 64)
        worker = ShardWorker(config, None)
        for fleet in (make_sharded(UNIT, HEIGHT, 4, policy_name), worker._replica):
            assert isinstance(fleet, ReplicatedShardedAnonymizer)
        assert spec.block_local is (policy_name == "basic")

    def test_unknown_name_lists_known(self):
        with pytest.raises(ValueError, match="registered policies"):
            get_policy("does-not-exist")

    def test_instance_satisfies_protocol(self, policy_name):
        policy = get_policy(policy_name).single(UNIT, HEIGHT, 8192)
        assert isinstance(policy, CloakingPolicy)


class TestCloakContract:
    test_k_satisfaction_and_inclusiveness = replaying(POP + cloaks(range(0, 40, 13)))
    test_a_min_respected = replaying(POP + cloaks(range(0, 40, 7)))
    test_unknown_user_raises = replaying(
        [("cloak", "ghost"), ("update", "ghost", Point(0.5, 0.5)),
         ("deregister", "ghost")]
    )
    test_cloak_many_is_the_cloaks_with_per_item_outcomes = replaying(
        POP + [("set_profile", 5, PrivacyProfile(k=1000)), ("cloak", 0)]
        + [("cloak_many", [3, 5, 7, 3, 11], stand_in) for stand_in in (STAND_IN, None)]
        + [("cloak_many", [], None), ("cloak_many", [3, "ghost"], None)],
        (*SINGLE, "parallel"),
    )
    # Found by the spec machine: ``interval`` and ``clique`` cloaked a
    # point outside the area (the sharded lanes refused it), ``temporal``
    # refused it only after counting the request.
    test_cloak_location_refuses_a_point_outside_the_area = replaying(
        crowd(8, k=1) + [("cloak_location", Point(-0.5, 0.0), PrivacyProfile(1))], SEAMS
    )

    def test_cloak_location_matches_cloak(self, policy_name):
        steps = POP + [("cloak", 3), ("cloak_location", *ROWS[3][2:])]
        *_, cloak, located = replay(policy_name, steps, only=SINGLE)
        assert located == cloak


class TestLifecycle:
    test_register_update_deregister = replaying(
        POP + [("update", 7, Point(0.9, 0.9)), ("deregister", 7)]
    )
    test_update_batch_matches_loop = replaying(
        POP + [("update_batch", [(u, Point(u / 40, u / 50)) for u in range(0, 40, 7)])]
    )
    test_users_in_rect_counts_population = replaying(crowd(50))


@pytest.mark.parametrize("deployment", ["parallel", "sharded", "single"])
def test_a_refused_cloak_batch_leaves_no_trace(policy_name, deployment):
    """``cloak_many`` resolves every uid before it cloaks, counts or
    caches anything — on both sides of the basic kernel's threshold."""
    steps = [("cloak", 0), ("cloak_many", [0, 1, "nope", 2], None),
             ("cloak_many", [*range(30), "nope", 31], None)]
    replay(policy_name, POP + steps, only=(deployment,))


@pytest.mark.parametrize("deployment", ["sharded", "single"])
class TestPopulationContract:
    """One row per user, one admission rule — the chassis's, on every
    policy and deployment."""

    #: Two users under a strict profile keep the adaptive cut's root a
    #: leaf; eighty under a relaxed one split it several levels deep.
    @pytest.mark.parametrize("n, k", [(2, 50), (80, 3)], ids=["unsplit", "split"])
    @pytest.mark.parametrize("outside", [Point(-3.0, 0.5), Point(7.0, 7.0)])
    def test_a_refused_point_leaves_no_trace(
        self, policy_name, deployment, n, k, outside
    ):
        refused = [("register", "late", outside, PrivacyProfile(k)),
                   ("update", 1, outside),
                   ("update_batch", [(1, outside), (0, Point(0.5, 0.5))])]
        replay(policy_name, crowd(n, k=k) + refused, only=(deployment,))

    def test_rows_are_bit_exact(self, policy_name, deployment):
        steps = [("register", "u", Point(0.3, 0.7), PrivacyProfile(3, 0.05)),
                 ("update", "u", Point(0.61, 0.2)),
                 ("set_profile", "u", PrivacyProfile(2, 0.2)),
                 ("register", "u", Point(0.3, 0.7), PrivacyProfile(3))]
        replay(policy_name, steps, only=(deployment,))

    def test_users_in_rect_is_a_brute_count(self, policy_name, deployment):
        steps = [("deregister", 4), ("update", 9, Point(0.31, 0.62))]
        replay(policy_name, crowd(90) + steps, only=(deployment,))


class TestSnapshot:
    test_roundtrip_preserves_cloaks = replaying(
        POP + cloaks(range(0, 40, 9)) + [("save",)]
        + [("register", "late", Point(0.25, 0.75), ROWS[0][3]), ("deregister", 5)]
        + cloaks(range(0, 40, 9)) + [("reload",)] + cloaks(range(0, 40, 9))
    )
    test_restore_rejects_foreign_state = replaying([("restore", None)])


class TestDeploymentSeams:
    test_sharded_matches_single = replaying(POP + cloaks(range(0, 40, 3)), SEAMS)
    test_sharded_snapshot_roundtrip = replaying(
        POP + [("save",)]
        + [("update_batch", [(uid, Point(0.5, 0.5)) for uid in range(0, 40, 3)])]
        + [("reload",)] + cloaks(range(0, 40, 9)),
        SEAMS,
    )
    test_sharded_snapshot_roundtrip_keeps_homes = replaying(
        POP + [("save",)]
        + [("update", uid, Point(0.95 - uid / 70, 0.9)) for uid in range(0, 40, 3)]
        + [("register", "late", Point(0.9, 0.1), PrivacyProfile(3)), ("deregister", 7)]
        + [("reload",)],
        SEAMS,
    )


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
    for _, uid, point, _ in users(40):
        casper.register_user(uid, point, PrivacyProfile(k=3))
    casper.update_location(7, Point(0.9, 0.9))
    cloaked = casper.anonymizer.cloak(7)
    assert cloaked.achieved_k >= 3
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
        for _, uid, point, profile in users(20):
            policy.register(uid, point, profile)
        policy.check_invariants()


def test_baseline_policy_runs_parallel_end_to_end():
    """A non-paper cloaker answers a private query through the full
    ``Casper(policy=..., shards=4, parallel=True)`` process pool."""
    steps = [("target", "t1", Point(0.5, 0.5)), ("target", "t2", Point(0.9, 0.1)),
             ("query", 3, "nn_private", None, False)]
    replay("interval", crowd(64, k=4) + steps, facade=True)
