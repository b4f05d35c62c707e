"""The worker pool is a transport: replays of the spec machine.

``ParallelShardedAnonymizer`` must answer exactly as the in-process
deployments do — the ``parallel`` lane of ``tests/test_spec_machine.py``
is held to the others and to the spec at every step.  Pinned here: a
stream whose mutations queue in the parent before a read delivers them
(registrations and moves in one burst), the same stream with a worker
killed in the middle, and the batched entry points against their
loops.  Where users live and how that is reported — one
``ShardSurface`` under three deployments, telemetry included — keeps
its own test.
"""

from __future__ import annotations

import pytest

from repro.anonymizer import PrivacyProfile, get_policy
from repro.errors import UnknownUserError
from repro.geometry import Point
from repro.observability import runtime as telemetry
from repro.sharding import ReplicatedShardedAnonymizer, make_sharded
from tests.test_spec_machine import HEIGHT, UNIT, replay, users

USERS = users(24, k=4, seed=11)
MIRRORED = [("update", uid, Point(1 - p.x, p.y)) for _, uid, p, _ in USERS[::3]]
#: Registrations and moves queued together, then reads that deliver them.
STREAM = [("burst", USERS + MIRRORED)] + [
    step
    for uid in range(0, 24, 2)
    for step in (
        ("cloak", uid),
        ("set_profile", uid + 1, PrivacyProfile(2 + uid % 9)),
        ("burst", [("update", uid, Point(0.5, uid / 24)), ("cloak", uid + 1)]),
    )
]


class TestSeededEquivalence:
    @pytest.mark.parametrize("kind", ["basic", "adaptive"])
    def test_mixed_stream_is_byte_identical(self, kind) -> None:
        replay(kind, STREAM)

    @pytest.mark.parametrize("kind", ["basic", "adaptive"])
    def test_equivalence_survives_a_worker_crash(self, kind) -> None:
        # The healed replacement keeps answering byte-identically.
        replay(kind, STREAM[:8] + [("crash", 1)] + STREAM[8:])


@pytest.mark.parametrize("kind", ["adaptive", "interval"])
def test_a_restore_counts_the_mutations_queued_before_it(kind) -> None:
    """Found by the spec machine: a restore discarded the mutations still
    queued in the parent, so a broadcast fleet's statistics — read off
    the workers — missed them."""
    steps = [("save",), ("burst", [("deregister", 0), ("reload",)])]
    replay(kind, [("burst", USERS)] + steps, only=("single", "parallel"))


def test_a_restore_keeps_the_workers_cache_counters() -> None:
    """A restore installs the parent's snapshot into the live replicas, so
    the workers' cache counters carry on as the in-process cache's."""
    cloaks = ("cloak_many", list(range(24)), None)
    replay("basic", [("burst", USERS), cloaks, ("save",), *MIRRORED, cloaks,
                     ("reload",), cloaks, ("swap",), cloaks])


class TestBatchedPaths:
    """The batched entry points equal their one-at-a-time loops (the
    reference lanes)."""

    def test_cloak_many_matches_sequential_cloaks(self) -> None:
        batch = [uid % 24 for uid in range(48)]
        replay("basic", [("burst", USERS), ("cloak_many", batch, None)])

    def test_update_batch_matches_sequential_updates(self) -> None:
        moves = [(uid * 7 % 24, Point(uid / 60, 1 - uid / 70)) for uid in range(60)]
        replay("basic", [("burst", USERS), ("update_batch", moves)])


def _surface(anonymizer) -> dict:
    """Every shard-surface fact a seeded stream — registers, confined
    moves, a rehoming move, cloaks, deregisters — exposes."""
    homes, occupancy, errors = [], [], []

    def observe(alive) -> None:
        homes.append([anonymizer.shard_of_user(uid) for uid in alive])
        occupancy.append(anonymizer.shard_occupancy())

    points = {uid: p for _, uid, p, _ in users(24, seed=41)}
    with telemetry.enabled() as obs:
        for uid, point in points.items():
            anonymizer.register(uid, point, PrivacyProfile(k=1 + uid % 5))
        observe(points)
        for uid, point in points.items():  # jitter: mostly confined moves
            anonymizer.update(uid, Point(min(point.x + 1 / 256, 1.0), point.y))
        mirrored = Point(1.0 - points[0].x, 1.0 - points[0].y)
        anonymizer.update(0, mirrored)  # opposite quadrant: a rehome
        observe(points)
        assert homes[-1][0] != homes[0][0]
        for uid in range(0, 24, 2):
            anonymizer.cloak(uid)
        for uid in (3, 4):
            anonymizer.deregister(uid)
        observe(uid for uid in points if uid not in (3, 4))
        for call in (
            lambda: anonymizer.shard_of_user("ghost"),
            lambda: anonymizer.cloak("ghost"),
            lambda: anonymizer.update(3, mirrored),
            lambda: anonymizer.deregister(4),
        ):
            with pytest.raises(UnknownUserError) as caught:
                call()
            errors.append(str(caught.value))
    metrics = {(m.name, m.labels): m.value for m in obs.metrics
               if m.name in ("casper_shard_cloaks_total", "casper_shard_users")}
    return {"homes": homes, "occupancy": occupancy, "errors": errors,
            "metrics": metrics}


class TestShardSurface:
    """Where users live and how that is reported is one definition
    (``ShardSurface``) under three deployments of the same policy: the
    wrapper ``make_sharded`` builds, that wrapper built by hand, the pool."""

    @pytest.mark.parametrize("shards", [2, 4])
    def test_three_deployments_expose_one_surface(self, shards) -> None:
        in_process = make_sharded(UNIT, height=HEIGHT, num_shards=shards)
        by_hand = ReplicatedShardedAnonymizer(get_policy("basic"), UNIT, HEIGHT, shards)
        with make_sharded(UNIT, HEIGHT, num_shards=shards, parallel=True) as parallel:
            expected = _surface(in_process)
            assert expected["metrics"]
            assert _surface(by_hand) == expected == _surface(parallel)
            rows = parallel.cache_stats_per_shard()
            assert list(rows) == [*map(str, range(shards)), "spine"]
            for deployment in (in_process, by_hand, parallel):
                deployment.check_invariants()
