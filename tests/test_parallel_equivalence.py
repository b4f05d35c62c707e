"""The process-pool contract: byte-identical to the in-process fleets.

``ParallelShardedAnonymizer`` is a *transport* change, not a semantic
one — for any seed and shard count the worker processes must emit
exactly the cloaks, update costs, maintenance counters and cache
counters of the in-process sharded anonymizers (which themselves match
the single-pyramid implementations, see
``test_sharding_equivalence.py``).  Every test drives an in-process
fleet and a parallel fleet through identical operation streams and
compares full fingerprints, across shards ∈ {1, 2, 4, 8} and both
anonymizer kinds.
"""

from __future__ import annotations

import dataclasses

import pytest

from repro.anonymizer import PrivacyProfile
from repro.anonymizer.policy import get_policy
from repro.errors import ProfileUnsatisfiableError, UnknownUserError
from repro.geometry import Point
from repro.observability import runtime as telemetry
from repro.sharding import (
    ParallelShardedAnonymizer,
    ReplicatedShardedAnonymizer,
    ShardedBasicAnonymizer,
    make_sharded,
)
from repro.utils.rng import ensure_rng
from tests.conftest import UNIT

HEIGHT = 5
SHARD_COUNTS = (1, 2, 4, 8)
NUM_USERS = 24


def _script(seed: int, steps: int = 80):
    """A deterministic mixed operation stream over ``NUM_USERS`` users."""
    rng = ensure_rng(seed)
    ops = []
    for uid in range(NUM_USERS):
        ops.append(
            (
                "register",
                uid,
                Point(float(rng.random()), float(rng.random())),
                PrivacyProfile(k=int(rng.integers(1, 10))),
            )
        )
    for _ in range(steps):
        choice = float(rng.random())
        uid = int(rng.integers(NUM_USERS))
        if choice < 0.45:
            ops.append(
                ("move", uid, Point(float(rng.random()), float(rng.random())))
            )
        elif choice < 0.85:
            ops.append(("cloak", uid))
        else:
            ops.append(
                ("profile", uid, PrivacyProfile(k=int(rng.integers(1, 12))))
            )
    return ops


def _cloak_bytes(anonymizer, uid):
    try:
        region = anonymizer.cloak(uid)
    except ProfileUnsatisfiableError:
        return "unsatisfiable"
    return (region.region.as_tuple(), region.achieved_k, region.cells)


def _drive(kind: str, ops, crash_at: int | None = None) -> None:
    """Replay ``ops`` lockstep on in-process and parallel fleets."""
    pairs = []
    try:
        for n in SHARD_COUNTS:
            inproc = make_sharded(UNIT, height=HEIGHT, num_shards=n, kind=kind)
            parallel = make_sharded(
                UNIT, height=HEIGHT, num_shards=n, kind=kind, parallel=True
            )
            pairs.append((inproc, parallel))
        for step, op in enumerate(ops):
            if crash_at is not None and step == crash_at:
                for _inproc, parallel in pairs:
                    parallel.crash_worker(step % parallel.num_shards)
            if op[0] == "register":
                _, uid, point, profile = op
                for inproc, parallel in pairs:
                    inproc.register(uid, point, profile)
                    parallel.register(uid, point, profile)
            elif op[0] == "move":
                _, uid, point = op
                costs = set()
                for inproc, parallel in pairs:
                    costs.add(inproc.update(uid, point))
                    costs.add(parallel.update(uid, point))
                assert len(costs) == 1, f"update cost diverged at {step}"
            elif op[0] == "profile":
                _, uid, profile = op
                for inproc, parallel in pairs:
                    inproc.set_profile(uid, profile)
                    parallel.set_profile(uid, profile)
            else:  # cloak
                _, uid = op
                cloaks = set()
                for inproc, parallel in pairs:
                    cloaks.add(_cloak_bytes(inproc, uid))
                    cloaks.add(_cloak_bytes(parallel, uid))
                assert len(cloaks) == 1, f"cloak diverged at step {step}"
        for inproc, parallel in pairs:
            inproc.check_invariants()
            parallel.check_invariants()
            if kind == "basic" or crash_at is None:
                # Basic counters are parent-side and survive any crash;
                # adaptive counters live in the workers, so a heal that
                # rebuilds worker 0 legitimately resets its history-
                # dependent tallies (answers above still had to match).
                assert dataclasses.asdict(parallel.stats) == (
                    dataclasses.asdict(inproc.stats)
                )
            assert parallel.num_users == inproc.num_users
            assert parallel.shard_occupancy() == inproc.shard_occupancy()
            if kind == "basic" and crash_at is None:
                # Cache counters live in the workers and ride the wire;
                # a heal rebuilds fresh caches, so only uncrashed runs
                # compare them.
                assert parallel.cache_stats() == inproc.cache_stats()
            if kind == "adaptive" and crash_at is None:
                assert parallel.num_maintained_cells == (
                    inproc.num_maintained_cells
                )
    finally:
        for _inproc, parallel in pairs:
            parallel.close()


class TestSeededEquivalence:
    @pytest.mark.parametrize("kind", ["basic", "adaptive"])
    def test_mixed_stream_is_byte_identical(self, kind) -> None:
        _drive(kind, _script(seed=11))

    @pytest.mark.parametrize("kind", ["basic", "adaptive"])
    def test_equivalence_survives_a_worker_crash(self, kind) -> None:
        # Kill a worker mid-stream on every parallel fleet; the healed
        # replacement must keep answering byte-identically.
        _drive(kind, _script(seed=23, steps=40), crash_at=30)


def _surface_fingerprint(anonymizer) -> dict:
    """Drive one deployment through a seeded stream — registers,
    confined moves, a rehoming move, cloaks, deregisters — and return
    every shard-surface fact it exposes on the way."""
    rng = ensure_rng(41)
    points = {
        uid: Point(float(rng.random()), float(rng.random()))
        for uid in range(NUM_USERS)
    }
    homes, occupancy, errors = [], [], []

    def observe(alive) -> None:
        homes.append([anonymizer.shard_of_user(uid) for uid in alive])
        occupancy.append(anonymizer.shard_occupancy())

    with telemetry.enabled() as obs:
        for uid, point in points.items():
            anonymizer.register(uid, point, PrivacyProfile(k=1 + uid % 5))
        observe(points)
        for uid, point in points.items():  # jitter: mostly confined moves
            jitter = Point(min(point.x + 1 / 256, 1.0), point.y)
            anonymizer.update(uid, jitter)
        observe(points)
        mirrored = Point(1.0 - points[0].x, 1.0 - points[0].y)
        anonymizer.update(0, mirrored)  # opposite quadrant: a rehome
        observe(points)
        assert homes[-1][0] != homes[0][0]
        for uid in range(0, NUM_USERS, 2):
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
        rows = sorted(anonymizer.cache_stats_per_shard())
    routes = {
        metric.labels: metric.value
        for metric in obs.metrics
        if metric.name == "casper_shard_cloaks_total"
    }
    users = {
        metric.labels: metric.value
        for metric in obs.metrics
        if metric.name == "casper_shard_users"
    }
    return {
        "homes": homes, "occupancy": occupancy, "errors": errors,
        "rows": rows, "routes": routes, "users": users,
    }


class TestShardSurface:
    """Where users live and how that is reported is one definition
    (``ShardSurface``) under three deployments of the same policy."""

    @pytest.mark.parametrize("shards", [2, 4])
    def test_three_deployments_expose_one_surface(self, shards) -> None:
        partitioned = make_sharded(UNIT, height=HEIGHT, num_shards=shards)
        broadcast = ReplicatedShardedAnonymizer(
            get_policy("basic"), UNIT, height=HEIGHT, num_shards=shards
        )
        parallel = make_sharded(
            UNIT, height=HEIGHT, num_shards=shards, parallel=True
        )
        try:
            assert isinstance(partitioned, ShardedBasicAnonymizer)
            assert isinstance(parallel, ParallelShardedAnonymizer)
            expected = _surface_fingerprint(partitioned)
            assert expected["routes"] and expected["rows"][-1] == "spine"
            assert _surface_fingerprint(broadcast) == expected
            assert _surface_fingerprint(parallel) == expected
            for deployment in (partitioned, broadcast, parallel):
                deployment.check_invariants()
        finally:
            parallel.close()


class TestBatchedPaths:
    """The batched entry points must equal their one-at-a-time loops."""

    def test_cloak_many_matches_sequential_cloaks(self) -> None:
        ops = _script(seed=7, steps=0)
        fleet = make_sharded(
            UNIT, height=HEIGHT, num_shards=4, kind="basic", parallel=True
        )
        reference = make_sharded(UNIT, height=HEIGHT, num_shards=4, kind="basic")
        try:
            for op in ops:
                _, uid, point, profile = op
                fleet.register(uid, point, profile)
                reference.register(uid, point, profile)
            uids = [uid % NUM_USERS for uid in range(2 * NUM_USERS)]
            batched = fleet.cloak_many(uids)
            singles = [reference.cloak(uid) for uid in uids]
            assert [
                (r.region.as_tuple(), r.achieved_k, r.cells) for r in batched
            ] == [
                (r.region.as_tuple(), r.achieved_k, r.cells) for r in singles
            ]
        finally:
            fleet.close()

    def test_update_batch_matches_sequential_updates(self) -> None:
        ops = _script(seed=9, steps=0)
        rng = ensure_rng(31)
        fleet = make_sharded(
            UNIT, height=HEIGHT, num_shards=4, kind="basic", parallel=True
        )
        reference = make_sharded(UNIT, height=HEIGHT, num_shards=4, kind="basic")
        try:
            for op in ops:
                _, uid, point, profile = op
                fleet.register(uid, point, profile)
                reference.register(uid, point, profile)
            moves = [
                (
                    int(rng.integers(NUM_USERS)),
                    Point(float(rng.random()), float(rng.random())),
                )
                for _ in range(60)
            ]
            batched = fleet.update_batch(moves)
            singles = [reference.update(uid, point) for uid, point in moves]
            assert batched == singles
            assert dataclasses.asdict(fleet.stats) == (
                dataclasses.asdict(reference.stats)
            )
        finally:
            fleet.close()
