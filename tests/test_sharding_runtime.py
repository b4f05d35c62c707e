"""Sharded runtime state management: snapshots, replica audits, and
the ``Casper`` routing seam."""

from __future__ import annotations

import numpy as np
import pytest

from repro.anonymizer import BasicAnonymizer, PrivacyProfile
from repro.errors import UnknownUserError
from repro.geometry import Point
from repro.server import Casper
from repro.sharding import ReplicatedShardedAnonymizer, make_sharded
from tests.conftest import UNIT
from tests.test_spec_machine import crowd, replay

HEIGHT = 5
KINDS = ["basic", "adaptive"]


def _populated_fleet(kind: str, num_shards: int = 4, users: int = 40):
    fleet = make_sharded(UNIT, height=HEIGHT, num_shards=num_shards, kind=kind)
    rng = np.random.default_rng(3)
    for i in range(users):
        fleet.register(
            f"u{i:02d}",
            Point(float(rng.random()), float(rng.random())),
            PrivacyProfile(k=2 + i % 4),
        )
    return fleet


class TestFleetSnapshot:
    """Round trips are replays of the spec machine, whose lanes restore
    and compare every deployment at each step."""

    CLOAKS = [("cloak", uid) for uid in range(0, 40, 5)]
    STEPS = crowd(40, k=3, seed=3) + CLOAKS + [("save",)]
    MOVES = [("update", uid, Point(0.01 * uid, 0.02 * uid)) for uid in range(10)]

    @pytest.mark.parametrize("kind", KINDS)
    def test_snapshot_restore_round_trip(self, kind) -> None:
        mutated = self.MOVES + [("deregister", 7)] + self.CLOAKS
        replay(kind, self.STEPS + mutated + [("reload",)] + self.CLOAKS)

    @pytest.mark.parametrize("kind", KINDS)
    def test_one_snapshot_serves_many_restores(self, kind) -> None:
        restart = self.MOVES + self.CLOAKS[:2] + [("reload",)] + self.CLOAKS[:2]
        replay(kind, self.STEPS + restart * 3)

    @pytest.mark.parametrize("kind", KINDS + ["interval", "clique", "temporal"])
    def test_restore_rejects_foreign_state(self, kind) -> None:
        fleet = _populated_fleet(kind)
        with pytest.raises(TypeError):
            fleet.restore(object())
        smaller = _populated_fleet(kind, num_shards=2, users=4)
        with pytest.raises(ValueError, match="shard count"):
            fleet.restore(smaller.snapshot())

    @pytest.mark.parametrize("num_shards", [None, 1, 2, 4])
    def test_basic_snapshots_compare_by_value(self, num_shards) -> None:
        """Two snapshots of one state are ``==`` (the generated
        dataclass equality raised ``ValueError`` over the count
        arrays), a move makes them differ, and — holding mutable state
        — they do not hash."""
        if num_shards is None:
            anonymizer = BasicAnonymizer(UNIT, height=HEIGHT)
        else:
            anonymizer = make_sharded(UNIT, height=HEIGHT, num_shards=num_shards)
        for i in range(10):
            anonymizer.register(i, Point(0.05 + 0.09 * i, 0.5), PrivacyProfile(k=2))
        before = anonymizer.snapshot()
        assert before == anonymizer.snapshot()
        assert not before != anonymizer.snapshot()
        anonymizer.update(3, Point(0.9, 0.9))
        assert before != anonymizer.snapshot()
        anonymizer.restore(before)
        assert before == anonymizer.snapshot()
        with pytest.raises(TypeError):
            hash(before)


class TestReplicaAudit:
    """A worker's replica of a ``block_local`` policy sees every
    broadcast op but only its own confined moves, so foreign users' rows
    go stale — point and cell together, inside their true block.  The
    wrapped pyramid is still self-consistent: it passes the same
    ``check_invariants`` the in-process deployment does (which is what
    the ``check`` op runs), serves exact answers for its own shard — and
    the audit can still fail."""

    NUM_SHARDS = 4
    SHARD = 0

    def _replica_fed_like_worker_zero(self):
        """An in-process replica given exactly worker 0's traffic, next
        to the full fleet that decides the routing as the parent does."""
        truth = _populated_fleet("basic", self.NUM_SHARDS)
        replica = _populated_fleet("basic", self.NUM_SHARDS)
        router = truth.router
        rng = np.random.default_rng(17)
        for _ in range(200):
            uid = f"u{int(rng.integers(40)):02d}"
            old = truth.location_of(uid)
            step = 0.02 if rng.random() < 0.8 else 0.5
            point = Point(
                float(np.clip(old.x + rng.uniform(-step, step), 0.0, 1.0)),
                float(np.clip(old.y + rng.uniform(-step, step), 0.0, 1.0)),
            )
            home = truth.shard_of_user(uid)
            blocks = {
                truth.grid.cell_of(p).ancestor(router.spine_level)
                for p in (old, point)
            }
            cost = truth.update(uid, point)
            if len(blocks) == 2 or home == self.SHARD:
                assert replica.update(uid, point) == cost
        truth.check_invariants()
        return truth, replica

    def test_stale_replica_passes_and_serves_its_shard_exactly(self) -> None:
        truth, replica = self._replica_fed_like_worker_zero()
        uids = [f"u{i:02d}" for i in range(40)]
        stale = [u for u in uids if replica.location_of(u) != truth.location_of(u)]
        assert stale, "the stream must leave stale foreign rows behind"
        assert all(truth.shard_of_user(u) != self.SHARD for u in stale)
        replica.check_invariants()
        assert replica.shard_occupancy() == truth.shard_occupancy()
        assert replica.stats.counter_updates < truth.stats.counter_updates
        for uid in uids:
            assert replica.shard_of_user(uid) == truth.shard_of_user(uid)
            if truth.shard_of_user(uid) == self.SHARD:
                assert replica.cloak(uid) == truth.cloak(uid)

    def test_each_corruption_is_caught(self) -> None:
        _truth, replica = self._replica_fed_like_worker_zero()
        router = replica.router
        own = [
            rank for rank in range(router.num_blocks)
            if router.owner_of_leaf(rank << router.leaf_shift) == self.SHARD
        ]
        counts = replica._inner._soa.counts
        corruptions = {
            "own-slice count": (HEIGHT, own[0] << router.leaf_shift),
            "foreign block root": (router.spine_level, own[-1] + 1),
            "spine count": (0, 0),
        }
        for level, index in corruptions.values():
            counts[level][index] += 1
            with pytest.raises(AssertionError):
                replica.check_invariants()
            counts[level][index] -= 1
            replica.check_invariants()  # and only that: clean again
        # The one cached derived column: a row's cell (and so its home)
        # must be where its point locates.
        # Swapping two rows' cells keeps every count consistent, so
        # only the table's own audit can see it.
        table = replica.table
        a, b = table.require("u00"), table.require("u01")
        assert table.cells[a] != table.cells[b]
        table.cells[[a, b]] = table.cells[[b, a]]
        with pytest.raises(AssertionError, match="stale cell"):
            replica.check_invariants()
        table.cells[[a, b]] = table.cells[[b, a]]
        replica.check_invariants()
        # ... and the occupancy counters must match the rows' homes.
        replica._occupancy[0] += 1
        with pytest.raises(AssertionError, match="occupancy"):
            replica.check_invariants()
        replica._occupancy[0] -= 1
        replica.check_invariants()


class TestCasperSeam:
    def test_shards_parameter_builds_a_sharded_fleet(self) -> None:
        for kind in ("basic", "adaptive"):
            casper = Casper(UNIT, pyramid_height=HEIGHT, anonymizer=kind, shards=4)
            assert isinstance(casper.anonymizer, ReplicatedShardedAnonymizer)
            assert casper.num_shards == 4

    def test_default_is_unsharded(self) -> None:
        casper = Casper(UNIT, pyramid_height=HEIGHT)
        assert casper.num_shards == 1

    def test_shard_of_routes_like_the_anonymizer(self) -> None:
        casper = Casper(UNIT, pyramid_height=HEIGHT, anonymizer="adaptive", shards=4)
        rng = np.random.default_rng(5)
        for i in range(20):
            casper.register_user(
                i,
                Point(float(rng.random()), float(rng.random())),
                PrivacyProfile(k=3),
            )
        occupancy = [0, 0, 0, 0]
        for i in range(20):
            shard = casper.shard_of(i)
            assert shard == casper.anonymizer.shard_of_user(i)
            occupancy[shard] += 1
        assert occupancy == casper.anonymizer.shard_occupancy()

    def test_shard_of_on_an_unsharded_deployment(self) -> None:
        casper = Casper(UNIT, pyramid_height=HEIGHT)
        casper.register_user("a", Point(0.5, 0.5), PrivacyProfile(k=1))
        assert casper.shard_of("a") == 0
        with pytest.raises(UnknownUserError):
            casper.shard_of("ghost")

    def test_instance_and_shards_argument_must_agree(self) -> None:
        fleet = make_sharded(UNIT, height=HEIGHT, num_shards=4, kind="basic")
        assert Casper(UNIT, anonymizer=fleet, shards=4).num_shards == 4
        for bad in ({"anonymizer": fleet, "shards": 2}, {"shards": 0}, {"shards": -3}):
            with pytest.raises(ValueError, match="shards"):
                Casper(UNIT, **bad)

    def test_full_query_stack_runs_sharded(self) -> None:
        casper = Casper(UNIT, pyramid_height=6, anonymizer="adaptive", shards=4)
        rng = np.random.default_rng(11)
        casper.add_public_targets(
            {
                f"t{i}": Point(float(x), float(y))
                for i, (x, y) in enumerate(rng.random((30, 2)))
            }
        )
        for i in range(25):
            casper.register_user(
                i,
                Point(float(rng.random()), float(rng.random())),
                PrivacyProfile(k=3),
            )
        nn = casper.query_nearest_public(0)
        assert nn.answer is not None
        batch = casper.query_batch(
            [(1, "nn_public"), (2, "range_public", 0.2), (1, "nn_public")]
        )
        assert len(batch) == 3
        casper.anonymizer.check_invariants()
