"""Tests for the continuous query monitor.

The key correctness property: after any sequence of user movements and
target updates followed by ``flush()``, each continuous query's answer
equals a from-scratch evaluation — incrementality never changes
semantics, only work.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.anonymizer import PrivacyProfile
from repro.continuous import ContinuousQueryMonitor
from repro.errors import OutOfBoundsError, UnknownUserError
from repro.geometry import Point, Rect
from repro.processor import private_nn_over_public, private_range_over_public
from repro.server import Casper
from tests.conftest import UNIT, random_points


def build(rng, num_users=400, num_targets=200):
    casper = Casper(UNIT, pyramid_height=7, anonymizer="adaptive")
    casper.add_public_targets(
        {f"t{i}": p for i, p in enumerate(random_points(rng, num_targets))}
    )
    for i, p in enumerate(random_points(rng, num_users)):
        casper.register_user(i, p, PrivacyProfile(k=int(rng.integers(1, 25))))
    return casper, ContinuousQueryMonitor(casper)


class TestRegistration:
    def test_register_returns_initial_answer(self, rng):
        casper, monitor = build(rng)
        initial = monitor.register_nn("q1", 0)
        assert len(initial) > 0
        assert monitor.answer_of("q1") == frozenset(initial.oids())
        assert monitor.num_queries == 1

    def test_duplicate_query_id_rejected(self, rng):
        _casper, monitor = build(rng)
        monitor.register_nn("q1", 0)
        with pytest.raises(ValueError):
            monitor.register_nn("q1", 1)

    def test_register_range_validation(self, rng):
        _casper, monitor = build(rng)
        with pytest.raises(ValueError):
            monitor.register_range("q1", 0, radius=-0.1)

    def test_deregister(self, rng):
        _casper, monitor = build(rng)
        monitor.register_nn("q1", 0)
        monitor.deregister("q1")
        assert monitor.num_queries == 0
        with pytest.raises(KeyError):
            monitor.answer_of("q1")


class TestIncrementalConsistency:
    def test_flush_matches_fresh_evaluation_after_churn(self, rng):
        casper, monitor = build(rng)
        index = casper.server.public_index
        register = {
            "nn": lambda qid, uid: monitor.register_nn(qid, uid, num_filters=4),
            "rg": lambda qid, uid: monitor.register_range(qid, uid, radius=0.05),
            "bd": lambda qid, uid: monitor.register_buddy(qid, uid),
            "kn": lambda qid, uid: monitor.register_knn(qid, uid, k=3),
        }
        from_scratch = {
            "nn": lambda area, uid: private_nn_over_public(index, area, 4),
            "rg": lambda area, uid: private_range_over_public(index, area, 0.05),
            "bd": lambda area, uid: casper.server.nn_private(area, 4, exclude=uid),
            "kn": lambda area, uid: casper.server.knn_public(area, 3),
        }
        live: set[tuple[str, int]] = set()

        def toggle(kind, uid):
            """Register the query, or deregister it when it is live."""
            if (kind, uid) in live:
                monitor.deregister(f"{kind}-{uid}")
                live.discard((kind, uid))
            else:
                register[kind](f"{kind}-{uid}", uid)
                live.add((kind, uid))

        def somewhere():
            return Point(float(rng.random()), float(rng.random()))

        for uid in range(10):  # every one of them owns four queries
            for kind in register:
                toggle(kind, uid)
        for tick in range(6):
            # Churn: users move (a batch and a single), targets move and
            # appear, queries come and go (rows freed and refilled).
            monitor.on_users_moved(
                [(int(u), somewhere()) for u in rng.choice(400, 40, replace=False)]
            )
            monitor.on_user_moved(int(rng.integers(12)), somewhere())
            monitor.on_target_update(f"t{int(rng.integers(200))}", somewhere())
            monitor.on_target_update(f"new-{tick}", somewhere())
            for _ in range(5):
                toggle(str(rng.choice(list(register))), int(rng.integers(12)))
            monitor.flush()
            assert monitor.num_queries == len(live)
            assert set(monitor._rows_of_user) == {uid for _, uid in live}
            assert sorted(monitor._row_of.values()) == list(range(len(live)))
            for kind, uid in live:
                qid = f"{kind}-{uid}"
                fresh = from_scratch[kind](casper.anonymizer.cloak(uid).region, uid)
                if kind == "kn":  # a safe-region list may be stale, yet exact
                    at = casper.anonymizer.location_of(uid)
                    assert monitor.candidates_of(qid).refine_k_nearest(
                        at, 3
                    ) == fresh.refine_k_nearest(at, 3)
                else:
                    assert monitor.answer_of(qid) == frozenset(fresh.oids())

    def test_target_entering_a_ext_triggers_change(self, rng):
        casper, monitor = build(rng)
        initial = monitor.register_nn("q", 0)
        a_ext = initial.search_region
        # Drop a new target dead-center in the search region.
        monitor.on_target_update("invader", a_ext.center)
        changes = monitor.flush()
        assert any(
            c.query_id == "q" and "invader" in c.added for c in changes
        )

    def test_far_target_does_not_dirty_query(self, rng):
        casper, monitor = build(rng, num_users=50, num_targets=50)
        initial = monitor.register_nn("q", 0)
        a_ext = initial.search_region
        # A point far outside A_EXT (if one exists in the unit square).
        for candidate in (Point(0.99, 0.99), Point(0.01, 0.99), Point(0.99, 0.01),
                          Point(0.01, 0.01)):
            if not a_ext.contains_point(candidate):
                monitor.on_target_update("far", candidate)
                assert monitor.flush() == []
                return
        pytest.skip("A_EXT covers the whole space at this scale")

    def test_removing_answer_member_triggers_change(self, rng):
        casper, monitor = build(rng)
        initial = monitor.register_nn("q", 0)
        victim = initial.oids()[0]
        monitor.on_target_update(victim, None)
        changes = monitor.flush()
        assert any(c.query_id == "q" and victim in c.removed for c in changes)
        assert victim not in casper.server.public_index

    def test_user_movement_updates_answer(self, rng):
        casper, monitor = build(rng)
        monitor.register_nn("q", 0)
        before = monitor.answer_of("q")
        monitor.on_user_moved(0, Point(0.95, 0.95))
        monitor.flush()
        after = monitor.answer_of("q")
        # Oracle check regardless of whether the answer changed.
        cloak = casper.anonymizer.cloak(0)
        fresh = private_nn_over_public(casper.server.public_index, cloak.region, 4)
        assert after == frozenset(fresh.oids())

    def test_unchanged_reevaluation_suppressed(self, rng):
        casper, monitor = build(rng)
        initial = monitor.register_nn("q", 0)
        # Move a target within A_EXT to ... exactly where it already is.
        oid = initial.oids()[0]
        pos = casper.server.public_index.rect_of(oid).center
        monitor.on_target_update(oid, pos)
        assert monitor.flush() == []  # dirty, re-evaluated, no delta

    def test_range_query_tracks_radius(self, rng):
        casper, monitor = build(rng)
        monitor.register_range("r", 0, radius=0.1)
        cloak = casper.anonymizer.cloak(0)
        fresh = private_range_over_public(
            casper.server.public_index, cloak.region, 0.1
        )
        assert monitor.answer_of("r") == frozenset(fresh.oids())


class TestFailureContainment:
    def test_uncloakable_user_degrades_only_their_own_queries(self, rng):
        casper, monitor = build(rng)
        for uid in (1, 2, 3):
            monitor.register_nn(f"q{uid}", uid)
        stale = {uid: monitor.answer_of(f"q{uid}") for uid in (1, 3)}
        casper.remove_user(1)
        casper.set_profile(3, PrivacyProfile(k=10_000))  # unsatisfiable
        for _ in range(2):  # and again: they stay dirty, nothing raises
            monitor.on_user_moved(2, Point(float(rng.random()), float(rng.random())))
            monitor.flush()
            assert monitor.last_degraded == {"q1", "q3"}
            assert {uid: monitor.answer_of(f"q{uid}") for uid in (1, 3)} == stale
            fresh = private_nn_over_public(
                casper.server.public_index, casper.anonymizer.cloak(2).region, 4
            )
            assert monitor.answer_of("q2") == frozenset(fresh.oids())
        # Back again: the next flush evaluates them without being told.
        casper.register_user(1, Point(0.9, 0.1), PrivacyProfile(k=2))
        casper.set_profile(3, PrivacyProfile(k=2))
        monitor.flush()
        assert monitor.last_degraded == frozenset()
        for uid in (1, 3):
            fresh = private_nn_over_public(
                casper.server.public_index, casper.anonymizer.cloak(uid).region, 4
            )
            assert monitor.answer_of(f"q{uid}") == frozenset(fresh.oids())

    def test_refused_batch_is_not_a_tick(self, rng):
        _casper, monitor = build(rng)
        monitor.register_knn("q", 0, k=3)
        with pytest.raises(UnknownUserError):
            monitor.on_users_moved([("nobody", Point(0.5, 0.5))])
        with pytest.raises(OutOfBoundsError):
            monitor.on_users_moved([(0, Point(2.0, 2.0))])
        assert monitor.counters["ticks"] == 0
        monitor.on_users_moved([(0, Point(0.5, 0.5))])
        assert monitor.counters["ticks"] == 1


class TestBuddyQueries:
    def test_register_buddy_excludes_self(self, rng):
        _casper, monitor = build(rng)
        initial = monitor.register_buddy("b", 0)
        assert 0 not in initial.oids()
        assert len(initial) > 0

    def test_buddy_consistency_under_full_churn(self, rng):
        casper, monitor = build(rng, num_users=120, num_targets=60)
        for qid in range(6):
            monitor.register_buddy(f"b-{qid}", qid)
        for _step in range(25):
            uid = int(rng.integers(120))
            monitor.on_user_moved(
                uid, Point(float(rng.random()), float(rng.random()))
            )
        monitor.flush()
        for qid in range(6):
            cloak = casper.anonymizer.cloak(qid)
            fresh = casper.server.nn_private(cloak.region, 4, exclude=qid)
            assert monitor.answer_of(f"b-{qid}") == frozenset(fresh.oids())

    def test_buddy_reacts_to_other_users_movement(self, rng):
        casper, monitor = build(rng, num_users=80, num_targets=40)
        monitor.register_buddy("b", 0)
        # March a far-away user right next to user 0: their stored
        # region must enter the buddy query's A_EXT and flip the answer
        # set (or at least trigger a consistent re-evaluation).
        target_point = casper.anonymizer.location_of(0)
        monitor.on_user_moved(
            79, Point(target_point.x + 1e-4, target_point.y)
        )
        monitor.flush()
        cloak = casper.anonymizer.cloak(0)
        fresh = casper.server.nn_private(cloak.region, 4, exclude=0)
        assert monitor.answer_of("b") == frozenset(fresh.oids())
        assert 79 in monitor.answer_of("b")

    def test_mark_all_dirty_after_out_of_band_change(self, rng):
        casper, monitor = build(rng, num_users=80, num_targets=40)
        monitor.register_buddy("b", 0)
        # Out-of-band: a user leaves through the facade directly.
        victim = next(iter(monitor.answer_of("b")))
        casper.remove_user(victim)
        monitor.mark_all_dirty()
        monitor.flush()
        assert victim not in monitor.answer_of("b")
