"""Tests for the adaptive (incomplete pyramid) location anonymizer."""

from __future__ import annotations

import numpy as np

from repro.anonymizer import AdaptiveAnonymizer, PrivacyProfile
from repro.errors import DuplicateUserError, ProfileUnsatisfiableError, UnknownUserError
from repro.geometry import Point
from tests.conftest import UNIT, random_points
from tests.test_spec_machine import population, replay, users


def adaptive(steps: list[tuple]) -> list:
    """What the single instance (and the scalar reference) agreed on, per
    step, held to the spec by ``tests/test_spec_machine.py``."""
    return replay("adaptive", steps, only=("single", "reference"))


class TestStructureAdaptation:
    def test_starts_with_root_only(self):
        an = AdaptiveAnonymizer(UNIT, height=6)
        assert an.num_maintained_cells == 1

    def test_relaxed_users_deepen_the_pyramid(self):
        an = AdaptiveAnonymizer(UNIT, height=6)
        rng = np.random.default_rng(0)
        for i, p in enumerate(random_points(rng, 200)):
            an.register(i, p, PrivacyProfile(k=1))
        # Fully relaxed users are satisfiable at the deepest level, so
        # the structure must have split substantially.
        assert an.num_maintained_cells > 50
        an.check_invariants()

    def test_strict_users_keep_pyramid_shallow(self):
        an = AdaptiveAnonymizer(UNIT, height=6)
        rng = np.random.default_rng(1)
        for i, p in enumerate(random_points(rng, 60)):
            an.register(i, p, PrivacyProfile(k=50))
        # k=50 with 60 users: at most one split level makes sense.
        assert an.num_maintained_cells <= 1 + 4 + 16
        an.check_invariants()

    def test_strict_users_fewer_cells_than_relaxed(self):
        rng = np.random.default_rng(2)
        points = random_points(rng, 300)
        relaxed = AdaptiveAnonymizer(UNIT, height=7)
        strict = AdaptiveAnonymizer(UNIT, height=7)
        for i, p in enumerate(points):
            relaxed.register(i, p, PrivacyProfile(k=1))
            strict.register(i, p, PrivacyProfile(k=100))
        assert strict.num_maintained_cells < relaxed.num_maintained_cells

    def test_merge_on_departures(self):
        an = AdaptiveAnonymizer(UNIT, height=6)
        rng = np.random.default_rng(3)
        points = random_points(rng, 200)
        for i, p in enumerate(points):
            an.register(i, p, PrivacyProfile(k=2))
        grown = an.num_maintained_cells
        for i in range(190):
            an.deregister(i)
        an.check_invariants()
        assert an.num_maintained_cells < grown
        assert an.stats.merges > 0

    def test_profile_change_can_trigger_restructure(self):
        an = AdaptiveAnonymizer(UNIT, height=6)
        rng = np.random.default_rng(4)
        points = random_points(rng, 100)
        # Everyone strict: shallow structure.
        for i, p in enumerate(points):
            an.register(i, p, PrivacyProfile(k=90))
        shallow = an.num_maintained_cells
        # One user relaxes completely: their region splits down.
        an.set_profile(0, PrivacyProfile(k=1))
        an.check_invariants()
        assert an.num_maintained_cells > shallow

    def test_height_limit_respected(self):
        an = AdaptiveAnonymizer(UNIT, height=2)
        rng = np.random.default_rng(5)
        for i, p in enumerate(random_points(rng, 500)):
            an.register(i, p, PrivacyProfile(k=1))
        an.check_invariants()
        assert all(cell.level <= 2 for cell in an._cells)


class TestMaintenance:
    def test_register_duplicate_raises(self):
        steps = [("register", "u", Point(0.5, 0.5), PrivacyProfile())] * 2
        assert adaptive(steps)[-1] == ("raised", DuplicateUserError)

    def test_unknown_user_raises(self):
        steps = [("update", "ghost", Point(0.5, 0.5)), ("cloak", "ghost"),
                 ("deregister", "ghost")]
        assert adaptive(steps) == [("raised", UnknownUserError)] * 3

    def test_update_within_leaf_costs_nothing(self):
        # Single strict user: the root is the only cell, no counters move.
        steps = [("register", "u", Point(0.1, 0.1), PrivacyProfile(k=10)),
                 ("update", "u", Point(0.8, 0.8))]
        assert adaptive(steps)[-1] == ("ok", 0)

    def test_counts_consistent_after_churn(self):
        moves = [("update", uid, point) for _, uid, point, _ in users(60, seed=7)]
        halves = [("burst", moves[:30]), ("burst", moves[30:])]
        adaptive(population(60, seed=0) + halves)

    def test_churn_with_registrations_and_departures(self):
        departures = [("deregister", uid) for uid in range(0, 60, 4)]
        churn = departures + users(80, seed=9)[60:]
        moves = [("update", uid, Point(0.3, 0.6)) for uid in range(1, 80, 9)]
        adaptive(population(60, seed=7) + [("burst", churn)] + moves)

    def test_cheaper_updates_than_basic_for_strict_profiles(self):
        """The headline claim of Section 4.2: with strict profiles the
        adaptive structure avoids deep counter maintenance."""
        from repro.anonymizer import BasicAnonymizer

        rng = np.random.default_rng(8)
        points = random_points(rng, 300)
        basic = BasicAnonymizer(UNIT, height=8)
        adaptive = AdaptiveAnonymizer(UNIT, height=8)
        for i, p in enumerate(points):
            basic.register(i, p, PrivacyProfile(k=150))
            adaptive.register(i, p, PrivacyProfile(k=150))
        basic.stats.reset()
        adaptive.stats.reset()
        moves = [
            (int(rng.integers(300)), Point(float(rng.random()), float(rng.random())))
            for _ in range(500)
        ]
        for uid, p in moves:
            basic.update(uid, p)
        for uid, p in moves:
            adaptive.update(uid, p)
        assert (
            adaptive.stats.updates_per_location_update
            < basic.stats.updates_per_location_update
        )


class TestCloaking:
    def test_cloak_contains_user_and_satisfies_profile(self):
        adaptive(population(60, seed=9))

    def test_achieved_k_matches_true_population(self):
        adaptive(population(50, seed=10))

    def test_cloak_location_unregistered(self):
        located = ("cloak_location", Point(0.25, 0.25), PrivacyProfile(k=10))
        adaptive(population(60, seed=11) + [located])

    def test_unsatisfiable_raises(self):
        steps = [("register", "u1", Point(0.5, 0.5), PrivacyProfile(k=50)),
                 ("cloak", "u1")]
        assert adaptive(steps)[-1] == ("raised", ProfileUnsatisfiableError)

    def test_cloak_starts_from_maintained_leaf(self):
        """The adaptive speedup: the cloak's Algorithm 1 starting cell is
        the maintained leaf, far above the pyramid bottom for strict
        users."""
        an = AdaptiveAnonymizer(UNIT, height=8)
        rng = np.random.default_rng(12)
        for i, p in enumerate(random_points(rng, 100)):
            an.register(i, p, PrivacyProfile(k=90))
        leaf = an.leaf_for_point(an.location_of(0))
        assert leaf.level < 4  # strict profiles keep the cut shallow

    def test_satisfaction_equivalent_to_basic(self):
        """Both anonymizers satisfy the same profiles on the same
        population (the paper reports identical accuracy)."""
        for policy in ("basic", "adaptive"):
            replay(policy, population(60, seed=13), only=("single",))
