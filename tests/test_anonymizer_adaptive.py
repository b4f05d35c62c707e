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
        assert all(cell.level <= 2 for cell in an.leaf_cells())


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

    def test_a_move_inside_its_leaf_never_splits(self):
        """The maintained cut is not a function of the population: two
        users keep one cell and a whole-space cloak when one moved next
        to the other, nine cells and a 1/16 cloak when both registered
        there."""
        k2, near = PrivacyProfile(2), Point(0.2, 0.2)
        first = ("register", 0, Point(0.1, 0.1), k2)
        moved = [first, ("register", 1, Point(0.9, 0.9), k2), ("update", 1, near)]
        direct = [first, ("register", 1, near, k2)]
        for steps, cells, area in ((moved, 1, 1.0), (direct, 9, 1 / 16)):
            an = AdaptiveAnonymizer(UNIT, height=2)
            for name, *args in steps:
                getattr(an, name)(*args)
            assert (an.num_maintained_cells, an.cloak(1).area) == (cells, area)
            assert adaptive(steps + [("cloak", 1)])[-1][1][0].area == area

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


class TestGateSummaries:
    """Each leaf's gates read its least ``k`` per reach, so a summary
    that is not refreshed where a member leaves or changes profile, or
    a reach read off by one level, shapes a different cut.  Height 2:
    A (k=2) splits the root when B joins the lower-left quadrant; C
    (k=3) joins them and D (k=5) waits in the lower-right one."""

    QUADRANTS = [
        ("register", "A", Point(0.1, 0.1), PrivacyProfile(2)),
        ("register", "B", Point(0.4, 0.1), PrivacyProfile(3)),
        ("register", "C", Point(0.1, 0.4), PrivacyProfile(3)),
        ("register", "D", Point(0.6, 0.1), PrivacyProfile(5)),
    ]

    @staticmethod
    def cut_after(steps: list[tuple]) -> tuple[int, float]:
        """Maintained cells and A's cloak area after ``steps``, which
        the oracle lane must agree on."""
        an = AdaptiveAnonymizer(UNIT, height=2)
        for name, *args in steps:
            getattr(an, name)(*args)
        area = an.cloak("A").area
        assert adaptive(steps + [("cloak", "A")])[-1][1][0].area == area
        return an.num_maintained_cells, area

    def test_the_least_k_leaving_is_recounted(self):
        """A leaves for D's quadrant, which D's company blocks; D's move
        then merges the root — only if B and C's quadrant recounted its
        least k (3 > 2) when A (2 <= 2) left."""
        away = ("update_batch", [("A", Point(0.9, 0.1)), ("D", Point(0.6, 0.6))])
        assert self.cut_after(self.QUADRANTS) == (5, 0.25)
        assert self.cut_after(self.QUADRANTS + [away]) == (1, 1.0)

    def test_a_profile_change_refreshes_the_least_k(self):
        """A's k rises to 4 (3 <= 3 still blocks); B's move then merges
        the root — only if the quadrant's summary took A's new k."""
        stricter = ("set_profile", "A", PrivacyProfile(4))
        away = ("update", "B", Point(0.6, 0.6))
        assert self.cut_after(self.QUADRANTS + [stricter]) == (5, 0.5)
        assert self.cut_after(self.QUADRANTS + [stricter, away]) == (1, 1.0)

    def test_an_area_on_the_tie_reaches_its_level(self):
        """``A_min - 1e-15`` equal to a quadrant's area still meets it:
        the gates' ``<=``, so a lone k=1 user splits the root."""
        tie = PrivacyProfile(1, 0.25 + 1e-15)
        an = AdaptiveAnonymizer(UNIT, height=2)
        an.register("A", Point(0.1, 0.1), tie)
        an.check_invariants()
        assert an.num_maintained_cells == 5
        adaptive([("register", "A", Point(0.1, 0.1), tie), ("cloak", "A")])


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
