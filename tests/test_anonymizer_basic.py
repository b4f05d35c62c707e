"""The basic (complete pyramid) location anonymizer.

Replays of the spec machine (``tests/test_spec_machine.py``) on the
policy's single instance beside the scalar reference pyramid: every
call is held to the brute-force spec — refusals with their typed
errors and no trace, every cloak Algorithm 1's from the user's
lowest-level cell (so a cell or a sibling pair holding k' users) — and
the pyramid audits itself after each step.
"""

from __future__ import annotations

import pytest

from repro.anonymizer import BasicAnonymizer, PrivacyProfile
from repro.errors import (
    DuplicateUserError,
    OutOfBoundsError,
    ProfileUnsatisfiableError,
    UnknownUserError,
)
from repro.geometry import Point
from tests.conftest import UNIT
from tests.test_spec_machine import HEIGHT, population, replay, users

U1 = ("register", "u1", Point(0.01, 0.01), PrivacyProfile())


def basic(steps: list[tuple]) -> list:
    """What the single instance (and the reference) agreed on, per step."""
    return replay("basic", steps, only=("single", "reference"))


class TestRegistration:
    def test_register_and_counts(self):
        basic([U1])

    def test_duplicate_registration_raises(self):
        assert basic([U1, U1])[-1] == ("raised", DuplicateUserError)

    def test_register_out_of_bounds_raises(self):
        outside = ("register", "u1", Point(2, 2), PrivacyProfile())
        assert basic([outside]) == [("raised", OutOfBoundsError)]

    def test_deregister(self):
        basic([U1, ("deregister", "u1")])

    def test_deregister_unknown_raises(self):
        assert basic([("deregister", "ghost")]) == [("raised", UnknownUserError)]

    def test_profile_accessors(self):
        basic([("register", "u1", Point(0.3, 0.3), PrivacyProfile(7, 0.01)),
               ("set_profile", "u1", PrivacyProfile(2))])


class TestUpdates:
    @staticmethod
    def cost(to: Point) -> int:
        (_, cost) = basic([U1, ("update", "u1", to)])[-1]
        return cost

    def test_update_within_cell_costs_nothing(self):
        assert self.cost(Point(0.02, 0.02)) == 0

    def test_update_to_sibling_costs_two(self):
        # The horizontal sibling at the lowest level: only the two
        # lowest-level counters change.
        assert self.cost(Point(0.01 + 1 / 2**HEIGHT, 0.01)) == 2

    def test_update_across_space_costs_full_depth(self):
        # Both branches below the root.
        assert self.cost(Point(0.99, 0.99)) == 2 * HEIGHT

    def test_update_unknown_raises(self):
        stranger = ("update", "ghost", Point(0.5, 0.5))
        assert basic([stranger]) == [("raised", UnknownUserError)]

    def test_counts_consistent_after_many_updates(self):
        moves = [("update", uid, point) for _, uid, point, _ in users(60, seed=9)]
        basic(population(60, seed=0) + [("burst", moves)])

    def test_stats_accounting(self):
        an = BasicAnonymizer(UNIT, height=4)
        an.register("u1", Point(0.1, 0.1), PrivacyProfile())
        an.stats.reset()
        an.update("u1", Point(0.9, 0.9))
        an.update("u1", Point(0.9, 0.9))
        assert an.stats.location_updates == 2
        assert an.stats.cell_changes == 1
        assert an.stats.updates_per_location_update == pytest.approx(
            an.stats.counter_updates / 2
        )


class TestCloaking:
    def test_cloak_contains_user(self):
        basic(population(60, seed=0))

    def test_cloak_satisfies_profile(self):
        basic(population(60, seed=1))

    def test_achieved_k_matches_true_population(self):
        basic(population(50, seed=2))

    def test_cloaked_region_is_data_independent_shape(self):
        """Quality requirement: a cell or a sibling pair of the fixed
        partitioning, never a data-dependent MBR."""
        basic(population(60, seed=6))

    def test_relaxed_user_gets_small_region(self):
        me = [("register", "me", Point(0.5, 0.5), PrivacyProfile(k=1)), ("cloak", "me")]
        *_, (_, (_, _, cells)) = basic(population(40, seed=3) + me)
        assert [cell.level for cell in cells] == [HEIGHT]  # the user's own cell

    def test_amin_respected(self):
        me = [("register", "me", Point(0.5, 0.5), PrivacyProfile(k=1, a_min=0.3)),
              ("cloak", "me")]
        *_, (_, (region, _, _)) = basic(population(40, seed=4) + me)
        assert region.area >= 0.3

    def test_unsatisfiable_raises(self):
        steps = [("register", "u1", Point(0.5, 0.5), PrivacyProfile(k=50)),
                 ("cloak", "u1")]
        assert basic(steps)[-1] == ("raised", ProfileUnsatisfiableError)

    def test_cloak_location_unregistered(self):
        located = ("cloak_location", Point(0.25, 0.25), PrivacyProfile(k=10))
        basic(population(60, seed=5) + [located])

    def test_cloak_unknown_user_raises(self):
        assert basic([("cloak", "ghost")]) == [("raised", UnknownUserError)]
