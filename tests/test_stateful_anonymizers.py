"""Stateful property testing of every registered cloaking policy.

Hypothesis drives arbitrary interleavings of register / move /
deregister / profile-change operations — and of *refused* ones: a point
outside the service area, an unknown uid, a duplicate registration —
against one instance of every policy in ``available_policies()``
*simultaneously*, asserting after every step that

* every structure passes its internal consistency checks and shows the
  same population (who, where, under which profile) as the model dict,
* a refused operation raises its typed error and leaves every policy's
  observable state, snapshot included, exactly as it was,
* a snapshot restored after arbitrary later mutations brings every
  policy back to the snapshot's population,
* the basic and adaptive pyramids report identical cell populations,
* cloaking (when satisfiable) meets the profile on both pyramids, with
  the achieved k equal to the true region population.

This is the deepest correctness net in the suite: the adaptive
anonymizer's split/merge machinery has to agree with the trivially
correct complete pyramid on every reachable state, and the population
contract — one row per user, locate then write — has to hold on every
policy because it is the engine's, not the policy's.
"""

from __future__ import annotations

import hypothesis.strategies as st
import pytest
from hypothesis import settings
from hypothesis.stateful import (
    RuleBasedStateMachine,
    initialize,
    invariant,
    precondition,
    rule,
)

from repro.anonymizer import PrivacyProfile, available_policies, get_policy
from repro.errors import (
    DuplicateUserError,
    OutOfBoundsError,
    ProfileUnsatisfiableError,
    UnknownUserError,
)
from repro.geometry import Point, Rect

UNIT = Rect(0.0, 0.0, 1.0, 1.0)
HEIGHT = 5

coords = st.floats(min_value=0.0, max_value=1.0, allow_nan=False)
#: Points with at least one coordinate well outside ``UNIT``.
far = st.one_of(st.floats(-9.0, -0.5), st.floats(1.5, 9.0))
outside_points = st.one_of(
    st.builds(Point, far, coords), st.builds(Point, coords, far), st.builds(Point, far, far)
)
ks = st.integers(1, 30)
a_mins = st.sampled_from([0.0, 0.001, 0.01, 0.1])


class AnonymizerMachine(RuleBasedStateMachine):
    @initialize()
    def setup(self) -> None:
        self.policies = {
            name: get_policy(name).single(UNIT, HEIGHT, 8192)
            for name in available_policies()
        }
        self.basic = self.policies["basic"]
        self.adaptive = self.policies["adaptive"]
        self.points: dict[int, Point] = {}
        self.profiles: dict[int, PrivacyProfile] = {}
        self.next_uid = 0
        self.saved: tuple[dict, dict, dict] | None = None

    def _pick(self, data) -> int:
        return data.draw(st.sampled_from(sorted(self.points)), label="uid")

    def _refused(self, error: type[Exception], call) -> None:
        """``call(policy)`` raises ``error`` on every policy and leaves
        each one's snapshot — its whole population state — unchanged."""
        for name, policy in self.policies.items():
            before = policy.snapshot()
            with pytest.raises(error):
                call(policy)
            assert policy.snapshot() == before, f"{name} kept a trace"

    # ------------------------------------------------------------------
    # Operations
    # ------------------------------------------------------------------
    @rule(x=coords, y=coords, k=ks, a_min=a_mins)
    def register(self, x: float, y: float, k: int, a_min: float) -> None:
        uid = self.next_uid
        self.next_uid += 1
        point = Point(x, y)
        profile = PrivacyProfile(k=k, a_min=a_min)
        for policy in self.policies.values():
            policy.register(uid, point, profile)
        self.points[uid] = point
        self.profiles[uid] = profile

    @precondition(lambda self: bool(self.points))
    @rule(data=st.data(), x=coords, y=coords)
    def move(self, data, x: float, y: float) -> None:
        uid = self._pick(data)
        point = Point(x, y)
        for policy in self.policies.values():
            policy.update(uid, point)
        self.points[uid] = point

    @precondition(lambda self: bool(self.points))
    @rule(data=st.data())
    def deregister(self, data) -> None:
        uid = self._pick(data)
        for policy in self.policies.values():
            policy.deregister(uid)
        del self.points[uid]
        del self.profiles[uid]

    @precondition(lambda self: bool(self.points))
    @rule(data=st.data(), k=ks, a_min=a_mins)
    def change_profile(self, data, k: int, a_min: float) -> None:
        uid = self._pick(data)
        profile = PrivacyProfile(k=k, a_min=a_min)
        for policy in self.policies.values():
            policy.set_profile(uid, profile)
        self.profiles[uid] = profile

    # ------------------------------------------------------------------
    # Refused input: typed error, state unchanged
    # ------------------------------------------------------------------
    @rule(point=outside_points, k=ks)
    def register_outside(self, point: Point, k: int) -> None:
        profile = PrivacyProfile(k=k)
        self._refused(OutOfBoundsError, lambda p: p.register("nowhere", point, profile))

    @precondition(lambda self: bool(self.points))
    @rule(data=st.data(), point=outside_points)
    def move_outside(self, data, point: Point) -> None:
        uid = self._pick(data)
        self._refused(OutOfBoundsError, lambda p: p.update(uid, point))
        self._refused(
            OutOfBoundsError,
            lambda p: p.update_batch([(uid, point), (uid, Point(0.5, 0.5))]),
        )

    @rule(x=coords, y=coords)
    def move_stranger(self, x: float, y: float) -> None:
        self._refused(UnknownUserError, lambda p: p.update("stranger", Point(x, y)))

    @precondition(lambda self: bool(self.points))
    @rule(data=st.data(), x=coords, y=coords, k=ks)
    def register_twice(self, data, x: float, y: float, k: int) -> None:
        uid = self._pick(data)
        profile = PrivacyProfile(k=k)
        self._refused(DuplicateUserError, lambda p: p.register(uid, Point(x, y), profile))

    # ------------------------------------------------------------------
    # Crash recovery: snapshot, mutate, restore
    # ------------------------------------------------------------------
    @rule()
    def save(self) -> None:
        snapshots = {name: p.snapshot() for name, p in self.policies.items()}
        self.saved = (snapshots, dict(self.points), dict(self.profiles))

    @precondition(lambda self: self.saved is not None)
    @rule()
    def restore(self) -> None:
        snapshots, points, profiles = self.saved
        self.points, self.profiles = dict(points), dict(profiles)
        for name, policy in self.policies.items():
            policy.restore(snapshots[name])
            assert policy.snapshot() == snapshots[name]

    @precondition(lambda self: bool(self.points))
    @rule(data=st.data())
    def cloak(self, data) -> None:
        uid = self._pick(data)
        profile = self.profiles[uid]
        point = self.points[uid]
        for anonymizer in (self.basic, self.adaptive):
            try:
                region = anonymizer.cloak(uid)
            except ProfileUnsatisfiableError:
                # Then the whole population must genuinely be too small
                # or the area requirement exceeds the space.
                assert (
                    len(self.points) < profile.k
                    or profile.a_min > UNIT.area + 1e-12
                )
                continue
            assert region.region.contains_point(point)
            assert region.achieved_k >= profile.k
            assert region.area >= profile.a_min - 1e-12
            # achieved_k uses half-open cell-assignment membership (a
            # point on a shared border belongs to the upper-right cell),
            # so the oracle counts the same way.
            level = region.cells[0].level
            cell_set = set(region.cells)
            true_population = sum(
                1 for p in self.points.values()
                if anonymizer.grid.cell_of(p, level) in cell_set
            )
            assert region.achieved_k == true_population

    # ------------------------------------------------------------------
    # Invariants
    # ------------------------------------------------------------------
    @invariant()
    def structures_consistent(self) -> None:
        if not hasattr(self, "policies"):
            return
        for policy in self.policies.values():
            policy.check_invariants()
            assert policy.num_users == len(self.points)
            assert policy.users_in_rect(UNIT) == len(self.points)
            for uid, point in self.points.items():
                assert policy.location_of(uid) == point
                assert policy.profile_of(uid) == self.profiles[uid]

    @invariant()
    def counts_agree_on_maintained_cells(self) -> None:
        if not hasattr(self, "policies"):
            return
        # Every maintained adaptive cell's count must equal the basic
        # pyramid's count for the same cell.
        for cell in list(self.adaptive._cells):
            assert self.adaptive.cell_count(cell) == self.basic.cell_count(cell)


AnonymizerMachine.TestCase.settings = settings(
    max_examples=25, stateful_step_count=40, deadline=None
)
TestAnonymizerMachine = AnonymizerMachine.TestCase
