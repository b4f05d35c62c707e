"""Tests for the related-work cloakers: the interval (KD-halving)
policy under one global ``k`` — the published IntervalCloak contract —
and the two behaviours with no standalone ``cloak(uid)`` form, the
request-batched CliqueCloak engine and the delay-until-``k``
TemporalCloak model, which live beside their policy ports."""

from __future__ import annotations

import pytest

from repro.anonymizer import PrivacyProfile
from repro.anonymizer.policies import (
    CliqueCloak,
    CliqueRequest,
    IntervalPolicy,
    TemporalCloak,
)
from repro.errors import ProfileUnsatisfiableError, UnknownUserError
from repro.geometry import Point, Rect
from tests.conftest import UNIT, random_points


def interval_cloak(k: int, points=(), **options):
    """``IntervalPolicy`` as the published IntervalCloak: everyone
    registers under the same global ``k``."""
    policy = IntervalPolicy(UNIT, **options)
    for uid, point in enumerate(points):
        policy.register(uid, point, PrivacyProfile(k=k))
    return policy


class TestIntervalCloak:
    def test_validation(self):
        with pytest.raises(ValueError):
            interval_cloak(k=0, points=[Point(0.5, 0.5)])
        with pytest.raises(ValueError):
            IntervalPolicy(Rect(0, 0, 0, 1))

    def test_cloak_satisfies_k(self, rng):
        ic = interval_cloak(15, random_points(rng, 200))
        for uid in range(0, 200, 19):
            region = ic.cloak(uid)
            assert region.achieved_k >= 15

    def test_cloak_contains_user(self, rng):
        points = random_points(rng, 120)
        ic = interval_cloak(10, points)
        for uid in range(0, 120, 11):
            assert ic.cloak(uid).region.contains_point(points[uid])

    def test_population_below_k_raises(self):
        ic = interval_cloak(10, [Point(0.5, 0.5)])
        with pytest.raises(ProfileUnsatisfiableError):
            ic.cloak(0)

    def test_unknown_user_raises(self):
        ic = interval_cloak(2)
        with pytest.raises(UnknownUserError):
            ic.cloak("ghost")
        with pytest.raises(UnknownUserError):
            ic.update("ghost", Point(0.5, 0.5))
        with pytest.raises(UnknownUserError):
            ic.deregister("ghost")

    def test_updates_are_free_maintenance(self, rng):
        ic = interval_cloak(5, random_points(rng, 50))
        assert ic.update(0, Point(0.9, 0.9)) == 0

    def test_dense_cluster_gets_small_region(self, rng):
        # 50 users packed into a corner, 10 scattered.
        packed = [Point(0.05 + 0.001 * i, 0.05) for i in range(50)]
        ic = interval_cloak(10, packed + random_points(rng, 10))
        region = ic.cloak(0)
        assert region.region.area < 0.1

    def test_min_side_stops_subdivision(self):
        ic = interval_cloak(1, [Point(0.1, 0.1)], min_side=0.4)
        region = ic.cloak(0)
        assert min(region.region.width, region.region.height) >= 0.2


class TestCliqueCloak:
    def test_invalid_k_rejected(self):
        cc = CliqueCloak(UNIT)
        with pytest.raises(ValueError):
            cc.submit(CliqueRequest("u", Point(0.5, 0.5), k=0, tolerance=0.1))

    def test_single_user_k1_served_immediately(self):
        cc = CliqueCloak(UNIT)
        served = cc.submit(CliqueRequest("u", Point(0.5, 0.5), k=1, tolerance=0.1))
        assert served is not None and set(served) == {"u"}
        assert cc.num_pending == 0

    def test_clique_forms_when_enough_compatible_users(self):
        cc = CliqueCloak(UNIT)
        served = None
        for i in range(5):
            served = cc.submit(
                CliqueRequest(i, Point(0.5 + 0.01 * i, 0.5), k=5, tolerance=0.2)
            )
        assert served is not None
        assert len(served) == 5
        assert cc.num_pending == 0

    def test_incompatible_users_stay_pending(self):
        cc = CliqueCloak(UNIT)
        # Far apart with tiny tolerances: no edges, k=2 never met.
        assert cc.submit(CliqueRequest("a", Point(0.1, 0.1), 2, 0.01)) is None
        assert cc.submit(CliqueRequest("b", Point(0.9, 0.9), 2, 0.01)) is None
        assert cc.num_pending == 2

    def test_region_is_mbr_of_members(self):
        cc = CliqueCloak(UNIT)
        pts = [Point(0.50, 0.50), Point(0.52, 0.51), Point(0.51, 0.53)]
        served = None
        for i, p in enumerate(pts):
            served = cc.submit(CliqueRequest(i, p, k=3, tolerance=0.2))
        assert served is not None
        region = served[0].region
        # The MBR property (and its privacy weakness): members lie on
        # the boundary.
        assert region == Rect(0.50, 0.50, 0.52, 0.53)

    def test_mixed_k_requirements(self):
        cc = CliqueCloak(UNIT)
        # A waiting k=4 user cannot join a pair (including them raises
        # the required clique size to 4), so the k=2 users pair among
        # themselves and the strict user stays pending.
        assert cc.submit(CliqueRequest("strict", Point(0.5, 0.5), 4, 0.3)) is None
        assert cc.submit(CliqueRequest("a", Point(0.51, 0.5), 2, 0.3)) is None
        served = cc.submit(CliqueRequest("b", Point(0.52, 0.5), 2, 0.3))
        assert served is not None
        assert set(served) == {"a", "b"}
        assert cc.num_pending == 1  # strict still waiting

    def test_minimal_serving_clique_preferred(self):
        cc = CliqueCloak(UNIT)
        # With k = (4, 3, 2, 2) pending, the last submission completes a
        # minimal pair of the two k=2 users; the stricter users keep
        # waiting rather than inflating the group.
        served = None
        for i, k in enumerate((4, 3, 2, 2)):
            served = cc.submit(
                CliqueRequest(i, Point(0.5 + 0.005 * i, 0.5), k=k, tolerance=0.2)
            )
        assert served is not None
        assert set(served) == {2, 3}
        assert all(r.achieved_k == 2 for r in served.values())
        assert cc.num_pending == 2

    def test_clique_size_covers_max_member_k(self):
        cc = CliqueCloak(UNIT)
        # Uniform k=3: the third compatible request completes a triple.
        served = None
        for i in range(3):
            served = cc.submit(
                CliqueRequest(i, Point(0.5 + 0.005 * i, 0.5), k=3, tolerance=0.2)
            )
        assert served is not None
        assert len(served) == 3
        assert all(r.achieved_k == 3 for r in served.values())

    def test_drop_pending(self):
        cc = CliqueCloak(UNIT)
        cc.submit(CliqueRequest("a", Point(0.1, 0.1), 5, 0.1))
        cc.drop_pending("a")
        assert cc.num_pending == 0
        cc.drop_pending("missing")  # idempotent

    def test_tolerance_is_respected(self):
        cc = CliqueCloak(UNIT)
        # b is within a's tolerance, but a is outside b's: no edge.
        assert cc.submit(CliqueRequest("a", Point(0.5, 0.5), 2, 0.5)) is None
        assert cc.submit(CliqueRequest("b", Point(0.7, 0.5), 2, 0.05)) is None
        assert cc.num_pending == 2

    def test_scalability_limited_scale_still_works(self, rng):
        """The baseline is usable at the small scales of its original
        evaluation (k in [5, 10])."""
        cc = CliqueCloak(UNIT)
        served_total = 0
        for i, p in enumerate(random_points(rng, 300)):
            k = int(rng.integers(5, 11))
            served = cc.submit(CliqueRequest(i, p, k=k, tolerance=0.15))
            if served:
                served_total += len(served)
        assert served_total > 0


class TestTemporalCloak:
    def test_validation(self):
        with pytest.raises(ValueError):
            TemporalCloak(UNIT, k=0)
        with pytest.raises(ValueError):
            TemporalCloak(UNIT, k=2, resolution=0)
        with pytest.raises(ValueError):
            TemporalCloak(Rect(0, 0, 0, 1), k=2)

    def test_delay_counts_back_to_kth_visitor(self):
        tc = TemporalCloak(UNIT, k=3, resolution=4)
        p = Point(0.1, 0.1)
        tc.observe("a", p, 0.0)
        tc.observe("b", p, 5.0)
        tc.observe("c", p, 9.0)
        result = tc.cloak(p, now=10.0)
        # Walking back from t=10: c (9), b (5), a (0) -> window age 10.
        assert result.delay == pytest.approx(10.0)
        assert result.visitors == 3

    def test_repeat_visits_do_not_count_twice(self):
        tc = TemporalCloak(UNIT, k=2, resolution=4)
        p = Point(0.1, 0.1)
        tc.observe("a", p, 0.0)
        tc.observe("a", p, 5.0)
        with pytest.raises(ProfileUnsatisfiableError):
            tc.cloak(p, now=6.0)
        tc.observe("b", p, 7.0)
        result = tc.cloak(p, now=8.0)
        assert result.delay == pytest.approx(3.0)

    def test_busy_cell_has_low_delay(self):
        tc = TemporalCloak(UNIT, k=5, resolution=4)
        p = Point(0.9, 0.9)
        for i in range(20):
            tc.observe(f"u{i}", p, float(i))
        result = tc.cloak(p, now=20.0)
        assert result.delay == pytest.approx(20.0 - 15.0)

    def test_history_horizon_expires_visits(self):
        tc = TemporalCloak(UNIT, k=2, resolution=4, history_horizon=5.0)
        p = Point(0.5, 0.5)
        tc.observe("a", p, 0.0)
        tc.observe("b", p, 10.0)  # expires a's visit
        with pytest.raises(ProfileUnsatisfiableError):
            tc.cloak(p, now=10.0)

    def test_out_of_order_observation_rejected(self):
        tc = TemporalCloak(UNIT, k=1)
        tc.observe("a", Point(0.5, 0.5), 5.0)
        with pytest.raises(ValueError):
            tc.observe("b", Point(0.5, 0.5), 4.0)

    def test_region_is_the_visit_cell(self):
        tc = TemporalCloak(UNIT, k=1, resolution=4)
        p = Point(0.6, 0.3)
        tc.observe("a", p, 1.0)
        result = tc.cloak(p, now=1.0)
        assert result.region.contains_point(p)
        assert result.region.area == pytest.approx(1.0 / 16)
