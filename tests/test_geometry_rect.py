"""Unit and property tests for repro.geometry.rect."""

from __future__ import annotations

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.geometry import EPSILON, Point, Rect
from repro.geometry.block import contains_rects, intersects_rects, rect_block

coords = st.floats(min_value=-100, max_value=100, allow_nan=False, allow_infinity=False)


@st.composite
def rects(draw) -> Rect:
    x0, x1 = sorted((draw(coords), draw(coords)))
    y0, y1 = sorted((draw(coords), draw(coords)))
    return Rect(x0, y0, x1, y1)


points = st.builds(Point, coords, coords)


@st.composite
def rect_pairs(draw) -> tuple[Rect, Rect]:
    """A rectangle and a second one that is free, a point (possibly one
    of the first's own corners), or placed against the first's sides to
    within 0, 1 or 2 EPSILON — on either side of the predicates'
    tolerance: every side nudged inward or outward, or abutting its
    right edge."""
    a = draw(rects())
    shape = draw(st.sampled_from(["free", "point", "nudged", "abutting"]))
    if shape == "free":
        return a, draw(rects())
    if shape == "point":
        return a, Rect.point(draw(st.one_of(points, st.sampled_from(a.vertices()))))
    nudges = st.sampled_from([-2 * EPSILON, -EPSILON, 0.0, EPSILON, 2 * EPSILON])
    if shape == "abutting":
        x = a.x_max + draw(nudges)
        return a, Rect(x, a.y_min, x + 1.0, a.y_max)
    x0, y0, x1, y1 = (side + draw(nudges) for side in a.as_tuple())
    return a, Rect(min(x0, x1), min(y0, y1), max(x0, x1), max(y0, y1))


class TestRectConstruction:
    def test_invalid_rect_raises(self):
        with pytest.raises(ValueError):
            Rect(1, 0, 0, 1)
        with pytest.raises(ValueError):
            Rect(0, 1, 1, 0)

    def test_from_points_normalises(self):
        r = Rect.from_points(Point(1, 2), Point(0, -1))
        assert r == Rect(0, -1, 1, 2)

    def test_from_center(self):
        r = Rect.from_center(Point(0.5, 0.5), 0.2, 0.4)
        assert r.center.almost_equals(Point(0.5, 0.5))
        assert r.width == pytest.approx(0.2)
        assert r.height == pytest.approx(0.4)

    def test_from_center_rejects_negative(self):
        with pytest.raises(ValueError):
            Rect.from_center(Point(0, 0), -1, 1)

    def test_point_rect_is_degenerate(self):
        r = Rect.point(Point(0.3, 0.4))
        assert r.is_degenerate()
        assert r.area == 0.0
        assert r.center == Point(0.3, 0.4)


class TestRectMeasures:
    def test_area_width_height(self):
        r = Rect(0, 0, 2, 3)
        assert (r.width, r.height, r.area) == (2, 3, 6)

    def test_vertices_paper_order(self):
        # v1 top-left, v2 top-right, v3 bottom-left, v4 bottom-right.
        r = Rect(0, 0, 1, 1)
        v1, v2, v3, v4 = r.vertices()
        assert v1 == Point(0, 1)
        assert v2 == Point(1, 1)
        assert v3 == Point(0, 0)
        assert v4 == Point(1, 0)

    def test_edges_directions(self):
        r = Rect(0, 0, 1, 1)
        directions = {e.direction for e in r.edges()}
        assert directions == {"top", "bottom", "left", "right"}
        for e in r.edges():
            assert e.length() == pytest.approx(1.0)


class TestRectDistances:
    def test_min_distance_inside_is_zero(self):
        assert Rect(0, 0, 1, 1).min_distance_to_point(Point(0.5, 0.5)) == 0.0

    def test_min_distance_outside(self):
        assert Rect(0, 0, 1, 1).min_distance_to_point(Point(2, 1)) == pytest.approx(1.0)
        assert Rect(0, 0, 1, 1).min_distance_to_point(Point(2, 2)) == pytest.approx(
            2**0.5
        )

    def test_max_distance_is_farthest_corner(self):
        r = Rect(0, 0, 1, 1)
        p = Point(0.1, 0.1)
        corner = r.farthest_corner_from(p)
        assert corner == Point(1, 1)
        assert r.max_distance_to_point(p) == pytest.approx(p.distance_to(corner))

    def test_rect_rect_min_distance_overlap_zero(self):
        a = Rect(0, 0, 1, 1)
        b = Rect(0.5, 0.5, 2, 2)
        assert a.min_distance_to_rect(b) == 0.0

    def test_rect_rect_min_distance_disjoint(self):
        a = Rect(0, 0, 1, 1)
        b = Rect(2, 0, 3, 1)
        assert a.min_distance_to_rect(b) == pytest.approx(1.0)

    def test_rect_rect_max_distance(self):
        a = Rect(0, 0, 1, 1)
        b = Rect(2, 0, 3, 1)
        assert a.max_distance_to_rect(b) == pytest.approx((9 + 1) ** 0.5)

    @given(rects(), points)
    def test_min_le_max_distance(self, r: Rect, p: Point):
        assert r.min_distance_to_point(p) <= r.max_distance_to_point(p) + 1e-9

    @given(rects(), points)
    def test_max_distance_attained_at_farthest_corner(self, r: Rect, p: Point):
        corner = r.farthest_corner_from(p)
        assert r.max_distance_to_point(p) == pytest.approx(
            p.distance_to(corner), abs=1e-6
        )
        for c in r.corners():
            assert p.distance_to(c) <= p.distance_to(corner) + 1e-9

    @given(rects(), points)
    def test_nearest_point_minimises(self, r: Rect, p: Point):
        near = r.nearest_point_to(p)
        assert r.contains_point(near)
        assert p.distance_to(near) == pytest.approx(
            r.min_distance_to_point(p), abs=1e-9
        )


class TestRectPredicatesAndCombinators:
    def test_contains_point_boundary(self):
        r = Rect(0, 0, 1, 1)
        assert r.contains_point(Point(0, 0))
        assert r.contains_point(Point(1, 1))
        assert not r.contains_point(Point(1.001, 1))

    def test_intersects_touching(self):
        assert Rect(0, 0, 1, 1).intersects(Rect(1, 0, 2, 1))

    def test_intersection_disjoint_is_none(self):
        assert Rect(0, 0, 1, 1).intersection(Rect(2, 2, 3, 3)) is None

    def test_overlap_area(self):
        a = Rect(0, 0, 2, 2)
        b = Rect(1, 1, 3, 3)
        assert a.overlap_area(b) == pytest.approx(1.0)

    def test_overlap_fraction(self):
        a = Rect(0, 0, 2, 2)
        b = Rect(0, 0, 1, 2)
        assert b.overlap_fraction(a) == pytest.approx(1.0)
        assert a.overlap_fraction(b) == pytest.approx(0.5)

    def test_overlap_fraction_degenerate(self):
        p = Rect.point(Point(0.5, 0.5))
        assert p.overlap_fraction(Rect(0, 0, 1, 1)) == 1.0
        assert p.overlap_fraction(Rect(2, 2, 3, 3)) == 0.0

    def test_expanded_per_side(self):
        r = Rect(1, 1, 2, 2).expanded(left=0.5, top=0.25)
        assert r == Rect(0.5, 1, 2, 2.25)

    def test_expanded_uniform(self):
        assert Rect(1, 1, 2, 2).expanded_uniform(1) == Rect(0, 0, 3, 3)

    def test_clipped_to(self):
        r = Rect(-1, -1, 2, 2).clipped_to(Rect(0, 0, 1, 1))
        assert r == Rect(0, 0, 1, 1)

    def test_clipped_to_disjoint_raises(self):
        with pytest.raises(ValueError):
            Rect(2, 2, 3, 3).clipped_to(Rect(0, 0, 1, 1))

    @given(rects(), rects())
    def test_union_contains_both(self, a: Rect, b: Rect):
        u = a.union(b)
        assert u.contains_rect(a)
        assert u.contains_rect(b)

    @given(rects(), rects())
    def test_intersection_contained_in_both(self, a: Rect, b: Rect):
        inter = a.intersection(b)
        if inter is None:
            assert a.overlap_area(b) == 0.0
        else:
            assert a.contains_rect(inter)
            assert b.contains_rect(inter)

    @given(rects(), rects())
    def test_intersects_symmetric(self, a: Rect, b: Rect):
        assert a.intersects(b) == b.intersects(a)

    @given(rects(), rects())
    def test_overlap_area_bounded(self, a: Rect, b: Rect):
        assert 0.0 <= a.overlap_area(b) <= min(a.area, b.area) + 1e-9


class TestBlockPredicates:
    @given(st.lists(rect_pairs(), min_size=1, max_size=6))
    def test_vector_predicates_are_the_scalar_ones(self, pairs):
        firsts, seconds = zip(*pairs)
        a, b = rect_block(firsts), rect_block(seconds)
        # Row by row ...
        assert contains_rects(a, b).tolist() == [
            x.contains_rect(y) for x, y in pairs
        ]
        assert intersects_rects(a, b).tolist() == [
            x.intersects(y) for x, y in pairs
        ]
        # ... and every pair at once, through broadcasting.
        assert contains_rects(a[:, None], b).tolist() == [
            [x.contains_rect(y) for y in seconds] for x in firsts
        ]
        assert intersects_rects(a[:, None], b).tolist() == [
            [x.intersects(y) for y in seconds] for x in firsts
        ]

    def test_nan_row_contains_and_meets_nothing(self):
        none = rect_block([Rect(0, 0, 1, 1)]) * float("nan")
        unit = rect_block([Rect(0, 0, 1, 1)])
        assert not contains_rects(none, unit).any()
        assert not contains_rects(unit, none).any()
        assert not intersects_rects(none, unit).any()
