"""Tests for private NN query processing (Algorithm 2, both data kinds).

The centrepiece is the paper's Theorem 1 / Theorem 3 *inclusiveness*
property, checked both on directed examples and with hypothesis over
random datasets, query regions, user positions and (for private data)
adversarial target placements inside their cloaked regions.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.errors import EmptyDatasetError
from repro.geometry import Point, Rect
from repro.processor import (
    ContainmentOnly,
    FractionOverlap,
    compute_extension_public,
    naive_center_nn,
    naive_send_all,
    private_nn_over_private,
    private_nn_over_public,
    select_filters_public,
)
from repro.spatial import BruteForceIndex, RTreeIndex
from tests.conftest import random_points, random_rects


def point_index(points, cls=BruteForceIndex):
    idx = cls()
    for i, p in enumerate(points):
        idx.insert_point(i, p)
    return idx


def rect_index(rects):
    idx = BruteForceIndex()
    for i, r in enumerate(rects):
        idx.insert(i, r)
    return idx


def true_nn(points: list[Point], u: Point) -> int:
    return min(range(len(points)), key=lambda i: points[i].squared_distance_to(u))


class TestPublicNN:
    def test_candidate_list_nonempty_and_within_region(self, rng):
        points = random_points(rng, 300)
        idx = point_index(points)
        area = Rect(0.4, 0.4, 0.6, 0.6)
        cl = private_nn_over_public(idx, area, num_filters=4)
        assert len(cl) > 0
        assert cl.search_region.contains_rect(area)
        for oid, rect in cl.items:
            assert cl.search_region.contains_rect(rect)

    @pytest.mark.parametrize("num_filters", [1, 2, 4])
    def test_inclusiveness_directed(self, rng, num_filters):
        points = random_points(rng, 500)
        idx = point_index(points)
        for _ in range(30):
            w, h = rng.uniform(0.02, 0.2, 2)
            x = float(rng.uniform(0, 1 - w))
            y = float(rng.uniform(0, 1 - h))
            area = Rect(x, y, x + float(w), y + float(h))
            cl = private_nn_over_public(idx, area, num_filters=num_filters)
            # The user could be anywhere in the area, including corners.
            probes = list(area.vertices()) + [
                area.center,
                Point(
                    float(rng.uniform(area.x_min, area.x_max)),
                    float(rng.uniform(area.y_min, area.y_max)),
                ),
            ]
            for u in probes:
                assert true_nn(points, u) in cl.oids()

    def test_refinement_returns_exact_answer(self, rng):
        points = random_points(rng, 400)
        idx = point_index(points)
        area = Rect(0.3, 0.3, 0.45, 0.5)
        cl = private_nn_over_public(idx, area, num_filters=4)
        u = Point(0.41, 0.37)
        assert cl.refine_nearest(u) == true_nn(points, u)

    def test_four_filters_not_larger_than_one(self, rng):
        """Figure 13a's shape: more filters, smaller candidate list (on
        average; we assert the aggregate, not each instance)."""
        points = random_points(rng, 1000)
        idx = point_index(points)
        total = {1: 0, 4: 0}
        for _ in range(40):
            w, h = rng.uniform(0.05, 0.2, 2)
            x = float(rng.uniform(0, 1 - w))
            y = float(rng.uniform(0, 1 - h))
            area = Rect(x, y, x + float(w), y + float(h))
            for nf in (1, 4):
                total[nf] += len(private_nn_over_public(idx, area, num_filters=nf))
        assert total[4] < total[1]

    def test_index_independence(self, rng):
        """The same candidate set must come back regardless of the
        underlying spatial index (the paper's integration claim)."""
        points = random_points(rng, 300)
        area = Rect(0.25, 0.55, 0.45, 0.7)
        oracle, rtree = (
            set(private_nn_over_public(point_index(points, cls), area, num_filters=4).oids())
            for cls in (BruteForceIndex, RTreeIndex)
        )
        assert rtree == oracle

    def test_degenerate_cloaked_area_is_point(self, rng):
        """A public (non-private) user degenerates to an exact point; the
        candidate list must collapse to the true NN only."""
        points = random_points(rng, 200)
        idx = point_index(points)
        u = Point(0.37, 0.61)
        cl = private_nn_over_public(idx, Rect.point(u), num_filters=4)
        assert cl.oids() == [true_nn(points, u)]

    def test_empty_dataset_raises(self):
        with pytest.raises(EmptyDatasetError):
            private_nn_over_public(BruteForceIndex(), Rect(0, 0, 0.1, 0.1))

    def test_single_target_dataset(self):
        idx = point_index([Point(0.9, 0.9)])
        cl = private_nn_over_public(idx, Rect(0.1, 0.1, 0.2, 0.2), num_filters=4)
        assert cl.oids() == [0]

    def test_extension_covers_all_vertex_distances(self, rng):
        points = random_points(rng, 300)
        idx = point_index(points)
        area = Rect(0.4, 0.4, 0.6, 0.6)
        filters = select_filters_public(idx, area, 4)
        a_ext, extensions = compute_extension_public(idx, area, filters)
        for ext in extensions:
            assert ext.max_d >= ext.d_i
            assert ext.max_d >= ext.d_j
            assert ext.max_d >= ext.d_m
        for vertex in area.vertices():
            t = idx.rect_of(filters.oid_for(vertex)).center
            # The filter itself is always a candidate.
            assert a_ext.contains_point(t)


class TestPrivateNN:
    def test_candidates_overlap_search_region(self, rng):
        rects = random_rects(rng, 200, max_side=0.05)
        idx = rect_index(rects)
        area = Rect(0.4, 0.4, 0.6, 0.6)
        cl = private_nn_over_private(idx, area, num_filters=4)
        assert len(cl) > 0
        for oid, rect in cl.items:
            assert rect.intersects(cl.search_region)

    @pytest.mark.parametrize("num_filters", [1, 2, 4])
    def test_inclusiveness_adversarial(self, rng, num_filters):
        """Theorem 3: for any actual user position and any actual target
        positions inside their cloaked regions, the true NN is in the
        candidate list."""
        rects = random_rects(rng, 300, max_side=0.06)
        idx = rect_index(rects)
        for _ in range(20):
            w, h = rng.uniform(0.03, 0.15, 2)
            x = float(rng.uniform(0, 1 - w))
            y = float(rng.uniform(0, 1 - h))
            area = Rect(x, y, x + float(w), y + float(h))
            cl = private_nn_over_private(idx, area, num_filters=num_filters)
            oids = set(cl.oids())
            for _ in range(8):
                u = Point(
                    float(rng.uniform(area.x_min, area.x_max)),
                    float(rng.uniform(area.y_min, area.y_max)),
                )
                actual = [
                    Point(
                        float(rng.uniform(r.x_min, r.x_max)),
                        float(rng.uniform(r.y_min, r.y_max)),
                    )
                    for r in rects
                ]
                winner = min(
                    range(len(rects)), key=lambda i: actual[i].squared_distance_to(u)
                )
                assert winner in oids

    def test_worst_case_corner_placements(self, rng):
        """Push every actual position to rect corners — the extremes the
        furthest-corner construction must absorb."""
        rects = random_rects(rng, 150, max_side=0.08)
        idx = rect_index(rects)
        area = Rect(0.45, 0.45, 0.55, 0.55)
        cl = private_nn_over_private(idx, area, num_filters=4)
        oids = set(cl.oids())
        for u in area.vertices():
            for corner_pick in range(4):
                actual = [r.corners()[corner_pick] for r in rects]
                winner = min(
                    range(len(rects)), key=lambda i: actual[i].squared_distance_to(u)
                )
                assert winner in oids

    def test_overlap_policy_thins_list(self, rng):
        rects = random_rects(rng, 300, max_side=0.1)
        idx = rect_index(rects)
        area = Rect(0.4, 0.4, 0.6, 0.6)
        full = private_nn_over_private(idx, area, num_filters=4)
        half = private_nn_over_private(
            idx, area, num_filters=4, policy=FractionOverlap(0.5)
        )
        contained = private_nn_over_private(
            idx, area, num_filters=4, policy=ContainmentOnly()
        )
        assert len(contained) <= len(half) <= len(full)
        assert set(contained.oids()) <= set(half.oids()) <= set(full.oids())

    def test_point_targets_match_public_semantics(self, rng):
        """Private processing over degenerate (point) target regions must
        reduce to the public result."""
        points = random_points(rng, 250)
        pub = point_index(points)
        priv = rect_index([Rect.point(p) for p in points])
        area = Rect(0.35, 0.5, 0.55, 0.65)
        cl_pub = private_nn_over_public(pub, area, num_filters=4)
        cl_priv = private_nn_over_private(priv, area, num_filters=4)
        assert set(cl_pub.oids()) == set(cl_priv.oids())


class TestNaiveBaselines:
    def test_center_nn_returns_one(self, rng):
        idx = point_index(random_points(rng, 100))
        cl = naive_center_nn(idx, Rect(0.2, 0.2, 0.6, 0.6))
        assert len(cl) == 1

    def test_center_nn_is_sometimes_wrong(self, rng):
        """Figure 4b's flaw: over many queries the center answer must
        disagree with the true NN for off-center users."""
        points = random_points(rng, 500)
        idx = point_index(points)
        wrong = 0
        for _ in range(50):
            x, y = rng.uniform(0.0, 0.7, 2)
            area = Rect(float(x), float(y), float(x) + 0.3, float(y) + 0.3)
            answer = naive_center_nn(idx, area).oids()[0]
            corner_user = area.vertices()[0]
            if answer != true_nn(points, corner_user):
                wrong += 1
        assert wrong > 10

    def test_send_all_is_everything(self, rng):
        points = random_points(rng, 123)
        idx = point_index(points)
        cl = naive_send_all(idx, Rect(0.4, 0.4, 0.5, 0.5))
        assert len(cl) == 123

    def test_candidate_list_between_extremes(self, rng):
        points = random_points(rng, 800)
        idx = point_index(points)
        area = Rect(0.3, 0.3, 0.5, 0.5)
        ours = private_nn_over_public(idx, area, num_filters=4)
        assert 1 <= len(ours) < 800


def _area_filters_and_user(data) -> tuple[Rect, int, Point]:
    """A drawn cloaked area, filter count and user position inside it."""
    x0 = data.draw(st.floats(0, 0.8), label="x0")
    y0 = data.draw(st.floats(0, 0.8), label="y0")
    w = data.draw(st.floats(0.001, 0.2), label="w")
    h = data.draw(st.floats(0.001, 0.2), label="h")
    area = Rect(x0, y0, min(x0 + w, 1.0), min(y0 + h, 1.0))
    nf = data.draw(st.sampled_from([1, 2, 4]), label="filters")
    ux = data.draw(st.floats(0, 1), label="ux")
    uy = data.draw(st.floats(0, 1), label="uy")
    return area, nf, Point(
        area.x_min + ux * (area.x_max - area.x_min),
        area.y_min + uy * (area.y_max - area.y_min),
    )


@settings(
    max_examples=60,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(data=st.data())
def test_property_inclusiveness_public(data):
    """Hypothesis drives dataset size, target layout, cloaked area and
    user position; Theorem 1 must hold every time."""
    n = data.draw(st.integers(1, 60), label="n_targets")
    coords = st.floats(0, 1, allow_nan=False)
    points = [
        Point(data.draw(coords, label=f"tx{i}"), data.draw(coords, label=f"ty{i}"))
        for i in range(n)
    ]
    area, nf, u = _area_filters_and_user(data)
    idx = BruteForceIndex()
    idx.insert_many((i, Rect.point(p)) for i, p in enumerate(points))
    cl = private_nn_over_public(idx, area, num_filters=nf)
    assert true_nn(points, u) in cl.oids()


@settings(
    max_examples=40,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(data=st.data())
def test_property_inclusiveness_private(data):
    """Theorem 3 under hypothesis: cloaked targets with adversarial
    actual positions."""
    n = data.draw(st.integers(1, 30), label="n_targets")
    coords = st.floats(0, 0.9, allow_nan=False)
    sides = st.floats(0, 0.1, allow_nan=False)
    rects = []
    for i in range(n):
        x = data.draw(coords, label=f"rx{i}")
        y = data.draw(coords, label=f"ry{i}")
        w = data.draw(sides, label=f"rw{i}")
        h = data.draw(sides, label=f"rh{i}")
        rects.append(Rect(x, y, min(x + w, 1.0), min(y + h, 1.0)))
    area, nf, u = _area_filters_and_user(data)
    idx = BruteForceIndex()
    idx.insert_many(enumerate(rects))
    cl = private_nn_over_private(idx, area, num_filters=nf)
    oids = set(cl.oids())
    # Adversarial actual placements: corner picks per target.
    corner_choice = data.draw(
        st.lists(st.integers(0, 3), min_size=n, max_size=n), label="corners"
    )
    actual = [r.corners()[c] for r, c in zip(rects, corner_choice)]
    winner = min(range(n), key=lambda i: actual[i].squared_distance_to(u))
    assert winner in oids
