"""Contract tests for ``k_nearest_by_max_distance`` across every index.

The pessimistic (furthest-corner) k-nearest search must agree with the
brute-force oracle — including insertion-order tie-breaking — because
``select_filters_private`` and ``_kth_distance_private`` are built on
top of it.
"""

from __future__ import annotations

import heapq

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import EmptyDatasetError
from repro.geometry import Point, Rect
from repro.spatial import (
    BruteForceIndex,
    GridIndex,
    QuadTreeIndex,
    RTreeIndex,
)

UNIT = Rect(0.0, 0.0, 1.0, 1.0)

FACTORIES = {
    "bruteforce": BruteForceIndex,
    "rtree": RTreeIndex,
    "quadtree": lambda: QuadTreeIndex(UNIT),
    "grid": lambda: GridIndex(UNIT),
}


def _oracle(entries: dict, point: Point, k: int) -> list[object]:
    order = {oid: i for i, oid in enumerate(entries)}
    scored = heapq.nsmallest(
        k,
        entries.items(),
        key=lambda item: (item[1].max_distance_to_point(point), order[item[0]]),
    )
    return [oid for oid, _rect in scored]


coord = st.floats(min_value=0.0, max_value=1.0, allow_nan=False, width=32)
rects = st.builds(
    lambda x, y, w, h: Rect(x * 0.9, y * 0.9, x * 0.9 + w * 0.1, y * 0.9 + h * 0.1),
    coord, coord, coord, coord,
)


@pytest.mark.parametrize("name", FACTORIES)
@settings(max_examples=30)
@given(
    rect_list=st.lists(rects, min_size=1, max_size=30),
    qx=coord,
    qy=coord,
    k=st.integers(min_value=1, max_value=8),
)
def test_property_matches_bruteforce_oracle(name, rect_list, qx, qy, k):
    index = FACTORIES[name]()
    entries = {}
    for oid, rect in enumerate(rect_list):
        index.insert(oid, rect)
        entries[oid] = rect
    query = Point(qx, qy)
    assert index.k_nearest_by_max_distance(query, k) == _oracle(entries, query, k)


@pytest.mark.parametrize("name", FACTORIES)
def test_coincident_regions_break_ties_by_insertion_order(name):
    index = FACTORIES[name]()
    rect = Rect(0.4, 0.4, 0.5, 0.5)
    for oid in (3, 1, 4, 0, 2):
        index.insert(oid, rect)
    assert index.k_nearest_by_max_distance(Point(0.45, 0.45), 3) == [3, 1, 4]


@pytest.mark.parametrize("name", FACTORIES)
def test_k_clamped_to_population(name):
    index = FACTORIES[name]()
    index.insert("a", Rect(0.1, 0.1, 0.2, 0.2))
    index.insert("b", Rect(0.7, 0.7, 0.8, 0.8))
    assert index.k_nearest_by_max_distance(Point(0.0, 0.0), 10) == ["a", "b"]


@pytest.mark.parametrize("name", FACTORIES)
def test_errors(name):
    index = FACTORIES[name]()
    with pytest.raises(EmptyDatasetError):
        index.k_nearest_by_max_distance(Point(0.5, 0.5), 1)
    index.insert("a", Rect(0.1, 0.1, 0.2, 0.2))
    with pytest.raises(ValueError):
        index.k_nearest_by_max_distance(Point(0.5, 0.5), 0)


@pytest.mark.parametrize("name", FACTORIES)
def test_max_distance_orders_differently_from_min(name):
    # A big region whose near edge is close but far corner is distant,
    # vs a small region slightly farther away but compact: min-distance
    # prefers the big one, max-distance the small one.
    index = FACTORIES[name]()
    index.insert("big", Rect(0.1, 0.0, 0.9, 0.8))
    index.insert("small", Rect(0.2, 0.0, 0.21, 0.01))
    query = Point(0.15, 0.0)
    assert index.k_nearest(query, 1) == ["big"]
    assert index.k_nearest_by_max_distance(query, 1) == ["small"]


def test_rtree_bulk_load_keeps_insertion_order_ties():
    index = RTreeIndex()
    rect = Rect(0.3, 0.3, 0.35, 0.35)
    index.bulk_load({oid: rect for oid in ("x", "y", "z")})
    assert index.k_nearest_by_max_distance(Point(0.0, 0.0), 2) == ["x", "y"]
    assert index.k_nearest(Point(0.0, 0.0), 2) == ["x", "y"]
