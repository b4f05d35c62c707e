"""Cross-implementation tests for the spatial indexes.

The R-tree is checked against the brute-force oracle on identical data
— the "index equivalence" invariant of DESIGN.md that underpins the
paper's claim of query-processor independence from the underlying
access method.
"""

from __future__ import annotations

import importlib
import inspect
import math
import pkgutil

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.errors import EmptyDatasetError
from repro import Casper
from repro.geometry import Point, Rect
from repro.spatial import (
    BruteForceIndex,
    RTreeIndex,
    SpatialIndex,
)
from tests.conftest import UNIT, random_points, random_rects

ACCELERATED = ["rtree"]
ALL_KINDS = ACCELERATED + ["brute"]


def make_index(kind: str) -> SpatialIndex:
    if kind == "brute":
        return BruteForceIndex()
    if kind == "rtree":
        return RTreeIndex(max_entries=8)
    raise ValueError(kind)


def _twins(kind: str, rects) -> tuple[SpatialIndex, SpatialIndex]:
    """The oracle and a ``kind`` index, both fed ``rects`` one insert at
    a time, ids in order."""
    twins = BruteForceIndex(), make_index(kind)
    for i, rect in enumerate(rects):
        for index in twins:
            index.insert(i, rect)
    return twins


def test_factory_table_covers_every_concrete_index():
    """``abc`` refuses an index with a missing hook only when someone
    constructs it, and the conformance suites below construct only what
    ``make_index`` builds — so every concrete ``SpatialIndex`` that any
    ``repro.spatial`` module defines must be one of its kinds."""
    import repro.spatial

    for module in pkgutil.iter_modules(repro.spatial.__path__):
        importlib.import_module(f"repro.spatial.{module.name}")

    def subclasses(cls: type) -> set[type]:
        direct = set(cls.__subclasses__())
        return direct.union(*(subclasses(sub) for sub in direct))

    shipped = {
        cls
        for cls in subclasses(SpatialIndex)
        if cls.__module__.startswith("repro.spatial.")
        and not inspect.isabstract(cls)
    }
    assert shipped == {type(make_index(kind)) for kind in ALL_KINDS}


class TestBasicContract:
    @pytest.mark.parametrize("kind", ALL_KINDS)
    def test_empty_index_raises_on_nearest(self, kind):
        idx = make_index(kind)
        with pytest.raises(EmptyDatasetError):
            idx.nearest(Point(0.5, 0.5))

    @pytest.mark.parametrize("kind", ALL_KINDS)
    def test_insert_contains_remove(self, kind):
        idx = make_index(kind)
        idx.insert_point("a", Point(0.1, 0.1))
        assert "a" in idx
        assert len(idx) == 1
        assert idx.rect_of("a") == Rect.point(Point(0.1, 0.1))
        idx.remove("a")
        assert "a" not in idx
        assert len(idx) == 0

    @pytest.mark.parametrize("kind", ALL_KINDS)
    def test_reinsert_same_oid_replaces(self, kind):
        idx = make_index(kind)
        idx.insert_point("a", Point(0.1, 0.1))
        idx.insert_point("a", Point(0.9, 0.9))
        assert len(idx) == 1
        assert idx.nearest(Point(1, 1)) == "a"
        assert idx.rect_of("a").center == Point(0.9, 0.9)

    @pytest.mark.parametrize("kind", ALL_KINDS)
    def test_remove_unknown_raises(self, kind):
        idx = make_index(kind)
        with pytest.raises(KeyError):
            idx.remove("missing")

    @pytest.mark.parametrize("kind", ALL_KINDS)
    def test_hidden_entry_returns_with_its_insertion_order(self, kind):
        idx = make_index(kind)
        for oid in ("a", "b", "c"):
            idx.insert_point(oid, Point(0.5, 0.5))  # a three-way tie
        idx.insert_point("d", Point(0.9, 0.9))
        q = Point(0.4, 0.4)
        with idx.hidden("a"):
            assert "a" not in idx and len(idx) == 3
            assert idx.k_nearest(q, 4) == ["b", "c", "d"]
            assert idx.k_nearest_by_max_distance(q, 1) == ["b"]
            assert set(idx.range_search(Rect(0, 0, 1, 1))) == {"b", "c", "d"}
        assert idx.rect_of("a") == Rect.point(Point(0.5, 0.5))
        assert idx.k_nearest(q, 4) == ["a", "b", "c", "d"]
        assert idx.k_nearest_by_max_distance(q, 2) == ["a", "b"]
        with pytest.raises(KeyError):
            with idx.hidden("missing"):
                pass
        with pytest.raises(ZeroDivisionError):  # restored on the way out
            with idx.hidden("b"):
                1 / 0
        assert idx.k_nearest(q, 4) == ["a", "b", "c", "d"]

    @pytest.mark.parametrize("load", ["insert", "insert_many", "bulk_load"])
    @pytest.mark.parametrize("kind", ALL_KINDS)
    def test_nan_bound_refused_before_anything_is_stored(self, kind, load, rng):
        """A NaN bound is the R-tree's blank-row mark: stored, it counted
        in ``len`` while no search returned it.  Both writes refuse it
        and leave the store as it was, a refused replacement included."""
        entries = {i: Rect.point(p) for i, p in enumerate(random_points(rng, 40))}
        idx = make_index(kind)
        idx.bulk_load(entries)
        bad = Rect(math.nan, 0.5, math.nan, 0.5)
        for oid in ("x", 0):  # a new id, then a replacement
            with pytest.raises(ValueError, match="NaN"):
                if load == "insert":
                    idx.insert(oid, bad)
                elif load == "insert_many":  # mid-batch, behind a new id
                    idx.insert_many([("y", entries[1]), (oid, bad), (1, entries[2])])
                else:
                    idx.bulk_load({**entries, oid: bad})
            assert list(idx.items()) == list(entries.items())
        oracle = BruteForceIndex()
        oracle.bulk_load(entries)
        q = Point(0.5, 0.5)
        assert idx.k_nearest(q, 41) == oracle.k_nearest(q, 41)
        if isinstance(idx, RTreeIndex):
            idx.check_invariants()

    def test_k_nonpositive_raises(self):
        idx = BruteForceIndex()
        idx.insert_point(1, Point(0.5, 0.5))
        with pytest.raises(ValueError):
            idx.k_nearest(Point(0, 0), 0)

    def test_k_larger_than_size_returns_all(self):
        idx = BruteForceIndex()
        for i in range(3):
            idx.insert_point(i, Point(0.1 * i, 0.1 * i))
        assert len(idx.k_nearest(Point(0, 0), 10)) == 3


class TestOracleEquivalence:
    @pytest.mark.parametrize("kind", ACCELERATED)
    def test_knn_matches_brute_force_points(self, kind, rng):
        points = random_points(rng, 400)
        oracle, idx = _twins(kind, map(Rect.point, points))
        for q in random_points(rng, 25):
            for k in (1, 3, 10):
                assert idx.k_nearest(q, k) == oracle.k_nearest(q, k)

    @pytest.mark.parametrize("kind", ACCELERATED)
    def test_range_matches_brute_force_points(self, kind, rng):
        points = random_points(rng, 400)
        oracle, idx = _twins(kind, map(Rect.point, points))
        for r in random_rects(rng, 20, max_side=0.4):
            assert set(idx.range_search(r)) == set(oracle.range_search(r))

    @pytest.mark.parametrize("kind", ACCELERATED)
    def test_rect_entries_match_brute_force(self, kind, rng):
        rects = random_rects(rng, 300, max_side=0.08)
        oracle, idx = _twins(kind, rects)
        for q in random_points(rng, 20):
            assert idx.nearest(q) == oracle.nearest(q) or (
                idx.rect_of(idx.nearest(q)).min_distance_to_point(q)
                == pytest.approx(
                    oracle.rect_of(oracle.nearest(q)).min_distance_to_point(q)
                )
            )
        for r in random_rects(rng, 20, max_side=0.3):
            assert set(idx.range_search(r)) == set(oracle.range_search(r))

    @pytest.mark.parametrize("kind", ACCELERATED)
    def test_equivalence_survives_deletions(self, kind, rng):
        points = random_points(rng, 300)
        oracle, idx = _twins(kind, map(Rect.point, points))
        removed = rng.choice(len(points), size=150, replace=False)
        for i in removed:
            oracle.remove(int(i))
            idx.remove(int(i))
        for q in random_points(rng, 15):
            assert idx.k_nearest(q, 5) == oracle.k_nearest(q, 5)


class TestRTreeStructure:
    def test_invariants_after_inserts(self, rng):
        idx = RTreeIndex(max_entries=6)
        for i, p in enumerate(random_points(rng, 500)):
            idx.insert_point(i, p)
        idx.check_invariants()

    def test_invariants_after_deletes(self, rng):
        idx = RTreeIndex(max_entries=6)
        points = random_points(rng, 500)
        for i, p in enumerate(points):
            idx.insert_point(i, p)
        for i in range(0, 500, 3):
            idx.remove(i)
        idx.check_invariants()
        assert len(idx) == 500 - len(range(0, 500, 3))

    def test_bulk_load_invariants_and_queries(self, rng):
        points = random_points(rng, 1000)
        entries = {i: Rect.point(p) for i, p in enumerate(points)}
        idx = RTreeIndex(max_entries=16)
        idx.bulk_load(entries)
        idx.check_invariants()
        oracle = BruteForceIndex()
        oracle.bulk_load(entries)
        q = Point(0.5, 0.5)
        assert idx.k_nearest(q, 20) == oracle.k_nearest(q, 20)

    def test_bulk_load_empty(self):
        idx = RTreeIndex()
        idx.bulk_load({})
        assert len(idx) == 0

    def test_bulk_load_then_dynamic_updates(self, rng):
        points = random_points(rng, 200)
        idx = RTreeIndex(max_entries=8)
        idx.bulk_load({i: Rect.point(p) for i, p in enumerate(points)})
        for i, p in enumerate(random_points(rng, 100)):
            idx.insert_point(200 + i, p)
        for i in range(0, 200, 2):
            idx.remove(i)
        idx.check_invariants()
        assert len(idx) == 200

    def test_constructor_validation(self):
        with pytest.raises(ValueError):
            RTreeIndex(max_entries=2)
        with pytest.raises(TypeError):  # the Guttman fill factor is gone
            RTreeIndex(max_entries=8, min_entries=3)

    def test_duplicate_points_allowed(self):
        idx = RTreeIndex(max_entries=4)
        for i in range(50):
            idx.insert_point(i, Point(0.5, 0.5))
        idx.check_invariants()
        assert len(idx.range_search(Rect(0.4, 0.4, 0.6, 0.6))) == 50


@settings(max_examples=40, suppress_health_check=[HealthCheck.too_slow])
@given(
    data=st.lists(
        st.tuples(
            st.floats(min_value=0, max_value=1, allow_nan=False),
            st.floats(min_value=0, max_value=1, allow_nan=False),
        ),
        min_size=1,
        max_size=80,
    ),
    qx=st.floats(min_value=0, max_value=1, allow_nan=False),
    qy=st.floats(min_value=0, max_value=1, allow_nan=False),
)
def test_property_all_indexes_agree_on_nn_distance(data, qx, qy):
    """Hypothesis: for arbitrary point sets, both indexes report a
    nearest neighbor at the same (minimal) distance."""
    q = Point(qx, qy)
    indexes = [make_index(kind) for kind in ALL_KINDS]
    for idx in indexes:
        for i, (x, y) in enumerate(data):
            idx.insert_point(i, Point(x, y))
    dists = []
    for idx in indexes:
        oid = idx.nearest(q)
        dists.append(idx.rect_of(oid).min_distance_to_point(q))
    assert max(dists) - min(dists) < 1e-9


def test_infinite_bounds_are_stored_and_nan_targets_refused():
    """Infinite bounds order fine and both indexes agree on them; a
    public target with a NaN coordinate never reaches the store."""
    wide = {"row": Rect(-math.inf, 0.2, math.inf, 0.2), "pt": Rect(0.4, 0.4, 0.4, 0.4)}
    answers = []
    for kind in ALL_KINDS:
        idx = make_index(kind)
        idx.bulk_load(wide)
        answers.append(idx.k_nearest(Point(0.4, 0.3), 2))
    assert answers == [["row", "pt"]] * len(ALL_KINDS)
    casper = Casper(UNIT)
    with pytest.raises(ValueError, match="NaN"):
        casper.add_public_target("x", Point(math.nan, 0.5))
    with pytest.raises(ValueError, match="NaN"):
        casper.add_public_targets({"y": Point(0.5, 0.5), "x": Point(0.5, math.nan)})
    assert len(casper.server.public_index) == 0
