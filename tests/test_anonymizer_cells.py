"""Tests for pyramid cell arithmetic (repro.anonymizer.cells)."""

from __future__ import annotations

import math

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.anonymizer.cells import CellGrid, CellId
from repro.errors import OutOfBoundsError
from repro.geometry import EPSILON, Point, Rect

UNIT = Rect(0, 0, 1, 1)


@st.composite
def cell_ids(draw, max_level: int = 8) -> CellId:
    level = draw(st.integers(0, max_level))
    side = 1 << level
    return CellId(level, draw(st.integers(0, side - 1)), draw(st.integers(0, side - 1)))


class TestCellId:
    def test_validation(self):
        with pytest.raises(ValueError):
            CellId(-1, 0, 0)
        with pytest.raises(ValueError):
            CellId(1, 2, 0)
        with pytest.raises(ValueError):
            CellId(0, 0, 1)

    def test_public_constructor_still_validates(self):
        """Hot-path ancestor walks construct via the trusted internal
        path that skips ``__post_init__``; this pins the public surface:
        any ``CellId(...)`` built from external input must keep raising
        on out-of-range indices."""
        # The trusted path exists and produces ids equal to public ones.
        assert CellId._trusted(2, 3, 1) == CellId(2, 3, 1)
        # Derived ids from trusted-path walks stay within range, so
        # equality/hash semantics are unchanged.
        cell = CellId(3, 5, 2)
        assert cell.parent() == CellId(2, 2, 1)
        assert cell in cell.parent().children()
        # And the public constructor did not lose its guard.
        for bad in ((1, 2, 0), (2, 0, 4), (-1, 0, 0), (0, 1, 0)):
            with pytest.raises(ValueError):
                CellId(*bad)

    def test_root(self):
        root = CellId(0, 0, 0)
        assert root.is_root
        with pytest.raises(ValueError):
            root.parent()
        with pytest.raises(ValueError):
            root.horizontal_neighbor()

    def test_parent_child_roundtrip(self):
        cell = CellId(3, 5, 2)
        assert all(child.parent() == cell for child in cell.children())

    def test_children_distinct_and_cover(self):
        cell = CellId(2, 1, 3)
        children = cell.children()
        assert len(set(children)) == 4
        grid = CellGrid(UNIT, 8)
        union = children[0]
        rect = grid.cell_rect(children[0])
        for child in children[1:]:
            rect = rect.union(grid.cell_rect(child))
        assert rect == grid.cell_rect(cell)

    def test_neighbors_share_parent(self):
        cell = CellId(4, 6, 9)
        h = cell.horizontal_neighbor()
        v = cell.vertical_neighbor()
        assert h.parent() == cell.parent()
        assert v.parent() == cell.parent()
        # Horizontal neighbour: same row; vertical: same column.
        assert h.iy == cell.iy and h.ix != cell.ix
        assert v.ix == cell.ix and v.iy != cell.iy

    def test_neighbor_involution(self):
        cell = CellId(5, 17, 20)
        assert cell.horizontal_neighbor().horizontal_neighbor() == cell
        assert cell.vertical_neighbor().vertical_neighbor() == cell

    def test_siblings(self):
        cell = CellId(2, 0, 0)
        sibs = cell.siblings()
        assert len(set(sibs)) == 3
        assert all(s.parent() == cell.parent() for s in sibs)

    def test_ancestor(self):
        cell = CellId(6, 40, 33)
        assert cell.ancestor(6) == cell
        assert cell.ancestor(0) == CellId(0, 0, 0)
        assert cell.ancestor(5) == cell.parent()
        with pytest.raises(ValueError):
            cell.ancestor(7)

    def test_is_ancestor_of(self):
        cell = CellId(2, 1, 1)
        descendant = CellId(5, 8 + 3, 8 + 5)  # inside (1,1) quadrant at level 2
        assert cell.is_ancestor_of(descendant)
        assert cell.is_ancestor_of(cell)
        assert not cell.is_ancestor_of(CellId(5, 0, 0))

    @given(cell_ids(max_level=6))
    def test_children_partition_parent(self, cell: CellId):
        grid = CellGrid(UNIT, 8)
        children = cell.children()
        total = sum(grid.cell_rect(c).area for c in children)
        assert total == pytest.approx(grid.cell_rect(cell).area)


class TestCellGrid:
    def test_validation(self):
        with pytest.raises(ValueError):
            CellGrid(UNIT, -1)
        with pytest.raises(ValueError):
            CellGrid(Rect(0, 0, 0, 1), 4)

    def test_cell_area_quarters_per_level(self):
        grid = CellGrid(UNIT, 6)
        for level in range(6):
            assert grid.cell_area(level + 1) == pytest.approx(
                grid.cell_area(level) / 4
            )
        assert grid.cell_area(0) == pytest.approx(UNIT.area)

    def test_cell_of_point_basic(self):
        grid = CellGrid(UNIT, 3)
        assert grid.cell_of(Point(0.1, 0.1)) == CellId(3, 0, 0)
        assert grid.cell_of(Point(0.9, 0.9)) == CellId(3, 7, 7)
        assert grid.cell_of(Point(0.1, 0.9), level=1) == CellId(1, 0, 1)

    def test_cell_of_point_on_border_clamped(self):
        grid = CellGrid(UNIT, 2)
        assert grid.cell_of(Point(1.0, 1.0)) == CellId(2, 3, 3)
        assert grid.cell_of(Point(0.0, 0.0)) == CellId(2, 0, 0)

    def test_cell_of_out_of_bounds_raises(self):
        grid = CellGrid(UNIT, 2)
        with pytest.raises(OutOfBoundsError):
            grid.cell_of(Point(1.5, 0.5))

    def test_cell_of_invalid_level_raises(self):
        grid = CellGrid(UNIT, 2)
        with pytest.raises(ValueError):
            grid.cell_of(Point(0.5, 0.5), level=5)

    def test_cell_rect_contains_its_points(self):
        grid = CellGrid(UNIT, 4)
        p = Point(0.37, 0.83)
        cell = grid.cell_of(p)
        assert grid.cell_rect(cell).contains_point(p)

    def test_pair_rect_is_half_parent(self):
        grid = CellGrid(UNIT, 4)
        cell = CellId(3, 2, 5)
        pair = grid.pair_rect(cell, cell.horizontal_neighbor())
        assert pair.area == pytest.approx(2 * grid.cell_area(3))

    def test_path_to_root(self):
        grid = CellGrid(UNIT, 4)
        path = grid.path_to_root(CellId(4, 9, 3))
        assert len(path) == 5
        assert path[0] == CellId(4, 9, 3)
        assert path[-1] == CellId(0, 0, 0)
        for deeper, shallower in zip(path, path[1:]):
            assert deeper.parent() == shallower

    def test_common_ancestor_level(self):
        grid = CellGrid(UNIT, 4)
        a = CellId(4, 0, 0)
        assert grid.common_ancestor_level(a, a) == 4
        b = CellId(4, 1, 0)  # sibling
        assert grid.common_ancestor_level(a, b) == 3
        c = CellId(4, 15, 15)  # opposite corner
        assert grid.common_ancestor_level(a, c) == 0
        with pytest.raises(ValueError):
            grid.common_ancestor_level(a, CellId(3, 0, 0))

    @given(
        st.floats(0, 1, allow_nan=False),
        st.floats(0, 1, allow_nan=False),
        st.integers(0, 8),
    )
    def test_cell_of_consistent_with_ancestor(self, x, y, level):
        grid = CellGrid(UNIT, 8)
        p = Point(x, y)
        deepest = grid.cell_of(p)
        assert grid.cell_of(p, level) == deepest.ancestor(level)

    @given(
        st.sampled_from([UNIT, Rect(0, 0, 2, 1), Rect(-3.7, 2.1, 5.9, 7.4)]),
        st.sampled_from([8, 13, 31]),
        st.data(),
    )
    def test_locate_once_descent_equals_per_level_locate(self, bounds, height, data):
        # The adaptive cut locates a point once and descends with
        # ``ancestor(level)``: that must be ``cell_of(p, level)`` at
        # *every* level, on any bounds and height, including the
        # tolerance band just outside the outer border (clamped inward).
        def coordinate(lo: float, hi: float):
            band = [lo - 0.9 * EPSILON, lo, hi, hi + 0.9 * EPSILON]
            band += [math.nextafter(v, side) for v in (lo, hi) for side in (-math.inf, math.inf)]
            return st.one_of(st.floats(lo, hi, allow_nan=False), st.sampled_from(band))

        grid = CellGrid(bounds, height)
        p = Point(
            data.draw(coordinate(bounds.x_min, bounds.x_max)),
            data.draw(coordinate(bounds.y_min, bounds.y_max)),
        )
        assert grid.contains(p)
        lowest = grid.cell_of(p)
        for level in range(height + 1):
            assert grid.cell_of(p, level) == lowest.ancestor(level)

    @given(st.floats(0, 1, allow_nan=False), st.floats(0, 1, allow_nan=False))
    def test_cell_rect_roundtrip(self, x, y):
        grid = CellGrid(UNIT, 8)
        p = Point(x, y)
        cell = grid.cell_of(p)
        assert grid.cell_rect(cell).contains_point(p, tol=1e-9)

    def test_non_square_bounds(self):
        grid = CellGrid(Rect(0, 0, 2, 1), 2)
        rect = grid.cell_rect(CellId(2, 0, 0))
        assert rect.width == pytest.approx(0.5)
        assert rect.height == pytest.approx(0.25)
        assert grid.cell_area(2) == pytest.approx(2.0 / 16)
