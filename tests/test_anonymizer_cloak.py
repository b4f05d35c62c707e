"""Tests for Algorithm 1 (bottom-up cloaking) and CloakedRegion."""

from __future__ import annotations

import pytest

from repro.anonymizer import CellGrid, CellId, CloakedRegion, PrivacyProfile
from repro.anonymizer.cloak import bottom_up_cloak
from repro.errors import ProfileUnsatisfiableError
from repro.geometry import Rect
from repro.morton import cell_of_morton

UNIT = Rect(0, 0, 1, 1)


def counts_from(mapping: dict[CellId, int]):
    """A ``count(level, m)`` backed by a dict (0 for absent cells)."""
    return lambda level, m: mapping.get(cell_of_morton(level, m), 0)


def complete_counts(grid: CellGrid, leaf_counts: dict[tuple[int, int], int]):
    """Aggregate lowest-level counts into a full pyramid count function."""
    mapping: dict[CellId, int] = {}
    for (ix, iy), n in leaf_counts.items():
        cell = CellId(grid.height, ix, iy)
        for ancestor in grid.path_to_root(cell):
            mapping[ancestor] = mapping.get(ancestor, 0) + n
    return counts_from(mapping)


class TestBottomUpCloak:
    def test_cell_satisfies_immediately(self):
        grid = CellGrid(UNIT, 2)
        count = complete_counts(grid, {(0, 0): 10})
        region = bottom_up_cloak(grid, count, 2, 0, 5, 0.0)
        assert region.cells == (CellId(2, 0, 0),)
        assert region.achieved_k == 10
        assert region.region == grid.cell_rect(CellId(2, 0, 0))

    def test_area_requirement_forces_bigger_region(self):
        grid = CellGrid(UNIT, 2)
        count = complete_counts(grid, {(0, 0): 10})
        # k satisfied at the leaf but A_min demands at least half the
        # parent cell: the pair combination is used.
        a_min = 1.5 * grid.cell_area(2)
        region = bottom_up_cloak(grid, count, 2, 0, 5, a_min)
        assert len(region.cells) == 2
        assert region.area == pytest.approx(2 * grid.cell_area(2))

    def test_neighbor_combination_prefers_closer_to_k(self):
        grid = CellGrid(UNIT, 1)
        # Start cell (0,0) has 2 users; horizontal neighbour (1,0) has
        # 5; vertical neighbour (0,1) has 3. k=5: both combos satisfy
        # (7 and 5); vertical (5) is closer to k.
        count = counts_from(
            {
                CellId(1, 0, 0): 2,
                CellId(1, 1, 0): 5,
                CellId(1, 0, 1): 3,
                CellId(0, 0, 0): 11,
            }
        )
        region = bottom_up_cloak(grid, count, 1, 0, 5, 0.0)
        assert set(region.cells) == {CellId(1, 0, 0), CellId(1, 0, 1)}
        assert region.achieved_k == 5

    def test_neighbor_combination_horizontal_when_vertical_insufficient(self):
        grid = CellGrid(UNIT, 1)
        count = counts_from(
            {
                CellId(1, 0, 0): 2,
                CellId(1, 1, 0): 4,
                CellId(1, 0, 1): 1,
                CellId(0, 0, 0): 8,
            }
        )
        region = bottom_up_cloak(grid, count, 1, 0, 5, 0.0)
        assert set(region.cells) == {CellId(1, 0, 0), CellId(1, 1, 0)}

    def test_ties_choose_horizontal(self):
        # Lines 9-10: N_H >= k and N_V >= k and N_H <= N_V -> horizontal.
        grid = CellGrid(UNIT, 1)
        count = counts_from(
            {
                CellId(1, 0, 0): 2,
                CellId(1, 1, 0): 3,
                CellId(1, 0, 1): 3,
                CellId(0, 0, 0): 9,
            }
        )
        region = bottom_up_cloak(grid, count, 1, 0, 5, 0.0)
        assert set(region.cells) == {CellId(1, 0, 0), CellId(1, 1, 0)}

    def test_areas_within_1e_15_of_a_min_suffice(self):
        grid = CellGrid(UNIT, 1)
        count = counts_from({CellId(1, 0, 0): 5, CellId(0, 0, 0): 5})
        alone = bottom_up_cloak(grid, count, 1, 0, 5, 0.25 + 1e-16)
        pair = bottom_up_cloak(grid, count, 1, 0, 5, 0.5 + 1e-16)
        assert len(alone.cells) == 1 and len(pair.cells) == 2

    def test_recursion_to_parent(self):
        grid = CellGrid(UNIT, 2)
        # Nobody near the user at level 2; population concentrated in a
        # far quadrant, so only the root satisfies k=5.
        count = complete_counts(grid, {(0, 0): 1, (3, 3): 10})
        region = bottom_up_cloak(grid, count, 2, 0, 5, 0.0)
        assert region.cells == (CellId(0, 0, 0),)
        assert region.region == UNIT

    def test_pair_region_is_rectangle_half_parent(self):
        grid = CellGrid(UNIT, 3)
        count = complete_counts(grid, {(0, 0): 1, (1, 0): 9})
        region = bottom_up_cloak(grid, count, 3, 0, 5, 0.0)
        assert region.area == pytest.approx(2 * grid.cell_area(3))
        assert region.region.width == pytest.approx(2 * region.region.height)

    def test_unsatisfiable_k_raises(self):
        grid = CellGrid(UNIT, 1)
        count = counts_from({CellId(0, 0, 0): 3, CellId(1, 0, 0): 3})
        with pytest.raises(ProfileUnsatisfiableError):
            bottom_up_cloak(grid, count, 1, 0, 10, 0.0)

    def test_unsatisfiable_area_raises(self):
        grid = CellGrid(UNIT, 1)
        count = counts_from({CellId(0, 0, 0): 3, CellId(1, 0, 0): 3})
        with pytest.raises(ProfileUnsatisfiableError):
            bottom_up_cloak(grid, count, 1, 0, 1, 2.0)

    def test_start_at_root(self):
        grid = CellGrid(UNIT, 0)
        count = counts_from({CellId(0, 0, 0): 7})
        region = bottom_up_cloak(grid, count, 0, 0, 5, 0.0)
        assert region.region == UNIT


class TestCloakedRegion:
    def test_accuracy_metrics(self):
        region = CloakedRegion(Rect(0, 0, 0.5, 0.5), achieved_k=20, cells=())
        profile = PrivacyProfile(k=10, a_min=0.05)
        assert region.accuracy_k(profile) == pytest.approx(2.0)
        assert region.accuracy_area(profile) == pytest.approx(0.25 / 0.05)

    def test_accuracy_area_infinite_when_no_requirement(self):
        region = CloakedRegion(Rect(0, 0, 0.5, 0.5), achieved_k=20, cells=())
        assert region.accuracy_area(PrivacyProfile(k=10)) == float("inf")

    def test_level(self):
        region = CloakedRegion(UNIT, 1, (CellId(3, 0, 0),))
        assert region.level == 3
        assert CloakedRegion(UNIT, 1, ()).level == -1
