"""Bit-equality pin for the shared Morton module.

``repro.morton`` is the single definition site for every Z-order helper
previously copied between ``repro.anonymizer.soa`` and
``repro.sharding.router``.  These tests pin the interleave convention
(``ix`` at even bit positions, ``iy`` at odd) against a straight-loop
reference and verify every speed tier (vectorized magic masks, 16-bit
lookup table, pure-int compact) agrees bit for bit.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.anonymizer.cells import CellId
from repro.morton import (
    cell_of_morton,
    morton_cell,
    morton_decode,
    morton_encode,
    morton_of_cell,
    morton_of_xy,
    morton_rank,
)


def reference_interleave(ix: int, iy: int, bits: int) -> int:
    """The written-out spec: bit ``b`` of ``ix`` lands at position
    ``2b``, bit ``b`` of ``iy`` at position ``2b + 1``."""
    code = 0
    for bit in range(bits):
        code |= ((ix >> bit) & 1) << (2 * bit)
        code |= ((iy >> bit) & 1) << (2 * bit + 1)
    return code


def _sample_coords(level: int, rng: np.random.Generator) -> list[tuple[int, int]]:
    side = 1 << level
    corners = [(0, 0), (side - 1, 0), (0, side - 1), (side - 1, side - 1)]
    random = [
        (int(rng.integers(side)), int(rng.integers(side))) for _ in range(32)
    ]
    return corners + random


@pytest.mark.parametrize("level", [0, 1, 2, 5, 9, 13, 16])
def test_scalar_encodes_match_reference(level: int) -> None:
    rng = np.random.default_rng(level)
    for ix, iy in _sample_coords(level, rng):
        expected = reference_interleave(ix, iy, max(level, 1))
        assert morton_of_xy(ix, iy) == expected
        cell = CellId(level, ix, iy) if level else CellId(0, 0, 0)
        if level:
            assert morton_of_cell(cell) == expected
            assert morton_rank(cell) == expected


@pytest.mark.parametrize("level", [1, 3, 7, 13])
def test_scalar_decodes_round_trip(level: int) -> None:
    rng = np.random.default_rng(100 + level)
    for ix, iy in _sample_coords(level, rng):
        m = reference_interleave(ix, iy, level)
        assert cell_of_morton(level, m) == CellId(level, ix, iy)
        assert morton_cell(m, level) == CellId(level, ix, iy)


def test_vectorized_matches_scalar() -> None:
    rng = np.random.default_rng(7)
    ix = rng.integers(0, 1 << 16, size=512).astype(np.int64)
    iy = rng.integers(0, 1 << 16, size=512).astype(np.int64)
    codes = morton_encode(ix, iy)
    for i in range(len(ix)):
        assert int(codes[i]) == morton_of_xy(int(ix[i]), int(iy[i]))
    dix, diy = morton_decode(codes)
    assert np.array_equal(dix, ix)
    assert np.array_equal(diy, iy)


def test_rank_and_cell_are_inverses_at_every_level() -> None:
    for level in range(0, 7):
        for rank in range(4**level if level < 4 else 256):
            cell = morton_cell(rank, level)
            assert cell.level == level
            assert morton_rank(cell) == rank
