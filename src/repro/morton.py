"""Morton (Z-order) codes — the one shared implementation.

Every layer of the system that linearizes the pyramid uses the same
bit-interleave convention: ``ix`` occupies the even bit positions and
``iy`` the odd ones, so the Z-order index of ``(ix, iy)`` is
``spread(ix) | spread(iy) << 1``.  The array-backed pyramid
(``repro.anonymizer.soa``) and the shard router
(``repro.sharding.router``) once each carried their own copy of the
encode / decode helpers; this module is the single definition site
(``repro.sharding`` re-exports the rank helpers as part of its public
API).  ``tests/test_morton_shared.py``
pins the bit-equality of the table-driven fast paths against a
straight-loop reference, so any future edit that skews the convention
fails loudly.

Three speed tiers, all bit-identical:

* :func:`morton_encode` / :func:`morton_decode` — vectorized magic-mask
  spread/compact over numpy ``int64`` arrays (batched kernels);
* :func:`morton_of_xy` / :func:`morton_of_cell` — scalar encodes via a
  16-bit spread lookup table (one probe per coordinate);
* :func:`cell_of_morton` / :func:`morton_cell` — scalar decodes via
  pure-int bit twiddling (no numpy round-trip on the cloak fast path).
"""

from __future__ import annotations

import numpy as np
import numpy.typing as npt

from repro.anonymizer.cells import CellId

__all__ = [
    "cell_of_morton",
    "morton_cell",
    "morton_decode",
    "morton_encode",
    "morton_of_cell",
    "morton_of_xy",
    "morton_rank",
]

IntArray = npt.NDArray[np.int64]

_M1 = np.int64(0x5555555555555555)
_M2 = np.int64(0x3333333333333333)
_M4 = np.int64(0x0F0F0F0F0F0F0F0F)
_M8 = np.int64(0x00FF00FF00FF00FF)
_M16 = np.int64(0x0000FFFF0000FFFF)
_M32 = np.int64(0x00000000FFFFFFFF)


# ----------------------------------------------------------------------
# Vectorized magic-mask spread/compact
# ----------------------------------------------------------------------
def _spread(v: IntArray) -> IntArray:
    """Insert a zero bit above every bit of ``v`` (values < 2**31)."""
    v = (v | (v << 16)) & _M16
    v = (v | (v << 8)) & _M8
    v = (v | (v << 4)) & _M4
    v = (v | (v << 2)) & _M2
    v = (v | (v << 1)) & _M1
    return v


def _compact(v: IntArray) -> IntArray:
    """Inverse of :func:`_spread`: drop every odd-position bit."""
    v = v & _M1
    v = (v | (v >> 1)) & _M2
    v = (v | (v >> 2)) & _M4
    v = (v | (v >> 4)) & _M8
    v = (v | (v >> 8)) & _M16
    v = (v | (v >> 16)) & _M32
    return v


def morton_encode(ix: IntArray, iy: IntArray) -> IntArray:
    """Z-order index of ``(ix, iy)`` grid coordinates, elementwise."""
    return _spread(ix) | (_spread(iy) << 1)


def morton_decode(m: IntArray) -> tuple[IntArray, IntArray]:
    """Inverse of :func:`morton_encode`: ``(ix, iy)`` arrays."""
    return _compact(m), _compact(m >> 1)


# 16-bit spread lookup for scalar (single-cell) encodes: one table probe
# per coordinate instead of five mask/shift rounds on a python int.
_SPREAD_TABLE: IntArray = _spread(np.arange(1 << 16, dtype=np.int64))


def morton_of_cell(cell: CellId) -> int:
    """Z-order index of one cell among the ``4**level`` of its level."""
    return int(_SPREAD_TABLE[cell.ix]) | (int(_SPREAD_TABLE[cell.iy]) << 1)


def morton_of_xy(ix: int, iy: int) -> int:
    """Z-order index of raw grid coordinates (scalar fast path)."""
    return int(_SPREAD_TABLE[ix]) | (int(_SPREAD_TABLE[iy]) << 1)


def _compact_int(v: int) -> int:
    """Scalar inverse of ``_spread``: keep every even-position bit.

    Pure-int bit twiddling — this sits on the cloak fast path, where a
    per-call one-element numpy decode would dominate the cache-hit cost.
    """
    v &= 0x5555555555555555
    v = (v | (v >> 1)) & 0x3333333333333333
    v = (v | (v >> 2)) & 0x0F0F0F0F0F0F0F0F
    v = (v | (v >> 4)) & 0x00FF00FF00FF00FF
    v = (v | (v >> 8)) & 0x0000FFFF0000FFFF
    return (v | (v >> 16)) & 0xFFFFFFFF


def cell_of_morton(level: int, m: int) -> CellId:
    """The :class:`CellId` with Z-order index ``m`` at ``level``."""
    return CellId._trusted(level, _compact_int(m), _compact_int(m >> 1))


# ----------------------------------------------------------------------
# Rank helpers (the shard router's historical spelling)
# ----------------------------------------------------------------------
def morton_rank(cell: CellId) -> int:
    """Z-order rank of ``cell`` among the ``4**level`` cells of its
    level (bit-interleave of ``iy`` over ``ix``)."""
    ix, iy = cell.ix, cell.iy
    if ix < (1 << 16) and iy < (1 << 16):
        return int(_SPREAD_TABLE[ix]) | (int(_SPREAD_TABLE[iy]) << 1)
    rank = 0
    for bit in range(cell.level):
        rank |= ((ix >> bit) & 1) << (2 * bit)
        rank |= ((iy >> bit) & 1) << (2 * bit + 1)
    return rank


def morton_cell(rank: int, level: int) -> CellId:
    """Inverse of :func:`morton_rank` at the given level."""
    return CellId(level, _compact_int(rank), _compact_int(rank >> 1))
