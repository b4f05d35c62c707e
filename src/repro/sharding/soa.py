"""Array-backed counter storage for sharded pyramid cores.

The shard router hands every core a *contiguous* Morton rank range of
level-``S`` blocks, so the core's slice of each level ``>= S`` is one
contiguous run of Morton indexes — a flat numpy array plus an offset,
not a hash table.  :class:`MortonSlice` holds those per-level arrays
while speaking the ``dict[CellId, int]`` protocol the per-cell routed
walk, the snapshots, the invariant checks and the parallel worker
replica audits use: lookups, iteration, equality against plain dicts,
and ``dict(slice)`` copies all behave exactly like a
zero-counts-not-stored dict.  The payoff is the batched
update kernel in :class:`~repro.sharding.basic.ShardedBasicAnonymizer`:
confined per-tick moves become ``np.add.at`` scatters on these arrays.

Snapshots deliberately stay plain dicts (the canonical wire/pickle
format fleets exchange locally and across the worker process
boundary); :meth:`MortonSlice.load` rebuilds the arrays from that
format on restore.
"""

from __future__ import annotations

from typing import Iterator, Mapping, MutableMapping

import numpy as np

from repro.anonymizer.cells import CellId
from repro.anonymizer.soa import IntArray
from repro.morton import cell_of_morton, morton_of_xy

__all__ = ["MortonSlice", "scatter_confined_moves"]


def scatter_confined_moves(
    counts: "MortonSlice",
    gens: "MortonSlice",
    old_group: IntArray,
    new_group: IntArray,
    ca_group: IntArray,
    height: int,
) -> IntArray:
    """Apply a group of confined moves to one core's Morton slices.

    ``old_group``/``new_group`` are lowest-level Morton codes and
    ``ca_group`` the per-move common-ancestor levels (all ``>= S``, so
    every touched cell lands on these slices).  Per level below the
    shallowest shared ancestor, the moves still in flight scatter a
    ``-1``/``+1`` counter pair and two generation bumps — the exact
    per-cell writes of the scalar walk, batched.  Returns the per-move
    counter-update costs ``2 * (height - ca)``.
    """
    deepest_shared = int(ca_group.min())
    for level in range(height, deepest_shared, -1):
        mask = ca_group < level
        shift = 2 * (height - level)
        offset = counts.level_offset(level)
        old_idx = (old_group[mask] >> shift) - offset
        new_idx = (new_group[mask] >> shift) - offset
        count_arr = counts.level_array(level)
        gen_arr = gens.level_array(level)
        np.subtract.at(count_arr, old_idx, 1)
        np.add.at(count_arr, new_idx, 1)
        np.add.at(gen_arr, old_idx, 1)
        np.add.at(gen_arr, new_idx, 1)
    return 2 * (height - ca_group)


class MortonSlice(MutableMapping[CellId, int]):
    """One shard's pyramid counters as per-level contiguous arrays.

    ``lo`` / ``hi`` bound the core's block rank range at the spine
    level; level ``S + d`` covers Morton indexes
    ``[lo << 2d, hi << 2d)``.  Cells outside the owned range, above the
    spine level, or holding a zero count read as absent — matching the
    sparse-dict convention everywhere in the sharded runtime.
    """

    def __init__(
        self, height: int, spine_level: int, lo: int, hi: int
    ) -> None:
        self.height = height
        self.spine_level = spine_level
        self.lo = lo
        self.hi = hi
        self._levels: list[IntArray] = []
        self._offsets: list[int] = []
        for level in range(spine_level, height + 1):
            scale = 2 * (level - spine_level)
            self._levels.append(
                np.zeros((hi - lo) << scale, dtype=np.int64)
            )
            self._offsets.append(lo << scale)

    # -- array access for the batched kernels ---------------------------
    def level_array(self, level: int) -> IntArray:
        """The flat counter array for ``level`` (Morton index minus
        :meth:`level_offset`)."""
        return self._levels[level - self.spine_level]

    def level_offset(self, level: int) -> int:
        return self._offsets[level - self.spine_level]

    def nbytes(self) -> int:
        return sum(arr.nbytes for arr in self._levels)

    # -- dict protocol --------------------------------------------------
    def _index(self, cell: CellId) -> tuple[int, int] | None:
        level_index = cell.level - self.spine_level
        if level_index < 0 or cell.level > self.height:
            return None
        index = morton_of_xy(cell.ix, cell.iy) - self._offsets[level_index]
        if not 0 <= index < len(self._levels[level_index]):
            return None
        return level_index, index

    def __getitem__(self, cell: CellId) -> int:
        loc = self._index(cell)
        if loc is None:
            raise KeyError(cell)
        value = int(self._levels[loc[0]][loc[1]])
        if not value:
            raise KeyError(cell)
        return value

    def __setitem__(self, cell: CellId, value: int) -> None:
        loc = self._index(cell)
        if loc is None:
            raise KeyError(f"cell {cell} outside this shard's slice")
        self._levels[loc[0]][loc[1]] = value

    def __delitem__(self, cell: CellId) -> None:
        loc = self._index(cell)
        if loc is None or not self._levels[loc[0]][loc[1]]:
            raise KeyError(cell)
        self._levels[loc[0]][loc[1]] = 0

    def __contains__(self, cell: object) -> bool:
        if not isinstance(cell, CellId):
            return False
        loc = self._index(cell)
        return loc is not None and bool(self._levels[loc[0]][loc[1]])

    def __iter__(self) -> Iterator[CellId]:
        for level_index, arr in enumerate(self._levels):
            level = self.spine_level + level_index
            offset = self._offsets[level_index]
            for m in np.flatnonzero(arr):
                yield cell_of_morton(level, int(m) + offset)

    def __len__(self) -> int:
        return sum(int(np.count_nonzero(arr)) for arr in self._levels)

    def __eq__(self, other: object) -> bool:
        if isinstance(other, MortonSlice):
            return (
                self.height == other.height
                and self.spine_level == other.spine_level
                and self.lo == other.lo
                and self.hi == other.hi
                and all(
                    np.array_equal(a, b)
                    for a, b in zip(self._levels, other._levels)
                )
            )
        if isinstance(other, Mapping):
            if len(self) != len(other):
                return False
            return all(
                self.get(cell, 0) == count for cell, count in other.items()
            )
        return NotImplemented

    def __ne__(self, other: object) -> bool:
        result = self.__eq__(other)
        if result is NotImplemented:
            return result
        return not result

    # MutableMapping derives __hash__ = None (mutable); keep it that way.
    __hash__ = None  # type: ignore[assignment]

    def get(self, cell: CellId, default: int = 0) -> int:  # type: ignore[override]
        loc = self._index(cell)
        if loc is None:
            return default
        value = int(self._levels[loc[0]][loc[1]])
        return value if value else default

    def load(self, mapping: Mapping[CellId, int]) -> None:
        """Replace the whole slice from a plain-dict snapshot."""
        for arr in self._levels:
            arr[:] = 0
        for cell, count in mapping.items():
            self[cell] = count

    def pop(self, cell: CellId, default: object = None) -> object:  # type: ignore[override]
        loc = self._index(cell)
        if loc is None or not self._levels[loc[0]][loc[1]]:
            return default
        value = int(self._levels[loc[0]][loc[1]])
        self._levels[loc[0]][loc[1]] = 0
        return value
