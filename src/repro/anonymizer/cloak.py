"""Algorithm 1 — bottom-up cloaking over a pyramid of user counts.

Shared by the basic and adaptive anonymizers: the two differ only in the
cell the search *starts* from (the lowest complete-pyramid level vs the
lowest *maintained* level) and in how the count view is backed.

Faithful to the paper's Algorithm 1:

1. if the start cell alone satisfies ``(k, A_min)`` return it;
2. otherwise try combining with the horizontal or vertical same-parent
   neighbour, choosing the combination whose population is *closer to
   k* (the paper's accuracy requirement: :math:`k_R \\gtrsim k`, as
   tight as possible);
3. otherwise recurse on the parent.

It is stated twice, side by side, in one arithmetic — a cell is its
level and Morton code ``m``, its row and column mates ``m ^ 1`` and
``m ^ 2``, its parent ``m >> 2``: :func:`bottom_up_cloak` walks one
start cell through any ``count(level, m)`` view — the reference, and
both pyramids' scalar path — and :func:`bottom_up_cloaks` climbs many
rows of a complete pyramid's level arrays a level at a time
(``tests/test_cloak_cache.py`` runs them as twins).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterable, Sequence

import numpy as np

from repro.anonymizer.cells import CellGrid, CellId
from repro.anonymizer.profile import PrivacyProfile
from repro.anonymizer.soa import FloatArray, IntArray
from repro.errors import ProfileUnsatisfiableError, UnknownUserError
from repro.geometry import Rect
from repro.morton import cell_of_morton, morton_decode

__all__ = ["BatchCloaking", "CloakedRegion", "bottom_up_cloak", "bottom_up_cloaks"]

#: ``count(level, m)``: the population of the level-``level`` cell with
#: Morton code ``m``.
CountFn = Callable[[int, int], int]


@dataclass(frozen=True, slots=True)
class CloakedRegion:
    """The output of the location anonymizer for one request.

    ``achieved_k`` is the number of users inside the region (the paper's
    :math:`k'` used for the Figure 10c accuracy metric) and ``cells``
    records which pyramid cells compose it — always a single cell or a
    same-parent sibling pair, i.e. a rectangle from the pre-defined
    partitioning, which is what makes the cloak data-independent (the
    *quality* requirement).

    Membership semantics: ``achieved_k`` counts users by their pyramid
    *cell assignment*, which is half-open (a point on a shared cell
    border belongs to the upper-right cell, per
    :meth:`~repro.anonymizer.cells.CellGrid.cell_of`).  A user sitting
    exactly on the region's closed boundary but assigned to a
    neighbouring cell is therefore not counted — each user contributes
    to exactly one cell, which is what keeps pyramid counters exact.
    """

    region: Rect
    achieved_k: int
    cells: tuple[CellId, ...] = ()

    @property
    def level(self) -> int:
        """Pyramid level of the composing cells; ``-1`` for regions not
        produced from pyramid cells (baseline anonymizers)."""
        return self.cells[0].level if self.cells else -1

    @property
    def area(self) -> float:
        """Area of the cloaked region (the paper's :math:`A'`)."""
        return self.region.area

    def accuracy_k(self, profile: PrivacyProfile) -> float:
        """The Figure 10c metric :math:`k'/k` (1.0 is optimal)."""
        return self.achieved_k / profile.k

    def accuracy_area(self, profile: PrivacyProfile) -> float:
        """The Figure 10d metric :math:`A'/A_{min}`; infinite when the
        profile asked for no minimum area."""
        if profile.a_min <= 0:
            return float("inf")
        return self.area / profile.a_min


class BatchCloaking:
    """``cloak_many`` for every host whose batch *is* its single cloaks
    in order — the single policies and the in-process sharded
    deployments.  (The complete pyramid climbs a batch's cache misses
    together and the worker-pool parent ships one frame per involved
    shard; the contract is the same.)"""

    def __contains__(self, uid: object) -> bool:
        raise NotImplementedError

    def cloak(self, uid: object) -> CloakedRegion:
        raise NotImplementedError

    def cloak_many(
        self, uids: Iterable[object], unsatisfiable: CloakedRegion | None = None
    ) -> list[CloakedRegion]:
        """Cloak a batch of users; regions come back in input order.

        Every uid is resolved first: a batch naming an unknown user is
        refused whole with :class:`~repro.errors.UnknownUserError` and
        leaves no trace — nothing cloaked, counted in ``stats`` or
        cached, on any host.

        Past that, outcomes are per item.  Where a profile cannot be
        satisfied, ``unsatisfiable`` stands in for that user's region
        and the rest of the batch is unaffected (the facade passes its
        cold-start region, a frame endpoint the marker of its ``unsat``
        reply).  Without a stand-in the earliest such user's
        :class:`~repro.errors.ProfileUnsatisfiableError` is raised —
        after the whole batch ran, so ``cloak_requests`` counts every
        entry.
        """
        uids = list(uids)
        for uid in uids:
            if uid not in self:
                raise UnknownUserError(uid)
        regions: list[CloakedRegion] = []
        failure: ProfileUnsatisfiableError | None = None
        for uid in uids:
            try:
                regions.append(self.cloak(uid))
            except ProfileUnsatisfiableError as exc:
                if unsatisfiable is None:
                    failure = failure or exc
                else:
                    regions.append(unsatisfiable)
        if failure is not None:
            raise failure
        return regions


def bottom_up_cloak(
    grid: CellGrid, count: CountFn, level: int, m: int, k: int, a_min: float
) -> CloakedRegion:
    """Run Algorithm 1 from cell ``(level, m)`` and return the region.

    The start is the level-``level`` cell with Morton code ``m`` and the
    profile is ``(k, a_min)``; ``count(level, m)`` is the user population of any cell at the start
    level or above.  Per level the walk reads the cell's count, then —
    unless it settles there alone — its same-parent row mate's
    (``m ^ 1``, the low bit of ``ix``) and column mate's (``m ^ 2``, the
    low bit of ``iy``); ``m >> 2`` is the parent.  A ``CellId`` is built
    only for the cells it returns.  Raises
    :class:`ProfileUnsatisfiableError` when even the root cell (the
    whole service area) cannot satisfy the profile — the paper's
    precondition that ``k`` not exceed the registered population and
    ``A_min`` not exceed the total area.
    """
    areas = grid.areas
    while True:
        cell_count = count(level, m)
        cell_area = areas[level]
        if cell_count >= k and cell_area >= a_min - 1e-15:
            cell = cell_of_morton(level, m)
            return CloakedRegion(grid.cell_rect(cell), cell_count, (cell,))
        if not level:
            raise ProfileUnsatisfiableError(
                f"profile (k={k}, a_min={a_min}) unsatisfiable: the whole "
                f"service area holds {cell_count} users / area {cell_area}"
            )
        n_h = cell_count + count(level, m ^ 1)
        n_v = cell_count + count(level, m ^ 2)
        if (n_v >= k or n_h >= k) and 2.0 * cell_area >= a_min - 1e-15:
            # Prefer the combination whose population is closer to k
            # (lines 9-13 of Algorithm 1).
            if (n_h >= k and n_v >= k and n_h <= n_v) or n_v < k:
                mate, achieved = m ^ 1, n_h
            else:
                mate, achieved = m ^ 2, n_v
            cell, other = cell_of_morton(level, m), cell_of_morton(level, mate)
            return CloakedRegion(grid.pair_rect(cell, other), achieved, (cell, other))
        level, m = level - 1, m >> 2


#: What one kernel row yields: the region and the generation of every
#: count read on the way to it, in read order.
Climbed = tuple[CloakedRegion, tuple[int, ...]]


def bottom_up_cloaks(
    grid: CellGrid,
    counts: Sequence[IntArray],
    gens: Sequence[IntArray],
    ms: IntArray,
    ks: IntArray,
    a_mins: FloatArray,
) -> list[Climbed | None]:
    """Algorithm 1 for many rows of a complete pyramid at once.

    Row ``i`` starts at the lowest-level cell with Morton code
    ``ms[i]`` under profile ``(ks[i], a_mins[i])``; ``counts[level]``
    and ``gens[level]`` are the Morton-indexed level arrays.  All rows
    still climbing stand at one level, so a step of the loop is
    :func:`bottom_up_cloak`'s loop body for all of them — its three
    tests, in its order, on its expressions, its neighbours and parent.
    Settled rows drop out: at most ``height + 1`` steps of a few dozen
    array operations, whatever the batch size.

    Returns per row what the scalar walk returns plus the generations
    of the counts it read, in read order (per level the cell's, then —
    unless the row settles there alone — both neighbours'); ``None``
    where the walk raises :class:`ProfileUnsatisfiableError`.
    """
    n, height = len(ms), grid.height
    level_at = np.full(n, -1, dtype=np.int64)
    cell_at = np.zeros(n, dtype=np.int64)
    mate_at = np.zeros(n, dtype=np.int64)  # 0 alone, 1 with m ^ 1, 2 with m ^ 2
    k_at = np.zeros(n, dtype=np.int64)
    seen = np.zeros((n, 3 * height + 1), dtype=np.int64)
    rows = np.arange(n)
    least = a_mins - 1e-15  # a region of ``area`` is big enough: area >= least
    for level in range(height, 0, -1):
        area = grid.areas[level]
        trio = ms[:, None] ^ _TRIO  # the cell, its row mate, its column mate
        first = 3 * (height - level)
        seen[rows, first : first + 3] = gens[level][trio]
        own, with_h, with_v = counts[level][trio].T
        n_h = own + with_h
        n_v = own + with_v
        h_fills, v_fills = n_h >= ks, n_v >= ks
        alone = (own >= ks) & (area >= least)
        pair = ~alone & (v_fills | h_fills) & (2.0 * area >= least)
        # Prefer the combination whose population is closer to k.
        across = (h_fills & v_fills & (n_h <= n_v)) | ~v_fills
        done = alone | pair
        settled = rows[done]
        level_at[settled] = level
        cell_at[settled] = ms[done]
        mate_at[settled] = np.where(pair, np.where(across, 1, 2), 0)[done]
        k_at[settled] = np.where(pair, np.where(across, n_h, n_v), own)[done]
        rest = ~done
        rows, ms, ks, least = rows[rest], ms[rest] >> 2, ks[rest], least[rest]
        if not len(rows):
            break
    else:
        # The root has no neighbours: it satisfies a row alone or the
        # profile is unsatisfiable.
        seen[rows, 3 * height] = gens[0][0]
        root = int(counts[0][0])
        settled = rows[(root >= ks) & (grid.areas[0] >= least)]
        level_at[settled] = 0
        k_at[settled] = root

    # The regions: ``grid.cell_rect`` / ``pair_rect`` on columns, float
    # operation for float operation (a pair's union starts at its lower
    # cell and ends one width past the start of its upper one).
    found = np.flatnonzero(level_at >= 0)
    level_at, mate_at = level_at[found], mate_at[found]
    ix, iy = morton_decode(cell_at[found])
    dx, dy = mate_at & 1, mate_at >> 1
    bounds, side = grid.bounds, 1 << level_at
    w, h = bounds.width / side, bounds.height / side
    rects = map(
        Rect,
        (bounds.x_min + (ix & ~dx) * w).tolist(),
        (bounds.y_min + (iy & ~dy) * h).tolist(),
        (bounds.x_min + (ix | dx) * w + w).tolist(),
        (bounds.y_min + (iy | dy) * h + h).tolist(),
    )
    reads = 3 * (height - level_at) + 1 + 2 * (mate_at > 0)
    out: list[Climbed | None] = [None] * n
    cell = CellId._trusted
    for row, at, x, y, to_x, to_y, achieved, rect, gen_row, gen_count in zip(
        found.tolist(), level_at.tolist(), ix.tolist(), iy.tolist(),
        (ix ^ dx).tolist(), (iy ^ dy).tolist(), k_at[found].tolist(), rects,
        seen[found].tolist(), reads.tolist(),
    ):
        cells = (cell(at, x, y),)
        if (to_x, to_y) != (x, y):
            cells += (cell(at, to_x, to_y),)
        out[row] = CloakedRegion(rect, achieved, cells), tuple(gen_row[:gen_count])
    return out


#: XOR masks taking a Morton code to itself and to its same-parent
#: horizontal (``ix ^ 1``) and vertical (``iy ^ 1``) neighbour.
_TRIO = np.array([0, 1, 2], dtype=np.int64)
