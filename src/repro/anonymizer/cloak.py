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
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterable

from repro.anonymizer.cells import CellGrid, CellId
from repro.anonymizer.profile import PrivacyProfile
from repro.errors import ProfileUnsatisfiableError
from repro.geometry import Rect

__all__ = ["BatchCloaking", "CloakedRegion", "bottom_up_cloak"]

CountFn = Callable[[CellId], int]


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
    deployments.  (The worker-pool parent overrides it with one frame
    per involved shard; the contract is the same.)"""

    def cloak(self, uid: object) -> CloakedRegion:
        raise NotImplementedError

    def cloak_many(
        self, uids: Iterable[object], unsatisfiable: CloakedRegion | None = None
    ) -> list[CloakedRegion]:
        """Cloak a batch of users; regions come back in input order.

        Outcomes are per item.  Where a profile cannot be satisfied,
        ``unsatisfiable`` stands in for that user's region and the rest
        of the batch is unaffected (the facade passes its cold-start
        region, a frame endpoint the marker of its ``unsat`` reply).
        Without a stand-in the earliest such user's
        :class:`~repro.errors.ProfileUnsatisfiableError` is raised —
        after the whole batch ran, so ``cloak_requests`` counts every
        entry.  An unknown uid raises, as it does from :meth:`cloak`.
        """
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
    grid: CellGrid,
    count: CountFn,
    profile: PrivacyProfile,
    start: CellId,
) -> CloakedRegion:
    """Run Algorithm 1 from ``start`` and return the cloaked region.

    ``count`` maps any cell at ``start``'s level or above to its user
    population.  Raises :class:`ProfileUnsatisfiableError` when even the
    root cell (the whole service area) cannot satisfy the profile — the
    paper's precondition that ``k`` not exceed the registered population
    and ``A_min`` not exceed the total area.
    """
    k, a_min = profile.k, profile.a_min
    cell = start
    while True:
        cell_count = count(cell)
        cell_area = grid.cell_area(cell.level)
        if cell_count >= k and cell_area >= a_min - 1e-15:
            return CloakedRegion(grid.cell_rect(cell), cell_count, (cell,))
        if cell.is_root:
            raise ProfileUnsatisfiableError(
                f"profile (k={k}, a_min={a_min}) unsatisfiable: the whole "
                f"service area holds {cell_count} users / area {cell_area}"
            )
        cid_h = cell.horizontal_neighbor()
        cid_v = cell.vertical_neighbor()
        n_h = cell_count + count(cid_h)
        n_v = cell_count + count(cid_v)
        if (n_v >= k or n_h >= k) and 2.0 * cell_area >= a_min - 1e-15:
            # Prefer the combination whose population is closer to k
            # (lines 9-13 of Algorithm 1).
            if (n_h >= k and n_v >= k and n_h <= n_v) or n_v < k:
                return CloakedRegion(
                    grid.pair_rect(cell, cid_h), n_h, (cell, cid_h)
                )
            return CloakedRegion(grid.pair_rect(cell, cid_v), n_v, (cell, cid_v))
        cell = cell.parent()
