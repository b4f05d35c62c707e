"""The basic (complete-pyramid) cloaking policy — Section 4.1.

:class:`CompletePyramidMaintainer` is the shared maintenance walk over
a complete pyramid of per-cell counters: apply a population delta along
one root-to-leaf path, or move a user between two lowest-level cells by
adjusting both branches below their common ancestor.  The sharded
fleet (``repro.sharding.basic``) hosts it for registrations and
boundary-crossing moves, and the reference pyramid
(``tests/reference_pyramid.py``) for everything, by supplying two hooks:

* ``_apply_cell(cell, delta)`` — add ``delta`` to one cell's counter
  and bump its generation (the routed spine/core stores of a fleet, or
  the oracle's per-level arrays);
* ``_commit(touched)`` — epoch effects of the completed primitive.

The single anonymizer (``repro.anonymizer.basic``) and the fleet's
confined-move fast path bypass the mixin on purpose: their array
kernels update whole Morton chains without per-cell python dispatch,
and the differential suites pin them against this per-cell walk.
"""

from __future__ import annotations

from typing import Sequence

from repro.anonymizer.cells import CellGrid, CellId, branch_pairs
from repro.anonymizer.policy import CloakingPolicy, PolicySpec, register_policy
from repro.anonymizer.soa import check_soa_height
from repro.anonymizer.stats import MaintenanceStats
from repro.geometry import Rect

__all__ = ["CompletePyramidMaintainer"]


class CompletePyramidMaintainer:
    """Complete-pyramid counter maintenance over host-supplied hooks."""

    grid: CellGrid
    stats: MaintenanceStats

    # ------------------------------------------------------------------
    # Host hooks
    # ------------------------------------------------------------------
    def _apply_cell(self, cell: CellId, delta: int) -> None:
        raise NotImplementedError

    def _commit(self, touched: Sequence[CellId]) -> None:
        raise NotImplementedError

    # ------------------------------------------------------------------
    # Maintenance primitives
    # ------------------------------------------------------------------
    def _apply_delta(self, cell: CellId, delta: int) -> None:
        """Register/deregister: one delta along the root-to-leaf path."""
        path = self.grid.path_to_root(cell)
        for ancestor in path:
            self._apply_cell(ancestor, delta)
        self._commit(path)
        self.stats.counter_updates += cell.level + 1

    def _apply_branches(self, old: CellId, new: CellId, ancestor_level: int) -> int:
        """Movement: counters change on both branches strictly below the
        common ancestor of the old and new lowest-level cells.  Returns
        the counter-update cost."""
        touched: list[CellId] = []
        cost = 0
        for old_cell, new_cell in branch_pairs(old, new, ancestor_level):
            self._apply_cell(old_cell, -1)
            self._apply_cell(new_cell, +1)
            touched.append(old_cell)
            touched.append(new_cell)
            cost += 2
        self._commit(touched)
        return cost


def _single(bounds: Rect, height: int, cloak_cache_size: int) -> CloakingPolicy:
    from repro.anonymizer.basic import BasicAnonymizer

    return BasicAnonymizer(bounds, height, cloak_cache_size)


def _sharded(
    bounds: Rect, height: int, num_shards: int, cloak_cache_size: int
) -> object:
    from repro.sharding.basic import ShardedBasicAnonymizer

    return ShardedBasicAnonymizer(
        bounds,
        height=height,
        num_shards=num_shards,
        cloak_cache_size=cloak_cache_size,
    )


register_policy(
    PolicySpec(
        name="basic",
        single=_single,
        sharded=_sharded,
        check_height=check_soa_height,
        description="Complete pyramid of per-cell counters (Section 4.1)",
    )
)
