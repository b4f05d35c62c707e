"""The *basic* location anonymizer (Section 4.1).

Maintains a complete pyramid: every level from the root down to the
configured height holds a counter per grid cell, kept consistent under
continuous location updates.  A hash table maps each registered user to
``(profile, lowest-level cell)``.  Cloaking runs Algorithm 1 starting
from the user's lowest-level cell.

The pyramid is held as per-level flat Morton-indexed numpy arrays and
the user table as parallel arrays (:mod:`repro.anonymizer.soa`), with a
batched update kernel (:meth:`BasicAnonymizer.update_batch`) for
per-tick streams.  The per-object scalar pyramid it replaced lives on as
the test oracle ``tests/reference_pyramid.py``; the differential suite
(``tests/test_reference_equivalence.py``) asserts the two are
bit-identical on every operation, snapshot and cache epoch.
"""

from __future__ import annotations

from dataclasses import dataclass
import numpy as np

from repro.anonymizer.cache import CloakCache
from repro.anonymizer.cells import CellId
from repro.anonymizer.cloak import CloakedRegion
from repro.anonymizer.engine import PyramidEngine
from repro.anonymizer.profile import PrivacyProfile
from repro.anonymizer.soa import IntArray, PyramidSoA, TableSnapshot
from repro.geometry import Point, Rect
from repro.morton import cell_of_morton, morton_of_xy

__all__ = ["BasicAnonymizer"]


@dataclass(frozen=True, eq=False)
class _BasicSnapshot:
    """Deep copy of a :class:`BasicAnonymizer`'s population state.

    The format is representation-independent — counts as per-level
    ``(side, side)`` arrays indexed ``[ix, iy]`` plus the user table's
    own by-value snapshot — so the reference pyramid and this class
    restore each other's snapshots (part of the equivalence contract).
    Snapshots compare by value (the generated dataclass ``==`` cannot
    compare a list of arrays) and, holding mutable state, do not hash.
    """

    counts: list[IntArray]
    population: TableSnapshot

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, _BasicSnapshot):
            return NotImplemented
        return (
            self.population == other.population
            and len(self.counts) == len(other.counts)
            and all(map(np.array_equal, self.counts, other.counts))
        )


class BasicAnonymizer(PyramidEngine):
    """Complete-pyramid location anonymizer.

    Parameters
    ----------
    bounds:
        The service area.
    height:
        Pyramid height ``H``; the lowest level has ``4**H`` cells.
        Capped at :data:`~repro.anonymizer.soa.MAX_SOA_HEIGHT` (the
        level arrays are complete); deeper pyramids raise
        ``ValueError`` — use the adaptive policy there.
    """

    label = "basic"

    def __init__(
        self,
        bounds: Rect,
        height: int = 9,
        cloak_cache_size: int = 8192,
    ) -> None:
        self._init_pyramid(bounds, height)
        self._epoch = 0
        self.cloak_cache = CloakCache(cloak_cache_size)

    def _init_pyramid(self, bounds: Rect, height: int) -> None:
        """The population state: the engine's grid, statistics and
        user table plus flat Morton-indexed per-level count/generation
        arrays (the constructor enforces the height cap); see
        :mod:`repro.anonymizer.soa` for the layout.  Cache and epoch
        state is the host's — one of each here, one per shard in
        :class:`~repro.sharding.basic.ShardedBasicAnonymizer`."""
        self._init_engine(bounds, height)
        self._soa = PyramidSoA(height)

    # ------------------------------------------------------------------
    # The mutation seam: what did this mutation touch?
    #
    # Every count write funnels through one of these four calls — once
    # per mutation or per batch, never per level — so a host that keys
    # its caches more finely than "anything changed" (the sharded
    # fleet's per-shard and boundary epochs) overrides them and inherits
    # the kernels untouched.
    # ------------------------------------------------------------------
    def _touched_chain(self, m: int, delta: int) -> None:
        """A user registered (``delta`` +1) or deregistered (-1) at
        leaf ``m``: its whole ancestor chain changed."""
        self._epoch += 1

    def _touched_move(self, old_m: int, new_m: int) -> None:
        """A user moved between two different leaves: both branches
        below their common ancestor changed."""
        self._epoch += 1

    def _touched_moves(self, old_ms: IntArray, new_ms: IntArray) -> None:
        """A batch of distinct users moved (``old_ms[i] == new_ms[i]``
        where a move stayed in its cell)."""
        self._epoch += int(np.count_nonzero(old_ms != new_ms))

    def _touched_all(self) -> None:
        """A restore rewrote counts without generation bumps: every
        cached cloak is suspect."""
        self._epoch += 1
        self.cloak_cache.clear()

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def cell_count(self, cell: CellId) -> int:
        """The number of users currently inside ``cell``."""
        return self._soa.count_of(cell.level, morton_of_xy(cell.ix, cell.iy))

    # ------------------------------------------------------------------
    # Registration and location updates
    # ------------------------------------------------------------------
    def register(self, uid: object, point: Point, profile: PrivacyProfile) -> None:
        """Register a new user at ``point`` with the given profile."""
        slot, _cell = self.table.admit(uid, point, profile)
        self._chain(int(self.table.cells[slot]), +1)
        self.stats.registrations += 1

    def deregister(self, uid: object) -> None:
        """Remove a user entirely (quitting the service)."""
        slot = self.table.remove(uid)
        self._chain(int(self.table.cells[slot]), -1)
        self.stats.deregistrations += 1

    def _chain(self, m: int, delta: int) -> None:
        self._soa.apply_chain(m, delta)
        self._touched_chain(m, delta)
        self.stats.counter_updates += self.height + 1

    def update(self, uid: object, point: Point) -> int:
        """Process a location update; returns the number of counter
        updates it required (the Figure 10b cost unit)."""
        _slot, old_m, new_m, _cell = self.table.move(uid, point)
        self.stats.location_updates += 1
        if new_m == old_m:
            return 0
        cost = self._soa.move_chain(old_m, new_m)
        self._touched_move(old_m, new_m)
        self.stats.counter_updates += cost
        self.stats.cell_changes += 1
        return cost

    def update_batch(self, moves: list[tuple[object, Point]]) -> list[int]:
        """Apply a tick's worth of location updates in one kernel pass.

        Distinct users' updates commute — counter deltas, generation
        bumps and epoch advances are all additive and no cloak
        interleaves — so the end state and the returned per-move costs
        are identical to the sequential :meth:`update` loop (the
        reference pyramid's implementation).  A batch naming the same
        user twice is order-sensitive and falls back to arrival order.

        Error semantics also match the sequential loop: on the first
        unknown uid or out-of-bounds point, every earlier move has been
        applied and the same exception is raised.
        """
        if len(moves) < 2:
            return [self.update(uid, point) for uid, point in moves]
        if len({uid for uid, _ in moves}) != len(moves):
            return [self.update(uid, point) for uid, point in moves]
        old_ms, new_ms = self.table.apply_moves(moves)
        stop = len(old_ms)
        costs = self._soa.apply_moves(old_ms, new_ms)
        self._touched_moves(old_ms, new_ms)
        self.stats.add_moves(costs)
        if stop < len(moves):
            # Replay the failing move through the single-move path so the
            # exception (unknown uid before out-of-bounds, matching the
            # sequential loop) is raised with applied-prefix state.
            uid, point = moves[stop]
            self.update(uid, point)
            raise AssertionError("unreachable: single-move replay must raise")
        per_move: list[int] = costs.tolist()
        return per_move

    def _gen_of(self, cell: CellId) -> int:
        return self._soa.gen_of(cell.level, morton_of_xy(cell.ix, cell.iy))

    # ------------------------------------------------------------------
    # Cloaking
    # ------------------------------------------------------------------
    def cloak(self, uid: object) -> CloakedRegion:
        """Blur ``uid``'s current location per their privacy profile."""
        slot = self.table.require(uid)
        cell = cell_of_morton(self.height, int(self.table.cells[slot]))
        return self._cloak_cell(self.table.profile_at(slot), cell)

    def cloak_location(self, point: Point, profile: PrivacyProfile) -> CloakedRegion:
        """Blur an arbitrary location under ``profile`` without
        registering it — used for one-shot query cloaking."""
        return self._cloak_cell(profile, self.grid.cell_of(point))

    def _cloak_cell(self, profile: PrivacyProfile, cell: CellId) -> CloakedRegion:
        return self._cloak_via(
            self.cloak_cache, self.cell_count, self._gen_of, self._epoch,
            profile, cell,
        )

    # ------------------------------------------------------------------
    # Crash recovery (snapshot/restore of pyramid + user table)
    # ------------------------------------------------------------------
    def snapshot(self) -> object:
        """An opaque, immutable-by-convention copy of the anonymizer's
        state (counters + user table) for crash recovery.  Generation
        counters and statistics are deliberately excluded: they are
        monotone observability state, not population state.  The format
        is the canonical grid arrays + table rows of
        :class:`_BasicSnapshot`."""
        return _BasicSnapshot(self._soa.counts_grid(), self.table.snapshot())

    def restore(self, state: object) -> None:
        """Replace the population state with a :meth:`snapshot` copy.

        The snapshot itself is copied again, so the same snapshot can
        restore any number of later crashes.  Generations are left
        monotone and the cloak cache is dropped wholesale — counters
        changed without generation bumps, so every cached entry is
        suspect.
        """
        if not isinstance(state, _BasicSnapshot):
            raise TypeError("not a BasicAnonymizer snapshot")
        self._soa.load_counts_grid(state.counts)
        self.table.restore(state.population)
        self._touched_all()

    # ------------------------------------------------------------------
    # Diagnostics
    # ------------------------------------------------------------------
    def check_invariants(self) -> None:
        """Assert pyramid consistency; O(cells + users)."""
        # Each non-leaf counter equals the sum of its children, the
        # lowest level counts the table's cells (so the root counts the
        # registered population), and every table cell contains its
        # user's point.
        soa, table = self._soa, self.table
        soa.check_child_sums()
        assert soa.count_of(0, 0) == len(table)
        assert np.array_equal(
            soa.counts[self.height],
            np.bincount(table.cells[table.active], minlength=4**self.height),
        ), "lowest-level counters inconsistent with the user table"
        table.check()
