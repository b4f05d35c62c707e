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
the test oracle ``tests/reference_pyramid.py``; the spec machine
(``tests/test_spec_machine.py``) runs the two as lanes, bit-identical
on every operation and snapshot.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Iterable

import numpy as np

from repro.anonymizer.cache import CloakCache
from repro.anonymizer.cells import CellId
from repro.anonymizer.cloak import Climbed, CloakedRegion, bottom_up_cloaks
from repro.anonymizer.engine import CloakKey, PyramidEngine
from repro.anonymizer.profile import PrivacyProfile
from repro.anonymizer.soa import IntArray, PyramidSoA, TableSnapshot
from repro.errors import ProfileUnsatisfiableError
from repro.geometry import Point, Rect
from repro.morton import morton_of_xy
from repro.observability import runtime as _telemetry
from repro.utils.timer import monotonic

__all__ = ["BasicAnonymizer"]

#: The kernel takes a cache's distinct misses from this many up; fewer
#: are walked one by one.  The measured crossover: ``tools/bench.py``
#: ``cloak.kernel_crossover_rows``.  A batch of fewer rows cannot reach
#: it and skips the grouping too (~8 µs of array set-up, five one-row
#: hits' worth — the ad-hoc cloak of a frame endpoint is such a batch).
_KERNEL_ROWS = 24


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
        self._init_engine(bounds, height)
        # Flat Morton-indexed per-level count/generation arrays (the
        # constructor enforces the height cap); see
        # :mod:`repro.anonymizer.soa` for the layout.
        self._soa = PyramidSoA(height)
        self._counts, self._gens = self._soa.counts, self._soa.gens
        self._epoch = 0
        self.cloak_cache = CloakCache(cloak_cache_size)

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def cell_count(self, cell: CellId) -> int:
        """The number of users currently inside ``cell``."""
        return self._count_at(cell.level, morton_of_xy(cell.ix, cell.iy))

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
        self._epoch += 1
        self.stats.counter_updates += self.height + 1

    def update(self, uid: object, point: Point) -> int:
        """Process a location update; returns the number of counter
        updates it required (the Figure 10b cost unit)."""
        _slot, old_m, new_m, _cell = self.table.move(uid, point)
        self.stats.location_updates += 1
        if new_m == old_m:
            return 0
        cost = self._soa.move_chain(old_m, new_m)
        self._epoch += 1
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
        self._epoch += int(np.count_nonzero(old_ms != new_ms))
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

    # ------------------------------------------------------------------
    # Cloaking: a function of one table row — ``(leaf Morton, k,
    # A_min)``, as plain numbers the cache key, so a hit builds nothing
    # — and of the counts above that leaf.
    # ------------------------------------------------------------------
    def cloak(self, uid: object) -> CloakedRegion:
        """Blur ``uid``'s current location per their privacy profile."""
        table = self.table
        slot = table.require(uid)
        return self._cloak_key(
            table.cells.item(slot), table.ks.item(slot), table.a_mins.item(slot)
        )

    def cloak_location(self, point: Point, profile: PrivacyProfile) -> CloakedRegion:
        """Blur an arbitrary location under ``profile`` without
        registering it — used for one-shot query cloaking."""
        cell = self.grid.cell_of(point)
        return self._cloak_key(morton_of_xy(cell.ix, cell.iy), profile.k, profile.a_min)

    def cloak_many(
        self, uids: Iterable[object], unsatisfiable: CloakedRegion | None = None
    ) -> list[CloakedRegion]:
        """Cloak a batch of users: the contract — and, below
        :data:`_KERNEL_ROWS` rows, the loop — of :meth:`BatchCloaking
        .cloak_many <repro.anonymizer.cloak.BatchCloaking.cloak_many>`.

        A larger batch first climbs the keys the cache cannot vouch
        for together, by :func:`~repro.anonymizer.cloak.bottom_up_cloaks`;
        then every row takes the step a lone :meth:`cloak` takes, in
        arrival order, and finds its miss computed — so regions,
        ``stats``, cache counters, LRU order and telemetry events are
        the loop's.
        """
        uids = list(uids)
        if len(uids) < _KERNEL_ROWS:
            return super().cloak_many(uids, unsatisfiable)
        table = self.table
        slots = table.slots_array(uids)
        keys = list(zip(
            table.cells[slots].tolist(), table.ks[slots].tolist(),
            table.a_mins[slots].tolist(),
        ))
        cache, epoch = self.cloak_cache, self._epoch
        started = monotonic()
        missing = [
            key
            for key in dict.fromkeys(keys)
            if not (cache.capacity and cache.holds(key, epoch, self._fresh))
        ]
        climbed: dict[CloakKey, Climbed | None] = {}
        if len(missing) >= _KERNEL_ROWS:
            columns = map(np.array, zip(*missing))
            results = bottom_up_cloaks(self.grid, self._counts, self._gens, *columns)
            climbed = dict(zip(missing, results))
        regions: list[Any] = []
        failure: ProfileUnsatisfiableError | None = None
        for key in keys:
            try:
                regions.append(self._memoized(key, climbed))
            except ProfileUnsatisfiableError as exc:
                failure = failure or exc
                regions.append(unsatisfiable)
        self.stats.cloak_requests += len(keys)
        if _telemetry.active() is not None:
            share = (monotonic() - started) / len(keys)
            for (_m, k, a_min), region in zip(keys, regions):
                if region is not unsatisfiable:
                    self._note_cloak(share, region, k, a_min)
        if failure is not None and unsatisfiable is None:
            raise failure
        return regions

    def _start(self, leaf: int) -> tuple[int, int]:
        return self.height, leaf

    def _count_at(self, level: int, m: int) -> int:
        count: int = self._counts[level].item(m)
        return count

    def _gen_at(self, level: int, m: int) -> int:
        gen: int = self._gens[level].item(m)
        return gen

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
        self._epoch += 1
        self.cloak_cache.clear()

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
        assert self._count_at(0, 0) == len(table)
        assert np.array_equal(
            soa.counts[self.height],
            np.bincount(table.cells[table.active], minlength=4**self.height),
        ), "lowest-level counters inconsistent with the user table"
        table.check()
