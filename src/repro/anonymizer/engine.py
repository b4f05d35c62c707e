"""The shared pyramid-engine chassis of every cloaking policy.

:class:`PyramidEngine` is the one home of what every cloaking policy
has in common: the grid, the maintenance statistics, the
telemetry-instrumented cloak call and **the population** — the paper's
one per-user structure, the hash table ``(uid, profile, cid)`` of
Sections 4.1-4.2, held as one :class:`~repro.anonymizer.soa.UserTable`
row per user.  The population surface (``num_users``, ``in``,
``profile_of``, ``location_of``, ``users_in_rect``) and the maintenance
of a policy that keeps *nothing but* the rows (``register`` ...
``check_invariants`` below) are stated here once; a policy overrides
the operations under which it maintains something more — counters, a
cut, a visitor history — and adds ``cloak`` / ``cloak_location``.

The engine owns no cell storage: the complete pyramid's arrays and the
adaptive cut stay with their hosts.  It holds the one memoized
Algorithm 1 of both pyramids (``_memoized`` / ``_fresh``), written over
a host's ``_count_at(level, m)`` / ``_gen_at(level, m)`` reads.
"""

from __future__ import annotations

from typing import Callable, Mapping

from repro.anonymizer.cache import CloakCache
from repro.anonymizer.cells import CellGrid
from repro.anonymizer.cloak import (
    BatchCloaking,
    Climbed,
    CloakedRegion,
    bottom_up_cloak,
)
from repro.anonymizer.profile import PrivacyProfile
from repro.anonymizer.soa import Population, TableSnapshot, UserTable
from repro.anonymizer.stats import MaintenanceStats
from repro.geometry import Point, Rect
from repro.observability import runtime as _telemetry
from repro.utils.timer import monotonic

__all__ = ["PyramidEngine"]

#: A cloak-cache key: ``(leaf, k, A_min)``.
CloakKey = tuple[int, int, float]


class PyramidEngine(Population, BatchCloaking):
    """Shared state and instrumented cloaking for pyramid anonymizers.

    Subclasses call :meth:`_init_engine` from their constructor and set
    :attr:`label` to the policy name recorded with every cloak.
    """

    #: Telemetry label attached to cloak latency samples — the policy
    #: name ("basic", "adaptive", ...), shared by single and sharded
    #: deployments of the same policy.
    label = "pyramid"

    grid: CellGrid
    stats: MaintenanceStats
    #: The population.  Read it freely (sharded wrappers derive a
    #: user's home shard from its ``cells`` column); only the policy
    #: that owns it writes, and only through the table's own methods.
    table: UserTable

    def _init_engine(self, bounds: Rect, height: int) -> None:
        self.grid = CellGrid(bounds, height)
        self.stats = MaintenanceStats()
        self.table = UserTable(self.grid)

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def bounds(self) -> Rect:
        return self.grid.bounds

    @property
    def height(self) -> int:
        return self.grid.height

    # ------------------------------------------------------------------
    # Population maintenance: the rows, and nothing else
    # ------------------------------------------------------------------
    def register(self, uid: object, point: Point, profile: PrivacyProfile) -> None:
        """Register a new user at ``point`` with the given profile."""
        self.table.admit(uid, point, profile)
        self.stats.registrations += 1

    def deregister(self, uid: object) -> None:
        """Remove a user entirely (quitting the service)."""
        self.table.remove(uid)
        self.stats.deregistrations += 1

    def set_profile(self, uid: object, profile: PrivacyProfile) -> None:
        """Change a user's privacy profile (the flexibility requirement)."""
        self.table.set_profile(uid, profile)

    def update(self, uid: object, point: Point) -> int:
        """Process a location update; returns the number of counter
        updates it required (the Figure 10b cost unit) — none here."""
        self.table.move(uid, point)
        self.stats.location_updates += 1
        return 0

    def update_batch(self, moves: list[tuple[object, Point]]) -> list[int]:
        """Apply a tick of location updates in arrival order; returns
        the per-move costs."""
        return [self.update(uid, point) for uid, point in moves]

    def snapshot(self) -> object:
        """An opaque by-value copy of the population state for crash
        recovery.  Statistics (and, where kept, generation counters)
        are excluded: monotone observability state."""
        return self.table.snapshot()

    def restore(self, state: object) -> None:
        """Replace the population state with a :meth:`snapshot` copy
        (copied again, so one snapshot serves repeated crashes)."""
        if not isinstance(state, TableSnapshot):
            raise TypeError(f"not a {type(self).__name__} snapshot")
        self.table.restore(state)

    def check_invariants(self) -> None:
        """Assert internal consistency; O(users) at least."""
        self.table.check()

    # ------------------------------------------------------------------
    # Cloaking
    # ------------------------------------------------------------------
    def cloak(self, uid: object) -> CloakedRegion:
        """Blur ``uid``'s current location per their privacy profile:
        :meth:`cloak_location` (the policy's) of their row, unless the
        policy starts from something it maintains per user."""
        return self.cloak_location(self.location_of(uid), self.profile_of(uid))

    def cloak_location(self, point: Point, profile: PrivacyProfile) -> CloakedRegion:
        """Blur an arbitrary location under ``profile`` without
        registering it (one-shot query cloaking); every policy's own."""
        raise NotImplementedError

    # ------------------------------------------------------------------
    # The one memo path of both pyramids.  A cache key is ``(leaf, k,
    # A_min)`` in plain numbers; a pyramid names the cell ``leaf`` stands
    # for (:meth:`_start`) and reads its counts and generations by level
    # and Morton code (:meth:`_count_at`, :meth:`_gen_at`).
    # ------------------------------------------------------------------
    cloak_cache: CloakCache
    #: Bumped by every count-changing mutation: a cache entry stored or
    #: served at the current epoch is current unread.
    _epoch: int

    def _start(self, leaf: int) -> tuple[int, int]:
        """The ``(level, Morton code)`` of the cell a key's leaf names."""
        raise NotImplementedError

    def _count_at(self, level: int, m: int) -> int:
        raise NotImplementedError

    def _gen_at(self, level: int, m: int) -> int:
        raise NotImplementedError

    def _cloak_key(self, leaf: int, k: int, a_min: float) -> CloakedRegion:
        """Algorithm 1 from ``leaf`` under ``(k, a_min)``, memoized and
        instrumented."""
        return self._instrumented_cloak(
            lambda: self._memoized((leaf, k, a_min)), k, a_min
        )

    def _memoized(
        self, key: CloakKey, climbed: Mapping[CloakKey, Climbed | None] | None = None
    ) -> CloakedRegion:
        """One key's cloak through the cache: served, or computed (by
        the batch kernel already, in ``climbed``, else walked here) and
        stored.  Unsatisfiable profiles raise and are never cached."""
        cache, epoch = self.cloak_cache, self._epoch
        computed = climbed.get(key) if climbed else None
        if not cache.capacity:
            return computed[0] if computed else self._walk(key)
        region = cache.lookup(key, epoch, self._fresh)
        if region is None:
            region, reads = computed or self._recorded(key)
            cache.store(key, region, reads, epoch)
        return region

    def _walk(self, key: CloakKey) -> CloakedRegion:
        leaf, k, a_min = key
        return bottom_up_cloak(self.grid, self._count_at, *self._start(leaf), k, a_min)

    def _recorded(self, key: CloakKey) -> Climbed:
        """:meth:`_walk`, with the generations of the counts it read in
        read order: per level the cell's, its row mate's and its column
        mate's, and at the region's level the cell's alone unless the
        region is a pair."""
        region = self._walk(key)
        level, m = self._start(key[0])
        gen = self._gen_at
        reads: list[int] = []
        while level > region.level:
            reads += gen(level, m), gen(level, m ^ 1), gen(level, m ^ 2)
            level, m = level - 1, m >> 2
        reads.append(gen(level, m))
        if len(region.cells) > 1:
            reads += gen(level, m ^ 1), gen(level, m ^ 2)
        return region, tuple(reads)

    def _fresh(self, key: CloakKey, reads: tuple[int, ...]) -> bool:
        """Whether every count an entry read still has the generation
        recorded with it, in :meth:`_recorded`'s order."""
        level, m = self._start(key[0])
        gen, n = self._gen_at, len(reads)
        for first in range(0, n, 3):
            if gen(level, m) != reads[first] or first + 1 < n and (
                gen(level, m ^ 1) != reads[first + 1]
                or gen(level, m ^ 2) != reads[first + 2]
            ):
                return False
            level, m = level - 1, m >> 2
        return True

    def _instrumented_cloak(
        self, compute: Callable[[], CloakedRegion], k: int, a_min: float
    ) -> CloakedRegion:
        """The one definition of a cloak's accounting: the request
        count and, only while an observability run is active, its timed
        :meth:`_note_cloak`.  ``compute`` is the cloak itself, through
        a memoizing cache or not (the ported baselines)."""
        self.stats.cloak_requests += 1
        if _telemetry.active() is None:
            return compute()
        t0 = monotonic()
        region = compute()
        self._note_cloak(monotonic() - t0, region, k, a_min)
        return region

    def _note_cloak(
        self, seconds: float, region: CloakedRegion, k: int, a_min: float
    ) -> None:
        """The telemetry of one served cloak: the latency sample
        against the asked ``(k, a_min)``."""
        _telemetry.record_cloak(
            self.label, seconds, region.area, a_min, region.achieved_k, k
        )
