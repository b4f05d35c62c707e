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
adaptive cut stay with their hosts.
"""

from __future__ import annotations

from typing import Callable

from repro.anonymizer.cache import CloakCache
from repro.anonymizer.cells import CellGrid, CellId
from repro.anonymizer.cloak import BatchCloaking, CloakedRegion
from repro.anonymizer.profile import PrivacyProfile
from repro.anonymizer.soa import Population, TableSnapshot, UserTable
from repro.anonymizer.stats import MaintenanceStats
from repro.geometry import Point, Rect
from repro.observability import runtime as _telemetry
from repro.utils.timer import monotonic

__all__ = ["PyramidEngine"]


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

    def _cloak_via(
        self,
        cache: CloakCache,
        count: Callable[[CellId], int],
        gen: Callable[[CellId], int],
        epoch: int,
        profile: PrivacyProfile,
        start: CellId,
    ) -> CloakedRegion:
        """Run Algorithm 1 from ``start`` through ``cache`` (the
        memoized :meth:`CloakCache.cloak`), instrumented."""
        return self._instrumented_cloak(
            lambda: cache.cloak(self.grid, count, gen, epoch, profile, start),
            profile.k,
            profile.a_min,
        )

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
