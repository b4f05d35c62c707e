"""The shared pyramid-engine chassis of every cloaking policy.

Historically each anonymizer variant (basic/adaptive × single/sharded)
carried its own copy of the cross-cutting mechanics: grid construction,
maintenance-statistics accounting, and the telemetry-instrumented
memoized cloak call.  :class:`PyramidEngine` is now the one home for
that state; a concrete anonymizer composes it with a maintenance mixin
(:mod:`repro.anonymizer.policies`) that supplies only what actually
differs between cloaking algorithms — cell maintenance on update and
the split/merge decisions.

The engine deliberately owns *no* pyramid storage: the scalar arrays,
the structure-of-arrays backend and the sharded Morton slices all stay
with their hosts, reached through the small hook surface the
maintenance mixins define.  That keeps the refactor bit-exact — the
equivalence suites compare those storages byte for byte.
"""

from __future__ import annotations

from typing import Callable

from repro.anonymizer.cache import CloakCache, Epoch
from repro.anonymizer.cells import CellGrid, CellId
from repro.anonymizer.cloak import BatchCloaking, CloakedRegion
from repro.anonymizer.profile import PrivacyProfile
from repro.anonymizer.stats import MaintenanceStats
from repro.geometry import Rect
from repro.observability import runtime as _telemetry
from repro.utils.timer import monotonic

__all__ = ["PyramidEngine"]


class PyramidEngine(BatchCloaking):
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

    def _init_engine(self, bounds: Rect, height: int) -> None:
        self.grid = CellGrid(bounds, height)
        self.stats = MaintenanceStats()

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
    # Cloaking
    # ------------------------------------------------------------------
    def _cloak_via(
        self,
        cache: CloakCache,
        count: Callable[[CellId], int],
        gen: Callable[[CellId], int],
        epoch: Epoch,
        profile: PrivacyProfile,
        start: CellId,
        shard: int | None = None,
    ) -> CloakedRegion:
        """Run Algorithm 1 through ``cache`` with telemetry attached.

        This is the one definition of the cloak fast path: request
        accounting, the memoized :meth:`CloakCache.cloak` call, and —
        only while an observability run is active — the timed latency
        sample plus (for sharded hosts, which pass ``shard``) the
        per-shard routing record.
        """
        self.stats.cloak_requests += 1
        obs = _telemetry.active()
        if obs is None:
            return cache.cloak(self.grid, count, gen, epoch, profile, start)
        t0 = monotonic()
        region = cache.cloak(self.grid, count, gen, epoch, profile, start)
        _telemetry.record_cloak(
            obs, self.label, monotonic() - t0, region.area,
            profile.a_min, region.achieved_k, profile.k,
        )
        if shard is not None:
            _telemetry.record_shard_cloak(obs, shard, self._route_of(region))
        return region

    def _route_of(self, region: CloakedRegion) -> str:
        """Routing class of a cloak answer; sharded hosts override."""
        raise NotImplementedError

    def _instrumented_cloak(
        self, compute: Callable[[], CloakedRegion], profile: PrivacyProfile
    ) -> CloakedRegion:
        """Run an arbitrary cloak computation with the same accounting
        and telemetry as :meth:`_cloak_via` — the seam for policies that
        do not go through the pyramid's memoizing cache (the ported
        related-work baselines)."""
        self.stats.cloak_requests += 1
        obs = _telemetry.active()
        if obs is None:
            return compute()
        t0 = monotonic()
        region = compute()
        _telemetry.record_cloak(
            obs, self.label, monotonic() - t0, region.area,
            profile.a_min, region.achieved_k, profile.k,
        )
        return region
