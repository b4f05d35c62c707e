"""Interval cloaking policy — the Gruteser & Grunwald (MobiSys 2003)
spatial baseline on the :class:`CloakingPolicy` protocol.

The paper's related work: "For each user location update, the spatial
space is recursively divided in a KD-tree-like format till a suitable
subspace is found.  Such technique lacks scalability as it deals with
each single movement of each user individually."  This is that
KD-halving search as a first-class policy: per-user ``(k, A_min)``
profiles (the published contract — one global ``k`` for everyone — is
the special case of registering every user under the same profile), the
standard register/update/cloak surface, and registry entry
``"interval"`` — so it runs through sharding, process parallelism and
the conformance matrix like the pyramid cloakers.  It maintains nothing
beyond the engine's user table; every cloak pays a linear scan per
halving, which is exactly the scalability weakness the paper calls out
and the ablation benchmark surfaces.
"""

from __future__ import annotations

import numpy as np

from repro.anonymizer.cloak import CloakedRegion
from repro.anonymizer.engine import PyramidEngine
from repro.anonymizer.policy import CloakingPolicy, PolicySpec, register_policy
from repro.anonymizer.profile import PrivacyProfile
from repro.anonymizer.soa import points_in_rect
from repro.errors import ProfileUnsatisfiableError
from repro.geometry import Point, Rect

__all__ = ["IntervalPolicy"]


class IntervalPolicy(PyramidEngine):
    """KD-halving cloaker with per-user profiles (no maintained index)."""

    label = "interval"

    def __init__(
        self,
        bounds: Rect,
        height: int = 9,
        cloak_cache_size: int = 8192,
        min_side: float = 1e-6,
    ) -> None:
        # The pyramid height only sets the resolution of the table's
        # cell column (a sharded deployment's homes); nothing is cached.
        self._init_engine(bounds, height)
        self.min_side = min_side

    # ------------------------------------------------------------------
    # Cloaking
    # ------------------------------------------------------------------
    def cloak_location(self, point: Point, profile: PrivacyProfile) -> CloakedRegion:
        return self._instrumented_cloak(
            lambda: self._kd_cloak(point, profile), profile.k, profile.a_min
        )

    def _kd_cloak(self, location: Point, profile: PrivacyProfile) -> CloakedRegion:
        """Recursively halve the space (alternating x/y cuts) around
        ``location``; stop at the last subspace still satisfying the
        profile's ``(k, A_min)``."""
        region = self.bounds
        table = self.table
        xs, ys = table.xs[table.active], table.ys[table.active]
        if len(xs) < profile.k:
            raise ProfileUnsatisfiableError(
                f"population {len(xs)} below k={profile.k}"
            )
        if region.area < profile.a_min - 1e-15:
            raise ProfileUnsatisfiableError(
                f"A_min {profile.a_min} exceeds the service area"
            )
        vertical_cut = True
        while True:
            if vertical_cut:
                mid = (region.x_min + region.x_max) / 2.0
                if location.x < mid:
                    half = Rect(region.x_min, region.y_min, mid, region.y_max)
                else:
                    half = Rect(mid, region.y_min, region.x_max, region.y_max)
            else:
                mid = (region.y_min + region.y_max) / 2.0
                if location.y < mid:
                    half = Rect(region.x_min, region.y_min, region.x_max, mid)
                else:
                    half = Rect(region.x_min, mid, region.x_max, region.y_max)
            inside = points_in_rect(half, xs, ys, tol=0.0)
            if (
                int(np.count_nonzero(inside)) < profile.k
                or half.area < profile.a_min - 1e-15
                or min(half.width, half.height) < self.min_side
            ):
                return CloakedRegion(region, len(xs), ())
            region = half
            xs, ys = xs[inside], ys[inside]
            vertical_cut = not vertical_cut


def _single(bounds: Rect, height: int, cloak_cache_size: int) -> CloakingPolicy:
    return IntervalPolicy(bounds, height, cloak_cache_size)


register_policy(
    PolicySpec(
        name="interval",
        single=_single,
        description="KD-halving spatial cloaking (Gruteser & Grunwald 2003)",
    )
)
