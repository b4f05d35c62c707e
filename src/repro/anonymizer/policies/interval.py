"""Interval cloaking policy — the Gruteser & Grunwald (MobiSys 2003)
spatial baseline ported onto the :class:`CloakingPolicy` protocol.

The original ``anonymizer/baselines/interval_cloak.py`` keeps the
published contract verbatim (one global ``k``, no profiles); this port
is the same KD-halving search made a first-class policy: per-user
``(k, A_min)`` profiles, the standard register/update/cloak surface,
and registry entry ``"interval"`` — so it runs through sharding,
process parallelism and the conformance matrix like the pyramid
cloakers.  It maintains no structure at all; every cloak pays a linear
scan per halving, which is exactly the scalability weakness the paper's
related-work section calls out.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.anonymizer.cloak import CloakedRegion
from repro.anonymizer.engine import PyramidEngine
from repro.anonymizer.policy import CloakingPolicy, PolicySpec, register_policy
from repro.anonymizer.profile import PrivacyProfile
from repro.errors import DuplicateUserError, ProfileUnsatisfiableError, UnknownUserError
from repro.geometry import Point, Rect

__all__ = ["IntervalPolicy"]


@dataclass
class _Rec:
    profile: PrivacyProfile
    point: Point


@dataclass(frozen=True)
class _IntervalSnapshot:
    users: dict[object, _Rec]


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
        # The pyramid height bounds nothing here (no index is kept) and
        # nothing is cached; the engine still provides the grid for
        # bounds introspection.
        self._init_engine(bounds, height)
        self.min_side = min_side
        self._users: dict[object, _Rec] = {}

    # ------------------------------------------------------------------
    # Population
    # ------------------------------------------------------------------
    @property
    def num_users(self) -> int:
        return len(self._users)

    def __contains__(self, uid: object) -> bool:
        return uid in self._users

    def _record(self, uid: object) -> _Rec:
        try:
            return self._users[uid]
        except KeyError:
            raise UnknownUserError(uid) from None

    def profile_of(self, uid: object) -> PrivacyProfile:
        return self._record(uid).profile

    def location_of(self, uid: object) -> Point:
        return self._record(uid).point

    def users_in_rect(self, rect: Rect) -> int:
        return sum(
            1 for rec in self._users.values() if rect.contains_point(rec.point)
        )

    def register(self, uid: object, point: Point, profile: PrivacyProfile) -> None:
        if uid in self._users:
            raise DuplicateUserError(uid)
        self._users[uid] = _Rec(profile, point)
        self.stats.registrations += 1

    def deregister(self, uid: object) -> None:
        self._record(uid)
        del self._users[uid]
        self.stats.deregistrations += 1

    def set_profile(self, uid: object, profile: PrivacyProfile) -> None:
        self._record(uid).profile = profile

    def update(self, uid: object, point: Point) -> int:
        """Location update; returns 0 — this policy maintains nothing,
        all its cost sits in :meth:`cloak`."""
        self._record(uid).point = point
        self.stats.location_updates += 1
        return 0

    def update_batch(self, moves: list[tuple[object, Point]]) -> list[int]:
        return [self.update(uid, point) for uid, point in moves]

    # ------------------------------------------------------------------
    # Cloaking
    # ------------------------------------------------------------------
    def cloak(self, uid: object) -> CloakedRegion:
        record = self._record(uid)
        return self._instrumented_cloak(
            lambda: self._kd_cloak(record.point, record.profile), record.profile
        )

    def cloak_location(self, point: Point, profile: PrivacyProfile) -> CloakedRegion:
        return self._instrumented_cloak(
            lambda: self._kd_cloak(point, profile), profile
        )

    def _kd_cloak(self, location: Point, profile: PrivacyProfile) -> CloakedRegion:
        """Recursively halve the space (alternating x/y cuts) around
        ``location``; stop at the last subspace still satisfying the
        profile's ``(k, A_min)``."""
        region = self.bounds
        members = [rec.point for rec in self._users.values()]
        if len(members) < profile.k:
            raise ProfileUnsatisfiableError(
                f"population {len(members)} below k={profile.k}"
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
            inside = [p for p in members if half.contains_point(p, tol=0.0)]
            if (
                len(inside) < profile.k
                or half.area < profile.a_min - 1e-15
                or min(half.width, half.height) < self.min_side
            ):
                return CloakedRegion(region, len(members), ())
            region = half
            members = inside
            vertical_cut = not vertical_cut

    # ------------------------------------------------------------------
    # Recovery and diagnostics
    # ------------------------------------------------------------------
    def snapshot(self) -> object:
        return _IntervalSnapshot(
            users={uid: _Rec(r.profile, r.point) for uid, r in self._users.items()}
        )

    def restore(self, state: object) -> None:
        if not isinstance(state, _IntervalSnapshot):
            raise TypeError("not an IntervalPolicy snapshot")
        self._users = {
            uid: _Rec(r.profile, r.point) for uid, r in state.users.items()
        }

    def check_invariants(self) -> None:
        for uid, rec in self._users.items():
            assert self.bounds.contains_point(rec.point), f"{uid!r} out of bounds"


def _single(bounds: Rect, height: int, cloak_cache_size: int) -> CloakingPolicy:
    return IntervalPolicy(bounds, height, cloak_cache_size)


register_policy(
    PolicySpec(
        name="interval",
        single=_single,
        description="KD-halving spatial cloaking (Gruteser & Grunwald 2003)",
    )
)
