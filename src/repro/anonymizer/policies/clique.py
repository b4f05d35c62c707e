"""Nearest-neighbour MBR cloaking policy — a CliqueCloak-style
(Gedik & Liu, ICDCS 2005) competitor on the :class:`CloakingPolicy`
protocol.

The faithful message-perturbation engine lives in
``anonymizer/baselines/clique_cloak.py`` (pending requests, constraint
graph, clique search).  That model is request-batched and cannot answer
a standalone ``cloak(uid)`` — so this policy ports its *cloaking
geometry* instead: the user plus their ``k - 1`` nearest neighbours
share the group's minimum bounding rectangle, grown to ``A_min`` and
clamped to the service area.  It keeps CliqueCloak's characteristic
weakness (group members can sit exactly on the rectangle's boundary)
while gaining the protocol surface that the sharding, parallelism and
conformance harnesses require.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from repro.anonymizer.cloak import CloakedRegion
from repro.anonymizer.engine import PyramidEngine
from repro.anonymizer.policy import CloakingPolicy, PolicySpec, register_policy
from repro.anonymizer.profile import PrivacyProfile
from repro.errors import DuplicateUserError, ProfileUnsatisfiableError, UnknownUserError
from repro.geometry import Point, Rect

__all__ = ["CliquePolicy"]


@dataclass
class _Rec:
    profile: PrivacyProfile
    point: Point


@dataclass(frozen=True)
class _CliqueSnapshot:
    users: dict[object, _Rec]


def _expand_to_area(rect: Rect, a_min: float, bounds: Rect) -> Rect:
    """Grow ``rect`` (kept inside ``bounds``) until its area reaches
    ``a_min``; the original rectangle stays covered."""
    if rect.area >= a_min - 1e-15:
        return rect
    # Slight over-shoot so sqrt rounding can never land us below A_min.
    side = math.sqrt(a_min) * (1.0 + 1e-9)
    w = max(rect.width, min(side, bounds.width))
    h = max(rect.height, min(side, bounds.height))
    if w * h < a_min:
        # One dimension hit the service-area limit; stretch the other.
        if w < bounds.width:
            w = min(a_min * (1.0 + 1e-9) / h, bounds.width)
        if w * h < a_min:
            h = min(a_min * (1.0 + 1e-9) / w, bounds.height)
    cx = (rect.x_min + rect.x_max) / 2.0
    cy = (rect.y_min + rect.y_max) / 2.0
    x0 = min(max(cx - w / 2.0, bounds.x_min), bounds.x_max - w)
    y0 = min(max(cy - h / 2.0, bounds.y_min), bounds.y_max - h)
    return Rect(x0, y0, x0 + w, y0 + h)


class CliquePolicy(PyramidEngine):
    """k-nearest-group MBR cloaker."""

    label = "clique"

    def __init__(
        self,
        bounds: Rect,
        height: int = 9,
        cloak_cache_size: int = 8192,
    ) -> None:
        self._init_engine(bounds, height)
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
            lambda: self._group_cloak(record.point, record.profile), record.profile
        )

    def cloak_location(self, point: Point, profile: PrivacyProfile) -> CloakedRegion:
        return self._instrumented_cloak(
            lambda: self._group_cloak(point, profile), profile
        )

    def _group_cloak(self, location: Point, profile: PrivacyProfile) -> CloakedRegion:
        """MBR of ``location`` plus its ``k - 1`` nearest users, grown
        to ``A_min`` and clamped to the service area."""
        points = [rec.point for rec in self._users.values()]
        if len(points) < profile.k:
            raise ProfileUnsatisfiableError(
                f"population {len(points)} below k={profile.k}"
            )
        if self.bounds.area < profile.a_min - 1e-15:
            raise ProfileUnsatisfiableError(
                f"A_min {profile.a_min} exceeds the service area"
            )
        points.sort(key=location.squared_distance_to)
        group = points[: profile.k]
        xs = [p.x for p in group] + [location.x]
        ys = [p.y for p in group] + [location.y]
        rect = _expand_to_area(
            Rect(min(xs), min(ys), max(xs), max(ys)), profile.a_min, self.bounds
        )
        achieved = sum(
            1 for rec in self._users.values() if rect.contains_point(rec.point)
        )
        return CloakedRegion(rect, achieved, ())

    # ------------------------------------------------------------------
    # Recovery and diagnostics
    # ------------------------------------------------------------------
    def snapshot(self) -> object:
        return _CliqueSnapshot(
            users={uid: _Rec(r.profile, r.point) for uid, r in self._users.items()}
        )

    def restore(self, state: object) -> None:
        if not isinstance(state, _CliqueSnapshot):
            raise TypeError("not a CliquePolicy snapshot")
        self._users = {
            uid: _Rec(r.profile, r.point) for uid, r in state.users.items()
        }

    def check_invariants(self) -> None:
        for uid, rec in self._users.items():
            assert self.bounds.contains_point(rec.point), f"{uid!r} out of bounds"


def _single(bounds: Rect, height: int, cloak_cache_size: int) -> CloakingPolicy:
    return CliquePolicy(bounds, height, cloak_cache_size)


register_policy(
    PolicySpec(
        name="clique",
        single=_single,
        description="k-nearest-group MBR cloaking (CliqueCloak-style)",
    )
)
