"""Visitor-history cloaking policy — the *temporal* flavour of
Gruteser & Grunwald (MobiSys 2003) on the :class:`CloakingPolicy`
protocol.

The faithful delay-based model lives in
``anonymizer/baselines/temporal_cloak.py`` (time-ordered observation
stream, report delayed until ``k`` distinct visitors).  A standalone
``cloak(uid)`` has no clock to delay against, so this port keeps the
defining idea — anonymity among the cell's *historical visitors*, not
its instantaneous population — in spatial form: every register/update
records the user as a visitor of each pyramid cell on their
root-to-leaf path, and a cloak climbs from the user's lowest-level cell
until the cell's distinct-visitor count reaches ``k`` and its area
reaches ``A_min``.  ``achieved_k`` therefore counts historical
visitors; users who have deregistered still widen the anonymity set,
exactly the freshness-for-anonymity trade the paper declines.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.anonymizer.cells import CellId
from repro.anonymizer.cloak import CloakedRegion
from repro.anonymizer.engine import PyramidEngine
from repro.anonymizer.policy import CloakingPolicy, PolicySpec, register_policy
from repro.anonymizer.profile import PrivacyProfile
from repro.errors import DuplicateUserError, ProfileUnsatisfiableError, UnknownUserError
from repro.geometry import Point, Rect

__all__ = ["TemporalPolicy"]


@dataclass
class _Rec:
    profile: PrivacyProfile
    point: Point


@dataclass(frozen=True)
class _TemporalSnapshot:
    users: dict[object, _Rec]
    visitors: dict[CellId, set[object]]


class TemporalPolicy(PyramidEngine):
    """Pyramid-cell cloaker over distinct historical visitors."""

    label = "temporal"

    def __init__(
        self,
        bounds: Rect,
        height: int = 9,
        cloak_cache_size: int = 8192,
    ) -> None:
        self._init_engine(bounds, height)
        self._users: dict[object, _Rec] = {}
        # cell -> uids ever observed inside it; grows monotonically (a
        # deregistered visitor still anonymizes later reports).
        self._visitors: dict[CellId, set[object]] = {}

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

    def _observe(self, uid: object, point: Point) -> None:
        for cell in self.grid.path_to_root(self.grid.cell_of(point)):
            seen = self._visitors.get(cell)
            if seen is None:
                seen = set()
                self._visitors[cell] = seen
            seen.add(uid)

    def register(self, uid: object, point: Point, profile: PrivacyProfile) -> None:
        if uid in self._users:
            raise DuplicateUserError(uid)
        self._users[uid] = _Rec(profile, point)
        self._observe(uid, point)
        self.stats.registrations += 1
        self.stats.counter_updates += self.height + 1

    def deregister(self, uid: object) -> None:
        self._record(uid)
        del self._users[uid]
        self.stats.deregistrations += 1

    def set_profile(self, uid: object, profile: PrivacyProfile) -> None:
        self._record(uid).profile = profile

    def update(self, uid: object, point: Point) -> int:
        record = self._record(uid)
        record.point = point
        self._observe(uid, point)
        self.stats.location_updates += 1
        cost = self.height + 1
        self.stats.counter_updates += cost
        return cost

    def update_batch(self, moves: list[tuple[object, Point]]) -> list[int]:
        return [self.update(uid, point) for uid, point in moves]

    # ------------------------------------------------------------------
    # Cloaking
    # ------------------------------------------------------------------
    def cloak(self, uid: object) -> CloakedRegion:
        record = self._record(uid)
        return self._instrumented_cloak(
            lambda: self._history_cloak(record.point, record.profile),
            record.profile,
        )

    def cloak_location(self, point: Point, profile: PrivacyProfile) -> CloakedRegion:
        return self._instrumented_cloak(
            lambda: self._history_cloak(point, profile), profile
        )

    def _history_cloak(
        self, location: Point, profile: PrivacyProfile
    ) -> CloakedRegion:
        """Climb from the lowest-level cell until the distinct-visitor
        count reaches ``k`` and the area reaches ``A_min``."""
        for cell in self.grid.path_to_root(self.grid.cell_of(location)):
            visitors = len(self._visitors.get(cell, ()))
            area = self.grid.cell_area(cell.level)
            if visitors >= profile.k and area >= profile.a_min - 1e-15:
                return CloakedRegion(self.grid.cell_rect(cell), visitors, (cell,))
        raise ProfileUnsatisfiableError(
            f"whole-area visitor history cannot satisfy k={profile.k}, "
            f"A_min={profile.a_min}"
        )

    # ------------------------------------------------------------------
    # Recovery and diagnostics
    # ------------------------------------------------------------------
    def snapshot(self) -> object:
        return _TemporalSnapshot(
            users={uid: _Rec(r.profile, r.point) for uid, r in self._users.items()},
            visitors={cell: set(seen) for cell, seen in self._visitors.items()},
        )

    def restore(self, state: object) -> None:
        if not isinstance(state, _TemporalSnapshot):
            raise TypeError("not a TemporalPolicy snapshot")
        self._users = {
            uid: _Rec(r.profile, r.point) for uid, r in state.users.items()
        }
        self._visitors = {cell: set(seen) for cell, seen in state.visitors.items()}

    def check_invariants(self) -> None:
        for uid, rec in self._users.items():
            assert self.bounds.contains_point(rec.point), f"{uid!r} out of bounds"
            # Every live user is among the visitors of their own path.
            for cell in self.grid.path_to_root(self.grid.cell_of(rec.point)):
                assert uid in self._visitors.get(cell, ()), (
                    f"{uid!r} missing from visitor history of {cell}"
                )


def _single(bounds: Rect, height: int, cloak_cache_size: int) -> CloakingPolicy:
    return TemporalPolicy(bounds, height, cloak_cache_size)


register_policy(
    PolicySpec(
        name="temporal",
        single=_single,
        description="Distinct-visitor-history cloaking (temporal baseline)",
    )
)
