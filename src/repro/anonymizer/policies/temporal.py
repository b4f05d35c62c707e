"""Temporal cloaking (Gruteser & Grunwald, MobiSys 2003), twice: the
delay-until-``k`` model the original proposes, and its defining idea as
a registered :class:`CloakingPolicy`.

**The model** (:class:`TemporalCloak`, :class:`TemporalCloakResult`).
Besides spatial cloaking, the original paper proposes *temporal*
cloaking: instead of enlarging the reported region, the middleware
delays (or backdates) the report until at least ``k`` distinct users
have visited the reported cell — trading answer freshness for
anonymity.  Casper deliberately avoids this trade (location-based
queries need fresh positions); the model exists so the ablation suite
can quantify the delay such a scheme would impose under the same
movement workloads.

**The policy** (:class:`TemporalPolicy`, registry entry ``"temporal"``).
A standalone ``cloak(uid)`` has no clock to delay against, so the
policy keeps the defining idea — anonymity among the cell's *historical
visitors*, not its instantaneous population — in spatial form: every
register/update records the user as a visitor of each pyramid cell on
their root-to-leaf path, and a cloak climbs from the user's
lowest-level cell until the cell's distinct-visitor count reaches ``k``
and its area reaches ``A_min``.  ``achieved_k`` therefore counts
historical visitors; users who have deregistered still widen the
anonymity set, exactly the freshness-for-anonymity trade the paper
declines.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass

from repro.anonymizer.cells import CellId
from repro.anonymizer.cloak import CloakedRegion
from repro.anonymizer.engine import PyramidEngine
from repro.anonymizer.policy import CloakingPolicy, PolicySpec, register_policy
from repro.anonymizer.profile import PrivacyProfile
from repro.anonymizer.soa import TableSnapshot
from repro.errors import ProfileUnsatisfiableError
from repro.geometry import Point, Rect
from repro.morton import cell_of_morton

__all__ = ["TemporalCloak", "TemporalCloakResult", "TemporalPolicy"]


@dataclass(frozen=True, slots=True)
class TemporalCloakResult:
    """A temporally cloaked report.

    ``delay`` is how stale the report had to be made: the age of the
    oldest visit inside the window that accumulates ``k`` distinct
    visitors for the cell.
    """

    region: Rect
    delay: float
    visitors: int


class TemporalCloak:
    """Per-cell visit history with k-visitor temporal cloaking."""

    def __init__(
        self,
        bounds: Rect,
        k: int,
        resolution: int = 32,
        history_horizon: float = float("inf"),
    ) -> None:
        if k < 1:
            raise ValueError("k must be >= 1")
        if resolution < 1:
            raise ValueError("resolution must be >= 1")
        if bounds.area <= 0:
            raise ValueError("bounds must have positive area")
        self.bounds = bounds
        self.k = k
        self.resolution = resolution
        self.history_horizon = history_horizon
        # cell -> deque of (time, uid) visits, oldest first.
        self._visits: dict[tuple[int, int], deque[tuple[float, object]]] = {}
        self._clock = 0.0

    # ------------------------------------------------------------------
    # Observation stream
    # ------------------------------------------------------------------
    def _cell_of(self, point: Point) -> tuple[int, int]:
        fx = (point.x - self.bounds.x_min) / self.bounds.width
        fy = (point.y - self.bounds.y_min) / self.bounds.height
        ix = min(max(int(fx * self.resolution), 0), self.resolution - 1)
        iy = min(max(int(fy * self.resolution), 0), self.resolution - 1)
        return ix, iy

    def cell_rect(self, cell: tuple[int, int]) -> Rect:
        w = self.bounds.width / self.resolution
        h = self.bounds.height / self.resolution
        x0 = self.bounds.x_min + cell[0] * w
        y0 = self.bounds.y_min + cell[1] * h
        return Rect(x0, y0, x0 + w, y0 + h)

    def observe(self, uid: object, point: Point, time: float) -> None:
        """Record that ``uid`` was seen at ``point`` at ``time``.

        Times must be non-decreasing (a replayable update stream).
        """
        if time < self._clock:
            raise ValueError("observations must be time-ordered")
        self._clock = time
        cell = self._cell_of(point)
        history = self._visits.setdefault(cell, deque())
        history.append((time, uid))
        cutoff = time - self.history_horizon
        while history and history[0][0] < cutoff:
            history.popleft()

    # ------------------------------------------------------------------
    # Cloaking
    # ------------------------------------------------------------------
    def cloak(self, point: Point, now: float | None = None) -> TemporalCloakResult:
        """Temporally cloak a report from ``point``.

        Walks the cell's visit history backwards until ``k`` distinct
        visitors are covered; the report must then be delayed by the age
        of the window.  Raises when the history never accumulated ``k``
        visitors.
        """
        if now is None:
            now = self._clock
        cell = self._cell_of(point)
        history = self._visits.get(cell, deque())
        seen: set[object] = set()
        for time, uid in reversed(history):
            seen.add(uid)
            if len(seen) >= self.k:
                return TemporalCloakResult(
                    region=self.cell_rect(cell),
                    delay=max(now - time, 0.0),
                    visitors=len(seen),
                )
        raise ProfileUnsatisfiableError(
            f"cell has only {len(seen)} distinct visitors, k={self.k}"
        )


@dataclass(frozen=True)
class _TemporalSnapshot:
    population: TableSnapshot
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
        # cell -> uids ever observed inside it; grows monotonically (a
        # deregistered visitor still anonymizes later reports).
        self._visitors: dict[CellId, set[object]] = {}

    def _observe(self, uid: object, lowest: CellId) -> int:
        """Record ``uid`` as a visitor of every cell from ``lowest`` up
        to the root; returns the number of cells touched."""
        for cell in self.grid.path_to_root(lowest):
            self._visitors.setdefault(cell, set()).add(uid)
        cost = self.height + 1
        self.stats.counter_updates += cost
        return cost

    def register(self, uid: object, point: Point, profile: PrivacyProfile) -> None:
        _slot, lowest = self.table.admit(uid, point, profile)
        self._observe(uid, lowest)
        self.stats.registrations += 1

    def update(self, uid: object, point: Point) -> int:
        _slot, _old_m, _new_m, lowest = self.table.move(uid, point)
        self.stats.location_updates += 1
        return self._observe(uid, lowest)

    # ------------------------------------------------------------------
    # Cloaking
    # ------------------------------------------------------------------
    def cloak_location(self, point: Point, profile: PrivacyProfile) -> CloakedRegion:
        self.grid.cell_of(point)  # refuses a point outside the area, as every host does
        return self._instrumented_cloak(
            lambda: self._history_cloak(point, profile), profile.k, profile.a_min
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
            self.table.snapshot(),
            {cell: set(seen) for cell, seen in self._visitors.items()},
        )

    def restore(self, state: object) -> None:
        if not isinstance(state, _TemporalSnapshot):
            raise TypeError("not a TemporalPolicy snapshot")
        self.table.restore(state.population)
        self._visitors = {cell: set(seen) for cell, seen in state.visitors.items()}

    def check_invariants(self) -> None:
        table = self.table
        table.check()
        # Every live user is among the visitors of their own path.
        for uid, slot in table.items():
            lowest = cell_of_morton(self.height, int(table.cells[slot]))
            for cell in self.grid.path_to_root(lowest):
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
