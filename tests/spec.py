"""Casper by brute force: the executable specification.

The whole state is two dicts — ``uid -> (point, profile)`` for the
mobile users and ``oid -> point`` for the public targets — and nothing
is maintained, cached or vectorized:

* a cell's population is a scan of the users under the half-open
  assignment of :meth:`CellGrid.cell_of` (a point on a shared cell
  border belongs to the upper-right cell);
* :meth:`Spec.algorithm1` is the paper's Algorithm 1 over those counts,
  from any start cell: the cloak the basic pyramid must return starts
  at the user's lowest-level cell, the adaptive one's at some ancestor
  of it (its maintained leaf);
* :meth:`Spec.distances` ranks every target of a query kind of
  ``executor.QUERY_TYPES`` from the true location, and :func:`judge`
  holds a client's refined answer to that ranking — an answer the
  refinement of an inclusive candidate list always reaches
  (Theorems 1 and 3).

The mutators refuse what the public API refuses, with its typed errors
and in its order (an unknown uid before a point outside the area), and
a refused call changes nothing; a batch is the sequential loop, so its
applied prefix stays when a move is refused.  ``tests/test_spec_machine
.py`` holds every policy and every deployment to this module.
"""

from __future__ import annotations

from repro.anonymizer.cells import CellGrid, CellId
from repro.anonymizer.profile import PrivacyProfile
from repro.errors import DuplicateUserError, UnknownUserError
from repro.geometry import Point, Rect

#: Algorithm 1's area test tolerance (``PrivacyProfile.is_satisfied_by``).
AREA_EPS = 1e-15
#: How far a refined answer's distance may sit from the exact one.
TOL = 1e-9

#: ``(region, k', cells)`` — a cloak as every lane reports it.
Cloak = tuple[Rect, int, tuple[CellId, ...]]

#: The policy whose k' is not a head count, in its docstring's words:
#: "``achieved_k`` therefore counts historical visitors; users who have
#: deregistered still widen the anonymity set".
HISTORICAL = {"temporal"}


class Spec:
    """The reference Casper over one service area and pyramid height."""

    def __init__(self, bounds: Rect, height: int) -> None:
        self.grid = CellGrid(bounds, height)
        self.users: dict[object, tuple[Point, PrivacyProfile]] = {}
        self.targets: dict[object, Point] = {}
        #: Mutations applied so far: a refused call leaves it as it was.
        self.applied = 0

    # ------------------------------------------------------------------
    # The population, with the API's refusals
    # ------------------------------------------------------------------
    def row(self, uid: object) -> tuple[Point, PrivacyProfile]:
        if uid not in self.users:
            raise UnknownUserError(uid)
        return self.users[uid]

    def located(self, point: Point) -> Point:
        """``point``, refused with ``OutOfBoundsError`` outside the area."""
        self.grid.cell_of(point)
        return point

    def register(self, uid: object, point: Point, profile: PrivacyProfile) -> None:
        if uid in self.users:
            raise DuplicateUserError(uid)
        self.users[uid] = (self.located(point), profile)
        self.applied += 1

    def update(self, uid: object, point: Point) -> None:
        profile = self.row(uid)[1]
        self.users[uid] = (self.located(point), profile)
        self.applied += 1

    def update_batch(self, moves: list[tuple[object, Point]]) -> None:
        for uid, point in moves:
            self.update(uid, point)

    def set_profile(self, uid: object, profile: PrivacyProfile) -> None:
        self.users[uid] = (self.row(uid)[0], profile)
        self.applied += 1

    def deregister(self, uid: object) -> None:
        self.row(uid)
        del self.users[uid]
        self.applied += 1

    def snapshot(self) -> dict:
        return dict(self.users)

    def restore(self, state: object) -> None:
        if not isinstance(state, dict):
            raise TypeError("not a Spec snapshot")
        self.users = dict(state)
        self.applied += 1

    # ------------------------------------------------------------------
    # Counts and Algorithm 1
    # ------------------------------------------------------------------
    def count(self, cell: CellId) -> int:
        """The users ``cell`` holds under the half-open assignment."""
        at = cell.level
        return sum(self.grid.cell_of(p, at) == cell for p, _ in self.users.values())

    def held(self, policy: str, region: Cloak) -> tuple[int, float]:
        """The range a ``policy`` cloak's k' must fall in: the users of
        its pyramid cells under the half-open assignment (at least that
        many for a :data:`HISTORICAL` policy), or for a cloak built of no
        cells the users of its closed region — one within the geometric
        tolerance of the border may count either way."""
        rect, _k, cells = region
        if cells:
            n = sum(map(self.count, cells))
            return n, float("inf") if policy in HISTORICAL else n
        points = [p for p, _ in self.users.values()]
        strict = sum(rect.contains_point(p, 0.0) for p in points)
        return strict, sum(map(rect.contains_point, points))

    def algorithm1(self, profile: PrivacyProfile, cell: CellId) -> Cloak | None:
        """Algorithm 1 from ``cell``; ``None`` when not even the whole
        area satisfies ``profile``."""
        k, a_min, grid = profile.k, profile.a_min, self.grid
        while True:
            n, area = self.count(cell), grid.cell_area(cell.level)
            if n >= k and area >= a_min - AREA_EPS:  # the cell alone
                return grid.cell_rect(cell), n, (cell,)
            if cell.is_root:
                return None
            h, v = cell.horizontal_neighbor(), cell.vertical_neighbor()
            n_h, n_v = n + self.count(h), n + self.count(v)
            if (n_h >= k or n_v >= k) and 2.0 * area >= a_min - AREA_EPS:
                # Of the two combinations, the one closer to k.
                if (n_h >= k and n_v >= k and n_h <= n_v) or n_v < k:
                    return grid.pair_rect(cell, h), n_h, (cell, h)
                return grid.pair_rect(cell, v), n_v, (cell, v)
            cell = cell.parent()

    def starts(self, policy: str, point: Point) -> list[CellId] | None:
        """The cells Algorithm 1 may start from for ``point`` under the
        paper's two pyramids; ``None`` for a policy that is not
        Algorithm 1 (a related-work baseline)."""
        leaf = self.grid.cell_of(point)
        if policy == "basic":
            return [leaf]
        if policy == "adaptive":
            return self.grid.path_to_root(leaf)
        return None

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    def distances(
        self, kind: str, at: Point, stored: dict[object, Rect], exclude: object = None
    ) -> dict[object, float]:
        """Every target of a ``kind`` query and its distance from the
        client at ``at``: exact points for public data, the stored cloaked
        regions for private data — from the nearest point of a region,
        or from its center for the facade's buddy query, which is what
        the client ranks by."""
        family, data = kind.split("_")
        if data == "public":
            return {oid: p.distance_to(at) for oid, p in self.targets.items()}
        regions = {oid: rect for oid, rect in stored.items() if oid != exclude}
        if family == "nn":
            return {oid: r.center.distance_to(at) for oid, r in regions.items()}
        return {oid: r.min_distance_to_point(at) for oid, r in regions.items()}


def judge(
    distances: dict[object, float], kind: str, param: object, answer: object
) -> bool:
    """Whether a refined ``answer`` is the exact one: the nearest
    target(s) — up to distance ties — or every target within the
    radius (a target within ``TOL`` of the radius may go either way)."""
    family = kind.split("_")[0]
    if family == "range":
        radius = float(param)
        must = {oid for oid, d in distances.items() if d <= radius - TOL}
        may = {oid for oid, d in distances.items() if d <= radius + TOL}
        return must <= set(answer) <= may
    wanted = 1 if family == "nn" else int(param)
    exact = sorted(distances.values())[:wanted]
    answers = [answer] if family == "nn" else answer
    got = [distances[oid] for oid in answers if oid is not None]
    return len(got) == len(exact) and all(abs(a - b) <= TOL for a, b in zip(got, exact))
