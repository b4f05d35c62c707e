"""CliqueCloak (Gedik & Liu, ICDCS 2005), twice: the request-batched
engine the paper's related work describes, and its cloaking geometry as
a registered :class:`CloakingPolicy`.

**The engine** (:class:`CliqueCloak`, :class:`CliqueRequest`).  Each
user has her own ``k``-anonymity requirement; pending requests are
combined by building a constraint graph and finding a clique whose
members can share one cloaked region — the members' minimum bounding
rectangle.  Its two weaknesses, which the ablation benchmark
reproduces, are (1) the clique search is expensive, limiting it to
small ``k`` (the original evaluation used k in [5, 10]), and (2) the
MBR leaks information: some users must lie on the rectangle's boundary.
Model implemented (faithful to the published message-perturbation
engine at the granularity this reproduction needs):

* each request carries ``(uid, point, k, tolerance)`` where ``tolerance``
  is the maximum cloaking box half-width the user accepts;
* two pending requests are *compatible* (graph edge) when each lies
  within the other's tolerance box;
* a request is served when a clique of size ``max(k of members)`` exists
  among it and its compatible neighbours; served members are removed and
  share the clique's MBR;
* unserved requests stay pending (and would expire in the original —
  ``drop_pending`` models that).

**The policy** (:class:`CliquePolicy`, registry entry ``"clique"``).
The engine is request-batched and cannot answer a standalone
``cloak(uid)`` — so the policy ports its *cloaking geometry* instead:
the user plus their nearest neighbours share the group's minimum
bounding rectangle, grown to ``A_min`` and clamped to the service area.
It keeps CliqueCloak's characteristic weakness (group members can sit
exactly on the rectangle's boundary) while gaining the protocol surface
that the sharding, parallelism and conformance harnesses require.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from repro.anonymizer.cloak import CloakedRegion
from repro.anonymizer.engine import PyramidEngine
from repro.anonymizer.policy import CloakingPolicy, PolicySpec, register_policy
from repro.anonymizer.profile import PrivacyProfile
from repro.errors import ProfileUnsatisfiableError
from repro.geometry import Point, Rect

__all__ = ["CliqueCloak", "CliquePolicy", "CliqueRequest"]


@dataclass(frozen=True, slots=True)
class CliqueRequest:
    """A pending anonymization request."""

    uid: object
    point: Point
    k: int
    tolerance: float

    def accepts(self, other: "Point") -> bool:
        """True when ``other`` lies within this request's tolerance box."""
        return (
            abs(other.x - self.point.x) <= self.tolerance
            and abs(other.y - self.point.y) <= self.tolerance
        )


class CliqueCloak:
    """Clique-graph message perturbation engine."""

    def __init__(self, bounds: Rect, max_clique_candidates: int = 24) -> None:
        """``max_clique_candidates`` caps the neighbourhood examined by
        the exponential clique search — the original engine bounds its
        search similarly to stay real-time."""
        self.bounds = bounds
        self.max_clique_candidates = max_clique_candidates
        self._pending: dict[object, CliqueRequest] = {}

    # ------------------------------------------------------------------
    # Request stream
    # ------------------------------------------------------------------
    @property
    def num_pending(self) -> int:
        return len(self._pending)

    def submit(self, request: CliqueRequest) -> dict[object, CloakedRegion] | None:
        """Add a request; returns the served group's regions when the new
        request completes a clique, else ``None`` (request stays pending).
        """
        if request.k < 1:
            raise ValueError("k must be >= 1")
        self._pending[request.uid] = request
        clique = self._find_clique(request)
        if clique is None:
            return None
        mbr = self._mbr(clique)
        served = {}
        for member in clique:
            served[member.uid] = CloakedRegion(mbr, len(clique), ())
            del self._pending[member.uid]
        return served

    def drop_pending(self, uid: object) -> None:
        """Expire a pending request (the original engine's deadline)."""
        self._pending.pop(uid, None)

    # ------------------------------------------------------------------
    # Clique machinery
    # ------------------------------------------------------------------
    def _compatible(self, a: CliqueRequest, b: CliqueRequest) -> bool:
        return a.accepts(b.point) and b.accepts(a.point)

    def _find_clique(self, seed: CliqueRequest) -> list[CliqueRequest] | None:
        """Search for a serving clique containing ``seed``.

        A set S ∋ seed serves its members when it is a clique in the
        compatibility graph and ``|S| >= max(k of S)``.  We enumerate
        cliques over the (capped) neighbourhood of the seed,
        smallest-first, so the returned group is minimal.
        """
        neighbors = [
            r
            for r in self._pending.values()
            if r.uid != seed.uid and self._compatible(seed, r)
        ]
        # Nearest candidates first: compatible users close to the seed
        # are most likely to form small cliques.
        neighbors.sort(key=lambda r: r.point.squared_distance_to(seed.point))
        neighbors = neighbors[: self.max_clique_candidates]

        best: list[CliqueRequest] | None = None

        def extend(clique: list[CliqueRequest], pool: list[CliqueRequest]) -> None:
            nonlocal best
            need = max(r.k for r in clique)
            if len(clique) >= need:
                if best is None or len(clique) < len(best):
                    best = list(clique)
                return
            if best is not None and len(clique) >= len(best):
                return  # cannot improve
            for idx, candidate in enumerate(pool):
                if all(self._compatible(candidate, member) for member in clique):
                    clique.append(candidate)
                    extend(clique, pool[idx + 1 :])
                    clique.pop()

        extend([seed], neighbors)
        return best

    @staticmethod
    def _mbr(clique: list[CliqueRequest]) -> Rect:
        xs = [r.point.x for r in clique]
        ys = [r.point.y for r in clique]
        return Rect(min(xs), min(ys), max(xs), max(ys))


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
    """k-nearest-group MBR cloaker (maintains nothing beyond the
    engine's user table)."""

    label = "clique"

    def __init__(
        self,
        bounds: Rect,
        height: int = 9,
        cloak_cache_size: int = 8192,
    ) -> None:
        self._init_engine(bounds, height)

    def cloak_location(self, point: Point, profile: PrivacyProfile) -> CloakedRegion:
        return self._instrumented_cloak(
            lambda: self._group_cloak(point, profile), profile.k, profile.a_min
        )

    def _group_cloak(self, location: Point, profile: PrivacyProfile) -> CloakedRegion:
        """MBR of ``location`` plus its ``k`` nearest users, grown to
        ``A_min`` and clamped to the service area."""
        table = self.table
        # Registration order: the stable sort breaks distance ties by it.
        slots = table.ordered_slots()
        if len(slots) < profile.k:
            raise ProfileUnsatisfiableError(
                f"population {len(slots)} below k={profile.k}"
            )
        if self.bounds.area < profile.a_min - 1e-15:
            raise ProfileUnsatisfiableError(
                f"A_min {profile.a_min} exceeds the service area"
            )
        xs, ys = table.xs[slots], table.ys[slots]
        dx, dy = location.x - xs, location.y - ys
        group = np.argsort(dx * dx + dy * dy, kind="stable")[: profile.k]
        gx = xs[group].tolist() + [location.x]
        gy = ys[group].tolist() + [location.y]
        rect = _expand_to_area(
            Rect(min(gx), min(gy), max(gx), max(gy)), profile.a_min, self.bounds
        )
        return CloakedRegion(rect, table.count_in_rect(rect), ())


def _single(bounds: Rect, height: int, cloak_cache_size: int) -> CloakingPolicy:
    return CliquePolicy(bounds, height, cloak_cache_size)


register_policy(
    PolicySpec(
        name="clique",
        single=_single,
        description="k-nearest-group MBR cloaking (CliqueCloak-style)",
    )
)
