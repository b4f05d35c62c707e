"""Safe-region kNN: candidate lists that stay valid while the client moves.

A snapshot kNN answer (:func:`~repro.processor.knn.private_knn_over_public`)
is inclusive for every position in the *current* cloaked area ``A`` — the
moment the client's cloak drifts, the server must be asked again.  For a
moving client that means one full re-query per tick, which is exactly the
server-load problem validity regions solve (Hashem, Kulik & Zhang,
"Privacy Preserving Moving KNN Queries"): return, alongside the candidate
list, a region the answer provably survives in, and let the client stay
silent until its cloak exits it.

The construction inflates the kNN bound of :mod:`repro.processor.knn` by a
chosen ``margin`` δ.  Recall the anchor bound: for an anchor ``v`` with
k-th-nearest-target distance :math:`d_v^k`, every member of the true kNN
set of *any* point ``q`` lies within :math:`r(q) = \\min_v(|q-v| + d_v^k)`
of ``q`` — the bound is global, not restricted to ``q \\in A``, and it is
1-Lipschitz in ``q``.  So take any ``q`` within δ of ``A`` (equivalently:
inside ``A.expanded_uniform(δ)``, the **validity region**) and let ``p``
be its nearest point of ``A``:

.. math::

    |t - p| \\le |t - q| + |q - p| \\le r(q) + δ \\le r(p) + 2δ
    \\qquad \\text{for every true-kNN member } t \\text{ of } q.

The right-hand side is the original bound with every anchor distance
shifted by 2δ, and the per-edge expansion is additive in that shift
(``_edge_expansion(L, d_i + c, d_j + c) == _edge_expansion(L, d_i, d_j) + c``,
both cones rise together), so building ``A_EXT`` from the distances
:math:`d_v^k + 2δ` yields a candidate list inclusive for **every cloak
contained in the validity region** — the refined answer at the client's
exact position is byte-identical to a fresh re-query, for as long as the
cloak stays inside.

Target churn can of course still invalidate the list.  The result carries
a conservative **watch region** for that: the union of the inflated
``A_EXT`` (any target that could *enter* some ``q``'s kNN set lies inside
it, by the same theorem) and the anchor witness discs
:math:`disc(v, d_v^k)` (a target that could *weaken* an anchor bound by
leaving or moving lies inside its disc).  A continuous monitor that
re-evaluates whenever a target update touches the watch region, or the
client's cloak exits the validity region, therefore never serves a wrong
answer.  When ``k`` had to be clamped to the dataset size the watch
region cannot be bounded (an insert anywhere grows the answer set);
:attr:`SafeRegionResult.clamped` flags that and callers must widen their
watch to the whole service area.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import EmptyDatasetError
from repro.geometry import Point, Rect
from repro.observability import runtime as _telemetry
from repro.processor.candidate import CandidateList
from repro.processor.executor import collect
from repro.processor.knn import _anchors, _extended_region, _kth_distances_public
from repro.spatial import SpatialIndex

__all__ = ["SafeRegionResult", "private_knn_with_validity", "default_margin"]


def default_margin(cloak: Rect, factor: float = 1.5) -> float:
    """Cloak-relative validity margin: ``factor`` times the cloak's
    longer side.

    Scaling δ with the cloak keeps the trade-off uniform across privacy
    levels: a strict-``k`` user with a large cloak moves many ticks
    before leaving it, a relaxed user with a tiny cell gets a
    correspondingly tight validity region.  With ``factor`` ≥ 1 a cloak
    shifted by one full cell is still contained, so the common
    neighbour-cell hop does not force a re-query.
    """
    if factor < 0.0:
        raise ValueError("factor must be non-negative")
    return factor * max(cloak.width, cloak.height)


@dataclass(frozen=True)
class SafeRegionResult:
    """A kNN candidate list plus the region it provably survives in.

    Attributes
    ----------
    candidates:
        Inclusive for every user position in every cloak contained in
        ``validity`` (not merely the cloak it was computed from).
    validity:
        The original cloak expanded uniformly by ``margin``.  While the
        client's fresh cloak stays inside it, refining ``candidates`` at
        the client's exact position equals a fresh re-query.
    watch_region:
        Conservative bound on where a *target* update (insert, move,
        delete) can invalidate ``candidates``; updates strictly outside
        it provably cannot.  Meaningless when :attr:`clamped` is true —
        widen to the whole service area instead.
    k:
        The requested k.
    k_effective:
        ``min(k, dataset size)`` — what the bound was computed with.
    margin:
        The δ the validity region and the inflated search region used.
    """

    candidates: CandidateList
    validity: Rect
    watch_region: Rect
    k: int
    k_effective: int
    margin: float

    @property
    def clamped(self) -> bool:
        """True when the dataset held fewer than ``k`` targets, so any
        insert anywhere may grow the answer set."""
        return self.k_effective < self.k


def _disc_bbox(center: Point, radius: float) -> Rect:
    return Rect(
        center.x - radius, center.y - radius, center.x + radius, center.y + radius
    )


def private_knn_with_validity(
    index: SpatialIndex,
    cloaked_area: Rect,
    k: int,
    num_filters: int = 4,
    margin: float = 0.0,
) -> SafeRegionResult:
    """Private kNN over public data with a validity region.

    With ``margin == 0`` the candidate list is exactly
    :func:`~repro.processor.knn.private_knn_over_public`'s (the validity
    region degenerates to the cloak itself); a positive margin buys
    survivable client movement at the cost of a ``2·margin``-wider
    search region, hence more candidates to ship.
    """
    if len(index) == 0:
        raise EmptyDatasetError("no target objects stored")
    if k < 1:
        raise ValueError("k must be >= 1")
    if margin < 0.0:
        raise ValueError("margin must be non-negative")
    k_effective = min(k, len(index))
    with _telemetry.phase_scope("extension", "public"):
        anchors = _anchors(cloaked_area, num_filters)
        distances = _kth_distances_public(index, anchors, k_effective)
        a_ext = _extended_region(
            cloaked_area, [distance + 2.0 * margin for distance in distances]
        )
    watch = a_ext
    for anchor, distance in zip(anchors, distances):
        watch = watch.union(_disc_bbox(anchor, distance))
    return SafeRegionResult(
        candidates=collect(index, a_ext, "public", num_filters),
        validity=cloaked_area.expanded_uniform(margin),
        watch_region=watch,
        k=k,
        k_effective=k_effective,
        margin=margin,
    )
