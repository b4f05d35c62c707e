"""Private k-nearest-neighbor queries — the paper's "straightforward
extension" of Algorithm 2 to kNN, made concrete.

For a cloaked area ``A`` and ``k > 1``, the candidate list must contain
the true k nearest targets of *every* possible user position in ``A``.
The construction generalises the filter idea with a triangle-inequality
bound:

for an anchor point ``v`` (a vertex of ``A`` or its center), let
:math:`d_v^k` be the distance from ``v`` to its k-th nearest target.
The k targets nearest ``v`` all lie within :math:`d_v^k` of ``v``, so
for any user position ``p`` the k-th NN distance of ``p`` is at most
:math:`|p - v| + d_v^k` — there are k targets at least that close.  Any
member of ``p``'s true kNN set therefore lies within

.. math:: r(p) = \\min_{v} (|p - v| + d_v^k)

of ``p``.  Expanding each edge of ``A`` outward by
:math:`\\max_{p \\in edge} r(p)` yields an inclusive search region; for
the vertex-anchored (4-filter) variant that maximum is attained where
the two endpoint cones meet, at parameter
:math:`t^* = (L + d_j^k - d_i^k) / 2L` along the edge (clamped to
``[0, 1]``).

With ``k = 1`` this bound is slightly more conservative than Algorithm
2's perpendicular-bisector construction (it does not exploit knowing
*which* target is the filter), trading a modestly larger ``A_EXT`` for
a bound that generalises to any k.  The private-data variant replaces
point distances with pessimistic max-distances throughout, exactly as
Section 5.2 does for the k = 1 case.

This module holds only that geometry; the query functions themselves
(``private_knn_over_*``) are requests to
:func:`repro.processor.executor.answer`.
"""

from __future__ import annotations

from collections.abc import Sequence

from repro.geometry import Point, Rect
from repro.spatial import SpatialIndex

__all__: list[str] = []


def _anchors(area: Rect, num_filters: int) -> tuple[Point, ...]:
    """The anchors of a kNN query over ``area``: its center (1 filter)
    or its four vertices (4 filters)."""
    if num_filters not in (1, 4):
        raise ValueError("kNN queries support num_filters of 1 or 4")
    return (area.center,) if num_filters == 1 else area.vertices()


def _kth_distances_public(
    index: SpatialIndex, anchors: Sequence[Point], k: int
) -> list[float]:
    """Distance from each of ``anchors`` to its k-th nearest (point)
    target, in one search of all of them."""
    found = index.k_nearest_each(anchors, k)
    return [index.rect_of(ids[-1]).min_distance_to_point(v) for v, ids in zip(anchors, found)]


def _kth_distances_private(
    index: SpatialIndex, anchors: Sequence[Point], k: int
) -> list[float]:
    """The k-th smallest pessimistic (max) distance from each of
    ``anchors`` to a cloaked target region, in one pruned search of all
    of them rather than a sort of every stored region."""
    found = index.k_nearest_by_max_distance_each(anchors, k)
    return [index.rect_of(ids[-1]).max_distance_to_point(v) for v, ids in zip(anchors, found)]


def _edge_expansion(length: float, d_i: float, d_j: float) -> float:
    """Max over the edge of ``min(t L + d_i, (1 - t) L + d_j)``.

    The two cones cross at ``t* = (L + d_j - d_i) / 2L``; clamped to the
    segment, the maximum of the lower envelope is the cone value there.
    """
    if length <= 0.0:
        return max(d_i, d_j)
    t_star = (length + d_j - d_i) / (2.0 * length)
    t_star = min(max(t_star, 0.0), 1.0)
    return min(t_star * length + d_i, (1.0 - t_star) * length + d_j)


def _extended_region(area: Rect, distances: Sequence[float]) -> Rect:
    """Build ``A_EXT`` from the k-th distances of the anchors
    :func:`_anchors` gives, in their order."""
    if len(distances) == 1:
        (d_c,) = distances
        # r(p) <= |p - center| + d_c; per edge the max is at the farther
        # endpoint of the edge from the center.
        amounts = {}
        for edge in area.edges():
            reach = max(
                edge.vi.distance_to(area.center), edge.vj.distance_to(area.center)
            )
            amounts[edge.direction] = reach + d_c
    else:
        d_of = dict(zip(area.vertices(), distances))
        amounts = {}
        for edge in area.edges():
            amounts[edge.direction] = _edge_expansion(
                edge.length(), d_of[edge.vi], d_of[edge.vj]
            )
    return area.expanded(
        left=amounts.get("left", 0.0),
        right=amounts.get("right", 0.0),
        bottom=amounts.get("bottom", 0.0),
        top=amounts.get("top", 0.0),
    )
