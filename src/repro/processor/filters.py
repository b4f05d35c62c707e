"""Filter selection — step 1 of Algorithm 2.

The *filter* targets prune the search for candidates: each vertex of the
cloaked query area is assigned a filter target whose distance bounds how
far a better answer could possibly be.  Section 6.2 evaluates three
variants:

* **4 filters** — the nearest target to each of the four vertices
  (Algorithm 2 as written);
* **2 filters** — the nearest targets to two opposite corners; the other
  two vertices adopt whichever of the two is closer to them;
* **1 filter** — the nearest target to the *center* of the cloaked area;
  all four vertices share it.

For private (cloaked) target data the "distance to a target" is the
pessimistic max-distance to the target's region — the furthest-corner
rule of Section 5.2.1.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import EmptyDatasetError
from repro.geometry import Point, Rect
from repro.spatial import SpatialIndex

__all__ = ["VertexFilters", "select_filters_public", "select_filters_private"]

VALID_FILTER_COUNTS = (1, 2, 4)


@dataclass(frozen=True)
class VertexFilters:
    """The filter assignment for the four vertices ``(v1, v2, v3, v4)``.

    ``assignment`` maps each vertex to the oid of its filter target;
    ``num_filters`` is the number of *distinct* filter selections that
    were computed (1, 2 or 4 — distinct oids may still coincide when the
    same target is nearest to several vertices, exactly as in the paper's
    ``t_i = t_j`` case).
    """

    assignment: dict[Point, object]
    num_filters: int

    def oid_for(self, vertex: Point) -> object:
        return self.assignment[vertex]

    def distinct_oids(self) -> tuple[object, ...]:
        seen: list[object] = []
        for oid in self.assignment.values():
            if oid not in seen:
                seen.append(oid)
        return tuple(seen)


def _require_valid(index: SpatialIndex, num_filters: int) -> None:
    if num_filters not in VALID_FILTER_COUNTS:
        raise ValueError(f"num_filters must be one of {VALID_FILTER_COUNTS}")
    if len(index) == 0:
        raise EmptyDatasetError("no target objects stored")


def _select(
    index: SpatialIndex, area: Rect, num_filters: int, nearest_each, distance
) -> VertexFilters:
    """The three filter variants over one ``nearest_each(anchors) ->
    oids`` search and a ``distance(oid, vertex)`` metric."""
    _require_valid(index, num_filters)
    v1, v2, v3, v4 = area.vertices()
    if num_filters == 4:
        assignment = dict(zip((v1, v2, v3, v4), nearest_each((v1, v2, v3, v4))))
    elif num_filters == 2:
        # Two reverse corners: top-left (v1) and bottom-right (v4).
        t1, t4 = nearest_each((v1, v4))
        assignment = {v1: t1, v4: t4}
        for v in (v2, v3):
            assignment[v] = t1 if distance(t1, v) <= distance(t4, v) else t4
    else:  # 1 filter: nearest to the center, shared by all vertices.
        (t,) = nearest_each((area.center,))
        assignment = {v: t for v in (v1, v2, v3, v4)}
    return VertexFilters(assignment, num_filters)


def select_filters_public(
    index: SpatialIndex, area: Rect, num_filters: int = 4
) -> VertexFilters:
    """Assign filter targets for *public* (exact point) target data."""
    return _select(
        index,
        area,
        num_filters,
        lambda anchors: [ids[0] for ids in index.k_nearest_each(anchors, 1)],
        lambda oid, v: index.rect_of(oid).min_distance_to_point(v),
    )


def select_filters_private(
    index: SpatialIndex, area: Rect, num_filters: int = 4
) -> VertexFilters:
    """Assign filter targets for *private* (cloaked rectangle) data.

    Per Section 5.2.1 the distance from a vertex to a candidate target is
    measured to the target's *furthest corner* — the pessimistic position
    — so the filter is the target minimising the max-distance.  The
    anchors resolve together through the index's pruned search
    (:meth:`~repro.spatial.SpatialIndex.k_nearest_by_max_distance_each`)
    rather than a scan over every stored region.
    """
    return _select(
        index,
        area,
        num_filters,
        lambda anchors: [
            ids[0] for ids in index.k_nearest_by_max_distance_each(anchors, 1)
        ],
        lambda oid, v: index.rect_of(oid).max_distance_to_point(v),
    )
