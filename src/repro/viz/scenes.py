"""Pre-composed Casper scenes.

Convenience builders that turn live system state into finished SVG
figures — the pictures the paper uses to explain itself:

* :func:`draw_query_scene` — Figure 5: the cloaked area, its filters,
  ``A_EXT`` and the candidate list;
* :func:`draw_deployment` — Figure 9-style overview: road network,
  population, and one user's cloak;
* :func:`draw_pyramid_cut` — the adaptive anonymizer's maintained cells.
"""

from __future__ import annotations

from repro.anonymizer import AdaptiveAnonymizer, CloakedRegion
from repro.geometry import Point, Rect
from repro.mobility.roadnet import RoadNetwork
from repro.processor import CandidateList
from repro.viz.svg import SvgCanvas

__all__ = ["draw_query_scene", "draw_deployment", "draw_pyramid_cut"]


def draw_query_scene(
    bounds: Rect,
    cloaked_area: Rect,
    candidates: CandidateList,
    all_targets: dict[object, Point] | None = None,
    user: Point | None = None,
    size: int = 640,
) -> SvgCanvas:
    """Figure 5 in one call: area, ``A_EXT``, targets, candidates."""
    canvas = SvgCanvas(bounds, size=size)
    canvas.add_rect(bounds, stroke="#000000", stroke_width=1.5)
    if all_targets:
        canvas.add_points(all_targets.values(), radius=2.5, fill="#bbbbbb")
    canvas.add_rect(
        candidates.search_region,
        stroke="#2ca02c",
        stroke_width=1.5,
        dashed=True,
    )
    canvas.add_rect(
        cloaked_area, fill="#1f77b4", stroke="#1f77b4", opacity=0.25
    )
    for _oid, rect in candidates.items:
        canvas.add_point(rect.center, radius=3.5, fill="#2ca02c")
    if user is not None:
        canvas.add_point(user, radius=4.0, fill="#d62728")
        canvas.add_label(user.translated(0.01, 0.01), "user", fill="#d62728")
    canvas.add_label(
        Point(cloaked_area.x_min, cloaked_area.y_max), "A", fill="#1f77b4"
    )
    canvas.add_label(
        Point(
            candidates.search_region.x_min,
            candidates.search_region.y_max,
        ),
        "A_EXT",
        fill="#2ca02c",
    )
    return canvas


def draw_deployment(
    bounds: Rect,
    network: RoadNetwork,
    users: dict[object, Point],
    cloak: CloakedRegion | None = None,
    size: int = 640,
) -> SvgCanvas:
    """Overview: the county, its traffic and (optionally) one cloak."""
    canvas = SvgCanvas(bounds, size=size)
    canvas.add_rect(bounds, stroke="#000000", stroke_width=1.5)
    canvas.add_road_network(network)
    canvas.add_points(users.values(), radius=1.5, fill="#1f77b4")
    if cloak is not None:
        canvas.add_rect(
            cloak.region, fill="#ff7f0e", stroke="#ff7f0e", opacity=0.3
        )
    return canvas


def draw_pyramid_cut(
    anonymizer: AdaptiveAnonymizer, size: int = 640
) -> SvgCanvas:
    """The incomplete pyramid's maintained leaf cells, shaded by
    population (darker = more users)."""
    canvas = SvgCanvas(anonymizer.bounds, size=size)
    canvas.add_rect(anonymizer.bounds, stroke="#000000", stroke_width=1.5)
    leaves = anonymizer.leaf_cells()
    peak = max(leaves.values(), default=1) or 1
    for cell, count in leaves.items():
        level = count / peak
        shade = int(255 - level * 160)
        canvas.add_rect(
            anonymizer.grid.cell_rect(cell),
            fill=f"rgb({shade},{shade},255)",
            stroke="#666666",
            stroke_width=0.6,
            opacity=0.9,
        )
    return canvas
