"""Coordinate blocks: many rectangles as one ``(n, 4)`` float64 array.

Row ``i`` is ``(x_min, y_min, x_max, y_max)`` — the region of the
paper's 64-byte record.  Candidate lists ship such a block and the
packed R-tree is built from them, so the numpy kernels both run over it
live here, the one module of the geometry package that needs numpy.

A vector distance never *decides*: ``np.hypot`` and ``math.hypot``
disagree in the last place on a few inputs per thousand, so it only
shortlists everything within :data:`SLACK_ULPS` of the deciding value
and the scalar :class:`~repro.geometry.Rect` distance ranks the
shortlist (:func:`slack`, :func:`near`).
"""

from __future__ import annotations

import math
from collections.abc import Collection

import numpy as np
import numpy.typing as npt

from repro.geometry.point import EPSILON, Point
from repro.geometry.rect import Rect

__all__ = [
    "Block",
    "SLACK_ULPS",
    "contains_rects",
    "intersects_rects",
    "max_distances",
    "min_distances",
    "near",
    "rect_block",
    "slack",
]


#: A float64 array: an ``(n, 4)`` coordinate block or one distance per row.
Block = npt.NDArray[np.float64]


def rect_block(rects: Collection[Rect]) -> Block:
    """The coordinate block of ``rects``, in iteration order."""
    coords = np.empty((len(rects), 4))
    # Four flat comprehensions fill the block ~4x faster than one
    # np.array over per-rect tuples.
    coords[:, 0] = [rect.x_min for rect in rects]
    coords[:, 1] = [rect.y_min for rect in rects]
    coords[:, 2] = [rect.x_max for rect in rects]
    coords[:, 3] = [rect.y_max for rect in rects]
    return coords


def _xy(at: Point | Block) -> tuple[float | Block, float | Block]:
    """The coordinates of one point, or of ``(P, 2)`` points as ``(P, 1)``
    columns: against ``(n,)`` rows they give every pair, against ``(P,
    n)`` rows (an ``(n, P, 4)`` block) point by point."""
    return (at.x, at.y) if isinstance(at, Point) else (at[:, :1], at[:, 1:])


def min_distances(coords: Block, at: Point | Block) -> Block:
    """Vector form of :meth:`Rect.min_distance_to_point` per row (per
    point and row when ``at`` holds several points, see :func:`_xy`)."""
    (x_min, y_min, x_max, y_max), (x, y) = coords.T, _xy(at)
    dx = np.maximum(np.maximum(x_min - x, 0.0), x - x_max)
    dy = np.maximum(np.maximum(y_min - y, 0.0), y - y_max)
    distances: Block = np.hypot(dx, dy)
    return distances


def max_distances(coords: Block, at: Point | Block) -> Block:
    """Vector form of :meth:`Rect.max_distance_to_point`, shaped as
    :func:`min_distances`."""
    (x_min, y_min, x_max, y_max), (x, y) = coords.T, _xy(at)
    dx = np.maximum(np.abs(x - x_min), np.abs(x - x_max))
    dy = np.maximum(np.abs(y - y_min), np.abs(y - y_max))
    distances: Block = np.hypot(dx, dy)
    return distances


def contains_rects(
    outer: Block, inner: Block, tol: float = EPSILON
) -> npt.NDArray[np.bool_]:
    """Vector form of :meth:`Rect.contains_rect`: ``outer[i]`` holds
    ``inner[i]``.  The coordinate axis is the last one and the leading
    axes broadcast, so two ``(n, 4)`` blocks compare row by row and
    ``(m, 1, 4)`` against ``(n, 4)`` gives every pair.  The sums are
    the scalar method's own, so the two never disagree; a NaN row
    contains nothing and lies in nothing."""
    inside: npt.NDArray[np.bool_] = (
        (outer[..., 0] - tol <= inner[..., 0])
        & (outer[..., 1] - tol <= inner[..., 1])
        & (inner[..., 2] <= outer[..., 2] + tol)
        & (inner[..., 3] <= outer[..., 3] + tol)
    )
    return inside


def intersects_rects(
    a: Block, b: Block, tol: float = EPSILON
) -> npt.NDArray[np.bool_]:
    """Vector form of :meth:`Rect.intersects`: the closed rectangles
    ``a[i]`` and ``b[i]`` share a point.  Broadcasts as
    :func:`contains_rects` does; a NaN row meets nothing."""
    meeting: npt.NDArray[np.bool_] = (
        (a[..., 0] <= b[..., 2] + tol)
        & (b[..., 0] <= a[..., 2] + tol)
        & (a[..., 1] <= b[..., 3] + tol)
        & (b[..., 1] <= a[..., 3] + tol)
    )
    return meeting


#: Each of the vector and the scalar distance is within 1 ulp of the
#: true one, which puts the scalar winner at most 4 ulps (8 spacings
#: across a binade boundary) from the vector bound.
SLACK_ULPS = 16.0


def slack(bound: float) -> float:
    """How far past ``bound`` a vector distance can sit while its scalar
    twin is still at or under ``bound``."""
    return SLACK_ULPS * math.ulp(bound)


def near(values: Block, bound: float, below: bool = True) -> npt.NDArray[np.intp]:
    """Ascending indices of the values the vector kernel cannot separate
    from ``bound``: within the slack of it, and (``below``) everything
    under it as well.  Non-finite values (NaN or infinite coordinates)
    are beyond the error analysis, so then every index is returned and
    the scalar distance decides alone."""
    if not np.isfinite(values).all():
        return np.arange(len(values))
    margin = slack(float(bound))
    doubtful = values <= bound + margin
    if not below:
        doubtful &= values >= bound - margin
    return np.flatnonzero(doubtful)
