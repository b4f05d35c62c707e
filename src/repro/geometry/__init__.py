"""Geometry kernel: points, rectangles, segments, bisector constructions.

This package provides the exact geometric primitives that the Casper
anonymizer and privacy-aware query processor are built from.  What it
exports here is dependency-free (pure Python + ``math``); the numpy
kernels over many rectangles at once live in
:mod:`repro.geometry.block`, imported by name where they are used.
"""

from repro.geometry.point import EPSILON, Point
from repro.geometry.rect import Edge, Rect
from repro.geometry.segment import (
    Segment,
    bisector_intersection,
    equidistant_point_on_segment,
    orientation,
    project_point_to_line,
    segments_intersect,
    unit_vector,
)

__all__ = [
    "EPSILON",
    "Point",
    "Rect",
    "Edge",
    "Segment",
    "bisector_intersection",
    "equidistant_point_on_segment",
    "orientation",
    "project_point_to_line",
    "segments_intersect",
    "unit_vector",
]
