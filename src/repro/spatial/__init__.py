"""Spatial indexes: R-tree, uniform grid, PR quadtree, brute force.

All implement the :class:`~repro.spatial.index.SpatialIndex` contract and
are interchangeable behind the privacy-aware query processor.
"""

from repro.spatial.bruteforce import BruteForceIndex
from repro.spatial.grid import GridIndex
from repro.spatial.index import SpatialIndex
from repro.spatial.quadtree import QuadTreeIndex
from repro.spatial.rtree import RTreeIndex

__all__ = [
    "SpatialIndex",
    "BruteForceIndex",
    "GridIndex",
    "QuadTreeIndex",
    "RTreeIndex",
]
