"""Spatial indexes: the R-tree that serves queries and the brute-force
oracle it is held to.

Both implement the :class:`~repro.spatial.index.SpatialIndex` contract
and are interchangeable behind the privacy-aware query processor.
"""

from repro.spatial.bruteforce import BruteForceIndex
from repro.spatial.index import SpatialIndex
from repro.spatial.rtree import RTreeIndex

__all__ = [
    "SpatialIndex",
    "BruteForceIndex",
    "RTreeIndex",
]
