"""The privacy-aware query processor (Section 5).

Supports the paper's three novel query types:

* private NN / range queries over public data
  (:func:`private_nn_over_public`, :func:`private_range_over_public`);
* private NN / range queries over private data
  (:func:`private_nn_over_private`, :func:`private_range_over_private`);
* public queries over private data
  (:func:`public_range_count_over_private`).

All of them work on any :class:`~repro.spatial.SpatialIndex` and return
candidate lists that are inclusive and minimal.

Algorithm 2 exists once, in :mod:`repro.processor.executor`: every
private query — called by name, through
:class:`~repro.server.LocationServer`, or inside a
:class:`BatchQueryEngine` run — is one :class:`BatchRequest` handed to
the same ``answer`` function.  :mod:`~repro.processor.filters`,
:mod:`~repro.processor.extension` and :mod:`~repro.processor.knn` hold
the steps it composes; the safe-region kNN
(:func:`private_knn_with_validity`) builds its own inflated search
region and shares the candidate step.
"""

from repro.processor.batch import BatchQueryEngine
from repro.processor.candidate import CandidateList
from repro.processor.extension import (
    EdgeExtension,
    compute_extension_private,
    compute_extension_public,
)
from repro.processor.filters import (
    VertexFilters,
    select_filters_private,
    select_filters_public,
)
from repro.processor.executor import (
    BatchRequest,
    private_knn_over_private,
    private_knn_over_public,
    private_nn_over_private,
    private_nn_over_public,
    private_range_over_private,
    private_range_over_public,
)
from repro.processor.naive import naive_center_nn, naive_send_all
from repro.processor.safe_region import (
    SafeRegionResult,
    default_margin,
    private_knn_with_validity,
)
from repro.processor.probabilistic import (
    AnyOverlap,
    ContainmentOnly,
    FractionOverlap,
    OverlapPolicy,
)
from repro.processor.public_private import (
    RangeCountResult,
    public_range_count_over_private,
)

__all__ = [
    "BatchQueryEngine",
    "BatchRequest",
    "CandidateList",
    "EdgeExtension",
    "VertexFilters",
    "compute_extension_private",
    "compute_extension_public",
    "select_filters_private",
    "select_filters_public",
    "private_nn_over_public",
    "private_nn_over_private",
    "private_knn_over_public",
    "private_knn_over_private",
    "private_knn_with_validity",
    "SafeRegionResult",
    "default_margin",
    "private_range_over_public",
    "private_range_over_private",
    "public_range_count_over_private",
    "RangeCountResult",
    "naive_center_nn",
    "naive_send_all",
    "OverlapPolicy",
    "AnyOverlap",
    "FractionOverlap",
    "ContainmentOnly",
]
