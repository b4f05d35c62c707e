"""Algorithm 2, once: the executor every private query runs through.

Section 5's processor is one pipeline — pick the search region ``A_EXT``
for the cloaked query area, range-query it, ship the candidate list —
and the six query kinds differ only in how ``A_EXT`` is built:

* **NN** (Sections 5.1 / 5.2): select the filter targets (step 1), build
  the middle points and expand each edge (steps 2-3);
* **kNN** (the "straightforward extension", made concrete in
  :mod:`repro.processor.knn`): expand each edge by the anchors' k-th
  nearest distances;
* **range**: the Minkowski expansion of the cloaked area by the radius —
  every target within range of *some* position in the area lies there,
  and no smaller axis-aligned region is inclusive.

Over *public* data targets are exact points; over *private* data they
are cloaked rectangles, distances are the pessimistic furthest-corner
ones of Section 5.2.1, and an optional overlap policy thins the
candidates (step 4's ``x%``-overlap refinement).

:func:`answer` is that pipeline over a frozen :class:`BatchRequest`;
:func:`collect` is its last step.  The ``private_*_over_*`` functions
are named, memo-free constructions of a request (the reference the
figures, the benchmarks and the tests call), and
:class:`~repro.processor.batch.BatchQueryEngine` — the server's door —
is :func:`answer` under a memo per index version, so a query kind has
exactly one implementation whichever door it came in through.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import MutableMapping

from repro.errors import EmptyDatasetError
from repro.geometry import Rect
from repro.observability import runtime as _telemetry
from repro.processor.candidate import CandidateColumns, CandidateList
from repro.processor.extension import (
    compute_extension_private,
    compute_extension_public,
)
from repro.processor.filters import select_filters_private, select_filters_public
from repro.processor.knn import (
    _anchors,
    _extended_region,
    _kth_distances_private,
    _kth_distances_public,
)
from repro.processor.probabilistic import OverlapPolicy
from repro.spatial import SpatialIndex

__all__ = [
    "QUERY_TYPES",
    "BatchRequest",
    "answer",
    "collect",
    "private_nn_over_public",
    "private_nn_over_private",
    "private_knn_over_public",
    "private_knn_over_private",
    "private_range_over_public",
    "private_range_over_private",
]

QUERY_TYPES = (
    "nn_public",
    "nn_private",
    "knn_public",
    "knn_private",
    "range_public",
    "range_private",
)

#: What the two data kinds differ in: filter selection, the NN edge
#: extension, and one search of a query's anchors for their k-th distances.
_STEPS = {
    "public": (select_filters_public, compute_extension_public, _kth_distances_public),
    "private": (
        select_filters_private, compute_extension_private, _kth_distances_private,
    ),
}


@dataclass(frozen=True)
class BatchRequest:
    """One private query: a ``<family>_<data>`` type over a cloaked area.

    ``k`` applies to the kNN types, ``radius`` to the range types,
    ``num_filters`` to the NN / kNN types and ``policy`` to the
    private-data types.  The class is frozen (and
    :class:`~repro.geometry.Rect` / the overlap policies are frozen
    dataclasses), so a request is its own deduplication key.
    """

    query_type: str
    cloaked_area: Rect
    k: int = 1
    num_filters: int = 4
    radius: float = 0.0
    policy: OverlapPolicy | None = None

    def __post_init__(self) -> None:
        if self.query_type not in QUERY_TYPES:
            raise ValueError(
                f"query_type must be one of {QUERY_TYPES}, got {self.query_type!r}"
            )
        if self.k < 1:
            raise ValueError("k must be >= 1")
        if self.radius < 0:
            raise ValueError("radius must be non-negative")


def collect(
    index: SpatialIndex,
    a_ext: Rect,
    data: str,
    num_filters: int,
    policy: OverlapPolicy | None = None,
    filters: tuple[object, ...] = (),
) -> CandidateList:
    """The candidate step: every target whose region touches ``a_ext``
    (thinned by ``policy`` when given), in ``str(oid)`` order, with the
    wire forms the index holds for them."""
    with _telemetry.phase_scope("candidates", data):
        ids, coords, wire, marks = index.range_columns(a_ext)
        if policy is not None:
            admitted = [
                i for i, oid in enumerate(ids)
                if policy.admits(index.rect_of(oid), a_ext)
            ]
            ids = [ids[i] for i in admitted]
            coords, wire, marks = coords[admitted], wire[admitted], marks[admitted]
        coords.flags.writeable = False
        items = CandidateColumns(tuple(ids), coords, (wire, marks))
    _telemetry.observe("casper_candidate_list_size", len(items))
    return CandidateList(
        items=items, search_region=a_ext, num_filters=num_filters, filters=filters
    )


def answer(
    index: SpatialIndex,
    request: BatchRequest,
    memo: MutableMapping[tuple, tuple[Rect, tuple[object, ...]]] | None = None,
) -> CandidateList:
    """Answer one private query over ``index``: the inclusive, minimal
    candidate list of Theorems 1-4.

    ``memo`` shares the per-area work — ``(A_EXT, filter oids)`` — between
    requests for the same cloaked area, whatever their candidate step
    (the overlap policy).  It is valid only while ``index.version``
    does not move.
    """
    family, data = request.query_type.split("_")
    area = request.cloaked_area
    policy = request.policy if data == "private" else None
    if family == "range":
        return collect(index, area.expanded_uniform(request.radius), data, 0, policy)
    select, extend, kth_distances = _STEPS[data]
    num_filters = request.num_filters
    k = None  # NN answers do not depend on the request's k
    if family == "knn":
        if len(index) == 0:
            raise EmptyDatasetError("no target objects stored")
        k = min(request.k, len(index))
    key = (request.query_type, area, num_filters, k)
    region = None if memo is None else memo.get(key)
    if region is None:
        if family == "nn":
            with _telemetry.phase_scope("filter_selection", data):
                filters = select(index, area, num_filters)
            with _telemetry.phase_scope("extension", data):
                a_ext, _extensions = extend(index, area, filters)
            region = (a_ext, filters.distinct_oids())
        else:
            # No filter assignment is attached to a kNN answer: the
            # extension comes from the anchors' k-th distances alone.
            with _telemetry.phase_scope("extension", data):
                anchors = _anchors(area, num_filters)
                a_ext = _extended_region(area, kth_distances(index, anchors, k))
            region = (a_ext, ())
        if memo is not None:
            memo[key] = region
    return collect(index, region[0], data, num_filters, policy, region[1])


def private_nn_over_public(
    index: SpatialIndex, cloaked_area: Rect, num_filters: int = 4
) -> CandidateList:
    """"Where is my nearest gas station?" (Section 5.1) — the querying
    user is cloaked, the targets are exact points.  ``num_filters`` is
    1, 2 or 4 (Section 6.2's three variants)."""
    return answer(
        index, BatchRequest("nn_public", cloaked_area, num_filters=num_filters)
    )


def private_nn_over_private(
    index: SpatialIndex,
    cloaked_area: Rect,
    num_filters: int = 4,
    policy: OverlapPolicy | None = None,
) -> CandidateList:
    """"Where is my nearest buddy?" (Section 5.2) — both the querying
    user and the targets are cloaked rectangles.  ``policy`` optionally
    replaces the default "any overlap" candidate criterion with a
    probabilistic threshold; ``None`` keeps the inclusive default."""
    return answer(
        index,
        BatchRequest(
            "nn_private", cloaked_area, num_filters=num_filters, policy=policy
        ),
    )


def private_knn_over_public(
    index: SpatialIndex, cloaked_area: Rect, k: int, num_filters: int = 4
) -> CandidateList:
    """Candidates for "what are my k nearest public targets?".

    Inclusive for every user position in ``cloaked_area``; the client
    refines with :meth:`CandidateList.refine_k_nearest`.
    """
    return answer(
        index, BatchRequest("knn_public", cloaked_area, k=k, num_filters=num_filters)
    )


def private_knn_over_private(
    index: SpatialIndex,
    cloaked_area: Rect,
    k: int,
    num_filters: int = 4,
    policy: OverlapPolicy | None = None,
) -> CandidateList:
    """Candidates for "who are my k nearest private users?"."""
    return answer(
        index,
        BatchRequest(
            "knn_private", cloaked_area, k=k, num_filters=num_filters, policy=policy
        ),
    )


def private_range_over_public(
    index: SpatialIndex, cloaked_area: Rect, radius: float
) -> CandidateList:
    """Candidates for "all public targets within ``radius`` of me"."""
    return answer(index, BatchRequest("range_public", cloaked_area, radius=radius))


def private_range_over_private(
    index: SpatialIndex,
    cloaked_area: Rect,
    radius: float,
    policy: OverlapPolicy | None = None,
) -> CandidateList:
    """Candidates for "all private targets within ``radius`` of me"."""
    return answer(
        index, BatchRequest("range_private", cloaked_area, radius=radius, policy=policy)
    )
