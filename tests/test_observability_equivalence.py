"""Instrumentation-equivalence tests.

The observability layer must be a pure *observer*: enabling it may not
change a single bit of any query answer, cloaked region, candidate
list, or benchmark-gated engine statistic.  Every scenario here runs
twice — telemetry off, then on — and the full result fingerprints are
compared for exact equality (floats and all), across both anonymizers
and all four spatial index implementations.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.anonymizer import BasicAnonymizer, PrivacyProfile
from repro.geometry import Rect
from repro.observability import enabled
from repro.processor import (
    BatchQueryEngine,
    BatchRequest,
    private_knn_over_public,
    private_nn_over_public,
    private_range_over_public,
)
from repro.server import Casper, LocationServer
from repro.spatial import GridIndex, QuadTreeIndex, RTreeIndex
from tests.conftest import UNIT, random_points, random_rects

RECT_INDEX_FACTORIES = {
    "rtree": lambda: RTreeIndex(max_entries=8),
    "grid": lambda: GridIndex(UNIT, resolution=16),
    "quadtree": lambda: QuadTreeIndex(UNIT, leaf_capacity=4),
}


def cloak_fingerprint(region) -> tuple:
    return (region.region.as_tuple(), region.achieved_k, region.cells)


def result_fingerprint(result) -> tuple:
    """Everything deterministic about one PrivateQueryResult (the wall
    -clock timing decomposition is excluded by construction)."""
    return (
        cloak_fingerprint(result.cloak),
        tuple(result.candidates.items),
        result.candidates.num_filters,
        result.answer,
    )


def run_casper_scenario(anonymizer_kind: str, index_kind: str) -> tuple:
    """Full-stack run; returns an exact fingerprint of every output."""
    rng = np.random.default_rng(17)
    casper = Casper(
        UNIT,
        pyramid_height=6,
        anonymizer=anonymizer_kind,
        server=LocationServer(RECT_INDEX_FACTORIES[index_kind]),
    )
    casper.add_public_targets(
        {f"station-{i}": p for i, p in enumerate(random_points(rng, 100))}
    )
    for uid, point in enumerate(random_points(rng, 120)):
        casper.register_user(
            uid, point, PrivacyProfile(k=int(rng.integers(2, 10)))
        )
    fingerprints = []
    for uid in range(5):
        fingerprints.append(result_fingerprint(casper.query_nearest_public(uid)))
        fingerprints.append(
            result_fingerprint(casper.query_nearest_private(uid))
        )
        fingerprints.append(
            result_fingerprint(casper.query_range_public(uid, radius=0.15))
        )
    for result in casper.query_batch(
        [(0, "nn_public"), (1, "knn_public", 3), (2, "range_public", 0.1),
         (0, "nn_public")]
    ):
        fingerprints.append(result_fingerprint(result))
    # The BENCH-gated engine statistics ride along in the fingerprint.
    fingerprints.append(
        (
            casper.anonymizer.cloak_cache.hit_rate,
            casper.server.batch_engine.dedup_rate,
            casper.anonymizer.stats.cloak_requests,
        )
    )
    return tuple(fingerprints)


@pytest.mark.parametrize("anonymizer_kind", ["basic", "adaptive"])
@pytest.mark.parametrize("index_kind", sorted(RECT_INDEX_FACTORIES))
def test_full_stack_identical_with_and_without_telemetry(
    anonymizer_kind, index_kind
):
    plain = run_casper_scenario(anonymizer_kind, index_kind)
    with enabled() as session:
        instrumented = run_casper_scenario(anonymizer_kind, index_kind)
    assert instrumented == plain
    assert not session.is_empty  # the run really was instrumented


def run_processor_scenario(index_factory) -> tuple:
    """Processor-level equivalence over an index of public points."""
    rng = np.random.default_rng(23)
    index = index_factory()
    index.bulk_load(
        {oid: Rect.point(p) for oid, p in enumerate(random_points(rng, 300))}
    )
    out = []
    for area in random_rects(rng, 10, max_side=0.2):
        out.append(tuple(private_nn_over_public(index, area).items))
        out.append(tuple(private_knn_over_public(index, area, k=4).items))
        out.append(
            tuple(private_range_over_public(index, area, radius=0.05).items)
        )
    return tuple(out)


@pytest.mark.parametrize(
    "index_factory",
    [
        RTreeIndex,
        lambda: GridIndex(UNIT, resolution=16),
        lambda: QuadTreeIndex(UNIT, leaf_capacity=4),
    ],
    ids=["rtree", "grid", "quadtree"],
)
def test_processor_candidates_identical_with_and_without_telemetry(
    index_factory,
):
    plain = run_processor_scenario(index_factory)
    with enabled():
        instrumented = run_processor_scenario(index_factory)
    assert instrumented == plain


def test_batch_engine_identical_with_and_without_telemetry():
    def scenario() -> tuple:
        rng = np.random.default_rng(31)
        index = RTreeIndex()
        index.bulk_load(dict(enumerate(random_rects(rng, 200, max_side=0.05))))
        distinct = random_rects(rng, 6, max_side=0.2)
        engine = BatchQueryEngine(private_index=index)
        requests = [
            BatchRequest("nn_private", distinct[int(rng.integers(6))])
            for _ in range(40)
        ]
        results = engine.run(requests)
        return (
            tuple(tuple(c.items) for c in results),
            engine.dedup_rate,
            engine.requests_computed,
        )

    plain = scenario()
    with enabled():
        instrumented = scenario()
    assert instrumented == plain


def test_cloak_cache_statistics_identical_with_and_without_telemetry():
    def scenario() -> tuple:
        rng = np.random.default_rng(41)
        anon = BasicAnonymizer(UNIT, height=6, cloak_cache_size=64)
        points = random_points(rng, 10)
        profile = PrivacyProfile(k=15)
        for uid in range(60):
            anon.register(uid, points[uid % len(points)], profile)
        regions = [cloak_fingerprint(anon.cloak(uid)) for uid in range(60)]
        return (
            tuple(regions),
            anon.cloak_cache.hit_rate,
            anon.cloak_cache.hits,
            anon.cloak_cache.misses,
        )

    plain = scenario()
    with enabled() as session:
        instrumented = scenario()
    assert instrumented == plain
    # ... while the cache events themselves were observed.
    hits = session.metrics.get(
        "casper_cloak_cache_events_total", (("event", "hit"),)
    )
    assert hits is not None and hits.value > 0
