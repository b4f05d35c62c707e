"""Telemetry is a pure observer.

The spec machine runs a lane under telemetry (every call in its own
``enabled()`` session) beside the same deployments without it and
holds every answer, candidate-list byte and statistic equal.  The full
stack is replayed here on the R-tree; the processor and batch
engine, which no lane drives bare, are compared directly.
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
from repro.spatial import RTreeIndex
from tests.conftest import UNIT, random_points, random_rects
from tests.test_spec_machine import crowd, replay, users

INDEXES = {"rtree": lambda: RTreeIndex(max_entries=8)}
KINDS = (
    ("nn_public", None), ("knn_public", 3), ("range_public", 0.15), ("nn_private", None)
)
FULL_STACK = (
    [("target", f"station-{i}", p) for _, i, p, _ in users(30, seed=17)]
    + crowd(40, k=4)
    + [
        ("burst", [("query", uid, kind, param, batched)
                   for kind, param in KINDS for batched in (False, True)])
        for uid in range(5)
    ]
)


@pytest.mark.parametrize("anonymizer_kind", ["basic", "adaptive"])
@pytest.mark.parametrize("index_kind", sorted(INDEXES))
def test_full_stack_identical_with_and_without_telemetry(anonymizer_kind, index_kind):
    replay(anonymizer_kind, FULL_STACK, facade=True, index=INDEXES[index_kind])


def _twice(scenario) -> None:
    plain = scenario()
    with enabled() as session:
        assert scenario() == plain
    assert not session.is_empty  # the run really was instrumented


def test_processor_candidates_identical_with_and_without_telemetry():
    answers = (
        private_nn_over_public,
        lambda index, area: private_knn_over_public(index, area, k=4),
        lambda index, area: private_range_over_public(index, area, radius=0.05),
    )

    def scenario() -> tuple:
        rng = np.random.default_rng(23)
        index = RTreeIndex()
        index.bulk_load(
            {oid: Rect.point(p) for oid, p in enumerate(random_points(rng, 300))}
        )
        return tuple(
            tuple(answer(index, area).items)
            for area in random_rects(rng, 10, max_side=0.2)
            for answer in answers
        )

    _twice(scenario)


def test_batch_engine_identical_with_and_without_telemetry():
    def scenario() -> tuple:
        rng = np.random.default_rng(31)
        index = RTreeIndex()
        index.bulk_load(dict(enumerate(random_rects(rng, 200, max_side=0.05))))
        distinct = random_rects(rng, 6, max_side=0.2)
        engine = BatchQueryEngine(private_index=index)
        picks = rng.integers(6, size=40).tolist()
        requests = [BatchRequest("nn_private", distinct[i]) for i in picks]
        results = tuple(tuple(c.items) for c in engine.run(requests))
        return results, engine.dedup_rate, engine.requests_computed

    _twice(scenario)


def test_cloak_cache_statistics_identical_with_and_without_telemetry():
    def scenario() -> tuple:
        rng = np.random.default_rng(41)
        anon = BasicAnonymizer(UNIT, height=6, cloak_cache_size=64)
        points = random_points(rng, 10)
        for uid in range(60):
            anon.register(uid, points[uid % len(points)], PrivacyProfile(k=15))
        cloaks = map(anon.cloak, range(60))
        regions = [(c.region, c.achieved_k, c.cells) for c in cloaks]
        cache = anon.cloak_cache
        return tuple(regions), cache.hit_rate, cache.hits, cache.misses

    plain = scenario()
    with enabled() as session:
        assert scenario() == plain
    # ... while the cache events themselves were observed.
    hits = session.metrics.get("casper_cloak_cache_events_total", (("event", "hit"),))
    assert hits is not None and hits.value > 0
