"""Batch query engine: output must be item-for-item identical to the
per-query processor functions, for every query type and policy."""

from __future__ import annotations

import numpy as np
import pytest

from repro.geometry import Point, Rect
from repro.observability import runtime as telemetry
from repro.processor import (
    AnyOverlap,
    BatchQueryEngine,
    BatchRequest,
    FractionOverlap,
    private_knn_over_private,
    private_knn_over_public,
    private_nn_over_private,
    private_nn_over_public,
    private_range_over_private,
    private_range_over_public,
)
from repro.processor.executor import QUERY_TYPES
from repro.server import Casper, LocationServer
from repro.spatial import RTreeIndex
from tests.conftest import UNIT, random_points, random_rects


@pytest.fixture
def indexes(rng):
    public = RTreeIndex()
    for oid, point in enumerate(random_points(rng, 250)):
        public.insert_point(f"p{oid}", point)
    private = RTreeIndex()
    for oid, rect in enumerate(random_rects(rng, 250, max_side=0.05)):
        private.insert(f"u{oid}", rect)
    return public, private


def _areas(rng, n=6):
    return random_rects(rng, n, max_side=0.2)


def _assert_same(batch_result, expected):
    assert batch_result.items == expected.items
    assert batch_result.search_region == expected.search_region
    assert batch_result.num_filters == expected.num_filters
    assert batch_result.filters == expected.filters


POLICY = FractionOverlap(0.25)

#: query type -> (per-query function, LocationServer method if it has
#: one, the argument rows to try).  The arguments are spelled once: they
#: are keyword arguments of both callables and BatchRequest fields.
ENTRY_POINTS = {
    "nn_public": (
        private_nn_over_public, "nn_public",
        [{"num_filters": n} for n in (1, 2, 4)],
    ),
    "nn_private": (
        private_nn_over_private, "nn_private",
        [{"num_filters": n} for n in (1, 2, 4)]
        + [{"num_filters": 4, "policy": POLICY}],
    ),
    "knn_public": (
        private_knn_over_public, "knn_public",
        [{"k": 5, "num_filters": n} for n in (1, 4)],
    ),
    "knn_private": (
        private_knn_over_private, None,
        [{"k": 3, "num_filters": n, "policy": POLICY} for n in (1, 4)],
    ),
    "range_public": (private_range_over_public, "range_public", [{"radius": 0.1}]),
    "range_private": (
        private_range_over_private, "range_private",
        [{"radius": 0.1, "policy": POLICY}],
    ),
}


def _phases_recorded(run):
    """Label sets of the processor phase histograms ``run`` touched."""
    with telemetry.enabled() as obs:
        run()
        return {
            metric.labels
            for metric in obs.metrics
            if metric.name == "casper_processor_phase_seconds"
        }


def test_batch_matches_per_query_functions(rng):
    """Every door into the processor — the per-query function, the
    LocationServer method, a run_batch request — gives the same
    candidate list and times the same Algorithm 2 phases."""
    assert set(ENTRY_POINTS) == set(QUERY_TYPES)
    server = LocationServer()
    for oid, point in enumerate(random_points(rng, 250)):
        server.add_public(f"p{oid}", point)
    server.store_private(
        (f"u{oid}", rect) for oid, rect in enumerate(random_rects(rng, 250, max_side=0.05))
    )
    areas = _areas(rng)
    for kind, (function, method, rows) in ENTRY_POINTS.items():
        index = (
            server.public_index if kind.endswith("public") else server.private_index
        )
        for arguments in rows:
            requests = [BatchRequest(kind, area, **arguments) for area in areas]
            batched = server.run_batch(requests)
            for area, got in zip(areas, batched):
                want = function(index, area, **arguments)
                _assert_same(got, want)
                if method is not None:
                    _assert_same(getattr(server, method)(area, **arguments), want)
            single_phases = _phases_recorded(
                lambda: function(index, areas[0], **arguments)
            )
            assert single_phases, kind
            assert _phases_recorded(lambda: server.run_batch(requests)) == single_phases


def test_duplicate_requests_computed_once(indexes, rng):
    public, private = indexes
    engine = BatchQueryEngine(public, private)
    area = _areas(rng, 1)[0]
    requests = [BatchRequest("nn_public", area)] * 10
    results = engine.run(requests)
    assert engine.requests_seen == 10
    assert engine.requests_computed == 1
    assert engine.dedup_rate == pytest.approx(0.9)
    # Deduplicated answers are literally the same frozen object.
    assert all(r is results[0] for r in results)
    _assert_same(results[0], private_nn_over_public(public, area))


def test_shared_area_different_policies_share_extension(indexes, rng):
    public, private = indexes
    engine = BatchQueryEngine(public, private)
    area = _areas(rng, 1)[0]
    loose, strict = AnyOverlap(), FractionOverlap(0.5)
    results = engine.run(
        [
            BatchRequest("nn_private", area, policy=None),
            BatchRequest("nn_private", area, policy=loose),
            BatchRequest("nn_private", area, policy=strict),
        ]
    )
    _assert_same(results[0], private_nn_over_private(private, area))
    _assert_same(results[1], private_nn_over_private(private, area, policy=loose))
    _assert_same(results[2], private_nn_over_private(private, area, policy=strict))
    # All three share one A_EXT.
    assert (
        results[0].search_region
        == results[1].search_region
        == results[2].search_region
    )


def test_runs_are_isolated_from_index_mutations(indexes, rng):
    public, private = indexes
    engine = BatchQueryEngine(public, private)
    area = _areas(rng, 1)[0]
    first = engine.run([BatchRequest("nn_public", area)])[0]
    public.insert_point("late", area.center)
    second = engine.run([BatchRequest("nn_public", area)])[0]
    _assert_same(second, private_nn_over_public(public, area))
    assert "late" in second.oids()
    assert "late" not in first.oids()


def test_invalid_requests_rejected(indexes):
    public, private = indexes
    with pytest.raises(ValueError):
        BatchRequest("teleport", UNIT)
    with pytest.raises(ValueError):
        BatchRequest("knn_public", UNIT, k=0)
    with pytest.raises(ValueError):
        BatchRequest("range_public", UNIT, radius=-1.0)
    engine = BatchQueryEngine(public_index=public)  # no private index
    with pytest.raises(ValueError):
        engine.run([BatchRequest("nn_private", UNIT)])


def test_empty_batch(indexes):
    public, private = indexes
    assert BatchQueryEngine(public, private).run([]) == []


def test_casper_query_batch_matches_facade(rng):
    casper = Casper(UNIT, pyramid_height=6, anonymizer="basic")
    np_rng = np.random.default_rng(7)
    casper.add_public_targets(
        {
            f"station-{i}": Point(float(x), float(y))
            for i, (x, y) in enumerate(np_rng.random((150, 2)))
        }
    )
    from repro.anonymizer import PrivacyProfile

    for uid, point in enumerate(random_points(rng, 60)):
        casper.register_user(uid, point, PrivacyProfile(k=4))
    specs = (
        [(uid, "nn_public") for uid in range(20)]
        + [(uid, "knn_public", 3) for uid in range(20, 40)]
        + [(uid, "range_public", 0.15) for uid in range(40, 60)]
    )
    batched = casper.query_batch(specs)
    assert len(batched) == 60
    for (uid, kind, *param), result in zip(specs, batched):
        if kind == "nn_public":
            single = casper.query_nearest_public(uid)
        elif kind == "knn_public":
            single = casper.query_k_nearest_public(uid, param[0])
        else:
            single = casper.query_range_public(uid, param[0])
        assert result.candidates.items == single.candidates.items
        assert result.answer == single.answer


def test_casper_query_batch_rejects_private_kinds():
    casper = Casper(UNIT, pyramid_height=5)
    from repro.anonymizer import PrivacyProfile

    casper.register_user(0, Point(0.5, 0.5), PrivacyProfile(k=1))
    casper.add_public_target("t", Point(0.1, 0.1))
    with pytest.raises(ValueError):
        casper.query_batch([(0, "nn_private")])
    assert casper.query_batch([]) == []
