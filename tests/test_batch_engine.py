"""Batch query engine: output must be item-for-item identical to the
per-query processor functions, for every query type and policy."""

from __future__ import annotations

from contextlib import nullcontext
from itertools import product

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.errors import EmptyDatasetError
from repro.geometry import Point, Rect
from repro.observability import runtime as telemetry
from repro.processor import (
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
from repro.processor.executor import QUERY_TYPES, answer
from repro.server import Casper, LocationServer
from repro.server.codec import encode_candidate_list
from repro.spatial import BruteForceIndex, RTreeIndex
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
    "nn_public": (private_nn_over_public, "nn_public", [{"num_filters": n} for n in (1, 2, 4)]),
    "nn_private": (
        private_nn_over_private, "nn_private",
        [{"num_filters": n} for n in (1, 2, 4)] + [{"num_filters": 4, "policy": POLICY}],
    ),
    "knn_public": (
        private_knn_over_public, "knn_public", [{"k": 5, "num_filters": n} for n in (1, 4)]
    ),
    "knn_private": (
        private_knn_over_private, None,
        [{"k": 3, "num_filters": n, "policy": POLICY} for n in (1, 4)],
    ),
    "range_public": (private_range_over_public, "range_public", [{"radius": 0.1}]),
    "range_private": (
        private_range_over_private, "range_private", [{"radius": 0.1, "policy": POLICY}]
    ),
}


def _phases_recorded(run):
    """Label sets of the processor phase histograms ``run`` touched."""
    with telemetry.enabled() as obs:
        run()
        return {m.labels for m in obs.metrics if m.name == "casper_processor_phase_seconds"}


def test_batch_matches_per_query_functions(rng):
    """A run_batch request gives the per-query function's candidate
    list; a cold server times the function's Algorithm 2 phases, and a
    warm repeat only the candidate step.  (The LocationServer methods:
    ``test_no_write_path_leaves_a_stale_memo``.)"""
    assert set(ENTRY_POINTS) == set(QUERY_TYPES)
    server = LocationServer()
    for oid, point in enumerate(random_points(rng, 250)):
        server.add_public(f"p{oid}", point)
    server.store_private(
        (f"u{oid}", rect) for oid, rect in enumerate(random_rects(rng, 250, max_side=0.05))
    )
    for kind, (function, _method, rows) in ENTRY_POINTS.items():
        index = server.public_index if kind.endswith("public") else server.private_index
        for arguments in rows:
            areas = _areas(rng)  # unseen by the server's memo: a cold server
            requests = [BatchRequest(kind, area, **arguments) for area in areas]
            single = _phases_recorded(lambda: function(index, areas[0], **arguments))
            assert single, kind
            batched = []
            assert _phases_recorded(lambda: batched.extend(server.run_batch(requests))) == single
            assert _phases_recorded(lambda: server.run_batch(requests)) == {
                labels for labels in single if ("phase", "candidates") in labels
            }
            for area, got in zip(areas, batched):
                _assert_same(got, function(index, area, **arguments))


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


#: Every write path but ``hidden``: (index, the step's pairs, an oid it holds).
_WRITES = {
    "insert": lambda index, pairs, held: index.insert(*pairs[0]),
    "insert_many": lambda index, pairs, held: index.insert_many(pairs),
    "remove": lambda index, pairs, held: index.remove(held),
    "clear": lambda index, pairs, held: index.clear(),
    "bulk_load": lambda index, pairs, held: index.bulk_load(dict(pairs)),
}
_AREAS = (Rect(0.15, 0.15, 0.35, 0.3), Rect(0.5, 0.45, 0.7, 0.7))
_SPOTS = st.tuples(st.integers(0, 11), st.integers(0, 9), st.integers(0, 9))


def _outcome(call):
    """A candidate list's wire bytes and ``A_EXT``; None for no targets."""
    try:
        found = call()
    except EmptyDatasetError:
        return None
    return encode_candidate_list(found), found.search_region


def _sweep(server, row, batched):
    """Every query kind over each area, held to the memo-free executor."""
    for area, (kind, (_function, method, rows)) in product(_AREAS, ENTRY_POINTS.items()):
        arguments = rows[row % len(rows)]
        request = BatchRequest(kind, area, **arguments)
        index = server.public_index if kind.endswith("public") else server.private_index
        if batched or method is None:
            got = _outcome(lambda: server.run_batch([request])[0])
        else:
            got = _outcome(lambda: getattr(server, method)(area, **arguments))
        assert got == _outcome(lambda: answer(index, request)), kind


@pytest.mark.parametrize("factory", [RTreeIndex, BruteForceIndex])
@settings(max_examples=40, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(
    row=st.integers(0, 3),
    start=st.lists(_SPOTS, min_size=4, max_size=12),
    steps=st.lists(
        st.tuples(
            st.sampled_from(sorted([*_WRITES, "hidden", "buddy"])), st.booleans(),
            st.lists(_SPOTS, min_size=1, max_size=6), st.booleans(),
        ),
        max_size=16,
    ),
)
def test_no_write_path_leaves_a_stale_memo(factory, row, start, steps):
    """The server's memo outlives a request, so after any write through any
    write path, every answer, single, batched or a buddy query (for an oid
    held or not), must be the memo-free executor's on the same index."""
    server = LocationServer(factory)
    for step, public, spots, batched in [("bulk_load", p, start, False) for p in (1, 0)] + steps:
        index = server.public_index if public else server.private_index
        side = 0.0 if public else 0.06
        pairs = [(oid, Rect(x / 10, y / 10, x / 10 + side, y / 10 + side)) for oid, x, y in spots]
        held = [oid for oid, _rect in index.items()]
        victim = held[spots[0][0] % len(held)] if held else None
        if step == "buddy":
            index, buddy, area = server.private_index, spots[0][0], _AREAS[public]
            got = _outcome(lambda: server.nn_private(area, exclude=buddy))
            with index.hidden(buddy) if buddy in index else nullcontext():
                assert got == _outcome(lambda: answer(index, BatchRequest("nn_private", area)))
        elif step == "hidden" and held:
            with index.hidden(victim):
                _sweep(server, row, batched)
        elif step in _WRITES and (held or step != "remove"):
            _WRITES[step](index, pairs, victim)
        _sweep(server, row, batched)


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
    xy = np.random.default_rng(7).random((150, 2)).tolist()
    casper.add_public_targets({f"station-{i}": Point(x, y) for i, (x, y) in enumerate(xy)})
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
    facade = {"nn_public": casper.query_nearest_public, "range_public": casper.query_range_public,
              "knn_public": casper.query_k_nearest_public}
    for (uid, kind, *param), result in zip(specs, batched):
        single = facade[kind](uid, *param)
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
