#!/usr/bin/env python
"""Hot-path engine benchmarks.

Times the four optimizations of the query-engine performance pass and
writes the measurements to ``BENCH_engine.json`` so future changes can
track the trajectory:

* **cloak** — anonymizer cloak throughput on a co-located workload
  (many users sharing cells and profiles), cached vs. the uncached
  seed path (``cloak_cache_size=0``), and the cached path's speed with
  telemetry on over off (``telemetry_speed``);
* **knn_private** — ``private_knn_over_private`` latency with the
  pruned ``k_nearest_by_max_distance`` search vs. the seed's
  sort-every-target ``_kth_distances_private``;
* **nn_latency** — plain private-NN-over-public latency (context
  number, no baseline); ``warm_speedup``, the same areas through one
  ``LocationServer`` twice, the cold pass's time over the warm pass's
  (the second pass is answered from the server's per-version memo);
  and the anchor step alone: µs per anchor of the public min-distance
  search at k = 1 and k = 10 and the private max-distance search at
  k = 1, four vertices at a time;
* **batch** — ``BatchQueryEngine`` over a duplicate-heavy request
  stream vs. the same stream issued one query at a time, with the
  distinct cloaks and anchors one run holds (reported, not gated);
* **shard_scaling** — the in-process shard surface's own price: the
  bare engine vs the 1-shard deployment on the same script
  (``fleet_vs_engine``), and the aggregate cloak-cache hit rate at
  N = 1/2/4/8 shards (gated for equality);
* **shard_parallel** — the multi-process shard runtime at
  N = 1/2/4/8 worker processes, paired-chunk ratios for cloak and
  update throughput, and what the timed update phase puts on the
  parent→worker pipes (envelopes and bytes per move, gated for
  equality);
* **continuous_mobility** — re-query rate of the safe-region
  continuous-kNN monitor vs the naive re-issue-every-tick client on
  the commuter trajectory workload (identical recorded ticks, refined
  answers asserted equal at the end);
* **candidate_codec** — the columnar candidate list (the candidate
  step out of an R-tree, encode, decode and the three local
  refinements) vs the scalar per-pair definitions kept in
  ``tests/reference_candidates.py``, µs per list at 200 / 400 / 600
  records (lists, bytes and answers asserted identical);
* **adaptive_maintenance** — the adaptive cut's splits, merges, cell
  changes, counter updates per update and quiet-move share on a seeded
  hotspot trace where every user moves each tick, single and through
  the 4-shard replicated deployment (gated for equality), with
  adaptive, replicated and basic ``update_batch`` moves per second
  beside them.

Usage::

    PYTHONPATH=src python tools/bench.py [--quick] [--out PATH]
        [--repeats N] [--telemetry [PATH]] [--only NAME ...]

``--quick`` shrinks every workload for CI smoke runs.  ``--repeats``
runs every benchmark N times and reports the run with the *median*
gated statistic — single-shot timings of the quick workloads are noisy
enough (2x run-to-run swings on the cloak ratio) to trip a 25%
regression gate on pure jitter.  ``--telemetry`` runs the benchmarks
with the observability layer *enabled* (the instrumented configuration,
which ``tools/bench_gate.py`` holds to the same reference bar the
ratios telemetry moves) and writes the privacy-screened telemetry
snapshot next to the report.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys
import time
from pathlib import Path

import numpy as np

REPO_ROOT = Path(__file__).resolve().parent.parent
# src/ for the package, the root for the scalar oracles under tests/.
sys.path[:0] = [str(REPO_ROOT / "src"), str(REPO_ROOT)]

from repro.anonymizer import BasicAnonymizer, PrivacyProfile  # noqa: E402
from repro.anonymizer.cloak import BatchCloaking, bottom_up_cloaks  # noqa: E402
from repro.geometry import Point, Rect  # noqa: E402
from repro.observability import disable, enable, enabled  # noqa: E402
from repro.processor import (  # noqa: E402
    BatchQueryEngine,
    BatchRequest,
    private_nn_over_private,
    private_nn_over_public,
    private_knn_over_private,
)
from repro.processor.knn import _anchors, _extended_region  # noqa: E402
from repro.server import LocationServer  # noqa: E402
from repro.spatial import RTreeIndex  # noqa: E402
from repro.utils.rng import ensure_rng  # noqa: E402

BOUNDS = Rect(0.0, 0.0, 1.0, 1.0)


def _timed(fn, *args, **kwargs):
    start = time.perf_counter()
    result = fn(*args, **kwargs)
    return time.perf_counter() - start, result


# ----------------------------------------------------------------------
# 1. Cloak throughput: co-located users, cached vs uncached
# ----------------------------------------------------------------------
def bench_cloak(quick: bool) -> dict:
    num_groups = 20 if quick else 50
    users_per_group = 20 if quick else 100
    rounds = 3 if quick else 5
    rng = ensure_rng(0)
    points = [
        Point(float(rng.random()), float(rng.random())) for _ in range(num_groups)
    ]
    # Strict profiles make Algorithm 1 climb several pyramid levels per
    # cloak (the realistic worst case the cache is for); relaxed
    # profiles stop at the first cell and leave nothing to save.
    profile = PrivacyProfile(k=50 if quick else 200)

    def populate(cache_size: int) -> BasicAnonymizer:
        anon = BasicAnonymizer(BOUNDS, height=8, cloak_cache_size=cache_size)
        uid = 0
        for point in points:
            for _ in range(users_per_group):
                anon.register(uid, point, profile)
                uid += 1
        return anon

    def drain(anon: BasicAnonymizer) -> float:
        uids = list(range(num_groups * users_per_group))
        start = time.perf_counter()
        for _ in range(rounds):
            for uid in uids:
                anon.cloak(uid)
        return time.perf_counter() - start

    # The per-tick re-cloak: the same number of users, scattered; each
    # round the first `size` are moved (untimed: into fresh cells, so
    # each is a cache miss) and cloaked again — everyone by one
    # `cloak_many` — and, 2-32 rows at a time, climbed by the kernel
    # alone (`bottom_up_cloaks` on their table columns) and then
    # cloaked by the `cloak` loop, to find the batch size from which
    # the kernel stays the faster of the two (what `_KERNEL_ROWS` in
    # anonymizer/basic.py is set from).
    num_users = num_groups * users_per_group
    scattered = BasicAnonymizer(BOUNDS, height=8)
    for uid in range(num_users):
        scattered.register(uid, Point(float(rng.random()), float(rng.random())), profile)
    everyone = list(range(num_users))
    table, levels = scattered.table, scattered._soa

    def retick(size: int) -> list[int]:
        for uid, (x, y) in enumerate(rng.random((size, 2)).tolist()):
            scattered.update(uid, Point(x, y))
        return everyone[:size]

    def kernel_wins(size: int) -> bool:
        kernel_s = loop_s = float("inf")
        for _ in range(4 * rounds):
            slots = table.slots_array(retick(size))
            rows = table.cells[slots], table.ks[slots], table.a_mins[slots]
            kernel_s = min(kernel_s, _timed(
                bottom_up_cloaks, scattered.grid, levels.counts, levels.gens, *rows
            )[0])
            loop_s = min(loop_s, _timed(
                BatchCloaking.cloak_many, scattered, everyone[:size]
            )[0])
        return kernel_s < loop_s

    batch_s = min(
        _timed(scattered.cloak_many, retick(num_users))[0] for _ in range(rounds)
    )
    sizes = (2, 3, 4, 5, 6, 7, 8, 10, 12, 16, 24, 32)
    losing = [i for i, size in enumerate(sizes) if not kernel_wins(size)]
    crossover = sizes[min(losing[-1] + 1, len(sizes) - 1)] if losing else sizes[0]

    cached = populate(8192)
    uncached = populate(0)
    cached_s = drain(cached)
    uncached_s = drain(uncached)
    cloaks = num_users * rounds
    # Telemetry's own price: the cached drain with the observability
    # layer off, then on in a session of its own, whatever --telemetry
    # says (an instrumented cloak pays the same few µs however cheap
    # the cloak, so the cached path shows it most).
    outer = disable()
    try:
        plain_s = drain(populate(8192))
        with enabled():
            instrumented_s = drain(populate(8192))
    finally:
        if outer is not None:
            enable(outer)
    return {
        "num_users": num_users,
        "co_located_groups": num_groups,
        "cloaks_timed": cloaks,
        "cached_seconds": cached_s,
        "uncached_seconds": uncached_s,
        "cached_cloaks_per_second": cloaks / cached_s,
        "uncached_cloaks_per_second": cloaks / uncached_s,
        "batch_uncached_cloaks_per_second": num_users / batch_s,
        "batch_speedup": (num_users / batch_s) / (cloaks / uncached_s),
        "kernel_crossover_rows": crossover,
        "speedup": uncached_s / cached_s,
        "cache_hit_rate": cached.cloak_cache.hit_rate,
        "telemetry_speed": plain_s / instrumented_s,
    }


# ----------------------------------------------------------------------
# 2. Pruned kNN vs the seed's full sort
# ----------------------------------------------------------------------
def _kth_distance_full_sort(index, anchor, k):
    """The seed implementation: sort every stored region by pessimistic
    distance and take the k-th."""
    dists = sorted(
        rect.max_distance_to_point(anchor) for _oid, rect in index.items()
    )
    return dists[k - 1]


def _knn_private_full_sort(index, cloaked_area, k, num_filters=4):
    k = min(k, len(index))
    a_ext = _extended_region(
        cloaked_area,
        [_kth_distance_full_sort(index, v, k) for v in _anchors(cloaked_area, num_filters)],
    )
    candidates = [(oid, index.rect_of(oid)) for oid in index.range_search(a_ext)]
    return tuple(sorted(candidates, key=lambda item: str(item[0])))


def bench_knn(quick: bool) -> dict:
    num_targets = 2_000 if quick else 10_000
    num_queries = 10 if quick else 30
    k = 10
    rng = ensure_rng(1)
    index = RTreeIndex()
    entries = {}
    for oid in range(num_targets):
        x, y = float(rng.random()) * 0.95, float(rng.random()) * 0.95
        w, h = float(rng.uniform(0.001, 0.02)), float(rng.uniform(0.001, 0.02))
        entries[oid] = Rect(x, y, x + w, y + h)
    index.bulk_load(entries)
    areas = []
    for _ in range(num_queries):
        x, y = float(rng.random()) * 0.9, float(rng.random()) * 0.9
        areas.append(Rect(x, y, x + 0.05, y + 0.05))

    pruned_s, pruned_out = _timed(
        lambda: [private_knn_over_private(index, a, k).items for a in areas]
    )
    full_s, full_out = _timed(
        lambda: [_knn_private_full_sort(index, a, k) for a in areas]
    )
    assert pruned_out == full_out, "pruned kNN diverged from the full-sort oracle"
    return {
        "num_targets": num_targets,
        "num_queries": num_queries,
        "k": k,
        "pruned_seconds": pruned_s,
        "full_sort_seconds": full_s,
        "speedup": full_s / pruned_s,
    }


# ----------------------------------------------------------------------
# 3. NN latency context number
# ----------------------------------------------------------------------
def bench_nn_latency(quick: bool) -> dict:
    num_targets = 2_000 if quick else 10_000
    num_queries = 50 if quick else 200
    rng = ensure_rng(2)
    targets = {
        oid: Rect.point(Point(float(rng.random()), float(rng.random())))
        for oid in range(num_targets)
    }
    index = RTreeIndex()
    index.bulk_load(targets)
    areas = []
    for _ in range(num_queries):
        x, y = float(rng.random()) * 0.9, float(rng.random()) * 0.9
        areas.append(Rect(x, y, x + 0.04, y + 0.04))
    total_s, _ = _timed(lambda: [private_nn_over_public(index, a) for a in areas])
    # The same areas through one server twice: the cold pass computes
    # each area's (A_EXT, filter oids), the warm pass finds them in the
    # server's memo at the same index version.  Best of three servers.
    cold_s = warm_s = float("inf")
    for _ in range(3):
        server = LocationServer()
        server.public_index.bulk_load(targets)
        cold_s = min(cold_s, _timed(lambda: [server.nn_public(a) for a in areas])[0])
        warm_s = min(warm_s, _timed(lambda: [server.nn_public(a) for a in areas])[0])
    # The anchor step alone, as Algorithm 2 issues it: the four vertices
    # of each area searched together, public data by min-distance and
    # private data (cloak-sized grid cells, ties included) by
    # max-distance; best of five passes, in µs per anchor.
    private = RTreeIndex()
    private.bulk_load({oid: _cloak_cell(rng) for oid in range(3_000)})
    vertices = [area.vertices() for area in areas]

    def per_anchor(search, k: int) -> float:
        best = min(
            _timed(lambda: [search(anchors, k) for anchors in vertices])[0]
            for _ in range(5)
        )
        return best / (4 * num_queries) * 1e6

    return {
        "num_targets": num_targets,
        "num_queries": num_queries,
        "mean_latency_ms": total_s / num_queries * 1e3,
        "warm_speedup": cold_s / warm_s,
        "private_targets": len(private),
        "anchor_us": {
            "public_k1": per_anchor(index.k_nearest_each, 1),
            "public_k10": per_anchor(index.k_nearest_each, 10),
            "private_k1": per_anchor(private.k_nearest_by_max_distance_each, 1),
        },
    }


def _cloak_cell(rng) -> Rect:
    """A cell of a pyramid level 5-7, the size of a typical cloak."""
    side = 0.5 ** int(rng.integers(5, 8))
    x, y = (np.floor(rng.random(2) / side) * side).tolist()
    return Rect(x, y, x + side, y + side)


# ----------------------------------------------------------------------
# 4. Batch vs sequential on a duplicate-heavy stream
# ----------------------------------------------------------------------
# 5. Shard scaling: the sharded runtime vs its own single-shard case
# ----------------------------------------------------------------------
def bench_shard_scaling(quick: bool) -> dict:
    """The price of the in-process shard surface, at N = 1/2/4/8 shards.

    One identical workload per shard count: local (within-block) moves
    concentrated in a single spatial block, interleaved with cloak
    bursts spread over the whole population.  The in-process deployment
    is the wrapped pyramid plus homes and occupancy, so its one cloak
    cache reports the same aggregate hit rate at every N — gated for
    exact equality, since it depends only on the seeded script.  The
    surface's price is ``fleet_vs_engine``: the bare engine against the
    1-shard deployment on the same script, medians over the scripted
    chunks of the per-chunk quotient, so it survives host changes and a
    slow burst landing on one arm.
    """
    import statistics

    from repro.anonymizer.policy import get_policy
    from repro.sharding import make_sharded

    num_users = 2_000 if quick else 10_000
    height = 7
    chunks = 30 if quick else 50
    moves_per_chunk = 25 if quick else 50
    cloaks_per_chunk = 100 if quick else 200
    shard_counts = (1, 2, 4, 8)
    profile = PrivacyProfile(k=25)

    rng = ensure_rng(4)
    homes = [
        Point(float(rng.random()), float(rng.random())) for _ in range(num_users)
    ]
    # Movers live in one level-2 block ([0, 0.25)^2), so their updates
    # land on exactly one shard at every N here; tiny jitters keep each
    # move inside the block (and its epoch bump inside that shard).
    movers = [uid for uid, p in enumerate(homes) if p.x < 0.25 and p.y < 0.25]

    def jittered_moves() -> list:
        script = []
        for _ in range(chunks * moves_per_chunk):
            uid = movers[int(rng.integers(len(movers)))]
            home = homes[uid]
            script.append(
                (
                    uid,
                    Point(
                        min(0.249, max(0.001, home.x + float(rng.uniform(-0.002, 0.002)))),
                        min(0.249, max(0.001, home.y + float(rng.uniform(-0.002, 0.002)))),
                    ),
                )
            )
        return script

    move_script = jittered_moves()
    # Cloak bursts sample a "hot" quarter of the population spread over
    # every shard: their cache entries stay resident, so the timed path
    # is dominated by revalidation cost.
    hot = [uid for uid in range(num_users) if uid % 4 == 0]
    cloak_script = [
        hot[int(rng.integers(len(hot)))] for _ in range(chunks * cloaks_per_chunk)
    ]

    # A second, untouched move script for the batched-update pass of the
    # fleet-vs-engine row (drawn last, so the scripts above — and the
    # hit-rate tables they determine — are what they always were).
    batch_script = jittered_moves()

    def chunk_of(script: list, chunk: int, size: int) -> list:
        return script[chunk * size : (chunk + 1) * size]

    def run(deployment) -> dict[str, list[float]]:
        """The scripted workload on one deployment: per-chunk seconds
        of the scalar-update and cloak phases, per-move seconds of the
        batched-update phase (a deduplicated chunk varies in size)."""
        for uid, point in enumerate(homes):
            deployment.register(uid, point, profile)
        for uid in cloak_script[:cloaks_per_chunk]:  # warm the caches
            deployment.cloak(uid)
        times: dict[str, list[float]] = {"update": [], "cloak": [], "batch": []}
        for chunk in range(chunks):
            start = time.perf_counter()
            for uid, point in chunk_of(move_script, chunk, moves_per_chunk):
                deployment.update(uid, point)
            times["update"].append(time.perf_counter() - start)
            start = time.perf_counter()
            for uid in chunk_of(cloak_script, chunk, cloaks_per_chunk):
                deployment.cloak(uid)
            times["cloak"].append(time.perf_counter() - start)
        for chunk in range(chunks):
            # A chunk may name a mover twice; the kernel takes distinct
            # users, so keep each user's last move of the chunk.
            batch = list(dict(chunk_of(batch_script, chunk, moves_per_chunk)).items())
            start = time.perf_counter()
            deployment.update_batch(batch)
            times["batch"].append((time.perf_counter() - start) / len(batch))
        deployment.check_invariants()
        return times

    # One deployment at a time, each with the CPU caches to itself
    # (interleaving them chunk by chunk was tried: five working sets
    # evicting each other flatten the very effect being measured).
    engine_times = run(get_policy("basic").single(BOUNDS, height, 8192))
    per_shard: dict[str, dict] = {}
    fleet_times: dict[int, dict[str, list[float]]] = {}
    for num_shards in shard_counts:
        fleet = make_sharded(
            BOUNDS, height=height, num_shards=num_shards, kind="basic"
        )
        fleet_times[num_shards] = times = run(fleet)
        counters = fleet.cache_stats()
        lookups = counters["hits"] + counters["misses"]
        per_shard[str(num_shards)] = {
            "spine_level": fleet.router.spine_level,
            "update_ops_per_second": chunks * moves_per_chunk / sum(times["update"]),
            "query_cloaks_per_second": chunks * cloaks_per_chunk / sum(times["cloak"]),
            "cache_hit_rate": counters["hits"] / lookups if lookups else 0.0,
        }

    # The shard layer's own price: the 1-shard deployment (the same
    # cache, the same kernels) against the bare engine on the same
    # script — medians of per-chunk quotients, engine time / fleet
    # time, so 1.0 means free and a second implementation of the
    # pyramid underneath the surface would read ~0.25.
    per_op = {"update": moves_per_chunk, "cloak": cloaks_per_chunk, "batch": 1}
    fleet_vs_engine = {
        phase: {
            "engine_us": 1e6 * statistics.median(engine_times[phase]) / ops,
            "fleet_us": 1e6 * statistics.median(fleet_times[1][phase]) / ops,
            "engine_over_fleet": statistics.median(
                e / f for e, f in zip(engine_times[phase], fleet_times[1][phase])
            ),
        }
        for phase, ops in per_op.items()
    }

    return {
        "num_users": num_users,
        "height": height,
        "kind": "basic",
        "moves_timed": chunks * moves_per_chunk,
        "cloaks_timed": chunks * cloaks_per_chunk,
        "shards": per_shard,
        "fleet_vs_engine_us": fleet_vs_engine,
        "fleet_vs_engine": min(
            row["engine_over_fleet"] for row in fleet_vs_engine.values()
        ),
    }


# ----------------------------------------------------------------------
# 6. Batch vs sequential on a duplicate-heavy stream
# ----------------------------------------------------------------------
def bench_batch(quick: bool) -> dict:
    num_targets = 1_000 if quick else 5_000
    num_requests = 100 if quick else 400
    num_distinct = 8 if quick else 16
    rng = ensure_rng(3)
    index = RTreeIndex()
    entries = {}
    for oid in range(num_targets):
        x, y = float(rng.random()) * 0.95, float(rng.random()) * 0.95
        entries[oid] = Rect(x, y, x + 0.01, y + 0.01)
    index.bulk_load(entries)
    distinct = []
    for _ in range(num_distinct):
        x, y = float(rng.random()) * 0.9, float(rng.random()) * 0.9
        distinct.append(Rect(x, y, x + 0.05, y + 0.05))
    areas = [distinct[int(rng.integers(num_distinct))] for _ in range(num_requests)]
    requests = [BatchRequest("nn_private", a) for a in areas]

    engine = BatchQueryEngine(private_index=index)
    batch_s, batch_out = _timed(engine.run, requests)
    # What one descent per run (rather than per request) would share:
    # the run's distinct cloaks and the anchors their searches need.
    distinct = set(requests)
    cloaks = {request.cloaked_area for request in distinct}
    anchors = sum(
        request.num_filters for request in distinct
        if not request.query_type.startswith("range")
    )
    seq_s, seq_out = _timed(
        lambda: [private_nn_over_private(index, a) for a in areas]
    )
    assert [c.items for c in batch_out] == [c.items for c in seq_out]
    return {
        "num_targets": num_targets,
        "num_requests": num_requests,
        "num_distinct_areas": num_distinct,
        "batch_seconds": batch_s,
        "sequential_seconds": seq_s,
        "speedup": seq_s / batch_s,
        "dedup_rate": engine.dedup_rate,
        "distinct_cloaks_per_run": len(cloaks),
        "anchors_per_run": anchors,
    }


# ----------------------------------------------------------------------
# 7. Process-pool scaling: parallel shard workers vs one worker
# ----------------------------------------------------------------------
def bench_shard_parallel(quick: bool) -> dict:
    """Throughput scaling of the multi-process shard runtime.

    Same workload shape as ``shard_scaling`` — block-confined movers
    plus cloak bursts over a hot set — but run through
    ``ParallelShardedAnonymizer`` (one OS process per shard, batched
    frames over the wire).  Cloak scaling comes from cache capacity and
    invalidation locality: every worker owns a full-size cloak cache,
    and the mover block's epoch churn stays inside one worker while the
    hot set (drawn from *non*-movers) revalidates everywhere else.
    Update scaling is a no-regression check: batched per-shard dispatch
    must keep an 8-worker tick at least as fast as a 1-worker tick.

    Every fleet stays open for the whole run and each scripted chunk is
    timed on every fleet back-to-back; the gated ratios are medians of
    *per-chunk paired quotients*, so host-load drift during the run
    cancels out instead of landing on one arm.

    The move script draws movers with replacement, so its chunks name
    users twice and every ``update_batch`` on the way takes its
    arrival-order fallback: the update rows time that fallback.  What
    the timed update phase sends down the parent→worker pipes —
    envelopes and bytes per move, frame headers and CRCs included — is
    counted by a pass-through transmit seam; the counts depend only on
    the seeded script, so ``bench_gate.EXACT_COUNTERS`` holds them equal
    to the reference.
    """
    import statistics

    from repro.resilience.faults import Delivery
    from repro.sharding import make_sharded

    class PipeCounter:
        """Pass every frame through untouched, counting the request
        frames' envelopes (the header's uint16 at offset 6) and bytes."""

        def __init__(self) -> None:
            self.envelopes = self.bytes = 0

        def transmit(self, channel: str, payload: bytes) -> list:
            if channel.startswith("shard:"):
                self.envelopes += int.from_bytes(payload[6:8], "little")
                self.bytes += len(payload)
            return [Delivery(payload)]

    num_users = 6_000 if quick else 16_000
    height = 8
    cache_size = 1_024
    shard_counts = (1, 8) if quick else (1, 2, 4, 8)
    update_chunks = 10 if quick else 20
    moves_per_chunk = 400 if quick else 500
    cloak_chunks = 8 if quick else 12
    cloaks_per_chunk = 800 if quick else 1_200
    churn_per_chunk = 50
    hot_size = 2_600 if quick else 4_000
    profile = PrivacyProfile(k=150 if quick else 300)

    rng = ensure_rng(5)
    homes = [
        Point(float(rng.random()), float(rng.random())) for _ in range(num_users)
    ]
    # Movers stay inside one level-2 block so every move is confined to
    # its owning worker; the hot cloak set avoids movers entirely, so
    # its cache entries only churn through LRU capacity pressure.
    movers = [uid for uid, p in enumerate(homes) if p.x < 0.25 and p.y < 0.25]
    mover_set = set(movers)
    non_movers = [uid for uid in range(num_users) if uid not in mover_set]
    hot = [
        non_movers[int(rng.integers(len(non_movers)))] for _ in range(hot_size)
    ]
    total_moves = (update_chunks + cloak_chunks) * max(
        moves_per_chunk, churn_per_chunk
    )
    move_script = []
    for _ in range(total_moves):
        uid = movers[int(rng.integers(len(movers)))]
        home = homes[uid]
        move_script.append(
            (
                uid,
                Point(
                    min(0.249, max(0.001, home.x + float(rng.uniform(-0.002, 0.002)))),
                    min(0.249, max(0.001, home.y + float(rng.uniform(-0.002, 0.002)))),
                ),
            )
        )
    cloak_script = [
        hot[int(rng.integers(len(hot)))]
        for _ in range(cloak_chunks * cloaks_per_chunk)
    ]

    fleets: dict[int, object] = {}
    pipes = {n: PipeCounter() for n in shard_counts}
    update_times: dict[int, list[float]] = {n: [] for n in shard_counts}
    cloak_times: dict[int, list[float]] = {n: [] for n in shard_counts}
    per_shard: dict[str, dict] = {}
    try:
        for num_shards in shard_counts:
            fleet = make_sharded(
                BOUNDS,
                height=height,
                num_shards=num_shards,
                kind="basic",
                cloak_cache_size=cache_size,
                parallel=True,
            )
            fleets[num_shards] = fleet
            for uid, point in enumerate(homes):
                fleet.register(uid, point, profile)
            # Registrations broadcast; drain them before any timed phase
            # so the first chunk doesn't pay for setup.
            fleet.flush()

        # Phase 1: pure update ticks, every fleet timed on each chunk.
        for num_shards in shard_counts:
            fleets[num_shards].attach_injector(pipes[num_shards])
        for chunk in range(update_chunks):
            batch = move_script[
                chunk * moves_per_chunk : (chunk + 1) * moves_per_chunk
            ]
            for num_shards in shard_counts:
                # Moves queue in the parent until a read or a flush
                # delivers them; the row measures delivery too.
                start = time.perf_counter()
                fleets[num_shards].update_batch(batch)
                fleets[num_shards].flush()
                update_times[num_shards].append(time.perf_counter() - start)
        for num_shards in shard_counts:
            fleets[num_shards].attach_injector(None)

        # Phase 2: cloak bursts under background churn.  One full warm
        # pass first — the hot set fits each 8-worker cache but
        # overflows the single 1-worker cache, which is the contrast
        # being measured, not first-touch misses.
        for num_shards in shard_counts:
            fleets[num_shards].cloak_many(hot)
        churn_base = update_chunks * moves_per_chunk
        for chunk in range(cloak_chunks):
            churn = move_script[
                churn_base
                + chunk * churn_per_chunk : churn_base
                + (chunk + 1) * churn_per_chunk
            ]
            batch = cloak_script[
                chunk * cloaks_per_chunk : (chunk + 1) * cloaks_per_chunk
            ]
            for num_shards in shard_counts:
                fleets[num_shards].update_batch(churn)  # untimed churn,
                fleets[num_shards].flush()  # delivered before the timer
                start = time.perf_counter()
                fleets[num_shards].cloak_many(batch)
                cloak_times[num_shards].append(time.perf_counter() - start)

        for num_shards in shard_counts:
            fleet = fleets[num_shards]
            fleet.check_invariants()
            per_core = fleet.cache_stats_per_shard()

            def hit_rate(counters: dict[str, int]) -> float:
                lookups = counters["hits"] + counters["misses"]
                return counters["hits"] / lookups if lookups else 0.0

            total = {
                key: sum(c[key] for c in per_core.values())
                for key in ("hits", "misses")
            }
            per_shard[str(num_shards)] = {
                "workers": num_shards,
                "spine_level": fleet.router.spine_level,
                "update_ops_per_second": moves_per_chunk
                / statistics.median(update_times[num_shards]),
                "query_cloaks_per_second": cloaks_per_chunk
                / statistics.median(cloak_times[num_shards]),
                "cache_hit_rate": hit_rate(total),
                "cache_hit_rate_per_shard": {
                    name: hit_rate(counters)
                    for name, counters in sorted(per_core.items())
                },
            }
    finally:
        for fleet in fleets.values():
            fleet.close()

    def paired_ratio(times: dict[int, list[float]]) -> float:
        return statistics.median(
            t1 / t8 for t1, t8 in zip(times[1], times[8])
        )

    return {
        "num_users": num_users,
        "height": height,
        "kind": "basic",
        "cloak_cache_size": cache_size,
        "moves_timed": update_chunks * moves_per_chunk,
        "cloaks_timed": cloak_chunks * cloaks_per_chunk,
        "hot_set": hot_size,
        "shards": per_shard,
        "cloak_scaling_8x": paired_ratio(cloak_times),
        "update_scaling_8x": paired_ratio(update_times),
        "pipe_envelopes_per_move": {
            str(n): pipe.envelopes / (update_chunks * moves_per_chunk)
            for n, pipe in pipes.items()
        },
        "pipe_bytes_per_move": {
            str(n): pipe.bytes / (update_chunks * moves_per_chunk)
            for n, pipe in pipes.items()
        },
    }


# ----------------------------------------------------------------------
# 8. Safe-region continuous kNN vs naive per-tick re-query
# ----------------------------------------------------------------------
#: The margins the sweep replays (multiples of the cloak's longer side);
#: the headline safe-region arm is the 0.25 row.
MARGIN_SWEEP = (0.0, 0.25, 0.5, 1.0, 1.5)


def bench_continuous_mobility(quick: bool) -> dict:
    """Server evaluations per tick for moving-kNN clients.

    One commuter trace is recorded once and replayed against identical
    Casper + monitor deployments: a **safe-region** arm per margin of
    :data:`MARGIN_SWEEP`, which re-queries only when a client's cloak
    exits its validity region, and the **naive** arm, which models
    clients that re-issue the query every tick (``mark_all_dirty``
    before each flush).  The gated ``evaluation_suppression`` ratio is
    kNN evaluations naive / safe at the headline margin — a same-run,
    dimensionless quotient of deterministic counters, so it is immune to
    host speed — and the counters beside it are gated for equality with
    the reference (``bench_gate.EXACT_COUNTERS``).  The honest costs of
    the trade are the sweep's columns: a wider margin re-queries less
    but ships larger candidate lists (the search region is inflated by
    twice the margin), so each row reads re-query rate, mean list size,
    candidate bytes shipped over the replay and seconds, against the
    naive arm's.  Refined exact answers of every arm are asserted
    identical to the naive arm's at the end of the replay.
    """
    from repro.continuous import ContinuousQueryMonitor
    from repro.server.casper import Casper
    from repro.server.codec import RECORD_SIZE
    from repro.server.database import LocationServer
    from repro.workloads import build_commuter_scenario, drive_trace

    num_users = 240 if quick else 600
    num_targets = 300 if quick else 800
    ticks = 12 if quick else 40
    num_queries = 60 if quick else 150
    k = 5
    height = 8
    # Moderate margin: the monitor's 1.5 default maximises suppression but
    # at this density inflates candidate lists to nearly the whole target
    # set; 0.25 keeps the bandwidth cost visible in the report honest.
    margin_factor = 0.25

    scenario = build_commuter_scenario(num_users, seed=21, k_range=(10, 50))
    initial = dict(sorted(scenario.positions().items()))
    tick_batches = [scenario.step() for _ in range(ticks)]
    final_positions = {u.uid: u.point for u in tick_batches[-1]}
    rng = ensure_rng(6)
    targets = {
        f"t{i:04d}": Point(float(rng.random()), float(rng.random()))
        for i in range(num_targets)
    }
    query_ids = [f"q{uid:04d}" for uid in range(num_queries)]

    class CountingServer(LocationServer):
        """Counts the candidate records each kNN evaluation ships."""

        records = 0

        def knn_public_with_validity(self, *args, **kwargs):
            result = super().knn_public_with_validity(*args, **kwargs)
            self.records += len(result.candidates)
            return result

    def replay(safe: bool, margin: float) -> dict:
        """Build one deployment, replay the trace, read its costs."""
        server = CountingServer()
        casper = Casper(
            BOUNDS, pyramid_height=height, anonymizer="adaptive", server=server
        )
        for uid, point in initial.items():
            casper.register_user(uid, point, scenario.profiles[uid])
        casper.add_public_targets(targets)
        monitor = ContinuousQueryMonitor(casper, validity_margin_factor=margin)
        for uid, query_id in enumerate(query_ids):
            monitor.register_knn(query_id, uid, k=k, safe_region=safe)
        server.records = 0  # the replay's lists only, not registration's
        seconds, report = _timed(
            drive_trace, monitor, tick_batches, naive_per_tick=not safe
        )
        sizes = [len(monitor.candidates_of(query_id)) for query_id in query_ids]
        return {
            "report": report,
            "seconds": seconds,
            "mean_candidates": sum(sizes) / len(sizes),
            "candidate_bytes": RECORD_SIZE * server.records,
            "answers": [
                monitor.candidates_of(query_id).refine_k_nearest(
                    final_positions[uid], k
                )
                for uid, query_id in enumerate(query_ids)
            ],
        }

    naive = replay(safe=False, margin=margin_factor)
    sweep = {margin: replay(safe=True, margin=margin) for margin in MARGIN_SWEEP}
    for arm in sweep.values():
        assert arm["answers"] == naive["answers"], (
            "safe-region refinement diverged from the per-tick oracle"
        )
    safe = sweep[margin_factor]
    safe_report, naive_report = safe["report"], naive["report"]

    return {
        "num_users": num_users,
        "num_targets": num_targets,
        "ticks": ticks,
        "queries": num_queries,
        "k": k,
        "validity_margin_factor": margin_factor,
        "naive_evaluations_per_tick": naive_report.knn_evaluations / ticks,
        "safe_evaluations_per_tick": safe_report.knn_evaluations / ticks,
        "evaluation_suppression": naive_report.knn_evaluations
        / max(1, safe_report.knn_evaluations),
        "requery_rate": safe_report.requery_rate,
        "suppressed_cloak_changes": safe_report.suppressed,
        "validity_exits": safe_report.validity_exits,
        "mean_validity_lifetime_ticks": safe_report.mean_validity_lifetime,
        "mean_candidates_safe": safe["mean_candidates"],
        "mean_candidates_naive": naive["mean_candidates"],
        "candidate_bytes_naive": naive["candidate_bytes"],
        "safe_seconds": safe["seconds"],
        "naive_seconds": naive["seconds"],
        "wall_clock_speedup": naive["seconds"] / safe["seconds"],
        "margin_sweep": [
            {
                "validity_margin_factor": margin,
                "requery_rate": arm["report"].requery_rate,
                "mean_candidates": arm["mean_candidates"],
                "candidate_bytes": arm["candidate_bytes"],
                "seconds": arm["seconds"],
            }
            for margin, arm in sweep.items()
        ],
    }


# ----------------------------------------------------------------------
# 9. Columnar candidate lists vs the scalar per-pair definitions
# ----------------------------------------------------------------------
def bench_candidate_codec(quick: bool) -> dict:
    """µs per list for the six things done to a candidate list between
    the index and the client's answer, on the column kernels and on the
    scalar definitions the tests hold them to — same records, same run,
    so the speedups are dimensionless.  The lists are collected from one
    R-tree of 10 000 entries (half points, half regions) whose string
    ids are in random spatial order, so the ``str(oid)`` order of a list
    is not its rows' order; a window is sized to catch exactly 200 / 400
    / 600 of them.  The scalar candidate step is ``sorted(key=str)``
    over the range result, a ``rect_of`` and a ``str(oid).encode()`` per
    id."""
    from repro.processor import CandidateList
    from repro.processor.executor import collect
    from repro.server.codec import decode_candidate_list, encode_candidate_list
    from tests import reference_candidates as scalar

    loops = 40 if quick else 200
    location, k = Point(0.5, 0.5), 5
    rng = ensure_rng(9)

    def best_us(fn) -> float:
        batches = [_timed(lambda: [fn() for _ in range(loops)])[0] for _ in range(5)]
        return 1e6 * min(batches) / loops

    entries = {}
    for number in rng.permutation(10_000).tolist():
        x, y = float(rng.random()), float(rng.random())
        side = 0.0 if number % 2 else 0.002
        entries[f"T{number + 1}"] = Rect(x, y, x + side, y + side)
    index = RTreeIndex()
    index.bulk_load(entries)
    # A window of half-side d catches exactly the entries whose
    # Chebyshev distance from the center is at most d.
    reach = np.sort(np.array([
        max(r.x_min - 0.5, 0.5 - r.x_max, r.y_min - 0.5, 0.5 - r.y_max, 0.0)
        for r in entries.values()
    ]))

    def scalar_collect(window: Rect) -> tuple:
        ids = sorted(index.range_search(window), key=str)
        return tuple((oid, index.rect_of(oid)) for oid in ids), [
            str(oid).encode() for oid in ids
        ]

    columnar_us: dict[str, dict[str, float]] = {}
    scalar_us: dict[str, dict[str, float]] = {}
    for size in (200, 400, 600):
        half = float(reach[size - 1] + reach[size]) / 2
        window = Rect.from_center(location, 2 * half, 2 * half)
        radius = 0.4 * half  # an eighth of the window's area, as before
        produced = collect(index, window, "public", 4)
        items = scalar_collect(window)[0]
        assert len(produced) == size and tuple(produced.items) == items
        payload = encode_candidate_list(produced)
        assert payload == scalar.encode_candidate_list(items, 4)
        decoded = decode_candidate_list(payload)
        wire_items = scalar.decode_candidate_list(payload)[0]
        assert tuple(decoded.items) == wire_items
        pairs = (
            ("collect", lambda: collect(index, window, "public", 4),
             lambda: scalar_collect(window)),
            ("encode", lambda: encode_candidate_list(produced),
             lambda: scalar.encode_candidate_list(items, 4)),
            ("decode", lambda: decode_candidate_list(payload),
             lambda: scalar.decode_candidate_list(payload)),
            ("refine_nearest", lambda: decoded.refine_nearest(location),
             lambda: scalar.refine_nearest(wire_items, location)),
            ("refine_k_nearest", lambda: decoded.refine_k_nearest(location, k),
             lambda: scalar.refine_k_nearest(wire_items, location, k)),
            ("refine_within", lambda: decoded.refine_within(location, radius),
             lambda: scalar.refine_within(wire_items, location, radius)),
        )
        for name, columnar_fn, scalar_fn in pairs[3:]:
            assert columnar_fn() == scalar_fn(), f"{name} diverged from the oracle"
        columnar_us[str(size)] = {name: best_us(fn) for name, fn, _ in pairs}
        scalar_us[str(size)] = {name: best_us(fn) for name, _, fn in pairs}

    def speedup(*names: str) -> float:
        def total(table: dict[str, dict[str, float]]) -> float:
            return sum(row[name] for row in table.values() for name in names)

        return total(scalar_us) / total(columnar_us)

    return {
        "record_counts": [200, 400, 600],
        "columnar_us_per_list": columnar_us,
        "scalar_us_per_list": scalar_us,
        "collect_speedup": speedup("collect"),
        "encode_speedup": speedup("encode"),
        "decode_speedup": speedup("decode"),
        "refine_speedup": speedup(
            "refine_nearest", "refine_k_nearest", "refine_within"
        ),
    }


# ----------------------------------------------------------------------
# 10. The adaptive cut's maintenance on a seeded hotspot trace
# ----------------------------------------------------------------------
def bench_adaptive_maintenance(quick: bool) -> dict:
    """What Section 4.2's incomplete pyramid does under a tick where
    every user moves: users in Gaussian hotspots (sigma 0.03) jitter
    (sigma 0.002) each tick, and both pyramids apply the ticks through
    ``update_batch``.  The adaptive arm's splits, merges, cell changes,
    counter updates per location update and quiet-move share (moves
    that stay in their leaf) are functions of the seeded trace alone, so
    ``bench_gate.EXACT_COUNTERS`` holds them equal to the reference.
    A replicated arm (the in-process 4-shard deployment, one whole
    adaptive replica behind the shard surface) replays the same ticks;
    its splits, merges and cell changes must be the single arm's, and
    are gated beside them.  Adaptive, replicated and basic moves per
    second are reported, not gated."""
    from repro.anonymizer import AdaptiveAnonymizer
    from repro.sharding import make_sharded
    from repro.workloads import uniform_profiles

    num_users = 4_000 if quick else 20_000
    ticks = 3 if quick else 8
    batch = 2_000 if quick else 5_000
    height = 9
    rng = ensure_rng(27)
    centers = rng.uniform(0.1, 0.9, (32, 2))
    xy = centers[rng.integers(0, 32, num_users)] + rng.normal(0, 0.03, (num_users, 2))
    top = float(np.nextafter(1.0, 0.0))
    trace = [np.clip(xy, 0.0, top)]
    for _ in range(ticks):
        trace.append(np.clip(trace[-1] + rng.normal(0, 0.002, (num_users, 2)), 0.0, top))
    profiles = uniform_profiles(num_users, BOUNDS, seed=rng)

    def replay(anonymizer) -> tuple[float, object]:
        for uid, (x, y) in enumerate(trace[0].tolist()):
            anonymizer.register(uid, Point(x, y), profiles[uid])
        before = dataclasses.replace(anonymizer.stats)
        seconds = 0.0
        for tick in trace[1:]:
            moves = [(uid, Point(x, y)) for uid, (x, y) in enumerate(tick.tolist())]
            for first in range(0, num_users, batch):
                seconds += _timed(anonymizer.update_batch, moves[first : first + batch])[0]
        after = anonymizer.stats
        return seconds, {
            field.name: getattr(after, field.name) - getattr(before, field.name)
            for field in dataclasses.fields(after)
        }

    adaptive_seconds, adaptive = replay(AdaptiveAnonymizer(BOUNDS, height))
    replicated_seconds, replicated = replay(
        make_sharded(BOUNDS, height, 4, kind="adaptive")
    )
    basic_seconds, _ = replay(BasicAnonymizer(BOUNDS, height))
    reshapes = ("splits", "merges", "cell_changes")
    assert [replicated[key] for key in reshapes] == [adaptive[key] for key in reshapes], (
        "the replicated arm maintained the cut differently"
    )
    moves = num_users * ticks
    return {
        "num_users": num_users,
        "ticks": ticks,
        "batch": batch,
        "height": height,
        "splits": adaptive["splits"],
        "merges": adaptive["merges"],
        "cell_changes": adaptive["cell_changes"],
        "counter_updates_per_update": adaptive["counter_updates"] / moves,
        "quiet_share": 1.0 - adaptive["cell_changes"] / moves,
        "replicated_splits": replicated["splits"],
        "replicated_merges": replicated["merges"],
        "replicated_cell_changes": replicated["cell_changes"],
        "adaptive_moves_per_s": moves / adaptive_seconds,
        "replicated_moves_per_s": moves / replicated_seconds,
        "basic_moves_per_s": moves / basic_seconds,
    }


def _median_run(results: list[dict]) -> dict:
    """Pick the run with the median gated statistic.

    Keeps a single internally-consistent measurement (never mixes the
    numerator of one run with the denominator of another).  Benchmarks
    without a speedup ratio are selected by their latency instead.
    """
    key = next(
        k
        for k in (
            "speedup",
            "cloak_scaling_8x",
            "fleet_vs_engine",
            "evaluation_suppression",
            "decode_speedup",
            "adaptive_moves_per_s",
            "mean_latency_ms",
        )
        if k in results[0]
    )
    ordered = sorted(results, key=lambda r: r[key])
    return ordered[len(ordered) // 2]


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--quick", action="store_true", help="small workloads (CI smoke run)"
    )
    parser.add_argument(
        "--out",
        default=str(Path(__file__).resolve().parent.parent / "BENCH_engine.json"),
        help="output JSON path (default: repo-root BENCH_engine.json)",
    )
    parser.add_argument(
        "--repeats",
        type=int,
        default=3,
        help="run each benchmark N times, report the median-speedup run "
        "(default: 3; use 1 for a fast uncontrolled reading)",
    )
    parser.add_argument(
        "--telemetry",
        nargs="?",
        const="BENCH_telemetry.json",
        default=None,
        metavar="PATH",
        help="run instrumented (observability enabled) and write the "
        "telemetry snapshot here (default: BENCH_telemetry.json)",
    )
    parser.add_argument(
        "--only",
        action="append",
        metavar="NAME",
        default=None,
        help="run only the named benchmark section (repeatable); the "
        "final threshold check covers only the sections that ran",
    )
    args = parser.parse_args(argv)
    if args.repeats < 1:
        parser.error("--repeats must be >= 1")

    from contextlib import nullcontext

    from repro.observability import TelemetryExport

    session_scope = enabled() if args.telemetry else nullcontext(None)
    report = {
        "quick": args.quick,
        "instrumented": bool(args.telemetry),
        "repeats": args.repeats,
    }
    benches = (
        ("cloak", bench_cloak),
        ("knn_private", bench_knn),
        ("nn_latency", bench_nn_latency),
        ("batch", bench_batch),
        ("shard_scaling", bench_shard_scaling),
        ("shard_parallel", bench_shard_parallel),
        ("continuous_mobility", bench_continuous_mobility),
        ("candidate_codec", bench_candidate_codec),
        ("adaptive_maintenance", bench_adaptive_maintenance),
    )
    if args.only:
        known = {name for name, _ in benches}
        unknown = sorted(set(args.only) - known)
        if unknown:
            parser.error(
                f"unknown benchmark(s) {', '.join(unknown)}; "
                f"choose from {', '.join(sorted(known))}"
            )
        benches = tuple(
            (name, bench) for name, bench in benches if name in args.only
        )

    with session_scope as session:
        for name, bench in benches:
            print(f"benchmarking {name} ...", flush=True)
            report[name] = _median_run(
                [bench(args.quick) for _ in range(args.repeats)]
            )
        if session is not None:
            export = TelemetryExport.from_observability(session)
            Path(args.telemetry).write_text(export.to_json() + "\n")
            print(f"wrote telemetry snapshot {args.telemetry}")

    Path(args.out).write_text(json.dumps(report, indent=2) + "\n")
    print(json.dumps(report, indent=2))
    print(f"\nwrote {args.out}")
    # The worker pool's (8-worker / 1-worker) cloak quotient is
    # reported, not checked: a cheaper cloak-miss path speeds the
    # miss-heavy 1-worker denominator most and lowers it with every
    # rate up.  The locality effect itself is gated exactly, as
    # hit-rate tables, by bench_gate.py.  The cloak floor holds the
    # uninstrumented run: instrumented, every cloak pays its telemetry
    # (``cloak.telemetry_speed``, gated by bench_gate.py as its own
    # row, which skips this quotient for an instrumented report).
    checks = (
        *([] if args.telemetry else [("cloak", "speedup", 5.0)]),
        ("knn_private", "speedup", 2.0),
        ("continuous_mobility", "evaluation_suppression", 5.0),
    )
    ok = True
    summary = []
    for section, key, floor in checks:
        if section not in report:
            continue
        value = report[section][key]
        ok = ok and value >= floor
        summary.append(f"{section}.{key} {value:.2f}x (>= {floor:g})")
    print(", ".join(summary) + f" -> {'OK' if ok else 'BELOW TARGET'}")
    return 0 if ok else 1


if __name__ == "__main__":
    raise SystemExit(main())
