"""Ablation: index independence of the privacy-aware query processor.

Section 5.1.1: "Our approach is independent from the nearest-neighbor
and range query algorithms ... it can be employed using R-tree or any
other methods."  This bench runs the same private NN workload over the
R-tree that serves queries and the brute-force oracle, asserts identical
candidate sets, and reports the per-index processing time.
"""

from __future__ import annotations

import time

from benchmarks.conftest import run_once
from repro.evaluation.experiments.common import UNIT, active_scale, cloaked_query_regions
from repro.evaluation.results import ExperimentResult
from repro.geometry import Rect
from repro.processor import private_nn_over_public
from repro.spatial import BruteForceIndex, RTreeIndex
from repro.workloads import uniform_points


def _run(scale) -> dict[str, ExperimentResult]:
    targets = uniform_points(scale.num_targets, UNIT, seed=0)
    entries = {oid: Rect.point(p) for oid, p in targets.items()}
    queries = cloaked_query_regions(scale.num_users, scale.num_queries, seed=0)

    indexes = {
        "r-tree": RTreeIndex(),
        "brute-force": BruteForceIndex(),
    }
    for index in indexes.values():
        index.bulk_load(entries)

    labels = list(indexes)
    panel = ExperimentResult(
        "Ablation A3", "Index independence of the query processor",
        "index", "avg seconds per query / avg candidate size", labels,
    )
    times, sizes = [], []
    reference_sets: list[set] | None = None
    for label, index in indexes.items():
        start = time.perf_counter()
        answers = [private_nn_over_public(index, area, 4) for area in queries]
        elapsed = time.perf_counter() - start
        answer_sets = [set(a.oids()) for a in answers]
        if reference_sets is None:
            reference_sets = answer_sets
        else:
            assert answer_sets == reference_sets, f"{label} disagrees"
        times.append(elapsed / len(queries))
        sizes.append(sum(len(a) for a in answers) / len(answers))
    panel.add_series("avg seconds per query", times)
    panel.add_series("avg candidate size", sizes)
    return {"a": panel}


def test_ablation_indexes(benchmark, show):
    scale = active_scale()
    panels = run_once(benchmark, lambda: _run(scale))
    show(panels)
    sizes = panels["a"].series_by_label("avg candidate size").values
    # Identical candidate sets imply identical sizes across indexes.
    assert max(sizes) - min(sizes) < 1e-9
