"""Smoke test of the service benchmark on the ``tiny`` preset.

Not collected by tier-1 (``testpaths = ["tests"]``); run it explicitly::

    python -m pytest benchmarks/service

It runs all four workloads plus their traced passes in well under 20 s
and checks the contract ``BENCHMARK.json`` states: every named metric is
reported with its declared unit, exact counts repeat for a seed and move
with it, nothing fails, and no worker process is left behind.
"""

from __future__ import annotations

import json
import multiprocessing
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
sys.path[:0] = [p for p in (str(ROOT / "src"), str(ROOT)) if p not in sys.path]

from benchmarks.service.cli import OUT_DIR, WORKLOADS, run_once  # noqa: E402
from benchmarks.service.harness import PER_LAYER  # noqa: E402

CONTRACT = json.loads((ROOT / "BENCHMARK.json").read_text())
SECONDS = 0.2
EXACT_UNITS = {"count", "bytes"}


@pytest.fixture(scope="module", params=sorted(WORKLOADS))
def runs(request):
    name = request.param
    return {
        "name": name,
        "timed": run_once(name, 1, SECONDS, False, "tiny"),
        "traced": [run_once(name, seed, SECONDS, True, "tiny") for seed in (1, 1, 2)],
    }


def test_contract_lists_what_the_code_reports():
    assert [w["name"] for w in CONTRACT["workloads"]] == list(WORKLOADS)
    assert [(m["name"], m["unit"], m["better"]) for m in CONTRACT["per_layer"]] == list(
        PER_LAYER
    )
    assert CONTRACT["paths"] == ["benchmarks/service"]
    assert "setup_s" in {m["name"] for m in CONTRACT["end_to_end"]}


def test_timed_run_reports_every_end_to_end_metric(runs):
    measurement, inputs = runs["timed"]
    declared = {m["name"]: m["unit"] for m in CONTRACT["end_to_end"]}
    assert {n: unit for n, (_v, unit) in measurement.metrics.items()} == declared
    assert all(value > 0 for value, _unit in measurement.metrics.values())
    assert measurement.failures.failed == 0, measurement.failures.causes
    assert measurement.failures.attempted > 0
    assert len(inputs.digest) == 64


def test_traced_run_reports_every_per_layer_metric(runs):
    measurement, _inputs = runs["traced"][0]
    declared = {m["name"]: m["unit"] for m in CONTRACT["per_layer"]}
    assert {n: unit for n, (_v, unit) in measurement.metrics.items()} == declared
    assert measurement.valid, measurement.notes
    assert measurement.failures.failed == 0, measurement.failures.causes
    assert measurement.metrics["trace.unattributed_share"][0] <= 0.10
    assert measurement.metrics["trace.overhead_ratio"][0] > 0
    assert (OUT_DIR / f"trace_{runs['name']}.json").is_file()


def test_exact_counts_repeat_for_a_seed_and_move_with_it(runs):
    (first, first_inputs), (again, again_inputs), (other, other_inputs) = runs["traced"]

    def exact(measurement):
        return {
            name: value
            for name, (value, unit) in measurement.metrics.items()
            if unit in EXACT_UNITS
        }

    assert first_inputs.digest == again_inputs.digest
    assert exact(first) == exact(again)
    assert first_inputs.digest != other_inputs.digest
    assert exact(first) != exact(other)


def test_no_worker_process_outlives_a_run(runs):
    assert multiprocessing.active_children() == []
