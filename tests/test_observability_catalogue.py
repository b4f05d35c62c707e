"""``runtime.CATALOGUE`` is the one statement of every metric: what the
full stack emits conforms to it, every row is emitted by something, and
every metric name in the source is one of its keys.  (That the table in
``docs/observability.md`` is printed from it is held next to the API
index, in ``test_evaluation_runner.py``.)"""

from __future__ import annotations

import re
from pathlib import Path

import pytest

from repro.observability import enabled, looks_like_coordinates
from repro.observability.runtime import CATALOGUE
from repro.resilience import ChaosWorkload, get_scenario, run_chaos


@pytest.fixture(scope="module")
def emitted() -> dict[str, list]:
    """Every instrument of a single-pyramid run, an in-process fleet and
    a worker pool, each under faults with the monitor flushing."""
    with enabled() as session:
        for scenario, workload in (
            ("flaky-everything", ChaosWorkload(continuous_knn=4)),
            ("shard-crash", ChaosWorkload(anonymizer="basic", shards=4)),
            ("worker-crash", ChaosWorkload(shards=4, parallel=True)),
        ):
            assert run_chaos(get_scenario(scenario), workload).ok
    by_name: dict[str, list] = {}
    for metric in session.metrics:
        by_name.setdefault(metric.name, []).append(metric)
    return by_name


def test_the_stack_emits_every_row_and_nothing_else(emitted) -> None:
    assert set(emitted) == set(CATALOGUE)  # no row is fault-only or dead
    for name, row in CATALOGUE.items():
        assert not looks_like_coordinates(row.help), name
        for metric in emitted[name]:
            assert (metric.kind, metric.help) == (row.kind, row.help), name
            keys = {key for key, _value in metric.labels}
            assert keys == set(row.labels), name
            if row.kind == "histogram":
                assert metric.boundaries == row.buckets, name


def test_every_metric_name_in_the_source_is_a_row() -> None:
    for path in (Path(__file__).parents[1] / "src" / "repro").rglob("*.py"):
        if path.parts[-2:] != ("observability", "runtime.py"):
            names = re.findall(r"""["'](casper_[a-z0-9_]+)["']""", path.read_text())
            assert set(names) <= set(CATALOGUE), path
