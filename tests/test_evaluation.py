"""Tests for the evaluation harness: result containers and experiments.

Each experiment runs at a miniature scale and is checked for structural
sanity plus — where a run this small is statistically stable — the
paper's qualitative trends.  Trends are asserted on counted quantities
only (counter updates, candidate-list sizes, pyramid levels climbed):
the timing panels are microsecond-scale wall-clock samples, and no
wall-clock comparison may decide a tier-1 verdict.
"""

from __future__ import annotations

import math

import pytest

from repro.evaluation.experiments import (
    run_fig10,
    run_fig11,
    run_fig12,
    run_fig13,
    run_fig14,
    run_fig15,
    run_fig16,
    run_fig17,
)
from repro.errors import ProfileUnsatisfiableError
from repro.evaluation.experiments.common import (
    PAPER,
    SMALL,
    TINY,
    UNIT,
    active_scale,
    make_anonymizer,
    register_population,
    standard_trace,
)
from repro.evaluation.results import ExperimentResult, Series
from repro.workloads import uniform_profiles


class TestResultContainers:
    def test_add_series_validates_length(self):
        result = ExperimentResult("F", "t", "x", "y", [1, 2, 3])
        with pytest.raises(ValueError):
            result.add_series("s", [1.0, 2.0])

    def test_series_by_label(self):
        result = ExperimentResult("F", "t", "x", "y", [1, 2])
        result.add_series("alpha", [1.0, 2.0])
        assert result.series_by_label("alpha").values == [1.0, 2.0]
        with pytest.raises(KeyError):
            result.series_by_label("beta")

    def test_format_table_contains_everything(self):
        result = ExperimentResult(
            "Figure X", "demo", "size", "seconds", [10, 20], notes="hello"
        )
        result.add_series("fast", [0.001, 0.002])
        result.add_series("slow", [1234.5, 2000.0])
        table = result.format_table()
        assert "Figure X" in table
        assert "size" in table and "fast" in table and "slow" in table
        assert "hello" in table
        assert "1,234" in table  # thousands formatting
        assert "0.001000" in table  # sub-unit formatting

    def test_series_coerces_floats(self):
        s = Series("s", [1, 2])
        assert s.values == [1.0, 2.0]

    def test_scale_presets(self, monkeypatch):
        monkeypatch.delenv("CASPER_BENCH_SCALE", raising=False)
        assert active_scale() is SMALL
        monkeypatch.setenv("CASPER_BENCH_SCALE", "paper")
        assert active_scale() is PAPER
        monkeypatch.setenv("CASPER_BENCH_SCALE", "tiny")
        assert active_scale() is TINY
        monkeypatch.setenv("CASPER_BENCH_SCALE", "galactic")
        with pytest.raises(ValueError):
            active_scale()


TINY_KW = dict(num_users=600, num_cloaks=80, trace_ticks=1)


def mean_levels_climbed(kind, k_range, num_users=800, height=8):
    """Average number of pyramid levels Algorithm 1 climbs above the
    lowest level — the counted quantity behind Figure 12a's cloaking
    time, on the experiment's own population and profiles."""
    trace = standard_trace(num_users, 1, seed=0)
    profiles = uniform_profiles(num_users, UNIT, k_range=k_range, seed=0)
    anonymizer = make_anonymizer(kind, height)
    register_population(anonymizer, trace, profiles)
    climbed = []
    for uid in range(0, num_users, 10):
        try:
            region = anonymizer.cloak(uid)
        except ProfileUnsatisfiableError:
            continue
        climbed.append(height - min(cell.level for cell in region.cells))
    return sum(climbed) / len(climbed)


class TestAnonymizerExperiments:
    def test_fig10_structure_and_trends(self):
        panels = run_fig10(heights=(4, 6, 8), **TINY_KW)
        assert set(panels) == {"a", "b", "c", "d"}
        # Panel b: basic update cost grows with height.
        basic_updates = panels["b"].series_by_label("basic").values
        assert basic_updates[0] < basic_updates[-1]
        # Panel b: adaptive is cheaper than basic at the tallest pyramid.
        adaptive_updates = panels["b"].series_by_label("adaptive").values
        assert adaptive_updates[-1] < basic_updates[-1]
        # Panel c: accuracy ratios >= 1 and improve with height for the
        # relaxed group.
        relaxed = panels["c"].series[0].values
        assert all(v >= 1.0 for v in relaxed if not math.isnan(v))
        assert relaxed[-1] <= relaxed[0]
        # Panel d: area accuracy approaches 1 from above.
        for series in panels["d"].series:
            clean = [v for v in series.values if not math.isnan(v)]
            assert all(v >= 1.0 - 1e-9 for v in clean)
            assert clean[-1] <= clean[0]

    def test_fig11_structure(self):
        panels = run_fig11(user_counts=(300, 900), height=7, num_cloaks=80,
                           trace_ticks=1)
        assert set(panels) == {"a", "b"}
        for panel in panels.values():
            assert {s.label for s in panel.series} == {"basic", "adaptive"}
        # Adaptive maintenance stays below basic at every size.
        basic = panels["b"].series_by_label("basic").values
        adaptive = panels["b"].series_by_label("adaptive").values
        assert all(a <= b * 1.5 for a, b in zip(adaptive, basic))

    def test_fig12_structure_and_trends(self):
        panels = run_fig12(
            num_users=800, k_groups=((1, 10), (100, 150)), height=8,
            num_cloaks=80, trace_ticks=1,
        )
        assert all(
            value > 0 for series in panels["a"].series for value in series.values
        )
        # Basic cloaking cost grows with stricter k: more levels climbed.
        assert mean_levels_climbed("basic", (100, 150)) > mean_levels_climbed(
            "basic", (1, 10)
        )
        # Adaptive update cost falls for stricter users.
        adaptive_updates = panels["b"].series_by_label("adaptive").values
        assert adaptive_updates[-1] <= adaptive_updates[0]


class TestProcessorExperiments:
    def test_fig13_trends(self):
        panels = run_fig13(target_counts=(400, 800), num_users=800, num_queries=25)
        sizes4 = panels["a"].series_by_label("4 filters").values
        sizes1 = panels["a"].series_by_label("1 filter").values
        # Four filters shrink the candidate list...
        assert all(s4 < s1 for s4, s1 in zip(sizes4, sizes1))
        # ...and candidate size grows with target cardinality.
        assert sizes4[-1] > sizes4[0]

    def test_fig14_trends(self):
        panels = run_fig14(target_counts=(400, 800), num_users=800, num_queries=25)
        sizes4 = panels["a"].series_by_label("4 filters").values
        sizes1 = panels["a"].series_by_label("1 filter").values
        assert all(s4 < s1 for s4, s1 in zip(sizes4, sizes1))
        # Panel b is wall-clock (4 filters cost more time than 1 in the
        # paper); its counted sibling above carries the trend.
        assert {s.label for s in panels["b"].series} == {
            s.label for s in panels["a"].series
        }

    def test_fig15_trends(self):
        panels = run_fig15(num_targets=800, query_cells=(4, 256), num_queries=25)
        for series in panels["a"].series:
            assert series.values[-1] > series.values[0]  # bigger query, more candidates

    def test_fig16_trends(self):
        panels = run_fig16(
            num_targets=500, data_cells=(4, 64), num_users=800, num_queries=20
        )
        sizes4 = panels["a"].series_by_label("4 filters").values
        sizes1 = panels["a"].series_by_label("1 filter").values
        assert all(s4 <= s1 for s4, s1 in zip(sizes4, sizes1))

    def test_fig17_structure_and_trends(self):
        panels = run_fig17(
            num_users=800, num_targets=400, num_queries=20,
            small_groups=((1, 10), (20, 30)),
            large_groups=((1, 10), (100, 150)),
        )
        assert set(panels) == {"a", "b"}
        panel_b = panels["b"]
        labels = {s.label for s in panel_b.series}
        assert "public transmission" in labels
        # Transmission grows with stricter k for public data.
        trans = panel_b.series_by_label("public transmission").values
        assert trans[-1] > trans[0]
        assert "public anonymizer" in labels and "public processing" in labels
