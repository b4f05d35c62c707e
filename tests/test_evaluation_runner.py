"""Tests for the runner, ASCII charts, and the CLI entry point."""

from __future__ import annotations

import dataclasses

import pytest

from repro.__main__ import main as cli_main
from repro.evaluation.ascii_chart import render_chart
from repro.evaluation.experiments.common import SMALL
from repro.evaluation.results import ExperimentResult
from repro.evaluation.runner import FIGURES, format_report, run_experiments

TINY = dataclasses.replace(
    SMALL,
    num_users=500,
    num_targets=300,
    num_queries=10,
    num_cloaks=50,
    trace_ticks=1,
    user_counts=(200, 400),
    target_counts=(200, 400),
)


class TestRunner:
    def test_all_figures_registered(self):
        assert set(FIGURES) == {f"fig{i}" for i in range(10, 18)}

    def test_run_subset(self):
        results = run_experiments(["fig13", "fig15"], TINY)
        assert set(results) == {"fig13", "fig15"}
        assert set(results["fig13"]) == {"a", "b"}

    def test_unknown_figure_rejected(self):
        with pytest.raises(ValueError):
            run_experiments(["fig99"], TINY)

    def test_format_report_contains_tables_and_charts(self):
        results = run_experiments(["fig15"], TINY)
        report = format_report(results)
        assert "# fig15" in report
        assert "Figure 15a" in report
        assert "|" in report  # chart frame present

    def test_format_report_without_charts(self):
        results = run_experiments(["fig15"], TINY)
        report = format_report(results, charts=False)
        assert "+---" not in report


class TestParallelRunner:
    """``parallel=N`` must be a pure throughput knob: same figures, same
    panels, same bytes (timing panels excepted — they are wall-clock
    measurements and differ between any two runs, serial or not)."""

    @staticmethod
    def _is_timing_panel(panel: ExperimentResult) -> bool:
        label = panel.y_label.lower()
        return "time" in label or "sec" in label

    def test_parallel_identical_to_serial(self):
        names = ["fig13", "fig15"]
        serial = run_experiments(names, TINY)
        parallel = run_experiments(names, TINY, parallel=2)
        assert list(parallel) == names  # request order preserved
        compared = 0
        for name in names:
            assert set(serial[name]) == set(parallel[name])
            for key, panel in serial[name].items():
                if self._is_timing_panel(panel):
                    continue
                assert panel.format_table() == parallel[name][key].format_table()
                compared += 1
        assert compared > 0

    def test_single_figure_runs_inline(self):
        results = run_experiments(["fig15"], TINY, parallel=4)
        assert set(results) == {"fig15"}

    def test_invalid_parallel_rejected(self):
        with pytest.raises(ValueError):
            run_experiments(["fig15"], TINY, parallel=0)

    def test_cli_parallel_flag(self, capsys, monkeypatch):
        monkeypatch.setenv("CASPER_BENCH_SCALE", "tiny")
        assert cli_main(
            ["figures", "fig15", "--parallel", "2", "--no-charts"]
        ) == 0
        assert "fig15" in capsys.readouterr().out


class TestAsciiChart:
    def panel(self) -> ExperimentResult:
        p = ExperimentResult("Fig X", "demo", "n", "seconds", [1, 10, 100])
        p.add_series("alpha", [1.0, 5.0, 9.0])
        p.add_series("beta", [9.0, 5.0, 1.0])
        return p

    def test_chart_structure(self):
        chart = render_chart(self.panel(), width=40, height=8)
        lines = chart.splitlines()
        assert lines[0].startswith("== Fig X")
        assert sum(1 for line in lines if line.endswith("|")) == 8
        assert "o alpha" in chart and "* beta" in chart
        assert "1" in lines[-3]  # x labels rendered

    def test_extreme_markers_at_extreme_rows(self):
        chart = render_chart(self.panel(), width=40, height=8)
        lines = [l for l in chart.splitlines() if l.endswith("|")]
        assert "o" in lines[0] or "*" in lines[0]  # max row occupied
        assert "o" in lines[-1] or "*" in lines[-1]  # min row occupied

    def test_constant_series_does_not_crash(self):
        p = ExperimentResult("F", "flat", "x", "y", [1, 2])
        p.add_series("s", [3.0, 3.0])
        assert "F" in render_chart(p)

    def test_nan_values_skipped(self):
        p = ExperimentResult("F", "nan", "x", "y", [1, 2])
        p.add_series("s", [float("nan"), 2.0])
        assert "F" in render_chart(p)

    def test_all_nan(self):
        p = ExperimentResult("F", "nan", "x", "y", [1])
        p.add_series("s", [float("nan")])
        assert "all NaN" in render_chart(p)

    def test_empty_panel(self):
        p = ExperimentResult("F", "empty", "x", "y", [])
        assert "no data" in render_chart(p)

    def test_single_x_value(self):
        p = ExperimentResult("F", "one", "x", "y", [5])
        p.add_series("s", [2.0])
        assert "F" in render_chart(p)


class TestCli:
    def test_info(self, capsys):
        assert cli_main(["info"]) == 0
        out = capsys.readouterr().out
        assert "repro" in out

    def test_demo(self, capsys):
        assert cli_main(["demo"]) == 0
        out = capsys.readouterr().out
        assert "exact answer" in out

    def test_unknown_figure(self, capsys):
        assert cli_main(["figures", "fig99"]) == 2

    def test_no_command_prints_help(self, capsys):
        assert cli_main([]) == 2
        assert "figures" in capsys.readouterr().out


class TestApiDocsInSync:
    def test_generated_api_docs_match(self):
        """docs/api.md must be regenerated when the public API changes."""
        import pathlib
        import sys

        tools_dir = pathlib.Path(__file__).resolve().parent.parent / "tools"
        sys.path.insert(0, str(tools_dir))
        try:
            import gen_api_docs

            expected = gen_api_docs.generate()
        finally:
            sys.path.remove(str(tools_dir))
        current = gen_api_docs.OUT_PATH.read_text()
        assert current == expected, (
            "docs/api.md is stale; run: python tools/gen_api_docs.py"
        )
        assert gen_api_docs.catalogue_table() in gen_api_docs.CATALOGUE_DOC.read_text(), (
            "docs/observability.md's metric table is stale; same command"
        )
