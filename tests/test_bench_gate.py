"""Tests for the CI bench-regression gate (tools/bench_gate.py)."""

from __future__ import annotations

import importlib.util
import json
import sys
from pathlib import Path

import pytest

REPO_ROOT = Path(__file__).resolve().parents[1]

spec = importlib.util.spec_from_file_location(
    "bench_gate", REPO_ROOT / "tools" / "bench_gate.py"
)
bench_gate = importlib.util.module_from_spec(spec)
spec.loader.exec_module(bench_gate)


def make_report(quick: bool = True, **ratios: float) -> dict:
    base = {
        "cloak": 10.0,
        "knn_private": 8.0,
        "batch": 6.0,
        "shard_parallel": 4.0,
        "continuous_mobility": 12.0,
    }
    base.update(ratios)
    report: dict = {"quick": quick}
    # Every gated key of a section gets the section value.
    for section, key in bench_gate.GATED_RATIOS:
        report.setdefault(section, {})[key] = base[section]
    for section, key, floor in bench_gate.FLOORS:
        report.setdefault(section, {})[key] = ratios.get(key, 2 * floor)
    for section, _keys in bench_gate.EXACT_TABLES:
        report[section]["shards"] = {
            "1": {
                "cache_hit_rate": 0.75,
                "cache_hit_rate_per_shard": {"0": 0.75, "spine": 0.0},
                "query_cloaks_per_second": 1e4,
            },
            "8": {
                "cache_hit_rate": 0.75,
                "cache_hit_rate_per_shard": {"0": 0.5, "7": 0.875, "spine": 0.0},
                "query_cloaks_per_second": 2e4,
            },
        }
    for section, keys in bench_gate.EXACT_COUNTERS:
        report.setdefault(section, {}).update(dict.fromkeys(keys, 26.25))
    return report


class TestCompare:
    def test_identical_reports_pass(self):
        report = make_report()
        lines, failures = bench_gate.compare(report, report, 0.25)
        assert failures == []
        assert len(lines) == (
            len(bench_gate.GATED_RATIOS)
            + len(bench_gate.FLOORS)
            + len(bench_gate.EXACT_TABLES)
            + len(bench_gate.EXACT_COUNTERS)
        )

    def test_within_tolerance_passes(self):
        reference = make_report()
        current = make_report(cloak=10.0 * 0.8)  # 20% drop < 25% bound
        _lines, failures = bench_gate.compare(current, reference, 0.25)
        assert failures == []

    def test_regression_beyond_tolerance_fails(self):
        reference = make_report()
        current = make_report(knn_private=8.0 * 0.5)
        _lines, failures = bench_gate.compare(current, reference, 0.25)
        assert len(failures) == 1
        assert "knn_private.speedup regressed" in failures[0]

    def test_missing_ratio_fails(self):
        reference = make_report()
        current = make_report()
        del current["batch"]["speedup"]
        _lines, failures = bench_gate.compare(current, reference, 0.25)
        assert any("batch.speedup: missing" in f for f in failures)

    def test_nonpositive_reference_fails(self):
        reference = make_report(cloak=0.0)
        _lines, failures = bench_gate.compare(make_report(), reference, 0.25)
        assert any("not positive" in f for f in failures)

    def test_below_an_absolute_floor_fails_whatever_the_reference_reads(self):
        low = make_report(decode_speedup=9.0)
        _lines, failures = bench_gate.compare(low, low, 0.25)
        assert failures == ["candidate_codec.decode_speedup below its floor: 9.00x < 10x"]

    def test_missing_floored_section_fails(self):
        current = make_report()
        del current["candidate_codec"]
        _lines, failures = bench_gate.compare(current, make_report(), 0.25)
        assert [f for f in failures if "missing from report" in f] == [
            "candidate_codec.collect_speedup: missing from report",
            "candidate_codec.decode_speedup: missing from report",
            "candidate_codec.refine_speedup: missing from report",
        ]

    def test_hit_rate_tables_are_gated_for_identity(self):
        """The hit-rate tables are gated for identity, not tolerance:
        absolute rates may move freely, one changed digit may not."""
        reference = make_report()
        current = make_report()
        current["shard_parallel"]["shards"]["8"]["query_cloaks_per_second"] *= 3
        _lines, failures = bench_gate.compare(current, reference, 0.25)
        assert failures == []
        current["shard_parallel"]["shards"]["8"]["cache_hit_rate_per_shard"]["7"] = 0.8751
        _lines, failures = bench_gate.compare(current, reference, 0.25)
        assert len(failures) == 1
        assert "shard_parallel.shards hit rates differ" in failures[0]
        assert "N = 8" in failures[0]

    def test_seeded_counters_are_gated_for_identity(self):
        reference = make_report()
        current = make_report()
        current["continuous_mobility"]["wall_clock_speedup"] = 0.5  # reported only
        _lines, failures = bench_gate.compare(current, reference, 0.25)
        assert failures == []
        current["continuous_mobility"]["validity_exits"] = 27
        _lines, failures = bench_gate.compare(current, reference, 0.25)
        assert len(failures) == 1
        assert "continuous_mobility.validity_exits differs" in failures[0]
        del current["continuous_mobility"]["validity_exits"]
        _lines, failures = bench_gate.compare(current, reference, 0.25)
        assert failures == [
            "continuous_mobility counters: missing from report or reference"
        ]

    def test_missing_hit_rate_table_fails(self):
        current = make_report()
        del current["shard_scaling"]["shards"]
        _lines, failures = bench_gate.compare(current, make_report(), 0.25)
        assert failures == [
            "shard_scaling.shards hit rates: missing from report or reference"
        ]

    def test_an_instrumented_report_skips_only_what_telemetry_moves(self):
        reference = make_report()
        current = make_report(cloak=2.0, knn_private=2.0)
        verdicts = []
        for instrumented in (False, True):
            current["instrumented"] = instrumented
            _lines, failures = bench_gate.compare(current, reference, 0.25)
            verdicts.append([failure.split()[0] for failure in failures])
        assert verdicts == [["cloak.speedup", "knn_private.speedup"], ["knn_private.speedup"]]

    def test_improvements_always_pass(self):
        reference = make_report()
        current = make_report(cloak=100.0, knn_private=80.0, batch=60.0)
        _lines, failures = bench_gate.compare(current, reference, 0.25)
        assert failures == []


class TestReferenceSelection:
    def test_quick_report_selects_quick_reference(self):
        for instrumented in (False, True):
            for quick, name in ((True, "BENCH_engine_quick.json"), (False, "BENCH_engine.json")):
                flags = {"quick": quick, "instrumented": instrumented}
                assert bench_gate.pick_reference(flags).name == name

    def test_committed_references_exist_and_declare_their_workload(self):
        quick = json.loads((REPO_ROOT / "BENCH_engine_quick.json").read_text())
        full = json.loads((REPO_ROOT / "BENCH_engine.json").read_text())
        assert quick["quick"] is True
        assert full["quick"] is False
        for section, key in bench_gate.GATED_RATIOS:
            assert quick[section][key] > 1.0
            assert full[section][key] > 1.0
        for section, key, floor in bench_gate.FLOORS:
            assert quick[section][key] >= floor
            assert full[section][key] >= floor


class TestMain:
    def write(self, tmp_path: Path, name: str, payload: dict) -> Path:
        path = tmp_path / name
        path.write_text(json.dumps(payload))
        return path

    def test_passing_run_exits_0(self, tmp_path, capsys):
        reference = self.write(tmp_path, "ref.json", make_report())
        report = self.write(tmp_path, "report.json", make_report())
        code = bench_gate.main([str(report), "--reference", str(reference)])
        assert code == 0
        assert "bench gate OK" in capsys.readouterr().out

    def test_regression_exits_1(self, tmp_path, capsys):
        reference = self.write(tmp_path, "ref.json", make_report())
        report = self.write(
            tmp_path, "report.json", make_report(batch=6.0 * 0.5)
        )
        code = bench_gate.main([str(report), "--reference", str(reference)])
        assert code == 1
        assert "GATE FAILURE" in capsys.readouterr().err

    def test_quick_flag_mismatch_exits_2(self, tmp_path, capsys):
        reference = self.write(tmp_path, "ref.json", make_report(quick=True))
        report = self.write(tmp_path, "report.json", make_report(quick=False))
        code = bench_gate.main([str(report), "--reference", str(reference)])
        assert code == 2
        assert "workload mismatch" in capsys.readouterr().err

    def test_missing_report_exits_2(self, tmp_path):
        assert bench_gate.main([str(tmp_path / "missing.json")]) == 2

    def test_malformed_report_exits_2(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("not json{")
        assert bench_gate.main([str(bad)]) == 2

    def test_bad_tolerance_exits_2(self, tmp_path):
        report = self.write(tmp_path, "report.json", make_report())
        assert bench_gate.main([str(report), "--max-slowdown", "1.5"]) == 2

    def test_committed_quick_reference_gates_itself(self, capsys):
        code = bench_gate.main([str(REPO_ROOT / "BENCH_engine_quick.json")])
        assert code == 0
