"""Tests for the chaos harness, the scenario registry and the CLI gate."""

from __future__ import annotations

import json
from collections import Counter
from dataclasses import replace

import pytest

from repro.observability import enabled
from repro.resilience import (
    CI_SCENARIOS,
    SCENARIOS,
    ChaosWorkload,
    get_scenario,
    run_chaos,
)
from tests.test_resilience_properties import assert_resilient

SMALL = ChaosWorkload(users=10, targets=8, steps=40, continuous_queries=3)


class TestScenarioRegistry:
    def test_ci_scenarios_are_registered(self):
        for name in CI_SCENARIOS:
            assert name in SCENARIOS

    def test_get_scenario_reseeds_without_mutating_the_registry(self):
        plan = get_scenario("drop-heavy", seed=999)
        assert plan.seed == 999
        assert plan.drop == SCENARIOS["drop-heavy"].drop
        assert SCENARIOS["drop-heavy"].seed != 999

    def test_unknown_scenario_raises(self):
        with pytest.raises(KeyError, match="unknown fault scenario"):
            get_scenario("nope")

    def test_calm_scenario_is_quiet(self):
        assert SCENARIOS["calm"].is_quiet


class TestWorkloadValidation:
    @pytest.mark.parametrize(
        "kwargs",
        [
            {"users": 1},
            {"targets": 0},
            {"steps": 0},
            {"anonymizer": "quantum"},
            {"continuous_queries": 99},
            {"flush_every": 0},
        ],
    )
    def test_bad_workloads_rejected(self, kwargs):
        with pytest.raises(ValueError):
            ChaosWorkload(**kwargs)


class TestRunChaos:
    """Hand-picked cases of the fault rule (``assert_resilient``), each
    also held to the SLO gate."""

    def test_calm_plan_matches_the_baseline_exactly(self):
        assert assert_resilient(SMALL, get_scenario("calm")).ok

    @pytest.mark.parametrize("name", CI_SCENARIOS)
    def test_ci_scenarios_never_violate_privacy(self, name):
        assert assert_resilient(SMALL, get_scenario(name)).ok

    def test_report_is_byte_deterministic(self):
        plan = get_scenario("flaky-everything")
        assert assert_resilient(SMALL, plan).to_json() == run_chaos(plan, SMALL).to_json()

    def test_fault_counter_tallies_the_trace_on_the_worker_pipes(self, monkeypatch):
        """Every fault lands in ``casper_faults_injected_total`` under its
        kind and channel class, those injected on the worker pipes too."""
        from repro.resilience import ResilienceRuntime, harness

        runtimes: list[ResilienceRuntime] = []
        monkeypatch.setattr(harness, "ResilienceRuntime", lambda plan: (
            runtimes.append(ResilienceRuntime(plan)) or runtimes[-1]
        ))
        workload = ChaosWorkload(users=10, targets=8, steps=60, continuous_queries=3,
                                 shards=4, parallel=True)
        with enabled() as session:
            run_chaos(get_scenario("drop-heavy"), workload)
        trace = runtimes[0].injector.trace
        tally = Counter((event.kind, event.channel.split(":", 1)[0]) for event in trace)
        counted = {
            (dict(metric.labels)["kind"], dict(metric.labels)["channel"]): metric.value
            for metric in session.metrics if metric.name == "casper_faults_injected_total"
        }
        assert ("drop", "shard") in tally
        assert counted == tally

    def test_different_fault_seed_changes_the_trace(self):
        base = run_chaos(get_scenario("drop-heavy"), SMALL)
        reseeded = run_chaos(get_scenario("drop-heavy", seed=12345), SMALL)
        assert base.trace_digest != reseeded.trace_digest

    def test_report_json_shape(self):
        report = run_chaos(get_scenario("drop-heavy"), SMALL)
        payload = json.loads(report.to_json(indent=2))
        assert payload["scenario"] == "drop-heavy"
        assert payload["workload"]["users"] == SMALL.users
        assert set(payload["runtime"]["fault_counts"]) == {
            "drop", "duplicate", "delay", "reorder", "corrupt",
            "crash", "shard_crash", "state_loss",
        }
        assert payload["slo"]["queries_total"] == (
            payload["slo"]["queries_answered"] + payload["slo"]["queries_degraded"]
        )

    def test_both_anonymizers_survive_chaos(self):
        for kind in ("basic", "adaptive"):
            workload = replace(SMALL, anonymizer=kind)
            assert assert_resilient(workload, get_scenario("crash-restart")).ok, kind


class TestChaosCli:
    def run_cli(self, *argv: str) -> int:
        from repro.__main__ import main

        return main(["chaos", *argv])

    def test_check_gate_passes_on_a_ci_scenario(self, tmp_path, capsys):
        out = tmp_path / "report.json"
        code = self.run_cli(
            "--scenario", "drop-heavy", "--users", "10", "--targets", "8",
            "--steps", "40", "--check", "--out", str(out),
        )
        assert code == 0
        captured = capsys.readouterr()
        assert "resilience gate OK" in captured.out
        payload = json.loads(out.read_text())
        assert payload["privacy_violations"] == 0

    def test_unknown_scenario_exits_2(self, capsys):
        assert self.run_cli("--scenario", "nope") == 2
        assert "available:" in capsys.readouterr().err

    def test_unreachable_slo_bound_fails_the_gate(self, capsys):
        code = self.run_cli(
            "--scenario", "crash-restart", "--users", "10", "--targets", "8",
            "--steps", "60", "--check", "--min-match-ratio", "1.01",
        )
        assert code == 1
        assert "GATE FAILURE" in capsys.readouterr().err
