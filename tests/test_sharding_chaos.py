"""Chaos coverage for sharded deployments: a crashed shard costs
availability, never privacy, and recovers the way its deployment does —
a worker fleet kills and heals the victim's process, one process
restores its whole snapshot.

Parallel runs use real OS processes and real pipes while the baseline
stays in-process, so a matching answer stream also witnesses
cross-runtime equivalence under injected partial failure.
"""

from __future__ import annotations

import multiprocessing

import pytest

from repro.observability import enabled
from repro.resilience import ChaosWorkload, get_scenario, run_chaos

SHAPE = dict(users=16, targets=10, steps=120, continuous_queries=3)
SHARDED = ChaosWorkload(**SHAPE, shards=4, anonymizer="basic")

#: One case per way a shard crash can land.
CRASH_CASES = {
    "1-shard": ChaosWorkload(**SHAPE, shards=1),
    "4-shards-basic": SHARDED,
    "4-shards-adaptive": ChaosWorkload(**SHAPE, shards=4, anonymizer="adaptive"),
    "4-shards-parallel": ChaosWorkload(**SHAPE, shards=4, parallel=True),
}


class TestShardCrashScenario:
    def test_registered_and_in_ci(self) -> None:
        from repro.resilience import CI_SCENARIOS, SCENARIOS

        assert "shard-crash" in SCENARIOS
        assert "shard-crash" in CI_SCENARIOS
        for name in ("shard-crash", "worker-crash", "continuous-drift"):
            assert SCENARIOS[name].shard_crash_period > 0, name

    @pytest.mark.parametrize("case", CRASH_CASES)
    def test_a_shard_crash_recovers_the_way_its_deployment_does(self, case) -> None:
        workload = CRASH_CASES[case]
        plan = get_scenario("shard-crash")
        before = len(multiprocessing.active_children())
        report = run_chaos(plan, workload)
        assert len(multiprocessing.active_children()) == before  # no orphans
        crashes = report.runtime["fault_counts"]["shard_crash"]
        counters = report.runtime["counters"]
        assert crashes > 0
        # The fleet heals the victim's process and nothing rolls back;
        # one process restores its whole snapshot.
        healed, restored = (
            (crashes, 0) if workload.parallel else (0, crashes)
        )
        assert counters["worker_crashes"] == healed
        assert counters["recoveries"] == restored
        assert report.privacy_violations == 0
        assert report.to_json() == run_chaos(plan, workload).to_json()

    def test_other_scenarios_run_sharded(self) -> None:
        for name in ("drop-heavy", "crash-restart"):
            report = run_chaos(get_scenario(name), SHARDED)
            assert report.ok, name


class TestParallelUnderOtherScenarios:
    def test_wire_faults_hit_the_real_frame_stream(self) -> None:
        # drop/corrupt/reorder now act on genuine pipe bytes; the
        # stop-and-wait retransmission must still converge to matching
        # answers — and a reply the injector holds is asked for again,
        # never waited out until a healthy worker is declared hung.
        workload = ChaosWorkload(
            users=10, targets=8, steps=60, continuous_queries=3, shards=4,
            parallel=True,
        )
        for name in ("drop-heavy", "reorder", "continuous-drift", "flaky-everything"):
            with enabled() as session:
                report = run_chaos(get_scenario(name), workload)
            assert report.ok, name
            assert report.privacy_violations == 0
            timeouts = [
                metric.labels for metric in session.metrics
                if metric.name == "casper_worker_events_total"
                and dict(metric.labels)["event"] == "timeout"
            ]
            assert not timeouts, (name, timeouts)
