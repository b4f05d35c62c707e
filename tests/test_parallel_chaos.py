"""Chaos over the real transport: worker crashes on live processes.

The ``worker-crash`` scenario drives a ``parallel=True`` deployment —
actual OS processes, frames on real pipes — while the baseline stays
in-process, so a matching answer stream witnesses cross-runtime
equivalence under injected partial failure.  The ladder's contract is
unchanged: degrade availability, never privacy.
"""

from __future__ import annotations

import json
import multiprocessing

import pytest

from repro.observability import enabled
from repro.resilience import (
    SCENARIOS,
    ChaosWorkload,
    FaultPlan,
    get_scenario,
    run_chaos,
)

PARALLEL = ChaosWorkload(
    users=10, targets=8, steps=60, continuous_queries=3, shards=4,
    parallel=True,
)


class TestWorkerCrashScenario:
    def test_registered_with_a_worker_crash_cadence(self) -> None:
        plan = SCENARIOS["worker-crash"]
        assert plan.worker_crash_period > 0
        assert not plan.is_quiet

    def test_plan_validation_rejects_negative_period(self) -> None:
        with pytest.raises(ValueError):
            FaultPlan(name="bad", seed=1, worker_crash_period=-1)

    def test_privacy_and_gate_hold_over_real_processes(self) -> None:
        report = run_chaos(get_scenario("worker-crash"), PARALLEL)
        assert report.ok
        assert report.privacy_violations == 0
        assert report.runtime["fault_counts"]["worker_crash"] > 0
        assert report.runtime["counters"]["worker_crashes"] > 0
        slo = report.slo
        assert slo["queries_answered"] > 0
        assert json.loads(report.to_json())["workload"]["parallel"] is True

    def test_report_is_byte_deterministic(self) -> None:
        plan = get_scenario("worker-crash")
        assert (
            run_chaos(plan, PARALLEL).to_json()
            == run_chaos(plan, PARALLEL).to_json()
        )

    def test_no_orphans_even_with_crashes(self) -> None:
        before = len(multiprocessing.active_children())
        run_chaos(get_scenario("worker-crash"), PARALLEL)
        assert len(multiprocessing.active_children()) == before

    @pytest.mark.parametrize("kind", ["basic", "adaptive"])
    def test_both_anonymizer_kinds_survive(self, kind) -> None:
        workload = ChaosWorkload(
            users=10, targets=8, steps=40, continuous_queries=3, shards=2,
            parallel=True, anonymizer=kind,
        )
        report = run_chaos(get_scenario("worker-crash"), workload)
        assert report.ok, kind
        assert report.privacy_violations == 0


class TestParallelUnderOtherScenarios:
    def test_wire_faults_hit_the_real_frame_stream(self) -> None:
        # drop/corrupt/reorder now act on genuine pipe bytes; the
        # stop-and-wait retransmission must still converge to matching
        # answers — and a reply the injector holds is asked for again,
        # never waited out until a healthy worker is declared hung.
        for name in ("drop-heavy", "reorder", "continuous-drift", "flaky-everything"):
            with enabled() as session:
                report = run_chaos(get_scenario(name), PARALLEL)
            assert report.ok, name
            assert report.privacy_violations == 0
            timeouts = [
                metric.labels for metric in session.metrics
                if metric.name == "casper_worker_events_total"
                and dict(metric.labels)["event"] == "timeout"
            ]
            assert not timeouts, (name, timeouts)
