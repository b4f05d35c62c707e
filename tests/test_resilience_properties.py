"""The fault rule, and the fault injector's own properties.

The rule draws a deployment (every registered policy; unsharded, at
``shards=4`` in process and on the worker fleet; 0 or 2 continuous kNN
queries) and a fault plan, and holds ``run_chaos`` over ``TINY`` to
Section 4's contract: faults degrade availability, never privacy
(``docs/resilience.md``, "The fault rule").  In process every knob
spans its whole domain.  On the fleet the plan is a named scenario under
a drawn seed: heavier wire faults there deadlock the parent and a worker
on their duplex pipe, or raise an untyped ``RuntimeError``, transport
failures recorded, not fixed, while the fleet's future is open.  A
sibling property holds the same draws to byte-identical reruns, and the
hand-picked chaos cases in ``test_chaos_harness.py`` and
``test_sharding_chaos.py`` run the rule's check, ``assert_resilient``,
at their own shapes.
"""

from __future__ import annotations

from dataclasses import replace

from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.anonymizer import available_policies
from repro.observability import enabled
from repro.resilience import (
    SCENARIOS, ChaosReport, ChaosWorkload, FaultInjector, FaultPlan, get_scenario,
    run_chaos,
)

TINY = ChaosWorkload(users=8, targets=6, steps=24, continuous_queries=2)
#: ``(shards, parallel)``: unsharded, in process, on the worker fleet.
LANES = [(1, False), (4, False), (4, True)]

seeds = st.integers(min_value=0, max_value=2**31 - 1)
unit = st.just(0.0) | st.floats(min_value=0.0, max_value=1.0)
periods = st.just(0) | st.integers(min_value=1, max_value=64)

drawn_plans = st.builds(
    FaultPlan, name=st.just("drawn"), seed=seeds, delay_ticks=st.integers(1, 8),
    crash_period=periods, shard_crash_period=periods,
    **dict.fromkeys(("drop", "duplicate", "delay", "reorder", "corrupt", "lose_user"), unit),
)
quiet = st.builds(FaultPlan, name=st.just("quiet"), seed=seeds)
in_process_plans = st.one_of(quiet, *[drawn_plans] * 3)  # one plan in four is quiet
fleet_plans = st.builds(get_scenario, st.sampled_from(sorted(SCENARIOS)), seeds)
messages = st.lists(st.binary(min_size=1, max_size=80), min_size=1, max_size=40)


@st.composite
def chaos_cases(draw: st.DrawFn) -> tuple[ChaosWorkload, FaultPlan]:
    shards, parallel = draw(st.sampled_from(LANES))
    policy, knn = draw(st.sampled_from(available_policies())), draw(st.sampled_from([0, 2]))
    plans = fleet_plans if parallel else in_process_plans
    knobs = dict(anonymizer=policy, shards=shards, parallel=parallel, continuous_knn=knn)
    return replace(TINY, **knobs), draw(plans)


def case(scenario: str, workload: ChaosWorkload, **knobs: object) -> tuple:
    """A named scenario at its default seed on ``workload`` with ``knobs``."""
    return replace(workload, **knobs), get_scenario(scenario)


def counted(session: object, name: str, **labels: str) -> float:
    """The total of one telemetry counter over the series ``labels`` pick."""
    return sum(
        metric.value for metric in session.metrics
        if metric.name == name and labels.items() <= dict(metric.labels).items()
    )


def assert_resilient(workload: ChaosWorkload, plan: FaultPlan) -> ChaosReport:
    """Run ``plan`` over ``workload`` and hold the report to the rule's
    contract; the named chaos cases call it at their own shapes."""
    with enabled() as session:
        report = run_chaos(plan, workload)
    assert report.privacy_violations == 0
    slo = report.slo
    assert slo["queries_answered"] + slo["queries_degraded"] == slo["queries_total"]
    if plan.is_quiet:  # exactly the fault-free baseline
        assert report.runtime["faults_injected"] == slo["update_failures"] == 0
        assert slo["match_ratio"] == slo["availability"] == 1.0
        assert slo["monitor_queries_matching_baseline"] == slo["monitor_queries_total"]
    crashes = report.runtime["fault_counts"]
    healed = crashes["shard_crash"] if workload.parallel else 0
    restored = crashes["crash"] + crashes["shard_crash"] - healed
    assert report.runtime["counters"]["worker_crashes"] == healed
    assert counted(session, "casper_recoveries_total", kind="restore") == restored
    assert counted(session, "casper_worker_events_total", event="timeout") == 0
    return report


@settings(max_examples=40, print_blob=True)
@given(case=chaos_cases())
# ``python -m repro chaos --scenario crash-restart --anonymizer clique``:
# the escalation rung on a policy with no cell index of its own.
@example(case=case("crash-restart", ChaosWorkload(), anonymizer="clique"))
def test_any_fault_plan_degrades_availability_never_privacy(case):
    assert_resilient(*case)


@settings(max_examples=20, print_blob=True)
@given(case=chaos_cases())
def test_same_seed_reproduces_the_report_byte_for_byte(case):
    """The rule's draws, run twice: the first under telemetry, so
    telemetry does not perturb the report either."""
    workload, plan = case
    with enabled():
        first = run_chaos(plan, workload).to_json()
    assert run_chaos(plan, workload).to_json() == first


@settings(max_examples=20)
@given(plan=drawn_plans, messages=messages)
def test_injector_trace_is_a_pure_function_of_seed_and_traffic(plan, messages):
    def drive() -> tuple[str, list[list[bytes]]]:
        injector = FaultInjector(plan)
        batches = []
        for i, payload in enumerate(messages):
            deliveries = injector.transmit(f"update:u{i % 3}", payload)
            batches.append([d.payload for d in deliveries])
            injector.next_op()
        return injector.trace_json(), batches

    trace_a, batches_a = drive()
    trace_b, batches_b = drive()
    assert trace_a == trace_b
    assert batches_a == batches_b


@settings(max_examples=20)
@given(plan=drawn_plans, payload=st.binary(min_size=1, max_size=120))
def test_deliveries_are_copies_of_sent_traffic_or_one_bit_off(plan, payload):
    """The injector never invents traffic: every delivered payload is a
    sent payload, or a sent payload with exactly one bit flipped."""
    injector = FaultInjector(plan)
    sent = [bytes([i]) + payload for i in range(10)]
    delivered = []
    for message in sent:
        delivered.extend(d.payload for d in injector.transmit("c", message))
    for got in delivered:
        if got in sent:
            continue
        assert any(
            len(got) == len(original)
            and sum(bin(a ^ b).count("1") for a, b in zip(got, original)) == 1
            for original in sent
        )
