"""End-to-end tests for the moving-client (safe-region kNN) monitor path.

The central claim: a safe-region monitor that skips re-evaluation while
each client's cloak stays inside its validity region produces refined
exact answers **byte-identical** to a per-tick-recompute oracle — and to
a brute-force kNN at the client's true position — across anonymizer
kinds and shard counts, while doing far fewer server evaluations.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.anonymizer import PrivacyProfile
from repro.continuous import ContinuousQueryMonitor
from repro.geometry import Point, Rect
from repro.observability import enabled
from repro.server import Casper
from repro.workloads import build_commuter_scenario, drive_trace
from tests.conftest import UNIT, random_points

K = 3
NUM_QUERIES = 12


def build_stack(
    scenario,
    targets,
    *,
    anonymizer="adaptive",
    shards=1,
    parallel=False,
    safe_region=True,
    margin_factor=1.5,
):
    casper = Casper(
        UNIT,
        pyramid_height=6,
        anonymizer=anonymizer,
        shards=shards,
        parallel=parallel,
    )
    scenario.register_all(casper)
    casper.add_public_targets(targets)
    monitor = ContinuousQueryMonitor(
        casper, validity_margin_factor=margin_factor
    )
    for uid in range(NUM_QUERIES):
        monitor.register_knn(f"q{uid}", uid, k=K, safe_region=safe_region)
    return casper, monitor


@pytest.fixture(scope="module")
def workload():
    """One recorded commuter trace shared by every configuration."""
    rng = np.random.default_rng(7)
    scenario_seed = 33
    scenario = build_commuter_scenario(80, seed=scenario_seed, k_range=(2, 12))
    ticks = [scenario.step() for _ in range(10)]
    targets = {
        f"t{i}": p for i, p in enumerate(random_points(rng, 120))
    }
    return scenario_seed, ticks, targets


def fresh_scenario(scenario_seed):
    return build_commuter_scenario(80, seed=scenario_seed, k_range=(2, 12))


def brute_knn(targets, u: Point, k: int):
    order = sorted(targets, key=lambda oid: targets[oid].squared_distance_to(u))
    return tuple(sorted(order[:k], key=str))


class TestOracleEquivalence:
    @pytest.mark.parametrize("anonymizer", ["basic", "adaptive"])
    @pytest.mark.parametrize("shards", [1, 4])
    def test_safe_region_matches_per_tick_oracle(
        self, workload, anonymizer, shards
    ):
        scenario_seed, ticks, targets = workload
        (_casper_s, safe), (_casper_o, oracle) = (
            build_stack(
                fresh_scenario(scenario_seed), targets,
                anonymizer=anonymizer, shards=shards, safe_region=safe_region,
            )
            for safe_region in (True, False)
        )
        positions = {}
        for batch in ticks:
            moves = [(u.uid, u.point) for u in batch]
            positions.update({u.uid: u.point for u in batch})
            for monitor in (safe, oracle):
                monitor.on_users_moved(moves)
                monitor.flush()
            for uid in range(NUM_QUERIES):
                u = positions[uid]
                refined_safe = safe.candidates_of(f"q{uid}").refine_k_nearest(u, K)
                refined_oracle = oracle.candidates_of(f"q{uid}").refine_k_nearest(u, K)
                assert refined_safe == refined_oracle
                assert (
                    tuple(sorted((str(o) for o in refined_safe)))
                    == tuple(str(o) for o in brute_knn(targets, u, K))
                )
        # The whole point: the safe arm re-queried strictly less.
        assert (
            safe.counters["knn_evaluations"]
            < oracle.counters["knn_evaluations"]
        )

    def test_parallel_runtime_smoke(self, workload):
        scenario_seed, ticks, targets = workload
        casper, safe = build_stack(
            fresh_scenario(scenario_seed), targets, shards=2, parallel=True
        )
        with casper:
            _c2, oracle = build_stack(
                fresh_scenario(scenario_seed), targets, safe_region=False
            )
            positions = {}
            for batch in ticks[:5]:
                moves = [(u.uid, u.point) for u in batch]
                positions.update({u.uid: u.point for u in batch})
                for monitor in (safe, oracle):
                    monitor.on_users_moved(moves)
                    monitor.flush()
            for uid in range(NUM_QUERIES):
                u = positions[uid]
                assert safe.candidates_of(f"q{uid}").refine_k_nearest(
                    u, K
                ) == oracle.candidates_of(f"q{uid}").refine_k_nearest(u, K)


class TestSuppressionAccounting:
    def test_counters_and_lifetimes(self, workload):
        scenario_seed, ticks, targets = workload
        _casper, monitor = build_stack(fresh_scenario(scenario_seed), targets)
        report = drive_trace(monitor, ticks)
        assert report.ticks == len(ticks)
        assert report.queries == NUM_QUERIES
        assert monitor.counters["ticks"] == len(ticks)
        # Every flush-scan cloak change was either absorbed or re-queried.
        assert report.suppressed + report.validity_exits >= report.suppressed
        assert report.knn_evaluations == monitor.counters["knn_evaluations"]
        assert 0.0 <= report.requery_rate <= 1.0
        assert report.suppression_ratio >= 1.0
        if report.knn_evaluations:
            assert monitor.mean_validity_lifetime >= 0.0
        # Naive drive on a fresh deployment evaluates every query every
        # tick by construction.
        _c2, naive = build_stack(
            fresh_scenario(scenario_seed), targets, safe_region=False
        )
        naive_report = drive_trace(naive, ticks, naive_per_tick=True)
        assert naive_report.knn_evaluations == NUM_QUERIES * len(ticks)
        assert naive_report.requery_rate == 1.0
        assert report.knn_evaluations < naive_report.knn_evaluations

    def test_validity_region_exposed_and_contains_cloak(self, workload):
        scenario_seed, ticks, targets = workload
        casper, monitor = build_stack(fresh_scenario(scenario_seed), targets)
        for uid in range(NUM_QUERIES):
            validity = monitor.validity_of(f"q{uid}")
            assert validity is not None
            assert validity.contains_rect(casper.cloak_for(uid).region)
        # Oracle-mode queries expose no validity region.
        _c2, oracle = build_stack(
            fresh_scenario(scenario_seed), targets, safe_region=False
        )
        assert oracle.validity_of("q0") is None

    def test_telemetry_events_recorded(self, workload):
        scenario_seed, ticks, targets = workload
        with enabled() as session:
            _casper, monitor = build_stack(
                fresh_scenario(scenario_seed), targets
            )
            drive_trace(monitor, ticks)
            snapshot = session.metrics.snapshot()
        names = {entry["name"] for entry in snapshot["metrics"]}
        if monitor.counters["suppressed"]:
            assert "casper_monitor_safe_region_events_total" in names
        if monitor.counters["knn_evaluations"]:
            assert "casper_monitor_validity_lifetime_ticks" in names


class TestTargetChurn:
    def test_target_insert_inside_watch_dirties(self, workload):
        scenario_seed, _ticks, targets = workload
        casper, monitor = build_stack(fresh_scenario(scenario_seed), targets)
        u = casper.cloak_for(0).region.center
        monitor.on_target_update("hot", u)
        changes = {c.query_id for c in monitor.flush()}
        assert "q0" in changes
        refined = monitor.candidates_of("q0").refine_k_nearest(u, K)
        assert "hot" in {str(o) for o in refined} or "hot" in set(
            map(str, refined)
        )

    def test_target_delete_re_evaluates(self, workload):
        scenario_seed, _ticks, targets = workload
        casper, monitor = build_stack(fresh_scenario(scenario_seed), targets)
        # Delete a target the query currently has among its candidates.
        victim = next(iter(monitor.candidates_of("q0").oids()))
        monitor.on_target_update(
            victim, None, old_position=targets[str(victim)]
        )
        monitor.flush()
        assert victim not in set(monitor.candidates_of("q0").oids())
