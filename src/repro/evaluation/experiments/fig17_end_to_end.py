"""Figure 17 — Casper end-to-end performance.

Total time from submitting a private NN query to receiving the result,
split into location-anonymizer time, privacy-aware query-processing time
and candidate-list transmission time (64-byte records over 100 Mbps),
for both public and private target data, across k-anonymity groups.
Adaptive anonymizer, four filters — the paper's configuration.

Paper-shape expectations: the anonymizer's share is negligible; query
processing dominates for relaxed profiles; transmission dominates (and
keeps growing) for strict profiles because strict cloaks yield large
candidate lists.
"""

from __future__ import annotations

from statistics import mean

from repro.errors import ProfileUnsatisfiableError
from repro.evaluation.experiments.common import UNIT
from repro.evaluation.results import ExperimentResult
from repro.mobility import generate_trace
from repro.server import Casper, TransmissionModel
from repro.utils.rng import ensure_rng
from repro.workloads import (
    uniform_points,
    uniform_private_regions,
    uniform_profiles,
)

__all__ = ["run_fig17"]

SMALL_K_GROUPS = ((1, 10), (10, 20), (20, 30), (30, 40), (40, 50))
LARGE_K_GROUPS = ((1, 10), (30, 50), (50, 100), (100, 150), (150, 200))


def _measure_group(
    k_group: tuple[int, int],
    num_users: int,
    num_targets: int,
    num_queries: int,
    height: int,
    data_cells_range: tuple[float, float],
    seed: int,
) -> dict[str, float]:
    """One k-group's mean per-query component times for both data kinds."""
    trace = generate_trace(num_users, 0, seed=seed)
    profiles = uniform_profiles(num_users, UNIT, k_range=k_group, seed=seed)
    casper = Casper(
        UNIT,
        pyramid_height=height,
        anonymizer="adaptive",
        transmission=TransmissionModel(record_bytes=64, bandwidth_mbps=100.0),
    )
    for uid in sorted(trace.initial):
        casper.register_user(uid, trace.initial[uid], profiles[uid])
    casper.add_public_targets(uniform_points(num_targets, UNIT, seed=seed + 1))
    # Replace the registered users' live cloaks with an explicit private
    # target workload of the paper's [1-64]-cell regions for the
    # private-data measurements (targets are a separate population).
    private_targets = uniform_private_regions(
        num_targets, UNIT, height, cells_range=data_cells_range, seed=seed + 2
    )
    casper.server.store_private(
        (f"target-{oid}", region) for oid, region in private_targets.items()
    )

    rng = ensure_rng(seed + 3)
    sample = [int(u) for u in rng.choice(num_users, size=num_queries, replace=False)]
    rows: dict[str, list[float]] = {
        "public anonymizer": [],
        "public processing": [],
        "public transmission": [],
        "private anonymizer": [],
        "private processing": [],
        "private transmission": [],
    }
    for uid in sample:
        try:
            pub = casper.query_nearest_public(uid, num_filters=4)
            priv = casper.query_nearest_private(uid, num_filters=4)
        except ProfileUnsatisfiableError:
            continue
        rows["public anonymizer"].append(pub.anonymizer_seconds)
        rows["public processing"].append(pub.processing_seconds)
        rows["public transmission"].append(pub.transmission_seconds)
        rows["private anonymizer"].append(priv.anonymizer_seconds)
        rows["private processing"].append(priv.processing_seconds)
        rows["private transmission"].append(priv.transmission_seconds)
    return {label: (mean(vals) if vals else float("nan")) for label, vals in rows.items()}


def run_fig17(
    num_users: int = 4_000,
    num_targets: int = 2_000,
    num_queries: int = 60,
    height: int = 9,
    small_groups: tuple[tuple[int, int], ...] = SMALL_K_GROUPS,
    large_groups: tuple[tuple[int, int], ...] = LARGE_K_GROUPS,
    data_cells_range: tuple[float, float] = (1, 64),
    seed: int = 0,
) -> dict[str, ExperimentResult]:
    """Run both Figure 17 panels; returns them keyed 'a' and 'b'."""
    panels: dict[str, ExperimentResult] = {}
    for key, groups, title in (
        ("a", small_groups, "End-to-end time, small k groups"),
        ("b", large_groups, "End-to-end time, large k groups"),
    ):
        labels = [f"[{lo}-{hi}]" for lo, hi in groups]
        panel = ExperimentResult(
            f"Figure 17{key}", title, "k range",
            "avg seconds per query, by component", labels,
            notes="adaptive anonymizer, 4 filters, 64 B records @ 100 Mbps",
        )
        component_rows: dict[str, list[float]] = {}
        for group in groups:
            measured = _measure_group(
                group,
                num_users,
                num_targets,
                num_queries,
                height,
                data_cells_range,
                seed,
            )
            for label, value in measured.items():
                component_rows.setdefault(label, []).append(value)
        for label, values in component_rows.items():
            panel.add_series(label, values)
        panels[key] = panel
    return panels
