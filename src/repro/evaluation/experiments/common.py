"""Shared machinery for the Section 6 experiments.

Every experiment is a pure function of explicit parameters; the module
also defines two parameter presets:

* ``SMALL`` — scaled-down defaults that complete in seconds on a laptop
  (the benchmark harness's default);
* ``PAPER`` — the paper's full-scale settings (50K users, 10K targets,
  pyramid height 9); select with ``CASPER_BENCH_SCALE=paper``.

Relative trends (basic vs adaptive, 1 vs 2 vs 4 filters) are preserved
at either scale; EXPERIMENTS.md records both the expectation and what we
measured.
"""

from __future__ import annotations

import os
import time
from dataclasses import dataclass

from repro.anonymizer import AdaptiveAnonymizer
from repro.errors import ProfileUnsatisfiableError
from repro.geometry import Rect
from repro.mobility import Trace, generate_trace
from repro.workloads import build_scenario

__all__ = [
    "ScalePreset",
    "SMALL",
    "PAPER",
    "active_scale",
    "make_anonymizer",
    "register_population",
    "replay_updates",
    "timed_cloaks",
]

UNIT = Rect(0.0, 0.0, 1.0, 1.0)


@dataclass(frozen=True)
class ScalePreset:
    """Workload sizes for one scale."""

    name: str
    num_users: int
    num_targets: int
    num_queries: int
    num_cloaks: int
    trace_ticks: int
    user_counts: tuple[int, ...]  # Figure 11 sweep
    target_counts: tuple[int, ...]  # Figures 13-14 sweep


SMALL = ScalePreset(
    name="small",
    num_users=4_000,
    num_targets=2_000,
    num_queries=60,
    num_cloaks=400,
    trace_ticks=3,
    user_counts=(500, 1_000, 2_000, 4_000, 8_000),
    target_counts=(500, 1_000, 2_000, 4_000),
)

PAPER = ScalePreset(
    name="paper",
    num_users=50_000,
    num_targets=10_000,
    num_queries=200,
    num_cloaks=2_000,
    trace_ticks=5,
    user_counts=(1_000, 5_000, 10_000, 20_000, 50_000),
    target_counts=(1_000, 2_000, 4_000, 6_000, 8_000, 10_000),
)

#: Smoke-test sizes: every bench finishes in a couple of seconds.  The
#: figures lose statistical weight at this scale (some shape assertions
#: get noisy) — use for plumbing checks, not for EXPERIMENTS.md numbers.
TINY = ScalePreset(
    name="tiny",
    num_users=800,
    num_targets=500,
    num_queries=15,
    num_cloaks=80,
    trace_ticks=1,
    user_counts=(300, 600),
    target_counts=(300, 600),
)

_PRESETS = {"paper": PAPER, "small": SMALL, "tiny": TINY}


def active_scale() -> ScalePreset:
    """The preset selected by ``CASPER_BENCH_SCALE`` (default: small)."""
    name = os.environ.get("CASPER_BENCH_SCALE", "small").lower()
    try:
        return _PRESETS[name]
    except KeyError:
        raise ValueError(
            f"unknown CASPER_BENCH_SCALE {name!r}; "
            f"choose from {sorted(_PRESETS)}"
        ) from None


def make_anonymizer(kind: str, height: int, bounds: Rect = UNIT):
    """Instantiate any registered cloaking policy by name."""
    from repro.anonymizer.policy import get_policy

    return get_policy(kind).single(bounds, height, 8192)


def register_population(anonymizer, trace: Trace, profiles) -> None:
    """Register a trace's initial population, then zero the stats so the
    measured phase starts clean."""
    for uid in sorted(trace.initial):
        anonymizer.register(uid, trace.initial[uid], profiles[uid])
    anonymizer.stats.reset()


def replay_updates(anonymizer, trace: Trace) -> float:
    """Replay a trace's updates; returns the wall time spent."""
    start = time.perf_counter()
    for update in trace.all_updates():
        anonymizer.update(update.uid, update.point)
    return time.perf_counter() - start


def timed_cloaks(anonymizer, uids, repeat: int = 1) -> float:
    """Average seconds per cloak request over ``uids`` (unsatisfiable
    profiles — possible in tiny scaled-down populations — are skipped)."""
    done = 0
    start = time.perf_counter()
    for _ in range(repeat):
        for uid in uids:
            try:
                anonymizer.cloak(uid)
            except ProfileUnsatisfiableError:
                continue
            done += 1
    elapsed = time.perf_counter() - start
    return elapsed / done if done else 0.0


def standard_trace(num_users: int, ticks: int, seed: int = 0) -> Trace:
    """The shared movement trace for anonymizer experiments."""
    return generate_trace(num_users, ticks, seed=seed)


def cloaked_query_regions(
    num_users: int,
    num_queries: int,
    height: int = 9,
    k_range: tuple[int, int] = (1, 50),
    seed: int = 0,
) -> list[Rect]:
    """Query regions as the paper produces them: by cloaking users of the
    standard workload (k in [1-50], A_min in [.005-.01]% by default)
    through the adaptive anonymizer."""
    from repro.utils.rng import ensure_rng
    from repro.workloads import uniform_profiles

    trace = generate_trace(num_users, 0, seed=seed)
    profiles = uniform_profiles(num_users, UNIT, k_range=k_range, seed=seed)
    anonymizer = AdaptiveAnonymizer(UNIT, height)
    for uid in sorted(trace.initial):
        anonymizer.register(uid, trace.initial[uid], profiles[uid])
    rng = ensure_rng(seed + 17)
    regions: list[Rect] = []
    for uid in rng.choice(num_users, size=num_queries * 2, replace=False):
        try:
            regions.append(anonymizer.cloak(int(uid)).region)
        except ProfileUnsatisfiableError:
            continue
        if len(regions) == num_queries:
            break
    return regions


def scenario_profiles(num_users: int, k_range=(1, 50), seed: int = 0):
    """Profiles per the paper's default workload."""
    scenario = build_scenario(num_users, k_range=k_range, seed=seed)
    return scenario.profiles
