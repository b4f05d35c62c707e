#!/usr/bin/env python
"""Bench-regression gate: compare a fresh report to the committed reference.

``tools/bench.py`` writes absolute timings, which vary with the host, so
this gate compares only the *dimensionless* speedup ratios the
engine-performance pass claims (cached-vs-uncached cloaking, pruned
kNN vs the full sort, batched vs sequential queries, the worker
pool's 8-way update scaling quotient, and the safe-region
monitor's evaluation-suppression ratio over the naive per-tick
re-query baseline).  Each ratio is a
same-machine, same-run quotient, so it is stable across hardware — a
drop means the optimization itself regressed, not the runner.

The columnar candidate list is gated by absolute floors instead
(``FLOORS``): its quotients are column kernel vs the scalar per-pair
oracle, and what must hold is the claim itself — decode at least 10x,
local refinement at least 3x, and the candidate step out of an R-tree
(a stable sort of the stored wire column) at least 1.2x the scalar
``sorted(key=str)`` plus a per-id encode, half its first reading —
not closeness to one host's reading.
So is the batch cloak kernel (``cloak.batch_speedup``: one
``cloak_many`` of a freshly invalidated population against the
one-walk-at-a-time ``uncached_cloaks_per_second``).  Its floor was 3x
while the scalar walk built a ``CellId`` per count read.  The walk now
climbs Morton codes and runs W = 2.92x as many uncached cloaks a second
(the ratio of the medians of ``uncached_cloaks_per_second`` over nine
interleaved runs a side, full scale; quick read 3.60 and the smaller
ratio is used), so the quotient's denominator grew by W and the floor
is 3.0 / W rounded down to one decimal, 1.0x: the kernel must still
run at about three times the old walk's rate.  A ``cloak_many`` that is
the loop reads 0.40-0.86x quick and 0.75-1.57x full.
So is telemetry's price (``cloak.telemetry_speed``: the cached cloak
drain with the observability layer on over off, measured in every run
whatever its ``--telemetry`` flag).  A cached cloak costs a few µs
and its telemetry ~3.8 µs more, so the quotient reads 0.33-0.43 quick
and 0.27-0.31 full; the floor, 0.2, is telemetry grown to ~1.5x that
price at full scale.
So is the server's per-index-version memo (``nn_latency.warm_speedup``:
the same areas through one ``LocationServer`` twice, the cold pass's
time over the warm pass's, best of three servers).  It read 5.16-5.66
quick and 4.86 full; the floor, 4.0, is the smaller reading less the
quick runs' spread, rounded down.  Without the memo the quotient is ~1.
So is the shard layer's price (``shard_scaling.fleet_vs_engine``, bare
engine time / 1-shard in-process deployment time on one script): at
least 0.5, so a second implementation of the pyramid cannot quietly
grow back under the shard surface.

The sharded benches' cloak-cache hit-rate tables (``EXACT_TABLES``) are
gated for *exact* equality with the reference: they depend only on the
seeded operation stream, never on the host.  ``shard_scaling`` has one
cache per deployment, so its table is the aggregate rate per shard
count; ``shard_parallel`` has one per worker, so its table adds the
per-worker rates (the invalidation-locality effect itself) — unlike
the ``cloak_scaling_8x`` quotient beside them, which is reported and
not gated: its denominator moves whenever the 1-worker path gets
cheaper, so it can fall with every rate up.

So are the seeded counters (``EXACT_COUNTERS``).  The
``continuous_mobility`` ones — evaluations per tick, suppressed cloak
changes, validity exits and the two mean candidate-list sizes — are
functions of the recorded trace and the monitor's dirtiness rules
alone, so a differing digit means the monitor re-queries differently.
The ``adaptive_maintenance`` ones — splits, merges, cell changes,
counter updates per update and the quiet-move share, and the replicated
deployment's splits, merges and cell changes — are functions of the
seeded trace and Section 4.2's gates alone, so a differing digit means
the adaptive cut is maintained differently (or differently behind the
shard surface).  The ``shard_parallel`` ones — parent→worker envelopes
and bytes per move over the timed update phase, per worker count — are
functions of the seeded move script and the pool's queueing rules, so a
differing digit means moves cross the pipes differently.  The timings beside
them (``wall_clock_speedup``, the moves per second) are reported, not
gated.

The reference is auto-selected by the report's ``quick`` flag:
``BENCH_engine_quick.json`` for ``--quick`` CI smoke runs,
``BENCH_engine.json`` for full runs.  An ``instrumented``
(``--telemetry``) report is held to the same reference, except for the
ratios telemetry itself moves (``TELEMETRY_MOVED``): an instrumented
cloak pays its telemetry on every call, cached or not, so
``cloak.speedup`` reads 2-3.5x there, and ``cloak.telemetry_speed``
is the row that gates that price.

Usage::

    python tools/bench_gate.py [REPORT] [--reference PATH]
        [--max-slowdown 0.25]

Exit codes: 0 — every ratio within tolerance; 1 — a regression beyond
``--max-slowdown``, a quotient below its floor, or a hit-rate table or
seeded counter that differs; 2 — a malformed or missing report/reference.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent

#: (section, key) of every gated dimensionless ratio.
GATED_RATIOS = (
    ("cloak", "speedup"),
    ("knn_private", "speedup"),
    ("batch", "speedup"),
    ("shard_parallel", "update_scaling_8x"),
    ("continuous_mobility", "evaluation_suppression"),
)

#: Gated ratios an instrumented report skips: telemetry's own cost
#: moves them, and ``cloak.telemetry_speed`` (a floor) gates that cost.
TELEMETRY_MOVED = (("cloak", "speedup"),)

#: (section, key, floor): same-run quotients that must stay above an
#: absolute floor, whatever the reference reads.
FLOORS = (
    ("cloak", "batch_speedup", 1.0),
    ("cloak", "telemetry_speed", 0.2),
    ("candidate_codec", "collect_speedup", 1.2),
    ("candidate_codec", "decode_speedup", 10.0),
    ("candidate_codec", "refine_speedup", 3.0),
    ("shard_scaling", "fleet_vs_engine", 0.5),
    ("nn_latency", "warm_speedup", 4.0),
)

#: (section, keys): per-shard-count hit-rate tables that must equal the
#: reference's to the last digit, and the keys of one table row.
EXACT_TABLES = (
    ("shard_scaling", ("cache_hit_rate",)),
    ("shard_parallel", ("cache_hit_rate", "cache_hit_rate_per_shard")),
)

#: (section, keys): seeded counters that must equal the reference's.
EXACT_COUNTERS = (
    (
        "continuous_mobility",
        (
            "safe_evaluations_per_tick",
            "suppressed_cloak_changes",
            "validity_exits",
            "mean_candidates_safe",
            "mean_candidates_naive",
        ),
    ),
    ("shard_parallel", ("pipe_envelopes_per_move", "pipe_bytes_per_move")),
    (
        "adaptive_maintenance",
        (
            "splits",
            "merges",
            "cell_changes",
            "counter_updates_per_update",
            "quiet_share",
            "replicated_splits",
            "replicated_merges",
            "replicated_cell_changes",
        ),
    ),
)


def load_report(path: Path) -> dict:
    try:
        report = json.loads(path.read_text())
    except OSError as exc:
        raise SystemExit(f"cannot read {path}: {exc}")
    except json.JSONDecodeError as exc:
        raise SystemExit(f"{path} is not valid JSON: {exc}")
    if not isinstance(report, dict):
        raise SystemExit(f"{path}: expected a JSON object")
    return report


def pick_reference(report: dict) -> Path:
    name = "BENCH_engine_quick.json" if report.get("quick") else "BENCH_engine.json"
    return REPO_ROOT / name


def compare(
    report: dict, reference: dict, max_slowdown: float
) -> tuple[list[str], list[str]]:
    """Return (summary lines, failure lines)."""
    lines: list[str] = []
    failures: list[str] = []
    for section, key in GATED_RATIOS:
        label = f"{section}.{key}"
        if report.get("instrumented") and (section, key) in TELEMETRY_MOVED:
            lines.append(f"{label}: not gated instrumented (see telemetry_speed)")
            continue
        try:
            current = float(report[section][key])
            baseline = float(reference[section][key])
        except (KeyError, TypeError, ValueError):
            failures.append(f"{label}: missing from report or reference")
            continue
        if baseline <= 0.0:
            failures.append(f"{label}: reference value {baseline} is not positive")
            continue
        floor = baseline * (1.0 - max_slowdown)
        verdict = "ok" if current >= floor else "REGRESSED"
        lines.append(
            f"{label}: {current:.2f}x vs reference {baseline:.2f}x "
            f"(floor {floor:.2f}x) -> {verdict}"
        )
        if current < floor:
            failures.append(
                f"{label} regressed: {current:.2f}x < {floor:.2f}x "
                f"({max_slowdown:.0%} below the reference {baseline:.2f}x)"
            )
    for section, key, floor in FLOORS:
        label = f"{section}.{key}"
        try:
            current = float(report[section][key])
        except (KeyError, TypeError, ValueError):
            failures.append(f"{label}: missing from report")
            continue
        verdict = "ok" if current >= floor else "BELOW FLOOR"
        lines.append(f"{label}: {current:.2f}x (floor {floor:g}x) -> {verdict}")
        if current < floor:
            failures.append(f"{label} below its floor: {current:.2f}x < {floor:g}x")
    for section, keys in EXACT_TABLES:
        label = f"{section}.shards hit rates"
        try:
            current_table, baseline_table = (
                {
                    count: {key: row[key] for key in keys}
                    for count, row in source[section]["shards"].items()
                }
                for source in (report, reference)
            )
        except (KeyError, TypeError, AttributeError):
            failures.append(f"{label}: missing from report or reference")
            continue
        differing = sorted(
            count
            for count in current_table.keys() | baseline_table.keys()
            if current_table.get(count) != baseline_table.get(count)
        )
        verdict = "DIFFERS" if differing else "identical"
        lines.append(
            f"{label}: {len(baseline_table)} shard counts vs reference "
            f"-> {verdict}"
        )
        if differing:
            failures.append(
                f"{label} differ from the reference at N = "
                f"{', '.join(differing)} (they depend only on the seeded "
                f"op stream, so the cache behaviour changed)"
            )
    for section, keys in EXACT_COUNTERS:
        label = f"{section} counters"
        try:
            current_row, baseline_row = (
                {key: source[section][key] for key in keys}
                for source in (report, reference)
            )
        except (KeyError, TypeError):
            failures.append(f"{label}: missing from report or reference")
            continue
        differing = [key for key in keys if current_row[key] != baseline_row[key]]
        verdict = "DIFFER" if differing else "identical"
        lines.append(f"{label}: {len(keys)} vs reference -> {verdict}")
        failures.extend(
            f"{section}.{key} differs from the reference: {current_row[key]} != "
            f"{baseline_row[key]} (it depends only on the seeded trace, so "
            f"the behaviour it counts changed)"
            for key in differing
        )
    return lines, failures


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "report", nargs="?", default="bench-ci.json",
        help="fresh bench report to check (default: bench-ci.json)",
    )
    parser.add_argument(
        "--reference", metavar="PATH", default=None,
        help="committed reference report (default: auto by the report's "
        "quick flag)",
    )
    parser.add_argument(
        "--max-slowdown", type=float, default=0.25, metavar="FRAC",
        help="allowed fractional drop per ratio (default: 0.25)",
    )
    args = parser.parse_args(argv)
    if not 0.0 <= args.max_slowdown < 1.0:
        print("--max-slowdown must be in [0, 1)", file=sys.stderr)
        return 2

    try:
        report = load_report(Path(args.report))
        reference_path = (
            Path(args.reference) if args.reference else pick_reference(report)
        )
        reference = load_report(reference_path)
    except SystemExit as exc:
        print(exc, file=sys.stderr)
        return 2
    if bool(report.get("quick")) != bool(reference.get("quick")):
        print(
            f"workload mismatch: report quick={report.get('quick')} but "
            f"reference {reference_path.name} quick={reference.get('quick')}",
            file=sys.stderr,
        )
        return 2

    print(f"gating {args.report} against {reference_path.name}")
    lines, failures = compare(report, reference, args.max_slowdown)
    for line in lines:
        print(line)
    if failures:
        for failure in failures:
            print(f"GATE FAILURE: {failure}", file=sys.stderr)
        return 1
    print("bench gate OK")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
