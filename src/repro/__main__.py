"""Command-line interface: ``python -m repro <command>``.

Commands
--------
figures [names...]     regenerate the paper's figures (default: all);
                       honours CASPER_BENCH_SCALE (small | paper)
demo                   run a compact end-to-end demonstration
lint                   run casperlint (privacy-boundary, determinism,
                       index-contract and correctness rules)
metrics                run an instrumented example and print its
                       privacy-screened telemetry (JSON or Prometheus)
chaos                  replay a workload under a named fault scenario
                       and audit privacy + SLOs (the CI resilience gate)
info                   print the library version and component inventory
"""

from __future__ import annotations

import argparse
import sys

import repro


def _cmd_figures(args: argparse.Namespace) -> int:
    from repro.evaluation.runner import FIGURES, main

    names = args.names or None
    if names:
        unknown = [n for n in names if n not in FIGURES]
        if unknown:
            print(f"unknown figures: {', '.join(unknown)}", file=sys.stderr)
            print(f"available: {', '.join(FIGURES)}", file=sys.stderr)
            return 2
    if args.parallel < 1:
        print("--parallel must be >= 1", file=sys.stderr)
        return 2
    main(
        names,
        charts=not args.no_charts,
        parallel=args.parallel,
        telemetry_path=args.telemetry,
    )
    return 0


def _cmd_demo(_args: argparse.Namespace) -> int:
    import numpy as np

    from repro import Casper, MobileClient, Point, PrivacyProfile, Rect

    rng = np.random.default_rng(0)
    casper = Casper(Rect(0, 0, 1, 1), pyramid_height=8)
    casper.add_public_targets(
        {
            f"station-{i}": Point(float(x), float(y))
            for i, (x, y) in enumerate(rng.random((200, 2)))
        }
    )
    for i, (x, y) in enumerate(rng.random((400, 2))):
        casper.register_user(
            i, Point(float(x), float(y)), PrivacyProfile(k=int(rng.integers(2, 30)))
        )
    me = MobileClient(casper, "demo", Point(0.5, 0.5), PrivacyProfile(k=20))
    result = me.nearest_public()
    print(f"registered users : {casper.anonymizer.num_users}")
    print(f"cloaked region   : {result.cloak.region.as_tuple()}")
    print(f"candidate list   : {result.candidate_count} of "
          f"{casper.server.num_public} targets")
    print(f"exact answer     : {result.answer}")
    print(f"end-to-end time  : {result.total_seconds * 1e3:.3f} ms")
    return 0


def _cmd_lint(args: argparse.Namespace) -> int:
    from repro.analysis.cli import run_from_args

    return run_from_args(args)


def _cmd_metrics(args: argparse.Namespace) -> int:
    """Run one example under observability and print its telemetry.

    The example's own stdout is suppressed — the command's output is
    exactly one telemetry document, so it can be piped to ``jq`` or a
    Prometheus textfile collector.  Every label value and span
    attribute has already been screened twice (at record time and at
    ``TelemetryExport`` construction); a leak aborts with exit code 3.
    """
    import contextlib
    import io
    import os
    import runpy
    from pathlib import Path

    from repro.observability import TelemetryExport, TelemetryLeakError, enabled

    script = Path("examples") / f"{args.example}.py"
    if not script.is_file():
        candidates = sorted(p.stem for p in Path("examples").glob("*.py"))
        print(f"no such example: {script}", file=sys.stderr)
        if candidates:
            print(f"available: {', '.join(candidates)}", file=sys.stderr)
        return 2
    if args.shards < 1:
        print("--shards must be >= 1", file=sys.stderr)
        return 2
    # Examples honour CASPER_SHARDS (and CASPER_PARALLEL): their facades
    # build the sharded anonymizer runtime — in-process or as worker
    # processes over the wire — whose per-shard occupancy, cache and
    # routing counters flow through the same screened telemetry (shard
    # ids only).
    previous_shards = os.environ.get("CASPER_SHARDS")
    previous_parallel = os.environ.get("CASPER_PARALLEL")
    os.environ["CASPER_SHARDS"] = str(args.shards)
    os.environ["CASPER_PARALLEL"] = "1" if args.parallel else "0"
    try:
        with enabled() as session:
            with contextlib.redirect_stdout(io.StringIO()):
                runpy.run_path(str(script), run_name="__main__")
            try:
                export = TelemetryExport.from_observability(session)
            except TelemetryLeakError as leak:
                print(f"telemetry leak: {leak}", file=sys.stderr)
                return 3
    finally:
        if previous_shards is None:
            os.environ.pop("CASPER_SHARDS", None)
        else:
            os.environ["CASPER_SHARDS"] = previous_shards
        if previous_parallel is None:
            os.environ.pop("CASPER_PARALLEL", None)
        else:
            os.environ["CASPER_PARALLEL"] = previous_parallel
    if args.format == "prometheus":
        sys.stdout.write(export.to_prometheus())
    else:
        print(export.to_json())
    return 0


def _cmd_chaos(args: argparse.Namespace) -> int:
    """Replay a workload under a named fault scenario and audit it.

    Exit codes: 0 — clean run (or no ``--check``); 1 — the gate failed
    (a privacy violation, an SLO bound breach, or a non-deterministic
    report); 2 — bad arguments.  ``--check`` is what the CI resilience
    job runs: privacy violations are always fatal, the SLO bounds are
    tunable per scenario.
    """
    import json
    from pathlib import Path

    from repro.resilience import SCENARIOS, ChaosWorkload, get_scenario, run_chaos

    if args.scenario not in SCENARIOS:
        print(f"unknown scenario: {args.scenario}", file=sys.stderr)
        print(f"available: {', '.join(sorted(SCENARIOS))}", file=sys.stderr)
        return 2
    plan = get_scenario(args.scenario, seed=args.seed)
    try:
        workload = ChaosWorkload(
            users=args.users,
            targets=args.targets,
            steps=args.steps,
            seed=args.workload_seed,
            anonymizer=args.anonymizer,
            continuous_knn=args.continuous_knn,
            shards=args.shards,
            parallel=args.parallel,
        )
    except ValueError as exc:
        print(f"bad workload: {exc}", file=sys.stderr)
        return 2

    report = run_chaos(plan, workload)
    slo = report.slo
    print(
        f"scenario {report.scenario} (seed {report.seed}): "
        f"{report.runtime['faults_injected']} faults injected, "
        f"{slo['queries_answered']}/{slo['queries_total']} queries answered "
        f"({slo['queries_degraded']} explicitly degraded), "
        f"match ratio {slo['match_ratio']}, "
        f"privacy violations {report.privacy_violations}"
    )
    print(f"trace digest {report.trace_digest}")

    failures: list[str] = []
    if args.check or args.verify_determinism:
        replay = run_chaos(plan, workload)
        if replay.to_json() != report.to_json():
            failures.append("report is not deterministic (replay diverged)")
    if args.check:
        if report.privacy_violations:
            failures.append(
                f"{report.privacy_violations} privacy violation(s) — a cloak "
                f"below its user's (k, A_min) was emitted under faults"
            )
        if float(slo["availability"]) < args.min_availability:
            failures.append(
                f"availability {slo['availability']} < "
                f"bound {args.min_availability}"
            )
        if float(slo["match_ratio"]) < args.min_match_ratio:
            failures.append(
                f"match ratio {slo['match_ratio']} < bound {args.min_match_ratio}"
            )

    if args.out:
        Path(args.out).write_text(report.to_json(indent=2) + "\n")
        print(f"wrote {args.out}")
    if not args.out and args.json:
        print(report.to_json(indent=2))
    if failures:
        for failure in failures:
            print(f"GATE FAILURE: {failure}", file=sys.stderr)
        return 1
    if args.check:
        print("resilience gate OK")
    return 0


def _cmd_info(_args: argparse.Namespace) -> int:
    print(f"repro {repro.__version__} — Casper (VLDB 2006) reproduction")
    print("components: geometry, spatial (r-tree/brute), mobility, "
          "anonymizer (basic/adaptive + the interval/clique/temporal policies), "
          "processor (NN/kNN/range/count, 1-2-4 filters), continuous, "
          "server, workloads, evaluation")
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro",
        description="Casper (VLDB 2006) reproduction toolkit",
    )
    sub = parser.add_subparsers(dest="command")

    figures = sub.add_parser("figures", help="regenerate the paper's figures")
    figures.add_argument("names", nargs="*", help="figure names, e.g. fig13")
    figures.add_argument(
        "--no-charts", action="store_true", help="tables only, no ASCII charts"
    )
    figures.add_argument(
        "--parallel", type=int, default=1, metavar="N",
        help="run figures across N worker processes (default: serial)",
    )
    figures.add_argument(
        "--telemetry", metavar="PATH", default=None,
        help="also capture per-figure telemetry snapshots to this JSON file",
    )
    figures.set_defaults(func=_cmd_figures)

    demo = sub.add_parser("demo", help="run a compact end-to-end demo")
    demo.set_defaults(func=_cmd_demo)

    lint = sub.add_parser(
        "lint", help="run the casperlint static analysis suite"
    )
    from repro.analysis.cli import add_lint_arguments

    add_lint_arguments(lint)
    lint.set_defaults(func=_cmd_lint)

    metrics = sub.add_parser(
        "metrics",
        help="run an instrumented example and print its telemetry",
    )
    metrics.add_argument(
        "--example", default="quickstart", metavar="NAME",
        help="examples/<NAME>.py to run (default: quickstart)",
    )
    metrics.add_argument(
        "--format", choices=("json", "prometheus"), default="json",
        help="output format (default: json)",
    )
    metrics.add_argument(
        "--shards", type=int, default=1, metavar="N",
        help="run the example on an N-shard anonymizer (exported as "
        "CASPER_SHARDS; per-shard counters appear in the telemetry)",
    )
    metrics.add_argument(
        "--parallel", action="store_true",
        help="run each shard as its own worker process over the wire "
        "protocol (exported as CASPER_PARALLEL=1; adds per-worker "
        "round-trip and batch-size metrics)",
    )
    metrics.set_defaults(func=_cmd_metrics)

    from repro.anonymizer.policy import available_policies

    chaos = sub.add_parser(
        "chaos",
        help="replay a workload under a fault scenario and audit it",
    )
    chaos.add_argument(
        "--scenario", default="drop-heavy", metavar="NAME",
        help="named fault scenario (see repro.resilience.SCENARIOS; "
        "default: drop-heavy)",
    )
    chaos.add_argument(
        "--seed", type=int, default=None,
        help="override the scenario's fault seed",
    )
    chaos.add_argument("--users", type=int, default=32)
    chaos.add_argument("--targets", type=int, default=48)
    chaos.add_argument("--steps", type=int, default=240)
    chaos.add_argument(
        "--workload-seed", type=int, default=0,
        help="seed of the replayed workload (independent of the fault seed)",
    )
    chaos.add_argument(
        "--anonymizer", choices=available_policies(), default="adaptive"
    )
    chaos.add_argument(
        "--shards", type=int, default=1, metavar="N",
        help="anonymizer shard count for the replayed workload "
        "(default 1 = the single-pyramid implementations)",
    )
    chaos.add_argument(
        "--continuous-knn", type=int, default=0, metavar="N",
        help="safe-region continuous kNN (k=3) queries registered on the "
        "monitor (default 0; the continuous-drift scenario is aimed at "
        "this path)",
    )
    chaos.add_argument(
        "--parallel", action="store_true",
        help="run the faulted deployment's shards as worker processes "
        "over the wire protocol (the baseline stays in-process, so "
        "matching answers also witness cross-runtime equivalence)",
    )
    chaos.add_argument(
        "--out", metavar="PATH", default=None,
        help="write the full chaos report JSON here",
    )
    chaos.add_argument(
        "--json", action="store_true",
        help="print the full report JSON to stdout (implied off when --out)",
    )
    chaos.add_argument(
        "--check", action="store_true",
        help="gate mode (CI): fail on privacy violations, SLO bound "
        "breaches, or a non-deterministic report",
    )
    chaos.add_argument(
        "--min-availability", type=float, default=0.9, metavar="R",
        help="--check bound: minimum answered/queried ratio (default 0.9)",
    )
    chaos.add_argument(
        "--min-match-ratio", type=float, default=0.5, metavar="R",
        help="--check bound: minimum baseline-match ratio (default 0.5)",
    )
    chaos.add_argument(
        "--verify-determinism", action="store_true",
        help="re-run the scenario and require a byte-identical report",
    )
    chaos.set_defaults(func=_cmd_chaos)

    info = sub.add_parser("info", help="version and component inventory")
    info.set_defaults(func=_cmd_info)

    args = parser.parse_args(argv)
    if not hasattr(args, "func"):
        parser.print_help()
        return 2
    return args.func(args)


if __name__ == "__main__":
    raise SystemExit(main())
