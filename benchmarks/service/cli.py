"""Command line of the service benchmark.

One workload, one run (what ``BENCHMARK.json``'s command does)::

    python3 benchmarks/service/run.py --workload query_static --seed 1 \\
        --seconds 10 --trace 0

prints every metric by name with its unit and, as the last line of
standard output, the JSON object the driver reads.  Several workloads
or ``--repeat N`` run each (workload, repetition) in a child process of
its own — the same isolation the driver gives a run — and print the
median, range and spread of every end-to-end metric.
"""

from __future__ import annotations

import argparse
import gc
import json
import multiprocessing
import os
import platform
import signal
import subprocess
import sys
from pathlib import Path
from statistics import median
from time import perf_counter

import numpy as np

from benchmarks.service import (
    anonymizer_tick,
    commuter_service,
    query_static,
    update_frontdoor_workers,
)
from benchmarks.service.harness import MachineSpeed, Measurement, peak_rss_mb
from benchmarks.service.inputs import Inputs, generate

__all__ = ["WORKLOADS", "main", "run_once"]

WORKLOADS = {
    module.NAME: module
    for module in (
        query_static, update_frontdoor_workers, commuter_service, anonymizer_tick,
    )
}

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
OUT_DIR = HERE / "out"

#: Set-ups per run; ``setup_s`` is their median (one set-up's time is
#: the noisiest number a run produces).
SETUP_REPEATS = 3

#: A run that has not finished by then is killed and counted failed;
#: the driver allows 180 s.
HARD_TIMEOUT_S = 170


def _contract() -> dict:
    with (ROOT / "BENCHMARK.json").open() as handle:
        return json.load(handle)


def run_once(
    workload: str, seed: int, seconds: float, trace: bool, preset: str = "full"
) -> tuple[Measurement, Inputs]:
    """Generate inputs, then one untraced or one traced run."""
    module = WORKLOADS[workload]
    inputs = generate(workload, seed, preset)
    if trace:
        return module.trace(inputs, OUT_DIR), inputs
    setups: list[float] = []
    speed = MachineSpeed()
    deployment = None
    try:
        for _ in range(SETUP_REPEATS):
            if deployment is not None:
                deployment.close()
                deployment = None
            start = perf_counter()
            deployment = module.deploy(inputs)
            setups.append(perf_counter() - start)
        # What a server does once warm: collect now, then keep the
        # long-lived deployment and inputs out of later collections, so
        # full collections do not land in arbitrary timed windows.
        gc.collect()
        gc.freeze()
        measurement = module.measure(deployment, inputs, seconds, speed)
        # Before teardown, so worker processes are still there to read.
        measurement.metrics["peak_rss_mb"] = (peak_rss_mb(), "MB")
    finally:
        gc.unfreeze()
        if deployment is not None:
            deployment.close()
    # Set-up is corrected by the factor of the measured phase that
    # follows it: samples taken between set-ups read the allocator's and
    # the caches' disorder, not the machine's speed.
    measurement.metrics["setup_s"] = (median(setups) / speed.factor, "s")
    measurement.detail["raw.setup_s"] = (median(setups), "s")
    measurement.detail["machine_speed_factor"] = (speed.factor, "ratio")
    measurement.detail["machine_speed_samples"] = (float(len(speed.samples)), "count")
    return measurement, inputs


def _result_line(measurement: Measurement) -> dict:
    failures = measurement.failures
    return {
        "correct": measurement.valid and failures.failed == 0,
        "attempted": max(failures.attempted, 1),
        "failed": failures.failed,
        "metrics": {
            name: {"value": value, "unit": unit}
            for name, (value, unit) in measurement.metrics.items()
        },
    }


def _git_commit() -> str:
    try:
        return subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
            text=True, check=True, timeout=10,
        ).stdout.strip()
    except (OSError, subprocess.SubprocessError):
        return "unknown"


def _report(
    workload: str, args: argparse.Namespace, measurement: Measurement,
    inputs: Inputs, line: dict,
) -> dict:
    failures = measurement.failures
    return {
        "workload": workload,
        "why": WORKLOADS[workload].WHY,
        "seed": args.seed,
        "seconds": args.seconds,
        "traced": bool(args.trace),
        "preset": "tiny" if args.tiny else "full",
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "git_commit": _git_commit(),
        "input_digest": inputs.digest,
        "sizes": inputs.sizes,
        "operations": {
            "attempted": failures.attempted,
            "failed": failures.failed,
            "failure_causes": failures.causes,
            "oracle_checks": failures.oracle_checks,
            "failed_op_share": failures.failed / max(failures.attempted, 1),
        },
        "detail": {
            name: {"value": value, "unit": unit}
            for name, (value, unit) in measurement.detail.items()
        },
        "valid": measurement.valid,
        "notes": measurement.notes,
        **line,
    }


def _print_report(report: dict) -> None:
    ops = report["operations"]
    print(f"workload      {report['workload']} ({report['preset']}, seed {report['seed']})")
    print(f"inputs sha256 {report['input_digest']}")
    print(
        f"operations    {ops['attempted']} attempted, {ops['failed']} failed "
        f"(share {ops['failed_op_share']:.6f}), {ops['oracle_checks']} oracle checks"
    )
    for cause, count in sorted(ops["failure_causes"].items()):
        print(f"  failed      {cause}: {count}")
    if report["traced"] and not report["valid"]:
        # The decomposition self-check failed: the per-layer numbers do
        # not add up to the traced wall-clock and must not be quoted.
        print("per-layer table INVALID:")
        for note in report["notes"]:
            print(f"  {note}")
    else:
        for name, entry in {**report["metrics"], **report["detail"]}.items():
            print(f"  {name:<44} {entry['value']:>16.6f} {entry['unit']}")


def _run_single(workload: str, args: argparse.Namespace) -> int:
    def on_timeout(_signum: int, _frame: object) -> None:
        raise TimeoutError(f"{workload} exceeded {HARD_TIMEOUT_S} s")

    signal.signal(signal.SIGALRM, on_timeout)
    signal.alarm(HARD_TIMEOUT_S)
    try:
        measurement, inputs = run_once(
            workload, args.seed, args.seconds, bool(args.trace),
            "tiny" if args.tiny else "full",
        )
    finally:
        signal.alarm(0)
    leaked = multiprocessing.active_children()
    for child in leaked:
        child.kill()
        child.join()
    if leaked:
        measurement.valid = False
        measurement.notes.append(f"{len(leaked)} worker process(es) outlived the run")
    line = _result_line(measurement)
    report = _report(workload, args, measurement, inputs, line)
    _print_report(report)
    if args.out:
        Path(args.out).write_text(json.dumps(report, indent=2) + "\n")
    print(json.dumps(line))
    return 0 if line["correct"] else 1


def _spawn(workload: str, args: argparse.Namespace) -> dict | None:
    command = [
        sys.executable, str(HERE / "run.py"), "--workload", workload,
        "--seed", str(args.seed), "--seconds", str(args.seconds),
        "--trace", str(args.trace),
    ] + (["--tiny"] if args.tiny else [])
    done = subprocess.run(
        command, cwd=ROOT, capture_output=True, text=True,
        timeout=HARD_TIMEOUT_S + 20,
    )
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        sys.stderr.write(done.stdout + done.stderr)
        return None
    return json.loads(lines[-1])


def _run_many(workloads: list[str], args: argparse.Namespace) -> int:
    bounds = {m["name"]: m["bound"] for m in _contract()["end_to_end"]}
    status, summary = 0, {}
    for workload in workloads:
        runs = [_spawn(workload, args) for _ in range(args.repeat)]
        if any(run is None or not run["correct"] for run in runs):
            print(f"{workload}: a run failed or was incorrect")
            status = 1
            continue
        print(f"{workload}: {args.repeat} run(s), seed {args.seed}")
        summary[workload] = {}
        for name in runs[0]["metrics"]:
            values = [run["metrics"][name]["value"] for run in runs]
            mid = median(values)
            spread = (max(values) - min(values)) / mid if mid else 0.0
            summary[workload][name] = {
                "median": mid, "min": min(values), "max": max(values),
                "spread": spread, "unit": runs[0]["metrics"][name]["unit"],
            }
            flag = ""
            # setup_s is exempt, as in the driver's own spread check.
            if args.check_spread and name != "setup_s" and spread > bounds.get(name, 1.0):
                flag = f"  SPREAD > {bounds[name]}"
                status = 1
            print(
                f"  {name:<44} median {mid:>14.6f}  min {min(values):>14.6f}  "
                f"max {max(values):>14.6f}  spread {spread:6.3f}{flag}"
            )
    if args.out:
        Path(args.out).write_text(json.dumps(summary, indent=2) + "\n")
    print(json.dumps({"correct": status == 0, "workloads": summary}))
    return status


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="benchmarks.service", description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    parser.add_argument(
        "--workload", action="append", choices=sorted(WORKLOADS),
        help="workload to run (repeatable; default: all four)",
    )
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument(
        "--seconds", type=float, default=None,
        help="measured time per run (default: BENCHMARK.json run_seconds)",
    )
    parser.add_argument(
        "--trace", type=int, nargs="?", const=1, default=0, choices=(0, 1),
        help="1: the traced pass (per-layer metrics) instead of the timed one",
    )
    parser.add_argument("--tiny", action="store_true", help="smoke-test sizes")
    parser.add_argument("--repeat", type=int, default=1)
    parser.add_argument(
        "--check-spread", action="store_true",
        help="with --repeat: fail when a metric spreads beyond its bound",
    )
    parser.add_argument("--out", help="also write the report to this JSON file")
    args = parser.parse_args(argv)
    if args.seconds is None:
        args.seconds = float(_contract()["run_seconds"])
    workloads = args.workload or list(WORKLOADS)
    if len(workloads) == 1 and args.repeat == 1:
        return _run_single(workloads[0], args)
    return _run_many(workloads, args)
