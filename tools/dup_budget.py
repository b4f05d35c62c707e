#!/usr/bin/env python
"""Line budget for ``src/repro``: one row per package, plus the
partitioned fleet's module, the two modules of the parallel runtime's
server role (worker runtime, TCP front door), and ``tests``.

Lines per package is a tracked number, like throughput: the cheapest
way for a simplification to rot is for code to quietly regrow, one
pasted helper at a time — ``sharding/basic.py``, a shard view over
``BasicAnonymizer``'s arrays, growing back a store, a maintenance walk
or an audit of its own next to the ones it inherits, or a deleted
second code path coming back under a new name.

This gate freezes each entry's line count (``*.py`` lines under a
package directory, or one file's lines) and fails CI when an entry
regrows past its baseline plus 10% — growth beyond that band means
either duplication creeping back (hoist it into the shared layers) or a
genuine new responsibility (then move the baseline in the same PR, with
the reasoning in the commit).  ``tests`` is a ratchet (:data:`RATCHETS`,
no band): a new behaviour is checked by a call of the spec machine
(``tests/test_spec_machine.py``) or a replay through it, not by a new
hand-written oracle, so the suite can only grow by moving its baseline
with the reason in the commit.  The table it prints is the per-package
number ``CHANGES.md`` quotes PR over PR.

Usage::

    python tools/dup_budget.py [--root PATH]

Exit codes: 0 — every entry within budget; 1 — an entry over budget;
2 — a budgeted file or package is missing.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent

#: path (repo-relative file, or package directory counted recursively)
#: -> frozen baseline line count (PR 15 re-froze processor, server and
#: continuous after Algorithm 2 collapsed onto one executor; PR 17
#: re-froze sharding, sharding/basic.py and anonymizer after the
#: partitioned fleet became a view over the one pyramid; PR 19 re-froze
#: anonymizer and sharding/basic.py after ``UserTable`` became the one
#: per-user store; PR 20 re-froze spatial after the R-tree's nodes
#: became arrays, and geometry *up*, for ``geometry/block.py``: the
#: coordinate-block kernels and the shortlist slack moved down out of
#: ``processor/candidate.py`` so that the R-tree can share them; PR 21
#: re-froze continuous *down* after the monitor became one table of
#: query rows, and geometry up by exactly the two rectangle predicates
#: (``contains_rects`` / ``intersects_rects``) that table's dirtiness
#: kernels are; PR 23 re-froze analysis *down* after CSP003, CSP013,
#: the baseline file and ``--diff`` went, spatial down after the kd-tree
#: went, and added ``tests`` — every perf PR had grown it by a new
#: hand-written oracle with nothing watching; PR 24 re-froze
#: observability and resilience *down* after the metric catalogue
#: became one table behind three emit entry points, ``slo.py`` went and
#: the retry / fault-injector copies collapsed, and re-froze anonymizer
#: at its count: PR 22's batch kernel landed without moving the
#: baseline, leaving it 2 lines under the ceiling, so the next one-line
#: fix there would have failed CI for lines PR 22 added; entries that
#: did not shrink below their baseline keep their earlier count; tests
#: was re-frozen *down* once one spec machine replaced the five
#: hand-paired equivalence suites, and made a ratchet; processor,
#: server, anonymizer and tests were then re-frozen *down* once the two
#: administrator estimators, the city simulator and
#: ``PrivacyProfile.relaxation_key`` went, and the simulation row went
#: with its package).
BASELINES = {
    "src/repro/analysis": 3696,
    "src/repro/anonymizer": 3540,
    "src/repro/continuous": 546,
    "src/repro/evaluation": 1263,
    "src/repro/geometry": 692,
    "src/repro/mobility": 835,
    "src/repro/observability": 1211,
    "src/repro/privacy": 178,
    "src/repro/processor": 1354,
    "src/repro/resilience": 1520,
    "src/repro/server": 1100,
    "src/repro/sharding": 2687,
    "src/repro/sharding/basic.py": 261,
    "src/repro/sharding/frontdoor.py": 117,
    "src/repro/sharding/workers.py": 1190,
    "src/repro/spatial": 946,
    "src/repro/utils": 197,
    "src/repro/viz": 311,
    "src/repro/workloads": 473,
    "tests": 15392,
}

#: Allowed growth over baseline before the gate fails.
HEADROOM = 0.10
#: Entries that may not grow at all: move the baseline, with a reason.
RATCHETS = {"tests"}


def budget_of(rel: str, baseline: int) -> int:
    return baseline if rel in RATCHETS else int(baseline * (1 + HEADROOM))


def lines_of(path: Path) -> int | None:
    """Lines of one file, or of every ``*.py`` under a directory;
    ``None`` when the path does not exist."""
    if path.is_file():
        files = [path]
    elif path.is_dir():
        files = sorted(path.rglob("*.py"))
    else:
        return None
    return sum(len(f.read_text().splitlines()) for f in files)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--root", type=Path, default=REPO_ROOT, help="repository root"
    )
    args = parser.parse_args(argv)

    failures = 0
    width = max(len(rel) for rel in BASELINES)
    print(f"{'path':<{width}}  {'lines':>6}  {'baseline':>8}  {'budget':>6}")
    for rel, baseline in sorted(BASELINES.items()):
        lines = lines_of(args.root / rel)
        if lines is None:
            print(f"dup-budget: {rel}: budgeted path is missing", file=sys.stderr)
            return 2
        budget = budget_of(rel, baseline)
        status = "ok" if lines <= budget else "OVER BUDGET"
        print(f"{rel:<{width}}  {lines:>6}  {baseline:>8}  {budget:>6}  {status}")
        if lines > budget:
            failures += 1
            print(
                f"dup-budget: {rel} regrew past its frozen baseline "
                f"({baseline} + {0 if rel in RATCHETS else HEADROOM:.0%}); "
                f"hoist shared mechanics into the shared layers or move the "
                f"baseline deliberately in this PR",
                file=sys.stderr,
            )
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
