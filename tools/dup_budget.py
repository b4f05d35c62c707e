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
#: with its package; anonymizer was re-frozen *down* again after the adaptive
#: cut moved onto integer keys and ``CutCell`` / ``CutMaintainer`` left
#: ``src``, spatial down after ``nearest_by_max_distance`` went, viz down
#: by the scene's cut read, and tests *up* by 77: the dict walk those
#: two classes were (187 lines) now lives only in the reference pyramid
#: (+77 there), less the 26 lines of the deleted method's tests, plus
#: the two tests that pin the quiet-move contract and the batch kernel);
#: sharding and sharding/workers.py were re-frozen *down* once the worker
#: pool's parent kept the in-process deployment it replicates (its own
#: table, stats, snapshot record, survivor heal and bootstrap heal went),
#: and tests *up* by 10 for the three tests that fail at the parent — a
#: uid the wire cannot carry, reads after close, cache counters across a
#: restore — less what the retired snapshot opcode's test rows took);
#: tests *up* by 56 when the adaptive gates moved onto per-leaf
#: summaries: three replays that pin a summary's recount on leave, its
#: refresh on a profile change and the reach's tie, and the parent-mirror
#: batch tests run for a broadcast replica as well as the fleet);
#: spatial *up* to 1036 when the R-tree began to keep every id's wire
#: form (``wire_form`` / ``wire_columns`` and their marks in
#: ``index.py``, the three columns and their upkeep, sort and invariant
#: in ``rtree.py``), which replaced the candidate step's
#: ``sorted(key=str)`` and the codec's per-id encode, and tests *up* by
#: 84 for the awkward-id oracle comparisons that kill the sort's
#: mutants, the NUL-ended and sliced-id codec bugs and the
#: R-tree-vs-pairs encode test; then spatial to 1064 and tests by 20
#: more when the wire column was capped at the 25 bytes that order an
#: id: the re-order of long ids that share them, the refusals moved
#: next to ``wire_form``, and a test that stores 10 000-byte ids;
#: tests *up* by 84 when the R-tree began to answer all of a query's
#: anchors in one descent: a test that holds anchor sets of 1, 2 and 4
#: to the oracle for both rankings at k 1, 3 and 17 on trees of 0, 1
#: and 2 levels, one whose answers need the node bound to count live
#: rows across nodes (it kills the count mutants by their answers), and
#: the property test running ``check_invariants``, which now recounts
#: the per-node live rows, after every write; tests *up* by 145 when a
#: tick's moves began to cross the worker pipes as packed ``moves``
#: runs: the op's codec property, the door's refusal of a payload that
#: is not exactly one op (a truncated str or int uid, a padded move),
#: the worker's whole-run refusal, a crash dropping the victim's open
#: run, the tick's exchange count restated exactly and its per-shard
#: envelope count); resilience, sharding/basic.py and tests were
#: re-frozen *down* once a shard crash had one recovery path — the
#: in-process per-shard rollback (``snapshot_shard`` / ``restore_shard``,
#: ``rebuild_subtrees``, the partial sequence rewind) and the second
#: crash schedule went, the resilience knobs only tests set became
#: constants and the two chaos suites became one parametrised test;
#: anonymizer and sharding shrank too (3,548 -> 3,510 and 2,722 ->
#: 2,640) but still sit above their older baselines, so those keep
#: them: re-freezing at today's counts would raise them); spatial and
#: tests were re-frozen *down* once the grid and quadtree indexes went
#: with their tests, leaving the R-tree that serves every query and the
#: brute-force oracle it is held to.
BASELINES = {
    "src/repro/analysis": 3696,
    "src/repro/anonymizer": 3468,
    "src/repro/continuous": 546,
    "src/repro/evaluation": 1263,
    "src/repro/geometry": 692,
    "src/repro/mobility": 835,
    "src/repro/observability": 1211,
    "src/repro/privacy": 178,
    "src/repro/processor": 1354,
    "src/repro/resilience": 1402,
    "src/repro/server": 1100,
    "src/repro/sharding": 2576,
    "src/repro/sharding/basic.py": 194,
    "src/repro/sharding/frontdoor.py": 117,
    "src/repro/sharding/workers.py": 1115,
    "src/repro/spatial": 770,
    "src/repro/utils": 197,
    "src/repro/viz": 307,
    "src/repro/workloads": 473,
    "tests": 15669,
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
