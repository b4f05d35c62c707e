#!/usr/bin/env python
"""Line budget for ``src/repro``: one row per package, one for the
top-level modules (``src/repro/*.py``), the two modules of the parallel
runtime's server role (worker runtime, TCP front door), and ``tests``.

Lines per package is a tracked number, like throughput: the cheapest
way for a simplification to rot is for code to quietly regrow, one
pasted helper at a time — ``sharding`` growing back a pyramid, a cache
or an epoch of its own beside the wrapped policy's, or a deleted
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
#: brute-force oracle it is held to; sharding, anonymizer, observability
#: and tests were re-frozen *down*, and the sharding/basic.py row went,
#: once ``basic`` deployed through the one wrapper every policy uses:
#: the partitioned fleet, its composite epochs, the pyramid's cache
#: seams, the optional telemetry label and the router's unread helpers
#: went with their tests; analysis and tests were re-frozen *down* once
#: CSP012 read the acquiring suite directly: the control-flow graph
#: module and its property test went, the fixture of leak paths came;
#: tests *up* by 55 when the shard codec went one-pass, less than the 57
#: lines of the six tests that fail at the parent (a CRC-valid frame with
#: a malformed envelope must raise ``WireError`` naming each failure, the
#: door must answer it with one ``NACK`` and close, a worker must
#: ``NACK`` it): the five envelope tests restated at frame level, the
#: reference encoder and the two new CSP009 / CSP012 fixtures fit in the
#: lines ``test_messages_consolidated.py`` left behind; analysis was
#: re-frozen *down* once the dataflow engine walked each function once
#: and ran its summaries to a fixpoint (CSP009 / CSP010 read its records
#: instead of a second taint pass), and tests *up* by 253: the 8 lines
#: ``test_single_envelope_round_trip`` added without moving the ratchet,
#: then the deep-chain fixtures that fail under a round cap
#: (``csp009_taint/bad_deep_chain.py`` 32, ``csp010_async/bad_deep_chain.py``
#: 35), the pins of call forms and typed receivers
#: (``csp009_taint/bad_call_forms.py`` 22 and its ``support_sinks.py`` 7,
#: ``csp010_async/bad_typed_receivers.py`` 32, the weak-taint call in
#: ``csp009_taint/clean.py`` +11, the unresolvable ``close()`` beside a
#: blocking one in ``csp010_async/clean.py`` +8), their four ``CASES``
#: rows and the definition-order test in ``test_lint_rules.py`` (+29),
#: the ``ForwardRef`` assert of the API-docs test (+1), and the call
#: cycles the summaries must end on (``csp009_taint/bad_recursive.py``
#: 41, its ``CASES`` row and ``test_dataflow_ends_on_call_cycles`` with
#: its imports, +27); resilience and tests were re-frozen *down*, and
#: the top-level modules (``messages.py``, ``morton.py``, ``errors.py``,
#: ``__main__.py``, ``__init__.py``; 820 lines before) got their row,
#: once a location update became one shard-wire ``register`` frame: the
#: 64-byte update record and its codec tests went, and the runtime's
#: fault mirror moved into the injector; server was re-frozen *down*
#: once the resilience runtime became a wrapper around the deployment's
#: anonymizer and the facade's seven runtime forks and its typing-only
#: runtime import went.  Resilience keeps its baseline: it took the
#: wrapper surface those forks were (query-path and storage cloaks,
#: ``location_of``) plus the lifecycle it never saw (``deregister`` /
#: ``set_profile``), less ``storage_cloak``, the facade back-reference
#: properties and the chaos report's hand-listed dicts, and sits 15
#: lines over it; re-freezing it there would loosen the gate.  The two
#: tests that pin the lifecycle fit inside
#: ``test_resilience_degradation.py``, whose deployments now register
#: their users in the one helper, so tests holds; tests *up* by 42 when
#: the adaptive ``update_batch`` began to re-test only the movers a
#: split or merge re-pointed: three replays through the spec machine
#: (a merge makes a loud mover quiet, a split keeps one loud and its
#: cost is counted once — the only replay that kills the missing
#: done-mark on a popped position — and an earlier or outside
#: re-pointed user is not run again; +29), and the test that fails at
#: the parent for ``Casper.remove_user`` of a user whose state the
#: resilience runtime lost (their stored region stayed; +13); tests *up*
#: by 6 when a tick's re-cloak began to cross the worker pipes as packed
#: ``cloaks`` ops and to land in the private R-tree as one batch: the 9
#: lines of the test that fails at the parent (a held update of a left
#: session must not apply after the user rejoins), less 3 — the
#: ``cloaks`` protocol, codec and pool tests and the ``insert_many``
#: oracle cases were paid for by sharing set-up in tests that already
#: existed; anonymizer was re-frozen *down* (3,413 -> 3,397) once
#: Algorithm 1's scalar walk climbed Morton codes and both pyramids
#: shared one memo path: ``CloakCache.cloak``, ``PyramidEngine._cloak_via``,
#: basic's own ``_memoized`` / ``_walk`` / ``_fresh``, adaptive's
#: ``_gen_of`` and ``_areas`` and the level arrays' ``count_of`` /
#: ``gen_of`` went; tests *up* by 17: the test that kills a walk without
#: its ``1e-15`` area tolerance (7; every test passed that mutant
#: before), the twins pinning the kernel threshold at 8 so that
#: hypothesis' batches still reach the kernel once the shipped one is 24
#: (6), and the reference pyramids' and the cache tests' port onto the
#: integer walk (4); tests *up* by 87 when a lone cloak became the
#: worker-pool parent mirror's: the two tests that fail at the parent
#: (76 lines with the counting injector and its import) — a lone
#: ``cloak`` / ``cloak_location`` moves no frame and records one cloak
#: sample, as in process, and the queues stay under ``MAX_BATCH``
#: through a stream no read delivers — and 11 in tests whose point was
#: a worker round trip (the multi-chunk death now dies inside bulk
#: registration's own deliveries, the tick test counts the frames a
#: filled queue delivers) and in the bench gate's tests (one for the
#: ratio an instrumented report skips); and up by 152 more for what a
#: worker death inside one delivery with frames queued behind it must
#: keep (a tick's several frames of moves, a cloak batch behind queued
#: mutations, each op's result recorded across deliveries), for a
#: faulted ``cloak_many`` (the one cloak read left on the pipes) and
#: for a refused batch raising its refusal, not a delivery failure;
#: tests *down* once one drawn fault rule over every policy and deployment
#: took over the hand-picked chaos cases: those cases (``TestRunChaos``,
#: ``test_sharding_chaos.py``) keep their names but shrink to calls of the
#: rule's check, ``assert_resilient``, and ``TestSnapshotRestore`` became
#: spec-machine replays.
BASELINES = {
    "src/repro/analysis": 3411,
    "src/repro/anonymizer": 3397,
    "src/repro/continuous": 546,
    "src/repro/evaluation": 1263,
    "src/repro/geometry": 692,
    "src/repro/mobility": 835,
    "src/repro/observability": 1203,
    "src/repro/privacy": 178,
    "src/repro/processor": 1354,
    "src/repro/*.py": 714,
    "src/repro/resilience": 1394,
    "src/repro/server": 1064,
    "src/repro/sharding": 2389,
    "src/repro/sharding/frontdoor.py": 117,
    "src/repro/sharding/workers.py": 1115,
    "src/repro/spatial": 770,
    "src/repro/utils": 197,
    "src/repro/viz": 307,
    "src/repro/workloads": 473,
    "tests": 16139,
}

#: Allowed growth over baseline before the gate fails.
HEADROOM = 0.10
#: Entries that may not grow at all: move the baseline, with a reason.
RATCHETS = {"tests"}


def budget_of(rel: str, baseline: int) -> int:
    return baseline if rel in RATCHETS else int(baseline * (1 + HEADROOM))


def lines_of(path: Path) -> int | None:
    """Lines of one file, of every ``*.py`` under a directory, or of the
    files a glob's last part matches; ``None`` when nothing is there."""
    if path.is_file():
        files = [path]
    elif path.is_dir():
        files = sorted(path.rglob("*.py"))
    elif not (files := sorted(path.parent.glob(path.name))):
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
