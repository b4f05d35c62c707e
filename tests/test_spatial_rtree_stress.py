"""Stress and edge-case tests for the R-tree beyond the shared contract."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.geometry import Point, Rect
from repro.spatial import BruteForceIndex, RTreeIndex
from repro.spatial import rtree as rtree_module
from tests.conftest import random_points, random_rects


class TestRTreeStress:
    def test_interleaved_ops_match_oracle(self, rng):
        rtree = RTreeIndex(max_entries=5)
        oracle = BruteForceIndex()
        live = set()
        next_id = 0
        for step in range(1200):
            roll = rng.random()
            if roll < 0.55 or not live:
                r = random_rects(rng, 1, max_side=0.05)[0]
                rtree.insert(next_id, r)
                oracle.insert(next_id, r)
                live.add(next_id)
                next_id += 1
            elif roll < 0.85:
                victim = int(rng.choice(list(live)))
                rtree.remove(victim)
                oracle.remove(victim)
                live.discard(victim)
            else:
                # Move (reinsert with the same id).
                victim = int(rng.choice(list(live)))
                r = random_rects(rng, 1, max_side=0.05)[0]
                rtree.insert(victim, r)
                oracle.insert(victim, r)
            if step % 200 == 0:
                rtree.check_invariants()
                q = Point(float(rng.random()), float(rng.random()))
                assert rtree.k_nearest(q, 5) == oracle.k_nearest(q, 5)
        rtree.check_invariants()
        region = Rect(0.25, 0.25, 0.75, 0.75)
        assert set(rtree.range_search(region)) == set(oracle.range_search(region))

    def test_drain_to_empty_and_refill(self, rng):
        rtree = RTreeIndex(max_entries=4)
        points = random_points(rng, 300)
        for i, p in enumerate(points):
            rtree.insert_point(i, p)
        for i in range(300):
            rtree.remove(i)
        assert len(rtree) == 0
        rtree.check_invariants()
        for i, p in enumerate(points[:50]):
            rtree.insert_point(i, p)
        rtree.check_invariants()
        assert len(rtree) == 50

    def test_collinear_points(self):
        """Degenerate geometry: all entries on one line still split fine."""
        rtree = RTreeIndex(max_entries=4)
        for i in range(100):
            rtree.insert_point(i, Point(i / 100.0, 0.5))
        rtree.check_invariants()
        assert rtree.nearest(Point(0.345, 0.5)) in (34, 35)

    def test_bulk_load_single_entry(self):
        rtree = RTreeIndex()
        rtree.bulk_load({"only": Rect.point(Point(0.5, 0.5))})
        assert rtree.nearest(Point(0, 0)) == "only"
        rtree.check_invariants()

    def test_bulk_load_sizes_around_node_capacity(self, rng):
        """STR packing edge cases: exactly M, M+1, M^2, M^2+1 entries."""
        for n in (16, 17, 256, 257):
            points = random_points(rng, n)
            rtree = RTreeIndex(max_entries=16)
            rtree.bulk_load({i: Rect.point(p) for i, p in enumerate(points)})
            rtree.check_invariants()
            oracle = BruteForceIndex()
            for i, p in enumerate(points):
                oracle.insert_point(i, p)
            q = Point(0.5, 0.5)
            assert rtree.k_nearest(q, min(5, n)) == oracle.k_nearest(q, min(5, n))

    def test_large_overlapping_rects(self, rng):
        """Heavily overlapping entries (worst case for R-trees) stay
        correct."""
        rects = [
            Rect(0.0, 0.0, float(rng.uniform(0.5, 1.0)), float(rng.uniform(0.5, 1.0)))
            for _ in range(120)
        ]
        rtree = RTreeIndex(max_entries=4)
        oracle = BruteForceIndex()
        for i, r in enumerate(rects):
            rtree.insert(i, r)
            oracle.insert(i, r)
        rtree.check_invariants()
        q = Point(0.9, 0.9)
        got = rtree.nearest(q)
        want = oracle.nearest(q)
        assert rtree.rect_of(got).min_distance_to_point(q) == pytest.approx(
            oracle.rect_of(want).min_distance_to_point(q)
        )

    def test_levels_tail_and_blanked_rows_under_the_shipped_constants(self, rng):
        """Two packed levels, then enough writes to leave a tail and
        blanked rows and to cross the repack rule, all against the
        oracle."""
        points = random_points(rng, 20_000)
        entries = {i: Rect.point(p) for i, p in enumerate(points)}
        rtree, oracle = RTreeIndex(), BruteForceIndex()
        rtree.bulk_load(entries)
        oracle.bulk_load(entries)
        assert len(rtree._levels) == 2
        packed_block = rtree._coords
        for step, rect in enumerate(random_rects(rng, 3000, max_side=0.02)):
            victim = int(rng.integers(0, 20_000))
            for index in (rtree, oracle):
                if step % 3 == 0 and victim in index:
                    index.remove(victim)
                else:
                    index.insert(victim if step % 3 == 1 else 20_000 + step, rect)
            if step % 500 == 250:
                rtree.check_invariants()
                assert rtree._n > rtree._packed  # a tail is being scanned
                q = Point(float(rng.random()), float(rng.random()))
                region = Rect.from_center(q, 0.1, 0.1)
                assert rtree.k_nearest(q, 20) == oracle.k_nearest(q, 20)
                assert rtree.k_nearest_by_max_distance(
                    q, 20
                ) == oracle.k_nearest_by_max_distance(q, 20)
                assert rtree.range_search(region) == sorted(
                    oracle.range_search(region), key=oracle._seq.get
                )
        assert rtree._coords is not packed_block, "the writes never crossed the repack rule"
        rtree.check_invariants()

    def test_awkward_ids_keep_str_order_whatever_their_rows(self):
        """Packed rows go by y, so these ids sit in reverse insertion
        order: a candidate step that leaves equal wire bytes in row
        order, or orders ids equal up to trailing NULs by insertion,
        turns a pair round — in the pack, in the tail, and with an
        entry hidden."""
        stored = tuple(reversed(AWKWARD_IDS))
        rtree, oracle = RTreeIndex(max_entries=4), BruteForceIndex()
        everywhere = (Rect(0.0, 0.0, 1.0, 1.0), Point(0.5, 0.5), 3)
        for index in (rtree, oracle):
            index.bulk_load({
                oid: Rect.point(Point(0.5, 1 - i / len(stored)))
                for i, oid in enumerate(stored)
            })
        assert_answers_like(rtree, oracle, [everywhere])
        for oid in ("a\x00", 3, "x" * 25):  # tail rows, in a new order
            for index in (rtree, oracle):
                index.insert(oid, Rect.point(Point(0.25, 0.25)))
        rtree.check_invariants()
        assert_answers_like(rtree, oracle, [everywhere])
        with rtree.hidden("a"), oracle.hidden("a"):
            assert_answers_like(rtree, oracle, [everywhere])

    def test_a_long_id_widens_the_wire_column_by_its_prefix_only(self, rng):
        """An id of any length costs the wire column at most the 25
        bytes that order it against any id the record can carry; ids
        sharing those bytes still come in ``str`` order."""
        entries = {f"u{i}": Rect.point(p) for i, p in enumerate(random_points(rng, 300))}
        rtree, oracle = RTreeIndex(max_entries=8), BruteForceIndex()
        for index in (rtree, oracle):
            index.bulk_load(entries)
            for tail in ("z", "a", "\ud800", "é"):
                index.insert("u" * 10_000 + tail, Rect(0.2, 0.2, 0.8, 0.8))
        assert rtree._wire.itemsize <= 25
        rtree.check_invariants()
        everywhere = (Rect(0.0, 0.0, 1.0, 1.0), Point(0.5, 0.5), 3)
        assert_answers_like(rtree, oracle, [everywhere])
        ids, _coords, wire, _marks = rtree.range_columns(Rect(0.0, 0.0, 1.0, 1.0))
        assert wire.itemsize <= 25 and len(ids) == len(oracle)

    @pytest.mark.parametrize("flat", [2, 1024])
    def test_infinite_rectangles_regions_and_query_points(self, rng, flat, monkeypatch):
        """Beyond the kernels' error analysis the scalar ranking decides
        alone, and a blanked row matches no region, not even an
        infinite one."""
        inf = float("inf")
        monkeypatch.setattr(rtree_module, "_FLAT", flat)
        entries = {i: Rect.point(p) for i, p in enumerate(random_points(rng, 40))}
        entries["strip"] = Rect(-inf, 0.2, inf, 0.4)
        entries["far"] = Rect(inf, 0.0, inf, 1.0)
        entries["half"] = Rect(0.5, -inf, inf, inf)
        rtree, oracle = RTreeIndex(max_entries=4), BruteForceIndex()
        for index in (rtree, oracle):
            index.bulk_load(entries)
            for victim in (3, 7, 11):
                index.remove(victim)
            index.insert("late", Rect(0.1, 0.1, 0.2, inf))
        everywhere = Rect(-inf, -inf, inf, inf)
        assert rtree.range_search(everywhere) == oracle.range_search(everywhere)
        assert len(rtree.range_search(everywhere)) == len(rtree) == 41
        for q in (Point(0.5, 0.6), Point(inf, 0.3), Point(0.3, -inf)):
            for k in (1, 5, 41):
                assert rtree.k_nearest(q, k) == oracle.k_nearest(q, k)
                assert rtree.k_nearest_by_max_distance(
                    q, k
                ) == oracle.k_nearest_by_max_distance(q, k)


# ----------------------------------------------------------------------
# Several anchors in one descent, against the oracle
# ----------------------------------------------------------------------
@pytest.mark.parametrize("levels, flat", [(0, 1024), (1, 40), (2, 10)])
def test_anchor_sets_answer_like_the_oracle(rng, monkeypatch, levels, flat):
    """Every anchor of a set gets the oracle's list, order included, for
    both rankings, any k (17 needs more live rows than one node of 4
    holds), whatever the tree's height, with tail rows, blanked rows,
    duplicate rectangles, and with an anchor's nearest entry hidden.
    The anchors stand off the service area, on node edges and at
    ±1e300."""
    monkeypatch.setattr(rtree_module, "_FLAT", flat)
    cells = [Rect(x / 8, y / 8, (x + w) / 8, (y + h) / 8)
             for x, y, w, h in rng.integers(0, 4, (100, 4)).tolist()]
    entries = dict(enumerate(cells + cells[:20]))  # 20 duplicates: ties
    late = random_rects(rng, 12)
    rtree, oracle = RTreeIndex(max_entries=4), BruteForceIndex()
    for index in (rtree, oracle):
        index.bulk_load(entries)
        for oid in range(0, 120, 7):
            index.remove(oid)  # blank rows
        for oid, rect in enumerate(late, start=200):
            index.insert(oid, rect)  # tail rows
    assert len(rtree._levels) == levels
    assert rtree._n > rtree._packed or not levels
    rtree.check_invariants()
    corners = [Point(rect.x_min, rect.y_max) for rect in cells[:6]]
    anchors = corners + [
        Point(-0.5, 1.7), Point(2.0, 0.5), Point(1e300, -1e300), Point(-1e300, 0.5),
    ]

    def assert_each_like_oracle() -> None:
        for size in (1, 2, 4):
            for group in (anchors[i : i + size] for i in range(0, len(anchors), size)):
                for k in (1, 3, 17):
                    assert rtree.k_nearest_each(group, k) == oracle.k_nearest_each(group, k)
                    assert rtree.k_nearest_by_max_distance_each(
                        group, k
                    ) == oracle.k_nearest_by_max_distance_each(group, k)

    assert_each_like_oracle()
    for victim in {oracle.nearest(anchor) for anchor in anchors}:
        with rtree.hidden(victim), oracle.hidden(victim):
            assert_each_like_oracle()
    rtree.check_invariants()


def test_the_node_bound_sums_live_rows_across_nodes(monkeypatch):
    """Two levels over points on a line: a cluster of 16 fills one
    top-level node and the rest lie far off, so the k-th nearest to the
    cluster for k > 16 is beyond the cluster node's max-distance — and
    so is the 9th once 8 cluster rows are blanked, and the 8th with one
    more hidden: the bound must count live rows across nodes."""
    monkeypatch.setattr(rtree_module, "_FLAT", 4)
    entries = {i: Rect.point(Point(i / 64, 0.5)) for i in range(16)}
    entries.update({i: Rect.point(Point(10.0 + i, 0.5)) for i in range(16, 64)})
    rtree, oracle = RTreeIndex(max_entries=4), BruteForceIndex()
    for index in (rtree, oracle):
        index.bulk_load(entries)
    assert len(rtree._levels) == 2
    anchor = [Point(0.1, 0.5)]

    def assert_like_oracle(*ks: int) -> None:
        for k in ks:
            assert rtree.k_nearest_each(anchor, k) == oracle.k_nearest_each(anchor, k)
            assert rtree.k_nearest_by_max_distance_each(
                anchor, k
            ) == oracle.k_nearest_by_max_distance_each(anchor, k)

    assert_like_oracle(1, 16, 17, 40)
    for index in (rtree, oracle):
        for oid in range(0, 16, 2):
            index.remove(oid)
    assert_like_oracle(8, 9)
    with rtree.hidden(1), oracle.hidden(1):
        assert_like_oracle(7, 8)


# ----------------------------------------------------------------------
# The packed tree against the oracle, as a property
# ----------------------------------------------------------------------
GRID = st.integers(0, 8).map(lambda i: i / 8)  # coordinates that coincide
#: Ids whose ``str`` order is easy to lose on the way to wire bytes: an
#: int and a str of one text, non-ASCII, a lone surrogate between its
#: code-point neighbours, ids equal up to trailing NULs (which an ``S``
#: comparison ignores), and ids longer than the wire's 24 bytes —
#: among them ids that share the 25 bytes the index keeps of them and
#: differ, in an order their lengths do not give, after them.
AWKWARD_IDS = (
    3, "3", "é", "\ud7ff", "\ud800", "\ue000", "a", "a\x00", "a\x00\x00", "a\x00b",
    "x" * 25, "x" * 25 + "\x00", "x" * 25 + "a", "x" * 25 + "ab", "x" * 25 + "b",
    "é" * 13,
)


@st.composite
def stored_rects(draw):
    """Points, zero-area slivers, boxes and the whole service area."""
    kind = draw(st.sampled_from(["point", "point", "sliver", "box", "all"]))
    x, y = draw(GRID), draw(GRID)
    if kind == "all":
        return Rect(0.0, 0.0, 1.0, 1.0)
    if kind == "point":
        return Rect(x, y, x, y)
    w, h = draw(GRID) / 4, draw(GRID) / 4
    return Rect(x, y, x, y + h) if kind == "sliver" else Rect(x, y, x + w, y + h)


OPS = st.one_of(
    st.tuples(st.just("insert"), stored_rects()),
    st.tuples(st.just("reinsert"), stored_rects()),
    st.tuples(st.just("named"), st.tuples(st.sampled_from(AWKWARD_IDS), stored_rects())),
    st.tuples(st.just("remove"), st.integers(0, 10**6)),
    st.tuples(st.just("hide"), st.integers(0, 10**6)),
    st.tuples(st.just("bulk"), st.lists(stored_rects(), max_size=60)),
    # Enough writes in one batch to cross the repack rule; a pair names a
    # new oid (0, 1), re-inserts a live one (2) or the batch's last (3).
    st.tuples(
        st.just("insert_many"),
        st.lists(st.tuples(st.integers(0, 3), stored_rects()), min_size=20, max_size=40),
    ),
    st.tuples(st.just("remove_many"), st.integers(10, 40)),
)


def assert_answers_like(rtree: RTreeIndex, oracle: BruteForceIndex, probes) -> None:
    """Every query returns the oracle's list — order included."""
    assert len(rtree) == len(oracle)
    for region, point, k in probes:
        in_insertion_order = sorted(oracle.range_search(region), key=oracle._seq.get)
        assert rtree.range_search(region) == in_insertion_order
        ids, coords, wire, marks = rtree.range_columns(region)
        wanted_ids, wanted_coords, wanted_wire, wanted_marks = oracle.range_columns(region)
        assert ids == wanted_ids and coords.tobytes() == wanted_coords.tobytes()
        assert wire.tolist() == wanted_wire.tolist() and marks.tolist() == wanted_marks.tolist()
        if len(oracle):
            for count in (1, k, len(oracle)):
                assert rtree.k_nearest(point, count) == oracle.k_nearest(point, count)
                assert rtree.k_nearest_by_max_distance(
                    point, count
                ) == oracle.k_nearest_by_max_distance(point, count)
    points = [point for _region, point, _k in probes]
    for count in (1, 17) if len(oracle) else ():  # all probes in one descent
        assert rtree.k_nearest_each(points, count) == oracle.k_nearest_each(points, count)
        assert rtree.k_nearest_by_max_distance_each(
            points, count
        ) == oracle.k_nearest_by_max_distance_each(points, count)


@settings(
    max_examples=60,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)
@given(
    ops=st.lists(OPS, min_size=1, max_size=30),
    max_entries=st.integers(4, 16),
    # (_FLAT, _CHURN_FLOOR): deep trees repacked often, down to the
    # shipped pair, under which a tree this small is one flat scan.
    constants=st.sampled_from([(2, 1), (2, 4), (3, 16), (8, 4), (1024, 64)]),
    probes=st.lists(
        st.tuples(stored_rects(), st.builds(Point, GRID, GRID), st.integers(1, 9)),
        min_size=1, max_size=3,
    ),
)
def test_property_rtree_vs_oracle_under_op_sequences(
    ops, max_entries, constants, probes
):
    """After every op — inserts (of awkward ids too), re-inserts of live
    oids, removes, bulk loads mid-sequence, batch inserts (re-inserting
    live oids, naming one twice) and runs of removes that cross the
    repack rule, reads with an entry hidden — the packed tree (deep
    under a small ``_FLAT``, flat under the shipped one) answers exactly
    as brute force does, candidate columns and wire forms included."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(rtree_module, "_FLAT", constants[0])
        patch.setattr(rtree_module, "_CHURN_FLOOR", constants[1])
        rtree = RTreeIndex(max_entries=max_entries)
        oracle = BruteForceIndex()
        both = (rtree, oracle)
        next_id = 0

        def each(method: str, *args) -> None:  # a write, then the invariants
            for index in both:
                getattr(index, method)(*args)
            rtree.check_invariants()

        for op, arg in ops:
            live = list(oracle._entries)
            if not live and op not in ("insert", "insert_many", "bulk"):
                op, arg = "insert", Rect(0.5, 0.5, 0.5, 0.5)
            if op == "insert":
                each("insert", next_id, arg)
                next_id += 1
            elif op == "insert_many":
                pairs: list = []
                for choice, rect in arg:
                    if choice == 2 and live:
                        pairs.append((live[len(pairs) % len(live)], rect))
                    elif choice == 3 and pairs:
                        pairs.append((pairs[-1][0], rect))
                    else:
                        pairs.append((next_id, rect))
                        next_id += 1
                each("insert_many", pairs)
            elif op == "named":
                each("insert", *arg)
            elif op == "reinsert":
                each("insert", live[len(live) // 2], arg)
            elif op == "remove":
                each("remove", live[arg % len(live)])
            elif op == "remove_many":
                for victim in live[:arg]:
                    each("remove", victim)
            elif op == "bulk":
                entries = {next_id + i: rect for i, rect in enumerate(arg)}
                next_id += len(entries)
                each("bulk_load", entries)
            else:  # hide: a read that must leave no trace
                victim = live[arg % len(live)]
                with rtree.hidden(victim), oracle.hidden(victim):
                    assert victim not in rtree
                    assert_answers_like(rtree, oracle, probes)
            rtree.check_invariants()
            assert_answers_like(rtree, oracle, probes)
