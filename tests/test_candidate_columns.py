"""Columnar candidate lists against their scalar definition.

``tests/reference_candidates.py`` is what the lists did one pair at a
time.  The column kernels shortlist with numpy (whose ``hypot`` is not
``math.hypot`` in the last place) and rank the shortlist with the scalar
distance, so every refinement must return the *identical* oids in the
*identical* order — on ties, near-ties and a radius sitting exactly on a
candidate — however the list was built: from a tuple of pairs, by the
processor's ``collect``, or by decoding a payload.  The codec must write
the same bytes and refuse, at decode, everything it refused before.
"""

from __future__ import annotations

import math
import struct
from dataclasses import dataclass

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.geometry import Point, Rect
from repro.processor import CandidateList
from repro.processor.candidate import CandidateColumns
from repro.processor.executor import collect
from repro.processor.probabilistic import ContainmentOnly, FractionOverlap
from repro.server import LocationServer
from repro.server.codec import decode_candidate_list, encode_candidate_list
from repro.spatial import BruteForceIndex, RTreeIndex
from tests import reference_candidates as reference
from tests.conftest import UNIT

BYS = ("min", "max", "center")
COVER = Rect(-1e6, -1e6, 1e6, 1e6)

#: One committed payload (generated on the scalar codec): a point, a
#: rect with a non-ASCII id, a zero-width rect with a 24-byte id, a rect
#: with negative coordinates; ``num_filters`` 2.
GOLDEN_ITEMS = (
    (7, Rect.point(Point(0.25, 0.75))),
    ("café-7", Rect(0.125, 0.25, 0.5, 0.625)),
    ("y" * 24, Rect(0.1, 0.2, 0.1, 0.9)),
    ("t003", Rect(-1.5, -2.5, 3.0, 4.0)),
)
GOLDEN_HEX = (
    "434c53540100020004000000743b719b00000000435350520100010000000000"
    "0000d03f000000000000e83f000000000000d03f000000000000e83f37000000"
    "0000000000000000000000000000000000000000435350520100000000000000"
    "0000c03f000000000000d03f000000000000e03f000000000000e43f636166c3"
    "a92d37000000000000000000000000000000000043535052010001009a999999"
    "9999b93f9a9999999999c93f9a9999999999b93fcdccccccccccec3f79797979"
    "7979797979797979797979797979797979797979435350520100000000000000"
    "0000f8bf00000000000004c00000000000000840000000000000104074303033"
    "0000000000000000000000000000000000000000"
)


def golden_list() -> CandidateList:
    return CandidateList(GOLDEN_ITEMS, Rect(0, 0, 1, 1), 2)


def same_oids(actual, expected) -> None:
    """Equal values *and* types: ``7`` is not ``"7"``."""
    assert actual == expected
    assert [type(oid) for oid in actual] == [type(oid) for oid in expected]


def assert_refines_like_reference(candidates, items, location, k, radius) -> None:
    for by in BYS:
        same_oids(
            [candidates.refine_nearest(location, by)],
            [reference.refine_nearest(items, location, by)],
        )
        same_oids(
            candidates.refine_k_nearest(location, k, by),
            reference.refine_k_nearest(items, location, k, by),
        )
    same_oids(
        candidates.refine_within(location, radius),
        reference.refine_within(items, location, radius),
    )


def three_builds(items):
    """``(candidate list, reference items)`` per way a list comes to be."""
    def built(candidates, reference_items):
        assert tuple(candidates.items) == reference_items
        return candidates, reference_items

    yield built(CandidateList(items, COVER, 4), items)

    index = BruteForceIndex()
    stored = {}
    for oid, rect in items:
        if oid not in stored:
            stored[oid] = rect
            index.insert(oid, rect)
    in_str_order = tuple(sorted(stored.items(), key=lambda item: str(item[0])))
    yield built(collect(index, COVER, "private", 4), in_str_order)

    payload = encode_candidate_list(CandidateList(items, COVER, 4))
    assert payload == reference.encode_candidate_list(items, 4)
    decoded = decode_candidate_list(payload)
    wire_items, region, _num_filters = reference.decode_candidate_list(payload)
    assert decoded.search_region == region
    yield built(decoded, wire_items)


# ----------------------------------------------------------------------
# Strategies: coordinates that tie exactly (a small grid, 3-4-5
# triangles) or sit one or two floats apart
# ----------------------------------------------------------------------
def _nudge(value: float, ulps: int) -> float:
    for _ in range(abs(ulps)):
        value = math.nextafter(value, math.copysign(math.inf, ulps))
    return value


coordinates = st.builds(
    _nudge,
    st.one_of(
        st.sampled_from((0.0, 0.1, 0.25, 0.3, 0.5, 0.6, 0.75, 1.0, 3.0, 4.0, 5.0)),
        st.floats(-8.0, 8.0, allow_nan=False),
    ),
    st.integers(-2, 2),
)
points = st.builds(lambda x, y: Rect(x, y, x, y), coordinates, coordinates)
rects = st.builds(
    lambda x0, y0, x1, y1: Rect(min(x0, x1), min(y0, y1), max(x0, x1), max(y0, y1)),
    coordinates, coordinates, coordinates, coordinates,
)
oids = st.one_of(
    st.integers(0, 40), st.sampled_from(("a", "b", "7", "café-7", "t01", "y" * 24))
)
item_lists = st.builds(
    # Repeat a prefix under fresh ids: duplicates of whole regions.
    lambda items, repeats: tuple(items)
    + tuple((f"dup{i}", rect) for i, (_oid, rect) in enumerate(items[:repeats])),
    st.lists(st.tuples(oids, st.one_of(points, rects)), min_size=1, max_size=24),
    st.integers(0, 4),
)


class TestRefinementMatchesReference:
    @settings(max_examples=150)
    @given(
        items=item_lists,
        location=st.builds(Point, coordinates, coordinates),
        k=st.integers(1, 30),
        free_radius=st.floats(0.0, 12.0),
        on_candidate=st.one_of(st.none(), st.integers(0, 1000)),
        radius_ulps=st.integers(-1, 1),
    )
    def test_property_same_oids_same_order(
        self, items, location, k, free_radius, on_candidate, radius_ulps
    ):
        radius = free_radius
        if on_candidate is not None:
            _oid, rect = items[on_candidate % len(items)]
            radius = _nudge(rect.min_distance_to_point(location), radius_ulps)
        for candidates, reference_items in three_builds(items):
            assert_refines_like_reference(
                candidates, reference_items, location, k, radius
            )

    @pytest.mark.parametrize("seed", range(5))
    def test_ring_of_near_equidistant_points(self, seed):
        """Hundreds of distances within a few ulps of each other — where
        ``np.hypot`` and ``math.hypot`` do disagree."""
        rng = np.random.default_rng(seed)
        center = Point(float(rng.random()), float(rng.random()))
        angles = rng.random(300) * 2 * math.pi
        items = tuple(
            (i, Rect.point(Point(center.x + 0.3 * math.cos(a), center.y + 0.3 * math.sin(a))))
            for i, a in enumerate(angles.tolist())
        )
        vector = np.hypot(
            np.array([r.x_min for _i, r in items]) - center.x,
            np.array([r.y_min for _i, r in items]) - center.y,
        )
        scalar = [r.min_distance_to_point(center) for _i, r in items]
        assert (vector != np.array(scalar)).any(), "ring does not bite"
        radius = sorted(scalar)[150]
        for candidates, reference_items in three_builds(items):
            assert_refines_like_reference(
                candidates, reference_items, center, 40, radius
            )

    def test_non_finite_coordinates_fall_back_to_the_scalar_ranking(self):
        items = (
            ("strip", Rect(-math.inf, 0.2, math.inf, 0.4)),
            ("far", Rect(math.inf, 0.0, math.inf, 1.0)),
            ("nan", Rect(math.nan, 0.0, math.nan, 1.0)),
            ("p", Rect.point(Point(0.5, 0.5))),
            ("q", Rect.point(Point(0.5, 0.9))),
        )
        candidates = CandidateList(items, COVER, 4)
        assert encode_candidate_list(candidates) == (
            reference.encode_candidate_list(items, 4)
        )
        for location in (Point(0.5, 0.6), Point(math.inf, 0.3), Point(math.nan, 0.3)):
            assert_refines_like_reference(candidates, items, location, 3, 0.15)

    def test_errors_are_the_old_ones(self):
        empty = CandidateList((), COVER, 4)
        one = CandidateList(GOLDEN_ITEMS[:1], COVER, 4)
        with pytest.raises(ValueError, match="empty"):
            empty.refine_nearest(Point(0, 0))
        with pytest.raises(ValueError, match="empty"):
            empty.refine_k_nearest(Point(0, 0), 3)
        assert empty.refine_within(Point(0, 0), 1.0) == []
        with pytest.raises(ValueError, match="k must be"):
            one.refine_k_nearest(Point(0, 0), 0)
        with pytest.raises(ValueError, match="unknown ranking"):
            one.refine_k_nearest(Point(0, 0), 1, by="median")


class TestColumns:
    def test_items_reads_as_the_tuple_of_pairs(self):
        columns = golden_list().items
        assert isinstance(columns, CandidateColumns)
        assert columns == GOLDEN_ITEMS and GOLDEN_ITEMS == columns
        assert hash(columns) == hash(GOLDEN_ITEMS)
        assert repr(columns) == repr(GOLDEN_ITEMS)
        assert columns[1] == GOLDEN_ITEMS[1] and columns[-1] == GOLDEN_ITEMS[-1]
        assert columns[1:3] == GOLDEN_ITEMS[1:3]
        assert columns != GOLDEN_ITEMS[:3]
        assert columns == CandidateColumns.from_rects(*zip(*GOLDEN_ITEMS))

    def test_columns_pass_through_the_constructor_untouched(self):
        first = golden_list()
        again = CandidateList(first.items, first.search_region, first.num_filters)
        assert again.items is first.items
        assert again == first and hash(again) == hash(first)

    def test_produced_lists_keep_the_original_oid_objects(self):
        candidates = golden_list()
        same_oids(candidates.oids(), [7, "café-7", "y" * 24, "t003"])
        assert 7 in candidates and "7" not in candidates
        decoded = decode_candidate_list(encode_candidate_list(candidates))
        same_oids(decoded.oids(), ["7", "café-7", "y" * 24, "t003"])

    def test_mismatched_columns_rejected(self):
        with pytest.raises(ValueError):
            CandidateColumns(("a", "b"), np.zeros((3, 4)))


INDEXES = {
    "brute": BruteForceIndex,
    "rtree": RTreeIndex,
}


class TestCollectSeam:
    """``collect`` takes its columns from the index in one call;
    whatever the index — columns taken by row, or the generic
    ``range_search`` + ``rect_of`` — they are those of ``from_rects``
    over the ``str``-sorted range result, wire forms included."""

    @staticmethod
    def loaded(kind: str):
        """1 200 bulk-loaded entries (packed rows, under the R-tree's
        shipped constants) and 140 inserted after them (tail rows);
        mixed-type oids whose ``str`` order is not their insertion
        order."""
        rng = np.random.default_rng(7)
        def entry(i: int) -> Rect:
            x, y = rng.random(2).tolist()
            side = 0.0 if i % 3 == 0 else 0.05
            return Rect(x, y, min(1.0, x + side), min(1.0, y + side))
        index = INDEXES[kind]()
        index.bulk_load({(i if i % 2 else f"t{i}"): entry(i) for i in range(1200)})
        for i in range(1200, 1340):
            index.insert(i if i % 2 else f"t{i}", entry(i))
        index.insert(5, entry(5))  # a re-stored oid
        return index

    @pytest.mark.parametrize("kind", sorted(INDEXES))
    @pytest.mark.parametrize(
        "policy", [None, FractionOverlap(0.5), ContainmentOnly()], ids=repr
    )
    @pytest.mark.parametrize(
        "a_ext",
        [Rect(0.2, 0.3, 0.6, 0.7), UNIT, Rect(0.5, 0.5, 0.5, 0.5), Rect(2.0, 2.0, 3.0, 3.0)],
        ids=["window", "everything", "degenerate", "empty"],
    )
    def test_columns_are_from_rects_over_the_sorted_range(self, kind, policy, a_ext):
        index = self.loaded(kind)
        oids = sorted(index.range_search(a_ext), key=str)
        if policy is not None:
            oids = [oid for oid in oids if policy.admits(index.rect_of(oid), a_ext)]
        wanted = CandidateColumns.from_rects(oids, [index.rect_of(oid) for oid in oids])
        got = collect(index, a_ext, "private", 4, policy, filters=("f",))
        same_oids(list(got.items.ids), list(wanted.ids))
        assert got.items.coords.shape == wanted.coords.shape
        assert got.items.coords.tobytes() == wanted.coords.tobytes()
        for column, wanted_column in zip(got.items.wire_forms(), wanted.wire_forms()):
            assert column.tolist() == wanted_column.tolist()
        assert not got.items.coords.flags.writeable
        assert (got.search_region, got.num_filters, got.filters) == (a_ext, 4, ("f",))
        if a_ext == UNIT and policy is None:
            assert len(got) == len(index) == 1340
        if a_ext.x_min == 2.0:
            assert len(got) == 0

    def test_rtree_lists_and_pair_lists_encode_alike(self):
        """The wire column an R-tree decided when it stored each entry
        writes the bytes that pairs do, and refuses the ids they refuse,
        one faulty id at a time and all of them at once."""
        index = self.loaded("rtree")
        index.insert("a\x00b", Rect(0.5, 0.5, 0.5, 0.5))  # a NUL inside is fine

        def refusal(candidates: CandidateList) -> tuple[type, str]:
            with pytest.raises(ValueError) as refused:
                encode_candidate_list(candidates)
            return type(refused.value), str(refused.value)

        got = collect(index, UNIT, "public", 4)
        pairs = CandidateList(tuple(got.items), UNIT, 4)
        assert encode_candidate_list(got) == encode_candidate_list(pairs) == (
            reference.encode_candidate_list(tuple(got.items), 4)
        )
        faulty = ("x" * 25, "\ud800", "a\x00", "é" * 13, "b" * 30 + "\x00")
        for oid in faulty + (faulty,):
            for one in oid if isinstance(oid, tuple) else (oid,):
                index.insert(one, Rect(0.4, 0.4, 0.6, 0.6))
            got = collect(index, UNIT, "public", 4)
            assert refusal(got) == refusal(CandidateList(tuple(got.items), UNIT, 4))
            if not isinstance(oid, tuple):
                index.remove(oid)
        assert "surrogate" in refusal(got)[1]

    def test_the_rtree_result_spans_packed_rows_and_tail_rows(self):
        index = self.loaded("rtree")
        assert index._levels and index._n > index._packed
        rows = index._range_rows(UNIT)
        assert (rows < index._packed).any() and (rows >= index._packed).any()


class TestFrozenBytes:
    def test_encode_reproduces_the_golden_payload(self):
        assert encode_candidate_list(golden_list()).hex() == GOLDEN_HEX

    def test_golden_payload_round_trips(self):
        decoded = decode_candidate_list(bytes.fromhex(GOLDEN_HEX))
        assert decoded.items == tuple((str(oid), rect) for oid, rect in GOLDEN_ITEMS)
        assert decoded.num_filters == 2 and decoded.filters == ()
        assert decoded.search_region == Rect(-1.5, -2.5, 3.0, 4.0)
        assert all(type(v) is float for v in decoded.search_region.as_tuple())
        assert encode_candidate_list(decoded).hex() == GOLDEN_HEX

    def test_decode_accepts_any_bytes_like_payload(self):
        for wrap in (bytearray, memoryview):
            assert decode_candidate_list(wrap(bytes.fromhex(GOLDEN_HEX))) == (
                decode_candidate_list(bytes.fromhex(GOLDEN_HEX))
            )


def _resealed(payload: bytearray) -> bytes:
    """The payload with its CRC recomputed, so that the damage reaches
    the record checks instead of stopping at the checksum."""
    fields = reference.HEADER.unpack_from(payload)[:4]
    return reference.seal(fields, bytes(payload[reference.HEADER.size :]))


def _record(index: int) -> int:
    return reference.HEADER.size + index * reference.RECORD_SIZE


def _swap_doubles(payload: bytearray, a: int, b: int) -> None:
    payload[a : a + 8], payload[b : b + 8] = payload[b : b + 8], payload[a : a + 8]


#: name -> damage done to a record past the first one.
MALFORMED = {
    "magic": lambda p: p.__setitem__(slice(_record(2), _record(2) + 4), b"XXXX"),
    "version": lambda p: struct.pack_into("<H", p, _record(3) + 4, 2),
    "x_min > x_max": lambda p: _swap_doubles(p, _record(1) + 8, _record(1) + 24),
    "y_min > y_max": lambda p: _swap_doubles(p, _record(3) + 16, _record(3) + 32),
    "utf-8": lambda p: p.__setitem__(_record(2) + 40, 0xFF),
    "utf-8 cut short": lambda p: p.__setitem__(
        slice(_record(1) + 40, _record(1) + 64), b"caf\xc3" + bytes(20)
    ),
}


class TestEagerRejection:
    @pytest.mark.parametrize("kind", sorted(MALFORMED))
    def test_malformed_record_is_refused_at_decode(self, kind):
        payload = bytearray.fromhex(GOLDEN_HEX)
        MALFORMED[kind](payload)
        with pytest.raises(ValueError) as refused:
            decode_candidate_list(_resealed(payload))
        assert "CRC" not in str(refused.value)
        # ...and a damaged payload that was *not* resealed never gets
        # that far.
        with pytest.raises(ValueError, match="CRC"):
            decode_candidate_list(bytes(payload))

    def test_split_multibyte_id_is_not_healed_by_its_neighbour(self):
        """Each id is validated alone: a lead byte ending one record's id
        and a continuation byte opening the next is two bad ids."""
        payload = bytearray.fromhex(GOLDEN_HEX)
        payload[_record(1) + 40 : _record(1) + 64] = b"x" * 23 + b"\xc3"
        payload[_record(2) + 40 : _record(2) + 64] = b"\xa9" + b"y" * 23
        with pytest.raises(ValueError, match="utf-8"):
            decode_candidate_list(_resealed(payload))

    @pytest.mark.parametrize("oid", ["x" * 25, "é" * 13])
    def test_long_id_is_refused_at_encode_never_truncated(self, oid):
        items = GOLDEN_ITEMS + ((oid, Rect(0, 0, 1, 1)),)
        with pytest.raises(ValueError, match="too long"):
            encode_candidate_list(CandidateList(items, COVER, 4))

    @pytest.mark.parametrize("num_filters", [-1, 2**16])
    def test_header_overflow_is_a_value_error(self, num_filters):
        with pytest.raises(ValueError, match=str(num_filters)):
            encode_candidate_list(CandidateList(GOLDEN_ITEMS, COVER, num_filters))


class TestFrozenHarnessShape:
    """``benchmarks/service/tracing.py`` is frozen and pins the class
    shape: this is its use of ``CandidateList``, so tier-1 fails when
    the shape drifts, not only ``pytest benchmarks/service``."""

    def test_positional_frozen_subclass_with_one_more_field(self):
        @dataclass(frozen=True)
        class Timed(CandidateList):
            tracer: object = None

            def refine_nearest(self, location, by="min"):
                return ("timed", super().refine_nearest(location, by))

        server = LocationServer()
        server.add_public_bulk(
            {i: Point(0.1 * i, 0.05 * i) for i in range(10)}
        )
        result = server.nn_public(Rect(0.3, 0.1, 0.4, 0.2))
        assert type(result) is CandidateList
        timed = Timed(
            result.items, result.search_region, result.num_filters,
            result.filters, "tracer",
        )
        assert timed.items is result.items and timed.tracer == "tracer"
        at = Point(0.35, 0.15)
        assert timed.refine_nearest(at) == ("timed", result.refine_nearest(at))
        assert timed.refine_k_nearest(at, 3) == result.refine_k_nearest(at, 3)

    def test_decoded_list_has_a_length_and_iterates_as_pairs(self):
        decoded = decode_candidate_list(bytes.fromhex(GOLDEN_HEX))
        assert len(decoded) == 4
        assert any(oid == "t003" for oid, _rect in decoded.items)
        assert all(
            isinstance(oid, str) and isinstance(rect, Rect)
            for oid, rect in decoded.items
        )
