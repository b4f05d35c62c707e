"""Tests for the 64-byte wire codec."""

from __future__ import annotations

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.geometry import Point, Rect
from repro.processor import CandidateList
from repro.server.codec import (
    RECORD_SIZE,
    decode_candidate_list,
    decode_record,
    encode_candidate_list,
    encode_record,
)


class TestRecordCodec:
    def test_record_is_exactly_64_bytes(self):
        payload = encode_record("station-42", Rect(0.1, 0.2, 0.3, 0.4))
        assert len(payload) == RECORD_SIZE == 64

    def test_roundtrip(self):
        oid, region = decode_record(encode_record("abc", Rect(0.1, 0.2, 0.3, 0.4)))
        assert oid == "abc"
        assert region == Rect(0.1, 0.2, 0.3, 0.4)

    def test_point_region_roundtrip(self):
        oid, region = decode_record(encode_record(7, Rect.point(Point(0.5, 0.5))))
        assert oid == "7"  # ids travel as strings
        assert region.is_degenerate()
        assert region.center == Point(0.5, 0.5)

    def test_long_oid_rejected(self):
        with pytest.raises(ValueError):
            encode_record("x" * 25, Rect(0, 0, 1, 1))

    def test_nul_ended_oid_rejected_not_shortened(self):
        """The NUL padding would turn ``'a\\x00'`` into ``'a'``: another
        id.  A NUL inside an id survives the padding and is kept."""
        for oid in ("a\x00", "a\x00\x00", "\x00"):
            with pytest.raises(ValueError, match="NUL"):
                encode_record(oid, Rect(0, 0, 1, 1))
        decoded, _region = decode_record(encode_record("a\x00b", Rect(0, 0, 1, 1)))
        assert decoded == "a\x00b"

    def test_exactly_24_byte_oid_ok(self):
        oid = "y" * 24
        decoded, _region = decode_record(encode_record(oid, Rect(0, 0, 1, 1)))
        assert decoded == oid

    def test_utf8_oid(self):
        oid, _region = decode_record(encode_record("café-7", Rect(0, 0, 1, 1)))
        assert oid == "café-7"

    def test_bad_length_rejected(self):
        with pytest.raises(ValueError):
            decode_record(b"\x00" * 63)

    def test_bad_magic_rejected(self):
        payload = bytearray(encode_record("a", Rect(0, 0, 1, 1)))
        payload[:4] = b"XXXX"
        with pytest.raises(ValueError):
            decode_record(bytes(payload))

    @given(
        x0=st.floats(-1e3, 1e3, allow_nan=False),
        y0=st.floats(-1e3, 1e3, allow_nan=False),
        w=st.floats(0, 10, allow_nan=False),
        h=st.floats(0, 10, allow_nan=False),
    )
    def test_property_roundtrip_exact_floats(self, x0, y0, w, h):
        region = Rect(x0, y0, x0 + w, y0 + h)
        _oid, decoded = decode_record(encode_record("t", region))
        # f64 roundtrips are bit-exact.
        assert decoded == region


class TestCandidateListCodec:
    def make_list(self, n: int) -> CandidateList:
        items = tuple(
            (f"t{i}", Rect(0.01 * i, 0.01 * i, 0.01 * i + 0.005, 0.01 * i + 0.005))
            for i in range(n)
        )
        return CandidateList(
            items=items, search_region=Rect(0, 0, 1, 1), num_filters=4
        )

    def test_roundtrip(self):
        original = self.make_list(10)
        decoded = decode_candidate_list(encode_candidate_list(original))
        assert decoded.items == original.items
        assert decoded.num_filters == 4

    def test_empty_list(self):
        decoded = decode_candidate_list(encode_candidate_list(self.make_list(0)))
        assert len(decoded) == 0

    def test_payload_size_matches_transmission_model(self):
        """The body of the serialized list is exactly the byte count the
        Figure 17 model charges: 64 bytes per record."""
        cl = self.make_list(37)
        payload = encode_candidate_list(cl)
        header_size = len(encode_candidate_list(self.make_list(0)))
        assert len(payload) - header_size == 37 * RECORD_SIZE

    def test_truncated_payload_rejected(self):
        payload = encode_candidate_list(self.make_list(3))
        with pytest.raises(ValueError):
            decode_candidate_list(payload[:-1])
        with pytest.raises(ValueError):
            decode_candidate_list(payload[:5])

    def test_bad_list_magic_rejected(self):
        payload = bytearray(encode_candidate_list(self.make_list(1)))
        payload[:4] = b"XXXX"
        with pytest.raises(ValueError):
            decode_candidate_list(bytes(payload))

    def test_decoded_ids_slice_like_a_tuple(self):
        ids = decode_candidate_list(encode_candidate_list(self.make_list(5))).items.ids
        assert ids[0:2] == ("t0", "t1")
        assert ids[::-2] == ("t4", "t2", "t0") and ids[7:] == ()
        assert ids[-1] == "t4"

    def test_decoded_list_supports_refinement(self):
        cl = self.make_list(20)
        decoded = decode_candidate_list(encode_candidate_list(cl))
        assert decoded.refine_nearest(Point(0.0, 0.0)) == "t0"
