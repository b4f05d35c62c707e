"""Tests for the update wire format and the response-codec checksum.

The resilience failure model only works if *every* single-byte
corruption on either channel is detected: a flipped coordinate applied
silently would poison the anonymizer, a flipped candidate id would
poison an answer.  Both codecs carry a CRC-32 for exactly that.
"""

from __future__ import annotations

import zlib

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.anonymizer import PrivacyProfile
from repro.geometry import Point, Rect
from repro.messages import (
    UPDATE_RECORD_SIZE,
    LocationUpdate,
    decode_update,
    encode_update,
)
from repro.processor import CandidateList
from repro.server.codec import decode_candidate_list, encode_candidate_list

UPDATE = LocationUpdate("u042", 7, Point(0.25, 0.75), PrivacyProfile(5, 0.01))


class TestUpdateCodec:
    def test_record_is_exactly_64_bytes(self):
        assert len(encode_update(UPDATE)) == UPDATE_RECORD_SIZE == 64

    def test_roundtrip(self):
        decoded = decode_update(encode_update(UPDATE))
        assert decoded == UPDATE

    def test_long_uid_rejected(self):
        with pytest.raises(ValueError):
            encode_update(
                LocationUpdate("u" * 21, 0, Point(0, 0), PrivacyProfile())
            )

    def test_exactly_20_byte_uid_roundtrips(self):
        update = LocationUpdate("u" * 20, 0, Point(0, 0), PrivacyProfile())
        assert decode_update(encode_update(update)).uid == "u" * 20

    def test_seq_out_of_uint32_range_rejected(self):
        with pytest.raises(ValueError):
            encode_update(LocationUpdate("u", 2**32, Point(0, 0), PrivacyProfile()))
        with pytest.raises(ValueError):
            encode_update(LocationUpdate("u", -1, Point(0, 0), PrivacyProfile()))

    def test_truncated_record_rejected(self):
        with pytest.raises(ValueError):
            decode_update(encode_update(UPDATE)[:-1])

    def test_bad_magic_rejected(self):
        payload = bytearray(encode_update(UPDATE))
        payload[0] ^= 0xFF
        with pytest.raises(ValueError):
            decode_update(bytes(payload))

    def test_every_single_byte_corruption_is_detected(self):
        clean = encode_update(UPDATE)
        for offset in range(UPDATE_RECORD_SIZE):
            corrupted = bytearray(clean)
            corrupted[offset] ^= 0x01
            with pytest.raises(ValueError):
                decode_update(bytes(corrupted))

    @given(
        uid=st.text(
            alphabet=st.characters(min_codepoint=33, max_codepoint=126),
            min_size=1,
            max_size=20,
        ),
        seq=st.integers(min_value=0, max_value=2**32 - 1),
        x=st.floats(allow_nan=False, allow_infinity=False, width=32),
        y=st.floats(allow_nan=False, allow_infinity=False, width=32),
        k=st.integers(min_value=1, max_value=10_000),
        a_min=st.floats(min_value=0.0, max_value=1e6, allow_nan=False),
    )
    def test_roundtrip_property(self, uid, seq, x, y, k, a_min):
        update = LocationUpdate(
            uid, seq, Point(float(x), float(y)), PrivacyProfile(k, float(a_min))
        )
        assert decode_update(encode_update(update)) == update


class TestResponseChecksum:
    def make_candidates(self) -> CandidateList:
        return CandidateList(
            items=(
                ("t001", Rect(0.1, 0.1, 0.2, 0.2)),
                ("t002", Rect(0.3, 0.3, 0.4, 0.4)),
            ),
            search_region=Rect(0.0, 0.0, 0.5, 0.5),
            num_filters=2,
        )

    def test_roundtrip_with_checksum(self):
        candidates = self.make_candidates()
        assert decode_candidate_list(
            encode_candidate_list(candidates)
        ).items == candidates.items

    def test_every_single_byte_corruption_is_detected(self):
        payload = encode_candidate_list(self.make_candidates())
        for offset in range(len(payload)):
            corrupted = bytearray(payload)
            corrupted[offset] ^= 0x10
            with pytest.raises(ValueError):
                decode_candidate_list(bytes(corrupted))

    def test_zeroed_checksum_slot_is_rejected(self):
        """A zero crc slot is not a "no checksum" marker: corruption that
        also zeroes the slot must not decode as valid."""
        payload = bytearray(encode_candidate_list(self.make_candidates()))
        payload[12:20] = b"\x00" * 8  # zero the crc slot
        with pytest.raises(ValueError, match="CRC"):
            decode_candidate_list(bytes(payload))
        payload[40] ^= 0x10  # ...and damage a record's coordinates too
        with pytest.raises(ValueError, match="CRC"):
            decode_candidate_list(bytes(payload))

    @pytest.mark.parametrize(
        "flags",
        [0x0001, 0x0002, 0x8000],
        ids=["point flag on a region with area", "unknown bit 1", "unknown bit 15"],
    )
    def test_flags_that_contradict_the_region_are_rejected(self, flags):
        """The flags field is written from the region, so it is checked
        against the region: a record whose flags lie decodes as invalid
        even when the payload's CRC is intact."""
        payload = bytearray(encode_candidate_list(self.make_candidates()))
        record = 20 + 64  # the second record: t002, a region with area
        assert payload[record + 6 : record + 8] == b"\x00\x00"
        payload[record + 6 : record + 8] = flags.to_bytes(2, "little")
        payload[12:20] = bytes(8)
        payload[12:16] = zlib.crc32(bytes(payload)).to_bytes(4, "little")
        with pytest.raises(ValueError, match="flags"):
            decode_candidate_list(bytes(payload))

    def test_cleared_point_flag_is_rejected(self):
        point = CandidateList(
            items=(("t001", Rect.point(Point(0.1, 0.1))),),
            search_region=Rect(0.0, 0.0, 0.5, 0.5),
            num_filters=1,
        )
        payload = bytearray(encode_candidate_list(point))
        assert payload[26:28] == b"\x01\x00"
        payload[26:28] = bytes(2)
        payload[12:20] = bytes(8)
        payload[12:16] = zlib.crc32(bytes(payload)).to_bytes(4, "little")
        with pytest.raises(ValueError, match="flags"):
            decode_candidate_list(bytes(payload))
