"""The response codec's CRC: a flipped candidate id must never poison an
answer.  The update channel's frame CRCs are swept in test_wire_framing.py.
"""

from __future__ import annotations

import zlib

import pytest

from repro.geometry import Point, Rect
from repro.processor import CandidateList
from repro.server.codec import decode_candidate_list, encode_candidate_list


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
