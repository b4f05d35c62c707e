"""The consolidated message module.

``repro.messages`` is the single definition site for every
cross-boundary message type (the update codec is covered by
``test_resilience_messages.py``).  The shard envelope added for the
sharded runtime gets its own codec tests: a corrupted shard id must
never route a message to the wrong shard.
"""

from __future__ import annotations

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.messages import (
    ENVELOPE_HEADER_SIZE,
    ShardEnvelope,
    decode_envelope,
    encode_envelope,
)


class TestShardEnvelope:
    @given(
        shard=st.integers(0, 65535),
        payload=st.binary(max_size=256),
    )
    def test_round_trip(self, shard: int, payload: bytes) -> None:
        envelope = ShardEnvelope(shard, payload)
        wire = encode_envelope(envelope)
        assert len(wire) == ENVELOPE_HEADER_SIZE + len(payload) + 4
        assert decode_envelope(wire) == envelope

    def test_rejects_out_of_range_shard(self) -> None:
        with pytest.raises(ValueError):
            encode_envelope(ShardEnvelope(-1, b"x"))
        with pytest.raises(ValueError):
            encode_envelope(ShardEnvelope(65536, b"x"))

    @given(
        payload=st.binary(max_size=64),
        position=st.integers(0, 1 << 30),
        flip=st.integers(1, 255),
    )
    def test_any_single_byte_corruption_is_detected(
        self, payload: bytes, position: int, flip: int
    ) -> None:
        wire = bytearray(encode_envelope(ShardEnvelope(9, payload)))
        wire[position % len(wire)] ^= flip
        with pytest.raises(ValueError):
            decode_envelope(bytes(wire))

    def test_a_corrupted_shard_id_never_routes(self) -> None:
        # Flipping the low bit of the shard id field specifically — the
        # exact corruption that would mis-route a message — must fail
        # the CRC rather than decode to shard 8.
        wire = bytearray(encode_envelope(ShardEnvelope(9, b"move u1")))
        wire[6] ^= 0x01  # header: 4s magic, H version, H shard at offset 6
        with pytest.raises(ValueError, match="CRC"):
            decode_envelope(bytes(wire))

    def test_truncation_and_garbage_are_rejected(self) -> None:
        wire = encode_envelope(ShardEnvelope(2, b"payload"))
        with pytest.raises(ValueError, match="too short"):
            decode_envelope(wire[:8])
        with pytest.raises(ValueError, match="magic"):
            decode_envelope(b"XXXX" + wire[4:])
        with pytest.raises(ValueError, match="length"):
            decode_envelope(wire + b"\x00")
