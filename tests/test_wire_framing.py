"""Tests for the shard wire protocol's framing layer.

A frame is the layout ``wire.py`` states (held to a reference encoder
below); any single corrupted byte must be rejected before an envelope
is interpreted — by the frame CRC or, under a recomputed one, by the
envelope's own checks — partial reads must reassemble into the exact
frames that were sent, and the operation/response payload codecs must
round-trip bit-exactly (the parallel runtime's byte-identical
equivalence rests on the doubles surviving the wire unchanged).
"""

from __future__ import annotations

import struct
import zlib

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.anonymizer import PrivacyProfile
from repro.anonymizer.cells import CellId
from repro.anonymizer.cloak import CloakedRegion
from repro.geometry import Point, Rect
from repro.messages import ShardEnvelope
from repro.sharding.wire import (
    FRAME_HEADER_SIZE,
    FRAME_VERSION,
    Frame,
    FrameDecoder,
    KIND_NACK,
    KIND_REQUEST,
    KIND_RESPONSE,
    WireError,
    decode_frame,
    decode_op,
    decode_response,
    encode_frame,
    op_cell_count,
    op_cloak,
    op_cloak_location,
    op_cloaks,
    op_deregister,
    op_move,
    op_moves,
    op_register,
    op_set_profile,
    response_cloak,
    response_cloaks,
    response_cost,
    response_error,
)

envelopes_strategy = st.lists(
    st.tuples(st.integers(0, 65535), st.binary(max_size=64)),
    max_size=12,
)
kinds_strategy = st.sampled_from([KIND_REQUEST, KIND_RESPONSE, KIND_NACK])
uids_strategy = st.integers(-(2**63), 2**63 - 1) | st.text(max_size=8)


def build(kind: int, seq: int, raw: list[tuple[int, bytes]]) -> bytes:
    return encode_frame(
        kind, seq, [ShardEnvelope(shard, payload) for shard, payload in raw]
    )


def sealed(body: bytes) -> bytes:
    return body + struct.pack("<I", zlib.crc32(body))


def reference_frame(kind: int, seq: int, raw: list[tuple[int, bytes]]) -> bytes:
    """The frame and envelope tables of ``wire.py``'s docstring, written
    out with ``struct`` and ``zlib`` alone."""
    payload = b"".join(
        sealed(struct.pack("<4sHHI", b"CSHD", 1, shard, len(body)) + body)
        for shard, body in raw
    )
    head = struct.pack("<4sBBHII", b"CFRM", 1, kind, len(raw), seq, len(payload))
    return sealed(head + payload)


def reframed(wire: bytes | bytearray) -> bytes:
    """``wire`` under a recomputed frame CRC: only envelope checks refuse it."""
    return sealed(bytes(wire[:-4]))


def malformed_envelope_frame(offset: int = 16, value: bytes = b"XXXX") -> bytes:
    """A one-envelope request with ``value`` at ``offset``, frame CRC valid."""
    wire = bytearray(build(KIND_REQUEST, 1, [(2, b"payload")]))
    wire[offset : offset + len(value)] = value
    return reframed(wire)


class TestFrameRoundTrip:
    @given(
        kind=kinds_strategy,
        seq=st.integers(0, 2**32 - 1),
        count=st.sampled_from([0, 1, 300]) | st.integers(0, 12),
        pairs=st.lists(
            st.tuples(
                st.sampled_from([0, 65535]) | st.integers(0, 65535),
                st.just(b"") | st.binary(max_size=40) | st.builds(op_cloak, uids_strategy)
                | st.builds(op_move, uids_strategy, st.builds(Point, st.floats(), st.floats())),
            ),
            min_size=1, max_size=6,
        ),
    )
    def test_batched_round_trip(self, kind, seq, count, pairs) -> None:
        # Byte for byte the reference layout, and decoded back whole.
        raw = [pairs[i % len(pairs)] for i in range(count)]
        wire = build(kind, seq, raw)
        assert wire == reference_frame(kind, seq, raw)
        assert decode_frame(wire) == Frame(kind, seq, tuple(map(ShardEnvelope._make, raw)))

    @given(shard=st.integers(0, 65535), payload=st.binary(max_size=256))
    def test_single_envelope_round_trip(self, shard: int, payload: bytes) -> None:
        # One envelope costs its 12-byte header, its payload and its CRC.
        envelope = ShardEnvelope(shard, payload)
        wire = encode_frame(KIND_REQUEST, 3, [envelope])
        assert len(wire) == FRAME_HEADER_SIZE + 12 + len(payload) + 4 + 4
        assert decode_frame(wire).envelopes == (envelope,)

    def test_empty_batch_round_trips(self) -> None:
        frame = decode_frame(build(KIND_RESPONSE, 7, []))
        assert frame == Frame(KIND_RESPONSE, 7, ())

    def test_encode_rejects_bad_kind(self) -> None:
        with pytest.raises(WireError, match="kind"):
            encode_frame(99, 1, [])

    def test_encode_rejects_out_of_range_seq(self) -> None:
        with pytest.raises(WireError, match="sequence"):
            encode_frame(KIND_REQUEST, 2**32, [])
        with pytest.raises(WireError, match="sequence"):
            encode_frame(KIND_REQUEST, -1, [])

    def test_encode_rejects_out_of_range_shard(self) -> None:
        for shard in (-1, 65536):
            with pytest.raises(WireError, match="shard id"):
                build(KIND_REQUEST, 1, [(shard, b"x")])

    def test_encode_rejects_oversized_batch(self) -> None:
        batch = [ShardEnvelope(0, b"")] * 2**16
        with pytest.raises(WireError, match="too many envelopes"):
            encode_frame(KIND_REQUEST, 1, batch)


class TestFrameCorruption:
    def test_every_single_byte_corruption_is_rejected(self) -> None:
        # Exhaustive: every byte position x a handful of flip masks.
        # The CRC trailer covers header and payload, and the CRC bytes
        # themselves mismatch when flipped, so no single-byte change
        # may ever decode.
        wire = build(
            KIND_REQUEST,
            3,
            [(0, op_move(11, Point(0.25, 0.75))), (5, op_cloak("alice"))],
        )
        for position in range(len(wire)):
            for flip in (0x01, 0x80, 0xFF):
                corrupted = bytearray(wire)
                corrupted[position] ^= flip
                with pytest.raises(WireError):
                    decode_frame(bytes(corrupted))

    def test_truncation_is_rejected(self) -> None:
        wire = build(KIND_REQUEST, 3, [(1, b"op")])
        for cut in range(len(wire)):
            with pytest.raises(WireError):
                decode_frame(wire[:cut])

    def test_error_messages_name_the_failure(self) -> None:
        wire = build(KIND_RESPONSE, 9, [(2, b"payload")])
        with pytest.raises(WireError, match="too short"):
            decode_frame(wire[:10])
        with pytest.raises(WireError, match="magic"):
            decode_frame(b"XXXX" + wire[4:])
        with pytest.raises(WireError, match="length field"):
            decode_frame(wire + b"\x00")
        bad_version = bytearray(wire)
        bad_version[4] = FRAME_VERSION + 1
        with pytest.raises(WireError, match="version"):
            decode_frame(bytes(bad_version))
        bad_kind = bytearray(wire)
        bad_kind[5] = 42
        with pytest.raises(WireError, match="kind"):
            decode_frame(bytes(bad_kind))
        bad_crc = bytearray(wire)
        bad_crc[-1] ^= 0xFF
        with pytest.raises(WireError, match="CRC"):
            decode_frame(bytes(bad_crc))

    @pytest.mark.parametrize(
        "offset, value, failure",
        [
            (16, b"XXXX", "magic"),
            (20, b"\x02\x00", "version"),
            (24, struct.pack("<I", 8), "length field"),
            (28, b"P", "CRC"),
            (6, b"\x02\x00", "envelope truncated"),
            (6, b"\x00\x00", "count disagrees"),
        ],
        ids=["magic", "version", "length", "crc", "truncated", "count"],
    )
    def test_a_malformed_envelope_is_a_wire_error(self, offset, value, failure) -> None:
        # The frame CRC vouches for these bytes; the envelope's checks must
        # refuse them as a wire error, not a ValueError no transport answers.
        with pytest.raises(WireError, match=failure):
            decode_frame(malformed_envelope_frame(offset, value))

    @given(
        payload=st.binary(max_size=64), at=st.integers(0, 1 << 30), flip=st.integers(1, 255)
    )
    def test_any_single_byte_envelope_corruption_is_detected(self, payload, at, flip) -> None:
        wire = bytearray(build(KIND_REQUEST, 1, [(9, payload)]))
        wire[FRAME_HEADER_SIZE + at % (len(wire) - FRAME_HEADER_SIZE - 4)] ^= flip
        with pytest.raises(WireError):
            decode_frame(reframed(wire))

    def test_a_corrupted_shard_id_never_routes(self) -> None:
        # The flip that would mis-route a message to shard 8 fails the
        # envelope's CRC, even under a recomputed frame CRC.
        wire = bytearray(build(KIND_REQUEST, 1, [(9, b"move u1")]))
        wire[FRAME_HEADER_SIZE + 6] ^= 0x01  # envelope: 4s magic, H version, H shard
        with pytest.raises(WireError, match="CRC"):
            decode_frame(reframed(wire))

    def test_envelope_count_mismatch_fails_the_crc_first(self) -> None:
        # Inflating the count field is caught by the CRC before the
        # payload walk ever trusts it.
        wire = bytearray(build(KIND_REQUEST, 1, [(0, b"x")]))
        struct.pack_into("<H", wire, 6, 2)
        with pytest.raises(WireError, match="CRC"):
            decode_frame(bytes(wire))


class TestFrameDecoder:
    @given(
        raw_frames=st.lists(
            st.tuples(
                kinds_strategy,
                st.integers(0, 2**32 - 1),
                envelopes_strategy,
            ),
            min_size=1,
            max_size=5,
        ),
        chunk_size=st.integers(1, 19),
    )
    def test_chunked_reassembly(self, raw_frames, chunk_size) -> None:
        stream = b"".join(build(*frame) for frame in raw_frames)
        decoder = FrameDecoder()
        collected: list[Frame] = []
        for start in range(0, len(stream), chunk_size):
            collected.extend(decoder.feed(stream[start : start + chunk_size]))
        assert decoder.pending == 0
        assert [(f.kind, f.seq) for f in collected] == [
            (kind, seq) for kind, seq, _ in raw_frames
        ]
        for frame, (_, _, raw) in zip(collected, raw_frames):
            assert [(e.shard, e.payload) for e in frame.envelopes] == raw

    def test_partial_frame_stays_pending(self) -> None:
        wire = build(KIND_REQUEST, 1, [(0, b"hello")])
        decoder = FrameDecoder()
        assert decoder.feed(wire[:-1]) == []
        assert decoder.pending == len(wire) - 1
        frames = decoder.feed(wire[-1:])
        assert len(frames) == 1
        assert decoder.pending == 0

    def test_desynchronized_stream_raises(self) -> None:
        decoder = FrameDecoder()
        with pytest.raises(WireError, match="magic"):
            decoder.feed(b"JUNKJUNKJUNKJUNKJUNK")

    def test_back_to_back_frames_in_one_read(self) -> None:
        first = build(KIND_REQUEST, 1, [(0, b"a")])
        second = build(KIND_RESPONSE, 2, [(1, b"b"), (2, b"c")])
        frames = FrameDecoder().feed(first + second)
        assert [f.seq for f in frames] == [1, 2]
        assert len(frames[1].envelopes) == 2


class TestOperationCodec:
    @given(
        uid=st.one_of(
            st.integers(-(2**63), 2**63 - 1),
            st.text(max_size=32),
        ),
        x=st.floats(0.0, 1.0, allow_nan=False),
        y=st.floats(0.0, 1.0, allow_nan=False),
    )
    def test_move_round_trips_uid_and_doubles_exactly(self, uid, x, y) -> None:
        name, got_uid, point = decode_op(op_move(uid, Point(x, y)))
        assert name == "move"
        assert got_uid == uid and type(got_uid) is type(uid)
        # Bit-exact, not approximately equal: byte-identical equivalence
        # between the in-process and parallel runtimes depends on it.
        assert struct.pack("<d", point.x) == struct.pack("<d", x)
        assert struct.pack("<d", point.y) == struct.pack("<d", y)

    def test_register_and_profile_ops_round_trip(self) -> None:
        profile = PrivacyProfile(k=17, a_min=0.0125)
        op = op_register("bob", Point(0.1, 0.9), profile)
        assert decode_op(op) == ("register", "bob", Point(0.1, 0.9), profile)
        assert decode_op(op_set_profile(4, profile)) == (
            "set_profile", 4, profile,
        )
        assert decode_op(op_deregister(4)) == ("deregister", 4)
        assert decode_op(op_cloak(4)) == ("cloak", 4)
        assert decode_op(op_cloak_location(Point(0.3, 0.4), profile)) == (
            "cloak_location", Point(0.3, 0.4), profile,
        )
        assert decode_op(op_cell_count(CellId(3, 5, 6))) == (
            "cell_count", CellId(3, 5, 6),
        )

    def test_bool_uid_is_rejected(self) -> None:
        with pytest.raises(TypeError, match="int or str"):
            op_cloak(True)

    @given(
        uids=st.one_of(
            st.lists(st.integers(-(2**63), 2**63 - 1), max_size=8),
            st.lists(st.one_of(st.integers(-(2**63), 2**63 - 1), st.text())),
        ),
        data=st.data(),
    )
    def test_moves_round_trip_columns_exactly(self, uids, data) -> None:
        floats = st.lists(
            st.floats(allow_nan=False), min_size=len(uids), max_size=len(uids)
        )
        xs, ys = data.draw(floats), data.draw(floats)
        op = op_moves(uids, xs, ys)
        name, got_uids, got_xs, got_ys = decode_op(op)
        assert name == "moves"
        assert [(u, type(u)) for u in got_uids] == [(u, type(u)) for u in uids]
        assert struct.pack(f"<{2 * len(xs)}d", *got_xs, *got_ys) == struct.pack(
            f"<{2 * len(xs)}d", *xs, *ys
        )
        if all(isinstance(uid, int) for uid in uids):  # one int64 column
            assert len(op) == 6 + 24 * len(uids)
        assert [(u, type(u)) for u in decode_op(op_cloaks(uids))[1]] == [
            (u, type(u)) for u in uids  # the same uid column
        ]
        for damaged in (op[:-1], op + b"\x00", op_cloaks(uids) + b"\x00"):
            with pytest.raises(WireError, match="truncated|past its end"):
                decode_op(damaged)

    def test_moves_refuse_what_the_wire_cannot_carry(self) -> None:
        with pytest.raises(TypeError, match="int or str"):
            op_moves([1, True], [0.5, 0.5], [0.5, 0.5])
        with pytest.raises(struct.error):
            op_moves([2**63], [0.5], [0.5])
        with pytest.raises(ValueError, match="length"):
            op_moves([1, 2], [0.5], [0.5, 0.5])

    def test_unknown_opcode_raises(self) -> None:
        with pytest.raises(WireError, match="opcode"):
            decode_op(b"\xff")
        with pytest.raises(WireError, match="empty"):
            decode_op(b"")


class TestResponseCodec:
    def test_cloak_response_round_trips_exactly(self) -> None:
        region = CloakedRegion(
            Rect(0.1, 0.2, 0.30000000000000004, 0.7),
            achieved_k=25,
            cells=(CellId(4, 1, 2), CellId(4, 1, 3)),
        )
        packed = response_cloaks([region, None, region])
        for damaged in (response_cloak(region) + b"\x00", packed[:-1], packed + b"\x00"):
            with pytest.raises(WireError, match="truncated|past its end"):
                decode_response(damaged)
        name, got = decode_response(response_cloak(region))
        assert name == "cloak"
        assert got == region
        regions = decode_response(packed)[1]  # equal rows share one region
        assert regions == [region, None, region] and regions[0] is regions[2]
        assert struct.pack("<d", got.region.x_max) == struct.pack(
            "<d", region.region.x_max
        )

    def test_cost_count_and_error_round_trip(self) -> None:
        for cost in (0, 12, 63, 64, 2**32 - 1):  # tabled and packed alike
            wire = struct.pack("<BI", 65, cost)
            assert response_cost(cost) == wire and decode_response(wire) == ("cost", cost)
        assert decode_response(response_error("boom")) == ("error", "boom")
        with pytest.raises(WireError, match="opcode"):
            decode_response(b"\x00")
        with pytest.raises(WireError, match="truncated"):
            decode_response(response_cost(12)[:-1])

    def test_header_size_constant_matches_the_struct(self) -> None:
        wire = build(KIND_NACK, 1, [])
        assert len(wire) == FRAME_HEADER_SIZE + 4
