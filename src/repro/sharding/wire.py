"""The shard wire protocol: framed, CRC'd, batched envelopes.

A **frame** is the unit of transmission between the parent runtime and
a shard worker process (or a socket peer): a length-prefixed binary
header, a batch of whole envelopes (:class:`~repro.messages.ShardEnvelope`)
and a trailing CRC-32 over everything, so any single corrupted byte is
detected before an envelope is looked at.

Frame layout, with the envelope layout inside it (little-endian)::

    ========  =====  ==========================================
    offset    size   field
    ========  =====  ==========================================
    0         4      magic ``b"CFRM"``
    4         1      format version (currently 1)
    5         1      frame kind (request / response / nack)
    6         2      envelope count (uint16)
    8         4      sequence number (uint32)
    12        4      payload length n (uint32)
    16        n      ``count`` envelopes, each at offset o:
      o       4        magic ``b"CSHD"``
      o + 4   2        format version (currently 1)
      o + 6   2        target shard id (uint16)
      o + 8   4        payload length m (uint32)
      o + 12  m        payload: one operation or response
      o+12+m  4        CRC-32 of bytes [o, o + 12 + m)
    16 + n    4      CRC-32 of bytes [0, 16 + n)
    ========  =====  ==========================================

The envelope CRC covers its shard id, so a corrupted id is refused even
under a recomputed frame CRC.  :func:`encode_frame` and
:func:`decode_frame` each take one pass over one buffer, and any
failure in a frame, envelope-level included, is a :class:`WireError`.

Batching many envelopes per frame is what amortizes the IPC cost of the
process pool: one pipe round trip carries a whole tick's worth of
mutations plus the cloak that needs their effects.  The sequence number
implements stop-and-wait retransmission over lossy transports — a
worker that sees a repeated sequence replays its cached reply instead
of re-applying the batch, and answers a corrupt frame with a ``NACK``
frame so the sender retransmits instead of timing out.

Envelope payloads carry one shard **operation** each, encoded by the
``op_*`` / ``response_*`` helpers below: a one-byte opcode, fixed-width
little-endian fields, and a tagged user id (int64 or UTF-8) last.  The
parent's packed ops end in a *uid column* instead: one int64 column or,
unless every uid is a plain int inside int64, each tagged.  ``moves``
is a count, an x and a y float64 column, then the uids; ``cloaks`` a
count and the uids, answered by one ``RE_CLOAKS`` reply: the count, a
cloak reply head per uid, then all their cells.  A payload is decoded
whole or not at all: one that ends early or runs past its last field
raises :class:`WireError`, so a truncated uid never names a different
user.
Operations never carry pyramid state; snapshots and cache counters
travel as opaque blobs that are only unpickled after the frame CRC has
verified — bytes that fail the CRC are rejected, never parsed, and
*never* unpickled.
"""

from __future__ import annotations

import struct
import zlib
from collections.abc import Iterable, Sequence
from dataclasses import dataclass

from repro.anonymizer.cells import CellId
from repro.anonymizer.cloak import CloakedRegion
from repro.anonymizer.profile import PrivacyProfile
from repro.geometry import Point, Rect
from repro.messages import ShardEnvelope

__all__ = [
    "FRAME_HEADER_SIZE",
    "FRAME_VERSION",
    "Frame",
    "FrameDecoder",
    "KIND_NACK",
    "KIND_REQUEST",
    "KIND_RESPONSE",
    "OPS",
    "OpSpec",
    "WireError",
    "decode_frame",
    "decode_op",
    "decode_response",
    "encode_frame",
    "op_spec",
]


class WireError(ValueError):
    """A malformed, truncated or corrupted wire artifact."""


# ----------------------------------------------------------------------
# Frames
# ----------------------------------------------------------------------
FRAME_HEADER_SIZE = 16
FRAME_VERSION = 1
_FRAME_MAGIC = b"CFRM"
_FRAME_HEADER = struct.Struct("<4sBBHII")
assert _FRAME_HEADER.size == FRAME_HEADER_SIZE

KIND_REQUEST = 1
KIND_RESPONSE = 2
KIND_NACK = 3
_FRAME_KINDS = frozenset({KIND_REQUEST, KIND_RESPONSE, KIND_NACK})


_ENVELOPE_MAGIC = b"CSHD"
_ENVELOPE_VERSION = 1
_ENVELOPE_HEADER = struct.Struct("<4sHHI")
_ENVELOPE_HEADER_SIZE = _ENVELOPE_HEADER.size
_CRC = struct.Struct("<I")
#: The least room one envelope takes: its header and CRC.
_ENVELOPE_MIN = _ENVELOPE_HEADER_SIZE + _CRC.size


@dataclass(frozen=True, slots=True)
class Frame:
    """One decoded wire frame: a batch of envelopes under one sequence
    number."""

    kind: int
    seq: int
    envelopes: tuple[ShardEnvelope, ...]


def encode_frame(
    kind: int, seq: int, envelopes: Iterable[tuple[int, bytes]]
) -> bytes:
    """Serialize ``(shard, payload)`` pairs — :class:`ShardEnvelope`
    records, or a shard column zipped with a payload column — into one
    framed transmission.  An envelope's CRC is ``crc32(payload,
    crc32(header))``: no header + payload concatenation."""
    if kind not in _FRAME_KINDS:
        raise WireError(f"unknown frame kind {kind}")
    if not 0 <= seq < 2**32:
        raise WireError(f"frame sequence number out of uint32 range: {seq}")
    parts: list[bytes] = []
    add, pack, trailer, crc32 = (
        parts.append, _ENVELOPE_HEADER.pack, _CRC.pack, zlib.crc32,
    )
    try:
        for shard, payload in envelopes:
            header = pack(_ENVELOPE_MAGIC, _ENVELOPE_VERSION, shard, len(payload))
            add(header)
            add(payload)
            add(trailer(crc32(payload, crc32(header))))
    except struct.error:
        raise WireError(f"shard id out of uint16 range: {shard!r}") from None
    count = len(parts) // 3
    if count >= 2**16:
        raise WireError(f"too many envelopes for one frame: {count}")
    body = b"".join(parts)
    head = _FRAME_HEADER.pack(_FRAME_MAGIC, FRAME_VERSION, kind, count, seq, len(body))
    return b"".join((head, body, trailer(crc32(body, crc32(head)))))


def _header(data: bytes | memoryview, offset: int = 0) -> tuple[int, int, int, int]:
    """The checked ``(kind, count, seq, length)`` at ``offset``."""
    magic, version, kind, count, seq, length = _FRAME_HEADER.unpack_from(
        data, offset
    )
    if magic != _FRAME_MAGIC:
        raise WireError("bad frame magic")
    if version != FRAME_VERSION:
        raise WireError(f"unsupported frame version {version}")
    if kind not in _FRAME_KINDS:
        raise WireError(f"unknown frame kind {kind}")
    return kind, count, seq, length


def decode_frame(data: bytes) -> Frame:
    """Deserialize and *verify* one frame.

    Validation order — length, magic, version, kind, length field, CRC,
    then each envelope's room, length field, magic, version and CRC, and
    last the envelope count — guarantees the frame CRC has vouched for
    every byte before any envelope is interpreted, so a corrupted frame
    can never deliver a partially-valid batch.  Raises
    :class:`WireError` (a ``ValueError``) on any mismatch.
    """
    if len(data) < FRAME_HEADER_SIZE + 4:
        raise WireError(f"frame too short: {len(data)} bytes")
    kind, count, seq, length = _header(data)
    end = FRAME_HEADER_SIZE + length
    if len(data) != end + 4:
        raise WireError("frame length field disagrees with the payload size")
    view = memoryview(data)
    crc32, unpack, trailer = zlib.crc32, _ENVELOPE_HEADER.unpack_from, _CRC.unpack_from
    if trailer(data, end)[0] != crc32(view[:end]):
        raise WireError("frame failed its CRC check (corrupt payload)")
    envelopes = []
    offset = FRAME_HEADER_SIZE
    for _ in range(count):
        if offset + _ENVELOPE_MIN > end:
            raise WireError("frame envelope truncated")
        magic, version, shard, size = unpack(data, offset)
        start = offset + _ENVELOPE_HEADER_SIZE
        stop = start + size
        if stop + 4 > end:
            raise WireError("shard envelope length field runs past its frame")
        if magic != _ENVELOPE_MAGIC:
            raise WireError("bad shard-envelope magic")
        if version != _ENVELOPE_VERSION:
            raise WireError(f"unsupported shard-envelope version {version}")
        if trailer(data, stop)[0] != crc32(view[offset:stop]):
            raise WireError("shard envelope failed its CRC check (corrupt payload)")
        envelopes.append(ShardEnvelope(shard, data[start:stop]))
        offset = stop + 4
    if offset != end:
        raise WireError("frame envelope count disagrees with the payload")
    return Frame(kind, seq, tuple(envelopes))


class FrameDecoder:
    """Incremental frame reassembly over a byte stream.

    Feed arbitrarily-chunked reads (pipe fragments, TCP segments) and
    collect whole frames as they complete; partial frames stay buffered
    across calls.  A byte stream that desynchronizes — wrong magic,
    corrupt CRC — raises immediately: stream transports are ordered, so
    recovery is the peer's reconnect, not a resync hunt.
    """

    def __init__(self) -> None:
        self._buffer = bytearray()

    @property
    def pending(self) -> int:
        """Bytes buffered awaiting the rest of their frame."""
        return len(self._buffer)

    def feed(self, data: bytes) -> list[Frame]:
        """Buffer ``data`` and return every frame it completed, each
        read from the buffer in place and copied out once."""
        self._buffer += data
        frames: list[Frame] = []
        offset = 0
        with memoryview(self._buffer) as view:
            while len(view) - offset >= FRAME_HEADER_SIZE:
                end = offset + FRAME_HEADER_SIZE + _header(view, offset)[3] + 4
                if end > len(view):
                    break
                frames.append(decode_frame(bytes(view[offset:end])))
                offset = end
        del self._buffer[:offset]
        return frames


# ----------------------------------------------------------------------
# Operation payloads (parent -> worker)
# ----------------------------------------------------------------------
OP_REGISTER = 1
OP_MOVE = 2
OP_DEREGISTER = 3
OP_SET_PROFILE = 4
OP_CLOAK = 5
OP_CLOAK_LOCATION = 6
OP_CELL_COUNT = 7
OP_STATS = 8
OP_INSTALL = 10
OP_CHECK = 12
OP_PING = 13
OP_HANG = 14
OP_SHUTDOWN = 15
OP_MOVES = 16
OP_CLOAKS = 17
# 9 and 11 are retired and stay unassigned: opcode values are wire surface.


@dataclass(frozen=True, slots=True)
class OpSpec:
    """What the protocol promises about one opcode."""

    #: The name :func:`decode_op` returns for it.
    name: str
    #: The :func:`decode_response` kind a successful reply carries
    #: (``cloak`` ops may also answer ``unsat``; any op may answer
    #: ``error``).
    reply: str
    #: Side-effect-free, so safe to re-issue to a healed worker when an
    #: exchange dies mid-flight (mutations never are: see the parent's
    #: ``ParallelShardedAnonymizer._deliver``).
    reissuable: bool
    #: Data plane (what any peer of the anonymizer may ask) or control
    #: plane (worker supervision: pickled state, invariant sweeps, chaos
    #: and lifecycle — served only to the parent that spawned the worker).
    data_plane: bool


#: The one statement of each opcode's contract.  The parent reads the
#: reply kind and re-issuability from it, the servers read the plane.
OPS: dict[int, OpSpec] = {
    # opcode: (name, reply, reissuable, data_plane)
    OP_REGISTER: OpSpec("register", "ack", False, True),
    OP_MOVE: OpSpec("move", "cost", False, True),
    OP_DEREGISTER: OpSpec("deregister", "ack", False, True),
    OP_SET_PROFILE: OpSpec("set_profile", "ack", False, True),
    OP_CLOAK: OpSpec("cloak", "cloak", True, True),
    OP_CLOAK_LOCATION: OpSpec("cloak_location", "cloak", True, True),
    OP_CELL_COUNT: OpSpec("cell_count", "count", True, True),
    OP_PING: OpSpec("ping", "ack", True, True),
    OP_STATS: OpSpec("stats", "blob", True, False),
    OP_INSTALL: OpSpec("install", "ack", False, False),
    OP_CHECK: OpSpec("check", "ack", True, False),
    OP_HANG: OpSpec("hang", "ack", False, False),
    OP_SHUTDOWN: OpSpec("shutdown", "ack", False, False),
    OP_MOVES: OpSpec("moves", "ack", False, False),
    OP_CLOAKS: OpSpec("cloaks", "cloaks", True, False),
}


def op_spec(payload: bytes) -> OpSpec:
    """The table entry of an encoded operation, read off its opcode
    byte alone — nothing else in the payload is interpreted."""
    if not payload:
        raise WireError("empty operation payload")
    try:
        return OPS[payload[0]]
    except KeyError:
        raise WireError(f"unknown shard opcode {payload[0]}") from None


_UID_INT = 0
_UID_STR = 1


def _encode_uid(uid: object) -> bytes:
    if isinstance(uid, bool) or not isinstance(uid, (int, str)):
        raise TypeError(
            f"the shard wire protocol carries int or str user ids, not "
            f"{type(uid).__name__}"
        )
    if isinstance(uid, int):
        return struct.pack("<Bq", _UID_INT, uid)
    raw = uid.encode("utf-8")
    if len(raw) >= 2**16:
        raise WireError("user id too long for the wire format")
    return struct.pack("<BH", _UID_STR, len(raw)) + raw


def _decode_uid(data: bytes, offset: int) -> tuple[object, int]:
    (tag,) = struct.unpack_from("<B", data, offset)
    if tag == _UID_INT:
        (uid,) = struct.unpack_from("<q", data, offset + 1)
        return uid, offset + 9
    if tag == _UID_STR:
        (length,) = struct.unpack_from("<H", data, offset + 1)
        start, end = offset + 3, offset + 3 + length
        if end > len(data):
            raise WireError("user id truncated")
        return data[start:end].decode("utf-8"), end
    raise WireError(f"unknown user-id tag {tag}")


def op_register(uid: object, point: Point, profile: PrivacyProfile) -> bytes:
    return (
        struct.pack(
            "<BddId", OP_REGISTER, point.x, point.y, profile.k, profile.a_min
        )
        + _encode_uid(uid)
    )


#: A move of an int uid, the form every tick's moves take: 26 bytes.
_MOVE_INT = struct.Struct("<BddBq")


def op_move(uid: object, point: Point) -> bytes:
    if type(uid) is int:
        return _MOVE_INT.pack(OP_MOVE, point.x, point.y, _UID_INT, uid)
    return struct.pack("<Bdd", OP_MOVE, point.x, point.y) + _encode_uid(uid)


def op_deregister(uid: object) -> bytes:
    return struct.pack("<B", OP_DEREGISTER) + _encode_uid(uid)


def op_set_profile(uid: object, profile: PrivacyProfile) -> bytes:
    return (
        struct.pack("<BId", OP_SET_PROFILE, profile.k, profile.a_min)
        + _encode_uid(uid)
    )


def op_cloak(uid: object) -> bytes:
    return struct.pack("<B", OP_CLOAK) + _encode_uid(uid)


def op_cloak_location(point: Point, profile: PrivacyProfile) -> bytes:
    return struct.pack(
        "<BddId", OP_CLOAK_LOCATION, point.x, point.y, profile.k, profile.a_min
    )


def op_cell_count(cell: CellId) -> bytes:
    return struct.pack("<BBII", OP_CELL_COUNT, cell.level, cell.ix, cell.iy)


def op_stats() -> bytes:
    return struct.pack("<B", OP_STATS)


def op_install(blob: bytes) -> bytes:
    return struct.pack("<B", OP_INSTALL) + blob


def op_check() -> bytes:
    return struct.pack("<B", OP_CHECK)


def op_ping() -> bytes:
    return struct.pack("<B", OP_PING)


def op_hang(seconds: float) -> bytes:
    return struct.pack("<Bd", OP_HANG, seconds)


def op_shutdown() -> bytes:
    return struct.pack("<B", OP_SHUTDOWN)


#: A packed op's header: opcode, row count, uid column form.
_PACKED_HEAD = struct.Struct("<BIB")
_UIDS_INT64 = 0
_UIDS_TAGGED = 1


def _packed(opcode: int, uids: Sequence[object], columns: bytes = b"") -> bytes:
    """A packed op: its header, ``columns``, then the uid column."""
    n = len(uids)
    if all(type(uid) is int for uid in uids):
        try:
            column = struct.pack(f"<{n}q", *uids)
        except struct.error:  # outside int64: tagged, which refuses it
            pass
        else:
            return _PACKED_HEAD.pack(opcode, n, _UIDS_INT64) + columns + column
    tagged = b"".join(map(_encode_uid, uids))
    return _PACKED_HEAD.pack(opcode, n, _UIDS_TAGGED) + columns + tagged


def op_moves(
    uids: Sequence[object], xs: Sequence[float], ys: Sequence[float]
) -> bytes:
    """A run of moves as columns: ``uids[i]`` moves to ``(xs[i], ys[i])``,
    in order."""
    n = len(uids)
    if len(xs) != n or len(ys) != n:
        raise ValueError("moves columns differ in length")
    return _packed(OP_MOVES, uids, struct.pack(f"<{2 * n}d", *xs, *ys))


def op_cloaks(uids: Sequence[object]) -> bytes:
    """Cloak requests for ``uids``, answered in order by one
    ``RE_CLOAKS`` reply."""
    return _packed(OP_CLOAKS, uids)


def _decode_packed(data: bytes) -> tuple[tuple, int]:
    opcode, n, form = _PACKED_HEAD.unpack_from(data)
    if n > len(data):  # every row takes bytes: no count is unpacked past them
        raise WireError(f"operation {opcode} truncated")
    end, columns = _PACKED_HEAD.size, ()
    if opcode == OP_MOVES:
        xys = struct.unpack_from(f"<{2 * n}d", data, end)
        end, columns = end + 16 * n, (xys[:n], xys[n:])
    if form == _UIDS_INT64:
        uids: Sequence[object] = struct.unpack_from(f"<{n}q", data, end)
        end += 8 * n
    elif form == _UIDS_TAGGED:
        uids = []
        for _ in range(n):
            uid, end = _decode_uid(data, end)
            uids.append(uid)
    else:
        raise WireError(f"unknown uid column form {form}")
    return (OPS[opcode].name, uids, *columns), end


def decode_op(data: bytes) -> tuple:
    """Decode one operation payload into ``(name, *args)``.

    A payload that ends early or runs past its last field raises
    :class:`WireError`.
    """
    if not data:
        raise WireError("empty operation payload")
    opcode, end = data[0], 1
    try:
        if opcode == OP_MOVE:
            if len(data) == _MOVE_INT.size and data[17] == _UID_INT:
                _, x, y, _, uid = _MOVE_INT.unpack(data)
                return ("move", uid, Point(x, y))
            x, y = struct.unpack_from("<dd", data, 1)
            uid, end = _decode_uid(data, 17)
            op: tuple = ("move", uid, Point(x, y))
        elif opcode == OP_CLOAK:
            uid, end = _decode_uid(data, 1)
            op = ("cloak", uid)
        elif opcode in (OP_MOVES, OP_CLOAKS):
            op, end = _decode_packed(data)
        elif opcode == OP_REGISTER:
            x, y, k, a_min = struct.unpack_from("<ddId", data, 1)
            uid, end = _decode_uid(data, 29)
            op = ("register", uid, Point(x, y), PrivacyProfile(k, a_min))
        elif opcode == OP_DEREGISTER:
            uid, end = _decode_uid(data, 1)
            op = ("deregister", uid)
        elif opcode == OP_SET_PROFILE:
            k, a_min = struct.unpack_from("<Id", data, 1)
            uid, end = _decode_uid(data, 13)
            op = ("set_profile", uid, PrivacyProfile(k, a_min))
        elif opcode == OP_CLOAK_LOCATION:
            x, y, k, a_min = struct.unpack_from("<ddId", data, 1)
            op, end = ("cloak_location", Point(x, y), PrivacyProfile(k, a_min)), 29
        elif opcode == OP_CELL_COUNT:
            level, ix, iy = struct.unpack_from("<BII", data, 1)
            op, end = ("cell_count", CellId(level, ix, iy)), 10
        elif opcode == OP_INSTALL:
            op, end = ("install", data[1:]), len(data)
        elif opcode == OP_HANG:
            (seconds,) = struct.unpack_from("<d", data, 1)
            op, end = ("hang", seconds), 9
        elif opcode in (OP_STATS, OP_CHECK, OP_PING, OP_SHUTDOWN):
            op = (OPS[opcode].name,)
        else:
            raise WireError(f"unknown shard opcode {opcode}")
    except struct.error:
        raise WireError(f"operation {opcode} truncated") from None
    if end != len(data):
        raise WireError(f"operation {opcode} has bytes past its end")
    return op


# ----------------------------------------------------------------------
# Response payloads (worker -> parent)
# ----------------------------------------------------------------------
RE_ACK = 64
RE_COST = 65
RE_CLOAK_OK = 66
RE_CLOAK_UNSAT = 67
RE_COUNT = 68
RE_BLOB = 69
RE_ERROR = 70
RE_CLOAKS = 71


_ACK = bytes([RE_ACK])
_UNSAT = bytes([RE_CLOAK_UNSAT])
_COST = struct.Struct("<BI")
#: A cloak reply's head — its code, the rect, ``achieved_k``, the cell
#: count — and one of its cells; ``RE_CLOAKS`` holds a head per row.
_CLOAK_HEAD = struct.Struct("<BddddIH")
_CELL = struct.Struct("<BII")
_UNSAT_ROW = _CLOAK_HEAD.pack(RE_CLOAK_UNSAT, 0.0, 0.0, 0.0, 0.0, 0, 0)
#: Cost replies below 64, encoded once (a move's cost counts its counter
#: updates, a few per pyramid level); a larger cost is packed per reply.
_COSTS = tuple(_COST.pack(RE_COST, cost) for cost in range(64))
#: What :func:`decode_response` answers each constant payload with.
_CONSTANTS = {_ACK: ("ack",), _UNSAT: ("unsat",)} | {
    payload: ("cost", cost) for cost, payload in enumerate(_COSTS)
}


def response_ack() -> bytes:
    return _ACK


def response_cost(cost: int) -> bytes:
    return _COSTS[cost] if 0 <= cost < len(_COSTS) else _COST.pack(RE_COST, cost)


def _cloak_parts(region: CloakedRegion) -> tuple[bytes, bytes]:
    """A cloak reply's head and its cells."""
    rect, cells = region.region, region.cells
    head = _CLOAK_HEAD.pack(RE_CLOAK_OK, *rect.as_tuple(), region.achieved_k, len(cells))
    return head, b"".join(_CELL.pack(c.level, c.ix, c.iy) for c in cells)


def _region(head: tuple, cells: bytes) -> CloakedRegion:
    """A region from its reply head and cells, each through ``CellId``'s
    validating constructor."""
    _code, x_min, y_min, x_max, y_max, achieved_k, _count = head
    cell_ids = tuple(CellId(*cell) for cell in _CELL.iter_unpack(cells))
    return CloakedRegion(Rect(x_min, y_min, x_max, y_max), achieved_k, cell_ids)


def response_cloak(region: CloakedRegion) -> bytes:
    return b"".join(_cloak_parts(region))


def response_cloaks(regions: Sequence[CloakedRegion | None]) -> bytes:
    """The reply to a ``cloaks`` op, ``None`` standing for an
    unsatisfiable profile."""
    parts = [(_UNSAT_ROW, b"") if r is None else _cloak_parts(r) for r in regions]
    columns = [head for head, _ in parts] + [cells for _, cells in parts]
    return struct.pack("<BI", RE_CLOAKS, len(parts)) + b"".join(columns)


def _decode_cloaks(data: bytes) -> tuple[list[CloakedRegion | None], int]:
    """The regions of a ``RE_CLOAKS`` reply, one object per distinct row
    (head and cells, byte for byte): users with equal cloaks share it."""
    (n,) = struct.unpack_from("<I", data, 1)
    size = _CLOAK_HEAD.size
    end = stop = 5 + size * n
    regions: list[CloakedRegion | None] = []
    distinct: dict[tuple[bytes, bytes], CloakedRegion] = {}
    for at, head in zip(range(5, stop, size), _CLOAK_HEAD.iter_unpack(data[5:stop])):
        start, end = end, end + _CELL.size * head[-1]
        if head[0] not in (RE_CLOAK_OK, RE_CLOAK_UNSAT):
            raise WireError(f"unknown cloak row code {head[0]}")
        key = (data[at : at + size], data[start:end])
        if head[0] == RE_CLOAK_OK and key not in distinct:
            distinct[key] = _region(head, key[1])
        regions.append(distinct.get(key))  # None for an unsatisfiable row
    return regions, end


def response_cloak_unsatisfiable() -> bytes:
    return _UNSAT


def response_count(count: int) -> bytes:
    return struct.pack("<BI", RE_COUNT, count)


def response_blob(blob: bytes) -> bytes:
    return struct.pack("<B", RE_BLOB) + blob


def response_error(message: str) -> bytes:
    return struct.pack("<B", RE_ERROR) + message.encode("utf-8")


def decode_response(data: bytes) -> tuple:
    """Decode one response payload into ``(name, *args)``.

    A payload that ends early or runs past its last field raises
    :class:`WireError`.  Cloaks are reconstructed into real
    :class:`CloakedRegion` objects — the doubles round-trip exactly,
    which is what lets the parallel runtime promise *byte*-identical
    cloaks, not approximately-equal ones.  Blob payloads are returned
    as raw bytes; the caller decides whether to unpickle (and only ever
    does so after the enclosing frame's CRC verified).
    """
    constant = _CONSTANTS.get(data)
    if constant is not None:
        return constant
    if not data:
        raise WireError("empty response payload")
    opcode, end = data[0], 1
    try:
        if opcode == RE_ACK:
            reply: tuple = ("ack",)
        elif opcode == RE_COST:
            (cost,) = struct.unpack_from("<I", data, 1)
            reply, end = ("cost", cost), 5
        elif opcode == RE_CLOAK_OK:
            head = _CLOAK_HEAD.unpack_from(data)
            end = _CLOAK_HEAD.size + _CELL.size * head[-1]
            reply = ("cloak", _region(head, data[_CLOAK_HEAD.size : end]))
        elif opcode == RE_CLOAKS:
            regions, end = _decode_cloaks(data)
            reply = ("cloaks", regions)
        elif opcode == RE_CLOAK_UNSAT:
            reply = ("unsat",)
        elif opcode == RE_COUNT:
            (count,) = struct.unpack_from("<I", data, 1)
            reply, end = ("count", count), 5
        elif opcode == RE_BLOB:
            reply, end = ("blob", data[1:]), len(data)
        elif opcode == RE_ERROR:
            reply, end = ("error", data[1:].decode("utf-8")), len(data)
        else:
            raise WireError(f"unknown shard response opcode {opcode}")
    except struct.error:
        raise WireError(f"response {opcode} truncated") from None
    if end > len(data):
        raise WireError(f"response {opcode} truncated")
    if end != len(data):
        raise WireError(f"response {opcode} has bytes past its end")
    return reply
