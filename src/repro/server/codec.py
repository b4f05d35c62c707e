"""Binary wire codec for candidate-list records.

Figure 17's transmission model assumes "a data record is of size 64
bytes".  This module makes that record concrete: a fixed 64-byte binary
layout for one candidate entry, so the analytic model and an actual
serialized payload agree byte-for-byte.

Record layout (little-endian, 64 bytes):

========  =====  ==========================================
offset    size   field
========  =====  ==========================================
0         4      magic ``b"CSPR"``
4         2      format version (currently 1)
6         2      flags (bit 0: region is a degenerate point)
8         32     region: x_min, y_min, x_max, y_max as f64
40        24     object id, UTF-8, NUL-padded
========  =====  ==========================================

Object ids longer than 24 UTF-8 bytes are rejected rather than silently
truncated — ids are identity, not payload.
"""

from __future__ import annotations

import struct
import zlib

from repro.geometry import Rect
from repro.processor.candidate import CandidateList

__all__ = [
    "RECORD_SIZE",
    "encode_record",
    "decode_record",
    "encode_candidate_list",
    "decode_candidate_list",
]

RECORD_SIZE = 64
_MAGIC = b"CSPR"
_VERSION = 1
_FLAG_POINT = 0x0001
_STRUCT = struct.Struct("<4sHH4d24s")
assert _STRUCT.size == RECORD_SIZE

# magic, version, num_filters, count, CRC-32 of the payload (uint32 in a
# q slot: the field was reserved-zero before integrity checking landed
# and kept its width).
_HEADER = struct.Struct("<4sHHIq")
_LIST_MAGIC = b"CLST"


def encode_record(oid: object, region: Rect) -> bytes:
    """Serialize one candidate entry to exactly 64 bytes."""
    oid_bytes = str(oid).encode("utf-8")
    if len(oid_bytes) > 24:
        raise ValueError(f"object id too long for the wire format: {oid!r}")
    flags = _FLAG_POINT if region.is_degenerate() else 0
    return _STRUCT.pack(
        _MAGIC,
        _VERSION,
        flags,
        region.x_min,
        region.y_min,
        region.x_max,
        region.y_max,
        oid_bytes,
    )


def decode_record(payload: bytes) -> tuple[str, Rect]:
    """Deserialize one 64-byte record to ``(oid, region)``."""
    if len(payload) != RECORD_SIZE:
        raise ValueError(f"record must be {RECORD_SIZE} bytes, got {len(payload)}")
    magic, version, _flags, x_min, y_min, x_max, y_max, oid_bytes = _STRUCT.unpack(
        payload
    )
    if magic != _MAGIC:
        raise ValueError("bad record magic")
    if version != _VERSION:
        raise ValueError(f"unsupported record version {version}")
    oid = oid_bytes.rstrip(b"\x00").decode("utf-8")
    return oid, Rect(x_min, y_min, x_max, y_max)


def encode_candidate_list(candidates: CandidateList) -> bytes:
    """Serialize a whole candidate list: a 20-byte header (magic,
    version, filter count, record count, body CRC-32) followed by one
    64-byte record per candidate.  The payload length is exactly the
    quantity the Figure 17 transmission model charges for, plus the
    fixed header.

    The CRC covers the entire payload (with the CRC slot itself read as
    zero), so any single corrupted byte on the wire — header or record —
    makes the whole list undecodable; the resilience layer's retry loop
    re-requests it instead of refining wrong candidates.
    """
    body = b"".join(encode_record(oid, rect) for oid, rect in candidates.items)
    blank_header = _HEADER.pack(
        _LIST_MAGIC, _VERSION, candidates.num_filters, len(candidates), 0
    )
    crc = zlib.crc32(blank_header + body)
    header = _HEADER.pack(
        _LIST_MAGIC, _VERSION, candidates.num_filters, len(candidates), crc
    )
    return header + body


def decode_candidate_list(payload: bytes) -> CandidateList:
    """Deserialize a candidate-list payload.

    The search region is not shipped (the client has no use for it), so
    the decoded list carries the union of candidate regions as its
    ``search_region`` stand-in.
    """
    if len(payload) < _HEADER.size:
        raise ValueError("payload shorter than the list header")
    magic, version, num_filters, count, crc = _HEADER.unpack_from(payload)
    if magic != _LIST_MAGIC:
        raise ValueError("bad candidate-list magic")
    if version != _VERSION:
        raise ValueError(f"unsupported list version {version}")
    expected = _HEADER.size + count * RECORD_SIZE
    if len(payload) != expected:
        raise ValueError(
            f"payload length {len(payload)} does not match {count} records"
        )
    blanked = payload[:12] + b"\x00" * 8 + payload[20:]
    if crc != zlib.crc32(blanked):
        raise ValueError("candidate list failed its CRC check (corrupt payload)")
    items = []
    for i in range(count):
        start = _HEADER.size + i * RECORD_SIZE
        items.append(decode_record(payload[start : start + RECORD_SIZE]))
    if items:
        region = items[0][1]
        for _oid, rect in items[1:]:
            region = region.union(rect)
    else:
        region = Rect(0.0, 0.0, 0.0, 0.0)
    return CandidateList(
        items=tuple(items), search_region=region, num_filters=num_filters
    )
