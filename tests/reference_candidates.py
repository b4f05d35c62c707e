"""The scalar candidate list — test oracle, not production code.

What ``CandidateList`` and ``server.codec`` did one ``(oid, Rect)`` pair
at a time before the lists went columnar: the per-item sort keys and
list-comprehension refinements, and the ``struct``-per-record codec.
These are the executable definitions of "the same answers in the same
order" and "the same bytes"; ``test_candidate_columns.py`` holds the
column kernels to them, and ``tools/bench.py`` times the kernels against
them.  Everything here takes and returns plain tuples of pairs.
"""

from __future__ import annotations

import struct
import zlib

from repro.geometry import Point, Rect

Items = tuple[tuple[object, Rect], ...]

#: ``by`` -> sort key over ``(oid, rect)`` items, given the client's
#: exact location: optimistic, pessimistic, or center distance.
RANKINGS = {
    "min": lambda at: lambda item: item[1].min_distance_to_point(at),
    "max": lambda at: lambda item: item[1].max_distance_to_point(at),
    "center": lambda at: lambda item: item[1].center.distance_to(at),
}


def refine_nearest(items: Items, location: Point, by: str = "min") -> object:
    return min(items, key=RANKINGS[by](location))[0]


def refine_k_nearest(
    items: Items, location: Point, k: int, by: str = "min"
) -> list[object]:
    ranked = sorted(items, key=RANKINGS[by](location))
    return [oid for oid, _rect in ranked[:k]]


def refine_within(items: Items, location: Point, radius: float) -> list[object]:
    return [
        oid for oid, rect in items if rect.min_distance_to_point(location) <= radius
    ]


# ----------------------------------------------------------------------
# The 64-byte record, one struct at a time
# ----------------------------------------------------------------------
RECORD_SIZE = 64
MAGIC = b"CSPR"
VERSION = 1
FLAG_POINT = 0x0001
RECORD = struct.Struct("<4sHH4d24s")
HEADER = struct.Struct("<4sHHIq")
LIST_MAGIC = b"CLST"


def encode_record(oid: object, region: Rect) -> bytes:
    oid_bytes = str(oid).encode("utf-8")
    if len(oid_bytes) > 24:
        raise ValueError(f"object id too long for the wire format: {oid!r}")
    if oid_bytes.endswith(b"\x00"):
        raise ValueError(f"object id ends in NUL, which the wire format drops: {oid!r}")
    flags = FLAG_POINT if region.is_degenerate() else 0
    return RECORD.pack(
        MAGIC, VERSION, flags,
        region.x_min, region.y_min, region.x_max, region.y_max,
        oid_bytes,
    )


def decode_record(payload: bytes) -> tuple[str, Rect]:
    if len(payload) != RECORD_SIZE:
        raise ValueError(f"record must be {RECORD_SIZE} bytes, got {len(payload)}")
    magic, version, _flags, x_min, y_min, x_max, y_max, oid_bytes = RECORD.unpack(
        payload
    )
    if magic != MAGIC:
        raise ValueError("bad record magic")
    if version != VERSION:
        raise ValueError(f"unsupported record version {version}")
    return oid_bytes.rstrip(b"\x00").decode("utf-8"), Rect(x_min, y_min, x_max, y_max)


def seal(header_fields: tuple, body: bytes) -> bytes:
    """Header + body with the CRC of the whole payload (slot read as
    zero) in the header — also how the tests re-seal a payload they
    damaged on purpose, so a record check fires and not the CRC."""
    crc = zlib.crc32(HEADER.pack(*header_fields, 0) + body)
    return HEADER.pack(*header_fields, crc) + body


def encode_candidate_list(items: Items, num_filters: int) -> bytes:
    body = b"".join(encode_record(oid, rect) for oid, rect in items)
    return seal((LIST_MAGIC, VERSION, num_filters, len(items)), body)


def decode_candidate_list(payload: bytes) -> tuple[Items, Rect, int]:
    """``(items, search-region stand-in, num_filters)`` of a payload."""
    if len(payload) < HEADER.size:
        raise ValueError("payload shorter than the list header")
    magic, version, num_filters, count, crc = HEADER.unpack_from(payload)
    if magic != LIST_MAGIC:
        raise ValueError("bad candidate-list magic")
    if version != VERSION:
        raise ValueError(f"unsupported list version {version}")
    if len(payload) != HEADER.size + count * RECORD_SIZE:
        raise ValueError(
            f"payload length {len(payload)} does not match {count} records"
        )
    if crc != zlib.crc32(payload[:12] + b"\x00" * 8 + payload[20:]):
        raise ValueError("candidate list failed its CRC check (corrupt payload)")
    items = tuple(
        decode_record(payload[start : start + RECORD_SIZE])
        for start in range(HEADER.size, len(payload), RECORD_SIZE)
    )
    if items:
        region = items[0][1]
        for _oid, rect in items[1:]:
            region = region.union(rect)
    else:
        region = Rect(0.0, 0.0, 0.0, 0.0)
    return items, region, num_filters
