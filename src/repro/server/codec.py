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
truncated, and so are ids ending in NUL, which the padding would drop —
ids are identity, not payload.  An id's bytes and the reason it cannot
be shipped, if any, are decided once, when an index stores it
(:func:`repro.spatial.index.wire_columns`); a list carries them
(:meth:`CandidateColumns.wire_forms`), and encoding writes the wire
column whole or refuses (:func:`repro.spatial.index.refuse`).

The layout is also the in-memory one: a list's records are one numpy
structured array (:data:`_RECORD`) over the payload buffer, so encoding
writes the list's columns straight into it, and decoding is one
``np.frombuffer`` plus whole-column validity checks.  Every check runs
before a decoded list is returned — a payload that is going to be
refused is refused here, where the resilience layer's retry loop
catches it.
"""

from __future__ import annotations

import struct
import zlib
from collections.abc import Iterator, Sequence

import numpy as np

from repro.geometry import Rect
from repro.processor.candidate import CandidateColumns, CandidateList
from repro.spatial.index import WIRE_ID_BYTES, refuse

__all__ = [
    "RECORD_SIZE",
    "encode_record",
    "decode_record",
    "encode_candidate_list",
    "decode_candidate_list",
]

RECORD_SIZE = 64
_MAGIC = int.from_bytes(b"CSPR", "little")
_VERSION = 1
_RECORD = np.dtype(
    [
        ("magic", "<u4"),
        ("version", "<u2"),
        ("flags", "<u2"),
        ("region", "<f8", (4,)),
        ("oid", f"S{WIRE_ID_BYTES}"),
    ]
)
assert _RECORD.itemsize == RECORD_SIZE
#: Magic and version in place, everything else zero.
_BLANK_RECORD = np.array([(_MAGIC, _VERSION, 0, (0.0,) * 4, b"")], dtype=_RECORD).tobytes()

# magic, version, num_filters, count, CRC-32 of the payload (uint32 in a
# q slot: the field was reserved-zero before integrity checking landed
# and kept its width).
_HEADER = struct.Struct("<4sHHIq")
_LIST_MAGIC = b"CLST"
_CRC_SLOT = slice(12, 20)


def _least_extent(coords: np.ndarray) -> np.ndarray:
    """``min(width, height)`` per region, NaN only where both are
    (``inf - inf``): negative exactly where ``Rect`` would refuse the
    coordinates, ``<= 0`` exactly where ``Rect.is_degenerate`` holds —
    which, as 0 / 1, is the flags field (bit 0 is its only bit)."""
    with np.errstate(invalid="ignore"):  # inf - inf
        return np.fmin(coords[:, 2] - coords[:, 0], coords[:, 3] - coords[:, 1])


class _WireIds(Sequence):
    """The id column of a decoded list: the payload's ``S24`` field,
    validated when the list was decoded, turned into ``str`` per access —
    a refinement reads a handful of ids out of hundreds."""

    __slots__ = ("_field",)

    def __init__(self, field: np.ndarray) -> None:
        self._field = field

    def __len__(self) -> int:
        return len(self._field)

    def __getitem__(self, i: int | slice) -> str | tuple[str, ...]:  # type: ignore[override]
        if isinstance(i, slice):
            return tuple(map(bytes.decode, self._field[i].tolist()))
        return self._field[i].decode("utf-8")

    def __iter__(self) -> Iterator[str]:
        return map(bytes.decode, self._field.tolist())


def _fill_records(records: np.ndarray, columns: CandidateColumns) -> None:
    """Write the columns into records that start as ``_BLANK_RECORD``,
    or refuse the first id with the list's worst mark."""
    wire, marks = columns.wire_forms()
    refuse(columns.ids, marks)
    records["flags"] = _least_extent(columns.coords) <= 0.0
    records["region"] = columns.coords
    records["oid"] = wire


def _decode_records(body: memoryview) -> CandidateColumns:
    """Parse and fully validate a run of 64-byte records."""
    records = np.frombuffer(body, dtype=_RECORD)
    if (records["magic"] != _MAGIC).any():
        raise ValueError("bad record magic")
    unsupported = records["version"][records["version"] != _VERSION]
    if unsupported.size:
        raise ValueError(f"unsupported record version {unsupported[0]}")
    # Aligned copies of the two columns (records sit at offset 20 + 64 i,
    # so the in-place region view is unaligned for float64); the payload
    # itself is not retained.
    coords = np.ascontiguousarray(records["region"])
    coords.flags.writeable = False
    extent = _least_extent(coords)
    if (extent < 0.0).any():
        raise ValueError("invalid rect in a candidate record")
    if (records["flags"] != (extent <= 0.0)).any():
        raise ValueError("record flags contradict the record's region")
    oids = np.ascontiguousarray(records["oid"])
    if not oids.tobytes().isascii():
        for oid in oids.tolist():
            oid.decode("utf-8")  # strict, each id alone; UnicodeDecodeError is a ValueError
    # A decoded id is the field less its padding: never long, never
    # NUL-ended, valid UTF-8 — the field is its wire form, unmarked.
    return CandidateColumns(
        _WireIds(oids), coords, (oids, np.zeros(len(oids), dtype=np.uint8))
    )


def encode_record(oid: object, region: Rect) -> bytes:
    """Serialize one candidate entry to exactly 64 bytes."""
    payload = bytearray(_BLANK_RECORD)
    _fill_records(
        np.frombuffer(payload, dtype=_RECORD),
        CandidateColumns.from_rects((oid,), (region,)),
    )
    return bytes(payload)


def decode_record(payload: bytes) -> tuple[str, Rect]:
    """Deserialize one 64-byte record to ``(oid, region)``."""
    if len(payload) != RECORD_SIZE:
        raise ValueError(f"record must be {RECORD_SIZE} bytes, got {len(payload)}")
    return _decode_records(memoryview(payload))[0]


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
    count = len(candidates)
    payload = bytearray(_HEADER.size) + _BLANK_RECORD * count
    try:
        _HEADER.pack_into(
            payload, 0, _LIST_MAGIC, _VERSION, candidates.num_filters, count, 0
        )
    except struct.error:
        raise ValueError(
            f"num_filters {candidates.num_filters!r} / {count} records do not "
            "fit the list header (uint16 / uint32)"
        ) from None
    _fill_records(
        np.frombuffer(payload, dtype=_RECORD, offset=_HEADER.size), candidates.items
    )
    # The slot still reads zero, which is how the CRC is defined.
    struct.pack_into("<q", payload, _CRC_SLOT.start, zlib.crc32(payload))
    return bytes(payload)


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
    view = memoryview(payload)
    blanked = zlib.crc32(bytes(8), zlib.crc32(view[: _CRC_SLOT.start]))
    if crc != zlib.crc32(view[_CRC_SLOT.stop :], blanked):
        raise ValueError("candidate list failed its CRC check (corrupt payload)")
    columns = _decode_records(view[_HEADER.size :])
    if count:
        x_min, y_min, x_max, y_max = columns.coords.T
        region = Rect(
            float(x_min.min()), float(y_min.min()), float(x_max.max()), float(y_max.max())
        )
    else:
        region = Rect(0.0, 0.0, 0.0, 0.0)
    return CandidateList(items=columns, search_region=region, num_filters=num_filters)
