"""Message records shared across the untrusted and trusted planes.

This module is the single home for every cross-plane message
record: query results, the location-update wire format, and the
**shard-routing envelope** — defined exactly once, so the server's
routing seam and the resilience runtime agree on its shape.

``PrivateQueryResult`` carries the Figure 17 decomposition: time spent
at the location anonymizer, at the privacy-aware query processor, and in
candidate-list transmission, together with the candidate list itself and
the exact answer the client computed locally.

``LocationUpdate`` and its codec mirror the 64-byte discipline of
``repro.server.codec`` (one logical record = 64 bytes, so the Figure 17
transmission model prices update traffic the same way it prices
candidate records), but live on the *trusted* side: an update carries
the user's exact location, which per the system model may travel only
between the mobile device and the location anonymizer.

Update record layout (little-endian, 64 bytes)::

    ========  =====  ==========================================
    offset    size   field
    ========  =====  ==========================================
    0         4      magic ``b"CUPD"``
    4         2      format version (currently 1)
    6         2      flags (reserved, 0)
    8         4      sequence number (uint32, per-user, monotone)
    12        20     user id, UTF-8, NUL-padded
    32        16     x, y as f64
    48        4      profile k (uint32)
    52        8      profile A_min as f64
    60        4      CRC-32 of bytes [0, 60)
    ========  =====  ==========================================

The trailing CRC makes *any* single-byte corruption detectable, so a
flipped coordinate can never be silently applied — the receiver rejects
the record and the client's retry loop re-sends it.  The update is
self-describing (it carries the privacy profile), which is what lets an
anonymizer that lost a user's state re-register them from the next
update alone — the crash-recovery heal path.

A :class:`ShardEnvelope` binds one payload to a target shard; its bytes
inside a frame are stated once, in :mod:`repro.sharding.wire`.
"""

from __future__ import annotations

import struct
import zlib
from dataclasses import dataclass
from typing import NamedTuple

from repro.anonymizer import CloakedRegion, PrivacyProfile
from repro.geometry import Point
from repro.processor import CandidateList

__all__ = [
    "LocationUpdate",
    "PrivateQueryResult",
    "ShardEnvelope",
    "UPDATE_RECORD_SIZE",
    "decode_update",
    "encode_update",
]


# ----------------------------------------------------------------------
# Query results (untrusted plane — contains only privacy-safe fields)
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class PrivateQueryResult:
    """One private query's full round trip."""

    cloak: CloakedRegion
    candidates: CandidateList
    answer: object
    anonymizer_seconds: float
    processing_seconds: float
    transmission_seconds: float

    @property
    def total_seconds(self) -> float:
        """End-to-end time (the Figure 17 stack height)."""
        return (
            self.anonymizer_seconds
            + self.processing_seconds
            + self.transmission_seconds
        )

    @property
    def candidate_count(self) -> int:
        return len(self.candidates)


# ----------------------------------------------------------------------
# Location updates (trusted plane — client → anonymizer only)
# ----------------------------------------------------------------------
UPDATE_RECORD_SIZE = 64
_MAGIC = b"CUPD"
_VERSION = 1
_STRUCT = struct.Struct("<4sHHI20sddIdI")
assert _STRUCT.size == UPDATE_RECORD_SIZE
_CRC_OFFSET = UPDATE_RECORD_SIZE - 4


@dataclass(frozen=True, slots=True)
class LocationUpdate:
    """One location report from a mobile client."""

    uid: str
    seq: int
    point: Point
    profile: PrivacyProfile


def encode_update(update: LocationUpdate) -> bytes:
    """Serialize one location update to exactly 64 bytes."""
    uid_bytes = update.uid.encode("utf-8")
    if len(uid_bytes) > 20:
        raise ValueError(
            f"user id too long for the update wire format: {update.uid!r}"
        )
    if not 0 <= update.seq < 2**32:
        raise ValueError(f"sequence number out of uint32 range: {update.seq}")
    body = _STRUCT.pack(
        _MAGIC,
        _VERSION,
        0,
        update.seq,
        uid_bytes,
        update.point.x,
        update.point.y,
        update.profile.k,
        update.profile.a_min,
        0,
    )
    crc = zlib.crc32(body[:_CRC_OFFSET])
    return body[:_CRC_OFFSET] + struct.pack("<I", crc)


def decode_update(payload: bytes) -> LocationUpdate:
    """Deserialize and *verify* one update record.

    Raises ``ValueError`` on any length, magic, version or CRC mismatch
    — a corrupted update is rejected, never partially applied.
    """
    if len(payload) != UPDATE_RECORD_SIZE:
        raise ValueError(
            f"update record must be {UPDATE_RECORD_SIZE} bytes, got {len(payload)}"
        )
    magic, version, _flags, seq, uid_bytes, x, y, k, a_min, crc = _STRUCT.unpack(
        payload
    )
    if magic != _MAGIC:
        raise ValueError("bad update-record magic")
    if version != _VERSION:
        raise ValueError(f"unsupported update-record version {version}")
    if crc != zlib.crc32(payload[:_CRC_OFFSET]):
        raise ValueError("update record failed its CRC check (corrupt payload)")
    uid = uid_bytes.rstrip(b"\x00").decode("utf-8")
    return LocationUpdate(uid, seq, Point(x, y), PrivacyProfile(k, a_min))


# ----------------------------------------------------------------------
# Shard-routing envelopes (trusted plane — router → shard)
# ----------------------------------------------------------------------
class ShardEnvelope(NamedTuple):
    """One routed message: an opaque payload bound to a target shard —
    a plain pair, so a frame can be written from zipped columns."""

    shard: int
    payload: bytes
