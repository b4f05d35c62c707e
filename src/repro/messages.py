"""Message records shared across the untrusted and trusted planes.

This module is the single home for the cross-plane records: query
results and the **shard-routing envelope** — each defined exactly once,
so the server's routing seam and the wire protocol agree on its shape.

``PrivateQueryResult`` carries the Figure 17 decomposition: time spent
at the location anonymizer, at the privacy-aware query processor, and in
candidate-list transmission, together with the candidate list itself and
the exact answer the client computed locally.

A :class:`ShardEnvelope` binds one payload to a target shard; its bytes
inside a frame are stated once, in :mod:`repro.sharding.wire`.  A
location update is one such envelope: a ``register`` op carrying the
user's exact location and self-describing profile, which per the system
model may travel only between the mobile device and the location
anonymizer.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

from repro.anonymizer import CloakedRegion
from repro.processor import CandidateList

__all__ = ["PrivateQueryResult", "ShardEnvelope"]


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
# Shard-routing envelopes (trusted plane — router → shard)
# ----------------------------------------------------------------------
class ShardEnvelope(NamedTuple):
    """One routed message: an opaque payload bound to a target shard —
    a plain pair, so a frame can be written from zipped columns."""

    shard: int
    payload: bytes
