"""Sharded anonymizer runtime (deterministic spatial partitioning).

One sharded deployment for every registered policy: a
:class:`ReplicatedShardedAnonymizer` wraps one whole single-instance
policy and adds what sharding *means* — a
:class:`~repro.sharding.router.ShardRouter` that homes each user on
the shard owning the level-``S`` block over their lowest-level cell,
per-shard occupancy and per-shard telemetry.  It is **byte-for-byte
equivalent** to the policy it wraps for any shard count — cloaks,
candidate lists, costs, statistics and cache counters are the wrapped
instance's own; sharding changes only where state lives.

Two runtimes share that routing scheme:

* in process — the wrapper itself, one address space;
* the process pool (:class:`ParallelShardedAnonymizer`,
  ``parallel=True``) — one OS process per shard, each holding the same
  wrapper as its replica and speaking the framed, CRC'd wire protocol
  of :mod:`repro.sharding.wire` over pipes, with an asyncio socket
  front door (:class:`~repro.sharding.frontdoor.ShardFrontDoor`) for
  remote peers.  Same interface, same bytes out.  Its one traffic
  rule: a block-confined move of a ``block_local`` policy
  (:attr:`~repro.anonymizer.policy.PolicySpec.block_local`) goes to its
  home worker alone, every other mutation to every worker.

See ``docs/sharding.md`` for the routing scheme, the traffic rule, the
wire format and the worker crash/heal protocol.
"""

from __future__ import annotations

from repro.geometry import Rect
from repro.sharding.replicated import ReplicatedShardedAnonymizer
from repro.sharding.router import ShardRouter
from repro.sharding.workers import (
    ParallelShardedAnonymizer,
    ShardWorker,
    WorkerPool,
    _build_replica,
    _WorkerConfig,
)

__all__ = [
    "ParallelShardedAnonymizer",
    "ReplicatedShardedAnonymizer",
    "ShardRouter",
    "ShardWorker",
    "ShardedAnonymizer",
    "WorkerPool",
    "make_sharded",
]

ShardedAnonymizer = ParallelShardedAnonymizer | ReplicatedShardedAnonymizer
"""Union of the sharded anonymizer implementations."""


def make_sharded(
    bounds: Rect,
    height: int = 9,
    num_shards: int = 1,
    kind: str = "basic",
    cloak_cache_size: int = 8192,
    parallel: bool = False,
) -> ShardedAnonymizer:
    """Build a sharded anonymizer of the requested ``kind`` — any name
    in :func:`repro.anonymizer.policy.available_policies`;
    ``parallel=True`` runs each shard in its own worker process over
    the wire protocol; in process it is the policy's
    :class:`~repro.sharding.replicated.ReplicatedShardedAnonymizer`.
    A ``height`` the policy cannot hold raises ``ValueError`` here, in
    the calling process, on every path."""
    if parallel:
        return ParallelShardedAnonymizer(
            bounds, height=height, num_shards=num_shards, kind=kind,
            cloak_cache_size=cloak_cache_size,
        )
    return _build_replica(
        _WorkerConfig(kind, bounds, height, num_shards, cloak_cache_size)
    )
