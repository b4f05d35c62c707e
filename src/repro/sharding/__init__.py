"""Sharded anonymizer runtime (deterministic spatial partitioning).

One sharded deployment per replication mode, both behind a
:class:`~repro.sharding.router.ShardRouter`:

* **partitioned** (:class:`ShardedBasicAnonymizer`) — the complete
  pyramid splits into ``N`` shard-owned subtrees: the top (levels above
  the block level) is a replicated spine, every deeper cell is owned by
  exactly one shard;
* **broadcast** (:class:`ReplicatedShardedAnonymizer`) — every other
  registered policy (the adaptive pyramid, whose cut is shaped by
  global counts, and the baselines) runs as a whole single-instance
  replica with geometric shard homes read off its user table.

Either way the sharded anonymizer implements the exact interface of the
single-instance policy it deploys and is **byte-for-byte equivalent**
to it for any shard count — cloaks, candidate lists, and maintenance
statistics are identical; sharding changes only where state lives and
which caches a mutation invalidates.

Two runtimes share that routing scheme:

* the in-process deployments above — one address space;
* the process pool (:class:`ParallelShardedAnonymizer`,
  ``parallel=True``) — one OS process per shard speaking the framed,
  CRC'd wire protocol of :mod:`repro.sharding.wire` over pipes, with
  an asyncio socket front door
  (:class:`~repro.sharding.frontdoor.ShardFrontDoor`) for remote
  peers.  Same interface, same bytes out.

See ``docs/sharding.md`` for the partitioning scheme, the composite
cache-epoch rule, the wire format and the worker crash/heal protocol.
"""

from __future__ import annotations

from repro.geometry import Rect
from repro.sharding.basic import ShardedBasicAnonymizer
from repro.sharding.replicated import ReplicatedShardedAnonymizer
from repro.sharding.router import ShardRouter, morton_cell, morton_rank
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
    "ShardedBasicAnonymizer",
    "WorkerPool",
    "make_sharded",
    "morton_cell",
    "morton_rank",
]

ShardedAnonymizer = (
    ShardedBasicAnonymizer
    | ParallelShardedAnonymizer
    | ReplicatedShardedAnonymizer
)
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
    the wire protocol.  Policies without a native sharded fleet deploy
    through the generic broadcast wrapper
    (:class:`~repro.sharding.replicated.ReplicatedShardedAnonymizer`).
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
