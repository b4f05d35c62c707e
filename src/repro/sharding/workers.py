"""True parallel sharding: shard workers as separate OS processes.

Each shard's pyramid subtree runs in its own worker process, connected
to the parent runtime over the framed wire protocol of
:mod:`repro.sharding.wire`.  Four pieces compose the subsystem:

* :class:`FrameEndpoint` — the server role of the protocol, stated
  once: apply a request frame's *data-plane* operations to a replica —
  run by run, consecutive moves as one ``update_batch`` and consecutive
  cloaks as one ``cloak_many`` — and answer with a response frame.
  Stop-and-wait sequence numbers make redelivery safe: a repeated
  sequence replays the cached reply instead of re-applying the batch.
  The TCP front door (:mod:`repro.sharding.frontdoor`) serves exactly
  this.
* :class:`ShardWorker` — the endpoint a worker process runs over its
  pipe: it adds the *control plane* (pickled stats/snapshot/install
  blobs, invariant sweeps, chaos hangs, shutdown) and the ``NACK``
  answer to a request that failed its CRC.
* :class:`WorkerPool` — the supervisor: spawns one process per shard
  over a duplex pipe, health-checks, kills, respawns and tears the
  fleet down deterministically (idempotent, exception-safe).
* :class:`ParallelShardedAnonymizer` — the parent-side runtime
  implementing the exact sharded-anonymizer interface, so
  ``Casper(shards=N, parallel=True)``, batch queries and the
  continuous monitor work unchanged on top of real processes.

Delivery rule: mutations *queue* in the parent, per shard; a read (or
an explicit ``flush()``) *delivers* them — scatter, then gather: every
involved shard's frame is sent before any reply is awaited, one
``MAX_BATCH`` chunk per shard per round, so the workers compute
concurrently and each pipe carries at most one unanswered frame.  A
write-only peer therefore grows the queues until someone reads.

Replication model — one per in-process deployment, chosen by whether
the policy's registry entry ships a native partitioned fleet
(``spec.sharded``); either way results are *byte-identical* to the
in-process deployment the workers replicate:

* **partition** (``basic``: :class:`~repro.sharding.basic
  .ShardedBasicAnonymizer` replicas) — every worker holds a full fleet
  replica (one complete pyramid) but receives only the traffic that
  can affect what it serves: registrations, deregistrations, profile
  changes and boundary-crossing moves are broadcast (they touch
  spine/block-root state every shard can read), while a move confined
  to one shard's blocks goes to that worker alone.  A worker's *own*
  shard — its slice of the counts and generations, its epoch and its
  cloak cache — then evolves exactly like the in-process fleet's.
  Foreign users' rows go stale on a replica — point and cell together,
  always inside the true block — and its foreign *interior* counts
  stay consistent with those rows, so every replica passes the same
  ``check_invariants`` audit as the in-process fleet.  The parent
  computes all maintenance statistics itself (basic costs are pure
  functions of the cell walk), so ``stats`` needs no wire round trip.
* **broadcast** (every other policy — ``adaptive`` and the baselines:
  :class:`~repro.sharding.replicated.ReplicatedShardedAnonymizer`
  replicas) — the policy's state has no partitioned form, so every
  mutation is broadcast and every worker holds one whole
  single-instance policy.  Cloaks route to the user's home shard, so
  each worker's cloak cache sees only its own shard's requests: cloaks
  are byte-identical, but aggregate ``cache_stats()`` hit/miss splits
  are the one number not reproduced from the in-process single cache.
  Update costs come back on the wire (cascade costs cannot be
  recomputed parent-side), which is why broadcast updates deliver
  synchronously.

Failure model: the parent's transmit seam feeds every frame — in both
directions — through an attached
:class:`~repro.resilience.faults.FaultInjector`, so chaos drops,
duplicates, delays, reorders and corrupts the *actual bytes* crossing
the pipes.  Dropped or corrupted frames retransmit (the worker replays
from its dedup cache); a worker that dies or hangs past
``hang_timeout`` is killed, respawned and healed — from the parent
mirror (partition) or from the lowest surviving replica's snapshot
(broadcast) — degrading availability for the duration, never privacy.

Pickle travels only inside ``install``/``snapshot``/``stats`` blobs
between a parent and the worker processes it spawned — control-plane
operations (:data:`repro.sharding.wire.OPS`), which only a
:class:`ShardWorker` executes and only for the peer on its own pipe —
and is parsed only after the enclosing frame's CRC verified.
"""

from __future__ import annotations

import dataclasses
import multiprocessing
import pickle
import struct
import time
from dataclasses import dataclass
from itertools import groupby
from multiprocessing.connection import Connection
from operator import itemgetter
from typing import Any, Callable, Iterable

from repro.anonymizer.cells import CellGrid, CellId
from repro.anonymizer.cloak import CloakedRegion
from repro.anonymizer.policy import get_policy
from repro.anonymizer.profile import PrivacyProfile
from repro.anonymizer.soa import TableSnapshot, UserTable, move_level, move_levels
from repro.anonymizer.stats import MaintenanceStats
from repro.errors import ProfileUnsatisfiableError
from repro.geometry import Point, Rect
from repro.messages import ShardEnvelope
from repro.observability import runtime as _telemetry
from repro.sharding.replicated import ReplicatedShardedAnonymizer
from repro.sharding.surface import ShardSurface
from repro.sharding.wire import (
    KIND_NACK,
    KIND_REQUEST,
    KIND_RESPONSE,
    OP_CLOAK,
    OP_MOVE,
    Frame,
    WireError,
    decode_frame,
    decode_op,
    decode_response,
    encode_frame,
    op_cell_count,
    op_check,
    op_cloak,
    op_cloak_location,
    op_deregister,
    op_install,
    op_move,
    op_ping,
    op_register,
    op_set_profile,
    op_shutdown,
    op_snapshot,
    op_spec,
    op_stats,
    response_ack,
    response_blob,
    response_cloak,
    response_cloak_unsatisfiable,
    response_cost,
    response_count,
    response_error,
)
from repro.utils.timer import monotonic

__all__ = [
    "FrameEndpoint",
    "ParallelShardedAnonymizer",
    "ShardWorker",
    "WorkerPool",
]

#: Most envelopes shipped per frame; longer batches split into several
#: stop-and-wait exchanges so one corrupt byte never costs more than
#: one frame's worth of retransmission.
MAX_BATCH = 512

#: Retransmissions/attempts before declaring a transport unusable.
_RETRY_LIMIT = 1000

#: Consecutive heal attempts per exchange before giving up.
_HEAL_LIMIT = 5

#: A payload's opcode byte (``b""`` for an empty payload), and the
#: opcodes whose runs an endpoint coalesces.
_OPCODE = itemgetter(slice(0, 1))
_MOVE, _CLOAK = bytes([OP_MOVE]), bytes([OP_CLOAK])

#: Stand-in for the region of a cloak answered "profile unsatisfiable"
#: (what an endpoint hands ``cloak_many`` to learn which envelopes earn
#: the ``unsat`` reply, and what the parent decodes that reply to).
_UNSAT: Any = object()
_UNSAT_REPLY = response_cloak_unsatisfiable()


@dataclass(frozen=True)
class _WorkerConfig:
    """Everything a worker process needs to build its replica."""

    kind: str
    bounds: Rect
    height: int
    num_shards: int
    cloak_cache_size: int


def _build_replica(config: _WorkerConfig, shard: int | None = None) -> object:
    """Build the in-process deployment of ``config.kind`` — what
    ``make_sharded`` returns and what every worker replicates — via the
    policy registry: the native partitioned fleet when the policy ships
    one, else a whole-policy :class:`~repro.sharding.replicated
    .ReplicatedShardedAnonymizer` tagged with the worker's shard."""
    spec = get_policy(config.kind)
    if spec.sharded is not None:
        return spec.sharded(
            config.bounds,
            config.height,
            config.num_shards,
            config.cloak_cache_size,
        )
    return ReplicatedShardedAnonymizer(
        spec,
        config.bounds,
        height=config.height,
        num_shards=config.num_shards,
        cloak_cache_size=config.cloak_cache_size,
        shard=shard,
    )


class FrameEndpoint:
    """The server role of the wire protocol over one replica.

    One endpoint serves one peer.  :meth:`step` owns the stop-and-wait
    state: the last ``(sequence, reply)`` pair is cached, a repeated
    sequence replays the cached reply bytes and an *older* sequence (a
    delayed duplicate of a finished exchange) gets no answer.

    A frame executes as **runs**: consecutive ``move`` envelopes are
    one ``replica.update_batch``, consecutive ``cloak`` envelopes one
    ``replica.cloak_many`` (the batched kernel in a worker; one
    exchange per shard over a worker-pool replica).  Runs never reorder
    across opcodes — ``move, cloak, move`` is three — and the reply is,
    envelope for envelope, the bytes a per-envelope loop would produce.

    An endpoint executes the **data plane** only.  A control opcode is
    refused with an ``RE_ERROR`` reply off its opcode byte alone:
    nothing is decoded, unpickled, pickled or slept on.  Only
    :class:`ShardWorker` serves the control plane, to the parent at the
    other end of its pipe.
    """

    def __init__(self, replica: object) -> None:
        self._replica = replica
        self._last_seq: int | None = None
        self._last_reply: bytes = b""

    def step(self, frame: Frame) -> bytes | None:
        """The reply bytes one decoded frame earns; ``None`` when it
        earns none (not a request, or a stale sequence)."""
        if frame.kind != KIND_REQUEST:
            return None
        if self._last_seq is not None:
            if frame.seq == self._last_seq:
                return self._last_reply
            if frame.seq < self._last_seq:
                return None
        replies: list[bytes] = []
        payloads = [envelope.payload for envelope in frame.envelopes]
        for opcode, run in groupby(payloads, key=_OPCODE):
            replies += self._run(opcode, list(run))
        self._last_seq = frame.seq
        self._last_reply = encode_frame(
            KIND_RESPONSE,
            frame.seq,
            [
                ShardEnvelope(envelope.shard, reply)
                for envelope, reply in zip(frame.envelopes, replies)
            ],
        )
        return self._last_reply

    def _run(self, opcode: bytes, payloads: list[bytes]) -> list[bytes]:
        """One response payload per envelope of a run.  A stretch of
        moves (or cloaks) the replica will accept is one batch call;
        one it would refuse splits the run and earns its ``RE_ERROR``
        alone, in place — ``update_batch`` raises on the first refused
        move without returning the costs of the prefix it applied, so
        a refusal must be known *before* the call."""
        batch = {_MOVE: self._moves, _CLOAK: self._cloaks}.get(opcode)
        if batch is None:
            return [self.execute(payload) for payload in payloads]
        replies: list[bytes] = []
        stretch: list[tuple] = []
        for payload in payloads:
            args = self._accepted(payload)
            if args is None:
                replies += self._guarded(batch, stretch) + [self.execute(payload)]
                stretch = []
            else:
                stretch.append(args)
        return replies + self._guarded(batch, stretch)

    def _accepted(self, payload: bytes) -> tuple | None:
        """``(uid, point)`` of a move / ``(uid,)`` of a cloak the
        replica will accept; ``None`` for one it would refuse (unknown
        uid, point outside the service area, undecodable payload).
        Neither op changes who is registered, so the answer holds for
        the whole run."""
        try:
            _name, uid, *rest = decode_op(payload)
        except (ValueError, struct.error):
            return None
        replica = self._replica
        if uid not in replica or (rest and not replica.grid.contains(rest[0])):
            return None
        return (uid, *rest)

    def _moves(self, moves: list[tuple]) -> list[bytes]:
        return [response_cost(cost) for cost in self._replica.update_batch(moves)]

    def _cloaks(self, cloaks: list[tuple]) -> list[bytes]:
        uids = [uid for (uid,) in cloaks]
        regions = self._replica.cloak_many(uids, unsatisfiable=_UNSAT)
        return [_UNSAT_REPLY if r is _UNSAT else response_cloak(r) for r in regions]

    def _guarded(
        self, apply: Callable[[list], list[bytes]], items: list
    ) -> list[bytes]:
        """``apply(items)`` — one response payload per item — or, for
        anything that goes wrong, one ``RE_ERROR`` payload per item."""
        if not items:
            return []
        try:
            return apply(items)
        except AssertionError as exc:
            text = f"invariant violation: {exc}"
        except Exception as exc:  # casperlint: ignore[CSP006] propagated as RE_ERROR replies the parent re-raises
            text = f"{type(exc).__name__}: {exc}"
        return [response_error(text)] * len(items)

    def execute(self, payload: bytes) -> bytes:
        """Apply one operation; returns its response payload (an
        ``RE_ERROR`` one for anything that goes wrong)."""
        return self._guarded(self._apply, [payload])[0]

    def _apply(self, payloads: list[bytes]) -> list[bytes]:
        return [
            self._apply_data(payload)
            if op_spec(payload).data_plane
            else self._apply_control(payload)
            for payload in payloads
        ]

    def _apply_data(self, payload: bytes) -> bytes:
        op = decode_op(payload)
        name = op[0]
        if name == "move":
            return self._moves([op[1:]])[0]
        if name == "cloak":
            return self._cloaks([op[1:]])[0]
        if name == "cloak_location":
            try:
                region = self._replica.cloak_location(op[1], op[2])
            except ProfileUnsatisfiableError:
                return response_cloak_unsatisfiable()
            return response_cloak(region)
        if name in ("register", "deregister", "set_profile"):
            # The replica method of the same name, acknowledged.
            getattr(self._replica, name)(*op[1:])
            return response_ack()
        if name == "cell_count":
            return response_count(self._replica.cell_count(op[1]))
        if name == "ping":
            return response_ack()
        return response_error(f"unsupported operation {name!r}")

    def _apply_control(self, payload: bytes) -> bytes:
        return response_error(
            f"control-plane operation {op_spec(payload).name!r} refused: "
            "this endpoint serves the data plane only"
        )


class ShardWorker(FrameEndpoint):
    """The endpoint one shard's worker process runs over its pipe.

    Builds its own replica from the config, serves the control plane on
    top of :class:`FrameEndpoint`'s data plane, and answers a frame
    that fails its CRC with a ``NACK`` so the parent retransmits
    instead of timing out.
    """

    def __init__(
        self, config: _WorkerConfig, shard: int, conn: Connection | None
    ) -> None:
        super().__init__(_build_replica(config, shard))
        self.config = config
        self.shard = shard
        self._conn = conn
        self._stopping = False

    def run(self) -> None:
        """Serve frames until shutdown or a closed pipe."""
        while not self._stopping:
            try:
                raw = self._conn.recv_bytes()
            except (EOFError, OSError):
                return
            try:
                reply = self.step(decode_frame(raw))
            except WireError:
                reply = encode_frame(KIND_NACK, 0, [])
            if reply is not None:
                try:
                    self._conn.send_bytes(reply)
                except (BrokenPipeError, OSError):
                    return

    def _apply_control(self, payload: bytes) -> bytes:
        op = decode_op(payload)
        name = op[0]
        if name == "stats":
            report = {
                "stats": dataclasses.asdict(self._replica.stats),
                "own_cache": self._replica.cache_stats_per_shard()[str(self.shard)],
                "num_maintained_cells": getattr(
                    self._replica, "num_maintained_cells", None
                ),
            }
            return response_blob(pickle.dumps(report))
        if name == "snapshot":
            blob = pickle.dumps(
                (
                    self._replica.snapshot(),
                    dataclasses.asdict(self._replica.stats),
                )
            )
            return response_blob(blob)
        if name == "install":
            self._install(pickle.loads(op[1]))
            return response_ack()
        if name == "check":
            self._replica.check_invariants()
            return response_ack()
        if name == "hang":
            time.sleep(op[1])
            return response_ack()
        if name == "shutdown":
            self._stopping = True
            return response_ack()
        return response_error(f"unsupported operation {name!r}")

    def _install(self, package: object) -> None:
        """Replace replica state from an ``install`` blob.

        ``("bootstrap", [(uid, point, profile), ...])`` rebuilds a fresh
        replica by re-registering every user at their current location
        (the parent-mirror heal path); ``("install", (snapshot,
        stats?))`` restores a snapshot taken on a sibling replica (the
        broadcast survivor heal / whole-fleet restore path).
        """
        tag, body = package
        if tag == "bootstrap":
            replica = _build_replica(self.config, self.shard)
            for uid, point, profile in body:
                replica.register(uid, point, profile)
            self._replica = replica
        elif tag == "install":
            snapshot, stats = body
            self._replica.restore(snapshot)
            if stats is not None:
                self._replica.stats = MaintenanceStats(**stats)
        else:
            raise ValueError(f"unknown install package tag {tag!r}")


def _worker_main(config: _WorkerConfig, shard: int, conn: Connection) -> None:
    """Process entry point: run one shard worker until shutdown.

    Telemetry is the parent's: a forked worker inherits a copy of the
    session the pool was built under and would time and record every
    cloak into a registry nothing can read (a spawned one starts with
    none), so the replica runs with telemetry off either way."""
    _telemetry.disable()
    ShardWorker(config, shard, conn).run()


def _mp_context():
    """Fork where available (cheap on POSIX); spawn otherwise."""
    if "fork" in multiprocessing.get_all_start_methods():
        return multiprocessing.get_context("fork")
    return multiprocessing.get_context("spawn")


class WorkerPool:
    """Supervisor for one worker process per shard.

    Owns the processes and their pipes; knows nothing about sequence
    numbers or retransmission (that is the parent runtime's job).
    ``shutdown`` is idempotent and exception-safe — it always reaps
    every process it ever started, so no orphan survives an exception
    anywhere above it.
    """

    def __init__(self, config: _WorkerConfig) -> None:
        self.config = config
        self._ctx = _mp_context()
        self._procs: list[object | None] = [None] * config.num_shards
        self._conns: list[Connection | None] = [None] * config.num_shards

    @property
    def num_workers(self) -> int:
        return self.config.num_shards

    def spawn(self, shard: int) -> None:
        """Start (or replace) the worker process for one shard."""
        if self._procs[shard] is not None:
            self.kill(shard)
        parent_conn, child_conn = self._ctx.Pipe()
        try:
            proc = self._ctx.Process(
                target=_worker_main,
                args=(self.config, shard, child_conn),
                name=f"casper-shard-{shard}",
                daemon=True,
            )
            proc.start()
            self._procs[shard] = proc
            self._conns[shard] = parent_conn
        except BaseException:
            # a failed fork/start must not leak the pipe descriptors
            parent_conn.close()
            child_conn.close()
            raise
        child_conn.close()

    def spawn_all(self) -> None:
        try:
            for shard in range(self.num_workers):
                self.spawn(shard)
        except BaseException:
            self.shutdown()
            raise

    def conn(self, shard: int) -> Connection:
        conn = self._conns[shard]
        if conn is None:
            raise RuntimeError(f"shard {shard} has no live worker")
        return conn

    def alive(self, shard: int) -> bool:
        proc = self._procs[shard]
        return proc is not None and proc.is_alive()  # type: ignore[union-attr]

    def kill(self, shard: int) -> None:
        """Hard-stop one worker and release its pipe (idempotent)."""
        proc = self._procs[shard]
        if proc is not None:
            try:
                proc.kill()  # type: ignore[union-attr]
                proc.join()  # type: ignore[union-attr]
            finally:
                try:
                    proc.close()  # type: ignore[union-attr]
                except ValueError:
                    pass
                self._procs[shard] = None
        conn = self._conns[shard]
        if conn is not None:
            try:
                conn.close()
            except OSError:
                pass
            self._conns[shard] = None

    def shutdown(self) -> None:
        """Reap every worker; safe to call repeatedly, never raises."""
        for shard in range(self.num_workers):
            try:
                self.kill(shard)
            except Exception:  # casperlint: ignore[CSP006] teardown must reap every worker even if one kill fails
                self._procs[shard] = None
                self._conns[shard] = None


class _WorkerDied(Exception):
    """A worker stopped answering (dead pipe or hang timeout)."""

    def __init__(self, shard: int, reason: str) -> None:
        super().__init__(f"shard worker {shard}: {reason}")
        self.shard = shard
        self.reason = reason


@dataclass(frozen=True)
class _ParallelSnapshot:
    """Parent-side snapshot: the parent table's rows (always
    sufficient to rebuild a partitioned fleet) plus, for broadcast
    policies, a pickled replica snapshot taken on worker 0 (the
    adaptive cut is history-dependent, so points alone cannot
    reproduce it)."""

    kind: str
    population: TableSnapshot
    blob: bytes | None = None


class ParallelShardedAnonymizer(ShardSurface):
    """The sharded-anonymizer interface over real worker processes.

    Seeded operation streams produce byte-identical cloaks, costs and
    maintenance counters to the in-process sharded anonymizers (and
    hence to the single-pyramid implementations) — see the module
    docstring for the replication argument, and the ``parallel`` lane
    of ``tests/test_spec_machine.py`` for the oracle.
    """

    def __init__(
        self,
        bounds: Rect,
        height: int = 9,
        num_shards: int = 1,
        kind: str = "basic",
        cloak_cache_size: int = 8192,
        hang_timeout: float = 5.0,
    ) -> None:
        spec = get_policy(kind)
        if spec.check_height is not None:
            # In the parent, before any worker exists to discover it.
            spec.check_height(height)
        self.kind = kind
        #: How worker replicas stay consistent (module docstring):
        #: partitioned when the policy ships a native fleet, else
        #: broadcast to whole replicas, stats/costs read off the wire.
        self._partitioned = spec.sharded is not None
        self.grid = CellGrid(bounds, height)
        self._init_surface(num_shards, height)
        self._stats = MaintenanceStats()
        #: The parent's authoritative copy of every user's state: the
        #: engine's own user table (exact point, profile and lowest-level
        #: Morton cell per slot) with no pyramid over it.
        self.table = UserTable(self.grid)
        self._pending: list[list[bytes]] = [[] for _ in range(num_shards)]
        self._seq = 0
        self._injector = None
        self._hang_timeout = hang_timeout
        self._closed = False
        self.worker_crashes = 0
        self.worker_heals = 0
        self._pool = WorkerPool(
            _WorkerConfig(kind, bounds, height, num_shards, cloak_cache_size)
        )
        #: Workers whose replicas are known complete.  A respawned
        #: worker is not authoritative until its install lands, so a
        #: heal nested inside another heal never snapshots a virgin
        #: (empty) replica and propagates the emptiness fleet-wide.
        self._authoritative = [True] * num_shards
        self._pool.spawn_all()
        for shard in range(num_shards):
            _telemetry.count("casper_worker_events_total", shard, "spawn")

    # ------------------------------------------------------------------
    # Introspection (all answered from the parent mirror — no IPC)
    # ------------------------------------------------------------------
    def __enter__(self) -> "ParallelShardedAnonymizer":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    @property
    def stats(self) -> MaintenanceStats:
        """Maintenance counters — parent-computed for the partitioned
        fleet (costs are pure functions of the cell walk), fetched from
        worker 0 for broadcast policies (split/merge costs happen
        inside the workers), with ``cloak_requests`` always counted at
        the routing seam."""
        if self._partitioned:
            return self._stats
        payload = self._fetch_stats()[0]["stats"]
        payload["cloak_requests"] = self._stats.cloak_requests
        return MaintenanceStats(**payload)

    @property
    def num_maintained_cells(self) -> int:
        cells = self._fetch_stats()[0]["num_maintained_cells"]
        if cells is None:
            # The policy the workers replicate maintains no cut.
            raise AttributeError("num_maintained_cells")
        return cells

    def cache_stats_per_shard(self) -> dict[str, dict[str, int]]:
        """Per-worker cloak-cache traffic (each worker's own cache),
        in the report shape of the in-process deployments: equal to the
        in-process fleet's for the partitioned kind; for broadcast
        policies each whole-replica cache sees only its own shard's
        cloaks, so hit/miss splits (and their :meth:`cache_stats` sum)
        may differ from the in-process deployment's single cache."""
        own = (payload["own_cache"] for payload in self._fetch_stats())
        return self._shard_rows(dict(enumerate(own)))

    # ------------------------------------------------------------------
    # Registration and location updates
    # ------------------------------------------------------------------
    def register(
        self, uid: object, point: Point, profile: PrivacyProfile
    ) -> None:
        self.table.admit(uid, point, profile)
        self._homed(self.shard_of_user(uid))
        if self._partitioned:
            self._stats.registrations += 1
            self._stats.counter_updates += self.height + 1
        self._broadcast(op_register(uid, point, profile))

    def deregister(self, uid: object) -> None:
        home = self.shard_of_user(uid)
        if self._partitioned:
            self._stats.deregistrations += 1
            self._stats.counter_updates += self.height + 1
        self.table.remove(uid)
        self._unhomed(home)
        self._broadcast(op_deregister(uid))

    def set_profile(self, uid: object, profile: PrivacyProfile) -> None:
        self.table.set_profile(uid, profile)
        self._broadcast(op_set_profile(uid, profile))

    def update(self, uid: object, point: Point) -> int:
        """Process a location update; returns its counter-update cost
        (identical to the in-process cost).  The lean one-move form of
        :meth:`update_batch`'s mirror: the same rule on python ints."""
        router = self.router
        _slot, old_leaf, new_leaf, _cell = self.table.move(uid, point)
        home = router.owner_of_leaf(old_leaf)
        level, cost = move_level(self.height, old_leaf, new_leaf)
        if cost or not self._partitioned:
            self._notify_op(home, "update", occupancy=False)
        # Only a move that leaves its level-S block can change homes,
        # and it changes spine/block-root state every replica reads.
        crossing = router.crosses_boundary(level)
        new_home = router.owner_of_leaf(new_leaf) if crossing else home
        if new_home != home:
            self._rehomed(home, new_home)
        if crossing or not self._partitioned:
            self._broadcast(op_move(uid, point))
        else:
            # Confined (even to its cell: the owner still needs the
            # fresh coordinates for its record): one worker's business.
            self._enqueue(home, op_move(uid, point))
        if not self._partitioned:
            return self._broadcast_cost()
        self._stats.location_updates += 1
        self._stats.counter_updates += cost
        self._stats.cell_changes += cost > 0
        return cost

    def _broadcast_cost(self) -> int:
        """Deliver a broadcast move and read its cost back.

        The cost depends on split/merge cascades only the replicas can
        evaluate, so broadcast updates flush synchronously; any
        replica's answer is authoritative (identical op streams)."""
        for shard_results in self.flush().values():
            if shard_results and shard_results[-1] is not None:
                return shard_results[-1]
        # Only reachable when every worker died mid-exchange and healed
        # from the parent mirror (which already includes this move).
        return 0

    def update_batch(self, moves: list[tuple[object, Point]]) -> list[int]:
        """Apply a tick's worth of location updates; returns their
        costs — like the end state and, on the first unknown uid or
        out-of-bounds point, the exception and the applied prefix,
        identical to the sequential :meth:`update` loop.

        Partitioned: one numpy pass mirrors the batch (leaf Morton
        codes, ancestor levels, costs, crossing flags, owners); only
        encoding and queueing each ``move`` stays per move.  Like every
        mutation the moves *queue*: a read or :meth:`flush` delivers
        them (costs and stats are parent-computed, so nothing
        observable waits).  Broadcast policies are synchronous — costs
        come back on the wire — and, like a batch naming one user
        twice, apply in arrival order.
        """
        if not self._partitioned or len({uid for uid, _ in moves}) != len(moves):
            return [self.update(uid, point) for uid, point in moves]
        if self._closed:
            raise RuntimeError("parallel anonymizer is closed")
        router, pending = self.router, self._pending
        old_leaves, new_leaves = self.table.apply_moves(moves)
        levels, costs = move_levels(self.height, old_leaves, new_leaves)
        homes = router.owners_of_leaves(old_leaves)
        self._notify_updates(homes[costs != 0])
        for (uid, point), home, new_home, crossing in zip(
            moves,
            homes.tolist(),
            router.owners_of_leaves(new_leaves).tolist(),
            (levels < router.spine_level).tolist(),
        ):
            op = op_move(uid, point)
            if crossing:
                if new_home != home:
                    self._rehomed(home, new_home)
                self._broadcast(op)
            else:
                pending[home].append(op)
        self._stats.add_moves(costs)
        if len(costs) < len(moves):
            # Replay the refused move alone for its exception (unknown
            # uid before out-of-bounds, as in the sequential loop).
            self.update(*moves[len(costs)])
            raise AssertionError("unreachable: the refused move must raise")
        return costs.tolist()

    # ------------------------------------------------------------------
    # Cloaking
    # ------------------------------------------------------------------
    def cloak(self, uid: object) -> CloakedRegion:
        """Cloak one user: a one-entry :meth:`cloak_many` (the same
        frame on the wire, the same accounting and errors)."""
        return self.cloak_many([uid])[0]

    def cloak_location(
        self, point: Point, profile: PrivacyProfile
    ) -> CloakedRegion:
        shard = self.router.shard_of(self.grid.cell_of(point))
        request = (shard, op_cloak_location(point, profile), None)
        return self._cloak_requests([request], None, profile)[0]

    def cloak_many(
        self, uids: Iterable[object], unsatisfiable: CloakedRegion | None = None
    ) -> list[CloakedRegion]:
        """Cloak a batch of users with one exchange per involved shard
        (per ``MAX_BATCH`` chunk), the shards working concurrently —
        the contract of :meth:`~repro.anonymizer.cloak.BatchCloaking
        .cloak_many`: regions in input order, ``unsatisfiable`` standing
        in per item, else the earliest unsatisfiable user raising after
        the whole batch executed.  An unknown uid raises before
        anything is sent."""
        uids = list(uids)
        homes = map(self.shard_of_user, uids)
        return self._cloak_requests(
            list(zip(homes, map(op_cloak, uids), uids)), unsatisfiable
        )

    def _cloak_requests(
        self,
        requests: list[tuple[int, bytes, object]],
        unsatisfiable: CloakedRegion | None,
        profile: PrivacyProfile | None = None,
    ) -> list[CloakedRegion]:
        """Ship ``(shard, op, uid)`` cloak requests (``uid`` is ``None``
        for an ad-hoc location under ``profile``) and collect their
        regions, with the accounting and telemetry of the in-process
        cloak."""
        self._stats.cloak_requests += len(requests)
        positions = [self._enqueue(request[0], request[1]) for request in requests]
        traced = _telemetry.active() is not None
        start = monotonic()
        flushed = self._deliver({request[0] for request in requests})
        share = (monotonic() - start) / max(len(requests), 1)
        regions: list[CloakedRegion] = []
        failure: ProfileUnsatisfiableError | None = None
        for (shard, _, uid), position in zip(requests, positions):
            region = flushed[shard][position]
            if region is _UNSAT:
                if unsatisfiable is None and failure is None:
                    subject = "ad-hoc location" if uid is None else f"user {uid!r}"
                    failure = ProfileUnsatisfiableError(
                        f"profile unsatisfiable for {subject} "
                        f"(reported by shard worker {shard})"
                    )
                region = unsatisfiable
            elif traced:
                asked = profile or self.profile_of(uid)
                _telemetry.record_cloak(
                    self.kind, share, region.area,
                    asked.a_min, region.achieved_k, asked.k,
                )
                _telemetry.count(
                    "casper_shard_cloaks_total", shard, self._route_of(region)
                )
            regions.append(region)
        if failure is not None:
            raise failure
        return regions

    def cell_count(self, cell: CellId) -> int:
        """Population of one maintained cell, read from the replica
        that is authoritative for it."""
        shared = not self._partitioned or cell.level < self.router.spine_level
        shard = 0 if shared else self.router.shard_of(cell)
        self._enqueue(shard, op_cell_count(cell))
        return self._flush_shard(shard)[-1]

    # ------------------------------------------------------------------
    # Crash recovery and diagnostics
    # ------------------------------------------------------------------
    def snapshot(self) -> object:
        """Whole-fleet snapshot.  Partitioned snapshots are pure parent
        state (cheap — no wire traffic); broadcast snapshots
        additionally capture worker 0's replica, which point data alone
        cannot rebuild (the adaptive cut is history-dependent)."""
        rows = self.table.snapshot()
        if self._partitioned:
            return _ParallelSnapshot(self.kind, rows)
        self.flush()
        self._enqueue(0, op_snapshot())
        blob = self._flush_shard(0)[-1]
        return _ParallelSnapshot(self.kind, rows, blob)

    def restore(self, state: object) -> None:
        """Restore the fleet from a :meth:`snapshot` copy.

        Partitioned workers rebuild from the restored mirror (fresh
        replicas, so unlike the in-process fleet the cache *counters*
        restart at zero); broadcast workers re-install the captured
        replica, keeping their own maintenance stats exactly like the
        in-process ``restore``.
        """
        if not isinstance(state, _ParallelSnapshot) or state.kind != self.kind:
            raise TypeError("not a ParallelShardedAnonymizer snapshot")
        self.flush()  # queued mutations count in the workers' stats
        self.table.restore(state.population)
        self._occupancy = self._recount()
        if self._partitioned:
            package = ("bootstrap", list(state.population.rows()))
        else:
            snapshot, _stats = pickle.loads(state.blob)
            package = ("install", (snapshot, None))
        blob = pickle.dumps(package)
        # Until a worker's install lands it may hold pre-restore state,
        # so none is a valid heal source for the duration.  An install
        # that dies mid-exchange surfaces as ``None`` (the heal that
        # caught it rebuilt the worker from a *peer*, which may itself
        # be pre-restore here), so re-issue it until it lands — the
        # install is a full state replacement, safe to repeat.
        self._authoritative = [False] * self.num_shards
        for shard in range(self.num_shards):
            for _ in range(_HEAL_LIMIT):
                self._enqueue(shard, op_install(blob))
                if self._flush_shard(shard)[-1] is not None:
                    break
            else:
                raise RuntimeError(
                    f"shard worker {shard}: restore install kept dying"
                )
            self._authoritative[shard] = True

    def crash_worker(self, victim: int) -> None:
        """Kill one worker process and heal its replacement — the
        chaos harness's worker-crash fault, exercised over the real
        transport."""
        if not 0 <= victim < self.num_shards:
            raise ValueError(f"no such shard: {victim}")
        self.flush()
        self._crash_and_heal(victim)

    def check_invariants(self) -> None:
        """Assert parent-mirror consistency, then every worker's
        replica invariants (each replica's own ``check_invariants``)."""
        self.table.check()
        self._check_homes()
        self._broadcast(op_check())
        self.flush()

    def ping(self) -> bool:
        """Health-check every worker with a real round trip."""
        self._broadcast(op_ping())
        self.flush()
        return all(self._pool.alive(shard) for shard in range(self.num_shards))

    def attach_injector(self, injector: object) -> None:
        """Route every frame through a resilience fault injector
        (channels ``shard:<i>`` parent→worker, ``shard-resp:<i>``
        worker→parent)."""
        self._injector = injector

    def close(self) -> None:
        """Drain and stop the worker fleet.  Idempotent and
        exception-safe: the pool reaps every process even when the
        graceful shutdown handshake fails."""
        if self._closed:
            return
        self._closed = True
        try:
            self._discard_pending()
            # Teardown is not a chaos target: the handshake goes
            # straight down the pipe.
            self._injector = None
            for shard in range(self.num_shards):
                if not self._pool.alive(shard):
                    continue
                try:
                    self._receive(shard, *self._send(shard, [op_shutdown()]))
                except (_WorkerDied, RuntimeError, WireError):
                    pass
                _telemetry.count("casper_worker_events_total", shard, "shutdown")
        finally:
            self._pool.shutdown()

    # ------------------------------------------------------------------
    # Transport: pending batches, stop-and-wait exchange, healing
    # ------------------------------------------------------------------
    def _enqueue(self, shard: int, op: bytes) -> int:
        """Queue one operation for a shard; returns its position in the
        shard's pending batch (stable across the closing flush).  What
        reply it earns is the op table's business
        (:data:`repro.sharding.wire.OPS`), not the caller's."""
        if self._closed:
            raise RuntimeError("parallel anonymizer is closed")
        self._pending[shard].append(op)
        return len(self._pending[shard]) - 1

    def _broadcast(self, op: bytes) -> None:
        for shard in range(self.num_shards):
            self._enqueue(shard, op)

    def _discard_pending(self) -> None:
        for shard in range(self.num_shards):
            self._pending[shard] = []

    def flush(self) -> dict[int, list]:
        """Deliver every shard's pending batch; per-shard result lists
        align with enqueue order."""
        return self._deliver(range(self.num_shards))

    def _flush_shard(self, shard: int) -> list:
        return self._deliver((shard,))[shard]

    def _deliver(self, shards: Iterable[int], depth: int = 0) -> dict[int, list]:
        """Deliver the pending batches of ``shards``: scatter, then
        gather, one ``MAX_BATCH`` chunk per shard per round — every
        frame is on its pipe before any reply is awaited, so the
        workers compute concurrently, one unanswered frame per pipe.

        A worker that dies sits out the remaining rounds.  Once the
        survivors are gathered and drained it is healed, to a state
        that already holds *all* its undelivered mutations (the heal
        source has every pending one), so of its lost and remaining
        chunks only the ops the table marks re-issuable re-run; lost
        mutation results surface as ``None``.
        """
        pending = self._pending
        results: dict[int, list] = {shard: [] for shard in sorted(shards)}
        died: dict[int, list[bytes]] = {}
        while True:
            chunks = {
                shard: pending[shard][:MAX_BATCH]
                for shard in results
                if pending[shard] and shard not in died
            }
            if not chunks:
                break
            in_flight, replies = {}, {}
            for shard, ops in chunks.items():
                del pending[shard][:MAX_BATCH]
                try:
                    in_flight[shard] = self._send(shard, ops)
                except _WorkerDied:
                    died[shard] = ops
            for shard, sent in in_flight.items():
                try:
                    replies[shard] = self._receive(shard, *sent)
                except _WorkerDied:
                    died[shard] = chunks[shard]
            for shard, reply in replies.items():
                results[shard] += self._decode_replies(shard, reply, chunks[shard])
        for victim, lost in died.items():
            if depth >= _HEAL_LIMIT:
                raise RuntimeError(
                    f"shard worker {victim} kept dying; giving up"
                )
            # Out of the queue before any heal flushes "the survivors".
            lost += pending[victim]
            pending[victim] = []
        for victim, lost in died.items():
            self._crash_and_heal(victim)
            outcome: list = [None] * len(lost)
            retry = [i for i, op in enumerate(lost) if op_spec(op).reissuable]
            pending[victim] = [lost[i] for i in retry]
            retried = self._deliver((victim,), depth + 1)[victim]
            for i, value in zip(retry, retried):
                outcome[i] = value
            results[victim] += outcome
        return results

    def _send(self, shard: int, ops: list[bytes]) -> tuple:
        """Put one request frame on a shard's pipe; returns what
        :meth:`_receive` needs to wait for (and re-ask for) its reply."""
        seq = self._seq = (self._seq + 1) % 2**32 or 1
        wire_bytes = encode_frame(
            KIND_REQUEST, seq, [ShardEnvelope(shard, op) for op in ops]
        )
        conn = self._pool.conn(shard)
        start = monotonic()
        return seq, wire_bytes, conn, start, self._transmit(shard, conn, wire_bytes)

    def _receive(
        self,
        shard: int,
        seq: int,
        wire_bytes: bytes,
        conn: Connection,
        start: float,
        attempts: int,
    ) -> Frame:
        """Wait for the reply matching a sent frame, retransmitting
        through injected drops, corruption and NACKs."""
        deadline = start + self._hang_timeout
        while True:
            # (A reply that arrived while another shard's was awaited
            # is read even past the deadline: ``poll(0)`` sees it.)
            if not conn.poll(max(deadline - monotonic(), 0.0)):
                _telemetry.count("casper_worker_events_total", shard, "timeout")
                raise _WorkerDied(shard, "no reply within the hang timeout")
            try:
                raw = conn.recv_bytes()
            except (EOFError, OSError) as exc:
                raise _WorkerDied(shard, f"pipe closed ({exc!r})") from None
            payloads, fresh = [raw], True
            if self._injector is not None:
                deliveries = self._injector.transmit(f"shard-resp:{shard}", raw)
                payloads = [delivery.payload for delivery in deliveries]
                fresh = not all(delivery.late for delivery in deliveries)
            for payload in payloads:
                try:
                    reply = decode_frame(payload)
                except WireError:
                    reply = None
                if reply is None or reply.kind == KIND_NACK:
                    # The reply was corrupted on the wire, or the worker
                    # CRC-rejected our (corrupted) request: replay.
                    _telemetry.count("casper_worker_events_total", shard, "nack")
                    attempts += self._transmit(shard, conn, wire_bytes, attempts)
                    continue
                if reply.kind == KIND_RESPONSE and reply.seq == seq:
                    if _telemetry.active() is not None:
                        _telemetry.observe(
                            "casper_worker_roundtrip_seconds", monotonic() - start, shard
                        )
                        _telemetry.observe(
                            "casper_worker_batch_envelopes", len(reply.envelopes), shard
                        )
                    return reply
                # A stale duplicate of an already-finished exchange:
                # drain silently, the reply for `seq` is still coming.
            if not fresh:
                # The reply just read was dropped or held; what came
                # instead, if anything, is older traffic — as in
                # `_transmit`, only the current frame counts: replay.
                attempts += self._transmit(shard, conn, wire_bytes, attempts)

    def _transmit(
        self,
        shard: int,
        conn: Connection,
        wire_bytes: bytes,
        prior_attempts: int = 0,
    ) -> int:
        """Push one request frame through the (possibly faulty)
        transmit seam until at least one copy enters the pipe; returns
        the number of transmit attempts made."""
        attempts = 0
        while True:
            if prior_attempts + attempts >= _RETRY_LIMIT:
                raise RuntimeError(
                    f"shard worker {shard}: retransmission budget exhausted"
                )
            attempts += 1
            if attempts > 1:
                _telemetry.count("casper_worker_events_total", shard, "retransmit")
            if self._injector is None:
                deliveries = None
            else:
                deliveries = self._injector.transmit(
                    f"shard:{shard}", wire_bytes
                )
            try:
                if deliveries is None:
                    conn.send_bytes(wire_bytes)
                    return attempts
                for delivery in deliveries:
                    conn.send_bytes(delivery.payload)
                # Only a copy of the *current* frame counts as delivered:
                # a late (held-back) one may be stale traffic the worker
                # drops without replying, and waiting on it would end in
                # the hang timeout declaring a healthy worker dead.  Fresh
                # deliveries always elicit a reply or a NACK, so they
                # count even when corrupted.
                if any(
                    not delivery.late or delivery.payload == wire_bytes
                    for delivery in deliveries
                ):
                    return attempts
            except (BrokenPipeError, OSError) as exc:
                raise _WorkerDied(shard, f"pipe broke ({exc!r})") from None
            # Every copy of the current frame dropped or held: transmit
            # again (releasing any ripe held copies is itself
            # deterministic).

    def _decode_replies(
        self, shard: int, reply: Frame, ops: list[bytes]
    ) -> list:
        """One result per op, each reply checked against the kind the
        op table says its op earns."""
        if len(reply.envelopes) != len(ops):
            raise RuntimeError(
                f"shard worker {shard}: expected {len(ops)} replies, "
                f"got {len(reply.envelopes)}"
            )
        results: list = []
        for envelope, op in zip(reply.envelopes, ops):
            spec = op_spec(op)
            decoded = decode_response(envelope.payload)
            name = decoded[0]
            if name == "error":
                if spec.name == "check":
                    raise AssertionError(decoded[1])
                raise RuntimeError(
                    f"shard worker {shard} rejected an operation: {decoded[1]}"
                )
            if name == "unsat" and spec.reply == "cloak":
                results.append(_UNSAT)
            elif name != spec.reply:
                raise RuntimeError(
                    f"shard worker {shard}: expected {spec.reply}, got {name}"
                )
            elif name == "ack":
                results.append(True)
            elif name in ("cost", "cloak", "count", "blob"):
                results.append(decoded[1])
            else:
                raise RuntimeError(f"unknown reply kind {name!r}")
        return results

    # ------------------------------------------------------------------
    # Healing
    # ------------------------------------------------------------------
    def _crash_and_heal(self, victim: int) -> None:
        """Reap a dead (or deliberately killed) worker, flush the
        survivors, respawn and rebuild the victim's replica."""
        self.worker_crashes += 1
        _telemetry.count("casper_worker_events_total", victim, "crash")
        _telemetry.count("casper_recoveries_total", "worker_respawn")
        self._pool.kill(victim)
        self._authoritative[victim] = False
        # Survivors must apply their queued traffic first: the heal
        # source (parent mirror or survivor snapshot) has to reflect
        # every mutation the victim's lost batch carried.
        self._deliver(
            shard for shard in range(self.num_shards) if shard != victim
        )
        self._pool.spawn(victim)
        _telemetry.count("casper_worker_events_total", victim, "spawn")
        survivors = [
            shard
            for shard in range(self.num_shards)
            if shard != victim
            and self._pool.alive(shard)
            and self._authoritative[shard]
        ]
        if not self._partitioned and survivors:
            source = survivors[0]
            self._enqueue(source, op_snapshot())
            blob = self._flush_shard(source)[-1]
            snapshot, stats = pickle.loads(blob)
            package = ("install", (snapshot, stats))
        else:
            # Partition replication always heals from the parent mirror
            # (lossless: the mirror is authoritative for every record).
            # Broadcast policies fall back to it only with no survivor;
            # history-dependent structure (the adaptive cut) re-deepens
            # from current points, and worker stats restart.
            package = ("bootstrap", list(self.table.snapshot().rows()))
        self._enqueue(victim, op_install(pickle.dumps(package)))
        self._flush_shard(victim)
        # If the install exchange itself died, the nested heal that
        # caught it already re-installed the victim, so authority is
        # restored either way.
        self._authoritative[victim] = True
        self.worker_heals += 1
        _telemetry.count("casper_worker_events_total", victim, "heal")

    def _fetch_stats(self) -> list[dict]:
        """One decoded stats payload per worker (flushes everything)."""
        self._broadcast(op_stats())
        results = self.flush()
        return [
            pickle.loads(results[shard][-1])
            for shard in range(self.num_shards)
        ]
