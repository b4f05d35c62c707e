"""True parallel sharding: shard workers as separate OS processes.

This module runs each shard's pyramid subtree in its own worker
process, connected to the parent runtime over the framed wire protocol
of :mod:`repro.sharding.wire`.  Four pieces compose the subsystem:

* :class:`FrameEndpoint` — the server role of the protocol, stated
  once: apply a request frame's batch of *data-plane* operations to a
  replica and answer with a response frame.  Stop-and-wait sequence
  numbers make redelivery safe: a repeated sequence replays the cached
  reply instead of re-applying the batch.  The TCP front door
  (:mod:`repro.sharding.frontdoor`) serves exactly this.
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
  cloak cache — then evolves exactly like the in-process fleet's,
  because foreign confined moves never touch spine cells, block roots,
  or the worker's own blocks.  Foreign users' rows go stale on a
  replica — point and cell together, always inside the true block —
  and its foreign *interior* counts stay consistent with those rows,
  so every replica is a self-consistent fleet and passes the same
  ``check_invariants`` audit as the in-process one.  The parent computes
  all maintenance statistics itself (basic costs are pure functions of
  the cell walk), so ``stats`` needs no wire round trip.
* **broadcast** (every other policy — ``adaptive`` and the baselines:
  :class:`~repro.sharding.replicated.ReplicatedShardedAnonymizer`
  replicas) — the policy's state has no partitioned form (adaptive
  split/merge cascades read global counts, foreign points and
  profiles), so every mutation is broadcast and every worker holds one
  whole single-instance policy.  Identical operation streams keep
  every replica identical; cloaks route to the user's home shard, so
  each worker's cloak cache sees only its own shard's requests —
  cloaks are byte-identical, but aggregate ``cache_stats()`` hit/miss
  splits are the one number the parallel broadcast runtime does not
  reproduce from the in-process single cache.  Update costs come back
  on the wire (cost accounting inside split/merge cascades cannot be
  recomputed parent-side), which is why broadcast updates flush
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
between a parent and the worker processes it spawned — those are
control-plane operations (:data:`repro.sharding.wire.OPS`), which only a
:class:`ShardWorker` executes and only for the peer on its own pipe —
and is parsed only after the enclosing frame's CRC verified.
"""

from __future__ import annotations

import dataclasses
import multiprocessing
import pickle
import time
from dataclasses import dataclass
from multiprocessing.connection import Connection

from repro.anonymizer.basic import _UserRecord
from repro.anonymizer.cells import CellGrid, CellId
from repro.anonymizer.cloak import CloakedRegion
from repro.anonymizer.policy import get_policy
from repro.anonymizer.profile import PrivacyProfile
from repro.anonymizer.stats import MaintenanceStats
from repro.errors import (
    DuplicateUserError,
    ProfileUnsatisfiableError,
    UnknownUserError,
)
from repro.geometry import Point, Rect
from repro.messages import ShardEnvelope
from repro.observability import runtime as _telemetry
from repro.sharding.replicated import ReplicatedShardedAnonymizer
from repro.sharding.surface import ShardSurface
from repro.sharding.wire import (
    KIND_NACK,
    KIND_REQUEST,
    KIND_RESPONSE,
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

#: Sentinel for a cloak answered "profile unsatisfiable".
_UNSAT = object()


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
        replies = [
            ShardEnvelope(envelope.shard, self.execute(envelope.payload))
            for envelope in frame.envelopes
        ]
        self._last_seq = frame.seq
        self._last_reply = encode_frame(KIND_RESPONSE, frame.seq, replies)
        return self._last_reply

    def execute(self, payload: bytes) -> bytes:
        """Apply one operation; returns its response payload (an
        ``RE_ERROR`` one for anything that goes wrong)."""
        try:
            if op_spec(payload).data_plane:
                return self._apply_data(payload)
            return self._apply_control(payload)
        except AssertionError as exc:
            return response_error(f"invariant violation: {exc}")
        except Exception as exc:  # casperlint: ignore[CSP006] propagated as an RE_ERROR reply the parent re-raises
            return response_error(f"{type(exc).__name__}: {exc}")

    def _apply_data(self, payload: bytes) -> bytes:
        op = decode_op(payload)
        name = op[0]
        if name == "move":
            return response_cost(self._replica.update(op[1], op[2]))
        if name in ("cloak", "cloak_location"):
            try:
                region = getattr(self._replica, name)(*op[1:])
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
        self._partitioned = get_policy(config.kind).sharded is not None
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
    """Process entry point: run one shard worker until shutdown."""
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
    """Parent-side snapshot: the user mirror (always sufficient to
    rebuild a partitioned fleet) plus, for broadcast policies, a
    pickled replica snapshot taken on worker 0 (the adaptive cut is
    history-dependent, so points alone cannot reproduce it)."""

    kind: str
    records: tuple[tuple[object, Point, PrivacyProfile], ...]
    blob: bytes | None = None


class ParallelShardedAnonymizer(ShardSurface):
    """The sharded-anonymizer interface over real worker processes.

    Seeded operation streams produce byte-identical cloaks, costs and
    maintenance counters to the in-process sharded anonymizers (and
    hence to the single-pyramid implementations) — see the module
    docstring for the replication argument, and
    ``tests/test_parallel_equivalence.py`` for the oracle.
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
        #: How worker replicas stay consistent.  A policy with a native
        #: partitioned fleet routes confined mutations to one worker and
        #: lets the parent compute maintenance stats; every other policy
        #: broadcasts every mutation to whole replicas and reads
        #: stats/costs off the wire.
        self._partitioned = spec.sharded is not None
        self.grid = CellGrid(bounds, height)
        self._init_surface(num_shards, height)
        self._stats = MaintenanceStats()
        #: The parent's authoritative copy of every user's state.
        self._records: dict[object, _UserRecord] = {}
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
            self._note_event(shard, "spawn")

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

    def profile_of(self, uid: object) -> PrivacyProfile:
        return self._require(uid).profile

    def location_of(self, uid: object) -> Point:
        return self._require(uid).point

    def users_in_rect(self, rect: Rect) -> int:
        return sum(
            1
            for rec in self._records.values()
            if rect.contains_point(rec.point)
        )

    @property
    def num_maintained_cells(self) -> int:
        cells = self._fetch_stats()[0]["num_maintained_cells"]
        if cells is None:
            # The policy the workers replicate maintains no cut.
            raise AttributeError("num_maintained_cells")
        return cells

    def cache_stats_per_shard(self) -> dict[str, dict[str, int]]:
        """Per-worker cloak-cache traffic (each worker's own cache),
        in the report shape of the in-process deployments.

        Partitioned: byte-identical to the in-process fleet (each
        worker's own shard sees exactly the in-process traffic).
        Broadcast: each worker's whole-replica cache sees only its own
        shard's cloaks, so hit/miss splits — and their
        :meth:`cache_stats` sum — may differ from the in-process
        deployment's single cache.
        """
        own = (payload["own_cache"] for payload in self._fetch_stats())
        return self._shard_rows(dict(enumerate(own)))

    def _record_rows(self) -> tuple[tuple[object, Point, PrivacyProfile], ...]:
        """The mirror as ``(uid, point, profile)`` rows: what a snapshot
        keeps and what a ``bootstrap`` install re-registers."""
        return tuple(
            (uid, rec.point, rec.profile) for uid, rec in self._records.items()
        )

    def _require(self, uid: object) -> _UserRecord:
        try:
            return self._records[uid]
        except KeyError:
            raise UnknownUserError(uid) from None

    # ------------------------------------------------------------------
    # Registration and location updates
    # ------------------------------------------------------------------
    def register(
        self, uid: object, point: Point, profile: PrivacyProfile
    ) -> None:
        if uid in self._directory:
            raise DuplicateUserError(uid)
        cell = self.grid.cell_of(point)
        self._records[uid] = _UserRecord(profile, point, cell)
        self._set_home(uid, self.router.shard_of(cell))
        if self._partitioned:
            self._stats.registrations += 1
            self._stats.counter_updates += cell.level + 1
        self._broadcast(op_register(uid, point, profile))

    def deregister(self, uid: object) -> None:
        record = self._require(uid)
        if self._partitioned:
            self._stats.deregistrations += 1
            self._stats.counter_updates += record.cell.level + 1
        del self._records[uid]
        self._notify_op(self._drop_home(uid), "deregister")
        self._broadcast(op_deregister(uid))

    def set_profile(self, uid: object, profile: PrivacyProfile) -> None:
        self._require(uid).profile = profile
        self._broadcast(op_set_profile(uid, profile))

    def update(self, uid: object, point: Point) -> int:
        """Process a location update; returns its counter-update cost
        (identical to the in-process cost)."""
        record = self._require(uid)
        shard = self._directory[uid]
        old_cell = record.cell
        new_cell = self.grid.cell_of(point)
        record.point = point
        if self._partitioned:
            self._stats.location_updates += 1
            if new_cell == old_cell:
                # Same lowest-level cell: zero cost, but the owner still
                # needs the fresh coordinates for its record.
                self._enqueue(shard, op_move(uid, point))
                return 0
        # Mirror the move and rehome the user, as the replicas will
        # (only a move that leaves its level-S block can change homes).
        record.cell = new_cell
        self._notify_op(shard, "update", occupancy=False)
        ancestor_level = self.grid.common_ancestor_level(old_cell, new_cell)
        crossing = self.router.crosses_boundary(ancestor_level)
        if crossing:
            self._set_home(uid, self.router.shard_of(new_cell))
        if not self._partitioned:
            return self._broadcast_move(uid, point)
        cost = 2 * (old_cell.level - ancestor_level)
        if crossing:
            # Spine/block-root state changed: every replica must see it.
            self._broadcast(op_move(uid, point))
        else:
            self._enqueue(shard, op_move(uid, point))
        self._stats.counter_updates += cost
        self._stats.cell_changes += 1
        return cost

    def _broadcast_move(self, uid: object, point: Point) -> int:
        """Ship one move to every whole replica and read its cost back.

        The cost depends on split/merge cascades only the replicas can
        evaluate, so broadcast updates flush synchronously; any
        replica's answer is authoritative (identical op streams)."""
        self._broadcast(op_move(uid, point))
        results = self.flush()
        for shard in sorted(results):
            shard_results = results[shard]
            if shard_results and shard_results[-1] is not None:
                return shard_results[-1]
        # Only reachable when every worker died mid-exchange and healed
        # from the parent mirror (which already includes this move).
        return 0

    def update_batch(self, moves: list[tuple[object, Point]]) -> list[int]:
        """Apply a tick's worth of location updates.

        Partitioned updates defer into per-shard pending batches — the
        whole tick ships as one frame per shard at the closing flush,
        which is where the process pool's throughput comes from.
        Broadcast updates are inherently synchronous (costs come back
        on the wire) and apply in arrival order.
        """
        costs = [self.update(uid, point) for uid, point in moves]
        if self._partitioned:
            self.flush()
        return costs

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
        request = (profile, shard, op_cloak_location(point, profile), None)
        return self._cloak_requests([request])[0]

    def cloak_many(self, uids: list[object]) -> list[CloakedRegion]:
        """Cloak a batch of users with one frame per involved shard.

        Results come back in input order.  If any profile is
        unsatisfiable the earliest such user raises — after the whole
        batch executed, so ``cloak_requests`` counts every entry (the
        one divergence from looping :meth:`cloak`, which stops at the
        first failure).
        """
        return self._cloak_requests(
            (self._require(uid).profile, self._directory[uid], op_cloak(uid), uid)
            for uid in uids
        )

    def _cloak_requests(self, requests) -> list[CloakedRegion]:
        """Ship ``(profile, shard, op, uid)`` cloak requests (``uid``
        is ``None`` for an ad-hoc location) and collect their regions,
        with the accounting and telemetry of the in-process cloak."""
        placed = []
        for profile, shard, op, uid in requests:
            self._stats.cloak_requests += 1
            placed.append((profile, shard, self._enqueue(shard, op), uid))
        obs = _telemetry.active()
        start = monotonic()
        flushed: dict[int, list] = {}
        regions: list[CloakedRegion] = []
        for _, shard, position, uid in placed:
            if shard not in flushed:
                flushed[shard] = self._flush_shard(shard)
            region = flushed[shard][position]
            if region is _UNSAT:
                subject = "ad-hoc location" if uid is None else f"user {uid!r}"
                raise ProfileUnsatisfiableError(
                    f"profile unsatisfiable for {subject} "
                    f"(reported by shard worker {shard})"
                )
            regions.append(region)
        if obs is not None:
            share = (monotonic() - start) / max(len(placed), 1)
            for region, (profile, shard, _, _) in zip(regions, placed):
                _telemetry.record_cloak(
                    obs, self.kind, share, region.area,
                    profile.a_min, region.achieved_k, profile.k,
                )
                _telemetry.record_shard_cloak(obs, shard, self._route_of(region))
        return regions

    def cell_count(self, cell: CellId) -> int:
        """Population of one maintained cell, read from the replica
        that is authoritative for it."""
        if not self._partitioned or cell.level < self.router.spine_level:
            shard = 0
        else:
            shard = self.router.shard_of(cell)
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
        records = self._record_rows()
        if self._partitioned:
            return _ParallelSnapshot(self.kind, records)
        self.flush()
        self._enqueue(0, op_snapshot())
        blob = self._flush_shard(0)[-1]
        return _ParallelSnapshot(self.kind, records, blob)

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
        self._discard_pending()
        self._records = {
            uid: _UserRecord(profile, point, self.grid.cell_of(point))
            for uid, point, profile in state.records
        }
        self._load_directory(
            {
                uid: self.router.shard_of(rec.cell)
                for uid, rec in self._records.items()
            }
        )
        if self._partitioned:
            package = ("bootstrap", state.records)
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
        assert set(self._records) == set(self._directory), (
            "parent mirror/directory key drift"
        )
        self._check_directory()
        for uid, rec in self._records.items():
            assert rec.cell == self.grid.cell_of(rec.point), (
                f"parent mirror stale cell for {uid!r}"
            )
            assert self._directory[uid] == self.router.shard_of(rec.cell), (
                f"parent directory mis-homes {uid!r}"
            )
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
                    self._roundtrip(shard, [op_shutdown()])
                except (_WorkerDied, RuntimeError, WireError):
                    pass
                self._note_event(shard, "shutdown")
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
        return {
            shard: self._flush_shard(shard)
            for shard in range(self.num_shards)
        }

    def _flush_shard(self, shard: int) -> list:
        pending = self._pending[shard]
        if not pending:
            return []
        self._pending[shard] = []
        results: list = []
        for start in range(0, len(pending), MAX_BATCH):
            results.extend(
                self._exchange(shard, pending[start : start + MAX_BATCH])
            )
        return results

    def _next_seq(self) -> int:
        self._seq = (self._seq + 1) % 2**32 or 1
        return self._seq

    def _exchange(self, shard: int, ops: list[bytes], depth: int = 0) -> list:
        """One stop-and-wait exchange, healing through worker deaths.

        Returns one result per op.  After a mid-exchange death the
        victim is rebuilt to *post-batch* state (survivors were flushed
        first, so a parent-mirror or survivor-snapshot heal already
        reflects this batch's mutations); only the ops the table marks
        re-issuable re-run, and lost mutation results surface as
        ``None``.
        """
        try:
            reply = self._roundtrip(shard, ops)
        except _WorkerDied:
            if depth >= _HEAL_LIMIT:
                raise RuntimeError(
                    f"shard worker {shard} kept dying; giving up"
                ) from None
            self._crash_and_heal(shard)
            results: list = [None] * len(ops)
            retry = [
                index
                for index, op in enumerate(ops)
                if op_spec(op).reissuable
            ]
            if retry:
                retried = self._exchange(
                    shard, [ops[index] for index in retry], depth + 1
                )
                for index, value in zip(retry, retried):
                    results[index] = value
            return results
        return self._decode_replies(shard, reply, ops)

    def _roundtrip(self, shard: int, ops: list[bytes]) -> Frame:
        """Deliver one request frame and wait for its matching reply,
        retransmitting through injected drops, corruption and NACKs."""
        seq = self._next_seq()
        wire_bytes = encode_frame(
            KIND_REQUEST, seq, [ShardEnvelope(shard, op) for op in ops]
        )
        conn = self._pool.conn(shard)
        start = monotonic()
        attempts = self._transmit(shard, conn, wire_bytes)
        deadline = start + self._hang_timeout
        while True:
            remaining = deadline - monotonic()
            if remaining <= 0 or not conn.poll(remaining):
                self._note_event(shard, "timeout")
                raise _WorkerDied(shard, "no reply within the hang timeout")
            try:
                raw = conn.recv_bytes()
            except (EOFError, OSError) as exc:
                raise _WorkerDied(shard, f"pipe closed ({exc!r})") from None
            payloads = self._deliver_response(shard, raw)
            if not payloads:
                # The injector dropped/held the reply; ask for a replay.
                attempts += self._transmit(shard, conn, wire_bytes, attempts)
                continue
            for payload in payloads:
                try:
                    reply = decode_frame(payload)
                except WireError:
                    # Reply corrupted on the wire: replay, like a NACK.
                    self._note_event(shard, "nack")
                    attempts += self._transmit(shard, conn, wire_bytes, attempts)
                    continue
                if reply.kind == KIND_NACK:
                    # The worker CRC-rejected our (corrupted) request.
                    self._note_event(shard, "nack")
                    attempts += self._transmit(shard, conn, wire_bytes, attempts)
                    continue
                if reply.kind == KIND_RESPONSE and reply.seq == seq:
                    obs = _telemetry.active()
                    if obs is not None:
                        _telemetry.record_worker_roundtrip(
                            obs, shard, monotonic() - start
                        )
                        _telemetry.record_worker_batch(
                            obs, shard, len(reply.envelopes)
                        )
                    return reply
                # A stale duplicate of an already-finished exchange:
                # drain silently, the reply for `seq` is still coming.

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
                self._note_event(shard, "retransmit")
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
                # Only a copy of the *current* frame counts as delivered.
                # A late (held-back) delivery may be stale traffic from an
                # earlier exchange, which the worker drops without
                # replying — counting it would leave the parent waiting
                # for a reply that never comes until the hang timeout
                # declares a perfectly healthy worker dead.  Fresh
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

    def _deliver_response(self, shard: int, raw: bytes) -> list[bytes]:
        if self._injector is None:
            return [raw]
        deliveries = self._injector.transmit(f"shard-resp:{shard}", raw)
        return [delivery.payload for delivery in deliveries]

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
        self._note_event(victim, "crash")
        _telemetry.note_recovery("worker_respawn")
        self._pool.kill(victim)
        self._authoritative[victim] = False
        # Survivors must apply their queued traffic first: the heal
        # source (parent mirror or survivor snapshot) has to reflect
        # every mutation the victim's lost batch carried.
        for shard in range(self.num_shards):
            if shard != victim:
                self._flush_shard(shard)
        self._pool.spawn(victim)
        self._note_event(victim, "spawn")
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
            package = ("bootstrap", self._record_rows())
        self._enqueue(victim, op_install(pickle.dumps(package)))
        self._flush_shard(victim)
        # If the install exchange itself died, the nested heal that
        # caught it already re-installed the victim, so authority is
        # restored either way.
        self._authoritative[victim] = True
        self.worker_heals += 1
        self._note_event(victim, "heal")

    def _fetch_stats(self) -> list[dict]:
        """One decoded stats payload per worker (flushes everything)."""
        self._broadcast(op_stats())
        results = self.flush()
        return [
            pickle.loads(results[shard][-1])
            for shard in range(self.num_shards)
        ]

    def _note_event(self, shard: int, event: str) -> None:
        obs = _telemetry.active()
        if obs is not None:
            _telemetry.record_worker_event(obs, shard, event)
