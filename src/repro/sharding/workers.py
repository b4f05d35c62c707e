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
  pipe: it adds the *control plane* (its replica's cloak-cache counters
  as a ``stats`` blob, the ``install`` of a pickled deployment snapshot,
  invariant sweeps, chaos hangs, shutdown) and the ``NACK`` answer to a
  request that failed its CRC.
* :class:`WorkerPool` — the supervisor: spawns one process per shard
  over a duplex pipe, health-checks, kills, respawns and tears the
  fleet down deterministically (idempotent, exception-safe).
* :class:`ParallelShardedAnonymizer` — the parent-side runtime
  implementing the exact sharded-anonymizer interface, so
  ``Casper(shards=N, parallel=True)``, batch queries and the
  continuous monitor work unchanged on top of real processes.

One deployment: every worker's replica and the parent's mirror are the
in-process deployment — the
:class:`~repro.sharding.replicated.ReplicatedShardedAnonymizer` that
``make_sharded`` builds from the same arguments.  The parent keeps its
mirror and applies every mutation to it before queueing the mutation
for the workers.  Who is registered, homes, occupancy, update costs,
maintenance statistics, ``cell_count``, snapshots and a lone cloak
(``cloak``, ``cloak_location``: no frame sent) are that deployment's
own answers, so they are the in-process deployment's by construction.
A batch is the fleet's: ``cloak_many`` alone has parallelism to use.

Delivery rule: mutations *queue* in the parent, per shard; a batch of
cloaks (or an explicit ``flush()``) *delivers* them — scatter, then
gather: every involved shard's frame is sent before any reply is
awaited, one ``MAX_BATCH`` chunk per shard per round, so the workers
compute concurrently and each pipe carries at most one unanswered
frame.  Applied moves queue as a shard's *open run*, packed into
``moves`` ops (columns of uids and coordinates) of ``MAX_BATCH`` moves
as it fills and of the rest when any other op is queued behind it or
its shard is delivered — so per-shard order is arrival order, and a
move costs the parent one list append until then.  A mutation that
fills a queue to ``MAX_BATCH`` ops, one frame's worth, delivers its
full frames, so between calls every run and queue holds fewer than
``MAX_BATCH`` (a refused batch leaves its prefix to the next call).
A batch of cloaks crosses as one packed ``cloaks`` op per involved
shard per ``MAX_BATCH`` users, answered by one ``cloak_many``.

Traffic rule — every worker holds one whole replica and cloaks route
to the user's home shard, so each worker's cloak cache sees only its
own shard's requests.  Registrations, deregistrations and profile
changes are broadcast.  A move is broadcast too, unless the policy is
``block_local`` (:attr:`~repro.anonymizer.policy.PolicySpec
.block_local`: its cloaks read only the user's level-``S`` block and
the cells at or above level ``S`` — the complete pyramid) and the move
stays inside its block: then it changes nothing another worker's
cloaks read, and goes to its home worker alone.  Foreign users' rows
go stale on such a replica — point and cell together, always inside
the true block — and its foreign block interiors stay consistent with
those rows, so every replica passes its own ``check_invariants``.
Either way cloaks are *byte-identical* to the in-process deployment's,
and each is one lookup in one cache (the mirror's or its home
worker's), so lookups sum to the in-process deployment's one cache's.
Their hit/miss split may differ from it: a key cloaked alone and also
in a batch within one generation misses once in each of two caches
here.

Failure model: the parent's transmit seam feeds every frame — in both
directions — through an attached
:class:`~repro.resilience.faults.FaultInjector`, so chaos drops,
duplicates, delays, reorders and corrupts the *actual bytes* crossing
the pipes.  Dropped or corrupted frames retransmit (the worker replays
from its dedup cache); a worker that dies or hangs past
:data:`HANG_TIMEOUT` is killed, respawned and healed.  One heal path: the
replacement installs a snapshot of the parent's deployment, which
already holds every mutation the victim lost — availability degrades
for the duration, never privacy.

Pickle travels only inside ``install``/``stats`` blobs between a parent
and the worker processes it spawned — control-plane operations
(:data:`repro.sharding.wire.OPS`), which only a :class:`ShardWorker`
executes and only for the peer on its own pipe — and is parsed only
after the enclosing frame's CRC verified.
"""

from __future__ import annotations

import multiprocessing
import pickle
import time
from dataclasses import dataclass
from itertools import chain, groupby, repeat
from multiprocessing.connection import Connection
from operator import itemgetter
from typing import Any, Callable, Iterable, Sequence

import numpy as np

from repro.anonymizer.cells import CellGrid, CellId
from repro.anonymizer.cloak import CloakedRegion
from repro.anonymizer.policy import get_policy
from repro.anonymizer.profile import PrivacyProfile
from repro.anonymizer.soa import UserTable, points_in_rect
from repro.anonymizer.stats import MaintenanceStats
from repro.errors import CasperError, ProfileUnsatisfiableError
from repro.geometry import Point, Rect
from repro.observability import runtime as _telemetry
from repro.sharding.replicated import ReplicatedShardedAnonymizer
from repro.sharding.router import ShardRouter
from repro.sharding.surface import CACHE_KEYS, ShardSurface
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
    op_check,
    op_cloaks,
    op_deregister,
    op_install,
    op_moves,
    op_ping,
    op_register,
    op_set_profile,
    op_shutdown,
    op_spec,
    op_stats,
    response_ack,
    response_blob,
    response_cloak,
    response_cloak_unsatisfiable,
    response_cloaks,
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

#: Seconds the parent waits for a worker's reply before declaring the
#: worker hung, killing and healing it.
HANG_TIMEOUT = 5.0

#: A payload's opcode byte (``b""`` for an empty payload), and the
#: opcodes whose runs an endpoint coalesces.
_OPCODE = itemgetter(slice(0, 1))
_MOVE, _CLOAK = bytes([OP_MOVE]), bytes([OP_CLOAK])

#: What :meth:`FrameEndpoint._regions` hands ``cloak_many`` to learn
#: which profiles are unsatisfiable (``None`` on the wire's far side).
_UNSAT: Any = object()
_UNSAT_REPLY = response_cloak_unsatisfiable()


def _chunks(items: list) -> list[list]:
    """``items`` in consecutive runs of at most ``MAX_BATCH``."""
    return [items[at : at + MAX_BATCH] for at in range(0, len(items), MAX_BATCH)]


@dataclass(frozen=True)
class _WorkerConfig:
    """Everything a worker process needs to build its replica."""

    kind: str
    bounds: Rect
    height: int
    num_shards: int
    cloak_cache_size: int


def _build_replica(config: _WorkerConfig) -> ReplicatedShardedAnonymizer:
    """Build the in-process deployment of ``config.kind`` — what
    ``make_sharded`` returns, what the worker pool's parent keeps and
    what every worker replicates."""
    return ReplicatedShardedAnonymizer(
        get_policy(config.kind),
        config.bounds,
        height=config.height,
        num_shards=config.num_shards,
        cloak_cache_size=config.cloak_cache_size,
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
        payloads = [payload for _shard, payload in frame.envelopes]
        for opcode, run in groupby(payloads, key=_OPCODE):
            replies += self._run(opcode, list(run))
        self._last_seq = frame.seq
        self._last_reply = encode_frame(
            KIND_RESPONSE,
            frame.seq,
            zip([shard for shard, _payload in frame.envelopes], replies),
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
        accepted = zip(self._accepted(payloads), payloads)
        for refused, stretch in groupby(accepted, key=lambda pair: pair[0] is None):
            if refused:
                replies += [self.execute(payload) for _none, payload in stretch]
            else:
                replies += self._guarded(batch, [args for args, _ in stretch])
        return replies

    def _accepted(self, payloads: list[bytes]) -> list[tuple | None]:
        """Per payload, ``(uid, point)`` of a move / ``(uid,)`` of a
        cloak the replica will accept; ``None`` for one it would refuse
        (unknown uid, point outside the service area, undecodable
        payload).  Neither op changes who is registered, so the answers
        hold for the whole run."""
        table, inside = self._replica.table, self._replica.grid.contains
        accepted: list[tuple | None] = []
        for payload in payloads:
            try:
                op = decode_op(payload)
            except ValueError:
                accepted.append(None)
                continue
            known = op[1] in table and (len(op) == 2 or inside(op[2]))
            accepted.append(op[1:] if known else None)
        return accepted

    def _moves(self, moves: list[tuple]) -> list[bytes]:
        return list(map(response_cost, self._replica.update_batch(moves)))

    def _cloaks(self, cloaks: list[tuple]) -> list[bytes]:
        regions = self._regions([uid for (uid,) in cloaks])
        return [_UNSAT_REPLY if r is None else response_cloak(r) for r in regions]

    def _regions(self, uids: Sequence[object]) -> list[CloakedRegion | None]:
        """The replica's regions for ``uids``, ``None`` where unsatisfiable."""
        regions = self._replica.cloak_many(uids, unsatisfiable=_UNSAT)
        return [None if r is _UNSAT else r for r in regions]

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

    def __init__(self, config: _WorkerConfig, conn: Connection | None) -> None:
        super().__init__(_build_replica(config))
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
            return response_blob(pickle.dumps(self._replica.cache_stats()))
        if name == "moves":
            return self._apply_moves(op[1], op[2], op[3])
        if name == "cloaks":
            return response_cloaks(self._regions(op[1]))
        if name == "install":
            # A snapshot of the parent's deployment: the whole state.
            self._replica.restore(pickle.loads(op[1]))
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

    def _apply_moves(
        self, uids: Sequence[object], xs: Sequence[float], ys: Sequence[float]
    ) -> bytes:
        """A packed run of moves as one ``update_batch``, checked whole
        first (what :meth:`_accepted` checks per move, the grid test in
        its array form): a run the replica would refuse anywhere is
        refused entirely, with an ``RE_ERROR`` that names no
        coordinate."""
        replica = self._replica
        inside = points_in_rect(replica.grid.bounds, np.asarray(xs), np.asarray(ys))
        if not (inside.all() and all(map(replica.__contains__, uids))):
            return response_error(
                f"moves refused: a run of {len(uids)} names an unregistered "
                "user or a point outside the service area"
            )
        replica.update_batch(list(zip(uids, map(Point, xs, ys))))
        return response_ack()


def _worker_main(config: _WorkerConfig, conn: Connection) -> None:
    """Process entry point: run one shard worker until shutdown.

    Telemetry is the parent's: a forked worker inherits a copy of the
    session the pool was built under and would time and record every
    cloak into a registry nothing can read (a spawned one starts with
    none), so the replica runs with telemetry off either way."""
    _telemetry.disable()
    ShardWorker(config, conn).run()


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
                args=(self.config, child_conn),
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


class ParallelShardedAnonymizer(ShardSurface):
    """The sharded-anonymizer interface over real worker processes.

    The parent keeps the in-process deployment its workers replicate
    and applies every mutation to it first, so population reads, homes,
    occupancy, costs, statistics, ``cell_count``, snapshots and a lone
    cloak are that deployment's answers; a batch is the workers'.
    Seeded operation streams produce byte-identical cloaks, costs and
    maintenance counters to the in-process deployment (and hence to the
    single policy instance) — see the module docstring for the traffic
    rule, and the ``parallel`` lane of ``tests/test_spec_machine.py``
    for the oracle.
    """

    def __init__(
        self,
        bounds: Rect,
        height: int = 9,
        num_shards: int = 1,
        kind: str = "basic",
        cloak_cache_size: int = 8192,
    ) -> None:
        spec = get_policy(kind)
        if spec.check_height is not None:
            # In the parent, before any worker exists to discover it.
            spec.check_height(height)
        self.kind = kind
        self.grid = CellGrid(bounds, height)
        self.router = ShardRouter(num_shards, height)
        #: The traffic rule (module docstring): whether a block-confined
        #: move goes to its home worker alone.
        self._block_local = spec.block_local
        self._pending: list[list[bytes]] = [[] for _ in range(num_shards)]
        #: Each shard's open run of applied ``(uid, x, y)`` moves, not
        #: yet packed into its queue (module docstring).
        self._runs: list[list[tuple[object, float, float]]] = [
            [] for _ in range(num_shards)
        ]
        self._seq = 0
        self._injector = None
        self._closed = False
        self.worker_crashes = 0
        self.worker_heals = 0
        config = _WorkerConfig(kind, bounds, height, num_shards, cloak_cache_size)
        self._pool = WorkerPool(config)
        self._pool.spawn_all()
        for shard in range(num_shards):
            _telemetry.count("casper_worker_events_total", shard, "spawn")
        try:
            #: The one mirror: the in-process deployment every worker
            #: replicates — built after the fork, so no worker inherits
            #: its pages.
            self._local = _build_replica(config)
        except BaseException:
            self._pool.shutdown()
            raise

    # ------------------------------------------------------------------
    # Introspection (answered by the local deployment — no IPC — but
    # for the workers' own cloak caches)
    # ------------------------------------------------------------------
    def __enter__(self) -> "ParallelShardedAnonymizer":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    @property
    def table(self) -> UserTable:
        return self._live().table

    @property
    def stats(self) -> MaintenanceStats:
        """The local deployment's maintenance counters; the cloaks it
        never serves are counted at the routing seam."""
        return self._live().stats

    def shard_occupancy(self) -> list[int]:
        return self._live().shard_occupancy()

    def cell_count(self, cell: CellId) -> int:
        return self._live().cell_count(cell)

    def cache_stats_per_shard(self) -> dict[str, dict[str, int]]:
        """Cloak-cache traffic per worker, keyed ``"0"``..``"N-1"``, plus
        the parent's as ``"spine"``: the mirror's, which serves the lone
        cloaks (zero under batch-only traffic); the module docstring
        says what their sum shares with the in-process deployment's."""
        for shard in range(self.num_shards):  # no _bound: flush() reads these
            self._enqueue(shard, op_stats())
        results = self.flush()
        rows = {str(shard): pickle.loads(results[shard][-1]) for shard in results}
        rows["spine"] = self._live().cache_stats()
        return rows

    def cache_stats(self) -> dict[str, int]:
        """Aggregate cloak-cache traffic: the per-worker rows, summed."""
        rows = self.cache_stats_per_shard().values()
        return {key: sum(row[key] for row in rows) for key in CACHE_KEYS}

    # ------------------------------------------------------------------
    # Registration and location updates: the local deployment applies
    # (and refuses) each mutation, then the workers that need it queue it
    # ------------------------------------------------------------------
    def register(
        self, uid: object, point: Point, profile: PrivacyProfile
    ) -> None:
        op = op_register(uid, point, profile)  # refuses an unshippable uid first
        self._live().register(uid, point, profile)
        self._broadcast(op)

    def deregister(self, uid: object) -> None:
        self._live().deregister(uid)
        self._broadcast(op_deregister(uid))

    def set_profile(self, uid: object, profile: PrivacyProfile) -> None:
        self._live().set_profile(uid, profile)
        self._broadcast(op_set_profile(uid, profile))

    def update(self, uid: object, point: Point) -> int:
        """Process a location update; returns its counter-update cost
        (the local deployment's)."""
        local = self._live()
        table = local.table
        slot = table.require(uid)
        old = int(table.cells[slot])
        cost: int = local.update(uid, point)
        self._queue_moves([(uid, point)], [old], [int(table.cells[slot])])
        self._bound()
        return cost

    def update_batch(self, moves: list[tuple[object, Point]]) -> list[int]:
        """Apply a tick's worth of location updates: the local
        deployment's ``update_batch`` — costs, end state and, on the
        first refused point, the exception and the applied prefix are
        the sequential :meth:`update` loop's — with each applied move
        queued for the workers it concerns.  A batch naming a stranger
        or one user twice runs that loop."""
        local = self._live()
        table = local.table
        slots = self._distinct_slots(moves)
        if slots is None:
            return [self.update(uid, point) for uid, point in moves]
        old = table.cells[slots]
        applied = moves
        try:
            costs = local._update_distinct(moves, slots)
        except CasperError:
            applied = moves[: len(table.locate_moves(moves)[0])]
            raise
        finally:
            self._queue_moves(applied, old.tolist(), table.cells[slots].tolist())
        self._bound()
        return costs

    def _queue_moves(
        self, moves: list[tuple[object, Point]], old: list[int], new: list[int]
    ) -> None:
        """Append applied moves (leaves ``old`` to ``new``, per move) to
        open runs by the traffic rule (module docstring): every
        worker's, unless the policy is ``block_local`` and the move
        stays inside its level-S block — then its home's alone (even
        within its cell, the home needs the fresh coordinates for its
        record).  A full run is queued ``MAX_BATCH`` moves at a time."""
        runs, shift = self._runs, self.router.leaf_shift
        home_of, block_local = self.router.owner_of_leaf, self._block_local
        for (uid, point), m, n in zip(moves, old, new):
            # Plain atoms: the collector stops tracking a run's rows.
            move = (uid, point.x, point.y)
            if block_local and not (m ^ n) >> shift:
                runs[home_of(m)].append(move)
            else:
                for run in runs:
                    run.append(move)
        for pending, run in zip(self._pending, runs):
            while len(run) >= MAX_BATCH:
                pending.append(op_moves(*zip(*run[:MAX_BATCH])))
                del run[:MAX_BATCH]

    def _seal(self, shard: int) -> None:
        """Pack a shard's open run onto its queue as one ``moves`` op."""
        run = self._runs[shard]
        if run:
            self._pending[shard].append(op_moves(*zip(*run)))
            run.clear()

    def _bound(self) -> None:
        """Deliver every queue's full frames (``MAX_BATCH`` ops): every
        mutation ends so, and a fleet never read keeps bounded queues."""
        if any(len(ops) >= MAX_BATCH for ops in self._pending):
            self._deliver(range(self.num_shards), full=True)

    # ------------------------------------------------------------------
    # Cloaking
    # ------------------------------------------------------------------
    def cloak(self, uid: object) -> CloakedRegion:
        """The mirror's cloak — the in-process deployment's region,
        accounting, telemetry and errors — with no frame sent."""
        return self._live().cloak(uid)

    def cloak_location(self, point: Point, profile: PrivacyProfile) -> CloakedRegion:
        """The mirror's cloak of an ad-hoc location, as :meth:`cloak`."""
        return self._live().cloak_location(point, profile)

    def cloak_many(
        self, uids: Iterable[object], unsatisfiable: CloakedRegion | None = None
    ) -> list[CloakedRegion]:
        """Cloak a batch of users on the fleet — the one cloak read
        that crosses the pipes — with one packed ``cloaks`` op per
        involved shard (per ``MAX_BATCH`` users), the shards working
        concurrently: the contract of
        :meth:`~repro.anonymizer.cloak.BatchCloaking.cloak_many`:
        regions in input order, ``unsatisfiable`` standing in per item,
        else the earliest unsatisfiable user raising after the whole
        batch executed.  An unknown uid raises before anything is sent."""
        uids = list(uids)
        homes = list(map(self.shard_of_user, uids))
        batches: dict[int, list[object]] = {}
        for uid, home in zip(uids, homes):
            batches.setdefault(home, []).append(uid)
        ops = {shard: list(map(op_cloaks, _chunks(batch))) for shard, batch in batches.items()}
        self.stats.cloak_requests += len(uids)
        for shard, batch in ops.items():
            for op in batch:
                self._enqueue(shard, op)
        traced = _telemetry.active() is not None
        start = monotonic()
        flushed = self._deliver(ops)
        share = (monotonic() - start) / max(len(uids), 1)
        answers = {
            shard: iter(chain.from_iterable(flushed[shard][-len(batch) :]))
            for shard, batch in ops.items()
        }
        regions: list[CloakedRegion] = []
        failure: ProfileUnsatisfiableError | None = None
        for shard, uid in zip(homes, uids):
            region = next(answers[shard])
            if region is None:
                if unsatisfiable is None and failure is None:
                    failure = ProfileUnsatisfiableError(
                        f"profile unsatisfiable for user {uid!r} "
                        f"(reported by shard worker {shard})"
                    )
                region = unsatisfiable
            elif traced:
                asked = self.profile_of(uid)
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

    # ------------------------------------------------------------------
    # Crash recovery and diagnostics
    # ------------------------------------------------------------------
    def snapshot(self) -> object:
        """The local deployment's snapshot (no wire traffic): the
        in-process deployment and the worker pool restore each other's."""
        return self._live().snapshot()

    def restore(self, state: object) -> None:
        """Restore the fleet from a :meth:`snapshot` copy: the local
        deployment's own ``restore`` — statistics and every refusal as
        in-process — then its state installed on every worker, behind
        (and replacing) whatever is still queued for them."""
        self._live().restore(state)
        self._broadcast(self._install_op())
        self.flush()

    def crash_worker(self, victim: int) -> None:
        """Kill one worker process and heal its replacement — the
        chaos harness's shard-crash fault, exercised over the real
        transport.  The replacement is a fresh process, so its cloak
        cache counters restart at zero."""
        if not 0 <= victim < self.num_shards:
            raise ValueError(f"no such shard: {victim}")
        self._live()
        self._heal(victim)

    def check_invariants(self) -> None:
        """Assert the local deployment's invariants, then every
        worker's replica invariants (each replica's own
        ``check_invariants``)."""
        self._live().check_invariants()
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
        """Stop the worker fleet and drop the parent's deployment — its
        copy of every exact location — so a closed fleet refuses reads
        as well as writes.  Idempotent and exception-safe: the pool
        reaps every process even when the graceful shutdown handshake
        fails."""
        if self._closed:
            return
        self._closed = True
        self._local = None
        try:
            self._pending = [[] for _ in range(self.num_shards)]
            self._runs = [[] for _ in range(self.num_shards)]
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
    def _enqueue(self, shard: int, op: bytes) -> None:
        """Queue one operation for a shard, behind its open run.  What
        reply it earns is the op table's business
        (:data:`repro.sharding.wire.OPS`), not the caller's."""
        self._live()
        self._seal(shard)
        self._pending[shard].append(op)

    def _live(self) -> Any:
        """The local deployment, while the fleet is open."""
        if self._closed:
            raise RuntimeError("parallel anonymizer is closed")
        return self._local

    def _broadcast(self, op: bytes) -> None:
        """Queue an op for every worker, then :meth:`_bound` the queues."""
        for shard in range(self.num_shards):
            self._enqueue(shard, op)
        self._bound()

    def flush(self) -> dict[int, list]:
        """Deliver every shard's open run and pending batch; per-shard
        result lists align with enqueue order."""
        for shard in range(self.num_shards):
            self._seal(shard)
        return self._deliver(range(self.num_shards))

    def _deliver(
        self, shards: Iterable[int], depth: int = 0, full: bool = False
    ) -> dict[int, list]:
        """Deliver the pending batches of ``shards`` (``full``: only
        their whole ``MAX_BATCH`` chunks): scatter, then gather, one
        chunk per shard per round — every frame is on its pipe before
        any reply is awaited, so the workers compute concurrently, one
        unanswered frame per pipe.

        A worker that dies sits out the remaining rounds, then is healed
        to the local deployment's state, which already holds *all* its
        undelivered mutations, so of its lost and remaining chunks only
        the ops the table marks re-issuable re-run; lost mutation
        results surface as ``None``.
        """
        pending = self._pending
        results: dict[int, list] = {shard: [] for shard in sorted(shards)}
        died: dict[int, list[bytes]] = {}
        while True:
            chunks = {
                shard: pending[shard][:MAX_BATCH]
                for shard in results
                if len(pending[shard]) >= (MAX_BATCH if full else 1)
                and shard not in died
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
            lost += pending[victim]
            self._heal(victim)
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
        wire_bytes = encode_frame(KIND_REQUEST, seq, zip(repeat(shard), ops))
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
        deadline = start + HANG_TIMEOUT
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
        op table says its op earns; a cloak op's is its list of regions
        (one per uid, ``None`` where a profile is unsatisfiable)."""
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
                results.append([None])
            elif name != spec.reply:
                raise RuntimeError(
                    f"shard worker {shard}: expected {spec.reply}, got {name}"
                )
            elif name == "ack":
                results.append(True)
            elif name == "cloak":  # every cloak op answers a list
                results.append([decoded[1]])
            elif name in ("cost", "cloaks", "count", "blob"):
                results.append(decoded[1])
            else:
                raise RuntimeError(f"unknown reply kind {name!r}")
        return results

    # ------------------------------------------------------------------
    # Healing
    # ------------------------------------------------------------------
    def _install_op(self) -> bytes:
        """An ``install`` carrying the local deployment's state."""
        return op_install(pickle.dumps(self._live().snapshot()))

    def _heal(self, victim: int) -> None:
        """Respawn a dead (or deliberately killed) worker and install
        the local deployment's state on the replacement — the one heal
        path: that state holds every mutation the victim ever lost, and
        no other worker is consulted.  What is still queued for the
        victim is in that state too, so the queue and open run go."""
        install = self._install_op()
        self._pending[victim].clear()
        self._runs[victim].clear()
        for _ in range(_HEAL_LIMIT):
            self.worker_crashes += 1
            _telemetry.count("casper_worker_events_total", victim, "crash")
            _telemetry.count("casper_recoveries_total", "worker_respawn")
            self._pool.spawn(victim)
            _telemetry.count("casper_worker_events_total", victim, "spawn")
            try:
                reply = self._receive(victim, *self._send(victim, [install]))
            except _WorkerDied:
                continue
            self._decode_replies(victim, reply, [install])
            self.worker_heals += 1
            _telemetry.count("casper_worker_events_total", victim, "heal")
            return
        raise RuntimeError(f"shard worker {victim} kept dying; giving up")
