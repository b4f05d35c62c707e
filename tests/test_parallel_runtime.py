"""Lifecycle, supervision and transport tests for the process pool.

Covers what the equivalence suite does not: the ``WorkerPool``
supervisor itself, hang-timeout detection and healing, exception-safe
shutdown through the ``Casper`` facade, and the asyncio socket front
door speaking the same frames as the pipes.
"""

from __future__ import annotations

import asyncio
import multiprocessing
import pathlib
import pickle
import re
import struct

import pytest

from repro.anonymizer import CloakedRegion, PrivacyProfile
from repro.anonymizer.cells import CellId
from repro.errors import ProfileUnsatisfiableError
from repro.geometry import Point, Rect
from repro.messages import ShardEnvelope
from repro.observability import runtime as telemetry
from repro.server import Casper
from repro.sharding import make_sharded, wire
from repro.sharding.frontdoor import ShardFrontDoor
from repro.sharding.wire import (
    KIND_NACK,
    KIND_REQUEST,
    KIND_RESPONSE,
    OPS,
    Frame,
    FrameDecoder,
    OpSpec,
    decode_frame,
    decode_op,
    decode_response,
    encode_frame,
    op_cell_count,
    op_check,
    op_cloak,
    op_cloak_location,
    op_deregister,
    op_hang,
    op_install,
    op_move,
    op_moves,
    op_ping,
    op_register,
    op_set_profile,
    op_shutdown,
    op_stats,
)
from repro.sharding.workers import (
    MAX_BATCH,
    FrameEndpoint,
    ParallelShardedAnonymizer,
    ShardWorker,
    _worker_main,
    _WorkerConfig,
)
from tests.conftest import UNIT
from tests.test_wire_framing import malformed_envelope_frame

PROFILE = PrivacyProfile(k=2)


def _populate(anonymizer, n: int = 12) -> None:
    for uid in range(n):
        anonymizer.register(
            uid, Point((uid % 4) / 4 + 0.05, (uid // 4 % 4) / 4 + 0.05), PROFILE
        )


class TestWorkerPool:
    def test_spawn_kill_and_shutdown_are_idempotent(self) -> None:
        with make_sharded(UNIT, height=4, num_shards=2, parallel=True) as fleet:
            pool = fleet._pool
            assert pool.num_workers == 2
            assert pool.alive(0) and pool.alive(1)
            pool.kill(0)
            assert not pool.alive(0)
            pool.kill(0)  # idempotent
            with pytest.raises(RuntimeError, match="no live worker"):
                pool.conn(0)
            pool.spawn(0)
            assert pool.alive(0)
        assert not pool.alive(0) and not pool.alive(1)
        pool.shutdown()  # safe to repeat

    def test_close_reaps_every_process(self) -> None:
        before = len(multiprocessing.active_children())
        fleet = make_sharded(UNIT, height=4, num_shards=4, parallel=True)
        _populate(fleet)
        assert fleet.ping()
        assert len(multiprocessing.active_children()) == before + 4
        fleet.close()
        fleet.close()  # idempotent
        assert len(multiprocessing.active_children()) == before

    def test_operations_after_close_raise(self) -> None:
        fleet = make_sharded(UNIT, height=4, num_shards=2, parallel=True)
        fleet.close()
        with pytest.raises(RuntimeError, match="closed"):
            fleet.register(1, Point(0.5, 0.5), PROFILE)
        with pytest.raises(RuntimeError, match="closed"):
            fleet.num_users  # the parent dropped its copy of the population

    def test_a_uid_the_wire_cannot_carry_changes_nothing(self) -> None:
        with make_sharded(UNIT, height=4, num_shards=2, parallel=True) as fleet:
            with pytest.raises(TypeError, match="int or str"):
                fleet.register((1, 2), Point(0.5, 0.5), PROFILE)
            assert fleet.num_users == 0 and fleet.shard_occupancy() == [0, 0]
            fleet.check_invariants()

    def test_the_earliest_unsatisfiable_user_raises_after_the_whole_batch(self) -> None:
        reference = make_sharded(UNIT, height=4, num_shards=2)
        with make_sharded(UNIT, height=4, num_shards=2, parallel=True) as fleet:
            batch, stand_in = [3, 9, 0, 5, 11, 3], CloakedRegion(UNIT, 0)
            for deployment, named in ((reference, "k=100"), (fleet, "user 9")):
                _populate(deployment)
                deployment.set_profile(9, PrivacyProfile(k=100))
                deployment.set_profile(5, PrivacyProfile(k=200))
                with pytest.raises(ProfileUnsatisfiableError, match=named):
                    deployment.cloak_many(batch)
            assert fleet.cache_stats() == reference.cache_stats()
            assert fleet.cloak_many(batch, stand_in) == reference.cloak_many(batch, stand_in)
            assert fleet.cache_stats() == reference.cache_stats()


    def test_a_worker_never_runs_under_the_session_it_was_forked_with(self) -> None:
        """A forked worker inherits a copy of the parent's live session;
        ``_worker_main`` drops it before serving a frame."""
        seen = []

        class ClosedPipe:
            def recv_bytes(self) -> bytes:
                seen.append(telemetry.active())
                raise EOFError

        with telemetry.enabled() as outer:
            with telemetry.enabled():
                _worker_main(_WorkerConfig("basic", UNIT, 4, 2, 64), ClosedPipe())
            assert telemetry.active() is outer and outer.is_empty
        assert seen == [None]


class TestHangDetection:
    def test_hung_worker_is_declared_dead_and_healed(self, monkeypatch) -> None:
        from repro.sharding import workers

        monkeypatch.setattr(workers, "HANG_TIMEOUT", 0.4)
        with workers.ParallelShardedAnonymizer(UNIT, height=4, num_shards=2) as fleet:
            _populate(fleet)
            fleet.flush()
            # A worker's cloak is a batch's (a lone cloak is the mirror's).
            reference = fleet.cloak_many([5])
            # A worker stuck longer than the hang timeout is killed and
            # rebuilt; the op itself reports no result (None), reads
            # re-issued after the heal answer normally.
            fleet._enqueue(0, op_hang(30.0))
            assert fleet.flush()[0] == [None]
            assert fleet.ping()
            healed = fleet.cloak_many([5])
            assert healed == reference

    def test_a_hang_does_not_take_the_gathered_peers_with_it(
        self, monkeypatch
    ) -> None:
        """Frames are scattered before any reply is awaited, so worker
        1's reply sits in its pipe for the whole of worker 0's hang
        timeout; it must still be read, not declared late."""
        from repro.sharding import workers

        monkeypatch.setattr(workers, "HANG_TIMEOUT", 0.4)
        with workers.ParallelShardedAnonymizer(UNIT, height=4, num_shards=2) as fleet:
            _populate(fleet)
            fleet.flush()
            fleet._enqueue(0, op_hang(30.0))
            fleet._enqueue(1, op_ping())
            assert fleet.flush() == {0: [None], 1: [True]}
            assert fleet.worker_crashes == 1
            fleet.check_invariants()


class _KillOnTransmit:
    """A transmit seam that delivers every frame untouched and hard-kills
    one worker just before the ``nth`` request frame to it enters the
    pipe — a worker death at a chosen chunk of a multi-chunk flush."""

    def __init__(self, fleet, victim: int, nth: int) -> None:
        self._fleet, self._victim, self._left = fleet, victim, nth

    def transmit(self, channel: str, payload: bytes):
        from repro.resilience.faults import Delivery

        if channel == f"shard:{self._victim}":
            self._left -= 1
            if self._left == 0:
                proc = self._fleet._pool._procs[self._victim]
                proc.kill()
                proc.join(5.0)
        return [Delivery(payload)]


def _record_deliveries(fleet) -> dict[int, list]:
    """Per shard, the per-op results of every delivery the fleet makes
    from now on — a filled queue's, a flush's or a cloak batch's — in
    order."""
    seen: dict[int, list] = {shard: [] for shard in range(fleet.num_shards)}
    deliver = fleet._deliver

    def recording(shards, depth=0, full=False):
        results = deliver(shards, depth, full)
        if not depth:
            for shard, values in results.items():
                seen[shard] += values
        return results

    fleet._deliver = recording
    return seen


class TestDeathInsideAMultiChunkFlush:
    """Once a shard healed inside a delivery, everything still queued
    for it is already in its state (the heal source holds every pending
    mutation): only re-issuable ops re-run, and the lost mutations
    report no result.  Re-sending the later chunks' registers made the
    flush raise ``DuplicateUserError`` — during bulk registration, of
    all times.  A bulk registration reaches each worker a full frame at
    a time as its queue fills; one tick's moves or one cloak batch can
    still queue several frames behind the one the worker dies at."""

    USERS = 1200  # 2 full frames of broadcast ops per shard, then 176

    @staticmethod
    def _point(uid: int) -> Point:
        return Point((uid * 37 % 101) / 101, (uid * 53 % 103) / 103)

    @pytest.mark.parametrize("kind", ["basic", "adaptive"])
    @pytest.mark.parametrize("dies_at_chunk", [1, 2, 3])
    def test_flush_heals_instead_of_raising(self, kind: str, dies_at_chunk: int) -> None:
        profile = PrivacyProfile(k=7)
        reference = make_sharded(UNIT, height=5, num_shards=2, kind=kind)
        with make_sharded(UNIT, height=5, num_shards=2, kind=kind, parallel=True) as fleet:
            seen = _record_deliveries(fleet)
            fleet.attach_injector(_KillOnTransmit(fleet, 0, dies_at_chunk))
            for uid in range(self.USERS):
                reference.register(uid, self._point(uid), profile)
                fleet.register(uid, self._point(uid), profile)
            fleet.flush()
            fleet.attach_injector(None)
            assert fleet.worker_crashes >= 1 and fleet.worker_heals >= 1
            # The survivor acknowledged everything; the victim's
            # mutations lost in the frame it died at report no result.
            assert seen[1] == [True] * self.USERS
            delivered = MAX_BATCH * (dies_at_chunk - 1)
            lost = min(MAX_BATCH, self.USERS - delivered)
            assert seen[0] == [True] * delivered + [None] * lost + [True] * (
                self.USERS - delivered - lost
            )
            # ``deregister`` fails the same way (``UnknownUserError``).
            gone = range(0, self.USERS, 100)
            fleet.attach_injector(_KillOnTransmit(fleet, 1, dies_at_chunk))
            for uid in range(self.USERS, 2 * self.USERS):
                reference.register(uid, self._point(uid), profile)
                fleet.register(uid, self._point(uid), profile)
            for uid in gone:
                reference.deregister(uid)
                fleet.deregister(uid)
            fleet.flush()
            fleet.attach_injector(None)
            assert fleet.worker_crashes >= 2
            fleet.check_invariants()
            assert fleet.num_users == reference.num_users
            asked = [uid for uid in range(1, 2 * self.USERS, 97) if uid not in gone]
            assert fleet.cloak_many(asked) == reference.cloak_many(asked)

    @pytest.mark.parametrize("kind", ["basic", "adaptive"])
    @pytest.mark.parametrize("dies_at_chunk", [1, 2])
    def test_a_tick_that_fills_several_frames(
        self, monkeypatch, kind: str, dies_at_chunk: int
    ) -> None:
        """One ``update_batch`` packs more than ``MAX_BATCH`` (cut to 4
        before the fork) ``moves`` ops per shard and delivers their full
        frames in one delivery; the worker dies at its 1st or 2nd frame,
        with more queued behind it.  None of those moves is sent again:
        each reports no result, and the replica still matches."""
        chunk, users, profile = 4, 96, PrivacyProfile(k=3)
        monkeypatch.setattr("repro.sharding.workers.MAX_BATCH", chunk)
        moves = [(uid, self._point(uid * 7 + 3)) for uid in range(users)]
        reference = make_sharded(UNIT, height=5, num_shards=2, kind=kind)
        with make_sharded(UNIT, height=5, num_shards=2, kind=kind, parallel=True) as fleet:
            for deployment in (reference, fleet):
                for uid in range(users):
                    deployment.register(uid, self._point(uid), profile)
            fleet.flush()
            seen = _record_deliveries(fleet)
            fleet.attach_injector(_KillOnTransmit(fleet, 0, dies_at_chunk))
            for deployment in (reference, fleet):
                deployment.update_batch(moves)
            fleet.attach_injector(None)
            assert fleet.worker_crashes == 1 and fleet.worker_heals == 1
            delivered = chunk * (dies_at_chunk - 1)
            assert len(seen[0]) >= delivered + 2 * chunk  # a frame queued behind
            assert seen[0] == [True] * delivered + [None] * (len(seen[0]) - delivered)
            assert seen[1] == [True] * len(seen[1]) and len(seen[1]) >= 2 * chunk
            fleet.flush()
            fleet.check_invariants()
            assert fleet.cloak_many(range(users)) == reference.cloak_many(range(users))

    @pytest.mark.parametrize("dies_at_chunk", [1, 2])
    def test_a_cloak_batch_behind_queued_mutations(
        self, monkeypatch, dies_at_chunk: int
    ) -> None:
        """A ``cloak_many`` of many ``cloaks`` ops (``MAX_BATCH`` cut to
        4) queued behind pending mutations; the worker dies at the 1st
        frame (the mutations and the first cloaks) or the 2nd (cloaks
        only).  Every cloak re-runs and the batch is answered whole; a
        mutation lost in that frame reports no result."""
        chunk, users, profile = 4, 96, PrivacyProfile(k=3)
        monkeypatch.setattr("repro.sharding.workers.MAX_BATCH", chunk)
        reference = make_sharded(UNIT, height=5, num_shards=2)
        with make_sharded(UNIT, height=5, num_shards=2, parallel=True) as fleet:
            for deployment in (reference, fleet):
                for uid in range(users):
                    deployment.register(uid, self._point(uid), profile)
            fleet.flush()
            for deployment in (reference, fleet):
                for uid in range(3):
                    deployment.update(uid, self._point(uid + users))
                deployment.set_profile(5, PrivacyProfile(k=4))
            queued = len(fleet._pending[0]) + bool(fleet._runs[0])
            assert 0 < queued < chunk
            seen = _record_deliveries(fleet)
            fleet.attach_injector(_KillOnTransmit(fleet, 0, dies_at_chunk))
            regions = fleet.cloak_many(range(users))
            fleet.attach_injector(None)
            assert fleet.worker_crashes == 1 and fleet.worker_heals == 1
            assert regions == reference.cloak_many(range(users))
            assert seen[0][:queued] == [None if dies_at_chunk == 1 else True] * queued
            cloaked = seen[0][queued:]
            assert len(cloaked) > 2 * chunk and None not in cloaked
            fleet.check_invariants()


class TestCasperFacade:
    def test_context_manager_closes_the_pool(self) -> None:
        before = len(multiprocessing.active_children())
        with Casper(UNIT, pyramid_height=5, shards=2, parallel=True) as casper:
            casper.register_user(1, Point(0.3, 0.3), PROFILE)
            casper.register_user(2, Point(0.31, 0.32), PROFILE)
            assert casper.cloak_for(1).achieved_k >= 2
            assert len(multiprocessing.active_children()) == before + 2
        assert len(multiprocessing.active_children()) == before

    def test_close_runs_even_when_the_body_raises(self) -> None:
        before = len(multiprocessing.active_children())
        with pytest.raises(RuntimeError, match="boom"):
            with Casper(UNIT, pyramid_height=5, shards=2, parallel=True):
                raise RuntimeError("boom")
        assert len(multiprocessing.active_children()) == before

    def test_parallel_conflicts_with_anonymizer_instances(self) -> None:
        from repro.anonymizer import BasicAnonymizer

        instance = BasicAnonymizer(UNIT, height=5)
        with pytest.raises(ValueError, match="parallel"):
            Casper(UNIT, anonymizer=instance, parallel=True)

    def test_close_without_parallel_is_a_no_op(self) -> None:
        casper = Casper(UNIT, pyramid_height=5)
        casper.register_user(1, Point(0.5, 0.5), PROFILE)
        casper.close()
        casper.close()


class TestFrontDoor:
    """The socket transport speaks the identical frame protocol."""

    @staticmethod
    async def _roundtrip(address, frames):
        reader, writer = await asyncio.open_connection(*address)
        decoder = FrameDecoder()
        replies = []
        try:
            for frame in frames:
                writer.write(frame)
                await writer.drain()
                while True:
                    data = await asyncio.wait_for(reader.read(65536), 5.0)
                    assert data, "server closed mid-exchange"
                    done = decoder.feed(data)
                    if done:
                        replies.extend(done)
                        break
        finally:
            writer.close()
            await writer.wait_closed()
        return replies

    def test_register_and_cloak_over_tcp(self) -> None:
        anonymizer = make_sharded(UNIT, height=5, num_shards=1, kind="basic")
        reference = make_sharded(UNIT, height=5, num_shards=1, kind="basic")
        for uid in range(8):
            reference.register(uid, Point(0.4 + uid / 100, 0.5), PROFILE)

        async def scenario():
            async with ShardFrontDoor(anonymizer) as door:
                ops = [
                    op_register(uid, Point(0.4 + uid / 100, 0.5), PROFILE)
                    for uid in range(8)
                ]
                request = encode_frame(
                    KIND_REQUEST, 1, [ShardEnvelope(0, op) for op in ops]
                )
                cloak = encode_frame(
                    KIND_REQUEST, 2, [ShardEnvelope(0, op_cloak(3))]
                )
                return await self._roundtrip(door.address, [request, cloak])

        first, second = asyncio.run(scenario())
        assert first.kind == KIND_RESPONSE and first.seq == 1
        assert all(
            decode_response(e.payload) == ("ack",) for e in first.envelopes
        )
        name, region = decode_response(second.envelopes[0].payload)
        assert name == "cloak"
        assert region == reference.cloak(3)

    def test_duplicate_sequence_replays_the_cached_reply(self) -> None:
        anonymizer = make_sharded(UNIT, height=5, num_shards=1, kind="basic")

        async def scenario():
            async with ShardFrontDoor(anonymizer) as door:
                ping = encode_frame(
                    KIND_REQUEST, 9, [ShardEnvelope(0, op_ping())]
                )
                return await self._roundtrip(door.address, [ping, ping])

        first, second = asyncio.run(scenario())
        # Same seq twice: the reply is replayed, the op not re-applied.
        assert first == second and first.seq == 9

    @staticmethod
    def _answer_and_eof(stream: bytes) -> tuple[list[Frame], bytes]:
        """The frames a door answers ``stream`` with, and its next read."""
        anonymizer = make_sharded(UNIT, height=5, num_shards=1, kind="basic")

        async def scenario():
            async with ShardFrontDoor(anonymizer) as door:
                reader, writer = await asyncio.open_connection(*door.address)
                try:
                    writer.write(stream)
                    await writer.drain()
                    data = await asyncio.wait_for(reader.read(65536), 5.0)
                    frames = FrameDecoder().feed(data)
                    eof = await asyncio.wait_for(reader.read(65536), 5.0)
                finally:
                    writer.close()
                    await writer.wait_closed()
                return frames, eof

        return asyncio.run(scenario())

    def test_corrupt_stream_gets_a_nack_and_a_close(self) -> None:
        frames, eof = self._answer_and_eof(b"GARBAGEGARBAGEGARBAGE")
        assert [frame.kind for frame in frames] == [KIND_NACK]
        assert eof == b""  # desynchronized peers must reconnect

    def test_a_malformed_envelope_gets_a_nack_and_a_close(self) -> None:
        # The frame CRC verifies; the envelope inside it does not.
        frames, eof = self._answer_and_eof(malformed_envelope_frame())
        assert [frame.kind for frame in frames] == [KIND_NACK]
        assert eof == b""

    @pytest.mark.parametrize(
        "kind, parallel",
        [("basic", False), ("adaptive", False), ("basic", True)],
        ids=["basic", "adaptive-broadcast", "basic-parallel"],
    )
    def test_control_plane_is_refused_over_tcp(
        self, tmp_path, kind: str, parallel: bool
    ) -> None:
        """The front door serves the data plane only: stats blobs,
        install pickles (every user's exact location, code execution),
        check, hang and shutdown are answered with an error envelope and
        have no effect."""
        sentinel = tmp_path / "unpickled"

        class Touch:
            def __reduce__(self):
                return (pathlib.Path.touch, (sentinel,))

        control = [
            op_stats(),
            op_install(pickle.dumps(Touch())),
            op_check(),
            op_shutdown(),
            op_hang(30.0),
        ]
        anonymizer = make_sharded(
            UNIT, height=5, num_shards=2, kind=kind, parallel=parallel
        )

        def assert_refused(payload: bytes, coordinates: set[float]) -> None:
            assert decode_response(payload)[0] == "error"
            assert b"\x80\x04" not in payload  # no pickle stream
            for value in coordinates:
                assert struct.pack("<d", value) not in payload
                assert repr(value).encode() not in payload

        async def ask(reader, writer, decoder, seq, op):
            writer.write(encode_frame(KIND_REQUEST, seq, [ShardEnvelope(0, op)]))
            await writer.drain()
            while True:
                # One second bounds every reply: hang(30) must not sleep.
                data = await asyncio.wait_for(reader.read(65536), 1.0)
                assert data, "server closed mid-exchange"
                frames = decoder.feed(data)
                if frames:
                    (envelope,) = frames[0].envelopes
                    return envelope.payload

        async def scenario(coordinates):
            async with ShardFrontDoor(anonymizer) as door:
                reader, writer = await asyncio.open_connection(*door.address)
                decoder = FrameDecoder()
                try:
                    for seq, op in enumerate(control, start=1):
                        assert_refused(
                            await ask(reader, writer, decoder, seq, op),
                            coordinates,
                        )
                    same = await ask(reader, writer, decoder, 99, op_ping())
                finally:
                    writer.close()
                    await writer.wait_closed()
                (second,) = await self._roundtrip(
                    door.address,
                    [encode_frame(KIND_REQUEST, 1, [ShardEnvelope(0, op_ping())])],
                )
                return same, second.envelopes[0].payload

        try:
            _populate(anonymizer)
            coordinates = {
                value
                for uid in range(12)
                for value in (
                    anonymizer.location_of(uid).x,
                    anonymizer.location_of(uid).y,
                )
            }
            same, second = asyncio.run(scenario(coordinates))
            assert not sentinel.exists()
            assert decode_response(same) == ("ack",)
            assert decode_response(second) == ("ack",)
            assert anonymizer.num_users == 12
        finally:
            if parallel:
                anonymizer.close()


def _one_of_each() -> dict[int, bytes]:
    """One encoded operation per opcode (the install one restores the
    replica to a single far-away user, so it visibly mutates)."""
    profile = PrivacyProfile(k=3)
    donor = make_sharded(UNIT, height=4, num_shards=2)
    donor.register(99, Point(0.9, 0.9), PROFILE)
    return {
        wire.OP_REGISTER: op_register(50, Point(0.7, 0.2), PROFILE),
        wire.OP_MOVE: op_move(3, Point(0.8, 0.8)),
        wire.OP_DEREGISTER: op_deregister(4),
        wire.OP_SET_PROFILE: op_set_profile(5, profile),
        wire.OP_CLOAK: op_cloak(6),
        wire.OP_CLOAK_LOCATION: op_cloak_location(Point(0.3, 0.3), PROFILE),
        wire.OP_CELL_COUNT: op_cell_count(CellId(0, 0, 0)),
        wire.OP_STATS: op_stats(),
        wire.OP_INSTALL: op_install(pickle.dumps(donor.snapshot())),
        wire.OP_CHECK: op_check(),
        wire.OP_PING: op_ping(),
        wire.OP_HANG: op_hang(0.0),
        wire.OP_SHUTDOWN: op_shutdown(),
        wire.OP_MOVES: op_moves([3, 7], [0.8, 0.2], [0.8, 0.6]),
        wire.OP_CLOAKS: wire.op_cloaks([6, 7, 6]),
    }


def _one_reply_of_each() -> dict[int, bytes]:
    """One encoded reply per response code, each from its helper."""
    region = CloakedRegion(Rect(0.0, 0.0, 0.5, 0.5), 3, (CellId(1, 0, 0),))
    return {
        wire.RE_ACK: wire.response_ack(),
        wire.RE_COST: wire.response_cost(3),
        wire.RE_CLOAK_OK: wire.response_cloak(region),
        wire.RE_CLOAK_UNSAT: wire.response_cloak_unsatisfiable(),
        wire.RE_COUNT: wire.response_count(7),
        wire.RE_BLOB: wire.response_blob(b"blob"),
        wire.RE_ERROR: wire.response_error("boom"),
        wire.RE_CLOAKS: wire.response_cloaks([region, None, region]),
    }


#: What ``FrameEndpoint.step`` answers a frame of each kind with
#: (``None``: the server role ignores it — only the parent reads
#: responses and NACKs).
FRAME_ANSWERS = {KIND_REQUEST: KIND_RESPONSE, KIND_RESPONSE: None, KIND_NACK: None}


def _wire_constants(prefix: str) -> dict[int, str]:
    """Every ``<prefix>*`` integer ``wire.py`` declares, by value."""
    return {
        value: name
        for name, value in vars(wire).items()
        if name.startswith(prefix) and isinstance(value, int)
    }


OPCODES = _wire_constants("OP_")
REPLY_CODES = _wire_constants("RE_")
FRAME_KINDS = _wire_constants("KIND_")


class TestProtocolTable:
    """``wire.OPS`` is the one statement of each opcode's contract; the
    servers and the parent must behave as it says."""

    @staticmethod
    def _worker() -> ShardWorker:
        worker = ShardWorker(_WorkerConfig("basic", UNIT, 4, 2, 64), None)
        _populate(worker._replica)
        return worker

    @staticmethod
    def _reply(endpoint: FrameEndpoint, seq: int, op: bytes) -> tuple:
        raw = endpoint.step(Frame(KIND_REQUEST, seq, (ShardEnvelope(0, op),)))
        (envelope,) = decode_frame(raw).envelopes
        return decode_response(envelope.payload)

    def test_every_opcode_has_an_entry_and_an_example(self) -> None:
        assert set(OPS) == set(OPCODES) == set(_one_of_each())

    def test_docs_table_is_the_wire_table(self) -> None:
        docs = pathlib.Path(__file__).parent.parent / "docs" / "sharding.md"
        rows = re.findall(
            r"^\| (\d+) \| `(\w+)` \| (data|control) \| `(\w+)` \| (yes|no) \|$",
            docs.read_text(),
            re.MULTILINE,
        )
        documented = {
            int(opcode): OpSpec(name, reply, again == "yes", plane == "data")
            for opcode, name, plane, reply, again in rows
        }
        assert documented == OPS

    @pytest.mark.parametrize("opcode", sorted(OPCODES), ids=OPCODES.get)
    def test_opcode_behaves_as_the_table_says(self, opcode: int) -> None:
        spec = OPS[opcode]
        op = _one_of_each()[opcode]
        assert decode_op(op)[0] == spec.name
        # The worker (pipe server) executes every op and earns the
        # table's reply kind.
        worker = self._worker()
        before = worker._replica.snapshot()
        assert self._reply(worker, 1, op)[0] == spec.reply
        changed = worker._replica.snapshot() != before
        # Re-issuable == leaves the replica's state alone (and keeps
        # the worker serving: hang/shutdown mutate nothing either, but
        # re-sending them to a healed worker would stall or stop it).
        lifecycle = opcode in (wire.OP_HANG, wire.OP_SHUTDOWN)
        assert spec.reissuable is (not changed and not lifecycle)
        assert worker._stopping is (opcode == wire.OP_SHUTDOWN)
        # The front-door path (a bare endpoint) accepts exactly the
        # data plane, and a refusal touches nothing.
        fleet = make_sharded(UNIT, height=4, num_shards=2, kind="basic")
        _populate(fleet)
        before = fleet.snapshot()
        reply = self._reply(FrameEndpoint(fleet), 1, op)
        if spec.data_plane:
            assert reply[0] == spec.reply
        else:
            assert reply[0] == "error" and spec.name in reply[1]
            assert fleet.snapshot() == before

    @pytest.mark.parametrize("code", sorted(REPLY_CODES), ids=REPLY_CODES.get)
    def test_reply_code_is_decoded_and_accepted_by_the_parent(
        self, code: int
    ) -> None:
        # Produced by a response_* helper, decoded by decode_response.
        payload = _one_reply_of_each()[code]
        assert payload[0] == code
        kind, *body = decode_response(payload)
        frame = Frame(KIND_RESPONSE, 1, (ShardEnvelope(0, payload),))

        def parent_reads(op: bytes) -> object:
            (result,) = ParallelShardedAnonymizer._decode_replies(
                None, 0, frame, [op]
            )
            return result

        if kind == "error":
            with pytest.raises(RuntimeError, match="boom"):
                parent_reads(op_ping())
            with pytest.raises(AssertionError, match="boom"):
                parent_reads(op_check())
            return
        # The parent accepts the kind from an op the table says earns
        # it, and refuses it from any other.
        earned_as = "cloak" if kind == "unsat" else kind
        ops = _one_of_each()
        earning = [ops[opcode] for opcode in ops if OPS[opcode].reply == earned_as]
        others = [ops[opcode] for opcode in ops if OPS[opcode].reply != earned_as]
        assert earning, f"no opcode's reply is {kind!r}"
        expected = {"ack": [True], "unsat": [[None]], "cloak": [body]}.get(kind, body)
        assert [parent_reads(op) for op in earning] == expected * len(earning)
        for op in others:
            with pytest.raises(RuntimeError, match="expected"):
                parent_reads(op)

    @pytest.mark.parametrize("kind", sorted(FRAME_KINDS), ids=FRAME_KINDS.get)
    def test_frame_kind_round_trips_and_is_answered_or_ignored(
        self, kind: int
    ) -> None:
        assert set(FRAME_KINDS) == set(FRAME_ANSWERS) == wire._FRAME_KINDS
        envelopes = (ShardEnvelope(0, op_ping()),) if FRAME_ANSWERS[kind] else ()
        frame = decode_frame(encode_frame(kind, 7, envelopes))
        assert frame == Frame(kind, 7, envelopes)
        endpoint = FrameEndpoint(make_sharded(UNIT, height=4, num_shards=2))
        reply = endpoint.step(frame)
        if FRAME_ANSWERS[kind] is None:
            assert reply is None
        else:
            answer = decode_frame(reply)
            assert (answer.kind, answer.seq) == (FRAME_ANSWERS[kind], 7)
            assert len(answer.envelopes) == len(envelopes)

    def test_the_worker_nacks_a_malformed_envelope(self) -> None:
        parent, child = multiprocessing.Pipe()
        with parent, child:
            worker = ShardWorker(_WorkerConfig("basic", UNIT, 4, 2, 64), child)
            parent.send_bytes(malformed_envelope_frame())
            parent.send_bytes(encode_frame(KIND_REQUEST, 1, [(0, op_shutdown())]))
            worker.run()
            assert decode_frame(parent.recv_bytes()).kind == KIND_NACK
            (ack,) = decode_frame(parent.recv_bytes()).envelopes
            assert decode_response(ack.payload) == ("ack",)

    def test_both_transports_dedupe_through_the_same_step(self) -> None:
        assert ShardWorker.step is FrameEndpoint.step
        for endpoint in (
            self._worker(),
            FrameEndpoint(make_sharded(UNIT, height=4, num_shards=2)),
        ):
            register = op_register(70, Point(0.5, 0.5), PROFILE)
            frame = Frame(KIND_REQUEST, 5, (ShardEnvelope(0, register),))
            first = endpoint.step(frame)
            assert decode_response(decode_frame(first).envelopes[0].payload) == (
                "ack",
            )
            # Same sequence again: the cached bytes, not a second
            # register (which would answer DuplicateUserError).
            assert endpoint.step(frame) is first
            # An older sequence is a delayed duplicate: no answer.
            stale = Frame(KIND_REQUEST, 4, (ShardEnvelope(0, op_ping()),))
            assert endpoint.step(stale) is None
            assert endpoint.step(Frame(KIND_RESPONSE, 6, ())) is None

    @pytest.mark.parametrize(
        "op",
        [
            op_cloak("alice")[:-2],  # decoded past its end, it was "ali"
            op_cloak(7)[:-2],
            op_move(7, Point(0.5, 0.5)) + b"garbage",
        ],
        ids=["truncated-str-uid", "truncated-int-uid", "padded-move"],
    )
    def test_the_door_refuses_a_payload_that_is_not_one_op(self, op: bytes) -> None:
        with pytest.raises(wire.WireError, match="truncated|past its end"):
            decode_op(op)
        fleet = make_sharded(UNIT, height=4, num_shards=2, kind="basic")
        _populate(fleet)
        fleet.register("ali", Point(0.5, 0.5), PROFILE)
        before = fleet.snapshot()
        assert self._reply(FrameEndpoint(fleet), 1, op)[0] == "error"
        assert fleet.snapshot() == before

    @pytest.mark.parametrize(
        "refused", [(99, 0.5, 0.5), (3, 1.5, 0.25)], ids=["stranger", "outside"]
    )
    def test_the_worker_refuses_a_moves_run_whole(self, refused) -> None:
        # The first move is fine: a run checked move by move would have
        # applied it before the refusal.
        uids, xs, ys = zip((2, 0.7, 0.3), refused, (4, 0.1, 0.9))
        worker = self._worker()
        before = worker._replica.snapshot()
        kind, text = self._reply(worker, 1, op_moves(uids, xs, ys))
        assert kind == "error" and "moves refused" in text
        assert not re.search(r"\d\.\d", text)  # names no coordinate
        assert worker._replica.snapshot() == before


def test_a_crash_drops_the_victims_open_run() -> None:
    """The heal installs the parent's state, queued moves included, so
    the victim is owed nothing afterwards: the next flush makes no
    exchange with it."""
    with make_sharded(UNIT, height=4, num_shards=2, parallel=True) as fleet:
        _populate(fleet)
        fleet.flush()
        fleet.update_batch([(0, Point(0.06, 0.07)), (5, Point(0.3, 0.33))])
        fleet.crash_worker(0)
        with telemetry.enabled() as session:
            fleet.flush()
        exchanged = {
            dict(metric.labels)["shard"]
            for metric in session.metrics
            if metric.name == "casper_worker_roundtrip_seconds"
        }
        assert "0" not in exchanged
        fleet.check_invariants()
