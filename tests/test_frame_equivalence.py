"""A frame is a batch at every hop — and nobody can tell.

``FrameEndpoint.step`` executes a request frame as *runs* (consecutive
moves through ``update_batch``, consecutive cloaks through
``cloak_many``), the worker pool's parent runs a batch of moves through
its deployment's kernel, and a flush scatters one frame per shard before it
gathers any reply.  Three statements pin that none of it is observable:

* **identity** — for any frame, ``step`` answers with exactly the bytes
  of an oracle that executes the envelopes one at a time (the
  per-envelope loop the endpoint replaced, kept here as the reference);
* **round trips as a count** — what a cloak frame and a tick cost in
  worker exchanges and envelopes, read off the program's own
  telemetry, no clock;
* **the parent mirror** — ``ParallelShardedAnonymizer.update_batch`` is
  the scalar ``update`` loop on costs, stats, directory, occupancy and
  shard-op telemetry, and on the exception and applied prefix of a
  refused move.
"""

from __future__ import annotations

import asyncio
import dataclasses
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.anonymizer import PrivacyProfile
from repro.anonymizer.cells import CellId
from repro.errors import (
    OutOfBoundsError,
    ProfileUnsatisfiableError,
    UnknownUserError,
)
from repro.geometry import Point
from repro.messages import ShardEnvelope
from repro.observability import runtime as telemetry
from repro.resilience.faults import Delivery, FaultInjector, FaultPlan
from repro.sharding import make_sharded
from repro.sharding.frontdoor import ShardFrontDoor
from repro.sharding.wire import (
    KIND_REQUEST,
    KIND_RESPONSE,
    Frame,
    FrameDecoder,
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
    op_move,
    op_ping,
    op_register,
    op_set_profile,
    op_spec,
    op_stats,
    response_ack,
    response_cloak,
    response_cloak_unsatisfiable,
    response_cost,
    response_count,
    response_error,
)
from repro.sharding.workers import MAX_BATCH, FrameEndpoint
from tests.conftest import UNIT

HEIGHT = 4
NUM_USERS = 12
GHOST = 99  # never registered at the start of a frame
PROFILES = (
    PrivacyProfile(k=1),
    PrivacyProfile(k=3),
    PrivacyProfile(k=2, a_min=0.05),
    PrivacyProfile(k=1000),  # unsatisfiable: more than will ever register
)


def _populate(replica) -> None:
    for uid in range(NUM_USERS):
        replica.register(
            uid,
            Point((uid % 4) / 4 + 0.05, (uid // 4 % 4) / 4 + 0.05),
            PROFILES[uid % 3],
        )


# ----------------------------------------------------------------------
# The oracle: the per-envelope loop, one scalar call per envelope
# ----------------------------------------------------------------------
def reference_reply(replica, payload: bytes) -> bytes:
    """What one envelope earns when executed alone, by the scalar
    replica methods (``update``, ``cloak``) and nothing batched."""
    try:
        spec = op_spec(payload)
        if not spec.data_plane:
            return response_error(
                f"control-plane operation {spec.name!r} refused: "
                "this endpoint serves the data plane only"
            )
        name, *args = decode_op(payload)
        if name == "move":
            return response_cost(replica.update(*args))
        if name in ("cloak", "cloak_location"):
            try:
                return response_cloak(getattr(replica, name)(*args))
            except ProfileUnsatisfiableError:
                return response_cloak_unsatisfiable()
        if name == "cell_count":
            return response_count(replica.cell_count(*args))
        if name != "ping":
            getattr(replica, name)(*args)  # register/deregister/set_profile
        return response_ack()
    except Exception as exc:
        return response_error(f"{type(exc).__name__}: {exc}")


def reference_step(replica, frame: Frame) -> bytes:
    return encode_frame(
        KIND_RESPONSE,
        frame.seq,
        [
            ShardEnvelope(e.shard, reference_reply(replica, e.payload))
            for e in frame.envelopes
        ],
    )


# ----------------------------------------------------------------------
# Frames: segments of one op kind each, so runs of every length occur
# ----------------------------------------------------------------------
uids = st.sampled_from([*range(NUM_USERS), GHOST])
coordinates = st.one_of(
    st.floats(0.0, 1.0, allow_nan=False),
    st.sampled_from([0.0, 1.0, 0.25, 0.5, -0.1, 1.5]),  # borders and outside
)
points = st.builds(Point, coordinates, coordinates)
profiles = st.sampled_from(PROFILES)
cells = st.integers(0, HEIGHT).flatmap(
    lambda level: st.builds(
        CellId,
        st.just(level),
        st.integers(0, (1 << level) - 1),
        st.integers(0, (1 << level) - 1),
    )
)
OPS = {
    "move": st.builds(op_move, uids, points),
    "cloak": st.builds(op_cloak, uids),
    "register": st.builds(op_register, uids, points, profiles),
    "deregister": st.builds(op_deregister, uids),
    "set_profile": st.builds(op_set_profile, uids, profiles),
    "cloak_location": st.builds(op_cloak_location, points, profiles),
    "cell_count": st.builds(op_cell_count, cells),
    "ping": st.just(op_ping()),
    "control": st.sampled_from(
        [op_stats(), op_check(), op_hang(30.0)]
    ),
}
segments = st.sampled_from(
    # moves and cloaks more often: their runs are what changed
    ["move"] * 4 + ["cloak"] * 3 + sorted(OPS)
).flatmap(lambda kind: st.lists(OPS[kind], min_size=1, max_size=6))
frames = st.lists(segments, min_size=1, max_size=7).map(
    lambda parts: [op for part in parts for op in part]
)


def _frame(seq: int, ops: list[bytes]) -> Frame:
    # Through the codec, as a transport would deliver it.
    return decode_frame(
        encode_frame(KIND_REQUEST, seq, [ShardEnvelope(0, op) for op in ops])
    )


def _state(replica) -> tuple:
    """What the replies do not show: where everyone ended up."""
    alive = [uid for uid in [*range(NUM_USERS), GHOST] if uid in replica]
    return (
        alive,
        [replica.location_of(uid) for uid in alive],
        [replica.profile_of(uid) for uid in alive],
        [replica.shard_of_user(uid) for uid in alive],
        replica.shard_occupancy(),
    )


def _assert_same_frames(sut, twin, batches: list[list[bytes]]) -> None:
    endpoint = FrameEndpoint(sut)
    for seq, ops in enumerate(batches, start=1):
        frame = _frame(seq, ops)
        reply = endpoint.step(frame)
        assert reply == reference_step(twin, frame)
        # A replayed sequence: the cached bytes, and nothing re-applied
        # (a second register would answer DuplicateUserError, a second
        # move a different cost).
        assert endpoint.step(frame) is reply
    assert endpoint.step(_frame(len(batches) - 1, [op_ping()])) is None
    assert _state(sut) == _state(twin)


class TestStepEqualsThePerEnvelopeLoop:
    @pytest.mark.parametrize("kind", ["basic", "adaptive"])
    @settings(max_examples=60)
    @given(batches=st.lists(frames, min_size=1, max_size=3))
    def test_in_process_replicas(self, kind, batches) -> None:
        sut, twin = (
            make_sharded(UNIT, HEIGHT, num_shards=2, kind=kind) for _ in range(2)
        )
        _populate(sut)
        _populate(twin)
        _assert_same_frames(sut, twin, batches)
        assert sut.stats == twin.stats
        sut.check_invariants()

    def test_worker_pool_replica(self) -> None:
        # Two 2-worker fleets for the whole property (spawning per
        # example would dominate); every example starts from the same
        # restored snapshot, which rebuilds the worker replicas too.
        fleets = [
            make_sharded(UNIT, HEIGHT, num_shards=2, kind="basic", parallel=True)
            for _ in range(2)
        ]
        try:
            sut, twin = fleets
            _populate(sut)
            _populate(twin)
            start = sut.snapshot()

            @settings(max_examples=25)
            @given(batches=st.lists(frames, min_size=1, max_size=3))
            def same_frames(batches) -> None:
                sut.restore(start)
                twin.restore(start)
                before = [dataclasses.replace(fleet.stats) for fleet in fleets]
                _assert_same_frames(sut, twin, batches)
                sut.check_invariants()
                twin.check_invariants()
                # Parent-computed counters advance by the same amounts.
                assert _delta(sut.stats, before[0]) == _delta(twin.stats, before[1])

            same_frames()
        finally:
            for fleet in fleets:
                fleet.close()


def _delta(stats, before) -> dict:
    now, then = dataclasses.asdict(stats), dataclasses.asdict(before)
    return {key: now[key] - then[key] for key in now}


def test_awkward_frames_by_hand() -> None:
    """The cases the property must hit, pinned so they always run: a
    refused move in the middle of a run (prefix applied, costs kept,
    suffix applied), a uid repeated inside a run, an unknown uid in the
    middle of a cloak run, an unsatisfiable profile, ``move, cloak,
    move`` as three runs, a control opcode, an undecodable payload."""
    sut, twin = (
        make_sharded(UNIT, HEIGHT, num_shards=2, kind="basic") for _ in range(2)
    )
    _populate(sut)
    _populate(twin)
    ops = [
        op_move(0, Point(0.9, 0.9)),
        op_move(1, Point(0.1, 0.12)),
        op_move(GHOST, Point(0.5, 0.5)),  # unknown uid
        op_move(2, Point(0.52, 0.07)),
        op_move(3, Point(1.5, 0.5)),  # outside the service area
        op_move(0, Point(0.1, 0.1)),
        op_move(0, Point(0.8, 0.2)),  # the same uid again: order matters
        op_move(4, Point(0.3, 0.3))[:-3],  # truncated: does not decode
        op_set_profile(5, PrivacyProfile(k=1000)),
        op_cloak(4),
        op_cloak(GHOST),
        op_cloak(5),  # unsatisfiable
        op_cloak(6),
        op_move(6, Point(0.95, 0.05)),
        op_cloak(6),  # must see the move before it
        op_move(6, Point(0.05, 0.95)),
        op_hang(30.0),
        op_cloak(6),
    ]
    frame = _frame(1, ops)
    reply = FrameEndpoint(sut).step(frame)
    assert reply == reference_step(twin, frame)
    kinds = [decode_response(e.payload)[0] for e in decode_frame(reply).envelopes]
    assert kinds == [
        "cost", "cost", "error", "cost", "error", "cost", "cost", "error",
        "ack", "cloak", "error", "unsat", "cloak", "cost", "cloak", "cost",
        "error", "cloak",
    ]
    assert _state(sut) == _state(twin) and sut.stats == twin.stats


# ----------------------------------------------------------------------
# Round trips as a count
# ----------------------------------------------------------------------
def _roundtrips(session) -> int:
    return sum(
        metric.count
        for metric in session.metrics
        if metric.name == "casper_worker_roundtrip_seconds"
    )


async def _exchange(reader, writer, decoder, seq, ops) -> Frame:
    writer.write(encode_frame(KIND_REQUEST, seq, [ShardEnvelope(0, op) for op in ops]))
    await writer.drain()
    while True:
        data = await asyncio.wait_for(reader.read(1 << 16), 10.0)
        assert data, "front door closed mid-exchange"
        done = decoder.feed(data)
        if done:
            return done[0]


def _position(uid: int, tick: int) -> Point:
    # A lattice walk: confined, block-crossing and same-cell moves.
    x = ((uid * 37 + tick * 11) % 101) / 101
    y = ((uid * 53 + tick * 29) % 103) / 103
    return Point(x, y)


def _owed_moves(fleet, old: list[int]) -> list[int]:
    """How many of a tick's moves each worker is owed, by the pool's
    traffic rule for a ``block_local`` policy: a move that stays in its
    level-S block to its home, any other to every shard (``old``: the
    movers' leaves before)."""
    owed = [0] * fleet.num_shards
    for uid, m in enumerate(old):
        n = int(fleet.table.cells[fleet.table.require(uid)])
        if (m ^ n) >> fleet.router.leaf_shift:
            owed = [count + 1 for count in owed]
        else:
            owed[fleet.router.owner_of_leaf(m)] += 1
    return owed


def _leaves(fleet, users: int) -> list[int]:
    return [int(fleet.table.cells[fleet.table.require(uid)]) for uid in range(users)]


def test_a_tick_costs_one_gathered_exchange_per_shard_per_chunk(monkeypatch) -> None:
    """Through the TCP door over 2 workers: move frames cost only the
    full frames their queues fill (mutations queue in the parent, as
    ``moves`` ops of ``MAX_BATCH`` moves, and a queue of ``MAX_BATCH``
    ops delivers itself), a tick's closing cloak frame delivers the
    rest — its moves as ``ceil(moves / MAX_BATCH)`` packed ``moves`` ops
    in all — and its own cloaks — as ``ceil(cloaks / MAX_BATCH)``
    packed ``cloaks`` ops — so the tick costs ``ceil(ops / MAX_BATCH)``
    exchanges per shard, and a cloak frame with nothing pending one
    exchange per shard.  ``MAX_BATCH`` is cut to 16 so the delivery
    spans chunks."""
    users, frame_size, chunk = 1200, 250, 16
    monkeypatch.setattr("repro.sharding.workers.MAX_BATCH", chunk)
    fleet = make_sharded(UNIT, 6, num_shards=2, kind="basic", parallel=True)

    async def scenario() -> None:
        async with ShardFrontDoor(fleet) as door:
            reader, writer = await asyncio.open_connection(*door.address)
            decoder = FrameDecoder()
            seq = 0

            async def send(ops: list[bytes]) -> list[tuple]:
                nonlocal seq
                seq += 1
                reply = await _exchange(reader, writer, decoder, seq, ops)
                return [decode_response(e.payload) for e in reply.envelopes]

            try:
                for uid in range(users):
                    fleet.register(uid, _position(uid, 0), PrivacyProfile(k=5))
                fleet.flush()
                old = _leaves(fleet, users)
                with telemetry.enabled() as session:
                    moves = [op_move(uid, _position(uid, 1)) for uid in range(users)]
                    for start in range(0, users, frame_size):
                        replies = await send(moves[start : start + frame_size])
                        assert {reply[0] for reply in replies} == {"cost"}
                    moved = _owed_moves(fleet, old)
                    filled = sum(count // chunk // chunk for count in moved)
                    assert filled > 0  # queues that deliver themselves
                    assert _roundtrips(session) == filled
                    homes = [fleet.shard_of_user(uid) for uid in range(users)]
                    cloaks = [homes.count(shard) for shard in range(fleet.num_shards)]
                    assert min(cloaks) > chunk  # several cloaks ops a shard
                    owed = [
                        math.ceil(count / chunk) + math.ceil(cloaked / chunk)
                        for count, cloaked in zip(moved, cloaks)
                    ]
                    assert min(owed) > chunk  # a multi-chunk tick
                    replies = await send([op_cloak(uid) for uid in range(users)])
                    assert {reply[0] for reply in replies} == {"cloak"}
                    assert _roundtrips(session) == sum(math.ceil(ops / chunk) for ops in owed)
                    session.clear()
                    replies = await send([op_cloak(uid) for uid in range(frame_size)])
                    assert {reply[0] for reply in replies} == {"cloak"}
                    assert _roundtrips(session) == fleet.num_shards
            finally:
                writer.close()
                await writer.wait_closed()

    with fleet:
        asyncio.run(scenario())
        fleet.check_invariants()


@pytest.mark.parametrize(
    ("kind", "envelopes"), [("basic", {"0": 1}), ("adaptive", {"0": 1, "1": 1})]
)
def test_a_confined_move_is_shipped_by_the_traffic_rule(kind, envelopes) -> None:
    """A move inside its level-S block reaches its home worker alone for
    the ``block_local`` policy, and every worker for any other."""
    with make_sharded(UNIT, HEIGHT, num_shards=2, kind=kind, parallel=True) as fleet:
        fleet.register(0, Point(0.1, 0.1), PrivacyProfile(k=1))
        fleet.flush()
        with telemetry.enabled() as session:
            fleet.update(0, Point(0.12, 0.1))
            fleet.flush()
    shipped = {
        dict(metric.labels)["shard"]: metric.sum
        for metric in session.metrics
        if metric.name == "casper_worker_batch_envelopes"
    }
    assert shipped == envelopes


def test_a_tick_reaches_each_worker_as_packed_runs_of_at_most_max_batch() -> None:
    """A tick's moves, queued over several ``update_batch`` calls, reach
    shard ``s`` as exactly ``ceil(n_s / MAX_BATCH)`` envelopes: one
    open run per shard, coalesced across calls, packed into a ``moves``
    op each time it fills to ``MAX_BATCH`` moves and at the delivery."""
    users = 1500
    with make_sharded(UNIT, 6, num_shards=2, kind="basic", parallel=True) as fleet:
        for uid in range(users):
            fleet.register(uid, _position(uid, 0), PrivacyProfile(k=5))
        fleet.flush()
        old = _leaves(fleet, users)
        with telemetry.enabled() as session:
            for start in range(0, users, 300):
                fleet.update_batch(
                    [(uid, _position(uid, 1)) for uid in range(start, start + 300)]
                )
            fleet.flush()
            envelopes = {
                dict(metric.labels)["shard"]: metric.sum
                for metric in session.metrics
                if metric.name == "casper_worker_batch_envelopes"
            }
        owed = _owed_moves(fleet, old)
        assert max(owed) > 2 * MAX_BATCH  # the cap splits a run
        assert envelopes == {
            str(shard): math.ceil(moved / MAX_BATCH) for shard, moved in enumerate(owed)
        }
        fleet.check_invariants()


class _Counted:
    """Passes every frame untouched and counts the request frames, as
    ``tools/bench.py``'s ``PipeCounter`` does."""

    frames = 0

    def transmit(self, channel: str, payload: bytes) -> list:
        self.frames += channel.startswith("shard:")
        return [Delivery(payload)]


@pytest.mark.parametrize("kind", ["basic", "adaptive"])
def test_a_lone_cloak_is_the_mirrors_and_moves_no_frame(kind) -> None:
    """``cloak`` and ``cloak_location`` on the pool, with a move still
    queued, send no frame, answer the in-process deployment's region
    and record what it records: one cloak sample and one
    ``casper_shard_cloaks_total`` count, not one from the parent and
    one from its mirror."""
    at, profile, seen = Point(0.3, 0.6), PrivacyProfile(k=3), []
    in_process = make_sharded(UNIT, HEIGHT, num_shards=2, kind=kind)
    with make_sharded(UNIT, HEIGHT, num_shards=2, kind=kind, parallel=True) as fleet:
        fleet.attach_injector(pipes := _Counted())
        for deployment in (in_process, fleet):
            for uid in range(NUM_USERS):
                deployment.register(uid, _position(uid, 0), profile)
            deployment.update(3, _position(3, 1))
            for cloak in (
                lambda: deployment.cloak(3),
                lambda: deployment.cloak_location(at, profile),
            ):
                with telemetry.enabled() as session:
                    region = cloak()
                seen.append((region, sorted(
                    (metric.name, getattr(metric, "count", None) or metric.value)
                    for metric in session.metrics
                    if metric.name in ("casper_cloak_seconds", "casper_shard_cloaks_total")
                )))
        assert pipes.frames == 0
        assert seen[2:] == seen[:2]
        assert all(
            records == [("casper_cloak_seconds", 1), ("casper_shard_cloaks_total", 1)]
            for _region, records in seen
        )


@pytest.mark.parametrize("kind", ["basic", "adaptive"])
def test_mutations_bound_the_queues_no_read_delivers(monkeypatch, kind) -> None:
    """Lone cloaks deliver nothing, so a mutation that fills a queue
    delivers it: after every call of a stream of registrations, moves
    and lone cloaks, every open run and queue holds fewer than
    ``MAX_BATCH`` (cut to 4 before the fleet forks), and the workers
    end up holding every mutation."""
    chunk, users, profile = 4, 24, PrivacyProfile(k=3)
    monkeypatch.setattr("repro.sharding.workers.MAX_BATCH", chunk)
    in_process = make_sharded(UNIT, HEIGHT, num_shards=2, kind=kind)
    with make_sharded(UNIT, HEIGHT, num_shards=2, kind=kind, parallel=True) as fleet:
        with telemetry.enabled() as session:
            for deployment in (in_process, fleet):
                for uid in range(users):
                    deployment.register(uid, _position(uid, 0), profile)
                    assert max(map(len, fleet._pending + fleet._runs)) < chunk
                for tick in range(1, 6):
                    deployment.update_batch(
                        [(uid, _position(uid, tick)) for uid in range(users)]
                    )
                    assert max(map(len, fleet._pending + fleet._runs)) < chunk
                    for uid in range(0, users, 5):
                        deployment.cloak(uid)
                    deployment.update(tick, _position(tick, 0))
                    assert max(map(len, fleet._pending + fleet._runs)) < chunk
            assert _roundtrips(session) > 0
        fleet.check_invariants()
        assert fleet.cloak_many(range(users)) == in_process.cloak_many(range(users))


@pytest.mark.parametrize("kind", ["basic", "adaptive"])
def test_a_faulted_cloak_batch_is_the_in_process_batch(kind) -> None:
    """``cloak_many`` is the one cloak read that crosses the pipes, so
    its packed ``cloaks`` ops and their replies are what wire faults
    must not bend: with frames dropped, duplicated, delayed, reordered
    and corrupted in both directions, every tick's batch still answers
    the in-process deployment's regions."""
    users, profile = 48, PrivacyProfile(k=3)
    plan = FaultPlan(
        seed=5, drop=0.15, duplicate=0.15, delay=0.1, reorder=0.15, corrupt=0.15
    )
    injector = FaultInjector(plan)
    in_process = make_sharded(UNIT, HEIGHT, num_shards=2, kind=kind)
    with make_sharded(UNIT, HEIGHT, num_shards=2, kind=kind, parallel=True) as fleet:
        for deployment in (in_process, fleet):
            for uid in range(users):
                deployment.register(uid, _position(uid, 0), profile)
        fleet.attach_injector(injector)
        for tick in range(1, 7):
            for deployment in (in_process, fleet):
                deployment.update_batch([(uid, _position(uid, tick)) for uid in range(users)])
            assert fleet.cloak_many(range(users)) == in_process.cloak_many(range(users))
        fleet.attach_injector(None)
        fleet.check_invariants()
    faults = ("drop", "duplicate", "delay", "reorder", "corrupt")
    assert all(injector.counts[fault] for fault in faults), injector.counts


def test_a_refused_batch_raises_its_refusal_not_a_delivery_failure(monkeypatch) -> None:
    """A refused ``update_batch`` queues its applied prefix but leaves
    delivering it to the next call, so the refusal is what the caller
    sees — as from the scalar loop — even when that prefix fills a
    frame (``MAX_BATCH`` cut to 2) and delivering it would fail."""
    monkeypatch.setattr("repro.sharding.workers.MAX_BATCH", 2)
    batch = [*((uid, _position(uid, 1)) for uid in range(8)), (8, Point(0.5, 1.5))]
    in_process = make_sharded(UNIT, HEIGHT, num_shards=2)
    _populate(in_process)
    with pytest.raises(OutOfBoundsError):
        in_process.update_batch(batch)
    with make_sharded(UNIT, HEIGHT, num_shards=2, parallel=True) as fleet:
        _populate(fleet)
        fleet.flush()

        def failing(*_args, **_kwargs):
            raise RuntimeError("delivery failed")

        fleet._deliver = failing
        with pytest.raises(OutOfBoundsError):
            fleet.update_batch(batch)
        assert max(map(len, fleet._pending)) >= 2  # a full frame, held back
        del fleet._deliver
        fleet.check_invariants()
        every = range(NUM_USERS)
        assert fleet.cloak_many(every) == in_process.cloak_many(every)


# ----------------------------------------------------------------------
# The parent mirror: update_batch == the scalar update loop
# ----------------------------------------------------------------------
def _mirror_fingerprint(fleet, session) -> dict:
    return {
        "stats": dataclasses.asdict(fleet.stats),
        "homes": [fleet.shard_of_user(uid) for uid in range(NUM_USERS)],
        "occupancy": fleet.shard_occupancy(),
        "points": [fleet.location_of(uid) for uid in range(NUM_USERS)],
        "shard_ops": {
            (metric.name, metric.labels): metric.value
            for metric in session.metrics
            if metric.name in ("casper_shard_ops_total", "casper_shard_users")
        },
        "cloaks": [fleet.cloak(uid) for uid in range(NUM_USERS)],
    }


BATCHES = {
    "confined": [(0, Point(0.06, 0.07)), (5, Point(0.3, 0.33)), (10, Point(0.6, 0.57))],
    "crossing": [(0, Point(0.95, 0.95)), (1, Point(0.05, 0.9)), (11, Point(0.1, 0.1))],
    "same-cell": [(2, Point(0.551, 0.051)), (3, Point(0.801, 0.052))],
    "mixed": [
        (0, Point(0.95, 0.95)), (2, Point(0.551, 0.051)), (4, Point(0.07, 0.31)),
        (7, Point(0.5, 0.5)), (8, Point(0.0, 1.0)), (9, Point(1.0, 0.0)),
    ],
    "duplicate-uid": [
        (0, Point(0.95, 0.95)), (1, Point(0.3, 0.3)), (0, Point(0.05, 0.05)),
        (0, Point(0.06, 0.05)),
    ],
    "one": [(6, Point(0.9, 0.1))],
    "empty": [],
}


@pytest.mark.parametrize("shards", [2, 4])
def test_parent_mirror_batch_equals_the_scalar_loop(shards: int) -> None:
    """For ``basic`` and ``adaptive``: either batch is the wrapped
    policy's, with homes taken from the rows."""
    for kind in ("basic", "adaptive"):
        fingerprints = []
        for batched in (True, False):
            with make_sharded(
                UNIT, HEIGHT, num_shards=shards, kind=kind, parallel=True
            ) as fleet, telemetry.enabled() as session:
                _populate(fleet)
                costs = {}
                for name, batch in BATCHES.items():
                    if batched:
                        costs[name] = fleet.update_batch(batch)
                    else:
                        costs[name] = [fleet.update(uid, point) for uid, point in batch]
                fingerprint = _mirror_fingerprint(fleet, session)
                fingerprint["costs"] = costs
                fleet.check_invariants()
                fingerprints.append(fingerprint)
        assert fingerprints[0] == fingerprints[1], kind
        assert any(fingerprints[0]["costs"]["crossing"]), kind
        assert not any(fingerprints[0]["costs"]["same-cell"]), kind


@pytest.mark.parametrize(
    "refused, error",
    [
        ((GHOST, Point(0.5, 0.5)), UnknownUserError),
        ((3, Point(0.5, 1.5)), OutOfBoundsError),
        ((GHOST, Point(7.0, 7.0)), UnknownUserError),  # unknown uid comes first
    ],
)
def test_parent_mirror_refused_move_applies_the_prefix(refused, error) -> None:
    batch = [(0, Point(0.95, 0.95)), (1, Point(0.06, 0.07)), refused, (2, Point(0.4, 0.4))]
    for kind in ("basic", "adaptive"):
        outcomes = []
        for batched in (True, False):
            with make_sharded(
                UNIT, HEIGHT, num_shards=2, kind=kind, parallel=True
            ) as fleet, telemetry.enabled() as session:
                _populate(fleet)
                with pytest.raises(error) as caught:
                    if batched:
                        fleet.update_batch(batch)
                    else:
                        for uid, point in batch:
                            fleet.update(uid, point)
                fingerprint = _mirror_fingerprint(fleet, session)
                fingerprint["error"] = str(caught.value)
                fleet.check_invariants()
                outcomes.append(fingerprint)
        assert outcomes[0] == outcomes[1], kind
        assert outcomes[0]["points"][0] == Point(0.95, 0.95)  # the prefix applied
        assert outcomes[0]["points"][2] != Point(0.4, 0.4)  # the suffix did not
