"""``update_frontdoor_workers``: the update path across every boundary.

``make_sharded(kind="basic", num_shards=2, parallel=True)`` behind a
``ShardFrontDoor``, driven by one TCP connection on loopback.  Each tick
sends every user's ``op_move`` in request frames of 256 envelopes, then
``op_cloak`` for the first tenth of the users: a worker applies deferred
moves only when a read forces the flush, so a tick is not over until
its cloaks return.  ``sharding.wire`` + ``sharding.frontdoor`` +
``sharding.workers`` do almost all the work; ``processor`` and
``server`` do none.

The front door is an in-process server, so it runs on the client's own
asyncio loop; the load is one closed-loop client because the protocol is
stop-and-wait per connection and the door serialises connections anyway.
"""

from __future__ import annotations

import asyncio
import hashlib
from pathlib import Path
from time import perf_counter
from typing import Callable

from repro.anonymizer import get_policy
from repro.messages import ShardEnvelope
from repro.observability import runtime as telemetry
from repro.sharding import make_sharded
from repro.sharding.frontdoor import ShardFrontDoor
from repro.sharding.wire import (
    KIND_REQUEST,
    KIND_RESPONSE,
    FrameDecoder,
    decode_response,
    encode_frame,
    op_cloak,
    op_move,
    op_register,
    response_cloak,
)

from benchmarks.service.harness import (
    ORACLE_EVERY,
    Failures,
    MachineSpeed,
    Measurement,
    Samples,
    both_views,
    cache_counts,
    check_cloak,
    layer_table,
    median_rate,
    percentile,
    rate,
    traced_measurement,
    window_percentile,
    worker_telemetry,
)
from benchmarks.service.inputs import HEIGHT, UNIT, Inputs
from benchmarks.service.tracing import Operation, Tracer, span_of

NAME = "update_frontdoor_workers"
WHY = (
    "moves and tick-closing cloaks over TCP frames into 2 worker processes: "
    "only wire, front door and worker transport work, so windowed acks or packed "
    "batches must show here and nowhere else"
)

NUM_SHARDS = 2
FRAME_ENVELOPES = 256
#: Reads that close set-up at every depth (enough users to land on both
#: shards), so deferred registrations are applied before any timer runs.
WARM_UP_CLOAKS = 32
#: Reference samples before each tick: a timed run holds ~30 ticks and a
#: traced pass 4, and the machine-speed factor is a median over them.
SPEED_SAMPLES_PER_TICK = 5
_EXPECTED_REPLIES = frozenset({"ack", "cost", "cloak"})


class FrontDoorDeployment:
    """Worker fleet, front door and one connected client on one loop."""

    def __init__(self, inputs: Inputs, tracer: Tracer | None = None) -> None:
        self.tracer = tracer
        self.failures = Failures()
        self.bytes_up = 0
        self.bytes_down = 0
        self.frames = 0
        self.envelopes = 0
        #: Digest of every cloak reply, for the cross-depth self-check.
        self.cloak_replies = hashlib.sha256()
        self._inputs = inputs
        self.busy = 0.0
        #: Sampled before every tick (a timed run swaps in its own).
        self.speed = MachineSpeed()
        self._seq = 0
        self._cloaks_seen = 0
        self._decoder = FrameDecoder()
        self._writer: asyncio.StreamWriter | None = None
        self._door: ShardFrontDoor | None = None
        self.loop = asyncio.new_event_loop()
        self.anonymizer = make_sharded(
            UNIT, HEIGHT, num_shards=NUM_SHARDS, kind="basic", parallel=True
        )
        try:
            self.loop.run_until_complete(self._open())
        except BaseException:
            self.close()
            raise

    async def _open(self) -> None:
        self._door = ShardFrontDoor(self.anonymizer)
        await self._door.start()
        self._reader, self._writer = await asyncio.open_connection(*self._door.address)
        population = self._inputs.population
        registrations = list(
            zip(range(population.num_users), population.start, population.profiles)
        )
        for frame in _frames(registrations):
            await self.exchange(op_register, frame)
        # Registrations only queue in the parent runtime; a read makes
        # the workers apply them, so set-up ends with a fleet that is
        # ready, not one that owes its first tick the registration work.
        await self.exchange(
            op_cloak, [(uid,) for uid in range(min(WARM_UP_CLOAKS, len(registrations)))]
        )
        if self.failures.failed:
            raise RuntimeError(f"registration failed: {self.failures.causes}")
        # Counters and digests describe the ticks, not the set-up.
        self.failures.attempted = 0
        self.bytes_up = self.bytes_down = self.frames = self.envelopes = 0
        self.cloak_replies = hashlib.sha256()

    def close(self) -> None:
        try:
            if not self.loop.is_closed():
                self.loop.run_until_complete(self._shutdown())
                self.loop.close()
        finally:
            self.anonymizer.close()

    async def _shutdown(self) -> None:
        # The client goes first, and awaits its writer, so the door's
        # handler reads EOF and returns by itself; stopping the loop
        # under a handler that is still closing prints `Task cancelled`.
        if self._writer is not None:
            self._writer.close()
            await self._writer.wait_closed()
            self._writer = None
        if self._door is not None:
            await self._door.stop()
            self._door = None
        handlers = [
            task for task in asyncio.all_tasks() if task is not asyncio.current_task()
        ]
        if handlers:
            await asyncio.wait(handlers, timeout=5.0)

    async def exchange(
        self, build: Callable[..., bytes], items: list[tuple], xy: object = None
    ) -> float:
        """One request frame of ``build(*item)`` envelopes and its
        response; returns the round trip in seconds as the client sees
        it, encode and decode included.  ``xy`` (cloak frames, whose
        items are ``(uid,)``) turns on the cloak oracle."""
        tracer = self.tracer
        with Operation(tracer) as op:
            self._seq += 1
            with span_of(tracer, "wire.encode"):
                request = encode_frame(
                    KIND_REQUEST, self._seq,
                    [ShardEnvelope(0, build(*item)) for item in items],
                )
            frame = await self._roundtrip(request)
            with span_of(tracer, "wire.decode"):
                replies = [decode_response(e.payload) for e in frame.envelopes]
        self.frames += 1
        self.envelopes += len(items)
        self.failures.attempted += len(items)
        if frame.kind != KIND_RESPONSE or len(replies) != len(items):
            self.failures.fail("nack", len(items))
            return op.seconds
        for envelope, reply in zip(frame.envelopes, replies):
            if reply[0] not in _EXPECTED_REPLIES:
                self.failures.fail(f"reply:{reply[0]}")
            elif reply[0] == "cloak":
                self.cloak_replies.update(envelope.payload)
        if xy is not None:
            self._check_cloaks(items, replies, xy)
        return op.seconds

    async def _roundtrip(self, request: bytes):
        tracer = self.tracer
        assert self._writer is not None
        self.bytes_up += len(request)
        with span_of(tracer, "frontdoor.rtt"):
            self._writer.write(request)
            await self._writer.drain()
        while True:
            with span_of(tracer, "frontdoor.rtt"):
                chunk = await self._reader.read(65536)
            if not chunk:
                raise ConnectionError("front door closed the connection")
            self.bytes_down += len(chunk)
            with span_of(tracer, "wire.decode"):
                frames = self._decoder.feed(chunk)
            if frames:
                return frames[0]

    def _check_cloaks(self, items: list[tuple], replies: list[tuple], xy) -> None:
        profiles = self._inputs.population.profiles
        for (uid,), reply in zip(items, replies):
            self._cloaks_seen += 1
            if self._cloaks_seen % ORACLE_EVERY or reply[0] != "cloak":
                continue
            self.failures.oracle_checks += 1
            if not check_cloak(reply[1], profiles[uid], xy):
                self.failures.fail("oracle:cloak")


def deploy(inputs: Inputs) -> FrontDoorDeployment:
    return FrontDoorDeployment(inputs)


def _frames(items: list) -> list[list]:
    return [
        items[start : start + FRAME_ENVELOPES]
        for start in range(0, len(items), FRAME_ENVELOPES)
    ]


async def _tick(
    deployment: FrontDoorDeployment, inputs: Inputs, tick: int,
    move_rtts: list[float],
) -> tuple[float, float]:
    """Send one recorded tick; returns (move seconds, cloak seconds)."""
    deployment.speed.sample(SPEED_SAMPLES_PER_TICK)
    population = inputs.population
    move_seconds = cloak_seconds = 0.0
    for frame in _frames(population.moves(tick)):
        elapsed = await deployment.exchange(op_move, frame)
        move_rtts.append(elapsed)
        move_seconds += elapsed
    for frame in _frames([(uid,) for uid in inputs.cloak_uids[tick]]):
        cloak_seconds += await deployment.exchange(
            op_cloak, frame, population.tick_xy[tick]
        )
    return move_seconds, cloak_seconds


def measure(
    deployment: FrontDoorDeployment, inputs: Inputs, seconds: float,
    speed: MachineSpeed,
) -> Measurement:
    return deployment.loop.run_until_complete(
        _measure(deployment, inputs, seconds, speed)
    )


async def _measure(
    deployment: FrontDoorDeployment, inputs: Inputs, seconds: float,
    speed: MachineSpeed,
) -> Measurement:
    move_rtts, tick_seconds, cloak_seconds = Samples(), Samples(), Samples()
    users = inputs.population.num_users
    cloaks = len(inputs.cloak_uids[0])
    deadline = perf_counter() + 4 * seconds + 10
    deployment.speed = speed
    for tick in inputs.population.schedule():
        rtts: list[float] = []
        moving, cloaking = await _tick(deployment, inputs, tick, rtts)
        for rtt in rtts:
            move_rtts.add(rtt, speed.current)
        tick_seconds.add(moving + cloaking, speed.current)
        cloak_seconds.add(cloaking, speed.current)
        if sum(tick_seconds.raw) >= seconds or perf_counter() > deadline:
            break
    ticks = len(tick_seconds)
    wire_bytes = deployment.bytes_up + deployment.bytes_down
    # One window is one tick (its move frames, for the frame latency).
    frames_per_tick = -(-users // FRAME_ENVELOPES)

    def contract(view: str) -> dict[str, tuple[float, str]]:
        rtts = getattr(move_rtts, view)
        return {
            "primary_ops_per_s": (
                median_rate(users, getattr(tick_seconds, view)), "1/s",
            ),
            "secondary_ops_per_s": (
                median_rate(cloaks, getattr(cloak_seconds, view)), "1/s",
            ),
            "request_p50_ms": (percentile(rtts, 50) * 1e3, "ms"),
            "request_p95_ms": (window_percentile(rtts, frames_per_tick, 95) * 1e3, "ms"),
        }

    metrics, raw = both_views(contract)
    return Measurement(
        metrics,
        deployment.failures,
        detail={
            "updates_per_s": (rate(users * ticks, sum(tick_seconds.raw)), "1/s"),
            "cloaks_per_s": (rate(cloaks * ticks, sum(cloak_seconds.raw)), "1/s"),
            "update_frame_p99_ms": (percentile(move_rtts.raw, 99) * 1e3, "ms"),
            "update_frame_samples": (float(len(move_rtts)), "count"),
            "wire_bytes_per_update": (wire_bytes / (users * ticks), "bytes"),
            "ticks": (float(ticks), "count"),
            **raw,
        },
    )


# ----------------------------------------------------------------------
# Traced pass: the same op stream at every depth, differenced
# ----------------------------------------------------------------------
def _register(target: object, inputs: Inputs) -> None:
    population = inputs.population
    for uid, (point, profile) in enumerate(zip(population.start, population.profiles)):
        target.register(uid, point, profile)
    for uid in range(min(WARM_UP_CLOAKS, population.num_users)):
        target.cloak(uid)


def _direct(target: object, inputs: Inputs, failures: Failures) -> dict:
    """Apply the traced ticks straight to a registered anonymizer —
    exactly the calls the door's executor makes, one ``update`` per
    move, one ``cloak`` per tick-closing read."""
    population = inputs.population
    update_seconds = cloak_seconds = 0.0
    regions: list[tuple] = []
    speed = MachineSpeed()
    for tick in range(inputs.sizes["trace_ticks"]):
        moves = population.moves(tick)
        speed.sample(SPEED_SAMPLES_PER_TICK)
        start = perf_counter()
        for uid, point in moves:
            target.update(uid, point)
        middle = perf_counter()
        tick_regions = [target.cloak(uid) for uid in inputs.cloak_uids[tick]]
        cloak_seconds += perf_counter() - middle
        update_seconds += middle - start
        failures.attempted += len(moves) + len(tick_regions)
        regions.extend(zip(inputs.cloak_uids[tick], tick_regions))
    replies = hashlib.sha256()
    for _uid, region in regions:
        replies.update(response_cloak(region))
    return {
        "update_seconds": update_seconds,
        "cloak_seconds": cloak_seconds,
        "speed": speed.factor,
        "replies": replies.digest(),
        "regions": regions,
    }


def _through_door(inputs: Inputs, tracer: Tracer | None) -> FrontDoorDeployment:
    deployment = FrontDoorDeployment(inputs, tracer)
    try:
        if tracer is not None:
            tracer.reset()
        session = telemetry.active()
        if session is not None:
            session.clear()  # set-up's round trips are not the ticks'

        async def ticks() -> float:
            busy = 0.0
            for tick in range(inputs.sizes["trace_ticks"]):
                busy += sum(await _tick(deployment, inputs, tick, []))
            return busy

        deployment.busy = deployment.loop.run_until_complete(ticks())
    finally:
        deployment.close()
    return deployment


def trace(inputs: Inputs, out_dir: Path) -> Measurement:
    failures = Failures()
    plain = _through_door(inputs, None)
    # Every depth pays the same in-program telemetry, so differences
    # between depths are the layers and not the instrumentation; the
    # plain pass above has it off, so the overhead ratio includes it.
    engine = get_policy("basic").single(UNIT, HEIGHT, 8192, None)
    _register(engine, inputs)
    counters0 = engine.stats.counter_updates
    with telemetry.enabled():
        single = _direct(engine, inputs, failures)
    hits, misses = cache_counts(engine)
    in_process = make_sharded(UNIT, HEIGHT, num_shards=NUM_SHARDS, kind="basic")
    _register(in_process, inputs)
    with telemetry.enabled():
        fleet = _direct(in_process, inputs, failures)
    with make_sharded(
        UNIT, HEIGHT, num_shards=NUM_SHARDS, kind="basic", parallel=True
    ) as pool, telemetry.enabled():
        _register(pool, inputs)
        workers = _direct(pool, inputs, failures)
    tracer = Tracer()
    with telemetry.enabled() as session:
        door = _through_door(inputs, tracer)
        worker_counts = worker_telemetry(session)
    failures.absorb(plain.failures)
    failures.absorb(door.failures)
    profiles = inputs.population.profiles
    moves = inputs.population.num_users * inputs.sizes["trace_ticks"]
    table = layer_table(tracer)
    table.update(worker_counts)
    # The depths ran one after another on a box whose speed drifts, so
    # each pass's seconds are brought to the door pass's machine speed
    # before differencing; the layers then sum to the door pass's wall.
    seconds = {}
    for depth, result in (("single", single), ("fleet", fleet), ("workers", workers)):
        scale = door.speed.factor / result["speed"]
        result["update_seconds"] *= scale
        result["cloak_seconds"] *= scale
        seconds[depth] = result["update_seconds"] + result["cloak_seconds"]
    table.update(
        {
            "anonymizer.update_s": single["update_seconds"],
            "anonymizer.update_count": float(moves),
            "anonymizer.cloak_s": single["cloak_seconds"],
            "anonymizer.cloak_count": float(len(single["regions"])),
            "anonymizer.cache_hit_rate": hits / max(hits + misses, 1),
            "anonymizer.counter_updates_per_update": (
                engine.stats.counter_updates - counters0
            ) / moves,
            "anonymizer.area_over_amin_mean": sum(
                region.accuracy_area(profiles[uid]) for uid, region in single["regions"]
            ) / len(single["regions"]),
            "anonymizer.k_achieved_over_k_mean": sum(
                region.accuracy_k(profiles[uid]) for uid, region in single["regions"]
            ) / len(single["regions"]),
            "fleet.self_s": seconds["fleet"] - seconds["single"],
            "workers.self_s": seconds["workers"] - seconds["fleet"],
            "frontdoor.self_s": table["frontdoor.rtt_s"] - seconds["workers"],
            "workers.crashes": float(door.anonymizer.worker_crashes),
            "workers.heals": float(door.anonymizer.worker_heals),
            "wire.bytes_up": float(door.bytes_up),
            "wire.bytes_down": float(door.bytes_down),
            "wire.frames": float(door.frames),
            "wire.envelopes_per_frame": door.envelopes / door.frames,
            "wire.bytes_per_update": (door.bytes_up + door.bytes_down) / moves,
        }
    )
    digests = {
        plain.cloak_replies.digest(), door.cloak_replies.digest(),
        single["replies"], fleet["replies"], workers["replies"],
    }
    return traced_measurement(
        NAME, table, tracer, failures, plain.busy, door.busy,
        len(digests) == 1, out_dir,
    )
