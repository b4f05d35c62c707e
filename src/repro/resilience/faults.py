"""Deterministic fault injection — the failure model of the pipeline.

Real LBS deployments lose messages, deliver them twice, hold them back,
reorder them, flip their bytes and restart their anonymizers.  This
module makes every one of those failure modes a *seeded, replayable
input*: a :class:`FaultPlan` declares the per-message probabilities and
the crash schedule, a :class:`FaultInjector` draws every decision from
``repro.utils.rng`` child streams, and the resulting
:class:`FaultEvent` trace is byte-for-byte reproducible from the seed —
the property the chaos CI gate asserts on every push.

The injector models the two message channels of Figure 1 that can
actually fail (the trusted in-process calls cannot):

* ``update:<uid>`` — location updates from a mobile client to the
  anonymizer (one logical channel per user, so a delayed old update can
  resurface during a later send: the reordering case the per-user
  sequence numbers exist for);
* ``response:<qid>`` — candidate-list payloads from the database server
  back to the client (one channel per request, flushed when the request
  completes, so retries of the same query race only against their own
  stale copies).

Delay and reorder are both implemented as *held-back deliveries*: a
held message is released by a later ``transmit`` on the same channel and
appended **after** the newer payload — which is exactly a reordering.
``reorder`` is the one-transmit hold, ``delay`` holds for
``delay_ticks`` transmits.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field, replace

from repro.observability import runtime as _telemetry
from repro.utils.rng import SeedLike, spawn_rngs

__all__ = ["FaultPlan", "FaultEvent", "FaultInjector", "Delivery"]

#: Every fault kind an injector can record, in documentation order.
FAULT_KINDS = (
    "drop",
    "duplicate",
    "delay",
    "reorder",
    "corrupt",
    "crash",
    "shard_crash",
    "state_loss",
)


@dataclass(frozen=True, slots=True)
class FaultPlan:
    """The declarative failure model of one chaos run.

    All probabilities are per-message and independent; a single message
    can be duplicated *and* have one copy corrupted.  ``crash_period``
    and ``lose_user`` target the anonymizer instead of the wire:
    ``crash_period > 0`` crashes (and restores from the latest
    snapshot) every that-many guarded operations, ``lose_user`` is the
    per-operation probability that the anonymizer silently loses the
    operating user's state (detected at the next cloak, healed by the
    client's self-describing update).  ``shard_crash_period > 0``
    crashes a *single* randomly drawn shard of a sharded anonymizer
    every that-many guarded operations: on a worker fleet the victim's
    process is killed and healed over the wire; in one process there is
    no smaller unit that can fail, so it is a whole-process crash.
    """

    name: str = "custom"
    seed: int = 0
    drop: float = 0.0
    duplicate: float = 0.0
    delay: float = 0.0
    delay_ticks: int = 2
    reorder: float = 0.0
    corrupt: float = 0.0
    crash_period: int = 0
    lose_user: float = 0.0
    shard_crash_period: int = 0

    def __post_init__(self) -> None:
        for f in ("drop", "duplicate", "delay", "reorder", "corrupt", "lose_user"):
            value = getattr(self, f)
            if not 0.0 <= value <= 1.0:
                raise ValueError(f"{f} must be a probability in [0, 1], got {value}")
        if self.delay_ticks < 1:
            raise ValueError("delay_ticks must be >= 1")
        if self.crash_period < 0:
            raise ValueError("crash_period must be >= 0")
        if self.shard_crash_period < 0:
            raise ValueError("shard_crash_period must be >= 0")

    @property
    def is_quiet(self) -> bool:
        """True when the plan can never inject anything."""
        worst = max(
            self.drop, self.duplicate, self.delay,
            self.reorder, self.corrupt, self.lose_user,
        )
        return (
            worst <= 0.0
            and self.crash_period == 0
            and self.shard_crash_period == 0
        )

    def with_seed(self, seed: int) -> "FaultPlan":
        """The same failure model on a different random stream."""
        return replace(self, seed=seed)


@dataclass(frozen=True, slots=True)
class FaultEvent:
    """One injected fault, as recorded in the deterministic trace."""

    index: int  # monotone injector-wide event counter
    kind: str  # one of FAULT_KINDS
    channel: str  # "update:<uid>" / "response:<qid>" / "anonymizer"
    detail: str = ""  # e.g. corrupted byte offset, crash op count

    def as_tuple(self) -> tuple[int, str, str, str]:
        return (self.index, self.kind, self.channel, self.detail)


@dataclass(slots=True)
class _HeldMessage:
    payload: bytes
    release_at: int  # channel-local transmit counter


@dataclass(slots=True)
class _Channel:
    transmits: int = 0
    held: list[_HeldMessage] = field(default_factory=list)


@dataclass(frozen=True, slots=True)
class Delivery:
    """One payload arriving at the receiver during a transmit."""

    payload: bytes
    #: True when this delivery is a held-back copy from an *earlier*
    #: transmit on the channel (a reordered or delayed message).
    late: bool = False


class FaultInjector:
    """Stateful executor of a :class:`FaultPlan`.

    Four independent child RNG streams (wire decisions, state-loss
    draws, retry backoff jitter, shard-victim draws) are spawned from
    the plan's seed, so adding wire traffic does not perturb crash
    victims and vice versa; the crash schedules themselves are plain
    counters and draw nothing.  A child stream depends only on its
    index, so the list can grow or shrink at its end without changing
    the earlier streams.  Every decision appends to
    :attr:`trace`; the canonical JSON of the trace is the determinism
    witness.
    """

    def __init__(self, plan: FaultPlan) -> None:
        self.plan = plan
        wire_rng, state_rng, backoff_rng, shard_rng = spawn_rngs(plan.seed, 4)
        self._wire_rng = wire_rng
        self._state_rng = state_rng
        #: Reserved for retry-jitter draws so backoff schedules share the
        #: plan's determinism without consuming wire/state stream draws.
        self.backoff_rng = backoff_rng
        self._shard_rng = shard_rng
        self._channels: dict[str, _Channel] = {}
        #: One guarded-operation counter per crash schedule.
        self._ops = {"crash": 0, "shard_crash": 0}
        self.trace: list[FaultEvent] = []
        self.counts: dict[str, int] = {kind: 0 for kind in FAULT_KINDS}

    # ------------------------------------------------------------------
    # Wire faults
    # ------------------------------------------------------------------
    def transmit(self, channel: str, payload: bytes) -> list[Delivery]:
        """Send ``payload`` on ``channel``; returns what arrives *now*.

        May return zero deliveries (dropped or held), several (a
        duplicate, or held-back messages released by this transmit), or
        corrupted bytes.  Held messages are appended after the current
        payload, which is what makes a release a reordering.
        """
        state = self._channels.setdefault(channel, _Channel())
        state.transmits += 1
        deliveries: list[Delivery] = []
        plan = self.plan
        # Fixed draw order per transmit keeps traces easy to reason
        # about; every branch below is a pure function of the stream.
        u_drop = float(self._wire_rng.random())
        u_dup = float(self._wire_rng.random())
        u_delay = float(self._wire_rng.random())
        u_reorder = float(self._wire_rng.random())
        u_corrupt = float(self._wire_rng.random())
        if u_drop < plan.drop:
            self._record("drop", channel)
        else:
            copies = [payload]
            if u_dup < plan.duplicate:
                self._record("duplicate", channel)
                copies.append(payload)
            if u_corrupt < plan.corrupt and len(payload) > 0:
                offset = int(self._wire_rng.integers(len(payload)))
                bit = 1 << int(self._wire_rng.integers(8))
                corrupted = bytearray(copies[0])
                corrupted[offset] ^= bit
                copies[0] = bytes(corrupted)
                self._record("corrupt", channel, f"byte {offset}")
            if u_delay < plan.delay:
                self._record("delay", channel, f"{plan.delay_ticks} transmits")
                hold_for = plan.delay_ticks
            elif u_reorder < plan.reorder:
                self._record("reorder", channel)
                hold_for = 1
            else:
                hold_for = 0
            if hold_for:
                for copy in copies:
                    state.held.append(
                        _HeldMessage(copy, state.transmits + hold_for)
                    )
            else:
                deliveries.extend(Delivery(copy) for copy in copies)
        # Release ripe held messages *after* the fresh payload: older
        # traffic arriving behind newer traffic is the reordering.
        still_held: list[_HeldMessage] = []
        for held in state.held:
            if held.release_at <= state.transmits:
                deliveries.append(Delivery(held.payload, late=True))
            else:
                still_held.append(held)
        state.held = still_held
        return deliveries

    def flush(self, channel: str) -> None:
        """Discard every held message on ``channel`` (request finished;
        stale copies of its traffic must not leak into the next one)."""
        state = self._channels.get(channel)
        if state is not None:
            state.held.clear()

    def pending(self, channel: str) -> int:
        state = self._channels.get(channel)
        return len(state.held) if state is not None else 0

    # ------------------------------------------------------------------
    # Anonymizer faults
    # ------------------------------------------------------------------
    def _tick(self, kind: str, period: int) -> int:
        """Advance the ``kind`` schedule's own guarded-operation
        counter; the count when its crash fires now, else 0."""
        ops = self._ops[kind] = self._ops[kind] + 1
        return ops if period > 0 and ops % period == 0 else 0

    def next_op(self) -> bool:
        """Advance the whole-process crash schedule; True = crash now."""
        if ops := self._tick("crash", self.plan.crash_period):
            self._record("crash", "anonymizer", f"op {ops}")
        return ops > 0

    def next_shard_op(self, num_shards: int) -> int | None:
        """Advance the shard-crash schedule; the victim shard id when a
        single-shard crash fires now, else ``None``.  The victim is
        drawn from the dedicated shard stream, so wire and whole-crash
        schedules are unperturbed by shard crashes."""
        if not (ops := self._tick("shard_crash", self.plan.shard_crash_period)):
            return None
        victim = int(self._shard_rng.integers(num_shards))
        self._record("shard_crash", "anonymizer", f"shard {victim} op {ops}")
        return victim

    def should_lose_user(self) -> bool:
        """Draw the per-operation state-loss decision."""
        if self.plan.lose_user <= 0.0:
            return False
        return float(self._state_rng.random()) < self.plan.lose_user

    def record_state_loss(self, channel: str, detail: str = "") -> None:
        self._record("state_loss", channel, detail)

    # ------------------------------------------------------------------
    # Trace
    # ------------------------------------------------------------------
    def _record(self, kind: str, channel: str, detail: str = "") -> None:
        """Append one event to the trace and mirror it into telemetry,
        labelled by channel *class* (``update``, ``shard``, ...) so
        the label set stays bounded."""
        self.trace.append(FaultEvent(len(self.trace), kind, channel, detail))
        self.counts[kind] += 1
        _telemetry.count(
            "casper_faults_injected_total", kind, channel.split(":", 1)[0]
        )

    @property
    def faults_injected(self) -> int:
        return len(self.trace)

    def trace_json(self) -> str:
        """Canonical JSON of the fault trace (the determinism witness)."""
        return json.dumps(
            [event.as_tuple() for event in self.trace],
            separators=(",", ":"),
        )

    def trace_digest(self) -> str:
        """SHA-256 of :meth:`trace_json` — compact equality witness."""
        return hashlib.sha256(self.trace_json().encode("utf-8")).hexdigest()
