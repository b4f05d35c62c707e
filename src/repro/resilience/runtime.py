"""The resilience runtime — retries, crash recovery, degradation ladder.

One :class:`ResilienceRuntime` wraps the anonymizer of a
:class:`~repro.server.casper.Casper` deployment: the facade holds the
runtime *as* its anonymizer, so every call it makes on the
``CloakingPolicy`` surface meets the runtime first.  It owns the
injected :class:`~repro.resilience.faults.FaultInjector` and every
policy decision the fault model forces:

* **channels** — a location update travels as one shard-wire frame (a
  ``register`` op), a candidate-list response through its codec, and
  both are offered to the injector;
  an undelivered message is tried up to ``retry.MAX_ATTEMPTS`` times
  (exponential backoff over *virtual* seconds — nothing sleeps);
* **idempotence** — each applied update's per-user sequence number is
  remembered, so duplicated and reordered deliveries are recognised and
  ignored rather than replayed;
* **crash recovery** — the anonymizer's pyramid + user table is
  snapshotted every :data:`SNAPSHOT_EVERY` guarded operations; a crash
  restores the latest snapshot *and rolls the sequence table back with
  it* (the two are one atomic unit, or replays after a crash would be
  misjudged).  A shard crash recovers the way its deployment does: a
  worker fleet kills and heals the victim's process, and nothing rolls
  back; in one process it is that whole restore;
* **the degradation ladder** — when a fresh cloak is impossible the
  runtime tries, in order: a remembered cloak within the stale grace
  window (revalidated against the *live* population), a conservative
  parent-cell escalation from the remembered cells, and finally an
  explicit :class:`~repro.errors.DegradedModeError`.  Every rung is
  validated against the ``(k, A_min)`` the user holds at emission time
  — availability degrades, privacy never does;
* **the lifecycle** — a profile change rebinds the remembered cloak's
  profile; a departure forgets the user's sequence number and
  remembered cloak (a silent state loss keeps both: healing needs them).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Iterable

from repro.anonymizer.cells import CellId
from repro.anonymizer.cloak import CloakedRegion
from repro.anonymizer.policy import CloakingPolicy
from repro.anonymizer.profile import PrivacyProfile
from repro.errors import (
    DegradedModeError,
    ProfileUnsatisfiableError,
    QueryDeliveryError,
    UnknownUserError,
    UpdateDeliveryError,
)
from repro.geometry import Point
from repro.observability import runtime as _telemetry
from repro.processor import CandidateList
from repro.resilience.faults import Delivery, FaultInjector, FaultPlan
from repro.resilience.retry import MAX_ATTEMPTS, backoff
from repro.server.codec import decode_candidate_list, encode_candidate_list
from repro.sharding.wire import (
    KIND_REQUEST,
    decode_frame,
    decode_op,
    encode_frame,
    op_register,
)

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.server.casper import Casper

__all__ = ["ResilienceRuntime", "Emission", "SNAPSHOT_EVERY", "STALE_GRACE_OPS"]

#: Integer counters a runtime maintains (``report()`` exports them all).
COUNTER_NAMES = (
    "retries",
    "updates_sent",
    "updates_delivered",
    "updates_abandoned",
    "duplicates_ignored",
    "corrupt_rejected",
    "recoveries",
    "worker_crashes",
    "fallback_cloaks",
    "degraded_operations",
)


#: Guarded operations between anonymizer snapshots.  Smaller means less
#: state lost per crash but more snapshot copying.
SNAPSHOT_EVERY = 25
#: How many guarded operations a remembered cloak stays eligible for the
#: stale rung (it is still revalidated against live counts).
STALE_GRACE_OPS = 200


@dataclass(frozen=True, slots=True)
class Emission:
    """One cloak the resilient pipeline emitted, for the privacy scan.

    ``full_area`` marks the cold-start policy (the whole service area is
    stored while the population cannot satisfy ``k``) — by construction
    the most private choice, so the scan exempts it; every other
    emission must satisfy ``(k, A_min)`` outright.
    """

    mode: str  # "fresh" | "stale" | "escalated" | "cold_start"
    k: int
    a_min: float
    achieved_k: int
    area: float
    full_area: bool

    def violates_privacy(self) -> bool:
        """True when this cloak silently under-delivered the profile."""
        if self.full_area:
            return False
        return self.achieved_k < self.k or self.area < self.a_min - 1e-12


@dataclass(slots=True)
class _Remembered:
    region: CloakedRegion
    profile: PrivacyProfile
    op: int  # guarded-op stamp when the cloak was fresh


class ResilienceRuntime:
    """Fault handling + graceful degradation, wrapped around one Casper
    deployment's anonymizer.

    Construct with a :class:`FaultPlan`, hand it to
    ``Casper(..., resilience=runtime)``; the facade calls :meth:`attach`
    once and from then on holds the runtime as its anonymizer, with
    :meth:`send_update` and :meth:`deliver_candidates` as its update
    and response channels.  :meth:`cloak`, :meth:`cloak_many`,
    :meth:`location_of`, :meth:`deregister` and :meth:`set_profile`
    are intercepted; every other attribute, ``in`` included, is the
    wrapped anonymizer's.
    """

    def __init__(self, plan: FaultPlan) -> None:
        self.plan = plan
        self.injector = FaultInjector(plan)
        self.counters: dict[str, int] = {name: 0 for name in COUNTER_NAMES}
        self.fallback_modes: dict[str, int] = {}
        self.virtual_backoff_seconds = 0.0
        #: Cloaks emitted per ladder mode; of the cloaks themselves only
        #: the ones that under-delivered their profile are kept.
        self.emissions_by_mode: dict[str, int] = {}
        self._violations: list[Emission] = []
        self._casper: "Casper | None" = None
        #: The anonymizer this runtime wraps (set by :meth:`attach`).
        self.wrapped: CloakingPolicy | None = None
        self._applied_seq: dict[object, int] = {}
        self._last_cloaks: dict[object, _Remembered] = {}
        #: The anonymizer state and the sequence table, captured together.
        self._snapshot: tuple[object, dict[object, int]] | None = None
        self._ops = 0
        self._ops_since_snapshot = 0
        self._qid = 0

    # ------------------------------------------------------------------
    # Wiring
    # ------------------------------------------------------------------
    def attach(self, casper: "Casper") -> "ResilienceRuntime":
        """Wrap ``casper``'s anonymizer and take the initial snapshot;
        returns the wrapper the facade then holds as its anonymizer."""
        if self._casper is not None:
            raise RuntimeError("a ResilienceRuntime serves exactly one Casper")
        self._casper = casper
        self.wrapped = casper.anonymizer
        # A parallel anonymizer carries the wire-fault seam itself: the
        # injector then sees (and may drop, corrupt, reorder...) every
        # real frame on the parent<->worker pipes, not an emulation.
        attach_injector = getattr(self.wrapped, "attach_injector", None)
        if attach_injector is not None and not self.plan.is_quiet:
            attach_injector(self.injector)
        self._take_snapshot()
        return self

    def __getattr__(self, name: str) -> object:
        # Reached only for names the runtime does not define: the rest
        # of the wrapped anonymizer's surface passes through.
        wrapped = self.__dict__.get("wrapped")
        if wrapped is None:
            raise AttributeError(name)
        return getattr(wrapped, name)

    def __contains__(self, uid: object) -> bool:
        return uid in self.wrapped

    # ------------------------------------------------------------------
    # Crash / state-loss guard
    # ------------------------------------------------------------------
    def guard(self, uid: object | None = None) -> None:
        """One guarded anonymizer operation: advance the crash schedule,
        maybe restore, maybe lose ``uid``'s state, refresh the snapshot
        on cadence."""
        injector, shards = self.injector, getattr(self.wrapped, "num_shards", 1)
        if injector.next_op():
            self._restore()
        elif (victim := injector.next_shard_op(shards)) is not None:
            self._crash_shard(victim)
        elif uid is not None and injector.should_lose_user():
            self._lose_user(uid)
        self._ops += 1
        self._ops_since_snapshot += 1
        if self._ops_since_snapshot >= SNAPSHOT_EVERY:
            self._take_snapshot()

    def _take_snapshot(self) -> None:
        self._snapshot = (self.wrapped.snapshot(), dict(self._applied_seq))
        self._ops_since_snapshot = 0

    def _restore(self) -> None:
        """Crash: restore the anonymizer and the sequence table as one
        atomic unit (they were captured together)."""
        state, applied_seq = self._snapshot  # type: ignore[misc]
        self.wrapped.restore(state)
        self._applied_seq = dict(applied_seq)
        self._ops_since_snapshot = 0
        self.counters["recoveries"] += 1
        _telemetry.count("casper_recoveries_total", "restore")

    def _crash_shard(self, victim: int) -> None:
        """Single-shard crash, recovered the way the deployment it hits
        recovers.

        On a worker fleet the victim's OS process is killed mid-run and
        the supervisor respawns and heals it over the wire (an install
        of the parent deployment's snapshot).  Nothing rolls back: the
        heal source reflects every acknowledged mutation, so users keep
        their state and their sequence numbers, and the blast radius is
        availability (one stalled exchange) only.  In one process there
        is no smaller unit that can fail, so the crash is a whole
        snapshot restore.
        """
        crash_worker = getattr(self.wrapped, "crash_worker", None)
        if crash_worker is None:
            self._restore()
            return
        crash_worker(victim)
        self.counters["worker_crashes"] += 1

    def _lose_user(self, uid: object) -> None:
        """Silent state loss: the anonymizer forgets one user entirely.

        Implemented as a full deregistration so the pyramid counters
        stay exact — an undercount is privacy-conservative, whereas
        counters that still include a forgotten user could let a cloak
        claim ``k`` with ``k - 1`` real users.
        """
        anonymizer = self.wrapped
        if uid not in anonymizer:
            return
        anonymizer.deregister(uid)
        self.injector.record_state_loss("anonymizer", f"user {uid}")

    # ------------------------------------------------------------------
    # The wrapped CloakingPolicy surface
    # ------------------------------------------------------------------
    def cloak(self, uid: object) -> CloakedRegion:
        """A query-path cloak: one guarded operation, then the ladder —
        :class:`~repro.errors.DegradedModeError` rather than a cloak
        below the user's profile."""
        self.guard(uid)
        return self.cloak_or_degrade(uid)[0]

    def cloak_many(
        self, uids: Iterable[object], unsatisfiable: CloakedRegion | None = None
    ) -> list[CloakedRegion]:
        """Without a stand-in, the query batch: :meth:`cloak` per entry,
        in order, the first exhausted ladder raising.  With one, the
        storage push: the ladder unguarded per entry, bottoming out at
        the stand-in (the facade's cold-start region: the whole area)."""
        if unsatisfiable is None:
            return [self.cloak(uid) for uid in uids]
        regions = []
        for uid in uids:
            try:
                region = self.cloak_or_degrade(uid)[0]
            except DegradedModeError:
                region = unsatisfiable
                self._fallback(region, self.wrapped.profile_of(uid), "cold_start")
            regions.append(region)
        return regions

    def cloaks_or_none(self, uids: Iterable[object]) -> list[CloakedRegion | None]:
        """The resilient lane of ``Casper.cloaks_for``: :meth:`cloak` per
        entry, in order — duplicates and unknown uids included, a lost
        user served by the ladder — and ``None`` where the ladder is
        exhausted."""
        regions: list[CloakedRegion | None] = []
        for uid in uids:
            try:
                regions.append(self.cloak(uid))
            except DegradedModeError:
                regions.append(None)
        return regions

    def location_of(self, uid: object) -> Point:
        """The exact location for client-side refinement; a user whose
        state was lost degrades explicitly instead of surfacing a raw
        lookup error."""
        try:
            return self.wrapped.location_of(uid)
        except UnknownUserError as exc:
            self.counters["degraded_operations"] += 1
            raise DegradedModeError(
                f"exact location for user {uid!r} unavailable after state "
                "loss; awaiting the next location update to heal"
            ) from exc

    def deregister(self, uid: object) -> None:
        """A user leaves: forget their sequence number, remembered cloak
        and the updates still held on their channel too, so no rung
        serves them after they left and a rejoining client's sequence
        numbers start afresh."""
        self.injector.flush(f"update:{uid}")
        self._applied_seq.pop(uid, None)
        self._last_cloaks.pop(uid, None)
        self.wrapped.deregister(uid)

    def set_profile(self, uid: object, profile: PrivacyProfile) -> None:
        """A profile change, rebound into the user's remembered cloak."""
        self.wrapped.set_profile(uid, profile)
        self._rebind(uid, profile)

    def _rebind(self, uid: object, profile: PrivacyProfile) -> None:
        """The ladder validates against the profile the user holds now,
        not the one their remembered cloak was fresh under."""
        remembered = self._last_cloaks.get(uid)
        if remembered is not None:
            remembered.profile = profile

    # ------------------------------------------------------------------
    # Degradation ladder
    # ------------------------------------------------------------------
    def cloak_or_degrade(self, uid: object) -> tuple[CloakedRegion, str]:
        """A cloak for ``uid`` or an explicit degraded-mode error, with
        no guarded operation (the ladder alone).

        Returns ``(region, mode)`` with ``mode`` the ladder rung that
        served it (``fresh`` / ``stale`` / ``escalated``).  Every rung's
        output satisfies the user's profile at emission time.
        """
        anonymizer = self.wrapped
        try:
            region = anonymizer.cloak(uid)
        except (UnknownUserError, ProfileUnsatisfiableError) as exc:
            return self._degraded_cloak(uid, exc)
        profile = anonymizer.profile_of(uid)
        self._last_cloaks[uid] = _Remembered(region, profile, self._ops)
        self._emit(region, profile, "fresh")
        return region, "fresh"

    def _degraded_cloak(
        self, uid: object, cause: Exception
    ) -> tuple[CloakedRegion, str]:
        remembered = self._last_cloaks.get(uid)
        if remembered is not None:
            profile = remembered.profile
            if self._ops - remembered.op <= STALE_GRACE_OPS:
                revalidated = self._revalidate(remembered.region, profile)
                if revalidated is not None:
                    self._fallback(revalidated, profile, "stale")
                    return revalidated, "stale"
            escalated = self._escalate(remembered.region.cells, profile)
            if escalated is not None:
                self._fallback(escalated, profile, "escalated")
                return escalated, "escalated"
        self.counters["degraded_operations"] += 1
        raise DegradedModeError(
            f"no cloak satisfying the profile is available for user {uid!r} "
            f"({cause})"
        ) from cause

    def _revalidate(
        self, cloak: CloakedRegion, profile: PrivacyProfile
    ) -> CloakedRegion | None:
        """The stale rung: a remembered cloak is reusable only if the
        *live* population inside it still satisfies the profile."""
        count = self.wrapped.users_in_rect(cloak.region)
        if profile.is_satisfied_by(count, cloak.area):
            return CloakedRegion(cloak.region, count, cloak.cells)
        return None

    def _escalate(
        self, cells: tuple[CellId, ...], profile: PrivacyProfile
    ) -> CloakedRegion | None:
        """The conservative rung: walk the pyramid upward from the
        remembered cells until some ancestor cell satisfies the profile
        against live counts.  Monotone in privacy — every step can only
        grow the region and its population."""
        anonymizer = self.wrapped
        grid = anonymizer.grid
        cell = cells[0] if cells else CellId(0, 0, 0)
        while True:
            count = anonymizer.cell_count(cell)
            if profile.is_satisfied_by(count, grid.cell_area(cell.level)):
                return CloakedRegion(grid.cell_rect(cell), count, (cell,))
            if cell.is_root:
                return None
            cell = cell.parent()

    def _fallback(
        self, region: CloakedRegion, profile: PrivacyProfile, mode: str
    ) -> None:
        self.counters["fallback_cloaks"] += 1
        self.fallback_modes[mode] = self.fallback_modes.get(mode, 0) + 1
        _telemetry.count("casper_fallback_cloaks_total", mode)
        self._emit(region, profile, mode)

    def _emit(
        self, region: CloakedRegion, profile: PrivacyProfile, mode: str
    ) -> None:
        modes = self.emissions_by_mode
        modes[mode] = modes.get(mode, 0) + 1
        emission = Emission(
            mode=mode,
            k=profile.k,
            a_min=profile.a_min,
            achieved_k=region.achieved_k,
            area=region.area,
            full_area=region.region == self.wrapped.bounds,
        )
        if emission.violates_privacy():
            self._violations.append(emission)

    def privacy_violations(self) -> list[Emission]:
        """Every emission that silently under-delivered its profile —
        the list the chaos gate asserts is empty."""
        return list(self._violations)

    # ------------------------------------------------------------------
    # Update channel (client -> anonymizer)
    # ------------------------------------------------------------------
    def send_update(
        self, uid: object, seq: int, point: Point, profile: PrivacyProfile
    ) -> str:
        """Send one location update through the faulty channel, retrying
        until the receiver acknowledges a sequence number covering it.

        The update travels as one shard-wire frame: a ``register`` op
        (uid, exact position, the self-describing profile) under the
        frame's sequence number ``seq``.  Returns the acknowledged
        outcome (``applied`` / ``stale`` / ``recovered``); raises
        :class:`UpdateDeliveryError` when the retry budget is exhausted
        without an acknowledgement.  The channel is *not* flushed
        between sends — a delayed old update resurfacing during a later
        one is exactly the reordering case the sequence numbers make
        safe.
        """
        channel = f"update:{uid}"
        payload = encode_frame(
            KIND_REQUEST, seq, [(0, op_register(uid, point, profile))]
        )
        self.counters["updates_sent"] += 1
        outcome: str | None = None
        for attempt in range(MAX_ATTEMPTS):
            if attempt:
                self._count_retry("update", attempt)
            for delivery in self.injector.transmit(channel, payload):
                ack = self._receive_update(delivery)
                if ack is not None and ack[1] >= seq and outcome is None:
                    outcome = ack[0]
            if outcome is not None:
                break
        if outcome is None:
            self.counters["updates_abandoned"] += 1
            self.counters["degraded_operations"] += 1
            raise UpdateDeliveryError(
                f"update seq={seq} for user {uid!r} undelivered "
                f"after {MAX_ATTEMPTS} attempts"
            )
        self.counters["updates_delivered"] += 1
        return outcome

    def _receive_update(self, delivery: Delivery) -> tuple[str, int] | None:
        """The anonymizer side of the update channel: verify the frame
        (anything but exactly one ``register`` op is rejected), dedupe
        by sequence number, apply — or heal a lost user from the
        update's self-describing profile.  Acknowledges ``(outcome,
        the user's applied sequence number)``."""
        try:
            frame = decode_frame(delivery.payload)
            (envelope,) = frame.envelopes
            op = decode_op(envelope.payload)
        except ValueError:
            op = None
        if op is None or op[0] != "register":
            self.counters["corrupt_rejected"] += 1
            return None
        _, uid, point, profile = op
        seq = frame.seq
        self.guard(uid)
        anonymizer = self.wrapped
        last = self._applied_seq.get(uid, -1)
        if uid not in anonymizer:
            # Heal: the update carries the profile, so a user whose
            # state was lost (crash rollback, silent loss) re-registers
            # from the very next delivered update.
            anonymizer.register(uid, point, profile)
            self._applied_seq[uid] = max(last, seq)
            self.counters["recoveries"] += 1
            _telemetry.count("casper_recoveries_total", "reregister")
            kind = "recovered"
        elif seq <= last:
            # Duplicate or out-of-order replay of an older position:
            # already covered by newer state, acknowledge and ignore.
            self.counters["duplicates_ignored"] += 1
            return "stale", last
        else:
            anonymizer.update(uid, point)
            if anonymizer.profile_of(uid) != profile:
                anonymizer.set_profile(uid, profile)
            self._applied_seq[uid] = seq
            kind = "applied"
        self._rebind(uid, profile)
        self._casper.refresh_stored_cloak(uid)  # type: ignore[union-attr]
        return kind, self._applied_seq[uid]

    # ------------------------------------------------------------------
    # Response channel (server -> client)
    # ------------------------------------------------------------------
    def deliver_candidates(self, candidates: CandidateList) -> CandidateList:
        """Ship a candidate list through the faulty response channel.

        The client accepts the first delivery that decodes intact (the
        codec's CRC rejects corrupted copies); the per-request channel
        is flushed when the request ends so stale copies never leak into
        the next query.  Raises :class:`QueryDeliveryError` when every
        attempt is lost or corrupt.
        """
        self._qid += 1
        channel = f"response:{self._qid}"
        payload = encode_candidate_list(candidates)
        try:
            for attempt in range(MAX_ATTEMPTS):
                if attempt:
                    self._count_retry("response", attempt)
                for delivery in self.injector.transmit(channel, payload):
                    try:
                        return decode_candidate_list(delivery.payload)
                    except ValueError:
                        self.counters["corrupt_rejected"] += 1
            self.counters["degraded_operations"] += 1
            raise QueryDeliveryError(
                f"candidate list undeliverable after {MAX_ATTEMPTS} attempts"
            )
        finally:
            self.injector.flush(channel)

    # ------------------------------------------------------------------
    # Shared plumbing
    # ------------------------------------------------------------------
    def _count_retry(self, operation: str, attempt: int) -> None:
        self.counters["retries"] += 1
        _telemetry.count("casper_retries_total", operation)
        self.virtual_backoff_seconds += backoff(
            attempt - 1, self.injector.backoff_rng
        )

    # ------------------------------------------------------------------
    # Reporting
    # ------------------------------------------------------------------
    def report(self) -> dict[str, object]:
        """The runtime's deterministic contribution to a chaos report:
        counters, fault counts, the trace digest — no wall-clock values,
        so the same seed yields byte-identical JSON."""
        return {
            "plan": self.plan.name,
            "seed": self.plan.seed,
            "faults_injected": self.injector.faults_injected,
            "fault_counts": dict(self.injector.counts),
            "counters": dict(self.counters),
            "fallback_modes": dict(self.fallback_modes),
            "virtual_backoff_seconds": round(self.virtual_backoff_seconds, 9),
            "emissions_by_mode": dict(self.emissions_by_mode),
            "privacy_violations": len(self._violations),
            "trace_digest": self.injector.trace_digest(),
        }
