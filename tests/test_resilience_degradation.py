"""Tests for snapshot/restore, the degradation ladder, and idempotent
updates (repro.resilience.runtime + anonymizer snapshot support).

The contract under test everywhere: *degrade availability, never
privacy* — no rung of the ladder may emit a cloak below the user's
``(k, A_min)``, and every recovery path must leave the anonymizer
internally consistent.
"""

from __future__ import annotations

import gc
import random

import pytest

from repro.anonymizer import (
    AdaptiveAnonymizer,
    BasicAnonymizer,
    PrivacyProfile,
)
from repro.errors import (
    DegradedModeError,
    QueryDeliveryError,
    UnknownUserError,
    UpdateDeliveryError,
)
from repro.geometry import Point, Rect
from repro.resilience import FaultPlan, ResilienceRuntime
from repro.resilience.retry import MAX_ATTEMPTS
from repro.resilience.runtime import SNAPSHOT_EVERY, STALE_GRACE_OPS, Emission
from repro.server.casper import Casper
from repro.server.client import MobileClient
from repro.sharding.wire import KIND_REQUEST, encode_frame, op_move, op_register

BOUNDS = Rect(0.0, 0.0, 1.0, 1.0)
QUIET = FaultPlan(name="quiet", seed=0)
K1 = PrivacyProfile(k=1)


def make_anonymizer(kind: str):
    return (BasicAnonymizer if kind == "basic" else AdaptiveAnonymizer)(BOUNDS, 5)


@pytest.mark.parametrize("kind", ["basic", "adaptive"])
class TestSnapshotRestore:
    def test_restore_rolls_back_registrations_and_moves(self, kind):
        anon = make_anonymizer(kind)
        for i in range(10):
            anon.register(f"u{i}", Point(0.1 + 0.05 * i, 0.5), PrivacyProfile(k=3))
        state = anon.snapshot()
        for i in range(5):
            anon.register(f"extra{i}", Point(0.9, 0.9), PrivacyProfile(k=2))
        anon.update("u0", Point(0.95, 0.95))
        anon.deregister("u9")
        anon.restore(state)
        assert anon.num_users == 10
        assert "extra0" not in anon
        assert "u9" in anon
        assert anon.location_of("u0") == Point(0.1, 0.5)
        anon.check_invariants()

    def test_snapshot_survives_repeated_restores(self, kind):
        anon = make_anonymizer(kind)
        anon.register("u0", Point(0.2, 0.2), K1)
        state = anon.snapshot()
        for _ in range(3):
            anon.register("junk", Point(0.8, 0.8), K1)
            anon.restore(state)
            assert anon.num_users == 1
            anon.check_invariants()

    def test_restore_rejects_foreign_state(self, kind):
        anon = make_anonymizer(kind)
        with pytest.raises(TypeError):
            anon.restore(object())

    def test_restore_invalidates_the_cloak_cache(self, kind):
        """Regression: a cloak computed before ``restore`` must not be
        served from cache afterwards — the pyramid counts changed."""
        anon = make_anonymizer(kind)
        point = Point(0.1, 0.1)
        for i in range(6):
            anon.register(f"u{i}", point, PrivacyProfile(k=5))
        state = anon.snapshot()
        before = anon.cloak("u0")
        # Mutate: a crowd joins, so a post-restore cloak of the same
        # (cell, profile) key could legitimately differ; then restore.
        for i in range(20):
            anon.register(f"crowd{i}", point, PrivacyProfile(k=2))
        anon.cloak("u0")  # re-populate the cache against the crowd
        anon.restore(state)
        after = anon.cloak("u0")
        fresh = make_anonymizer("basic" if kind == "basic" else "adaptive")
        for i in range(6):
            fresh.register(f"u{i}", point, PrivacyProfile(k=5))
        oracle = fresh.cloak("u0")
        assert after.region == oracle.region == before.region
        assert after.achieved_k == oracle.achieved_k


def resilient_casper(
    plan: FaultPlan, n: int = 0, k: int = 1, at: Point = Point(0.2, 0.2)
) -> tuple[Casper, ResilienceRuntime]:
    """A wrapped basic deployment holding users u0..u{n-1} at ``at``."""
    runtime = ResilienceRuntime(plan)
    casper = Casper(BOUNDS, pyramid_height=5, anonymizer="basic", resilience=runtime)
    for i in range(n):
        casper.register_user(f"u{i}", at, PrivacyProfile(k=k))
    return casper, runtime


class TestCrashRecovery:
    def test_crash_restores_the_attach_time_snapshot(self):
        casper, runtime = resilient_casper(FaultPlan(seed=0, crash_period=1), 1, at=Point(0.5, 0.5))
        assert "u0" in casper.anonymizer
        runtime.guard()  # crash_period=1: this op crashes and restores
        assert "u0" not in casper.anonymizer  # snapshot predates u0
        assert runtime.counters["recoveries"] == 1
        casper.anonymizer.check_invariants()

    def test_snapshot_cadence_limits_rollback(self):
        casper, runtime = resilient_casper(
            FaultPlan(seed=0, crash_period=SNAPSHOT_EVERY + 1), 1, at=Point(0.5, 0.5)
        )
        for _ in range(SNAPSHOT_EVERY):
            runtime.guard()  # the last of these snapshots the state with u0
        casper.register_user("u1", Point(0.5, 0.5), K1)
        runtime.guard()  # the next op crashes
        assert runtime.counters["recoveries"] == 1
        assert "u0" in casper.anonymizer  # restored from the fresh snapshot
        assert "u1" not in casper.anonymizer  # registered after it

    def test_sequence_table_rolls_back_with_the_state(self):
        """A crash must roll the dedup table back atomically with the
        anonymizer, or replayed updates would be misjudged as stale."""
        casper, runtime = resilient_casper(QUIET, 1)
        runtime._take_snapshot()
        assert runtime.send_update("u0", 1, Point(0.3, 0.3), K1) == "applied"
        runtime._restore()
        # After rollback the same sequence number is fresh again.
        assert runtime.send_update("u0", 1, Point(0.4, 0.4), K1) == "applied"
        assert casper.anonymizer.location_of("u0") == Point(0.4, 0.4)

    def test_a_shard_crash_on_the_worker_fleet_rolls_nothing_back(self):
        """The fleet heals the crashed worker from the parent's live
        deployment: a user registered after the last snapshot keeps
        their row and their sequence number."""
        runtime = ResilienceRuntime(FaultPlan(seed=0, shard_crash_period=3))
        with Casper(
            BOUNDS, pyramid_height=5, resilience=runtime, shards=2, parallel=True
        ) as casper:
            casper.register_user("u0", Point(0.2, 0.2), K1)
            moved = Point(0.7, 0.6)
            assert runtime.send_update("u0", 1, moved, K1) == "applied"
            runtime.guard()
            runtime.guard()  # the third guarded op crashes a shard
            assert runtime.injector.counts["shard_crash"] == 1
            assert casper.anonymizer.location_of("u0") == moved
            assert runtime.wrapped.cloak("u0").region.contains_point(moved)
            assert runtime.send_update("u0", 1, moved, K1) == "stale"
            assert runtime.counters["recoveries"] == 0
            assert runtime.counters["worker_crashes"] == 1
            casper.anonymizer.check_invariants()


class TestIdempotentUpdates:
    def test_duplicate_sequence_is_acknowledged_but_ignored(self):
        casper, runtime = resilient_casper(QUIET, 1)
        assert runtime.send_update("u0", 1, Point(0.3, 0.3), K1) == "applied"
        assert runtime.send_update("u0", 1, Point(0.9, 0.9), K1) == "stale"
        assert casper.anonymizer.location_of("u0") == Point(0.3, 0.3)
        assert runtime.counters["duplicates_ignored"] == 1

    def test_older_sequence_never_overwrites_newer_state(self):
        casper, runtime = resilient_casper(QUIET, 1)
        runtime.send_update("u0", 5, Point(0.5, 0.5), K1)
        assert runtime.send_update("u0", 3, Point(0.1, 0.1), K1) == "stale"
        assert casper.anonymizer.location_of("u0") == Point(0.5, 0.5)

    def test_lost_user_heals_from_the_next_update(self):
        casper, runtime = resilient_casper(QUIET, 1)
        runtime.wrapped.deregister("u0")  # silent state loss
        outcome = runtime.send_update("u0", 2, Point(0.6, 0.6), K1)
        assert outcome == "recovered"
        assert "u0" in casper.anonymizer
        assert casper.anonymizer.location_of("u0") == Point(0.6, 0.6)
        assert runtime.counters["recoveries"] == 1

    def test_a_lost_user_still_leaves_the_server(self):
        """``remove_user`` of a user whose state was lost drops their
        stored region; an id never registered raises and changes
        nothing."""
        casper, runtime = resilient_casper(QUIET, 4)
        runtime.wrapped.deregister("u0")  # silent state loss
        casper.remove_user("u0")
        assert casper.count_users_in(BOUNDS).candidates == ("u1", "u2", "u3")
        with pytest.raises(UnknownUserError):
            casper.remove_user("stranger")
        assert casper.count_users_in(BOUNDS).candidates == ("u1", "u2", "u3")

    def test_guard_can_lose_the_operating_user(self):
        casper, runtime = resilient_casper(FaultPlan(seed=0, lose_user=1.0), 1, at=Point(0.5, 0.5))
        runtime.guard("u0")
        assert "u0" not in casper.anonymizer
        assert runtime.injector.counts["state_loss"] == 1

    def test_exhausted_retries_raise_update_delivery_error(self):
        casper, runtime = resilient_casper(FaultPlan(seed=0, drop=1.0), 1)
        with pytest.raises(UpdateDeliveryError):
            runtime.send_update("u0", 1, Point(0.3, 0.3), K1)
        assert runtime.counters["updates_abandoned"] == 1
        assert runtime.counters["retries"] == MAX_ATTEMPTS - 1
        assert runtime.virtual_backoff_seconds > 0.0
        # The device's report is lost but the anonymizer state is intact.
        assert casper.anonymizer.location_of("u0") == Point(0.2, 0.2)

    def test_corrupted_update_is_rejected_then_retried(self):
        # corrupt=1.0 flips one bit per transmit; the CRC rejects every
        # copy, so delivery fails cleanly rather than applying garbage.
        casper, runtime = resilient_casper(FaultPlan(seed=0, corrupt=1.0), 1)
        with pytest.raises(UpdateDeliveryError):
            runtime.send_update("u0", 1, Point(0.3, 0.3), K1)
        assert runtime.counters["corrupt_rejected"] == MAX_ATTEMPTS
        assert casper.anonymizer.location_of("u0") == Point(0.2, 0.2)

    @pytest.mark.parametrize("envelopes", [
        [], [(0, op_move("u0", Point(0.9, 0.9)))],
        [(0, op_register("u0", Point(0.9, 0.9), K1))] * 2,
    ])
    def test_a_valid_frame_that_is_not_one_register_op_is_retried(self, monkeypatch, envelopes):
        """A frame that passes its CRCs but is not exactly one
        ``register`` op counts as corrupt, and the retry delivers."""
        casper, runtime = resilient_casper(QUIET, 1)
        transmit = runtime.injector.transmit
        forged = iter([encode_frame(KIND_REQUEST, 1, envelopes)])
        monkeypatch.setattr(
            runtime.injector, "transmit",
            lambda channel, payload: transmit(channel, next(forged, payload)),
        )
        assert runtime.send_update("u0", 1, Point(0.3, 0.3), K1) == "applied"
        assert runtime.counters["corrupt_rejected"] == 1
        assert runtime.counters["retries"] == 1
        assert casper.anonymizer.location_of("u0") == Point(0.3, 0.3)


class TestResponseChannel:
    def test_quiet_channel_round_trips_candidates(self):
        casper, runtime = resilient_casper(QUIET, 4, 2, Point(0.3, 0.3))
        casper.add_public_targets({f"t{i}": Point(0.1 * i, 0.5) for i in range(5)})
        result = casper.query_nearest_public("u0")
        assert result.answer is not None

    def test_all_responses_lost_raises_query_delivery_error(self):
        # Registration traffic uses the trusted path, so only the
        # response channel sees the 100% drop.
        casper, runtime = resilient_casper(FaultPlan(seed=0, drop=1.0), 4, 2, Point(0.3, 0.3))
        casper.add_public_targets({"t0": Point(0.8, 0.8)})
        with pytest.raises(QueryDeliveryError):
            casper.query_nearest_public("u0")


class TestDegradationLadder:
    def test_fresh_cloak_is_remembered(self):
        casper, runtime = resilient_casper(QUIET, 6, 3, Point(0.1, 0.1))
        region, mode = runtime.cloak_or_degrade("u0")
        assert mode == "fresh"
        assert region.achieved_k >= 3

    def test_stale_rung_serves_a_revalidated_remembered_cloak(self):
        casper, runtime = resilient_casper(QUIET, 6, 3, Point(0.1, 0.1))
        fresh_region, _ = runtime.cloak_or_degrade("u0")
        runtime.wrapped.deregister("u0")  # fresh cloak now impossible
        region, mode = runtime.cloak_or_degrade("u0")
        assert mode == "stale"
        assert region.region == fresh_region.region
        # Revalidated against the live population (u0 is gone).
        assert region.achieved_k >= 3
        assert runtime.fallback_modes["stale"] == 1
        assert runtime.privacy_violations() == []

    def test_escalated_rung_walks_to_a_satisfying_ancestor(self):
        casper, runtime = resilient_casper(QUIET, 6, 3, Point(0.1, 0.1))
        runtime.cloak_or_degrade("u0")
        # Everyone else moves to the far corner: the remembered region
        # empties out, but an ancestor cell still covers the crowd.
        for i in range(1, 6):
            casper.anonymizer.update(f"u{i}", Point(0.9, 0.9))
        runtime.wrapped.deregister("u0")
        region, mode = runtime.cloak_or_degrade("u0")
        assert mode == "escalated"
        assert region.achieved_k >= 3
        assert runtime.privacy_violations() == []

    def test_expired_grace_window_skips_the_stale_rung(self):
        casper, runtime = resilient_casper(QUIET, 6, 3, Point(0.1, 0.1))
        runtime.cloak_or_degrade("u0")
        for _ in range(STALE_GRACE_OPS + 1):
            runtime.guard()  # ops advance past the grace window
        runtime.wrapped.deregister("u0")
        _region, mode = runtime.cloak_or_degrade("u0")
        assert mode == "escalated"

    def test_unservable_profile_degrades_explicitly(self):
        casper, runtime = resilient_casper(QUIET, 2, 5, Point(0.1, 0.1))  # k=5 with 2 users
        with pytest.raises(DegradedModeError):
            runtime.cloak_or_degrade("u0")
        assert runtime.counters["degraded_operations"] >= 1
        assert runtime.privacy_violations() == []

    def test_storage_cloak_bottoms_out_at_the_full_area(self):
        casper, runtime = resilient_casper(QUIET, 2, 5, Point(0.1, 0.1))
        region = casper.refresh_stored_cloak("u0")
        assert region.region == BOUNDS
        assert runtime.fallback_modes.get("cold_start", 0) >= 1
        # The full-area emission is exempt by construction, not ignored.
        assert runtime.privacy_violations() == []

    def test_the_ladder_audits_the_profile_the_user_holds_now(self):
        """A raise from k=2 to k=10 among 5 users: no rung may serve the
        cloak remembered under k=2, so the storage push bottoms out at
        the full area (as the lossless lane does) and a query degrades."""
        casper, runtime = resilient_casper(QUIET, 5, 2, Point(0.1, 0.1))
        casper.cloak_for("u0")
        casper.set_profile("u0", PrivacyProfile(k=10))
        assert dict(casper.server.private_index.items())["u0"] == BOUNDS
        with pytest.raises(DegradedModeError):
            casper.cloak_for("u0")
        assert runtime.privacy_violations() == []

    def test_a_departed_user_is_forgotten(self):
        """``remove_user`` reaches the runtime: a departed user is served
        no remembered cloak, and on rejoining their seq 1 applies."""
        casper, _runtime = resilient_casper(QUIET, 4, 2, Point(0.1, 0.1))
        client = MobileClient(casper, "me", Point(0.2, 0.2), PrivacyProfile(k=2))
        assert client.move_to(Point(0.3, 0.3)) == "applied"
        client.leave()
        with pytest.raises(DegradedModeError):
            casper.cloak_for("me")
        assert casper.cloaks_for(["me", "u1"])[0] is None
        back = MobileClient(casper, "me", Point(0.8, 0.8), PrivacyProfile(k=2))
        assert back.move_to(Point(0.9, 0.9)) == "applied"
        assert casper.anonymizer.location_of("me") == Point(0.9, 0.9)

    def test_a_held_update_of_a_left_session_never_applies(self):
        casper, _runtime = resilient_casper(FaultPlan(seed=0, delay=0.5, delay_ticks=2))
        client = MobileClient(casper, "me", Point(0.2, 0.2), K1)
        for step in range(1, 6):
            client.move_to(Point(0.2 + 0.03 * step, 0.2 + 0.02 * step))
        client.leave()
        MobileClient(casper, "me", Point(0.8, 0.8), K1).move_to(Point(0.9, 0.9))
        assert casper.anonymizer.location_of("me") == Point(0.9, 0.9)

    def test_no_rung_ever_emits_below_the_profile(self):
        """Sweep the ladder scenarios and scan every recorded emission."""
        casper, runtime = resilient_casper(QUIET, 8, 4)
        runtime.cloak_or_degrade("u0")
        runtime.wrapped.deregister("u0")
        runtime.cloak_or_degrade("u0")  # stale
        for i in range(1, 8):
            casper.anonymizer.update(f"u{i}", Point(0.85, 0.85))
        runtime.cloak_or_degrade("u0")  # escalated
        assert set(runtime.report()["emissions_by_mode"]) >= {"fresh", "stale"}
        assert runtime.privacy_violations() == []

    def test_fresh_cloaks_are_counted_not_kept(self):
        """A runtime on a live facade must not grow by one object per
        cloak: only per-mode counts and violating emissions stay."""
        casper, runtime = resilient_casper(QUIET, 6, 3, Point(0.1, 0.1))
        fresh = runtime.report()["emissions_by_mode"]["fresh"]
        gc.collect()
        before = sum(isinstance(o, Emission) for o in gc.get_objects())
        for _ in range(1000):
            runtime.cloak_or_degrade("u0")
        gc.collect()
        assert sum(isinstance(o, Emission) for o in gc.get_objects()) == before
        assert runtime.report()["emissions_by_mode"]["fresh"] == fresh + 1000


class TestFaultFreePathUnchanged:
    def test_without_resilience_the_trusted_path_is_used(self):
        casper = Casper(BOUNDS, pyramid_height=5, anonymizer="basic")
        casper.register_user("u0", Point(0.2, 0.2), K1)
        assert casper.submit_location_update("u0", Point(0.4, 0.4), 1, K1) == "applied"
        assert casper.anonymizer.location_of("u0") == Point(0.4, 0.4)

    def test_resilient_channel_takes_int_uids(self):
        """The update frame carries int or str uids and refuses others."""
        casper, runtime = resilient_casper(QUIET)
        casper.register_user(7, Point(0.2, 0.2), K1)
        assert casper.submit_location_update(7, Point(0.4, 0.4), 1, K1) == "applied"
        assert casper.anonymizer.location_of(7) == Point(0.4, 0.4)
        assert runtime.counters["updates_delivered"] == 1
        with pytest.raises(TypeError):
            casper.submit_location_update(7.0, Point(0.4, 0.4), 2, K1)

    def test_a_resilient_tick_stores_the_fault_free_cloaks(self):
        """``update_locations``' end-of-tick contract holds under a
        runtime: every mover's stored cloak sees the whole tick."""
        rng = random.Random(3)
        users = [(f"u{i}", Point(rng.random(), rng.random())) for i in range(12)]
        moves = [(uid, Point(rng.random(), rng.random())) for uid, _ in users]
        stored = []
        for runtime in (None, ResilienceRuntime(QUIET)):
            casper = Casper(BOUNDS, pyramid_height=5, anonymizer="basic", resilience=runtime)
            for uid, point in users:
                casper.register_user(uid, point, PrivacyProfile(k=3))
            casper.update_locations(moves)
            stored.append(dict(casper.server.private_index.items()))
        assert stored[0] == stored[1]

    def test_one_runtime_serves_one_casper(self):
        runtime = ResilienceRuntime(QUIET)
        Casper(BOUNDS, pyramid_height=5, anonymizer="basic", resilience=runtime)
        with pytest.raises(RuntimeError):
            Casper(BOUNDS, pyramid_height=5, anonymizer="basic", resilience=runtime)
