"""Tests for the deterministic fault injector (repro.resilience.faults)."""

from __future__ import annotations

import pytest

from repro.resilience.faults import Delivery, FaultInjector, FaultPlan

PAYLOAD = b"the quick brown fox jumps over the lazy dog"


class TestFaultPlan:
    def test_defaults_are_quiet(self):
        assert FaultPlan().is_quiet

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"drop": 0.1},
            {"duplicate": 0.1},
            {"delay": 0.1},
            {"reorder": 0.1},
            {"corrupt": 0.1},
            {"crash_period": 5},
            {"lose_user": 0.1},
            {"shard_crash_period": 5},
        ],
    )
    def test_any_fault_knob_breaks_quiet(self, kwargs):
        assert not FaultPlan(**kwargs).is_quiet

    @pytest.mark.parametrize("field", ["drop", "duplicate", "delay", "reorder", "corrupt", "lose_user"])
    def test_probabilities_validated(self, field):
        with pytest.raises(ValueError):
            FaultPlan(**{field: 1.5})
        with pytest.raises(ValueError):
            FaultPlan(**{field: -0.1})

    def test_delay_ticks_and_crash_period_validated(self):
        with pytest.raises(ValueError):
            FaultPlan(delay_ticks=0)
        with pytest.raises(ValueError):
            FaultPlan(crash_period=-1)
        with pytest.raises(ValueError):
            FaultPlan(shard_crash_period=-1)

    def test_with_seed_preserves_everything_else(self):
        plan = FaultPlan(name="x", seed=1, drop=0.3, delay_ticks=4)
        reseeded = plan.with_seed(99)
        assert reseeded.seed == 99
        assert reseeded.name == "x"
        assert reseeded.drop == plan.drop
        assert reseeded.delay_ticks == 4


class TestWireFaults:
    def test_quiet_plan_delivers_everything_verbatim(self):
        injector = FaultInjector(FaultPlan(seed=3))
        for i in range(50):
            deliveries = injector.transmit("update:u0", PAYLOAD + bytes([i]))
            assert deliveries == [Delivery(PAYLOAD + bytes([i]))]
        assert injector.trace == []
        assert injector.faults_injected == 0

    def test_certain_drop_delivers_nothing(self):
        injector = FaultInjector(FaultPlan(seed=0, drop=1.0))
        assert injector.transmit("update:u0", PAYLOAD) == []
        assert [e.kind for e in injector.trace] == ["drop"]
        assert injector.counts["drop"] == 1

    def test_certain_duplicate_delivers_two_copies(self):
        injector = FaultInjector(FaultPlan(seed=0, duplicate=1.0))
        deliveries = injector.transmit("update:u0", PAYLOAD)
        assert [d.payload for d in deliveries] == [PAYLOAD, PAYLOAD]
        assert all(not d.late for d in deliveries)

    def test_certain_corruption_flips_exactly_one_bit(self):
        injector = FaultInjector(FaultPlan(seed=5, corrupt=1.0))
        (delivery,) = injector.transmit("update:u0", PAYLOAD)
        assert delivery.payload != PAYLOAD
        assert len(delivery.payload) == len(PAYLOAD)
        diff = [
            (a ^ b)
            for a, b in zip(delivery.payload, PAYLOAD)
            if a != b
        ]
        assert len(diff) == 1
        assert bin(diff[0]).count("1") == 1

    def test_reorder_holds_one_transmit_and_releases_late(self):
        injector = FaultInjector(FaultPlan(seed=0, reorder=1.0))
        assert injector.transmit("update:u0", b"first") == []
        assert injector.pending("update:u0") == 1
        deliveries = injector.transmit("update:u0", b"second")
        # The held "first" arrives *after* "second" was also held... both
        # transmits reorder, so only the ripe first message is released.
        assert [d.payload for d in deliveries] == [b"first"]
        assert deliveries[0].late

    def test_delay_holds_for_delay_ticks_transmits(self):
        plan = FaultPlan(seed=0, delay=1.0, delay_ticks=2)
        injector = FaultInjector(plan)
        assert injector.transmit("c", b"m1") == []  # held until transmit 3
        assert injector.transmit("c", b"m2") == []  # held until transmit 4
        deliveries = injector.transmit("c", b"m3")  # releases m1
        late = [d for d in deliveries if d.late]
        assert [d.payload for d in late] == [b"m1"]

    def test_released_messages_arrive_after_the_fresh_payload(self):
        # Only the first transmit reorders; the second is clean, so its
        # own payload must precede the released old one.
        injector = FaultInjector(FaultPlan(seed=0, reorder=0.5))
        sequence: list[tuple[bytes, bool]] = []
        for i in range(30):
            for d in injector.transmit("c", b"m%d" % i):
                sequence.append((d.payload, d.late))
        # Whenever a late delivery appears, it must never be the first
        # item of its transmit batch unless the fresh payload was held
        # too — structurally: a late payload always has a smaller index
        # than the fresh one it trails.
        reordered = [p for p, late in sequence if late]
        assert injector.counts["reorder"] >= 1
        # Every reordered message is eventually released late, except any
        # still held after the final transmit.
        assert len(reordered) == injector.counts["reorder"] - injector.pending("c")

    def test_flush_discards_held_messages(self):
        injector = FaultInjector(FaultPlan(seed=0, delay=1.0, delay_ticks=5))
        injector.transmit("response:1", b"stale")
        assert injector.pending("response:1") == 1
        injector.flush("response:1")
        assert injector.pending("response:1") == 0
        # flushing an unknown channel is a no-op
        injector.flush("response:never")

    def test_channels_are_independent(self):
        injector = FaultInjector(FaultPlan(seed=0, reorder=1.0))
        injector.transmit("update:a", b"a1")
        deliveries = injector.transmit("update:b", b"b1")
        # b's first transmit holds its own message; a's held message is
        # not released by b's traffic.
        assert deliveries == []
        assert injector.pending("update:a") == 1
        assert injector.pending("update:b") == 1


class TestAnonymizerFaults:
    def test_crash_schedule_fires_every_period(self):
        injector = FaultInjector(FaultPlan(seed=0, crash_period=3))
        crashes = [injector.next_op() for _ in range(9)]
        assert crashes == [False, False, True] * 3
        assert injector.counts["crash"] == 3

    def test_no_crash_when_period_zero(self):
        injector = FaultInjector(FaultPlan(seed=0))
        assert not any(injector.next_op() for _ in range(100))

    def test_lose_user_draws_from_state_stream(self):
        injector = FaultInjector(FaultPlan(seed=0, lose_user=1.0))
        assert injector.should_lose_user()
        quiet = FaultInjector(FaultPlan(seed=0))
        assert not quiet.should_lose_user()

    def test_record_state_loss_traces(self):
        injector = FaultInjector(FaultPlan(seed=0))
        injector.record_state_loss("anonymizer", "user u7")
        assert injector.counts["state_loss"] == 1
        assert injector.trace[-1].detail == "user u7"


class TestDeterminism:
    def test_same_seed_same_trace_bytes(self):
        plan = FaultPlan(
            seed=42, drop=0.2, duplicate=0.2, delay=0.2, reorder=0.2, corrupt=0.2
        )

        def drive(injector: FaultInjector) -> str:
            for i in range(200):
                injector.transmit(f"update:u{i % 7}", PAYLOAD + bytes([i % 251]))
                injector.next_op()
                injector.should_lose_user()
            return injector.trace_json()

        first = drive(FaultInjector(plan))
        second = drive(FaultInjector(plan))
        assert first == second
        assert (
            FaultInjector(plan).trace_digest()
            == FaultInjector(plan).trace_digest()
        )

    def test_different_seed_different_trace(self):
        base = FaultPlan(seed=1, drop=0.5)

        def drive(plan: FaultPlan) -> str:
            injector = FaultInjector(plan)
            for i in range(100):
                injector.transmit("c", bytes([i]))
            return injector.trace_json()

        assert drive(base) != drive(base.with_seed(2))

    def test_wire_and_state_streams_are_independent(self):
        """Adding wire traffic must not perturb the state-loss draws."""
        plan = FaultPlan(seed=9, lose_user=0.5)
        a = FaultInjector(plan)
        b = FaultInjector(plan)
        for i in range(50):
            b.transmit("c", bytes([i]))  # extra wire traffic on b only
        draws_a = [a.should_lose_user() for _ in range(50)]
        draws_b = [b.should_lose_user() for _ in range(50)]
        assert draws_a == draws_b
