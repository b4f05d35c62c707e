"""Tests for the retry budget and its backoff (repro.resilience.retry)."""

from __future__ import annotations

import numpy as np
import pytest

from repro import Casper, PrivacyProfile
from repro.errors import UpdateDeliveryError
from repro.geometry import Point, Rect
from repro.resilience import FaultInjector, FaultPlan, ResilienceRuntime, retry
from repro.resilience.retry import MAX_ATTEMPTS, backoff


def fixed_rng(value: float = 0.0) -> np.random.Generator:
    class _Fixed:
        def random(self):
            return value

    return _Fixed()  # duck-typed: backoff only calls .random()


class TestValidation:
    @pytest.mark.parametrize(
        "kwargs",
        [
            # The retry budget, the backoff curve, the snapshot cadence
            # and the stale grace window are module constants: nothing
            # but tests ever set them, so a runtime takes none of them,
            # nor the two policy objects that once carried them.
            {"max_attempts": 0},
            {"base_delay": -1.0},
            {"max_delay": -0.5},
            {"multiplier": 0.5},
            {"jitter": 1.5},
            {"jitter": -0.1},
            {"retry": None},
            {"config": None},
        ],
    )
    def test_bad_parameters_rejected(self, kwargs):
        with pytest.raises(TypeError):
            ResilienceRuntime(FaultPlan(), **kwargs)

    def test_negative_attempt_rejected(self):
        with pytest.raises(ValueError):
            backoff(-1, np.random.default_rng(0))


class TestBackoff:
    def test_exponential_growth_without_jitter(self):
        delays = [backoff(n, fixed_rng(0.0)) for n in range(4)]
        assert delays == pytest.approx(
            [retry.BASE_DELAY * retry.MULTIPLIER**n for n in range(4)]
        )
        assert delays == pytest.approx([0.05, 0.1, 0.2, 0.4])

    def test_cap_at_max_delay(self):
        assert backoff(12, fixed_rng()) == pytest.approx(retry.MAX_DELAY)

    def test_jitter_bounds(self):
        rng = np.random.default_rng(7)
        for n in range(50):
            delay = backoff(0, rng)
            assert retry.BASE_DELAY <= delay < retry.BASE_DELAY * (1 + retry.JITTER)

    def test_deterministic_given_seeded_stream(self):
        a = [backoff(n, np.random.default_rng(3)) for n in range(3)]
        b = [backoff(n, np.random.default_rng(3)) for n in range(3)]
        assert a == b

    def test_schedule_yields_max_attempts_minus_one_delays(self):
        runtime = ResilienceRuntime(FaultPlan(seed=5, drop=1.0))
        Casper(Rect(0, 0, 1, 1), pyramid_height=4, resilience=runtime)
        with pytest.raises(UpdateDeliveryError):
            runtime.send_update("u", 1, Point(0.5, 0.5), PrivacyProfile(k=1))
        rng = FaultInjector(runtime.plan).backoff_rng
        assert runtime.counters["retries"] == MAX_ATTEMPTS - 1
        assert runtime.virtual_backoff_seconds == pytest.approx(
            sum(backoff(n, rng) for n in range(MAX_ATTEMPTS - 1))
        )

    def test_a_delivered_update_is_single_shot(self):
        runtime = ResilienceRuntime(FaultPlan(seed=5))
        Casper(Rect(0, 0, 1, 1), pyramid_height=4, resilience=runtime)
        runtime.send_update("u", 1, Point(0.5, 0.5), PrivacyProfile(k=1))
        assert runtime.counters["updates_delivered"] == 1
        assert runtime.counters["retries"] == 0
        assert runtime.virtual_backoff_seconds == 0.0
