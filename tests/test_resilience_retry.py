"""Tests for RetryPolicy (repro.resilience.retry)."""

from __future__ import annotations

import numpy as np
import pytest

from repro import Casper, PrivacyProfile
from repro.errors import UpdateDeliveryError
from repro.geometry import Point, Rect
from repro.resilience import FaultInjector, FaultPlan, ResilienceRuntime, retry
from repro.resilience.retry import RetryPolicy


def fixed_rng(value: float = 0.0) -> np.random.Generator:
    class _Fixed:
        def random(self):
            return value

    return _Fixed()  # duck-typed: backoff only calls .random()


class TestValidation:
    @pytest.mark.parametrize(
        "kwargs",
        [
            {"max_attempts": 0},
            # The backoff curve is four module constants: nothing but
            # this file ever set them, so they are no longer settable.
            {"base_delay": -1.0},
            {"max_delay": -0.5},
            {"multiplier": 0.5},
            {"jitter": 1.5},
            {"jitter": -0.1},
        ],
    )
    def test_bad_parameters_rejected(self, kwargs):
        with pytest.raises((TypeError, ValueError)):
            RetryPolicy(**kwargs)

    def test_negative_attempt_rejected(self):
        with pytest.raises(ValueError):
            RetryPolicy().backoff(-1, np.random.default_rng(0))


class TestBackoff:
    def test_exponential_growth_without_jitter(self):
        delays = [RetryPolicy().backoff(n, fixed_rng(0.0)) for n in range(4)]
        assert delays == pytest.approx(
            [retry.BASE_DELAY * retry.MULTIPLIER**n for n in range(4)]
        )
        assert delays == pytest.approx([0.05, 0.1, 0.2, 0.4])

    def test_cap_at_max_delay(self):
        assert RetryPolicy().backoff(12, fixed_rng()) == pytest.approx(retry.MAX_DELAY)

    def test_jitter_bounds(self):
        rng = np.random.default_rng(7)
        for n in range(50):
            delay = RetryPolicy().backoff(0, rng)
            assert retry.BASE_DELAY <= delay < retry.BASE_DELAY * (1 + retry.JITTER)

    def test_deterministic_given_seeded_stream(self):
        policy = RetryPolicy()
        a = [policy.backoff(n, np.random.default_rng(3)) for n in range(3)]
        b = [policy.backoff(n, np.random.default_rng(3)) for n in range(3)]
        assert a == b

    @staticmethod
    def _all_dropped(max_attempts: int) -> ResilienceRuntime:
        """A runtime after one update sent into a channel that drops
        everything."""
        runtime = ResilienceRuntime(
            FaultPlan(seed=5, drop=1.0), retry=RetryPolicy(max_attempts)
        )
        Casper(Rect(0, 0, 1, 1), pyramid_height=4, resilience=runtime)
        with pytest.raises(UpdateDeliveryError):
            runtime.send_update("u", 1, Point(0.5, 0.5), PrivacyProfile(k=1))
        return runtime

    def test_schedule_yields_max_attempts_minus_one_delays(self):
        runtime = self._all_dropped(max_attempts=4)
        rng = FaultInjector(runtime.plan).backoff_rng
        assert runtime.counters["retries"] == 3
        assert runtime.virtual_backoff_seconds == pytest.approx(
            sum(RetryPolicy().backoff(n, rng) for n in range(3))
        )

    def test_none_policy_is_single_shot(self):
        runtime = self._all_dropped(max_attempts=1)
        assert runtime.counters["retries"] == 0
        assert runtime.virtual_backoff_seconds == 0.0
