"""Retry policy — exponential backoff with deterministic jitter.

The reproduction has no real network, so a backoff never *sleeps*: the
delay a real client would wait is accounted as **virtual seconds** in
the resilience counters (pure float arithmetic over a seeded stream,
hence reproducible).  What the policy really controls is how many times
a sender re-offers a message to the fault injector before declaring the
operation degraded.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = ["RetryPolicy"]

#: The backoff curve: attempt ``n`` (0-based) waits
#: ``min(MAX_DELAY, BASE_DELAY * MULTIPLIER**n) * (1 + JITTER * u)``
#: virtual seconds, ``u`` uniform in ``[0, 1)``.
BASE_DELAY = 0.05
MULTIPLIER = 2.0
MAX_DELAY = 2.0
JITTER = 0.5


@dataclass(frozen=True, slots=True)
class RetryPolicy:
    """How often a sender tries.  ``max_attempts`` counts total tries,
    so ``max_attempts=1`` means "no retries"."""

    max_attempts: int = 4

    def __post_init__(self) -> None:
        if self.max_attempts < 1:
            raise ValueError("max_attempts must be >= 1")

    def backoff(self, attempt: int, rng: np.random.Generator) -> float:
        """Virtual seconds to wait after failed attempt ``attempt``,
        jittered from the caller's seeded stream."""
        if attempt < 0:
            raise ValueError("attempt must be >= 0")
        base = min(MAX_DELAY, BASE_DELAY * MULTIPLIER**attempt)
        return base * (1.0 + JITTER * float(rng.random()))
