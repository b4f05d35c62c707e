"""Retry budget — exponential backoff with deterministic jitter.

The reproduction has no real network, so a backoff never *sleeps*: the
delay a real client would wait is accounted as **virtual seconds** in
the resilience counters (pure float arithmetic over a seeded stream,
hence reproducible).  What the budget really controls is how many times
a sender re-offers a message to the fault injector before declaring the
operation degraded.
"""

from __future__ import annotations

import numpy as np

__all__ = ["MAX_ATTEMPTS", "backoff"]

#: How often a sender tries a message, the first try included.
MAX_ATTEMPTS = 4

#: The backoff curve: attempt ``n`` (0-based) waits
#: ``min(MAX_DELAY, BASE_DELAY * MULTIPLIER**n) * (1 + JITTER * u)``
#: virtual seconds, ``u`` uniform in ``[0, 1)``.
BASE_DELAY = 0.05
MULTIPLIER = 2.0
MAX_DELAY = 2.0
JITTER = 0.5


def backoff(attempt: int, rng: np.random.Generator) -> float:
    """Virtual seconds to wait after failed attempt ``attempt``,
    jittered from the caller's seeded stream."""
    if attempt < 0:
        raise ValueError("attempt must be >= 0")
    base = min(MAX_DELAY, BASE_DELAY * MULTIPLIER**attempt)
    return base * (1.0 + JITTER * float(rng.random()))
