"""The scalar pyramids are the oracle the kernels are pinned to.

The structure-of-arrays anonymizers are a representation change of the
per-object pyramids in ``tests/reference_pyramid.py``: the spec
machine's ``reference`` lanes hold every cloak, cost, statistic and
cache counter bit-identical at every step, across the two restoring
each other's snapshots (``swap``) and on the batched update path.
These are replays of its lanes and random streams of its calls.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.anonymizer import PrivacyProfile
from repro.geometry import Point
from tests.test_spec_machine import STAND_IN, calls, crowd, replay

STREAM = crowd(30, k=4, a_min=0.01, seed=101) + [
    ("update_batch", [(u, Point(u / 31, u * 7 % 30 / 31)) for u in range(0, 30, 2)]),
    ("deregister", 5),
    ("set_profile", 6, PrivacyProfile(7, 0.03)),
    ("cloak_many", list(range(6, 30)), STAND_IN),
    ("swap",),
    ("update_batch", [(u, Point(0.5, u / 31)) for u in range(1, 30, 3)]),
    ("cloak_many", list(range(6, 30)), STAND_IN),
]


@pytest.mark.parametrize("name", ["adaptive", "basic"])
def test_stream_equivalence(name) -> None:
    replay(name, STREAM)


class TestErrorSemantics:
    def test_batch_failure_prefix_matches_scalar(self) -> None:
        """A batch with a failing move leaves oracle and production in the
        same prefix-applied state, raising the same error."""
        moves = [("a", Point(0.4, 0.4)), ("ghost", Point(0.5, 0.5)),
                 ("b", Point(0.6, 0.6))]
        steps = [("register", "a", Point(0.2, 0.2), PrivacyProfile(2)),
                 ("register", "b", Point(0.7, 0.7), PrivacyProfile(2)),
                 ("update_batch", moves)]
        replay("basic", steps)


@settings(max_examples=5)
@given(kind=st.sampled_from(["basic", "adaptive"]), steps=st.lists(calls, max_size=25))
def test_property_random_streams(kind, steps) -> None:
    """Random streams of the machine's calls through its lanes."""
    replay(kind, crowd(10) + steps)
