"""Reference-equivalence tests: the scalar pyramid is the oracle.

The structure-of-arrays anonymizers must be a pure *representation
change* of the per-object pyramids in ``tests/reference_pyramid.py``:
for any operation stream, every cloak, count, per-move cost,
maintenance statistic, cache counter, and snapshot must be
bit-identical — for both anonymizer kinds, across a mid-stream
oracle <-> production snapshot swap, and on the batched update path.
Sharded == single is held by ``test_sharding_equivalence.py`` (which
also runs the N-shard oracle against the fleet's composite epochs) and
parallel == in-process by ``test_parallel_equivalence.py``, so this
file only needs to pin the two single anonymizers.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.anonymizer import BasicAnonymizer, PrivacyProfile
from repro.anonymizer.adaptive import AdaptiveAnonymizer
from repro.errors import ProfileUnsatisfiableError, UnknownUserError
from repro.geometry import Point, Rect
from tests.reference_pyramid import ReferenceAdaptive, ReferenceBasic

UNIT = Rect(0.0, 0.0, 1.0, 1.0)
HEIGHT = 6

#: kind -> (oracle class, production class)
PAIRS = {
    "basic": (ReferenceBasic, BasicAnonymizer),
    "adaptive": (ReferenceAdaptive, AdaptiveAnonymizer),
}


def build_pair(name):
    oracle_cls, production_cls = PAIRS[name]
    return oracle_cls(UNIT, height=HEIGHT), production_cls(UNIT, height=HEIGHT)


def cloak_fp(anonymizer, uid):
    try:
        region = anonymizer.cloak(uid)
    except ProfileUnsatisfiableError:
        return (uid, "unsatisfiable")
    return (uid, region.region.as_tuple(), region.achieved_k, region.cells)


def fingerprint(anonymizer, uids, probes):
    """Everything observable about the anonymizer's current state."""
    fp = [anonymizer.num_users]
    fp.append(
        [cloak_fp(anonymizer, uid) for uid in uids if uid in anonymizer]
    )
    fp.append([anonymizer.users_in_rect(rect) for rect in probes["rects"]])
    fp.append([anonymizer.cell_count(cell) for cell in probes["cells"]])
    fp.append(vars(anonymizer.stats).copy())
    cache = anonymizer.cloak_cache
    fp.append((cache.hits, cache.misses, cache.invalidations))
    return fp


def drive_stream(name, seed, *, swap_snapshots=True):
    """Run one seeded op stream through oracle and production in
    lockstep, comparing full fingerprints at every checkpoint."""
    oracle, production = build_pair(name)
    rng = np.random.default_rng(seed)
    uids = list(range(60))
    probes = {
        "rects": [Rect(0.1, 0.1, 0.6, 0.7), Rect(0.0, 0.0, 1.0, 1.0)],
        "cells": [
            oracle.grid.cell_of(Point(0.3, 0.3)),
            oracle.grid.cell_of(Point(0.8, 0.1), 2),
        ],
    }
    for uid in uids:
        point = Point(float(rng.uniform(0.01, 0.99)), float(rng.uniform(0.01, 0.99)))
        profile = PrivacyProfile(
            k=int(rng.integers(2, 8)), a_min=float(rng.uniform(0.0, 0.02))
        )
        oracle.register(uid, point, profile)
        production.register(uid, point, profile)
    assert fingerprint(oracle, uids, probes) == fingerprint(
        production, uids, probes
    )
    for tick in range(12):
        movers = rng.choice(len(uids), size=int(rng.integers(2, 25)), replace=False)
        batch = [
            (int(uid), Point(float(rng.uniform(0.01, 0.99)), float(rng.uniform(0.01, 0.99))))
            for uid in movers
            if int(uid) in oracle
        ]
        assert oracle.update_batch(batch) == production.update_batch(batch)
        if tick % 4 == 1:
            victim = int(rng.integers(len(uids)))
            if victim in oracle:
                oracle.deregister(victim)
                production.deregister(victim)
            subject = int(rng.integers(len(uids)))
            if subject in oracle:
                profile = PrivacyProfile(
                    k=int(rng.integers(2, 10)),
                    a_min=float(rng.uniform(0.0, 0.03)),
                )
                oracle.set_profile(subject, profile)
                production.set_profile(subject, profile)
        if tick == 6 and swap_snapshots:
            # Cross snapshot/restore: oracle and production each restore
            # the *other's* snapshot (the canonical format), then the
            # streams keep running in lockstep.
            oracle_snap = oracle.snapshot()
            production_snap = production.snapshot()
            oracle.restore(production_snap)
            production.restore(oracle_snap)
        assert fingerprint(oracle, uids, probes) == fingerprint(
            production, uids, probes
        ), f"{name} diverged at tick {tick}"
        oracle.check_invariants()
        production.check_invariants()


@pytest.mark.parametrize("name", sorted(PAIRS))
def test_stream_equivalence(name) -> None:
    drive_stream(name, seed=101)


class TestErrorSemantics:
    def test_batch_failure_prefix_matches_scalar(self) -> None:
        """A batch with a failing move must leave oracle and production
        in the same prefix-applied state and raise the same error."""
        oracle, production = build_pair("basic")
        for a in (oracle, production):
            a.register("a", Point(0.2, 0.2), PrivacyProfile(k=2))
            a.register("b", Point(0.7, 0.7), PrivacyProfile(k=2))
        batch = [
            ("a", Point(0.4, 0.4)),
            ("ghost", Point(0.5, 0.5)),
            ("b", Point(0.6, 0.6)),
        ]
        with pytest.raises(UnknownUserError):
            oracle.update_batch(batch)
        with pytest.raises(UnknownUserError):
            production.update_batch(batch)
        probes = {"rects": [UNIT], "cells": []}
        assert fingerprint(oracle, ["a", "b"], probes) == fingerprint(
            production, ["a", "b"], probes
        )


@settings(
    max_examples=25,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(
    kind=st.sampled_from(["basic", "adaptive"]),
    seed=st.integers(min_value=0, max_value=2**31 - 1),
)
def test_property_random_streams(kind, seed) -> None:
    """Hypothesis-driven seeds over the full lockstep driver."""
    drive_stream(kind, seed=seed, swap_snapshots=(seed % 2 == 0))
