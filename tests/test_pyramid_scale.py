"""Large-N properties of the array-backed pyramid (nightly ``slow`` job).

The structure-of-arrays state exists to push the population well past a
per-object implementation's ~10k-user ceiling; these tests drive it at
100k users and through a 1M-user tick and assert the things a
representation change must not bend: pyramid invariants, per-cloak
k-satisfaction and inclusiveness, and a hard memory ceiling on the array
state.  Everything is seeded — a failure reproduces.
"""

from __future__ import annotations

import time

import numpy as np
import pytest

from repro.anonymizer import BasicAnonymizer, PrivacyProfile
from repro.errors import ProfileUnsatisfiableError
from repro.geometry import Point, Rect

UNIT = Rect(0.0, 0.0, 1.0, 1.0)

pytestmark = pytest.mark.slow


def populate(num_users: int, height: int, seed: int) -> BasicAnonymizer:
    rng = np.random.default_rng(seed)
    anonymizer = BasicAnonymizer(UNIT, height=height)
    xs = rng.uniform(0.001, 0.999, size=num_users)
    ys = rng.uniform(0.001, 0.999, size=num_users)
    ks = rng.integers(2, 50, size=num_users)
    for uid in range(num_users):
        anonymizer.register(
            uid,
            Point(float(xs[uid]), float(ys[uid])),
            PrivacyProfile(k=int(ks[uid])),
        )
    return anonymizer


def one_tick(anonymizer: BasicAnonymizer, rng) -> list[int]:
    n = anonymizer.num_users
    xs = np.clip(rng.uniform(-0.01, 0.01, size=n) + rng.uniform(0.001, 0.999, size=n), 0.001, 0.999)
    ys = np.clip(rng.uniform(-0.01, 0.01, size=n) + rng.uniform(0.001, 0.999, size=n), 0.001, 0.999)
    moves = [
        (uid, Point(float(xs[uid]), float(ys[uid]))) for uid in range(n)
    ]
    return anonymizer.update_batch(moves)


class TestHundredThousandUsers:
    NUM_USERS = 100_000

    def test_invariants_and_privacy_at_100k(self) -> None:
        anonymizer = populate(self.NUM_USERS, height=9, seed=41)
        rng = np.random.default_rng(42)
        costs = one_tick(anonymizer, rng)
        assert len(costs) == self.NUM_USERS
        anonymizer.check_invariants()
        # k-satisfaction + inclusiveness on a seeded sample of cloaks.
        for uid in rng.integers(0, self.NUM_USERS, size=300).tolist():
            profile = anonymizer.profile_of(uid)
            point = anonymizer.location_of(uid)
            try:
                region = anonymizer.cloak(uid)
            except ProfileUnsatisfiableError:
                continue
            assert region.achieved_k >= profile.k
            assert region.region.area >= profile.a_min - 1e-15
            assert region.region.contains_point(point), "not inclusive"

    def test_memory_ceiling_at_100k(self) -> None:
        anonymizer = populate(self.NUM_USERS, height=9, seed=43)
        soa_bytes = anonymizer._soa.nbytes() + anonymizer.table.nbytes()
        # Pyramid: two int64 arrays over sum(4**l) ≈ 350k cells ≈ 5.6 MB;
        # table: 6 parallel arrays over <= 2 * 100k slots ≈ 8 MB.  A
        # regression that densifies per-user state blows well past 32 MB.
        assert soa_bytes < 32 * 2**20, f"SoA state grew to {soa_bytes} bytes"


class TestMillionUsers:
    NUM_USERS = 1_000_000

    def test_one_tick_within_nightly_budget(self) -> None:
        anonymizer = populate(self.NUM_USERS, height=9, seed=47)
        rng = np.random.default_rng(48)
        start = time.perf_counter()
        costs = one_tick(anonymizer, rng)
        elapsed = time.perf_counter() - start
        assert len(costs) == self.NUM_USERS
        # The nightly job budgets minutes per step; a tick that cannot
        # clear two minutes signals the batch kernel fell off a cliff
        # (e.g. silently degrading to a per-move python loop).
        assert elapsed < 120.0, f"1M-user tick took {elapsed:.1f}s"
        soa_bytes = anonymizer._soa.nbytes() + anonymizer.table.nbytes()
        assert soa_bytes < 256 * 2**20, f"SoA state grew to {soa_bytes} bytes"
        assert anonymizer.cell_count(anonymizer.grid.cell_of(
            Point(0.5, 0.5), 0
        )) == self.NUM_USERS
