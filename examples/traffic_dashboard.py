"""Traffic dashboard: public queries over private data.

A city traffic administrator watches car density in four districts —
"how many cars in this area?" (the paper's second novel query type) —
while every car reports only cloaked regions.  The dashboard shows the
[min, max] certainty interval and the probabilistic expectation per
district per tick, and compares the expectation against the (hidden)
ground truth to demonstrate the estimator's quality.

Run:  python examples/traffic_dashboard.py
"""

from __future__ import annotations

import numpy as np

from repro.anonymizer import PrivacyProfile
from repro.geometry import Rect
from repro.mobility import NetworkGenerator, synthetic_county_map
from repro.server import Casper

BOUNDS = Rect(0.0, 0.0, 1.0, 1.0)
NUM_CARS = 2_000
TICKS = 6

# Deliberately *not* aligned with pyramid cell boundaries, so cloaked
# regions straddle district borders and the count is genuinely uncertain.
DISTRICTS = {
    "downtown": Rect(0.33, 0.29, 0.68, 0.61),
    "uptown": Rect(0.13, 0.57, 0.47, 0.93),
    "riverside": Rect(0.55, 0.07, 0.94, 0.43),
    "old-town": Rect(0.58, 0.52, 0.88, 0.86),
}


def main() -> None:
    network = synthetic_county_map(seed=21)
    generator = NetworkGenerator(network, NUM_CARS, seed=22)
    rng = np.random.default_rng(23)
    casper = Casper(BOUNDS, pyramid_height=8, anonymizer="adaptive")

    for uid, point in generator.positions().items():
        casper.register_user(
            uid, point, PrivacyProfile(k=int(rng.integers(5, 40)))
        )

    print(f"{'tick':>4}  {'district':<12} {'min':>5} {'expected':>9} "
          f"{'max':>5} {'truth':>6} {'abs err':>8}")
    total_err = 0.0
    samples = 0
    for tick in range(TICKS):
        generator.step(1.0)
        positions = generator.positions()
        for uid, point in positions.items():
            casper.update_location(uid, point)
        for name, district in DISTRICTS.items():
            count = casper.count_users_in(district)
            truth = sum(
                1 for p in positions.values() if district.contains_point(p)
            )
            err = abs(count.expected - truth)
            total_err += err
            samples += 1
            assert count.minimum <= truth <= count.maximum
            print(f"{tick:>4}  {name:<12} {count.minimum:>5} "
                  f"{count.expected:>9.1f} {count.maximum:>5} {truth:>6} "
                  f"{err:>8.1f}")
        print()

    print(f"mean |expected - truth| over {samples} readings: "
          f"{total_err / samples:.2f} cars")
    print("The interval [min, max] always bracketed the truth, and the "
          "server never learned any car's exact position.")


if __name__ == "__main__":
    main()
