"""End-to-end behaviour on a non-square service area.

The experiments all use the unit square, but nothing in Casper requires
it — county bounding boxes rarely oblige. These tests run the full
stack on a 2:1 service area to pin down that cell arithmetic, cloaking
and query processing all honour general rectangles.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.anonymizer import (
    AdaptiveAnonymizer,
    BasicAnonymizer,
    CellId,
    PrivacyProfile,
)
from repro.geometry import Point, Rect
from repro.processor import private_nn_over_public
from repro.server import Casper, MobileClient
from repro.spatial import RTreeIndex

WIDE = Rect(0.0, 0.0, 2.0, 1.0)


def wide_points(rng, n):
    return [
        Point(float(x), float(y))
        for x, y in zip(rng.uniform(0, 2, n), rng.uniform(0, 1, n))
    ]


class TestAnonymizersOnWideBounds:
    @pytest.mark.parametrize("cls", [BasicAnonymizer, AdaptiveAnonymizer])
    def test_cloaks_satisfy_profiles(self, cls, rng):
        an = cls(WIDE, height=6)
        points = wide_points(rng, 300)
        for i, p in enumerate(points):
            an.register(i, p, PrivacyProfile(k=int(rng.integers(1, 25))))
        an.check_invariants()
        for uid in range(0, 300, 13):
            region = an.cloak(uid)
            assert region.region.contains_point(points[uid])
            assert region.achieved_k >= an.profile_of(uid).k
            assert WIDE.contains_rect(region.region)

    def test_cells_inherit_aspect_ratio(self):
        an = BasicAnonymizer(WIDE, height=3)
        rect = an.grid.cell_rect(CellId(3, 0, 0))
        assert rect.width == pytest.approx(2.0 / 8)
        assert rect.height == pytest.approx(1.0 / 8)

    def test_amin_is_absolute_area(self, rng):
        an = BasicAnonymizer(WIDE, height=6)
        points = wide_points(rng, 200)
        for i, p in enumerate(points):
            an.register(i, p, PrivacyProfile(k=1))
        an.register("me", Point(1.0, 0.5), PrivacyProfile(k=1, a_min=0.5))
        region = an.cloak("me")
        assert region.area >= 0.5

    def test_pair_region_shapes(self, rng):
        """Sibling-pair cloaks on wide bounds are 4:1 or 1:1 rectangles
        (2:1 cells joined along either axis)."""
        an = BasicAnonymizer(WIDE, height=5)
        points = wide_points(rng, 400)
        for i, p in enumerate(points):
            an.register(i, p, PrivacyProfile(k=12))
        seen_pair = False
        for uid in range(200):
            region = an.cloak(uid)
            if len(region.cells) == 2:
                seen_pair = True
                ratio = region.region.width / region.region.height
                assert ratio == pytest.approx(4.0) or ratio == pytest.approx(1.0)
        assert seen_pair


class TestProcessorOnWideBounds:
    def test_inclusiveness_holds(self, rng):
        points = wide_points(rng, 400)
        index = RTreeIndex()
        index.bulk_load({i: Rect.point(p) for i, p in enumerate(points)})
        for _ in range(20):
            x = float(rng.uniform(0, 1.7))
            y = float(rng.uniform(0, 0.8))
            area = Rect(x, y, x + 0.3, y + 0.2)
            cl = private_nn_over_public(index, area, 4)
            for u in list(area.vertices()) + [area.center]:
                truth = min(
                    range(len(points)), key=lambda i: points[i].squared_distance_to(u)
                )
                assert truth in cl.oids()


class TestFullStackOnWideBounds:
    def test_casper_round_trip(self, rng):
        casper = Casper(WIDE, pyramid_height=6)
        casper.add_public_targets(
            {f"t{i}": p for i, p in enumerate(wide_points(rng, 150))}
        )
        for i, p in enumerate(wide_points(rng, 200)):
            casper.register_user(i, p, PrivacyProfile(k=int(rng.integers(1, 15))))
        me = MobileClient(casper, "me", Point(1.3, 0.4), PrivacyProfile(k=10))
        result = me.nearest_public()
        targets = dict(casper.server.public_index.items())
        truth = min(
            targets,
            key=lambda oid: targets[oid].min_distance_to_point(me.location),
        )
        assert targets[result.answer].min_distance_to_point(
            me.location
        ) == pytest.approx(targets[truth].min_distance_to_point(me.location))
