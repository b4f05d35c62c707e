"""Tests for the server layer: LocationServer, Casper facade, clients."""

from __future__ import annotations

import numpy as np
import pytest

from repro.anonymizer import PrivacyProfile
from repro.geometry import Point, Rect
from repro.server import (
    Casper,
    LocationServer,
    MobileClient,
    TransmissionModel,
)
from repro.server.codec import encode_candidate_list
from repro.spatial import BruteForceIndex, RTreeIndex
from tests.conftest import UNIT, random_points, random_rects


class TestTransmissionModel:
    def test_paper_defaults(self):
        model = TransmissionModel()
        # 100 records * 64 B * 8 / 100 Mbps.
        assert model.time_for(100) == pytest.approx(100 * 64 * 8 / 100e6)

    def test_latency_added(self):
        model = TransmissionModel(latency_seconds=0.01)
        assert model.time_for(0) == pytest.approx(0.01)

    def test_validation(self):
        with pytest.raises(ValueError):
            TransmissionModel(record_bytes=0)
        with pytest.raises(ValueError):
            TransmissionModel(bandwidth_mbps=-1)
        with pytest.raises(ValueError):
            TransmissionModel(latency_seconds=-0.5)


class TestLocationServer:
    def test_public_data_lifecycle(self, rng):
        server = LocationServer()
        server.add_public("a", Point(0.5, 0.5))
        assert server.num_public == 1
        server.add_public("a", Point(0.6, 0.6))  # move
        assert server.num_public == 1
        server.remove_public("a")
        assert server.num_public == 0

    def test_bulk_loads(self, rng):
        server = LocationServer()
        points = random_points(rng, 50)
        server.add_public_bulk({i: p for i, p in enumerate(points)})
        assert server.num_public == 50
        server.store_private(
            (i, Rect.from_center(p, 0.02, 0.02).clipped_to(UNIT)) for i, p in enumerate(points)
        )
        assert server.num_private == 50

    def test_custom_index_factory(self, rng):
        server = LocationServer(index_factory=BruteForceIndex)
        assert isinstance(server.public_index, BruteForceIndex)

    def test_nn_private_exclusion(self, rng):
        server = LocationServer()
        me, buddy = Rect(0.45, 0.45, 0.55, 0.55), Rect(0.6, 0.6, 0.65, 0.65)
        server.store_private([("me", me), ("buddy", buddy)])
        area = Rect(0.45, 0.45, 0.55, 0.55)
        with_me = server.nn_private(area, exclude=None)
        without_me = server.nn_private(area, exclude="me")
        assert "me" in with_me.oids()
        assert "me" not in without_me.oids()
        # Exclusion is transient: the record is restored afterwards.
        assert server.num_private == 2

    def test_nn_private_exclude_unknown_is_noop(self):
        server = LocationServer()
        server.store_private([("buddy", Rect(0.6, 0.6, 0.65, 0.65))])
        result = server.nn_private(Rect(0.4, 0.4, 0.5, 0.5), exclude="ghost")
        assert "buddy" in result.oids()

    @pytest.mark.parametrize("index_factory", [RTreeIndex, BruteForceIndex])
    def test_a_read_does_not_reorder_the_store(self, index_factory):
        """Users sharing a cell and a profile share a cloak, so filter
        ties are the common case; who else asked before must not decide
        them.  (Excluding by remove + insert gave the requester a fresh
        insertion number and moved it behind its twin.)"""
        server = LocationServer(index_factory)
        cell = Rect(0.25, 0.25, 0.5, 0.5)
        far = Rect(0.75, 0.75, 0.875, 0.875)
        server.store_private([("A", cell), ("B", cell), ("C", far)])
        c_area = server.private_index.rect_of("C")
        first = server.nn_private(c_area, exclude="C")
        assert first.filters == ("A",)
        server.nn_private(cell, exclude="A")  # an unrelated read
        again = server.nn_private(c_area, exclude="C")
        assert again.filters == ("A",)
        assert again == first

    def test_rtree_and_brute_force_servers_ship_the_same_bytes(self, rng):
        """One script — bulk public load, 300 private stores of which a
        third re-store a user, the four ad-hoc query kinds with the
        requester excluded — through both servers: every candidate list
        encodes to the same bytes."""
        servers = (LocationServer(RTreeIndex), LocationServer(BruteForceIndex))
        targets = {f"t{i}": p for i, p in enumerate(random_points(rng, 1500))}
        cloaks = random_rects(rng, 300, max_side=0.1)
        uids = [i if i % 3 else i // 2 for i in range(300)]
        for server in servers:
            server.add_public_bulk(targets)
            server.store_private(zip(uids, cloaks))
        assert servers[0].num_private == len(set(uids))
        shipped = 0
        for step in range(120):
            uid = uids[int(rng.integers(0, 300))]
            area = servers[0].private_index.rect_of(uid)
            payloads = [
                [
                    encode_candidate_list(answer)
                    for answer in (
                        server.nn_public(area),
                        server.knn_public(area, 10),
                        server.range_public(area, 0.02),
                        server.nn_private(area, exclude=uid),
                    )
                ]
                for server in servers
            ]
            assert payloads[0] == payloads[1], f"step {step}"
            shipped += sum(map(len, payloads[0]))
            if step % 10 == 0:  # the store keeps changing under the reads
                for server in servers:
                    server.store_private([(uid, cloaks[step])])
        assert shipped > 120 * 4 * 64

    def test_naive_baselines(self, rng):
        server = LocationServer()
        server.add_public_bulk({i: p for i, p in enumerate(random_points(rng, 40))})
        area = Rect(0.4, 0.4, 0.6, 0.6)
        assert len(server.nn_public_naive_center(area)) == 1
        assert len(server.nn_public_naive_all(area)) == 40


def build_stack(rng, num_users=250, num_targets=150, **kwargs) -> Casper:
    casper = Casper(UNIT, pyramid_height=7, **kwargs)
    casper.add_public_targets(
        {f"t{i}": p for i, p in enumerate(random_points(rng, num_targets))}
    )
    for i, p in enumerate(random_points(rng, num_users)):
        casper.register_user(i, p, PrivacyProfile(k=int(rng.integers(1, 25))))
    return casper


class TestCasperFacade:
    def test_server_never_sees_exact_private_locations(self, rng):
        """The core privacy property: every stored private region is a
        non-degenerate rectangle strictly larger than a point whenever
        the profile demands k > 1."""
        casper = build_stack(rng)
        for uid in range(250):
            profile = casper.anonymizer.profile_of(uid)
            region = casper.server.private_index.rect_of(uid)
            if profile.k > 1:
                assert region.area > 0.0
            assert region.contains_point(casper.anonymizer.location_of(uid))

    def test_query_nearest_public_is_exact(self, rng):
        casper = build_stack(rng)
        # Exhaustive truth from the stored public targets.
        targets = dict(casper.server.public_index.items())
        for uid in range(0, 250, 31):
            result = casper.query_nearest_public(uid)
            user = casper.anonymizer.location_of(uid)
            truth = min(
                targets, key=lambda oid: targets[oid].min_distance_to_point(user)
            )
            true_d = targets[truth].min_distance_to_point(user)
            got_d = targets[result.answer].min_distance_to_point(user)
            assert got_d == pytest.approx(true_d)

    def test_query_timing_components_positive(self, rng):
        casper = build_stack(rng)
        result = casper.query_nearest_public(0)
        assert result.anonymizer_seconds >= 0
        assert result.processing_seconds > 0
        assert result.transmission_seconds > 0
        assert result.total_seconds == pytest.approx(
            result.anonymizer_seconds
            + result.processing_seconds
            + result.transmission_seconds
        )
        assert result.candidate_count == len(result.candidates)

    def test_query_nearest_private_excludes_self(self, rng):
        casper = build_stack(rng)
        result = casper.query_nearest_private(3)
        assert 3 not in result.candidates.oids()
        assert result.answer != 3

    def test_query_range_public(self, rng):
        casper = build_stack(rng)
        result = casper.query_range_public(0, radius=0.15)
        user = casper.anonymizer.location_of(0)
        targets = dict(casper.server.public_index.items())
        truth = {
            oid
            for oid, rect in targets.items()
            if rect.min_distance_to_point(user) <= 0.15
        }
        assert set(result.answer) == truth

    def test_count_users_brackets_truth(self, rng):
        casper = build_stack(rng)
        region = Rect(0.2, 0.2, 0.7, 0.7)
        result = casper.count_users_in(region)
        truth = sum(
            1
            for uid in range(250)
            if region.contains_point(casper.anonymizer.location_of(uid))
        )
        assert result.minimum <= truth <= result.maximum

    def test_update_location_refreshes_server(self, rng):
        casper = build_stack(rng)
        before = casper.server.private_index.rect_of(0)
        casper.update_location(0, Point(0.95, 0.95))
        after = casper.server.private_index.rect_of(0)
        assert after.contains_point(Point(0.95, 0.95))
        assert before != after or before.contains_point(Point(0.95, 0.95))

    def test_remove_user(self, rng):
        casper = build_stack(rng)
        casper.remove_user(0)
        assert 0 not in casper.anonymizer
        assert 0 not in casper.server.private_index

    def test_cold_start_stores_root_region(self):
        casper = Casper(UNIT, pyramid_height=6)
        casper.register_user("first", Point(0.5, 0.5), PrivacyProfile(k=10))
        assert casper.server.private_index.rect_of("first") == UNIT

    def test_basic_anonymizer_variant(self, rng):
        casper = build_stack(rng, anonymizer="basic")
        result = casper.query_nearest_public(0)
        assert result.answer is not None

    def test_invalid_anonymizer_kind(self):
        with pytest.raises(ValueError):
            Casper(UNIT, anonymizer="quantum")


class TestMobileClient:
    def test_full_client_lifecycle(self, rng):
        casper = Casper(UNIT, pyramid_height=7)
        casper.add_public_targets(
            {f"t{i}": p for i, p in enumerate(random_points(rng, 100))}
        )
        others = [
            MobileClient(casper, f"u{i}", p, PrivacyProfile(k=3))
            for i, p in enumerate(random_points(rng, 30))
        ]
        me = MobileClient(casper, "me", Point(0.5, 0.5), PrivacyProfile(k=5))
        nn = me.nearest_public()
        assert nn.answer is not None
        buddy = me.nearest_buddy()
        assert buddy.answer != "me"
        within = me.publics_within(0.2)
        assert isinstance(within.answer, list)
        me.move_to(Point(0.6, 0.6))
        assert me.location == Point(0.6, 0.6)
        me.change_profile(PrivacyProfile(k=2))
        assert me.profile.k == 2
        me.leave()
        assert "me" not in casper.anonymizer
        assert others[0].uid in casper.anonymizer

    def test_stricter_profile_larger_cloak(self, rng):
        """The privacy / quality-of-service dial of Section 3."""
        casper = Casper(UNIT, pyramid_height=8)
        casper.add_public_targets(
            {f"t{i}": p for i, p in enumerate(random_points(rng, 200))}
        )
        clients = [
            MobileClient(casper, i, p, PrivacyProfile(k=1))
            for i, p in enumerate(random_points(rng, 400))
        ]
        me = clients[0]
        relaxed = me.nearest_public()
        me.change_profile(PrivacyProfile(k=100))
        strict = me.nearest_public()
        assert strict.cloak.area > relaxed.cloak.area
        assert strict.candidate_count >= relaxed.candidate_count


class TestAnonymizerInstances:
    def test_casper_accepts_prebuilt_anonymizer(self, rng):
        from repro.anonymizer import BasicAnonymizer

        prebuilt = BasicAnonymizer(UNIT, height=5)
        casper = Casper(UNIT, anonymizer=prebuilt)
        assert casper.anonymizer is prebuilt

    def test_bounds_mismatch_rejected(self):
        from repro.anonymizer import BasicAnonymizer

        prebuilt = BasicAnonymizer(Rect(0, 0, 2, 1), height=5)
        with pytest.raises(ValueError):
            Casper(UNIT, anonymizer=prebuilt)
