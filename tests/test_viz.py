"""Tests for the SVG visualization module."""

from __future__ import annotations

import xml.etree.ElementTree as ET

import numpy as np
import pytest

from repro.anonymizer import AdaptiveAnonymizer, PrivacyProfile
from repro.geometry import Point, Rect
from repro.mobility import synthetic_county_map
from repro.processor import private_nn_over_public
from repro.spatial import RTreeIndex
from repro.viz import SvgCanvas, draw_deployment, draw_pyramid_cut, draw_query_scene
from tests.conftest import UNIT, random_points

SVG_NS = "{http://www.w3.org/2000/svg}"


def parse(svg: str) -> ET.Element:
    return ET.fromstring(svg)


class TestSvgCanvas:
    def test_validation(self):
        with pytest.raises(ValueError):
            SvgCanvas(UNIT, size=4)
        with pytest.raises(ValueError):
            SvgCanvas(Rect(0, 0, 0, 1))
        canvas = SvgCanvas(UNIT)
        with pytest.raises(ValueError):
            canvas.add_grid(0)

    def test_empty_canvas_is_valid_svg(self):
        root = parse(SvgCanvas(UNIT).render())
        assert root.tag == f"{SVG_NS}svg"
        assert root.get("width") == "640"

    def test_aspect_ratio_preserved(self):
        canvas = SvgCanvas(Rect(0, 0, 2, 1), size=600)
        assert canvas.width_px == 600
        assert canvas.height_px == 300

    def test_y_axis_flipped(self):
        """World 'up' must render toward smaller pixel y."""
        canvas = SvgCanvas(UNIT, size=100)
        canvas.add_point(Point(0.5, 0.9))  # high in the world
        canvas.add_point(Point(0.5, 0.1))  # low in the world
        root = parse(canvas.render())
        circles = root.findall(f"{SVG_NS}circle")
        assert float(circles[0].get("cy")) < float(circles[1].get("cy"))

    def test_elements_counted(self, rng):
        canvas = SvgCanvas(UNIT)
        canvas.add_points(random_points(rng, 25))
        canvas.add_rect(Rect(0.1, 0.1, 0.5, 0.5))
        canvas.add_line(Point(0, 0), Point(1, 1))
        canvas.add_label(Point(0.5, 0.5), "hello <world>")
        root = parse(canvas.render())
        assert len(root.findall(f"{SVG_NS}circle")) == 25
        assert len(root.findall(f"{SVG_NS}rect")) == 2  # background + ours
        assert len(root.findall(f"{SVG_NS}line")) == 1
        text = root.find(f"{SVG_NS}text")
        assert text.text == "hello <world>"  # escaped on the way in

    def test_grid_lines(self):
        canvas = SvgCanvas(UNIT)
        canvas.add_grid(4)
        root = parse(canvas.render())
        assert len(root.findall(f"{SVG_NS}line")) == 6  # 3 vertical + 3 horizontal

    def test_road_network_layer(self):
        network = synthetic_county_map(seed=0, grid_size=4)
        canvas = SvgCanvas(UNIT)
        canvas.add_road_network(network)
        root = parse(canvas.render())
        assert len(root.findall(f"{SVG_NS}line")) == network.num_edges

    def test_save(self, tmp_path):
        canvas = SvgCanvas(UNIT)
        canvas.add_point(Point(0.5, 0.5))
        path = tmp_path / "scene.svg"
        canvas.save(path)
        parse(path.read_text())


class TestScenes:
    def test_query_scene(self, rng):
        points = random_points(rng, 150)
        targets = {f"t{i}": p for i, p in enumerate(points)}
        idx = RTreeIndex()
        idx.bulk_load({k: Rect.point(p) for k, p in targets.items()})
        area = Rect(0.4, 0.4, 0.55, 0.5)
        cl = private_nn_over_public(idx, area, 4)
        canvas = draw_query_scene(
            UNIT, area, cl, all_targets=targets, user=Point(0.45, 0.45)
        )
        root = parse(canvas.render())
        circles = root.findall(f"{SVG_NS}circle")
        # All targets + candidates + the user marker.
        assert len(circles) == len(targets) + len(cl) + 1

    def test_deployment_scene(self, rng):
        network = synthetic_county_map(seed=1, grid_size=5)
        users = {i: p for i, p in enumerate(random_points(rng, 40))}
        canvas = draw_deployment(UNIT, network, users)
        root = parse(canvas.render())
        assert len(root.findall(f"{SVG_NS}circle")) == 40

    def test_pyramid_cut_scene(self, rng):
        anonymizer = AdaptiveAnonymizer(UNIT, height=6)
        for i, p in enumerate(random_points(rng, 200)):
            anonymizer.register(i, p, PrivacyProfile(k=3))
        canvas = draw_pyramid_cut(anonymizer)
        root = parse(canvas.render())
        leaves = len(anonymizer.leaf_cells())
        # Background + bounds + one rect per maintained leaf.
        assert len(root.findall(f"{SVG_NS}rect")) == leaves + 2
