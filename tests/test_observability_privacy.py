"""Privacy-leak tests for the telemetry egress path.

The observability layer is a second data stream leaving the trusted
anonymizer (the first is the cloaked region itself), so it gets the
same adversarial treatment as the query path: run the *full* Casper
stack — registration, NN/kNN/range queries, batches — with telemetry
enabled, then inspect every exported label value and span attribute as
an attacker would and assert nothing location-shaped made it out.

The static half of the defence (the CSP008 lint rule over call sites)
is exercised in ``test_lint_rules.py`` via the fixtures under
``tests/lint_fixtures/csp008_telemetry/``.
"""

from __future__ import annotations

import json

import numpy as np
import pytest

from repro.geometry import Point
from repro.observability import (
    TelemetryExport,
    TelemetryLeakError,
    enabled,
    looks_like_coordinates,
)
from repro.server import Casper
from repro.anonymizer import PrivacyProfile
from tests.conftest import UNIT, random_points


def build_casper(kind: str, rng: np.random.Generator) -> Casper:
    casper = Casper(UNIT, pyramid_height=6, anonymizer=kind)
    casper.add_public_targets(
        {f"station-{i}": p for i, p in enumerate(random_points(rng, 120))}
    )
    for uid, point in enumerate(random_points(rng, 150)):
        casper.register_user(
            uid, point, PrivacyProfile(k=int(rng.integers(2, 12)))
        )
    return casper


def run_workload(casper: Casper) -> list[Point]:
    """Drive every query surface; returns the exact locations used."""
    exact = [casper.anonymizer.location_of(uid) for uid in range(8)]
    for uid in range(4):
        casper.query_nearest_public(uid)
        casper.query_nearest_private(uid)
        casper.query_range_public(uid, radius=0.2)
    casper.query_batch(
        [
            (0, "nn_public"),
            (1, "knn_public", 3),
            (2, "range_public", 0.15),
            (3, "nn_public"),
        ]
    )
    return exact


def iter_label_values(export: TelemetryExport):
    for entry in export.metrics["metrics"]:
        for key, value in entry["labels"]:
            yield f"metric {entry['name']} label {key}", value


def iter_span_attributes(export: TelemetryExport):
    def walk(span):
        for key, value in span["attributes"].items():
            yield f"span {span['name']} attribute {key}", value
        for child in span["children"]:
            yield from walk(child)

    for root in export.spans:
        yield from walk(root)


@pytest.mark.parametrize("kind", ["basic", "adaptive"])
class TestFullStackTelemetryIsLocationFree:
    def _export(self, kind):
        rng = np.random.default_rng(2006)
        with enabled() as session:
            casper = build_casper(kind, rng)
            exact = run_workload(casper)
            export = TelemetryExport.from_observability(session)
        assert len(export.metrics["metrics"]) > 0
        assert len(export.spans) > 0
        return export, exact

    def test_no_label_or_attribute_parses_as_coordinates(self, kind):
        export, _exact = self._export(kind)
        checked = 0
        for where, value in list(iter_label_values(export)) + list(
            iter_span_attributes(export)
        ):
            checked += 1
            assert isinstance(value, (str, int, bool)), (
                f"{where}: {value!r} is {type(value).__name__}, not a "
                "telemetry-safe type"
            )
            assert not isinstance(value, float)
            if isinstance(value, str):
                assert not looks_like_coordinates(value), (
                    f"{where}: {value!r} parses as a coordinate pair"
                )
        assert checked > 0

    def test_no_exact_location_appears_in_either_wire_format(self, kind):
        export, exact = self._export(kind)
        wire = export.to_json() + "\n" + export.to_prometheus()
        for p in exact:
            for rendering in (
                f"{p.x}, {p.y}",
                f"{p.x},{p.y}",
                f"Point({p.x}",
                repr(p.x),
                repr(p.y),
            ):
                assert rendering not in wire, (
                    f"exact location rendering {rendering!r} leaked into "
                    "exported telemetry"
                )

    def test_label_values_are_drawn_from_fixed_vocabulary(self, kind):
        """Every string label is a categorical from the instrumentation
        catalogue — never data-dependent free text an exact location
        could be smuggled through."""
        export, _exact = self._export(kind)
        allowed = {
            "basic",
            "adaptive",
            "hit",
            "miss",
            "eviction",
            "invalidation",
            "computed",
            "deduplicated",
            "public",
            "private",
            "filter_selection",
            "extension",
            "candidates",
            "nn_public",
            "nn_private",
            "knn_public",
            "range_public",
            "range_private",
            "batch_public",
            "run_batch",
            "count_private",
        }
        for where, value in iter_label_values(export):
            if isinstance(value, str):
                assert value in allowed, f"{where}: unexpected label {value!r}"


class TestExportIsTheOnlyEgress:
    def test_prometheus_text_is_coordinate_free(self):
        rng = np.random.default_rng(7)
        with enabled() as session:
            casper = build_casper("adaptive", rng)
            run_workload(casper)
            text = TelemetryExport.from_observability(session).to_prometheus()
        # Label portions must not smuggle coordinate pairs; numeric
        # sample values (one number per line) cannot form a pair.
        for line in text.splitlines():
            if line.startswith("#"):
                continue
            label_part = line[line.find("{"): line.rfind("}") + 1]
            assert not looks_like_coordinates(label_part), line

    def test_span_names_and_help_strings_are_screened(self):
        leak = "user at (0.25, 0.75)"
        with enabled() as session:
            with pytest.raises(TelemetryLeakError), session.tracer.span(leak):
                pass  # pragma: no cover - the span never opens
            session.metrics.counter("c", help=leak).inc()
            with pytest.raises(TelemetryLeakError, match="help"):
                TelemetryExport.from_observability(session)
        root = {"name": "root", "attributes": {}, "children": [{"name": leak}]}
        with pytest.raises(TelemetryLeakError, match="span name"):
            TelemetryExport({"version": 1, "metrics": []}, spans=(root,))

    def test_snapshot_json_roundtrips_after_workload(self):
        rng = np.random.default_rng(11)
        with enabled() as session:
            casper = build_casper("basic", rng)
            run_workload(casper)
            export = TelemetryExport.from_observability(session)
        restored = export.restore_metrics()
        assert restored.snapshot() == export.metrics
        again = json.loads(export.to_json())
        assert again["metrics"] == export.metrics


class TestMetricsCLI:
    def test_metrics_command_emits_valid_json(self, capsys, monkeypatch):
        import repro.__main__ as cli

        monkeypatch.chdir("/root/repo")
        assert cli.main(["metrics", "--example", "quickstart"]) == 0
        parsed = json.loads(capsys.readouterr().out)
        assert {"metrics", "spans", "slos"} <= set(parsed)
        names = {e["name"] for e in parsed["metrics"]["metrics"]}
        assert "casper_cloak_requests_total" in names

    def test_metrics_command_emits_prometheus(self, capsys, monkeypatch):
        import repro.__main__ as cli

        monkeypatch.chdir("/root/repo")
        assert (
            cli.main(
                ["metrics", "--example", "quickstart", "--format", "prometheus"]
            )
            == 0
        )
        out = capsys.readouterr().out
        assert "# TYPE casper_cloak_seconds histogram" in out
        assert not looks_like_coordinates(out.replace("\n", " | "))

    def test_metrics_command_rejects_unknown_example(self, capsys, monkeypatch):
        import repro.__main__ as cli

        monkeypatch.chdir("/root/repo")
        assert cli.main(["metrics", "--example", "no_such_example"]) == 2
        assert "available:" in capsys.readouterr().err
