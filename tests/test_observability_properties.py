"""Property tests for the observability primitives.

The metrics layer promises *algebraic* determinism: snapshots are pure
functions of the multiset of recorded observations, histogram merging
is associative and commutative, counters are monotone, and snapshots
round-trip through JSON exactly (histogram sums are exact rationals,
float fields travel as ``float.hex`` strings).  These tests pin each of
those promises, because the instrumentation-equivalence suite and the
CI coverage gate both build on them.
"""

from __future__ import annotations

import json
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.observability import (
    DEFAULT_LATENCY_BUCKETS,
    DEFAULT_RATIO_BUCKETS,
    DEFAULT_SIZE_BUCKETS,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    Observability,
    TelemetryExport,
    TelemetryLeakError,
    Tracer,
    ensure_safe_label_value,
    looks_like_coordinates,
)
from repro.observability import runtime as rt

# Magnitudes bounded so exact-rational arithmetic stays fast; the full
# float range is exercised separately via awkward hand-picked values.
finite_floats = st.floats(
    min_value=-1e9, max_value=1e9, allow_nan=False, allow_infinity=False
)
float_lists = st.lists(finite_floats, max_size=40)

AWKWARD_VALUES = (
    0.1,
    0.2,
    0.30000000000000004,
    1e-300,
    1e300,
    -0.0,
    2.220446049250313e-16,
    123456789.123456789,
)


def hist_of(values, boundaries=DEFAULT_LATENCY_BUCKETS) -> Histogram:
    h = Histogram("h", boundaries=boundaries)
    for v in values:
        h.observe(v)
    return h


class TestHistogramAlgebra:
    @given(float_lists, float_lists)
    def test_merge_commutative(self, a, b):
        left = hist_of(a)
        left.merge(hist_of(b))
        right = hist_of(b)
        right.merge(hist_of(a))
        assert left.as_dict() == right.as_dict()

    @given(float_lists, float_lists, float_lists)
    def test_merge_associative(self, a, b, c):
        ab = hist_of(a)
        ab.merge(hist_of(b))
        ab.merge(hist_of(c))
        bc = hist_of(b)
        bc.merge(hist_of(c))
        a_bc = hist_of(a)
        a_bc.merge(bc)
        assert ab.as_dict() == a_bc.as_dict()

    @given(st.permutations(list(AWKWARD_VALUES)))
    def test_observation_order_irrelevant(self, shuffled):
        assert hist_of(shuffled).as_dict() == hist_of(AWKWARD_VALUES).as_dict()

    @given(float_lists)
    def test_sum_is_exact(self, values):
        h = hist_of(values)
        exact = sum(
            (Fraction(*float(v).as_integer_ratio()) for v in values),
            Fraction(0),
        )
        assert h.sum == float(exact)
        num, den = h.as_dict()["sum"]
        assert Fraction(num, den) == exact

    def test_lazy_fold_crosses_batch_threshold(self):
        h = hist_of([0.1] * 5000)
        assert h.count == 5000
        assert Fraction(*h.as_dict()["sum"]) == (
            Fraction(*(0.1).as_integer_ratio()) * 5000
        )

    def test_reading_sum_is_idempotent(self):
        h = hist_of([0.25, 0.5])
        assert h.sum == h.sum == 0.75
        assert h.mean == 0.375
        h.observe(0.25)
        assert h.sum == 1.0

    def test_bucketing_boundaries_inclusive(self):
        h = hist_of([1.0, 1.0000001, 0.5], boundaries=(0.5, 1.0))
        # 0.5 and 1.0 land in their named buckets, the epsilon above in +inf.
        assert h.bucket_counts == [1, 1, 1]
        assert h.minimum == 0.5 and h.maximum == 1.0000001

    def test_merge_rejects_different_boundaries(self):
        a = Histogram("h", boundaries=(1.0, 2.0))
        b = Histogram("h", boundaries=(1.0, 3.0))
        with pytest.raises(ValueError):
            a.merge(b)

    def test_invalid_construction_and_observation(self):
        with pytest.raises(ValueError):
            Histogram("h", boundaries=())
        with pytest.raises(ValueError):
            Histogram("h", boundaries=(2.0, 1.0))
        with pytest.raises(ValueError):
            Histogram("h", boundaries=(1.0, float("inf")))
        h = Histogram("h", boundaries=(1.0,))
        with pytest.raises(ValueError):
            h.observe(float("nan"))


class TestCounterAndGauge:
    @given(st.lists(st.integers(min_value=0, max_value=1000)))
    def test_counter_monotone(self, increments):
        c = Counter("c")
        seen = 0
        for amount in increments:
            c.inc(amount)
            assert c.value >= seen
            seen = c.value
        assert c.value == sum(increments)

    def test_counter_rejects_non_monotone_and_non_int(self):
        c = Counter("c")
        with pytest.raises(ValueError):
            c.inc(-1)
        with pytest.raises(TypeError):
            c.inc(1.5)
        with pytest.raises(TypeError):
            c.inc(True)
        with pytest.raises(ValueError):
            c.restore({"value": -3})

    def test_gauge_last_write_wins_and_hex_roundtrip(self):
        g = Gauge("g")
        g.set(0.1)
        g.set(0.30000000000000004)
        state = g.as_dict()
        g2 = Gauge("g")
        g2.restore(state)
        assert g2.value == 0.30000000000000004
        with pytest.raises(ValueError):
            g.set(float("inf"))
        with pytest.raises(ValueError):
            g2.restore({"value": 1.5})


class TestRegistry:
    def test_get_or_create_returns_same_instrument(self):
        m = MetricsRegistry()
        labels = (("anonymizer", "basic"),)
        assert m.counter("c", labels) is m.counter("c", labels)
        # Unsorted label order converges on the same instrument.
        two = (("b", 1), ("a", 2))
        assert m.counter("c2", two) is m.counter("c2", tuple(sorted(two)))
        assert m.get("c", labels) is m.counter("c", labels)
        assert m.get("missing") is None
        assert len(m) == 2

    def test_kind_and_boundary_conflicts(self):
        m = MetricsRegistry()
        m.counter("c")
        with pytest.raises(ValueError):
            m.gauge("c")
        m.histogram("h", boundaries=(1.0, 2.0))
        with pytest.raises(ValueError):
            m.counter("h")
        with pytest.raises(ValueError):
            m.histogram("h", boundaries=(1.0, 3.0))
        with pytest.raises(ValueError):
            m.counter("bad name!")
        with pytest.raises(ValueError):
            m.counter("c", (("", 1),))

    @given(
        st.lists(
            st.tuples(st.sampled_from(["a", "b", "c"]), finite_floats),
            max_size=60,
        )
    )
    def test_interleaving_determinism(self, stream):
        """Any interleaving of the same per-instrument observation
        sequences snapshots identically (here: reversed arrival order
        of events targeting distinct instruments)."""

        def build(events):
            m = MetricsRegistry()
            for name, value in events:
                m.histogram(f"h_{name}", (("src", name),)).observe(value)
                m.counter(f"c_{name}").inc()
            return m

        # Stable-partition by instrument: per-instrument order is kept,
        # cross-instrument interleaving is completely rearranged.
        regrouped = [
            e for key in ["c", "b", "a"] for e in stream if e[0] == key
        ]
        a, b = build(stream), build(regrouped)
        assert json.dumps(a.snapshot(), sort_keys=True) == json.dumps(
            b.snapshot(), sort_keys=True
        )

    def test_snapshot_json_roundtrip_exact(self):
        m = MetricsRegistry()
        m.counter("requests", (("kind", "nn"),), help="req").inc(7)
        g = m.gauge("load", help="load")
        g.set(0.30000000000000004)
        h = m.histogram(
            "lat", (("phase", "x"),), boundaries=DEFAULT_RATIO_BUCKETS
        )
        for v in AWKWARD_VALUES:
            h.observe(abs(v))
        wire = json.dumps(m.snapshot())
        restored = MetricsRegistry.from_snapshot(json.loads(wire))
        assert restored.snapshot() == m.snapshot()
        # ... and the restored histogram still holds the exact rational.
        h2 = restored.get("lat", (("phase", "x"),))
        assert h2.as_dict() == h.as_dict()

    def test_from_snapshot_rejects_malformed(self):
        with pytest.raises(ValueError):
            MetricsRegistry.from_snapshot({"version": 2, "metrics": []})
        with pytest.raises(ValueError):
            MetricsRegistry.from_snapshot({"version": 1})
        with pytest.raises(ValueError):
            MetricsRegistry.from_snapshot(
                {"version": 1, "metrics": [{"kind": "unknown", "name": "x"}]}
            )
        def hist_entry(**overrides):
            entry = {
                "name": "h",
                "kind": "histogram",
                "labels": [],
                "help": "",
                "boundaries": [(1.0).hex()],
                "bucket_counts": [1, 0],
                "count": 1,
                "sum": [1, 1],
            }
            entry.update(overrides)
            return {"version": 1, "metrics": [entry]}

        for bad in (
            hist_entry(count=2),  # inconsistent with buckets
            hist_entry(sum=[1, "x"]),  # malformed exact-sum parts
            hist_entry(bucket_counts=[1]),  # wrong bucket arity
        ):
            with pytest.raises(ValueError):
                MetricsRegistry.from_snapshot(bad)

    def test_registry_merge(self):
        a, b = MetricsRegistry(), MetricsRegistry()
        a.counter("c").inc(2)
        b.counter("c").inc(3)
        b.gauge("g").set(1.5)
        b.histogram("h").observe(0.25)
        a.merge(b)
        assert a.counter("c").value == 5
        assert a.gauge("g").value == 1.5
        assert a.histogram("h").count == 1
        assert len(b) == 3  # merge never mutates the source

    def test_clear_resets_instruments_and_handles(self):
        m = MetricsRegistry()
        m.handles["c", ()] = m.counter("c")
        m.clear()
        assert len(m) == 0 and not m.handles


class TestLabelScreening:
    def test_accepts_safe_values(self):
        for value in ("basic", 7, True, "k=50 area ok"):
            assert ensure_safe_label_value(value) == value

    @pytest.mark.parametrize(
        "value",
        [
            0.5,
            "Point(0.25, 0.75)",
            "(0.25, 0.75)",
            "0.25,0.75",
            "12.5;  -7.25",
            None,
            (1, 2),
        ],
    )
    def test_rejects_location_shaped_values(self, value):
        with pytest.raises(TelemetryLeakError):
            ensure_safe_label_value(value)

    def test_looks_like_coordinates(self):
        assert looks_like_coordinates("point(1.0, 2.0)")
        assert not looks_like_coordinates("42 items, 17 filters")


class TestTracer:
    def test_parent_child_nesting(self):
        tracer = Tracer()
        with tracer.span("root", query_type="nn") as root:
            with tracer.span("child") as child:
                child.set_attribute("n", 3)
            assert tracer.open_depth == 1
        assert tracer.open_depth == 0
        assert tracer.finished == [root]
        assert root.children == [child]
        assert child.attributes == {"n": 3}
        assert [s.name for s in tracer.iter_spans()] == ["root", "child"]
        tree = tracer.snapshot()[0]
        assert tree["children"][0]["name"] == "child"
        assert root.duration >= 0.0

    def test_attribute_screening(self):
        tracer = Tracer()
        with pytest.raises(TelemetryLeakError):
            with tracer.span("root", where="(1.5, 2.5)"):
                pass  # pragma: no cover - span never opens
        with tracer.span("root") as span:
            with pytest.raises(TelemetryLeakError):
                span.set_attribute("x", 0.5)

    def test_max_roots_drops_oldest(self):
        tracer = Tracer(max_roots=2)
        for i in range(4):
            with tracer.span(f"s{i}"):
                pass
        assert [s.name for s in tracer.finished] == ["s2", "s3"]
        assert tracer.dropped == 2
        tracer.clear()
        assert tracer.finished == [] and tracer.dropped == 0
        with pytest.raises(ValueError):
            Tracer(max_roots=0)


class TestSLOMonitor:
    """The SLO monitor is ``TelemetryExport.slos``: the four objectives
    are facts of catalogue rows, judged at export on each labelled
    histogram's session mean."""

    @staticmethod
    def _slos(samples: int) -> dict:
        with rt.enabled() as obs:
            for _ in range(samples):
                rt.observe("casper_candidate_list_size", 600)  # bound 512
                rt.record_cloak("basic", 0.001, 1.0, 2.0, 4, 5)  # both ratios < 1
                rt.record_cloak("adaptive", 0.001, 4.0, 2.0, 5, 5)  # all within
        return TelemetryExport.from_observability(obs).slos

    def test_upper_and_lower_breaches(self):
        slos = self._slos(samples=16)
        assert len(slos["objectives"]) == 7  # 3 cloak rows x 2 labels + sizes
        breached = {
            (b["metric"], tuple(map(tuple, b["labels"]))): b
            for b in slos["breaches"]
        }
        basic = (("anonymizer", "basic"),)
        assert set(breached) == {
            ("casper_candidate_list_size", ()),
            ("casper_cloak_k_ratio", basic),
            ("casper_cloak_area_ratio", basic),
        }
        size = breached["casper_candidate_list_size", ()]
        assert (size["kind"], size["bound"], size["mean"]) == ("upper", 512.0, 600.0)
        ratio = breached["casper_cloak_k_ratio", basic]
        assert (ratio["kind"], ratio["samples"], ratio["mean"]) == ("lower", 16, 0.8)
        under_the_floor = self._slos(samples=15)
        assert under_the_floor["breaches"] == []
        assert {o["samples"] for o in under_the_floor["objectives"]} == {15}

    def test_invalid_definitions(self):
        """No row states an objective the export cannot judge, and a
        foreign snapshot that reuses such a row's name is not judged."""
        for name, row in rt.CATALOGUE.items():
            assert row.objective is None or (
                row.kind == "histogram" and row.objective[0] in ("upper", "lower")
            ), name
        foreign = {"name": "casper_cloak_seconds", "kind": "counter", "value": 99}
        assert TelemetryExport({"version": 1, "metrics": [foreign]}).slos == {
            "objectives": [], "breaches": [],
        }


class TestRuntimeHelpers:
    def test_disabled_helpers_are_noops(self):
        assert rt.active() is None
        rt.observe("casper_candidate_list_size", 5)
        rt.count("casper_server_requests_total", "nn_public")
        rt.set_gauge("casper_shard_users", 3, 0)
        rt.count("no_such_metric")  # not even looked up while disabled
        assert rt.phase_scope("extension", "public") is rt.phase_scope(
            "candidates", "private"
        )
        with rt.query_scope("nn_public"):
            pass

    def test_explicit_enable_disable(self):
        session = rt.enable()
        try:
            assert rt.active() is session
            replacement = rt.enable()
            assert rt.active() is replacement is not session
        finally:
            returned = rt.disable()
        assert returned is replacement
        assert rt.disable() is None  # idempotent when already off

    def test_enabled_restores_previous_session(self):
        outer = Observability()
        with rt.enabled(outer):
            assert rt.active() is outer
            with rt.enabled() as inner:
                assert rt.active() is inner is not outer
                rt.observe("casper_candidate_list_size", 3)
            assert rt.active() is outer
        assert rt.active() is None
        assert outer.is_empty and not inner.is_empty
        inner.clear()
        assert inner.is_empty

    def test_record_helpers_populate_catalogue(self):
        with rt.enabled() as obs:
            rt.record_cloak("basic", 0.001, 4.0, 2.0, 55, 50)
            rt.record_cloak("basic", 0.002, 1.0, 0.0, 10, 0)
            rt.count("casper_cloak_cache_events_total", "hit")
            with rt.phase_scope("extension", "public"):
                rt.observe("casper_candidate_list_size", 12)
            with rt.query_scope("nn_public"):
                rt.count("casper_server_requests_total", "nn_public")
            with pytest.raises(RuntimeError), rt.query_scope("nn_private"):
                raise RuntimeError("a query that fails is not counted")
            rt.count("casper_batch_requests_total", "deduplicated", n=6)
            rt.set_gauge("casper_shard_users", 7, 2)

        def at(name, **labels):
            return obs.metrics.get(name, tuple(labels.items()))

        assert at("casper_cloak_requests_total", anonymizer="basic").value == 2
        assert at("casper_cloak_seconds", anonymizer="basic").count == 2
        assert at("casper_cloak_area_ratio", anonymizer="basic").count == 1
        assert at("casper_cloak_k_ratio", anonymizer="basic").sum == 1.1 + 1.0
        assert at("casper_cloak_cache_events_total", event="hit").value == 1
        assert at("casper_candidate_list_size").count == 1
        assert at("casper_batch_requests_total", outcome="deduplicated").value == 6
        assert at("casper_queries_total", query_type="nn_public").value == 1
        assert at("casper_queries_total", query_type="nn_private") is None
        assert at("casper_shard_users", shard="2").value == 7.0
        assert [root.name for root in obs.tracer.finished] == [
            "processor.extension", "casper.query", "casper.query",
        ]

    def test_worker_helpers_record_per_shard_transport_metrics(self):
        with rt.enabled() as obs:
            for _ in range(2):  # the second call reuses the memoized handle
                rt.observe("casper_worker_roundtrip_seconds", 0.002, 0)
                rt.observe("casper_worker_batch_envelopes", 6, 0)
                rt.count("casper_worker_events_total", 1, "retransmit")
        m = obs.metrics
        assert len(m.handles) == len(m) == 3
        assert m.get("casper_worker_roundtrip_seconds", (("shard", "0"),)).count == 2
        assert m.get("casper_worker_batch_envelopes", (("shard", "0"),)).sum == 12.0
        events = (("shard", "1"), ("event", "retransmit"))
        assert m.get("casper_worker_events_total", events).value == 2

    def test_handle_cache_survives_registry_clear(self):
        """Clear, then emit: neither ``metrics.clear()`` nor
        ``session.clear()`` strands a memoized handle."""
        anon = (("anonymizer", "basic"),)
        with rt.enabled() as obs:
            for clear in (obs.metrics.clear, obs.clear):
                rt.record_cloak("basic", 0.001, 4.0, 2.0, 55, 50)
                clear()
                rt.record_cloak("basic", 0.001, 4.0, 2.0, 55, 50)
                assert obs.metrics.get("casper_cloak_requests_total", anon).value == 1

    def test_unknown_names_arity_kind_and_leaks_raise(self):
        with rt.enabled() as obs:
            with pytest.raises(KeyError):
                rt.count("casper_cloak_request_total", "basic")  # a typo
            with pytest.raises(ValueError):
                rt.count("casper_shard_ops_total", 0)  # wrong label arity
            with pytest.raises(ValueError):
                rt.count("casper_shard_ops_total", 0, None)  # no label is None
            with pytest.raises(TypeError):
                rt.observe("casper_shard_ops_total", 1.0, 0, "update")
            with pytest.raises(TelemetryLeakError):
                rt.count("casper_server_requests_total", "0.25,0.75")
            with pytest.raises(TelemetryLeakError):
                rt.set_gauge("casper_shard_users", 1, 0.5)
        assert [metric.name for metric in obs.metrics] == ["casper_shard_ops_total"]


class TestTelemetryExport:
    def _session(self) -> Observability:
        with rt.enabled() as obs:
            rt.record_cloak("adaptive", 0.003, 9.0, 3.0, 20, 10)
            rt.observe("casper_candidate_list_size", 17)
        obs.metrics.gauge("casper_load", help="load").set(0.5)
        with obs.tracer.span("casper.query", query_type="nn_public"):
            with obs.tracer.span("processor.extension", data="public"):
                pass
        return obs

    def test_metrics_roundtrip_through_export(self):
        obs = self._session()
        export = TelemetryExport.from_observability(obs)
        parsed = json.loads(export.to_json())
        assert set(parsed) == {"metrics", "slos", "spans"}
        restored = export.restore_metrics()
        assert restored.snapshot() == obs.metrics.snapshot()
        assert parsed["spans"][0]["children"][0]["name"] == "processor.extension"

    def test_prometheus_rendering(self):
        export = TelemetryExport.from_observability(self._session())
        text = export.to_prometheus()
        lines = text.splitlines()
        assert any(
            line.startswith("# TYPE casper_cloak_seconds histogram")
            for line in lines
        )
        assert 'le="+Inf"' in text
        # Cumulative bucket counts must end at the total count.
        inf_line = next(
            line
            for line in lines
            if line.startswith("casper_cloak_seconds_bucket")
            and 'le="+Inf"' in line
        )
        count_line = next(
            line for line in lines if line.startswith("casper_cloak_seconds_count")
        )
        assert inf_line.rsplit(" ", 1)[1] == count_line.rsplit(" ", 1)[1] == "1"
        assert "casper_load 0.5" in lines  # gauge sample line
        assert TelemetryExport(metrics={"version": 1, "metrics": []}) \
            .to_prometheus() == ""

    def test_export_rejects_location_shaped_snapshots(self):
        leaky_metrics = {
            "version": 1,
            "metrics": [
                {
                    "name": "c",
                    "kind": "counter",
                    "labels": [["where", "(0.25, 0.75)"]],
                    "help": "",
                    "value": 1,
                }
            ],
        }
        with pytest.raises(TelemetryLeakError):
            TelemetryExport(metrics=leaky_metrics)
        with pytest.raises(TelemetryLeakError):
            TelemetryExport(metrics={"version": 1, "metrics": "nope"})
        leaky_span = {
            "name": "root",
            "attributes": {},
            "children": [
                {"name": "child", "attributes": {"at": "1.5,2.5"}, "children": []}
            ],
        }
        with pytest.raises(TelemetryLeakError):
            TelemetryExport(
                metrics={"version": 1, "metrics": []}, spans=(leaky_span,)
            )
