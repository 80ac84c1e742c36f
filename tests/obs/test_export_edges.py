"""Prometheus text exporter edge cases: NaN/Inf spellings, cumulative
bucket monotonicity, explicit counter tables, and empty-registry output.

These run against private registries, never the process-wide one, so
they are isolated by construction.
"""

import math

from repro.obs import metrics
from repro.obs.export import _fmt, prometheus_text


class TestFmt:
    def test_nan_and_inf_spellings(self):
        # Prometheus text requires exactly these; int(nan)/int(inf)
        # raise, so the guards must come first.
        assert _fmt(float("nan")) == "NaN"
        assert _fmt(float("inf")) == "+Inf"
        assert _fmt(float("-inf")) == "-Inf"

    def test_integral_and_float_values(self):
        assert _fmt(3.0) == "3"
        assert _fmt(-2.0) == "-2"
        assert _fmt(0.25) == "0.25"
        # Beyond the exact-int window, falls back to repr.
        assert _fmt(1e18) == "1e+18"


class TestGaugeEdgeValues:
    def test_nan_and_inf_gauges_render(self):
        registry = metrics.MetricsRegistry()
        registry.gauge("edge.nan").set(float("nan"))
        registry.gauge("edge.pos").set(float("inf"))
        registry.gauge("edge.neg").set(float("-inf"))
        text = prometheus_text(registry=registry)
        assert "repro_edge_nan NaN" in text
        assert "repro_edge_pos +Inf" in text
        assert "repro_edge_neg -Inf" in text


class TestHistogram:
    def test_buckets_are_cumulative_and_monotone(self):
        registry = metrics.MetricsRegistry()
        hist = registry.histogram("lat", bounds=(0.1, 1.0, 10.0))
        for value in (0.05, 0.5, 0.5, 5.0, 50.0):
            hist.observe(value)
        text = prometheus_text(registry=registry)
        buckets = []
        for line in text.splitlines():
            if line.startswith("repro_lat_bucket"):
                buckets.append(int(line.rsplit(" ", 1)[1]))
        # le="0.1", le="1", le="10", le="+Inf" — cumulative form.
        assert buckets == [1, 3, 4, 5]
        assert buckets == sorted(buckets)
        # The +Inf bucket must equal _count.
        assert f"repro_lat_count {hist.count}" in text
        assert buckets[-1] == hist.count
        assert f"repro_lat_sum {repr(float(hist.sum))}" in text

    def test_inf_bound_spelling_in_le_label(self):
        registry = metrics.MetricsRegistry()
        registry.histogram("one", bounds=(1.0,)).observe(0.5)
        text = prometheus_text(registry=registry)
        assert 'repro_one_bucket{le="1"} 1' in text
        assert 'repro_one_bucket{le="+Inf"} 1' in text

    def test_sum_keeps_full_float_precision(self):
        registry = metrics.MetricsRegistry()
        hist = registry.histogram("prec", bounds=(1.0,))
        hist.observe(0.1)
        hist.observe(0.2)
        text = prometheus_text(registry=registry)
        assert f"repro_prec_sum {repr(0.1 + 0.2)}" in text


class TestCounterTable:
    def test_table_replaces_registry_counters_gauges_and_histograms(self):
        # A report's counters table is exported on its own: the live
        # registry's counters, gauges and histograms and its help texts
        # stay out.
        registry = metrics.MetricsRegistry()
        registry.counter("live.count", help="live").inc(7)
        registry.gauge("live.gauge").set(1.0)
        registry.histogram("live.hist", bounds=(1.0,)).observe(0.5)
        text = prometheus_text(
            registry=registry, counters={"sweep.retries": 2.0, "b.a": 0.5}
        )
        assert text == (
            "# TYPE repro_b_a counter\n"
            "repro_b_a 0.5\n"
            "# TYPE repro_sweep_retries counter\n"
            "repro_sweep_retries 2\n"
        )


class TestEmptyRegistry:
    def test_empty_registry_is_empty_string(self):
        assert prometheus_text(registry=metrics.MetricsRegistry()) == ""

    def test_empty_counter_table_ignores_live_registry(self):
        registry = metrics.MetricsRegistry()
        registry.counter("live.count").inc()
        registry.gauge("live.gauge").set(3.0)
        registry.histogram("live.hist", bounds=(1.0,)).observe(2.0)
        assert prometheus_text(registry=registry, counters={}) == ""

    def test_nan_sum_does_not_crash_export(self):
        registry = metrics.MetricsRegistry()
        registry.histogram("odd", bounds=(1.0,)).observe(float("nan"))
        text = prometheus_text(registry=registry)
        assert "repro_odd_sum nan" in text
        assert math.isnan(registry._histograms["odd"].sum)
