"""SweepReport folding, serialisation, and the exporters."""

import json

import pytest

from repro.obs import prometheus_text
from repro.obs.metrics import MetricsRegistry
from repro.obs.report import SweepReport

RECORDS = [
    {
        "kind": "run",
        "run_id": "gzip.Hyb.s0.aaaa",
        "benchmark": "gzip",
        "policy": "Hyb",
        "pid": 100,
        "wall_seconds": 1.5,
        "metrics": {
            "engine.trigger_crossings": 3.0,
            "dtm.duty_cycle": 0.25,
        },
    },
    {
        "kind": "run",
        "run_id": "gcc.Hyb.s1.bbbb",
        "benchmark": "gcc",
        "policy": "Hyb",
        "pid": 101,
        "wall_seconds": 0.5,
        "metrics": {"engine.trigger_crossings": 1.0},
    },
]

FAILURES = [
    {
        "index": 2,
        "benchmark": "mesa",
        "policy": "Hyb",
        "error_type": "SimulationError",
        "message": "boom",
        "attempts": 1,
    }
]


def _report():
    return SweepReport.build(
        RECORDS,
        failures=FAILURES,
        meta={"processes": 2},
        sweep_counters={"sweep.retries": 2.0, "sweep.timeouts": 0.0},
    )


class TestBuild:
    def test_counters_sum_across_runs(self):
        report = _report()
        assert report.counters["engine.trigger_crossings"] == 4.0
        assert report.counters["dtm.duty_cycle"] == 0.25

    def test_sweep_counters_fold_in_dropping_zeros(self):
        report = _report()
        assert report.counters["sweep.retries"] == 2.0
        assert "sweep.timeouts" not in report.counters

    def test_runs_keep_their_wall_seconds(self):
        report = _report()
        assert [run["wall_seconds"] for run in report.runs] == [1.5, 0.5]
        assert "spans" not in report.to_json_dict()

    def test_meta_counts_runs_and_failures(self):
        report = _report()
        assert report.meta["n_runs"] == 2
        assert report.meta["n_failures"] == 1
        assert report.meta["processes"] == 2


class TestSerialisation:
    def test_jsonl_round_trip(self, tmp_path):
        report = _report()
        path = report.save(tmp_path / "report.jsonl")
        loaded = SweepReport.load(path)
        assert loaded.meta == report.meta
        assert loaded.counters == report.counters
        assert loaded.runs == report.runs
        assert loaded.failures == report.failures

    def test_report_with_span_tables_still_loads(self, tmp_path):
        # Reports written before span tables were dropped carry a
        # ``spans`` key in the head line and in each run record.
        path = _report().save(tmp_path / "report.jsonl")
        lines = path.read_text().splitlines()
        head = json.loads(lines[0])
        head["spans"] = {"run.total": [2.0, 2]}
        lines[0] = json.dumps(head)
        path.write_text("\n".join(lines) + "\n")
        loaded = SweepReport.load(path)
        assert loaded.counters == _report().counters
        assert "spans" not in loaded.to_json_dict()

    def test_json_dict_round_trip(self):
        report = _report()
        clone = SweepReport.from_json_dict(report.to_json_dict())
        assert clone.counters == report.counters
        assert clone.runs == report.runs


class TestRender:
    def test_render_names_runs_and_failures(self):
        text = _report().render()
        assert "gzip.Hyb.s0.aaaa" in text
        assert "engine.trigger_crossings" in text
        assert "1.5000" in text  # the gzip run's wall_s
        assert "SimulationError" in text

    def test_empty_report_renders_meta_only(self):
        text = SweepReport.build([]).render()
        assert "n_runs" in text


class TestPrometheus:
    def test_report_export_contains_counters(self):
        text = _report().prometheus_text()
        assert "repro_engine_trigger_crossings 4" in text
        assert "repro_sweep_retries 2" in text
        assert "span" not in text

    def test_registry_export_histogram_is_cumulative(self):
        registry = MetricsRegistry()
        histogram = registry.histogram("h.x", bounds=(1.0, 10.0))
        for value in (0.5, 5.0, 100.0):
            histogram.observe(value)
        text = prometheus_text(registry=registry)
        assert 'repro_h_x_bucket{le="1"} 1' in text
        assert 'repro_h_x_bucket{le="10"} 2' in text
        assert 'repro_h_x_bucket{le="+Inf"} 3' in text
        assert "repro_h_x_count 3" in text
        assert "repro_h_x_sum 105.5" in text

    def test_counter_and_gauge_export(self):
        registry = MetricsRegistry()
        registry.counter("c.x").inc(2)
        registry.gauge("g.x").set(-1.5)
        text = prometheus_text(registry=registry)
        assert "# TYPE repro_c_x counter" in text
        assert "repro_c_x 2" in text
        assert "# TYPE repro_g_x gauge" in text
        assert "repro_g_x -1.5" in text
