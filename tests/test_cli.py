"""Command-line interface."""

import importlib
from pathlib import Path

import pytest

import repro
from repro.cli import build_parser, main
from repro.obs import metrics as obs_metrics

BENCH_DIR = Path(repro.__file__).resolve().parents[2] / "benchmarks"


class TestParser:
    def test_requires_a_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_run_requires_benchmark_and_policy(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["run", "--benchmark", "gzip"])

    def test_rejects_unknown_benchmark(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(
                ["run", "--benchmark", "specjbb", "--policy", "Hyb"]
            )

    def test_rejects_unknown_policy(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(
                ["run", "--benchmark", "gzip", "--policy", "dvs"]
            )

    def test_defaults(self):
        args = build_parser().parse_args(
            ["run", "--benchmark", "gzip", "--policy", "Hyb"]
        )
        assert args.instructions == 20_000_000
        assert args.dvs_mode == "stall"


class TestCommands:
    def test_list(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        assert "gzip" in out and "PI-Hyb" in out

    def test_run_protected_benchmark_exits_zero(self, capsys):
        code = main([
            "run", "--benchmark", "mesa", "--policy", "Hyb",
            "--instructions", "2000000",
        ])
        out = capsys.readouterr().out
        assert code == 0
        assert "slowdown_factor" in out

    def test_run_unmanaged_hot_benchmark_exits_nonzero(self, capsys):
        code = main([
            "run", "--benchmark", "crafty", "--policy", "none",
            "--instructions", "2000000",
        ])
        capsys.readouterr()
        assert code == 1  # violations occurred

    def test_sweep(self, capsys):
        code = main([
            "sweep", "--duty-cycles", "20", "3",
            "--instructions", "1000000",
        ])
        out = capsys.readouterr().out
        assert code == 0
        assert "best duty cycle" in out

    def test_characterise(self, capsys):
        code = main(["characterise", "--instructions", "1000000"])
        out = capsys.readouterr().out
        assert code == 0
        assert "IntReg" in out

    def test_evaluate_subset(self, capsys):
        code = main([
            "evaluate", "--techniques", "DVS",
            "--instructions", "1000000",
        ])
        out = capsys.readouterr().out
        assert code == 0
        assert "DVS" in out


class TestBench:
    """The ``bench`` subcommand (harness + per-layer trace + cProfile)."""

    def test_parses_flags(self):
        args = build_parser().parse_args(
            ["bench", "--profile", "--only", "fig3b", "--profile-limit", "5"]
        )
        assert args.command == "bench"
        assert args.profile
        assert args.only == ["fig3b"]
        assert args.profile_limit == 5

    @pytest.fixture()
    def _sandboxed_harness(self, monkeypatch, tmp_path):
        """Run the real harness at a tiny budget without clobbering the
        committed result tables or JSON baseline."""
        monkeypatch.setenv("REPRO_BENCH_INSTRUCTIONS", "120000")
        monkeypatch.syspath_prepend(str(BENCH_DIR))
        helpers = importlib.import_module("_helpers")
        run_all = importlib.import_module("run_all")
        monkeypatch.setattr(helpers, "RESULTS_DIR", tmp_path / "results")
        monkeypatch.setattr(
            run_all, "DEFAULT_JSON_PATH", tmp_path / "results.json"
        )
        yield run_all

    def test_bench_prints_layer_breakdown(
        self, capsys, _sandboxed_harness
    ):
        obs_before = obs_metrics.enabled()
        code = main([
            "bench", "--only", "fig3b", "--profile", "--profile-limit", "3",
        ])
        out = capsys.readouterr().out
        assert code == 0
        # The trace is outside-in: the command leaves the observability
        # switch alone.
        assert obs_metrics.enabled() == obs_before
        table = out.split("per-layer self time (outside-in trace)\n", 1)[1]
        lines = table.splitlines()
        assert lines[0].split() == ["layer", "self", "s", "calls", "%", "wall"]
        rows = {}
        for line in lines[2:]:
            if line.startswith("[traced wall: "):
                wall = float(line.split()[2])
                break
            cells = line.split()
            rows[cells[0]] = float(cells[1])
        for layer in ("engine", "kernel", "sensors", "dtm", "uarch", "power",
                      "unattributed"):
            assert layer in rows, layer
        # Self times plus the unattributed remainder are the traced
        # wall, to the printed four decimals.
        assert sum(rows.values()) == pytest.approx(
            wall, abs=0.5e-4 * (len(rows) + 1)
        )
        assert "cProfile" in out

    def test_run_all_json_writes_the_summary_only(
        self, capsys, tmp_path, _sandboxed_harness
    ):
        import json

        run_all = _sandboxed_harness
        code = run_all.main(["--only", "fig3b", "--json"])
        capsys.readouterr()
        assert code == 0
        summary = json.loads(run_all.DEFAULT_JSON_PATH.read_text())
        assert [r["bench"] for r in summary["benches"]] == ["fig3b"]
        assert summary["config"]["instructions"] == 120000
        # No throughput history is appended anywhere.
        assert sorted(p.name for p in tmp_path.iterdir()) == [
            "results", "results.json",
        ]


class TestReport:
    """The ``report`` subcommand and ``batch --report``."""

    @pytest.fixture()
    def _obs(self, tmp_path, monkeypatch):
        import repro.obs as obs
        from repro.obs.metrics import OBS_DIR_ENV

        monkeypatch.setenv(OBS_DIR_ENV, str(tmp_path))
        obs.reset_for_testing()
        previous = obs.set_enabled(True)
        yield tmp_path
        obs.set_enabled(previous)
        obs.reset_for_testing()

    def test_report_requires_some_input(self, capsys):
        assert main(["report"]) == 2
        assert "sweep-report path" in capsys.readouterr().err

    def test_batch_report_needs_obs_enabled(self, tmp_path, capsys):
        import repro.obs as obs

        previous = obs.set_enabled(False)
        try:
            code = main([
                "batch", "--benchmarks", "gzip", "--policies", "FG",
                "--instructions", "1000000",
                "--report", str(tmp_path / "report.jsonl"),
            ])
        finally:
            obs.set_enabled(previous)
        assert code == 2
        assert "REPRO_OBS" in capsys.readouterr().err

    def test_batch_report_then_render_and_validate(
        self, _obs, tmp_path, capsys
    ):
        report_path = tmp_path / "report.jsonl"
        code = main([
            "batch", "--benchmarks", "gzip", "--policies", "FG",
            "--instructions", "1000000", "--report", str(report_path),
        ])
        assert code == 0
        assert report_path.exists()
        capsys.readouterr()

        events = sorted(Path(_obs).glob("events-*.jsonl"))
        assert events
        code = main([
            "report", str(report_path), "--events",
            *(str(p) for p in events),
        ])
        out = capsys.readouterr().out
        assert code == 0
        assert "all valid" in out
        assert "engine.trigger_crossings" in out

        code = main(["report", str(report_path), "--prometheus"])
        out = capsys.readouterr().out
        assert code == 0
        assert "repro_engine_runs 1" in out
