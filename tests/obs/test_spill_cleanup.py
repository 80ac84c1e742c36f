"""Spill-file lifecycle: temp-dir default and post-merge cleanup.

Two regressions pinned here: the obs output directory used to default
to ``obs/`` under the CWD, littering every working copy with
``events-*.jsonl`` files; and worker spill files were never removed
after ``run_many`` merged them, so they grew for the life of the
directory.
"""

from __future__ import annotations

import os
import tempfile
from pathlib import Path

import repro.obs as obs
from repro.obs import metrics as obs_metrics
from repro.obs import spill as obs_spill
from repro.sim import RunSpec, run_many
from repro.sim.batch import last_sweep_report

FAST_N = 1_500_000


class TestDefaultDirectory:
    def test_default_is_a_temp_dir_not_cwd(self, monkeypatch):
        monkeypatch.delenv(obs_metrics.OBS_DIR_ENV, raising=False)
        obs_metrics.reset_default_dir_for_testing()
        try:
            path = obs_metrics.obs_dir()
            assert path.is_dir()
            assert str(path) != "obs"
            assert Path(tempfile.gettempdir()) in path.parents
            # Stable across calls: workers forked later must agree.
            assert obs_metrics.obs_dir() == path
        finally:
            obs_metrics.reset_default_dir_for_testing()
        assert not path.exists()

    def test_env_override_wins(self, monkeypatch, tmp_path):
        monkeypatch.setenv(obs_metrics.OBS_DIR_ENV, str(tmp_path / "mine"))
        assert obs_metrics.obs_dir() == tmp_path / "mine"


class TestDiscardMerged:
    def test_dead_writer_files_are_unlinked(self, obs_on):
        # A pid that cannot be a live process on Linux.
        dead = obs_on / "spill-4000000.jsonl"
        dead.write_text('{"run_id": "stale"}\n')
        obs_spill.discard_merged()
        assert not dead.exists()

    def test_live_writer_files_are_truncated_not_unlinked(self, obs_on):
        live = obs_on / f"spill-{os.getpid()}.jsonl"
        live.write_text('{"run_id": "merged"}\n')
        obs_spill.discard_merged()
        assert live.exists()
        assert live.stat().st_size == 0

    def test_pooled_sweep_leaves_no_spill_records_behind(self, obs_on):
        specs = [
            RunSpec("gzip", "FG", instructions=FAST_N, seed=s)
            for s in range(2)
        ]
        run_many(specs, processes=2)
        report = last_sweep_report()
        assert report is not None and len(report.runs) == 2
        leftover = [
            path
            for path in obs_on.glob("spill-*.jsonl")
            if path.stat().st_size > 0
        ]
        assert leftover == []

    def test_consecutive_sweeps_do_not_double_count(self, obs_on):
        specs = [RunSpec("gzip", "FG", instructions=FAST_N)]
        run_many(specs, processes=2)
        first = last_sweep_report()
        run_many(specs, processes=2)
        second = last_sweep_report()
        assert len(first.runs) == 1
        assert len(second.runs) == 1
