"""The sensor cadence of fused runs.

Both engines run each sensor period -- the step right after the sample
included -- as one fused :class:`~repro.sim.kernel.DenseSpanTask`,
sized so that it ends exactly where the per-step path's next sample
fires.  A fused run and its per-step twin (the private
``repro.sim.engine._FUSE_DENSE_SPANS`` seam switched off) must record
the same result and take their sensor samples at the same clock values:
across the A9 dual-core grid (hop stalls and DVS switches included),
behind single-core stalls (a DVS switch, a migration flush) that
directly precede a span, and when the instruction budget ends in the
first step after a sample.
"""

from functools import partial

import pytest

from repro.dtm import DvsPolicy, FetchGatingPolicy, HybPolicy, MigrationPolicy
from repro.dtm.dvs import DvsConfig
from repro.dtm.thresholds import ThermalThresholds
from repro.multicore import CoreHopper, MultiCoreEngine
from repro.multicore.batch import dual_core_steady_state
from repro.obs import metrics as obs_metrics
from repro.sim import EngineConfig, SimulationEngine
from repro.sim import engine as engine_module
from repro.sim.kernel import ChipStep, DenseSpanTask
from repro.workloads import build_benchmark
from tests.conftest import short_phase_workload

PAIRS = (("crafty", "mesa"), ("crafty", "gcc"), ("gzip", "eon"))
MANAGERS = ("none", "Hyb/core", "hopping", "hop+Hyb")


def _observe(run, fuse):
    """``run()`` on one path: its JSON record, the clock of every
    sensor sample, the ``engine.sensor_samples`` counter and the step
    count of every fused span."""
    times, spans = [], []
    due = ChipStep.sample_due
    task_run = DenseSpanTask.run

    def recording_due(chip):
        if due(chip):
            times.append(chip.time_s)
            return True
        return False

    def counting_run(task, solver):
        spans.append(task.count)
        return task_run(task, solver)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(engine_module, "_FUSE_DENSE_SPANS", fuse)
        patch.setattr(ChipStep, "sample_due", recording_due)
        patch.setattr(DenseSpanTask, "run", counting_run)
        previous = obs_metrics.set_enabled(True)
        try:
            counter = obs_metrics.REGISTRY.counter("engine.sensor_samples")
            before = counter.value
            result = run()
            samples = counter.value - before
        finally:
            obs_metrics.set_enabled(previous)
    return result, times, samples, spans


def _assert_same_cadence(run):
    """Fused and per-step runs agree; returns the fused result and its
    span step counts."""
    fused, fused_times, fused_samples, spans = _observe(run, True)
    anchor, anchor_times, anchor_samples, _ = _observe(run, False)
    assert fused.to_json_dict() == anchor.to_json_dict()
    assert fused_samples == anchor_samples == len(anchor_times)
    assert fused_times == anchor_times
    # Not vacuous: the fused run took its periods as spans.
    assert spans
    return fused, spans


class TestDualCore:
    @pytest.mark.parametrize("manager", MANAGERS)
    @pytest.mark.parametrize("pair", PAIRS, ids="+".join)
    def test_a9_grid(self, pair, manager):
        initial = dual_core_steady_state(pair)

        def run():
            engine = MultiCoreEngine(
                [build_benchmark(name) for name in pair],
                policies=(
                    [HybPolicy(), HybPolicy()] if "Hyb" in manager else None
                ),
                hopper=CoreHopper() if manager.startswith("hop") else None,
            )
            return engine.run(1.5e-3, initial=initial, settle_time_s=0.5e-3)

        fused, spans = _assert_same_cadence(run)
        # One span per sample: every period is at least two steps long.
        assert all(count >= 2 for count in spans)

    def test_grid_swaps_and_switches(self):
        # The grid covers a hop stall right before a span and a DVS
        # switch moving the step length between spans.
        pair = PAIRS[0]
        engine = MultiCoreEngine(
            [build_benchmark(name) for name in pair],
            policies=[HybPolicy(), HybPolicy()],
            hopper=CoreHopper(),
        )
        result = engine.run(
            1.5e-3,
            initial=dual_core_steady_state(pair),
            settle_time_s=0.5e-3,
        )
        assert result.swaps > 0
        assert result.dvs_low_time_s > 0.0


def _single(
    workload, policy, instructions, settle_s=2.0e-4, offset_c=0.0, **kwargs
):
    kwargs.setdefault("dvs_mode", "stall")

    def run():
        engine = SimulationEngine(
            workload,
            policy=policy(),
            config=EngineConfig(fast_forward=False, **kwargs),
            seed=3,
        )
        initial = engine.compute_initial_temperatures() + offset_c
        return engine.run(
            instructions, initial=initial, settle_time_s=settle_s
        )

    return run


class TestSingleCore:
    @pytest.mark.parametrize("dvs_mode", ["stall", "ideal"])
    @pytest.mark.parametrize("short", [False, True], ids=["spec", "short"])
    def test_dvs_switches(self, short, dvs_mode):
        # A deep low voltage and a start below the steady state make the
        # comparator switch down and back up inside the window.  In
        # stall mode each switch stalls at its sample, right before the
        # period's span; in ideal mode the switch is pending until
        # 10 us after the sample, so that period keeps plain steps.
        workload = short_phase_workload("gzip") if short else (
            build_benchmark("gzip")
        )
        policy = partial(DvsPolicy, DvsConfig(v_low_ratio=0.6))
        fused, _ = _assert_same_cadence(
            _single(
                workload, policy, 6_000_000, offset_c=-2.0,
                dvs_mode=dvs_mode,
            )
        )
        assert fused.dvs_switches >= 2
        assert (fused.stall_time_s > 0.0) == (dvs_mode == "stall")

    def test_migration_stall_precedes_span(self):
        from repro.floorplan import build_migration_floorplan
        from repro.power import PowerModel, migration_power_specs

        floorplan = build_migration_floorplan()
        power = PowerModel(floorplan, specs=migration_power_specs())
        # A trigger below IntReg's peak, so the policy migrates.
        thresholds = ThermalThresholds(
            trigger_c=80.0, practical_limit_c=81.0, emergency_c=83.0
        )

        def run():
            engine = SimulationEngine(
                short_phase_workload("crafty"),
                policy=MigrationPolicy(thresholds=thresholds),
                floorplan=floorplan,
                power_model=power,
                config=EngineConfig(fast_forward=False, dvs_mode="stall"),
                seed=3,
            )
            return engine.run(
                4_000_000,
                initial=engine.compute_initial_temperatures(),
                settle_time_s=2.0e-3,
            )

        fused, _ = _assert_same_cadence(run)
        assert fused.migrations > 0 and fused.stall_time_s > 0.0

    def test_budget_ends_in_first_step_after_a_sample(self):
        workload = build_benchmark("gcc")
        # A per-step trace of a longer run gives the instructions
        # committed by the end of every step; the budget then ends
        # halfway through the first step after the third sample.
        traced = _single(
            workload, FetchGatingPolicy, 2_000_000, settle_s=0.0,
            record_trace=True,
        )
        result, times, _, _ = _observe(traced, True)
        points = result.trace
        ends = [point.time_s for point in points]
        head = ends.index(times[2]) + 1
        budget = 0.5 * (
            points[head - 1].instructions + points[head].instructions
        )
        fused, spans = _assert_same_cadence(
            _single(workload, FetchGatingPolicy, budget, settle_s=0.0)
        )
        assert fused.instructions == budget
        # The run stops inside the first step of the span that starts
        # at that sample.
        assert len(spans) == 3
        assert points[head - 1].time_s < fused.elapsed_s < points[head].time_s
