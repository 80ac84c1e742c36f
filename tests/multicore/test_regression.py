"""Dual-core regression pack.

Pins the correctness properties of the multicore path: hop-stall
accounting (the seed bug), swap determinism under fixed seeds,
violation counting at the emergency threshold, instruction
conservation across swaps, and fault/guard behavior on the ported
stack.
"""

import pytest

from repro.dtm.base import DtmCommand, DtmPolicy
from repro.dtm.thresholds import ThermalThresholds
from repro.errors import NumericalError, ThermalViolationError
from repro.multicore import (
    CoreHopper,
    DualCoreRunSpec,
    HoppingConfig,
    MultiCoreEngine,
)
from repro.sim.config import EngineConfig
from repro.sim.contract import service_request
from repro.sim.faults import FaultPlan
from repro.workloads import build_benchmark

DURATION = 2.0e-3
SETTLE = 0.5e-3


class ConstantPolicy(DtmPolicy):
    """Holds one command forever: the accounting oracle.

    With a constant gating fraction g and a constant voltage, every
    correctly-accounted interval contributes exactly g to the mean
    gating fraction and (when the voltage is low) its full length to
    ``dvs_low_time_s`` -- so both statistics are known in closed form
    regardless of how many hop stalls the run contains.
    """

    def __init__(self, voltage: float, gating: float = 0.0):
        self._voltage = voltage
        self._gating = gating

    @property
    def name(self) -> str:
        return f"const(g={self._gating},v={self._voltage})"

    def update(self, readings, time_s, dt_s):
        return DtmCommand(
            gating_fraction=self._gating, voltage=self._voltage
        )

    def reset(self) -> None:
        pass


@pytest.fixture(scope="module")
def pair():
    return [build_benchmark("crafty"), build_benchmark("mesa")]


def _eager_hopper():
    """A hopper that swaps at every opportunity: trigger far below the
    operating point, no neighbour margin, short refractory period."""
    thresholds = ThermalThresholds(
        emergency_c=200.0, practical_limit_c=150.0, trigger_c=40.0
    )
    return CoreHopper(
        HoppingConfig(neighbour_margin_c=0.0, min_interval_s=1.0e-4),
        thresholds=thresholds,
    )


class TestHopStallAccounting:
    """Seed bug: a swap advanced ``time_s`` by the hop stall but skipped
    the energy / dvs-low / gating accumulators for that interval, while
    ``elapsed`` included it -- biasing every time-averaged statistic low
    on hop-heavy runs."""

    def test_gating_fraction_survives_hop_stalls(self, pair):
        engine = MultiCoreEngine(
            pair,
            policies=[
                ConstantPolicy(1.3, gating=0.5),
                ConstantPolicy(1.3, gating=0.5),
            ],
            hopper=_eager_hopper(),
        )
        init = engine.compute_initial_temperatures()
        result = engine.run(DURATION, initial=init, settle_time_s=SETTLE)
        assert result.swaps > 3  # the scenario must actually hop
        for core in result.cores:
            assert core.mean_gating_fraction == pytest.approx(0.5, abs=1e-9)

    def test_dvs_low_time_covers_hop_stalls(self, pair):
        low_v = 1.3 * 0.9
        engine = MultiCoreEngine(
            pair,
            policies=[ConstantPolicy(low_v), ConstantPolicy(low_v)],
            hopper=_eager_hopper(),
        )
        init = engine.compute_initial_temperatures()
        result = engine.run(DURATION, initial=init, settle_time_s=SETTLE)
        assert result.swaps > 3
        # The chip runs below nominal for the entire measured window,
        # hop stalls included.
        assert result.dvs_low_time_s == pytest.approx(
            result.duration_s, rel=1e-9
        )

    def test_stall_time_is_accounted_and_bounded(self, pair):
        engine = MultiCoreEngine(pair, hopper=_eager_hopper())
        init = engine.compute_initial_temperatures()
        result = engine.run(DURATION, initial=init, settle_time_s=SETTLE)
        assert result.swaps > 0
        assert result.stall_time_s > 0.0
        assert result.stall_time_s < result.duration_s


def _canon(result):
    return result.to_json_dict()


class TestSwapDeterminism:
    def test_identical_runs_are_bit_identical(self, pair):
        def run_once():
            engine = MultiCoreEngine(pair, hopper=_eager_hopper(), seed=7)
            init = engine.compute_initial_temperatures()
            return engine.run(DURATION, initial=init, settle_time_s=SETTLE)

        first = run_once()
        second = run_once()
        assert first.swaps > 0
        assert _canon(first) == _canon(second)

    def test_reset_replays_swaps_exactly(self, pair):
        engine = MultiCoreEngine(pair, hopper=_eager_hopper(), seed=7)
        init = engine.compute_initial_temperatures()
        first = engine.run(DURATION, initial=init.copy(), settle_time_s=SETTLE)
        engine.reset()
        second = engine.run(DURATION, initial=init.copy(), settle_time_s=SETTLE)
        assert first.swaps > 0
        assert _canon(first) == _canon(second)


class TestViolationCounting:
    def test_emergency_below_operating_point_counts_every_step(self, pair):
        # An emergency threshold pinned below the die's operating point
        # must flag every measured step.
        thresholds = ThermalThresholds(
            emergency_c=40.0, practical_limit_c=35.0, trigger_c=30.0
        )
        engine = MultiCoreEngine(pair, thresholds=thresholds)
        init = engine.compute_initial_temperatures()
        result = engine.run(DURATION, initial=init, settle_time_s=SETTLE)
        assert result.violations > 0
        assert not result.violation_free
        assert result.max_true_temp_c > 40.0

    def test_emergency_above_operating_point_counts_none(self, pair):
        thresholds = ThermalThresholds(
            emergency_c=500.0, practical_limit_c=400.0, trigger_c=300.0
        )
        engine = MultiCoreEngine(pair, thresholds=thresholds)
        init = engine.compute_initial_temperatures()
        result = engine.run(DURATION, initial=init, settle_time_s=SETTLE)
        assert result.violations == 0
        assert result.violation_free

    def test_raise_on_violation_aborts_the_run(self, pair):
        thresholds = ThermalThresholds(
            emergency_c=40.0, practical_limit_c=35.0, trigger_c=30.0
        )
        engine = MultiCoreEngine(
            pair,
            thresholds=thresholds,
            config=EngineConfig(raise_on_violation=True),
        )
        init = engine.compute_initial_temperatures()
        with pytest.raises(ThermalViolationError):
            engine.run(DURATION, initial=init, settle_time_s=SETTLE)


    def test_violation_time_is_the_violating_step_end(self, pair):
        # Regression: the engine accounted a step before advancing its
        # clock, so a violation was reported at the *start* of the step
        # whose end temperatures tripped it -- one step early.
        thresholds = ThermalThresholds(
            emergency_c=40.0, practical_limit_c=35.0, trigger_c=30.0
        )
        engine = MultiCoreEngine(
            pair,
            thresholds=thresholds,
            config=EngineConfig(raise_on_violation=True),
        )
        steps = engine.iter_run(
            DURATION, initial=engine.compute_initial_temperatures()
        )
        served = []
        reply = None
        with pytest.raises(ThermalViolationError) as excinfo:
            while True:
                request = steps.send(reply)
                served.append(request)
                reply = service_request(request)
        dts = {dt for _solver, _power, dt, _count in served}
        assert len(dts) == 1  # fixed frequency: every step is one dt
        assert all(count == 1 for *_, count in served)
        assert excinfo.value.time_s == len(served) * dts.pop()


class TestInstructionConservation:
    def test_each_workload_appears_once_despite_swaps(self, pair):
        engine = MultiCoreEngine(pair, hopper=_eager_hopper())
        init = engine.compute_initial_temperatures()
        result = engine.run(DURATION, initial=init, settle_time_s=SETTLE)
        assert result.swaps > 0
        names = sorted(core.workload for core in result.cores)
        assert names == sorted(w.name for w in pair)

    def test_total_is_the_sum_of_per_core_work(self, pair):
        engine = MultiCoreEngine(pair, hopper=_eager_hopper())
        init = engine.compute_initial_temperatures()
        result = engine.run(DURATION, initial=init, settle_time_s=SETTLE)
        assert result.total_instructions == pytest.approx(
            sum(core.instructions for core in result.cores)
        )
        assert all(core.instructions > 0.0 for core in result.cores)

    def test_swaps_do_not_create_work(self, pair):
        # A hop-heavy run must commit no more work than an undisturbed
        # one: swaps only cost (stall) time.
        init = MultiCoreEngine(pair).compute_initial_temperatures()
        still = MultiCoreEngine(pair).run(
            DURATION, initial=init.copy(), settle_time_s=SETTLE
        )
        hoppy = MultiCoreEngine(pair, hopper=_eager_hopper()).run(
            DURATION, initial=init.copy(), settle_time_s=SETTLE
        )
        assert hoppy.swaps > 0
        assert hoppy.total_instructions < still.total_instructions


class TestFaultInjection:
    def test_corrupt_power_trips_numerical_guards(self, pair):
        config = EngineConfig(
            fault_plan=FaultPlan(corrupt_power_at_step=5)
        )
        engine = MultiCoreEngine(pair, config=config)
        init = MultiCoreEngine(pair).compute_initial_temperatures()
        with pytest.raises(NumericalError):
            engine.run(DURATION, initial=init, settle_time_s=SETTLE)

    def test_plan_targeting_another_seed_is_inert(self, pair):
        config = EngineConfig(
            fault_plan=FaultPlan(seeds=(99,), corrupt_power_at_step=5)
        )
        init = MultiCoreEngine(pair).compute_initial_temperatures()
        faulted = MultiCoreEngine(pair, config=config, seed=0).run(
            DURATION, initial=init.copy(), settle_time_s=SETTLE
        )
        clean = MultiCoreEngine(pair, seed=0).run(
            DURATION, initial=init.copy(), settle_time_s=SETTLE
        )
        assert _canon(faulted) == _canon(clean)

    def test_sensor_faults_degrade_targeted_runs(self, pair):
        from repro.sensors.faults import SensorFault

        config = EngineConfig(
            fault_plan=FaultPlan(
                sensor_faults=(SensorFault.stuck("IntReg#0", 40.0),)
            )
        )
        engine = MultiCoreEngine(pair, config=config, seed=0)
        assert not engine._sensors.vector_eligible
        init = engine.compute_initial_temperatures()
        result = engine.run(DURATION, initial=init, settle_time_s=SETTLE)
        assert result.duration_s > 0.0


class TestSweepIntegration:
    """Acceptance: dual-core runs flow through ``run_many`` with
    supervision (retries) and land in the sweep report."""

    def test_retry_heals_transient_corruption(self):
        faulty = DualCoreRunSpec(
            workloads=("crafty", "mesa"),
            duration_s=1.0e-3,
            engine_config=EngineConfig(
                fault_plan=FaultPlan(corrupt_power_at_step=5)
            ),
        )
        clean = DualCoreRunSpec(
            workloads=("crafty", "mesa"), duration_s=1.0e-3
        )
        from repro.sim.batch import run_many

        healed = run_many([faulty], retries=1, backoff_s=0.0)
        reference = run_many([clean])
        assert _canon(healed[0]) == _canon(reference[0])

    def test_dual_core_sweep_produces_a_report(self, tmp_path, monkeypatch):
        import repro.obs as obs
        from repro.obs import metrics as obs_metrics
        from repro.sim.batch import last_sweep_report, run_many

        monkeypatch.setenv(obs_metrics.OBS_DIR_ENV, str(tmp_path))
        obs.reset_for_testing()
        previous = obs.set_enabled(True)
        try:
            specs = [
                DualCoreRunSpec(
                    workloads=("crafty", "mesa"),
                    duration_s=0.5e-3,
                    seed=seed,
                )
                for seed in range(2)
            ]
            results = run_many(specs, retries=1)
            assert all(r.total_instructions > 0 for r in results)
            report = last_sweep_report()
            assert report is not None
            assert report.meta["n_specs"] == 2
            assert report.counters["engine.runs"] == 2.0
            assert report.counters["multicore.swaps"] >= 0.0
            assert len({run["run_id"] for run in report.runs}) == 2
        finally:
            obs.set_enabled(previous)
            obs.reset_for_testing()
