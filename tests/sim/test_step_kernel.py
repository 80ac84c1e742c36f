"""Fused step kernel, its shared accounting stage and stride edge cases.

The fused kernel executes decision-free dense spans inside the engine's
frame instead of yielding one request per step; its claim is
*bit-identity* with the per-step path (reached here by switching the
engine's private ``_FUSE_DENSE_SPANS`` seam off), because it runs the
same float operations on the same operands in the same order.  The
event-driven stride replaces dense spans with
closed-form jumps whose claim is threshold safety: no trigger or
emergency crossing is ever skipped or invented, even when the
trajectory grazes a threshold exactly.  Both claims are pinned here,
across every benchmark scenario.
"""

from dataclasses import asdict

import numpy as np
import pytest

from repro.dtm import (
    ClockGatingPolicy,
    DvsPolicy,
    FetchGatingPolicy,
    HybPolicy,
    LocalTogglingPolicy,
    MigrationPolicy,
    NoDtmPolicy,
)
from repro.dtm.thresholds import ThermalThresholds
from repro.errors import NumericalError, ThermalViolationError
from repro.floorplan.alpha21364 import build_alpha21364_floorplan
from repro.power.model import PowerModel
from repro.sensors.array import SensorArray
from repro.sensors.faults import SensorFault
from repro.sim import EngineConfig, SimulationEngine
from repro.sim import engine as engine_module
from repro.sim.faults import FaultPlan
from repro.sim.kernel import ChipStep, DenseSpanTask
from repro.thermal import ExponentialSolver
from repro.thermal.hotspot import HotSpotModel
from repro.thermal.solver import _dt_key
from repro.workloads import build_benchmark
from repro.workloads.compiler import CompiledIntervalModel
from repro.workloads.spec import SPEC_BENCHMARK_NAMES
from tests.conftest import short_phase_workload

FAST_N = 800_000


@pytest.fixture(scope="module")
def gcc():
    return build_benchmark("gcc")


def _run(
    workload,
    policy_factory=FetchGatingPolicy,
    instructions=FAST_N,
    thresholds=None,
    initial_offset_c=None,
    **config_kwargs,
):
    engine = SimulationEngine(
        workload,
        policy=policy_factory(),
        config=EngineConfig(**config_kwargs),
        thresholds=thresholds,
        seed=3,
    )
    init = engine.compute_initial_temperatures()
    if initial_offset_c is not None:
        init = init + initial_offset_c
    return engine.run(instructions, initial=init, settle_time_s=2.0e-4)


def _run_per_step(monkeypatch, workload, **kwargs):
    """:func:`_run` with fused dense spans switched off."""
    with monkeypatch.context() as patch:
        patch.setattr(engine_module, "_FUSE_DENSE_SPANS", False)
        return _run(workload, **kwargs)


def _assert_bit_identical(result, anchor):
    got, want = asdict(result), asdict(anchor)
    for field in want:
        assert got[field] == want[field], field


class TestKernelBitIdentity:
    """Fused dense spans == the per-step path, float for float."""

    @pytest.mark.parametrize("bench_name", SPEC_BENCHMARK_NAMES)
    @pytest.mark.parametrize(
        "policy", [FetchGatingPolicy, HybPolicy], ids=lambda cls: cls.__name__
    )
    def test_matches_anchor_dense(self, bench_name, policy, monkeypatch):
        # fast_forward off forces every span through the dense path, so
        # the kernel executes essentially the whole run.  Hyb's DVS half
        # also moves the operating point between spans.
        workload = build_benchmark(bench_name)
        kwargs = dict(policy_factory=policy, fast_forward=False)
        fused = _run(workload, **kwargs)
        anchor = _run_per_step(monkeypatch, workload, **kwargs)
        _assert_bit_identical(fused, anchor)

    def test_matches_anchor_with_stride_enabled(self, gcc, monkeypatch):
        # With the stride on, the kernel only covers the dense residue
        # (rejected spans, settle lead-in); decisions are unchanged, so
        # identity still holds bit for bit.
        fused = _run(gcc, fast_forward=True)
        anchor = _run_per_step(monkeypatch, gcc, fast_forward=True)
        _assert_bit_identical(fused, anchor)

    def test_matches_anchor_under_sensor_faults(self, gcc, monkeypatch):
        # Plant-level sensor degradation changes the control trajectory
        # but not the kernel's equivalence claim.
        from repro.floorplan.alpha21364 import build_alpha21364_floorplan

        block = build_alpha21364_floorplan().block_names[0]
        plan = FaultPlan(sensor_faults=(SensorFault.stuck(block, 70.0),))
        kwargs = dict(fast_forward=False, fault_plan=plan)
        fused = _run(gcc, **kwargs)
        anchor = _run_per_step(monkeypatch, gcc, **kwargs)
        _assert_bit_identical(fused, anchor)

    def test_power_corruption_raises_identically(self, gcc, monkeypatch):
        # A poisoned power vector trips the solver health guard the same
        # way on both paths (the kernel is disabled under corruption
        # faults, so both runs step densely through the contract).
        plan = FaultPlan(corrupt_power_at_step=5)
        kwargs = dict(fast_forward=False, fault_plan=plan)
        with pytest.raises(NumericalError):
            _run(gcc, **kwargs)
        with pytest.raises(NumericalError):
            _run_per_step(monkeypatch, gcc, **kwargs)

    def test_kernel_actually_engages(self, gcc, monkeypatch):
        # Guard against the identity tests passing vacuously.
        spans = []
        original = DenseSpanTask.run

        def counting(self, solver):
            spans.append(self.count)
            return original(self, solver)

        monkeypatch.setattr(DenseSpanTask, "run", counting)
        _run(gcc, fast_forward=False)
        assert spans, "no fused span executed in a dense run"
        assert all(count >= 2 for count in spans)

    def test_kernel_off_never_fuses(self, gcc, monkeypatch):
        spans = []
        original = DenseSpanTask.run

        def counting(self, solver):
            spans.append(self.count)
            return original(self, solver)

        monkeypatch.setattr(DenseSpanTask, "run", counting)
        _run_per_step(monkeypatch, gcc, fast_forward=False)
        assert not spans


def _count_advances(monkeypatch):
    calls = []
    original = CompiledIntervalModel.advance

    def counting(self, cycles, actuation):
        calls.append(cycles)
        return original(self, cycles, actuation)

    monkeypatch.setattr(CompiledIntervalModel, "advance", counting)
    return calls


class TestPhaseRunSpans:
    """Fused spans step phase runs; short phases put boundaries inside
    the spans, under every actuation kind (fetch gating, a global clock
    gate, a per-block clock-gate vector, DVS)."""

    POLICIES = (
        NoDtmPolicy,
        FetchGatingPolicy,
        ClockGatingPolicy,
        LocalTogglingPolicy,
        HybPolicy,
        DvsPolicy,
    )

    @pytest.mark.parametrize(
        "policy", POLICIES, ids=lambda cls: cls.__name__
    )
    @pytest.mark.parametrize("bench_name", ["gzip", "gcc"])
    def test_short_phases_match_anchor(self, bench_name, policy, monkeypatch):
        workload = short_phase_workload(bench_name)
        kwargs = dict(
            policy_factory=policy,
            instructions=4_000_000,
            fast_forward=False,
        )
        fused = _run(workload, **kwargs)
        anchor = _run_per_step(monkeypatch, workload, **kwargs)
        _assert_bit_identical(fused, anchor)

    def test_migration_matches_anchor(self, monkeypatch):
        # Migration rewrites the activity vector once per phase run.
        from repro.floorplan import build_migration_floorplan
        from repro.power import PowerModel, migration_power_specs

        floorplan = build_migration_floorplan()
        power = PowerModel(floorplan, specs=migration_power_specs())
        workload = short_phase_workload("crafty")
        # A trigger below IntReg's peak, so the policy migrates.
        thresholds = ThermalThresholds(
            trigger_c=80.0, practical_limit_c=81.0, emergency_c=83.0
        )

        def run():
            engine = SimulationEngine(
                workload,
                policy=MigrationPolicy(thresholds=thresholds),
                floorplan=floorplan,
                power_model=power,
                config=EngineConfig(fast_forward=False),
                seed=3,
            )
            return engine.run(
                4_000_000,
                initial=engine.compute_initial_temperatures(),
                settle_time_s=2.0e-3,
            )

        fused = run()
        with monkeypatch.context() as patch:
            patch.setattr(engine_module, "_FUSE_DENSE_SPANS", False)
            anchor = run()
        assert fused.migrations > 0
        _assert_bit_identical(fused, anchor)

    @pytest.mark.parametrize("short", [False, True], ids=["spec", "short"])
    def test_fused_runs_advance_per_run_not_per_step(
        self, gcc, short, monkeypatch
    ):
        # Guard against the identity tests passing vacuously: per step
        # the model advances every step, fused only on the unfused
        # steps and at the spans' phase boundaries.
        workload = short_phase_workload("gcc") if short else gcc
        kwargs = dict(instructions=8_000_000, fast_forward=False)
        with monkeypatch.context() as patch:
            per_step = _count_advances(patch)
            _run_per_step(patch, workload, **kwargs)
        with monkeypatch.context() as patch:
            fused = _count_advances(patch)
            _run(workload, **kwargs)
        assert len(fused) * (3 if short else 6) < len(per_step)


class TestStrideThresholdEdgeCases:
    """Event-driven jumps near the trigger and under perturbed starts."""

    EXACT = ("violations", "trigger_crossings", "hottest_block", "cycles")

    @pytest.mark.parametrize("bench_name", ["bzip2", "gcc", "mesa"])
    def test_stride_never_overshoots_instruction_budget(self, bench_name):
        # Regression: the jump's budget cap was sized with the *last*
        # dense sample's commit, which on a phase-boundary step is a
        # blend of two phases' rates; when IPC rises across the
        # boundary the span's clean rate overshot the budget (bzip2 at
        # 4M instructions committed 4,001,368).  The cap must use the
        # span's own per-interval rate so every run ends on the exact,
        # interpolated final step.
        budget = 4_000_000
        result = _run(
            build_benchmark(bench_name),
            policy_factory=NoDtmPolicy,
            instructions=budget,
            fast_forward=True,
        )
        assert result.instructions == budget

    def _thresholds_at(self, trigger_c):
        return ThermalThresholds(
            trigger_c=trigger_c,
            practical_limit_c=trigger_c + 0.2,
            emergency_c=trigger_c + 3.0,
        )

    def test_trajectory_peaking_exactly_at_trigger(self, gcc):
        # Place the trigger exactly at the unmanaged dense-run peak --
        # the one adversarial (measure-zero) choice where the stride's
        # documented ~1e-3 C trajectory tolerance can flip a strict
        # comparator.  The contract here is conservatism, not
        # bit-identity: the stride may disagree about the grazing touch
        # by at most one crossing and one decision interval of
        # above-trigger time, and must agree exactly on everything a
        # real threshold (with margin) would see.
        peak = _run(gcc, NoDtmPolicy, fast_forward=False).max_true_temp_c
        thresholds = self._thresholds_at(peak)
        jumped = _run(
            gcc, NoDtmPolicy, thresholds=thresholds, fast_forward=True
        )
        dense = _run(
            gcc, NoDtmPolicy, thresholds=thresholds, fast_forward=False
        )
        assert jumped.violations == dense.violations == 0
        assert jumped.hottest_block == dense.hottest_block
        assert jumped.cycles == dense.cycles
        assert abs(jumped.trigger_crossings - dense.trigger_crossings) <= 1
        assert abs(
            jumped.time_above_trigger_s - dense.time_above_trigger_s
        ) <= 5.0e-4
        assert jumped.max_true_temp_c == pytest.approx(
            dense.max_true_temp_c, abs=1e-3
        )

    def test_trigger_hair_below_peak_is_crossed_in_both_modes(self, gcc):
        # A trigger epsilon below the peak must be crossed -- the jump
        # envelope may not swallow the excursion.
        peak = _run(gcc, NoDtmPolicy, fast_forward=False).max_true_temp_c
        thresholds = self._thresholds_at(peak - 1.0e-6)
        jumped = _run(
            gcc, NoDtmPolicy, thresholds=thresholds, fast_forward=True
        )
        dense = _run(
            gcc, NoDtmPolicy, thresholds=thresholds, fast_forward=False
        )
        assert dense.time_above_trigger_s > 0.0
        for field in self.EXACT:
            assert getattr(jumped, field) == getattr(dense, field), field
        assert jumped.time_above_trigger_s == pytest.approx(
            dense.time_above_trigger_s, rel=1e-9, abs=1e-12
        )

    @pytest.mark.parametrize("offset_c", [5.0, -5.0])
    def test_drift_sign_flip_from_perturbed_start(self, gcc, offset_c):
        # Starting above (below) the steady state, leakage drifts down
        # (up) across every early span -- both drift directions, and the
        # sign flip as the trajectory settles, must close rigorously.
        jumped = _run(
            gcc,
            NoDtmPolicy,
            initial_offset_c=offset_c,
            fast_forward=True,
        )
        dense = _run(
            gcc,
            NoDtmPolicy,
            initial_offset_c=offset_c,
            fast_forward=False,
        )
        for field in self.EXACT:
            assert getattr(jumped, field) == getattr(dense, field), field
        assert jumped.max_true_temp_c == pytest.approx(
            dense.max_true_temp_c, abs=1e-3
        )
        assert jumped.elapsed_s == pytest.approx(
            dense.elapsed_s, rel=1e-9, abs=1e-12
        )

    def test_power_corruption_forces_dense_stepping(self, gcc, monkeypatch):
        # A fault-corrupted power vector must disqualify both the stride
        # and the fused kernel: the poisoned step has to execute (and
        # trip the health guard) densely, never inside a jump.
        jumps = []
        original = ExponentialSolver.fast_forward

        def counting(self, power, dt, steps, copy=True):
            jumps.append(steps)
            return original(self, power, dt, steps, copy=copy)

        monkeypatch.setattr(ExponentialSolver, "fast_forward", counting)

        spans = []
        run_original = DenseSpanTask.run

        def counting_run(self, solver):
            spans.append(self.count)
            return run_original(self, solver)

        monkeypatch.setattr(DenseSpanTask, "run", counting_run)
        plan = FaultPlan(corrupt_power_at_step=5)
        with pytest.raises(NumericalError):
            _run(gcc, fast_forward=True, fault_plan=plan)
        assert not jumps
        assert not spans


class TestOperatorCacheAudit:
    """Variable-stride spans must never alias cached operators."""

    def test_propagator_power_key_includes_stride(self, gcc):
        # (2dt, k) and (dt, 2k) describe the same span duration; a cache
        # keyed by span length alone would collide them.  Both entries
        # must coexist, and the per-stride operators must be the
        # distinct matrices (equal only in exact arithmetic).
        engine = SimulationEngine(gcc, policy=NoDtmPolicy(), seed=0)
        network = engine._hotspot.network
        solver = ExponentialSolver(
            network, np.full(network.size, 45.0)
        )
        dt = 1.0e-6
        bank = solver._bank
        a_fine, b_fine = bank.propagator_power(dt, 8)
        a_coarse, b_coarse = bank.propagator_power(2.0 * dt, 4)
        assert bank._powers.get((_dt_key(dt), 8)) is not None
        assert bank._powers.get((_dt_key(2.0 * dt), 4)) is not None
        # Same span: the operators agree to float error...
        np.testing.assert_allclose(a_fine, a_coarse, rtol=1e-9)
        # ...but are separately cached objects, not one aliased entry.
        assert a_fine is not a_coarse
        assert b_fine is not b_coarse

    def test_segmented_spans_round_trip_through_cache(self, gcc):
        # The stride splits a span into n equal segments plus a
        # remainder; re-requesting each (dt, k_i) must reproduce the
        # first computation exactly (cache hit, same object).
        engine = SimulationEngine(gcc, policy=NoDtmPolicy(), seed=0)
        network = engine._hotspot.network
        solver = ExponentialSolver(
            network, np.full(network.size, 45.0)
        )
        dt = 3.3e-6
        first = [solver._bank.propagator_power(dt, k) for k in (7, 7, 9)]
        second = [solver._bank.propagator_power(dt, k) for k in (7, 7, 9)]
        for (a1, b1), (a2, b2) in zip(first, second):
            assert a1 is a2
            assert b1 is b2


class TestFusedSensing:
    def test_hottest_only_fast_path_matches_dict_path(self, gcc, monkeypatch):
        # hottest_only policies receive the sensor maximum directly;
        # forcing the per-block dict path must not change one bit of the
        # result (same noise stream, same comparator float).
        fast = _run(gcc, FetchGatingPolicy, fast_forward=False)
        monkeypatch.setattr(FetchGatingPolicy, "hottest_only", False)
        dict_path = _run(gcc, FetchGatingPolicy, fast_forward=False)
        _assert_bit_identical(fast, dict_path)


class TestChipStepAccounting:
    """The accounting stage both engines share, fed synthetic block
    temperatures and voltages.  Every step length and power is a binary
    fraction, so each statistic is exact."""

    THRESHOLDS = ThermalThresholds(
        trigger_c=80.0, practical_limit_c=82.0, emergency_c=85.0
    )

    @pytest.fixture(scope="class")
    def substrate(self):
        floorplan = build_alpha21364_floorplan()
        return floorplan, HotSpotModel(floorplan), PowerModel(floorplan)

    def _chip(self, substrate, settle_time_s=0.0, **config):
        floorplan, hotspot, power = substrate
        network = hotspot.network
        return ChipStep(
            network,
            np.full(network.size, 60.0),
            power,
            SensorArray(floorplan, seed=0),
            self.THRESHOLDS,
            EngineConfig(**config),
            0,
            settle_time_s,
            fuse=True,
        )

    @staticmethod
    def _set(chip, hot_block, hot_c, low_voltage=False):
        chip.block_temps[:] = 70.0
        chip.block_temps[chip.block_names.index(hot_block)] = hot_c
        chip.voltage = chip.nominal_v * (0.8 if low_voltage else 1.0)

    def test_per_step(self, substrate):
        chip = self._chip(substrate)
        a, b, c = chip.block_names[:3]
        # (hottest block, its temperature, low voltage, dt, power)
        steps = [
            (a, 75.0, False, 0.5, 10.0),   # below the trigger
            (b, 81.0, True, 0.5, 20.0),    # crossing 1, low voltage
            (b, 86.0, True, 0.25, 8.0),    # violation, still above
            (a, 79.0, False, 0.5, 4.0),    # back below
            (c, 82.0, False, 0.25, 16.0),  # crossing 2
        ]
        for block, temp, low, dt, power in steps:
            self._set(chip, block, temp, low)
            chip.account(dt, power)
        assert chip.time_s == 2.0
        assert chip.violations == 1
        assert chip.trigger_crossings == 2
        assert chip.above_trigger
        assert chip.above_trigger_s == 1.0
        assert chip.low_time_s == 0.75
        assert chip.energy_j == 5.0 + 10.0 + 2.0 + 2.0 + 4.0
        assert chip.max_temp == 86.0
        assert chip.hottest_block == b

    def test_jumped_spans(self, substrate):
        chip = self._chip(substrate)
        a, b = chip.block_names[:2]
        self._set(chip, a, 84.0)
        # A span proved uniformly above the trigger: trigger_s == span.
        chip.account_span(2.0, 4.0, 3, 2.0)
        assert (chip.trigger_crossings, chip.above_trigger_s) == (1, 2.0)
        # Staying above: no new crossing.
        self._set(chip, b, 83.0, low_voltage=True)
        chip.account_span(1.0, 2.0, 0, 1.0)
        assert (chip.trigger_crossings, chip.above_trigger_s) == (1, 3.0)
        # Proved at or below the trigger, then above again: crossing 2.
        self._set(chip, b, 79.0)
        chip.account_span(0.5, 8.0, 0, 0.0)
        assert not chip.above_trigger
        self._set(chip, b, 81.0)
        chip.account_span(0.25, 8.0, 1, 0.25)
        assert chip.time_s == 3.75
        assert chip.violations == 4
        assert chip.trigger_crossings == 2
        assert chip.above_trigger_s == 3.25
        assert chip.low_time_s == 1.0
        assert chip.energy_j == 8.0 + 2.0 + 4.0 + 2.0
        assert chip.max_temp == 84.0
        assert chip.hottest_block == a

    def test_mixed_forms_share_the_crossing_state(self, substrate):
        chip = self._chip(substrate)
        a = chip.block_names[0]
        self._set(chip, a, 81.0)
        chip.account(0.5, 0.0)
        chip.account_span(1.0, 0.0, 0, 1.0)
        chip.account(0.5, 0.0)
        assert chip.trigger_crossings == 1
        assert chip.above_trigger_s == 2.0

    def test_settle_lead_in(self, substrate):
        # Before the measured window only the clock moves; the step
        # that reaches the settle time opens it, a stall or a jump
        # never does.
        chip = self._chip(substrate, settle_time_s=1.0)
        self._set(chip, chip.block_names[0], 90.0, low_voltage=True)
        chip.account_span(0.5, 4.0, 2, 0.5)
        chip.account(0.25, 4.0)
        assert not chip.measuring
        chip.account(0.25, 4.0)
        assert chip.measuring and chip.measure_start_s == 1.0
        assert chip.measured_s == 0.0
        assert chip.violations == 0 and chip.energy_j == 0.0
        assert chip.max_temp == -1e9
        chip.account(0.5, 4.0)
        assert chip.measured_s == 0.5
        assert chip.violations == 1 and chip.low_time_s == 0.5

    def test_violation_is_raised_at_the_step_end(self, substrate):
        chip = self._chip(substrate, raise_on_violation=True)
        a, b = chip.block_names[:2]
        self._set(chip, a, 84.0)
        chip.account(0.5, 1.0)
        self._set(chip, b, 85.5)
        with pytest.raises(ThermalViolationError) as excinfo:
            chip.account(0.25, 1.0)
        error = excinfo.value
        assert error.time_s == 0.75 == chip.time_s
        assert (error.block, error.temperature_c) == (b, 85.5)
        assert chip.violations == 1


class TestUnhealthyMidSpan:
    """A step that fails the health test inside a fused span takes the
    per-step path's backward-Euler recovery at the same step, from the
    same state, and a recovery that fails raises the same error.

    The fault plan keeps runs off the fused path, so the hot step comes
    from a monkeypatched dynamic power instead: from the second distinct
    activity vector on, one block's activity is raised so far that the
    exact (exponential) step lands just past the divergence limit while
    backward Euler, which lags it, lands just inside.  The next step's
    leakage at that temperature overflows, and the recovery fails on the
    non-finite power.  Steps of 300 us (900k cycles) open a ~9 % gap
    between the two steppers' one-step responses, and a 100 Hz sensor
    puts ~33 of them in every span.
    """

    CYCLES = 900_000

    @pytest.fixture(scope="class")
    def substrate(self):
        floorplan = build_alpha21364_floorplan()
        return floorplan, HotSpotModel(floorplan), PowerModel(floorplan)

    def _hot_activities(self, substrate):
        """(block index, hot activity) for the block whose one-step
        responses differ most between the two steppers."""
        _, hotspot, power = substrate
        tech = power.technology
        dt = self.CYCLES / tech.frequency_nominal
        bank = hotspot.network.operator_bank
        _, b_d = bank.propagator(dt)
        m_inv, _ = bank.factorisation(dt)
        n = len(power.block_names)
        ratios = [b_d[j, j] / m_inv[j, j] for j in range(n)]
        j = int(np.argmax(ratios))
        # Centre the limit between the two responses.
        target_w = 1.0e4 / np.sqrt(b_d[j, j] * m_inv[j, j])
        unit = np.zeros(n)
        unit[j] = 1.0
        args = (tech.vdd_nominal, tech.frequency_nominal)
        per_activity_w = (
            power.dynamic_vector_w(unit, *args)[j]
            - power.dynamic_vector_w(np.zeros(n), *args)[j]
        )
        return j, target_w / per_activity_w

    def _run(self, substrate, fused, monkeypatch):
        floorplan, hotspot, power = substrate
        engine = SimulationEngine(
            build_benchmark("gzip"),
            policy=NoDtmPolicy(),
            floorplan=floorplan,
            power_model=power,
            hotspot=hotspot,
            sensors=SensorArray(floorplan, seed=0, sampling_rate_hz=100.0),
            config=EngineConfig(
                thermal_step_cycles=self.CYCLES, fast_forward=False
            ),
        )
        initial = engine.compute_initial_temperatures()
        block, hot = self._hot_activities(substrate)
        seen = []

        def heated(acts):
            key = acts.tobytes()
            if key not in seen:
                seen.append(key)
            if seen.index(key) < 1:
                return acts
            acts = np.array(acts)
            acts[block] = hot
            return acts

        total = power.block_powers_vector
        dynamic = power.dynamic_vector_w
        in_span = []
        recoveries = []
        recover = ExponentialSolver._recover
        span_run = DenseSpanTask.run

        def recording(solver, power_w, dt, steps):
            entry = [solver.time_s, solver._out.copy(), bool(in_span)]
            recoveries.append(entry)
            recover(solver, power_w, dt, steps)
            entry += [solver._temps.copy(), solver.fallback_active]

        def spanning(task, solver):
            in_span.append(True)
            try:
                return span_run(task, solver)
            finally:
                in_span.pop()

        with monkeypatch.context() as patch:
            patch.setattr(engine_module, "_FUSE_DENSE_SPANS", fused)
            patch.setattr(
                power, "block_powers_vector",
                lambda acts, *a, **k: total(heated(acts), *a, **k),
            )
            patch.setattr(
                power, "dynamic_vector_w",
                lambda acts, *a, **k: dynamic(heated(acts), *a, **k),
            )
            patch.setattr(ExponentialSolver, "_recover", recording)
            patch.setattr(DenseSpanTask, "run", spanning)
            with pytest.raises(NumericalError) as excinfo:
                with np.errstate(over="ignore", invalid="ignore"):
                    engine.run(50_000_000, initial=initial)
        return recoveries, str(excinfo.value)

    def test_recovery_and_failure_match_per_step(self, substrate, monkeypatch):
        fused, fused_error = self._run(substrate, True, monkeypatch)
        per_step, per_step_error = self._run(substrate, False, monkeypatch)
        # The recovery succeeded inside a fused span; the next step's
        # recovery failed.
        assert len(fused) == 2
        assert fused[0][2] and len(fused[0]) == 5 and fused[0][4]
        assert len(fused[1]) == 3
        assert len(per_step) == 2 and not per_step[0][2]
        for got, want in zip(fused, per_step):
            assert got[0] == want[0]
            for a, b in zip(got[1::2], want[1::2]):
                assert np.array_equal(a, b)
            assert got[4:] == want[4:]
        assert fused_error == per_step_error
        assert "expm->be" in fused_error
