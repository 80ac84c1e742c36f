"""Fused dense spans and the shared substrate of the dual-core engine.

Between sensor samples no decision can fire, so the dual-core engine
runs each span up to the next sample as one fused
:class:`~repro.sim.kernel.DenseSpanTask`.  The claim is bit-identity
with the per-step path (reached through the private
``repro.sim.engine._FUSE_DENSE_SPANS`` seam), across the A9 pair and
manager grid and the settle/hop-stall edge cases.  The same grid run
on the backward-Euler test oracle (:func:`tests.conftest.backward_euler`)
agrees with the exponential propagator to the single-core tolerance.
The solver half of the kernel --
:meth:`~repro.thermal.solver.ExponentialSolver.span_operators`,
``guard`` and ``adopt`` -- is pinned against plain ``step`` calls here
too, as is the per-process substrate every default-package engine
shares.
"""

from dataclasses import asdict

import numpy as np
import pytest

from repro.dtm import HybPolicy
from repro.dtm.thresholds import ThermalThresholds
from repro.errors import (
    NumericalError,
    ThermalModelError,
    ThermalViolationError,
)
from repro.multicore import CoreHopper, MultiCoreEngine
from repro.multicore import engine as multicore_engine
from repro.multicore.batch import dual_core_steady_state
from repro.obs import metrics as obs_metrics
from repro.sensors.faults import SensorFault
from repro.sim import engine as engine_module
from repro.sim.config import EngineConfig
from repro.sim.faults import FaultPlan
from repro.sim import kernel as kernel_module
from repro.sim.kernel import DenseSpanTask
from repro.thermal import ThermalPackage
from repro.thermal.solver import ExponentialSolver, OperatorBank, _dt_key
from repro.workloads import build_benchmark
from repro.workloads.compiler import CompiledIntervalModel
from tests.conftest import backward_euler, short_phase_workload

PAIRS = (("crafty", "mesa"), ("crafty", "gcc"), ("gzip", "eon"))
MANAGERS = ("none", "Hyb/core", "hopping", "hop+Hyb")
DURATION = 1.5e-3
SETTLE = 0.5e-3


def _engine(pair, manager="hop+Hyb", package=None, short=False, **kwargs):
    policies = [HybPolicy(), HybPolicy()] if "Hyb" in manager else None
    hopper = CoreHopper() if manager.startswith("hop") else None
    build = short_phase_workload if short else build_benchmark
    return MultiCoreEngine(
        [build(name) for name in pair],
        policies=policies,
        hopper=hopper,
        package=package,
        **kwargs,
    )


def _run(pair, manager="hop+Hyb", duration=DURATION, settle=SETTLE, **kwargs):
    engine = _engine(pair, manager, **kwargs)
    return engine.run(
        duration, initial=dual_core_steady_state(pair), settle_time_s=settle
    )


def _run_per_step(monkeypatch, *args, **kwargs):
    """:func:`_run` with fused dense spans switched off."""
    with monkeypatch.context() as patch:
        patch.setattr(engine_module, "_FUSE_DENSE_SPANS", False)
        return _run(*args, **kwargs)


def _count_calls(monkeypatch, owner, name):
    """Count the calls of ``owner.name`` (a method or module function)."""
    calls = []
    original = getattr(owner, name)

    def counting(*args, **kwargs):
        calls.append(None)
        return original(*args, **kwargs)

    monkeypatch.setattr(owner, name, counting)
    return calls


def _count_spans(monkeypatch):
    """Record the step count of every fused span that executes."""
    spans = []
    original = DenseSpanTask.run

    def counting(self, solver):
        spans.append(self.count)
        return original(self, solver)

    monkeypatch.setattr(DenseSpanTask, "run", counting)
    return spans


class TestKernelBitIdentity:
    """Fused dense spans == the per-step path, float for float."""

    @pytest.mark.parametrize("manager", MANAGERS)
    @pytest.mark.parametrize("pair", PAIRS, ids="+".join)
    def test_a9_grid(self, pair, manager, monkeypatch):
        fused = _run(pair, manager)
        anchor = _run_per_step(monkeypatch, pair, manager)
        assert asdict(fused) == asdict(anchor)

    def test_hopping_scenario_swaps(self):
        # The grid must exercise hop stalls inside its window.
        assert _run(PAIRS[0], "hopping").swaps > 0

    def test_sensor_faults(self, monkeypatch):
        plan = FaultPlan(sensor_faults=(SensorFault.stuck("IntReg#0", 70.0),))
        config = EngineConfig(fault_plan=plan)
        fused = _run(PAIRS[0], config=config)
        anchor = _run_per_step(monkeypatch, PAIRS[0], config=config)
        assert asdict(fused) == asdict(anchor)

    @pytest.mark.parametrize(
        "case",
        [
            {"hop_stall_s": 0.0},
            {"settle": 0.0},
            # Not a multiple of the ~0.33 us step: the flip to measuring
            # lands inside a fused span.
            {"settle": 0.4321234e-3},
        ],
        ids=["no-hop-stall", "no-settle", "odd-settle"],
    )
    def test_edge_cases(self, case, monkeypatch):
        fused = _run(PAIRS[1], **case)
        anchor = _run_per_step(monkeypatch, PAIRS[1], **case)
        assert asdict(fused) == asdict(anchor)

    def test_violation_raises_identically(self, monkeypatch):
        # raise_on_violation keeps the per-step path; both runs must
        # stop at the same step with the same report.
        thresholds = ThermalThresholds(
            trigger_c=70.0, practical_limit_c=75.0, emergency_c=80.0
        )
        config = EngineConfig(raise_on_violation=True)
        errors = []
        for run in (_run, lambda *a, **k: _run_per_step(monkeypatch, *a, **k)):
            with pytest.raises(ThermalViolationError) as excinfo:
                run(PAIRS[0], "none", config=config, thresholds=thresholds)
            errors.append(vars(excinfo.value))
        assert errors[0] == errors[1]

    def test_power_corruption_raises_identically(self, monkeypatch):
        config = EngineConfig(fault_plan=FaultPlan(corrupt_power_at_step=400))
        errors = []
        for run in (_run, lambda *a, **k: _run_per_step(monkeypatch, *a, **k)):
            with pytest.raises(NumericalError) as excinfo:
                run(PAIRS[0], config=config)
            errors.append(str(excinfo.value))
        assert errors[0] == errors[1]

    def test_kernel_engages(self, monkeypatch):
        # Guard against the identity tests passing vacuously.
        spans = _count_spans(monkeypatch)
        _run(PAIRS[0])
        assert spans and all(count >= 2 for count in spans)

    def test_seam_off_never_fuses(self, monkeypatch):
        spans = _count_spans(monkeypatch)
        _run_per_step(monkeypatch, PAIRS[0])
        assert not spans

    @pytest.mark.parametrize("manager", MANAGERS)
    @pytest.mark.parametrize("pair", PAIRS, ids="+".join)
    def test_phase_boundaries_inside_spans(self, pair, manager, monkeypatch):
        # Short phases put several boundaries inside every span, so the
        # span alternates phase runs and boundary steps.
        fused = _run(pair, manager, short=True)
        anchor = _run_per_step(monkeypatch, pair, manager, short=True)
        assert asdict(fused) == asdict(anchor)

    def test_short_phase_spans_split_into_runs(self, monkeypatch):
        spans = _count_spans(monkeypatch)
        runs = _count_calls(monkeypatch, kernel_module, "next_phase_run")
        _run(PAIRS[1], short=True)
        assert len(runs) > 3 * len(spans)

    @pytest.mark.parametrize("short", [False, True], ids=["spec", "short"])
    def test_fused_runs_advance_per_run_not_per_step(self, short, monkeypatch):
        # Per step both cores advance; fused, a core advances only at
        # the spans' phase boundaries and on the unfused steps.
        with monkeypatch.context() as patch:
            per_step = _count_calls(patch, CompiledIntervalModel, "advance")
            _run_per_step(patch, PAIRS[1], short=short)
        with monkeypatch.context() as patch:
            fused = _count_calls(patch, CompiledIntervalModel, "advance")
            _run(PAIRS[1], short=short)
        assert len(fused) * (2 if short else 10) < len(per_step)

    def test_violation_and_corruption_runs_never_fuse(self, monkeypatch):
        spans = _count_spans(monkeypatch)
        config = EngineConfig(raise_on_violation=True)
        _run(PAIRS[2], "none", config=config)
        config = EngineConfig(fault_plan=FaultPlan(corrupt_power_at_step=10**9))
        _run(PAIRS[2], "none", config=config)
        assert not spans


class TestStepperAgreement:
    """The dual-core engine on the backward-Euler oracle.

    At the 10k-cycle step the two steppers see the same discrete
    behaviour -- violations, hottest block, swaps and every per-core
    statistic -- and the continuous metrics agree to the single-core
    tolerance (``tests/sim/test_fast_forward.py``).
    """

    CLOSE_FIELDS = (("max_true_temp_c", 1e-3), ("mean_power_w", 1e-2))

    @pytest.mark.parametrize("manager", MANAGERS)
    @pytest.mark.parametrize("pair", PAIRS, ids="+".join)
    def test_a9_grid_matches_backward_euler(self, pair, manager):
        expm = asdict(_run(pair, manager))
        with backward_euler():
            euler = asdict(_run(pair, manager))
        for field, atol in self.CLOSE_FIELDS:
            assert expm.pop(field) == pytest.approx(
                euler.pop(field), rel=1e-6, abs=atol
            ), field
        assert expm == euler


def _counters(run):
    previous = obs_metrics.set_enabled(True)
    try:
        before = obs_metrics.REGISTRY.counter_values()
        run()
        after = obs_metrics.REGISTRY.counter_values()
    finally:
        obs_metrics.set_enabled(previous)
    return {
        name: after[name] - before.get(name, 0.0)
        for name in after
        if name.startswith("engine.")
    }


class TestKernelCounters:
    def test_dual_core_counts_fused_steps(self, monkeypatch):
        spans = _count_spans(monkeypatch)
        counters = _counters(lambda: _run(PAIRS[0]))
        assert counters["engine.kernel_spans"] == len(spans)
        assert counters["engine.kernel_steps"] <= sum(spans)
        # Every execution step runs fused (hop stalls are stall
        # sub-steps, not execution steps): one span per sensor sample,
        # the step right after the sample included.
        assert counters["engine.kernel_steps"] == counters["engine.exec_steps"]
        assert (
            counters["engine.kernel_spans"]
            == counters["engine.sensor_samples"]
        )

    def test_per_step_path_counts_none(self, monkeypatch):
        counters = _counters(lambda: _run_per_step(monkeypatch, PAIRS[0]))
        assert counters["engine.kernel_spans"] == 0
        assert counters["engine.kernel_steps"] == 0

    def test_single_core_counts_fused_steps(self):
        from repro.power.technology import Technology
        from repro.sim import RunSpec, run_one

        config = EngineConfig(fast_forward=False)
        settle_s = 0.5e-4  # half a sensor period
        spec = RunSpec(
            "gcc", "FG", instructions=2_000_000, settle_time_s=settle_s,
            engine_config=config,
        )
        counters = _counters(lambda: run_one(spec))
        # The settle lead-in steps per step up to and including the
        # step that flips to measuring (FG keeps the nominal clock);
        # every step after it runs fused.
        dt = config.thermal_step_cycles / Technology().frequency_nominal
        settle_steps, time_s = 0, 0.0
        while time_s < settle_s:
            time_s += dt
            settle_steps += 1
        assert settle_steps > 1
        assert (
            counters["engine.kernel_steps"]
            == counters["engine.exec_steps"] - settle_steps
        )
        # One span per sensor sample inside the window, plus one for the
        # rest of the period the flip falls in (the sample at t = 0 is
        # the only one before the flip).
        window_samples = counters["engine.sensor_samples"] - 1
        assert counters["engine.kernel_spans"] == window_samples + 1


@pytest.fixture(scope="module")
def network():
    return multicore_engine._default_substrate()[1].network


def _power(network, rng):
    return rng.uniform(0.0, 3.0, network.size)


class TestSpanOperators:
    """The solver half of the fused loop: steps taken outside the
    solver with :meth:`span_operators`, checked with :meth:`guard` and
    handed back with :meth:`adopt`, equal :meth:`step` calls."""

    DT = 1.0 / 3.0e6

    def _pair(self, network):
        initial = np.full(network.size, 60.0)
        return ExponentialSolver(network, initial), ExponentialSolver(
            network, initial
        )

    def _outside(self, solver, power, steps):
        """``steps`` steps the way the fused loop takes them."""
        a_d, b_d, ambient = solver.span_operators(self.DT)
        previous = solver.temperatures
        row = power + ambient
        scratch = np.empty(previous.size)
        for _ in range(steps):
            state = np.empty(previous.size)
            np.dot(a_d, previous, out=state)
            np.dot(b_d, row, out=scratch)
            state += scratch
            solver.guard(state, previous, power, self.DT)
            previous = state
        return solver.adopt(previous, self.DT, 0)

    def test_matches_step(self, network):
        stepped, outside = self._pair(network)
        power = _power(network, np.random.default_rng(0))
        for _ in range(40):
            want = stepped.step(power, self.DT, copy=False)
        got = self._outside(outside, power, 40)
        assert got is outside._temps
        assert np.array_equal(got, want)
        assert outside.time_s == stepped.time_s

    def test_adopt_replays_the_clock(self, network):
        stepped, outside = self._pair(network)
        power = _power(network, np.random.default_rng(3))
        for _ in range(7):
            want = stepped.step(power, self.DT)
        outside.adopt(want, self.DT, 7)
        assert outside.time_s == stepped.time_s
        assert np.array_equal(outside.temperatures, want)

    def test_guard_raises_like_step(self, network):
        # A NaN power fails the recovery the same way on both paths.
        stepped, outside = self._pair(network)
        power = _power(network, np.random.default_rng(1))
        for _ in range(5):
            stepped.step(power, self.DT, copy=False)
        self._outside(outside, power, 5)
        power[3] = np.nan
        errors = []
        for advance in (
            lambda: stepped.step(power, self.DT),
            lambda: self._outside(outside, power, 1),
        ):
            with pytest.raises(NumericalError) as excinfo:
                advance()
            errors.append(vars(excinfo.value))
        assert errors[0] == errors[1]

    def test_validates_dt(self, network):
        solver, _ = self._pair(network)
        with pytest.raises(ThermalModelError):
            solver.span_operators(0.0)

    def test_guard_recovers_like_step(self, network):
        # A corrupt propagator sends both paths through the same
        # backward-Euler recovery.
        dt = self.DT
        power = _power(network, np.random.default_rng(2))
        results = []
        for outside in (False, True):
            solver = ExponentialSolver(network, np.full(network.size, 60.0))
            bank = solver._bank = OperatorBank(network)
            a_d, b_d = bank.propagator(dt)
            bank._propagators.put(_dt_key(dt), (a_d * 1.0e30, b_d))
            if outside:
                self._outside(solver, power, 3)
            else:
                for _ in range(3):
                    solver.step(power, dt, copy=False)
            assert solver.fallback_active
            results.append((solver.temperatures, solver.time_s))
        assert np.array_equal(results[0][0], results[1][0])
        assert results[0][1] == results[1][1]


class TestSharedSubstrate:
    def test_default_engines_share_one_substrate(self):
        first = _engine(PAIRS[0])
        second = _engine(PAIRS[2], "none")
        assert first.hotspot is second.hotspot
        assert first.floorplan is second.floorplan
        assert first._power is second._power
        network = first.hotspot.network
        assert network.operator_bank is second.hotspot.network.operator_bank

    def test_custom_package_builds_its_own(self):
        default = _engine(PAIRS[0])
        custom = _engine(PAIRS[0], package=ThermalPackage(convection_resistance=0.6))
        assert custom.hotspot is not default.hotspot
        assert custom.hotspot.network is not default.hotspot.network
        assert custom._power is not default._power

    def test_default_run_after_custom_is_unchanged(self, monkeypatch):
        monkeypatch.setattr(multicore_engine, "_SUBSTRATE", None)
        cold = asdict(_run(PAIRS[0]))
        _run(PAIRS[0], package=ThermalPackage(convection_resistance=0.6))
        warm = asdict(_run(PAIRS[0]))
        assert warm == cold

    def test_steady_state_hit_builds_no_workload(self, monkeypatch):
        import repro.workloads.spec as spec_module
        from repro.multicore import batch as multicore_batch

        monkeypatch.setattr(multicore_batch, "_WARMUP_CACHE", {})
        first = dual_core_steady_state(PAIRS[0])
        built = _count_calls(monkeypatch, spec_module, "build_benchmark")
        again = dual_core_steady_state(PAIRS[0])
        # A Workload pair with the same names shares the entry.
        shared = dual_core_steady_state([build_benchmark(n) for n in PAIRS[0]])
        assert len(built) == 0
        assert again is not first and np.array_equal(again, first)
        assert np.array_equal(shared, first)
