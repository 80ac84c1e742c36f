"""Constant-power fast-forward and the exponential stepper in the engine.

Fast-forward replaces runs of constant-power thermal steps with one
closed-form jump, but only after proving (via the solver's span
envelope) that the jump crosses no trigger/emergency threshold.  These
tests pin the two claims that make it safe to leave on by default:

* a run with ``fast_forward=True`` reproduces the explicit-stepping run
  statistic for statistic -- in particular every *discrete* statistic
  (violation count, switch count, hottest block) is bit-identical, so no
  threshold crossing is ever skipped or invented;
* the exponential stepper agrees with the backward-Euler test oracle
  (:func:`tests.conftest.backward_euler`) to the documented tolerance
  at the paper's operating step.
"""

import pytest

from repro.dtm import DvsPolicy, FetchGatingPolicy, HybPolicy, NoDtmPolicy
from repro.sim import EngineConfig, SimulationEngine
from repro.sim.kernel import DenseSpanTask
from repro.thermal import ExponentialSolver, TransientSolver
from repro.workloads import build_benchmark
from repro.workloads.spec import SPEC_BENCHMARK_NAMES
from tests.conftest import backward_euler

EXACT_FIELDS = (
    "instructions",
    "cycles",
    "violations",
    "hottest_block",
    "dvs_switches",
    "migrations",
)
# (field, abs tolerance): time-like statistics agree to rounding error;
# temperature and power pick up the stride's proven leakage-drift band
# (EngineConfig.stride_drift_tol_w bounds sub-milliwatt within-span
# drift) and backward Euler's O(dt) discretisation error.
CLOSE_FIELDS = (
    ("elapsed_s", 1e-12),
    ("time_above_trigger_s", 1e-12),
    ("dvs_low_time_s", 1e-12),
    ("stall_time_s", 1e-12),
    ("mean_gating_fraction", 1e-9),
    ("max_true_temp_c", 1e-3),
    ("mean_power_w", 1e-2),
)

POLICIES = [
    ("none", NoDtmPolicy),
    ("FG", FetchGatingPolicy),
    ("DVS", DvsPolicy),
]


@pytest.fixture(scope="module")
def gcc():
    return build_benchmark("gcc")


def _run(workload, policy_factory, **config_kwargs):
    engine = SimulationEngine(
        workload,
        policy=policy_factory(),
        config=EngineConfig(**config_kwargs),
        seed=3,
    )
    init = engine.compute_initial_temperatures()
    return engine.run(3_000_000, initial=init, settle_time_s=2.0e-4)


def _assert_equivalent(result, reference):
    for field in EXACT_FIELDS:
        assert getattr(result, field) == getattr(reference, field), field
    for field, atol in CLOSE_FIELDS:
        assert getattr(result, field) == pytest.approx(
            getattr(reference, field), rel=1e-6, abs=atol
        ), field


class TestFastForwardEquivalence:
    @pytest.mark.parametrize("name,factory", POLICIES)
    def test_matches_explicit_stepping(self, gcc, name, factory):
        jumped = _run(gcc, factory, fast_forward=True)
        explicit = _run(gcc, factory, fast_forward=False)
        _assert_equivalent(jumped, explicit)

    @pytest.mark.parametrize("name,factory", POLICIES)
    def test_never_skips_a_threshold_crossing(self, gcc, name, factory):
        # The regression this guards: a jump sized by the span envelope
        # must account for exactly the violations and above-trigger time
        # that explicit stepping would have observed.  The scenarios are
        # chosen hot (the unmanaged chip sits above the trigger), so the
        # counts are non-trivial.
        jumped = _run(gcc, factory, fast_forward=True)
        explicit = _run(gcc, factory, fast_forward=False)
        assert explicit.violations > 0
        assert jumped.violations == explicit.violations
        assert jumped.time_above_trigger_s == pytest.approx(
            explicit.time_above_trigger_s, rel=1e-9, abs=1e-12
        )

    def test_fast_forward_actually_engages(self, gcc, monkeypatch):
        # Guard against the equivalence tests passing vacuously because
        # the safety gate never lets a jump through.
        calls = []
        original = ExponentialSolver.fast_forward

        def counting(self, power, dt, steps, copy=True):
            calls.append(steps)
            return original(self, power, dt, steps, copy=copy)

        monkeypatch.setattr(ExponentialSolver, "fast_forward", counting)
        _run(gcc, NoDtmPolicy, fast_forward=True)
        assert calls, "no fast-forward jump engaged in a constant-power run"
        assert all(steps >= 2 for steps in calls)

    def test_fast_forward_off_never_jumps(self, gcc, monkeypatch):
        calls = []
        original = ExponentialSolver.fast_forward

        def counting(self, power, dt, steps, copy=True):
            calls.append(steps)
            return original(self, power, dt, steps, copy=copy)

        monkeypatch.setattr(ExponentialSolver, "fast_forward", counting)
        _run(gcc, NoDtmPolicy, fast_forward=False)
        assert not calls


class TestStepperAgreement:
    @pytest.mark.parametrize("name,factory", POLICIES)
    def test_expm_matches_backward_euler_anchor(self, gcc, name, factory):
        # The exact propagator and the backward-Euler oracle see
        # identical discrete behaviour at the paper's 10k-cycle thermal
        # step, and continuous metrics agree to the documented
        # tolerance.
        expm = _run(gcc, factory, fast_forward=False)
        with backward_euler():
            euler = _run(gcc, factory, fast_forward=False)
        _assert_equivalent(expm, euler)

    @pytest.mark.parametrize("bench_name", SPEC_BENCHMARK_NAMES)
    def test_hyb_matches_backward_euler_across_suite(self, bench_name):
        # The paper's policy on every benchmark: the cool ones never
        # reach the trigger, while crafty and gcc violate, so the
        # discrete counts compared are non-trivial there.
        workload = build_benchmark(bench_name)
        expm = _run(workload, HybPolicy, fast_forward=False)
        with backward_euler():
            euler = _run(workload, HybPolicy, fast_forward=False)
        _assert_equivalent(expm, euler)


def _record_stepper_classes(monkeypatch):
    """Record the class of every solver whose ``step`` is called."""
    stepped = []
    for cls in (ExponentialSolver, TransientSolver):
        original = cls.step

        def recording(self, *args, _original=original, **kwargs):
            stepped.append(type(self))
            return _original(self, *args, **kwargs)

        monkeypatch.setattr(cls, "step", recording)
    return stepped


class TestBackwardEulerOracle:
    """:func:`tests.conftest.backward_euler` does what it promises, so
    the agreement tests above compare two different steppers."""

    def test_steps_every_step_with_backward_euler(self, gcc, monkeypatch):
        stepped = _record_stepper_classes(monkeypatch)
        with backward_euler():
            _run(gcc, NoDtmPolicy, fast_forward=False)
        assert stepped
        assert all(issubclass(cls, TransientSolver) for cls in stepped)

    def test_restores_exponential_stepper_on_exit(self, gcc, monkeypatch):
        with backward_euler():
            pass
        stepped = _record_stepper_classes(monkeypatch)
        spans = _count_spans(monkeypatch)
        _run(gcc, NoDtmPolicy, fast_forward=False)
        assert spans, "fused spans stay off after the oracle block"
        assert stepped and set(stepped) == {ExponentialSolver}

    def test_never_fuses(self, gcc, monkeypatch):
        spans = _count_spans(monkeypatch)
        with backward_euler():
            _run(gcc, FetchGatingPolicy, fast_forward=False)
        assert not spans

    def test_rejects_fast_forward(self, gcc):
        # A closed-form stride is exponential-only; the oracle refuses
        # it rather than silently stepping a mixed trajectory.
        with backward_euler():
            with pytest.raises(AssertionError, match="fast_forward=False"):
                _run(gcc, NoDtmPolicy, fast_forward=True)


def _count_spans(monkeypatch):
    """Record the step count of every fused span that executes."""
    spans = []
    original = DenseSpanTask.run

    def counting(self, solver):
        spans.append(self.count)
        return original(self, solver)

    monkeypatch.setattr(DenseSpanTask, "run", counting)
    return spans
