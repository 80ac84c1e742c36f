"""Numerical-health guards and the expm -> backward-Euler fallback."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from repro.errors import NumericalError
from repro.floorplan import Block, Floorplan
from repro.thermal import ThermalPackage, TransientSolver, build_thermal_network
from repro.thermal.solver import (
    DIVERGENCE_LIMIT_C,
    ExponentialSolver,
    OperatorBank,
    _dt_key,
    _healthy,
    step_lockstep,
)

DT = 1.0e-5


@pytest.fixture(scope="module")
def network():
    fp = Floorplan(
        [Block("a", 0, 0, 2e-3, 2e-3), Block("b", 2e-3, 0, 2e-3, 2e-3)]
    )
    return build_thermal_network(fp, ThermalPackage())


def _initial(network):
    return np.full(network.size, network.ambient_c)


def _private_bank(solver):
    """Give ``solver`` an operator bank of its own, so corruption
    injected into it cannot reach the network's shared bank (and every
    other solver over the module's network)."""
    solver._bank = OperatorBank(solver.network)
    return solver._bank


def _poison_propagator(solver, dt, scale=1.0e30):
    """Corrupt the solver's private per-dt propagator pair so the next
    expm step produces a divergent (but finite) result from healthy
    inputs."""
    bank = _private_bank(solver)
    a_d, b_d = bank.propagator(dt)
    bank._propagators.put(_dt_key(dt), (a_d * scale, b_d))


class TestHealthPredicate:
    def test_accepts_normal_temperatures(self):
        assert _healthy(np.array([45.0, 85.0, -40.0]))

    def test_rejects_nan_inf_and_divergence(self):
        assert not _healthy(np.array([45.0, np.nan]))
        assert not _healthy(np.array([45.0, np.inf]))
        assert not _healthy(np.array([45.0, -np.inf]))
        assert not _healthy(np.array([45.0, DIVERGENCE_LIMIT_C + 1.0]))


_LIMIT = DIVERGENCE_LIMIT_C
# The values where the one-call sum-of-squares test and the exact
# predicate could part ways: the limit and its neighbours, signed zero,
# non-finite values, squares that overflow, and healthy magnitudes whose
# squares add up past the squared limit.
_EDGES = [
    np.nan, np.inf, -np.inf, 0.0, -0.0,
    _LIMIT, -_LIMIT,
    np.nextafter(_LIMIT, 0.0), -np.nextafter(_LIMIT, 0.0),
    np.nextafter(_LIMIT, np.inf), -np.nextafter(_LIMIT, np.inf),
    9.9e3, -9.9e3, 1.0e200, -1.0e200, 1.5e154, np.finfo(float).max,
]
_entries = st.one_of(
    st.sampled_from(_EDGES),
    st.floats(-2.0e4, 2.0e4),
    st.floats(allow_nan=True, allow_infinity=True),
)


def _reference(values):
    return bool(np.all(np.abs(values) < _LIMIT))


class TestHealthPredicateEquivalence:
    """The sum-of-squares fast path never changes the answer."""

    @settings(max_examples=300, deadline=None)
    @given(hnp.arrays(float, hnp.array_shapes(min_dims=1, max_dims=2,
                                              max_side=40), elements=_entries))
    def test_matches_elementwise_predicate(self, values):
        with np.errstate(over="ignore", invalid="ignore"):
            assert _healthy(values) == _reference(values)

    @pytest.mark.parametrize("value", _EDGES)
    @pytest.mark.parametrize("shape", [(36,), (4, 36)])
    def test_edge_values_anywhere(self, value, shape):
        values = np.full(shape, 45.0)
        values.flat[-1] = value
        with np.errstate(over="ignore", invalid="ignore"):
            assert _healthy(values) == _reference(values)

    def test_healthy_state_past_the_squared_limit_falls_back(self):
        # Each entry is healthy, but 36 of them square-sum past 1e8, so
        # the fast test fails and the two-reduction fallback accepts.
        values = np.full(36, 9.9e3)
        assert np.vdot(values, values) >= _LIMIT * _LIMIT
        assert _healthy(values)
        assert _healthy(-values.reshape(6, 6))
        values[7] = _LIMIT
        assert not _healthy(values)

    def test_lockstep_stack_view(self):
        # The lockstep stacks are non-contiguous (R, n) views.
        stack = np.full((3, 36, 1), 60.0)[:, :, 0]
        assert _healthy(stack)
        stack[1, 5] = np.nan
        assert not _healthy(stack)


class TestBackwardEulerGuard:
    def test_nan_power_raises_numerical_error(self, network):
        solver = TransientSolver(network, _initial(network))
        power = np.zeros(network.size)
        power[network.index_of("a")] = np.nan
        with pytest.raises(NumericalError) as excinfo:
            solver.step(power, DT)
        assert excinfo.value.stepper == "be"
        assert excinfo.value.block == "a"

    def test_state_untouched_semantics(self, network):
        # A failed step must not advance the clock.
        solver = TransientSolver(network, _initial(network))
        power = np.full(network.size, np.inf)
        with pytest.raises(NumericalError):
            solver.step(power, DT)
        assert solver.time_s == 0.0


class TestExponentialFallback:
    def test_corrupt_propagator_recovers_via_backward_euler(self, network):
        power = network.power_vector({"a": 5.0, "b": 2.0})
        solver = ExponentialSolver(network, _initial(network))
        reference = TransientSolver(network, _initial(network))

        _poison_propagator(solver, DT)
        stepped = solver.step(power, DT)
        expected = reference.step(power, DT)

        assert solver.fallback_active
        assert _healthy(stepped)
        assert np.allclose(stepped, expected, atol=1e-9)
        assert solver.time_s == pytest.approx(DT)

    def test_fast_forward_recovers_whole_span(self, network):
        steps = 7
        power = network.power_vector({"a": 5.0, "b": 2.0})
        solver = ExponentialSolver(network, _initial(network))
        reference = TransientSolver(network, _initial(network))

        # Poison only the composed span operator: single steps stay
        # exact, the jump goes through the recovery path.
        bank = _private_bank(solver)
        a_k, b_k = bank.propagator_power(DT, steps)
        bank._powers.put((_dt_key(DT), steps), (a_k * 1.0e30, b_k))
        jumped = solver.fast_forward(power, DT, steps)
        for _ in range(steps):
            expected = reference.step(power, DT)

        assert solver.fallback_active
        assert np.allclose(jumped, expected, atol=1e-9)
        assert solver.time_s == pytest.approx(steps * DT)

    def test_nan_power_fails_both_steppers(self, network):
        solver = ExponentialSolver(network, _initial(network))
        power = np.zeros(network.size)
        power[network.index_of("b")] = np.nan
        with pytest.raises(NumericalError) as excinfo:
            solver.step(power, DT)
        assert excinfo.value.stepper == "expm->be"
        assert excinfo.value.block == "b"
        assert not solver.fallback_active

    def test_clean_solver_never_sets_fallback(self, network):
        power = network.power_vector({"a": 5.0, "b": 2.0})
        solver = ExponentialSolver(network, _initial(network))
        for _ in range(10):
            solver.step(power, DT)
        assert not solver.fallback_active

    def test_reset_clears_fallback(self, network):
        power = network.power_vector({"a": 5.0, "b": 2.0})
        solver = ExponentialSolver(network, _initial(network))
        _poison_propagator(solver, DT)
        solver.step(power, DT)
        assert solver.fallback_active
        solver.reset(_initial(network))
        assert not solver.fallback_active


class TestLockstepGuards:
    def test_unhealthy_row_falls_back_individually(self, network):
        power = network.power_vector({"a": 5.0, "b": 2.0})
        solvers = [
            ExponentialSolver(network, _initial(network)) for _ in range(3)
        ]
        reference = TransientSolver(network, _initial(network))
        # All three share the network but own their caches; poisoning
        # one solver's propagator corrupts only the batched product for
        # the *whole* stack when that solver is first, so poison a
        # non-leading one and step individually instead: the batch uses
        # solvers[0]'s cache.  Feed one run divergent power instead --
        # its row trips the health check while the others stay exact.
        bad_power = power.copy()
        bad_power[network.index_of("a")] = 2.0e35
        with pytest.raises(NumericalError):
            step_lockstep(solvers, [power, bad_power, power], DT)
        # Rows are adopted in order, so the run before the bad one
        # advanced exactly as a lone solver would; the run after it was
        # left at its pre-step state, not fed a corrupted batch row.
        clean = ExponentialSolver(network, _initial(network))
        expected = clean.step(power, DT)
        assert np.allclose(solvers[0].temperatures, expected)
        assert np.allclose(solvers[2].temperatures, _initial(network))
