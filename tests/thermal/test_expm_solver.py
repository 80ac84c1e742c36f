"""Exponential-propagator stepper: exactness, fast-forward, envelopes.

The :class:`~repro.thermal.solver.ExponentialSolver` advances the LTI
network with the *exact* zero-order-hold propagator, so its defining
properties are algebraic identities rather than discretisation limits:
subdividing a step changes nothing, a K-step fast-forward equals K
explicit steps, and backward Euler converges *to it* as dt -> 0.
"""

import numpy as np
import pytest

from repro.errors import ThermalModelError
from repro.floorplan import Block, Floorplan
from repro.thermal import (
    ExponentialSolver,
    ThermalPackage,
    TransientSolver,
    build_thermal_network,
    make_transient_solver,
    steady_state,
)
from repro.thermal.solver import (
    FACTOR_CACHE_SIZE,
    STEPPER_BACKWARD_EULER,
    STEPPER_EXPONENTIAL,
    _LruCache,
    step_lockstep,
)


def _private_network():
    fp = Floorplan(
        [Block("a", 0, 0, 2e-3, 2e-3), Block("b", 2e-3, 0, 2e-3, 2e-3)]
    )
    return build_thermal_network(fp, ThermalPackage())


@pytest.fixture(scope="module")
def network():
    return _private_network()


@pytest.fixture(scope="module")
def power(network):
    return network.power_vector({"a": 4.0, "b": 1.0})


def _perturbed_start(network):
    start = np.full(network.size, network.ambient_c)
    start[network.index_of("a")] += 12.0
    start[network.index_of("b")] += 6.0
    return start


class TestExactness:
    def test_fixed_point_is_steady_state(self, network, power):
        target = steady_state(network, power)
        solver = ExponentialSolver(network, target)
        temps = solver.step(power, 1e-3)
        assert np.allclose(temps, target, atol=1e-9)

    def test_step_subdivision_is_exact(self, network, power):
        # The exact propagator is a semigroup: K steps of dt equal one
        # step of K*dt to rounding error.  Backward Euler fails this
        # badly; it is the property that makes fast-forward exact.
        coarse = ExponentialSolver(network, _perturbed_start(network))
        fine = ExponentialSolver(network, _perturbed_start(network))
        coarse.step(power, 64e-6)
        for _ in range(64):
            fine.step(power, 1e-6)
        assert np.allclose(coarse.temperatures, fine.temperatures, atol=1e-9)

    def test_matches_dense_matrix_exponential(self, network, power):
        from scipy.linalg import expm

        dt = 3.3e-6
        start = _perturbed_start(network)
        solver = ExponentialSolver(network, start)
        solver.step(power, dt)

        generator = -network.conductance / network.capacitance[:, None]
        t_ss = np.linalg.solve(
            network.conductance,
            power + network.ambient_conductance * network.ambient_c,
        )
        expected = t_ss + expm(generator * dt) @ (start - t_ss)
        assert np.allclose(solver.temperatures, expected, atol=1e-10)

    def test_backward_euler_converges_to_expm(self, network, power):
        # As dt -> 0 backward Euler must converge (first order) to the
        # exact propagator's answer over a fixed horizon.
        horizon = 128e-6
        exact = ExponentialSolver(network, _perturbed_start(network))
        exact.step(power, horizon)
        target = exact.temperatures

        errors = []
        for steps in (8, 16, 32, 64):
            be = TransientSolver(network, _perturbed_start(network))
            for _ in range(steps):
                be.step(power, horizon / steps)
            errors.append(float(np.max(np.abs(be.temperatures - target))))
        # Strictly decreasing, roughly halving each refinement.
        assert errors[0] > errors[1] > errors[2] > errors[3]
        for coarse, fine in zip(errors, errors[1:]):
            assert coarse / fine == pytest.approx(2.0, rel=0.35)

    def test_time_tracking_and_reset(self, network, power):
        solver = ExponentialSolver(network, _perturbed_start(network))
        solver.step(power, 2e-6)
        solver.step(power, 3e-6)
        assert solver.time_s == pytest.approx(5e-6)
        solver.reset(np.full(network.size, 50.0))
        assert solver.time_s == 0.0
        assert np.allclose(solver.temperatures, 50.0)

    def test_rejects_bad_inputs(self, network):
        solver = ExponentialSolver(network, _perturbed_start(network))
        with pytest.raises(ThermalModelError):
            solver.step(np.zeros(network.size), 0.0)
        with pytest.raises(ThermalModelError):
            solver.step(np.zeros(2), 1e-6)
        with pytest.raises(ThermalModelError):
            ExponentialSolver(network, np.zeros(2))
        with pytest.raises(ThermalModelError):
            solver.reset(np.zeros(2))


class TestFastForward:
    @pytest.mark.parametrize("steps", [1, 2, 3, 7, 30, 100])
    def test_matches_explicit_steps(self, network, power, steps):
        dt = 3.3e-6
        jump = ExponentialSolver(network, _perturbed_start(network))
        explicit = ExponentialSolver(network, _perturbed_start(network))
        jump.fast_forward(power, dt, steps)
        for _ in range(steps):
            explicit.step(power, dt)
        assert np.allclose(
            jump.temperatures, explicit.temperatures, atol=1e-9
        )
        assert jump.time_s == pytest.approx(explicit.time_s)

    def test_rejects_zero_steps(self, network, power):
        solver = ExponentialSolver(network, _perturbed_start(network))
        with pytest.raises(ThermalModelError):
            solver.fast_forward(power, 1e-6, 0)

    def test_composed_propagator_is_cached(self, network, power):
        solver = ExponentialSolver(network, _perturbed_start(network))
        a_first, b_first = solver._bank.propagator_power(3.3e-6, 30)
        a_again, b_again = solver._bank.propagator_power(3.3e-6, 30)
        assert a_first is a_again and b_first is b_again


class TestSpanEnvelope:
    def test_trajectory_stays_inside_bounds(self, network, power):
        dt = 2e-6
        steps = 50
        span = dt * steps
        solver = ExponentialSolver(network, _perturbed_start(network))
        lower, upper = solver.span_envelope(power, span)
        assert np.all(lower <= solver.temperatures + 1e-9)
        assert np.all(upper >= solver.temperatures - 1e-9)
        for _ in range(steps):
            temps = solver.step(power, dt)
            assert np.all(temps >= lower - 1e-9)
            assert np.all(temps <= upper + 1e-9)

    def test_short_span_bounds_are_tight(self, network, power):
        # Over a span much shorter than every time constant the
        # trajectory barely moves, so the envelope must hug the current
        # state instead of stretching to the distant asymptote (the
        # property that lets fast-forward engage at all: the heat sink
        # sits kelvins from its asymptote on a seconds time scale).
        solver = ExponentialSolver(network, _perturbed_start(network))
        lower, upper = solver.span_envelope(power, 1e-9)
        assert np.all(upper - lower < 1e-3)

    def test_envelope_validates_inputs(self, network, power):
        solver = ExponentialSolver(network, _perturbed_start(network))
        with pytest.raises(ThermalModelError):
            solver.span_envelope(power, 0.0)
        with pytest.raises(ThermalModelError):
            solver.span_envelope(np.zeros(2), 1e-6)


class TestLockstepStepping:
    @pytest.mark.parametrize(
        "stepper", [STEPPER_EXPONENTIAL, STEPPER_BACKWARD_EULER]
    )
    def test_matches_individual_steps(self, network, stepper):
        dt = 3.3e-6
        starts = [
            _perturbed_start(network),
            np.full(network.size, network.ambient_c + 5.0),
            np.full(network.size, network.ambient_c),
        ]
        powers = [
            network.power_vector({"a": 4.0, "b": 1.0}),
            network.power_vector({"a": 0.0, "b": 6.0}),
            network.power_vector({"a": 2.0, "b": 2.0}),
        ]
        batched = [make_transient_solver(network, s, stepper) for s in starts]
        serial = [make_transient_solver(network, s, stepper) for s in starts]
        for _ in range(5):
            step_lockstep(batched, powers, dt)
            for solver, p in zip(serial, powers):
                solver.step(p, dt)
        # Bit-identical per row: a row's result does not depend on which
        # other rows share the batch.
        for one, many in zip(serial, batched):
            assert np.array_equal(many.temperatures, one.temperatures)
            assert many.time_s == one.time_s

    def test_returns_state_arrays_in_order(self, network, power):
        solvers = [
            ExponentialSolver(network, _perturbed_start(network))
            for _ in range(2)
        ]
        out = step_lockstep(solvers, [power, power], 1e-6)
        assert out[0] is solvers[0]._temps
        assert out[1] is solvers[1]._temps

    def test_rejects_mixed_classes(self, network, power):
        pair = [
            ExponentialSolver(network, _perturbed_start(network)),
            TransientSolver(network, _perturbed_start(network)),
        ]
        with pytest.raises(ThermalModelError):
            step_lockstep(pair, [power, power], 1e-6)

    def test_rejects_different_networks(self, network, power):
        fp = Floorplan(
            [Block("a", 0, 0, 2e-3, 2e-3), Block("b", 2e-3, 0, 2e-3, 2e-3)]
        )
        other = build_thermal_network(fp, ThermalPackage())
        pair = [
            ExponentialSolver(network, _perturbed_start(network)),
            ExponentialSolver(other, _perturbed_start(other)),
        ]
        with pytest.raises(ThermalModelError):
            step_lockstep(pair, [power, power], 1e-6)

    def test_rejects_bad_dt(self, network, power):
        solvers = [ExponentialSolver(network, _perturbed_start(network))]
        with pytest.raises(ThermalModelError):
            step_lockstep(solvers, [power], 0.0)


class TestOperatorCaches:
    def test_lru_evicts_oldest(self):
        cache = _LruCache(2)
        cache.put(1, "a")
        cache.put(2, "b")
        assert cache.get(1) == "a"  # refresh 1; 2 becomes oldest
        cache.put(3, "c")
        assert cache.get(2) is None
        assert cache.get(1) == "a" and cache.get(3) == "c"
        assert len(cache) == 2

    def test_lru_rejects_zero_size(self):
        with pytest.raises(ThermalModelError):
            _LruCache(0)

    @pytest.mark.parametrize("cls", [TransientSolver, ExponentialSolver])
    def test_per_dt_caches_stay_bounded(self, power, cls):
        # Continuous DVS can touch many distinct step lengths; the
        # operator caches must not grow without bound.  The caches live
        # in the network's shared operator bank, so the test runs on a
        # private network to count only its own entries.
        network = _private_network()
        solver = cls(network, _perturbed_start(network))
        for i in range(FACTOR_CACHE_SIZE + 40):
            solver.step(power, 1e-6 + i * 1e-9)
        bank = network.operator_bank
        cache = (
            bank._factors if cls is TransientSolver else bank._propagators
        )
        assert len(cache) <= FACTOR_CACHE_SIZE

    def test_cached_dt_reuse_is_consistent(self, network, power):
        # Revisiting a dt after eviction must rebuild an identical
        # operator: same trajectory as a fresh solver.
        survivor = ExponentialSolver(network, _perturbed_start(network))
        fresh = ExponentialSolver(network, _perturbed_start(network))
        survivor.step(power, 1e-6)
        for i in range(FACTOR_CACHE_SIZE + 8):  # evict the 1e-6 entry
            survivor._bank.propagator(2e-6 + i * 1e-9)
        survivor.step(power, 1e-6)
        fresh.step(power, 1e-6)
        fresh.step(power, 1e-6)
        assert np.allclose(
            survivor.temperatures, fresh.temperatures, atol=1e-12
        )


class TestSteadyStateFactorisationCache:
    def test_factor_computed_once_per_network(self, network):
        first = network.conductance_inverse
        second = network.conductance_inverse
        assert first is second

    def test_solve_steady_matches_direct_solve(self, network, power):
        rhs = power + network.ambient_conductance * network.ambient_c
        direct = np.linalg.solve(network.conductance, rhs)
        assert np.allclose(network.solve_steady(rhs), direct, atol=1e-9)

    def test_conductance_inverse_consistent_with_factor(self, network):
        identity = network.conductance @ network.conductance_inverse
        assert np.allclose(identity, np.eye(network.size), atol=1e-9)


class TestFactory:
    def test_builds_requested_stepper(self, network):
        start = _perturbed_start(network)
        assert isinstance(
            make_transient_solver(network, start), ExponentialSolver
        )
        assert isinstance(
            make_transient_solver(network, start, STEPPER_EXPONENTIAL),
            ExponentialSolver,
        )
        assert isinstance(
            make_transient_solver(network, start, STEPPER_BACKWARD_EULER),
            TransientSolver,
        )

    def test_rejects_unknown_stepper(self, network):
        with pytest.raises(ThermalModelError):
            make_transient_solver(network, _perturbed_start(network), "rk4")
