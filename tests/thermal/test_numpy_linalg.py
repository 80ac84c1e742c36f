"""The numpy operators agree with scipy's.

The simulator builds its propagators with the module's own Pade
``_expm`` and its backward-Euler and steady-state solves with numpy's
LAPACK bindings; scipy stays the reference they are checked against
here, on the default single-core (20-node) and dual-core (36-node)
networks.
"""

import numpy as np
import pytest
from scipy.linalg import expm, lu_factor, lu_solve

from repro.floorplan import build_alpha21364_floorplan
from repro.multicore.engine import DUAL_CORE_PACKAGE, _build_substrate
from repro.thermal import HotSpotModel, TransientSolver
from repro.thermal.solver import _ambient_source, _expm

STEPS = np.geomspace(1e-8, 1e-1, 29)


@pytest.fixture(scope="module", params=["single_core", "dual_core"])
def network(request):
    # Private networks: the checks below must not fill the operator
    # banks of the process-wide default substrates.
    if request.param == "single_core":
        return HotSpotModel(build_alpha21364_floorplan()).network
    return _build_substrate(DUAL_CORE_PACKAGE)[1].network


def _generator(network):
    return -network.conductance / network.capacitance[:, None]


def _start_and_power(network):
    rng = np.random.default_rng(7)
    start = network.ambient_c + rng.uniform(0.0, 40.0, network.size)
    power = np.zeros(network.size)
    power[network.block_node_indices] = rng.uniform(
        0.0, 4.0, len(network.block_node_indices)
    )
    return start, power


class TestExpm:
    def test_matches_scipy_over_step_lengths(self, network):
        assert network.size in (20, 36)
        generator = _generator(network)
        worst = max(
            np.max(np.abs(_expm(generator * dt) - expm(generator * dt)))
            for dt in STEPS
        )
        assert worst <= 1e-13

    def test_one_by_one(self):
        for value in (-3.0e4, -2.0, 0.0, 0.5):
            a = np.array([[value]])
            assert _expm(a)[0, 0] == pytest.approx(np.exp(value), rel=1e-14)
            assert np.allclose(_expm(a), expm(a), rtol=1e-14, atol=0.0)

    def test_zero_matrix_is_identity(self):
        # The Pade quotient (b_0 I)^{-1} (b_0 I): I to the last ulp.
        eps = np.finfo(float).eps
        for n in (1, 5, 20):
            got = _expm(np.zeros((n, n)))
            assert np.allclose(got, np.eye(n), rtol=0.0, atol=eps)


class TestPropagatorPower:
    @pytest.mark.parametrize("steps", [1, 2, 5, 64, 1000])
    def test_matches_ladder_over_scipy(self, network, steps):
        dt = 2.7e-6
        a_k, b_k = network.operator_bank.propagator_power(dt, steps)
        # The same binary ladder, started from scipy's A_d.
        square = expm(_generator(network) * dt)
        expected = None
        remaining = steps
        while remaining:
            if remaining & 1:
                expected = square if expected is None else square @ expected
            remaining >>= 1
            square = square @ square
        # A_d agrees with scipy's to ~1e-16 at this dt, and a perturbation
        # of the contraction A_d grows at most K-fold in A_d^K.
        assert np.max(np.abs(a_k - expected)) <= steps * 1e-15
        linv = network.conductance_inverse
        b_expected = (np.eye(network.size) - expected) @ linv
        # Relative to the largest entry: B's smallest entries are
        # cancellations of I - A^K near zero.
        scale = np.max(np.abs(b_expected))
        assert np.max(np.abs(b_k - b_expected)) <= 1e-12 * scale


class TestSolves:
    def test_backward_euler_step_matches_lu(self, network):
        start, power = _start_and_power(network)
        for dt in (1e-7, 3.3e-6, 1e-3):
            solver = TransientSolver(network, start)
            got = solver.step(power, dt)
            matrix = np.diag(network.capacitance / dt) + network.conductance
            rhs = network.capacitance / dt * start + power
            rhs += _ambient_source(network)
            expected = lu_solve(lu_factor(matrix), rhs)
            assert np.max(np.abs(got - expected) / np.abs(expected)) <= 1e-12

    def test_solve_steady_matches_lu(self, network):
        _, power = _start_and_power(network)
        rhs = power + _ambient_source(network)
        expected = lu_solve(lu_factor(network.conductance), rhs)
        got = network.solve_steady(rhs)
        assert np.max(np.abs(got - expected) / np.abs(expected)) <= 1e-12
