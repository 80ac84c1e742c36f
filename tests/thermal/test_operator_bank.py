"""The per-network operator bank shared by every solver and probe.

Sharing is only safe when nothing a run does can reach another run:
bank arrays are read-only, a poisoned or fallen-back solver leaves the
bank untouched, and every bank entry equals the per-solver computation
it replaced bit for bit.
"""

import sys
import threading

import numpy as np
import pytest
from scipy.linalg import expm

from repro.errors import NumericalError
from repro.floorplan import Block, Floorplan
from repro.thermal import ThermalPackage, TransientSolver, build_thermal_network
from repro.thermal.solver import ExponentialSolver, OperatorBank, _dt_key

DT = 1.0e-5


def _network():
    fp = Floorplan(
        [Block("a", 0, 0, 2e-3, 2e-3), Block("b", 2e-3, 0, 2e-3, 2e-3)]
    )
    return build_thermal_network(fp, ThermalPackage())


@pytest.fixture()
def network():
    # Function-scoped: a test that fills the bank must not leave its
    # entries for the next one.
    return _network()


def _start(network):
    start = np.full(network.size, network.ambient_c)
    start[network.index_of("a")] += 12.0
    return start


def _power(network):
    return network.power_vector({"a": 5.0, "b": 2.0})


def _trajectory(solver, power, steps=5):
    for _ in range(steps):
        solver.step(power, DT)
    solver.fast_forward(power, DT, 9)
    return solver.temperatures


class TestSharing:
    def test_one_bank_per_network(self, network):
        first = ExponentialSolver(network, _start(network))
        second = TransientSolver(network, _start(network))
        assert first._bank is network.operator_bank
        assert second._bank is network.operator_bank
        third = ExponentialSolver(network, _start(network))
        assert third._bank.propagator(DT) is first._bank.propagator(DT)

    def test_probes_share_their_basis(self, network):
        rows = network.block_node_indices
        one = ExponentialSolver(network, _start(network)).span_probe(rows)
        two = ExponentialSolver(network, _start(network)).span_probe(rows)
        assert one._basis is two._basis
        # ... but not their buffers.
        assert one._weights is not two._weights

    def test_entries_equal_a_fresh_computation(self, network):
        bank = network.operator_bank
        generator = -network.conductance / network.capacitance[:, None]
        a_d, b_d = bank.propagator(DT)
        assert np.array_equal(a_d, expm(generator * DT))
        assert np.array_equal(
            b_d,
            (np.eye(network.size) - a_d) @ network.conductance_inverse,
        )
        # K = 5 = 0b101: the squaring ladder's A^4 applied to A.
        a_k, _ = bank.propagator_power(DT, 5)
        a_2 = a_d @ a_d
        assert np.array_equal(a_k, (a_2 @ a_2) @ a_d)


class TestReadOnly:
    def _bank_arrays(self, network):
        bank = network.operator_bank
        lu, piv, c_over_dt, _ = bank.factorisation(DT)
        rates, vectors = bank.modes
        basis = bank.probe_basis(network.block_node_indices)
        arrays = [
            *bank.propagator(DT),
            *bank.propagator_power(DT, 6),
            lu,
            piv,
            c_over_dt,
            rates,
            vectors,
            bank.ambient_source,
            bank.generator,
            bank.linv,
            bank.c_sqrt,
            bank.inv_c_sqrt,
            basis.row_basis,
            basis.vectors_t,
            basis.vectors,
            basis.linv_t,
            basis.linv_rows,
            basis.decay(7 * DT),
        ]
        return arrays

    def test_every_bank_array_rejects_writes(self, network):
        for array in self._bank_arrays(network):
            with pytest.raises(ValueError, match="read-only"):
                array[...] = 0.0
            with pytest.raises(ValueError, match="read-only"):
                array *= 2

    def test_solver_writes_only_its_own_state(self, network):
        power = _power(network)
        bank = network.operator_bank
        before = [array.copy() for array in self._bank_arrays(network)]
        solver = ExponentialSolver(network, _start(network))
        _trajectory(solver, power)
        probe = solver.span_probe(network.block_node_indices)
        probe.bounds(power, 7 * DT)
        probe.widened(np.stack([power, power]), 7 * DT)
        TransientSolver(network, _start(network)).step(power, DT)
        for kept, array in zip(before, self._bank_arrays(network)):
            assert np.array_equal(kept, array)
        assert network.operator_bank is bank


class TestIsolation:
    def test_poisoned_solver_cannot_reach_a_fresh_one(self, network):
        power = _power(network)
        poisoned = ExponentialSolver(network, _start(network))
        # Corruption goes into a private bank: the only way to change
        # the operators one solver sees.
        poisoned._bank = OperatorBank(network)
        a_d, b_d = poisoned._bank.propagator(DT)
        poisoned._bank._propagators.put(
            _dt_key(DT), (a_d * 1.0e30, b_d)
        )
        poisoned.step(power, DT)
        assert poisoned.fallback_active

        fresh = ExponentialSolver(network, _start(network))
        reference = ExponentialSolver(_network(), _start(network))
        assert not fresh.fallback_active
        assert np.array_equal(
            _trajectory(fresh, power), _trajectory(reference, power)
        )

    def test_fallen_back_solver_leaves_the_shared_bank_intact(self, network):
        power = _power(network)
        solver = ExponentialSolver(network, _start(network))
        solver._bank = OperatorBank(network)
        a_k, b_k = solver._bank.propagator_power(DT, 9)
        solver._bank._powers.put((_dt_key(DT), 9), (a_k * 1e30, b_k))
        solver.fast_forward(power, DT, 9)
        assert solver.fallback_active
        shared_a, _ = network.operator_bank.propagator_power(DT, 9)
        assert np.array_equal(shared_a, a_k)
        assert np.all(np.abs(shared_a) < 1.0 + 1e-12)

    def test_diverged_solver_does_not_affect_neighbours(self, network):
        power = _power(network)
        broken = ExponentialSolver(network, _start(network))
        bad = power.copy()
        bad[network.index_of("b")] = np.nan
        with pytest.raises(NumericalError):
            broken.step(bad, DT)
        fresh = ExponentialSolver(network, _start(network))
        reference = ExponentialSolver(_network(), _start(network))
        assert np.array_equal(
            _trajectory(fresh, power), _trajectory(reference, power)
        )


def test_threads_composing_powers_agree_with_serial():
    # Threads missing on the same dt at once share the squaring ladder;
    # an append lost or duplicated under a race would compose a wrong
    # power, so every (dt, K) entry must equal a serial computation.
    # Many distinct dts, each walked up its ladder one rung at a time,
    # in the same order on every thread so that they collide.
    keys = [
        (dt, k)
        for dt in np.linspace(1e-6, 5e-5, 40)
        for k in (2, 3, 5, 9, 17, 33, 65, 129)
    ]
    serial = _network().operator_bank
    expected = {key: serial.propagator_power(*key) for key in keys}
    bank = _network().operator_bank
    mismatches = []

    def compose():
        for key in keys:
            a_k, b_k = bank.propagator_power(*key)
            want_a, want_b = expected[key]
            if not (
                np.array_equal(a_k, want_a) and np.array_equal(b_k, want_b)
            ):
                mismatches.append(key)

    previous = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        workers = [threading.Thread(target=compose) for _ in range(6)]
        for worker in workers:
            worker.start()
        for worker in workers:
            worker.join(timeout=60.0)
    finally:
        sys.setswitchinterval(previous)
    assert not any(worker.is_alive() for worker in workers)
    assert not mismatches
