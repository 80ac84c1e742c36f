"""Vectorized power evaluation versus the scalar reference path.

``block_powers_vector`` is the engine's hot path; ``block_powers`` wraps
it for mapping-based callers; :func:`block_powers_reference` below
preserves the original per-block composition of ``dynamic_power`` and
``leakage_power`` as the numerical oracle.  All three must agree to
machine precision.
"""

import numpy as np
import pytest

from repro.errors import PowerModelError
from repro.power.dynamic import dynamic_power
from repro.power.leakage import leakage_power
from repro.power.technology import default_technology

TECH = default_technology()
NOMINAL_V = TECH.vdd_nominal
NOMINAL_F = TECH.frequency_nominal


def block_powers_reference(
    power_model, activities, voltage, frequency, temperatures,
    clock_enabled_fraction=1.0,
):
    """Scalar per-block evaluation (the pre-vectorization path): compose
    ``dynamic_power`` and ``leakage_power`` block by block."""
    tech = power_model.technology
    v_rel = tech.relative_voltage(voltage)
    f_rel = frequency / tech.frequency_nominal
    powers = {}
    for name in power_model.block_names:
        if isinstance(clock_enabled_fraction, (int, float)):
            gate = clock_enabled_fraction
        else:
            gate = clock_enabled_fraction.get(name, 1.0)
        spec = power_model.spec(name)
        dyn = dynamic_power(spec, activities[name], v_rel, f_rel, gate)
        leak = leakage_power(
            spec.leakage_ref_w, v_rel, temperatures[name],
            power_model.leakage_params,
        )
        powers[name] = dyn + leak
    return powers


def _random_inputs(power_model, seed):
    rng = np.random.default_rng(seed)
    names = power_model.block_names
    activities = {n: float(a) for n, a in zip(names, rng.uniform(0, 1, len(names)))}
    temps = {n: float(t) for n, t in zip(names, rng.uniform(45, 110, len(names)))}
    return activities, temps


class TestVectorAgainstReference:
    @pytest.mark.parametrize("seed", [0, 1, 2])
    @pytest.mark.parametrize(
        "voltage,frequency",
        [
            (NOMINAL_V, NOMINAL_F),
            (NOMINAL_V * 0.85, NOMINAL_F * 0.7),
        ],
    )
    def test_mapping_wrapper_matches_reference(
        self, power_model, seed, voltage, frequency
    ):
        activities, temps = _random_inputs(power_model, seed)
        wrapped = power_model.block_powers(activities, voltage, frequency, temps)
        reference = block_powers_reference(
            power_model, activities, voltage, frequency, temps
        )
        for name in power_model.block_names:
            assert wrapped[name] == pytest.approx(reference[name], rel=1e-12)

    def test_global_clock_gate_matches_reference(self, power_model):
        activities, temps = _random_inputs(power_model, 7)
        for gate in (0.25, 1.0):
            wrapped = power_model.block_powers(
                activities, NOMINAL_V, NOMINAL_F, temps, gate
            )
            reference = block_powers_reference(
                power_model, activities, NOMINAL_V, NOMINAL_F, temps, gate
            )
            for name in power_model.block_names:
                assert wrapped[name] == pytest.approx(
                    reference[name], rel=1e-12
                )

    def test_per_block_clock_gate_matches_reference(self, power_model):
        activities, temps = _random_inputs(power_model, 11)
        gates = {"IntReg": 0.3, "IntExec": 0.5}
        wrapped = power_model.block_powers(
            activities, NOMINAL_V, NOMINAL_F, temps, gates
        )
        reference = block_powers_reference(
            power_model, activities, NOMINAL_V, NOMINAL_F, temps, gates
        )
        for name in power_model.block_names:
            assert wrapped[name] == pytest.approx(reference[name], rel=1e-12)

    def test_check_false_matches_check_true(self, power_model):
        n = len(power_model.block_names)
        rng = np.random.default_rng(13)
        acts = rng.uniform(0, 1, n)
        temps = rng.uniform(45, 110, n)
        checked = power_model.block_powers_vector(
            acts, NOMINAL_V, NOMINAL_F, temps
        )
        unchecked = power_model.block_powers_vector(
            acts, NOMINAL_V, NOMINAL_F, temps, check=False
        )
        assert (checked == unchecked).all()


class TestVectorValidation:
    def test_bad_activity_shape(self, power_model):
        with pytest.raises(PowerModelError, match="shape"):
            power_model.block_powers_vector(
                np.zeros(3), NOMINAL_V, NOMINAL_F, np.zeros(3)
            )

    def test_out_of_range_activity_names_block(self, power_model):
        n = len(power_model.block_names)
        acts = np.zeros(n)
        acts[4] = 1.5
        with pytest.raises(PowerModelError, match=power_model.block_names[4]):
            power_model.block_powers_vector(
                acts, NOMINAL_V, NOMINAL_F, np.full(n, 85.0)
            )

    def test_out_of_range_gate_vector(self, power_model):
        n = len(power_model.block_names)
        gate = np.ones(n)
        gate[2] = -0.1
        with pytest.raises(PowerModelError, match="clock fraction"):
            power_model.block_powers_vector(
                np.zeros(n), NOMINAL_V, NOMINAL_F, np.full(n, 85.0), gate
            )

    def test_operating_point_checked_even_unchecked(self, power_model):
        """check=False skips array validation only -- an illegal (V, f)
        still raises, on the first use of that operating point."""
        n = len(power_model.block_names)
        with pytest.raises(PowerModelError, match="exceeds"):
            power_model.block_powers_vector(
                np.zeros(n),
                NOMINAL_V * 0.8,
                NOMINAL_F,
                np.full(n, 85.0),
                check=False,
            )

    def test_block_index_roundtrip(self, power_model):
        for i, name in enumerate(power_model.block_names):
            assert power_model.block_index(name) == i
        with pytest.raises(PowerModelError):
            power_model.block_index("NoSuchBlock")
