"""Engine configuration."""

import pytest

from repro.errors import SimulationError
from repro.sim import EngineConfig

NAN = float("nan")
INF = float("inf")


def test_defaults_match_paper():
    config = EngineConfig()
    assert config.thermal_step_cycles == 10_000
    assert config.dvs_switch_time_s == pytest.approx(10e-6)
    assert config.dvs_mode == "stall"


def test_ideal_mode_accepted():
    assert EngineConfig(dvs_mode="ideal").dvs_mode == "ideal"


def test_rejects_unknown_mode():
    with pytest.raises(SimulationError):
        EngineConfig(dvs_mode="free")


def test_rejects_tiny_thermal_step():
    with pytest.raises(SimulationError):
        EngineConfig(thermal_step_cycles=10)


def test_rejects_negative_switch_time():
    # Every time field must be finite and non-negative: a NaN or
    # infinite stall would poison the run's elapsed time.
    for field, value in (
        ("dvs_switch_time_s", -1e-6),
        ("dvs_switch_time_s", NAN),
        ("dvs_switch_time_s", INF),
        ("migration_time_s", -1e-6),
        ("migration_time_s", NAN),
        ("migration_time_s", INF),
    ):
        with pytest.raises(SimulationError):
            EngineConfig(**{field: value})


def test_rejects_non_positive_drift_tolerance():
    # The stride divides each span's leakage drift by this tolerance, so
    # zero, negative and non-finite values are refused up front.
    for value in (0.0, -1e-3, NAN, INF):
        with pytest.raises(SimulationError):
            EngineConfig(stride_drift_tol_w=value)
