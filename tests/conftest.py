"""Shared fixtures.

Simulation-backed tests use small instruction budgets and subsets of the
benchmark suite so the whole test run stays fast; the full-scale numbers
live in benchmarks/.
"""

from __future__ import annotations

from dataclasses import replace

import pytest

from repro.floorplan import build_alpha21364_floorplan
from repro.power import PowerModel
from repro.thermal import HotSpotModel
from repro.workloads import Workload, build_benchmark


def short_phase_workload(name: str, scale: int = 25) -> Workload:
    """Benchmark ``name`` with every phase ``scale`` times shorter: a
    handful of thermal steps per phase, so phase boundaries fall inside
    the engines' fused dense spans instead of between them."""
    phases = build_benchmark(name).phases
    return Workload(
        f"{name}/{scale}",
        [replace(p, instructions=p.instructions // scale) for p in phases],
    )


@pytest.fixture(scope="session")
def floorplan():
    """The Alpha 21364 floorplan (immutable; shared session-wide)."""
    return build_alpha21364_floorplan()


@pytest.fixture(scope="session")
def hotspot(floorplan):
    """Thermal model over the default package."""
    return HotSpotModel(floorplan)


@pytest.fixture(scope="session")
def power_model(floorplan):
    """Power model with the default Alpha budget."""
    return PowerModel(floorplan)


@pytest.fixture(scope="session")
def gzip_workload():
    """A hot integer benchmark used by most engine tests."""
    return build_benchmark("gzip")


@pytest.fixture(scope="session")
def mesa_workload():
    """A mild benchmark (barely above trigger)."""
    return build_benchmark("mesa")


@pytest.fixture(scope="session")
def uniform_activities(floorplan):
    """A flat 0.5 activity vector over all blocks."""
    return {name: 0.5 for name in floorplan.block_names}


@pytest.fixture(scope="session")
def warm_temperatures(floorplan):
    """A flat 85 C temperature map over all blocks."""
    return {name: 85.0 for name in floorplan.block_names}
