"""Ablation A3: thermal-model step-size accuracy and cost.

The paper samples power every 10 000 cycles, claiming sampling error below
0.1 % in temperature with under 1 % simulation overhead.  This ablation
integrates the same stepped power trace at several step sizes and compares
against a fine-grained reference.  The cost of each step size is host
timing, reported on the ``[throughput: ...]`` line under the table.
"""

import time

from _helpers import save_table

from repro.analysis import render_table
from repro.floorplan import build_alpha21364_floorplan
from repro.thermal import HotSpotModel

STEP_CYCLES = (1_000, 10_000, 100_000)
FREQUENCY = 3.0e9
TRACE_MS = 2.0


def _power_at(hotspot, time_s):
    """A deterministic, phase-like power schedule (square wave between a
    hot and a cool program phase, 0.5 ms period)."""
    hot = (int(time_s / 0.5e-3) % 2) == 0
    scale = 1.5 if hot else 0.8
    return {name: scale for name in hotspot.block_names}


def _integrate(hotspot, step_cycles):
    solver = hotspot.make_transient()
    network = hotspot.network
    dt = step_cycles / FREQUENCY
    steps = int((TRACE_MS * 1e-3) / dt)
    started = time.perf_counter()
    for index in range(steps):
        powers = _power_at(hotspot, index * dt)
        solver.step(network.power_vector(powers), dt)
    elapsed = time.perf_counter() - started
    temps = network.temperatures_as_mapping(solver.temperatures)
    return temps["IntReg"], elapsed


def _run() -> str:
    hotspot = HotSpotModel(build_alpha21364_floorplan())
    reference_temp, _ = _integrate(hotspot, STEP_CYCLES[0])
    ambient = hotspot.package.ambient_c
    rows = []
    walls = []
    for step_cycles in STEP_CYCLES:
        temp, elapsed = _integrate(hotspot, step_cycles)
        error = abs(temp - reference_temp) / max(reference_temp - ambient, 1e-9)
        rows.append([step_cycles, temp, error * 100.0])
        walls.append(f"{step_cycles}-cycle steps {elapsed:.4f} s")
    table = render_table(
        ["step (cycles)", "IntReg temp (C)", "error vs 1k (%)"],
        rows,
        title="A3: thermal step-size sweep (paper: 10k-cycle steps keep "
              "sampling error below 0.1%)",
    )
    # Host timing stays off the table, which holds simulation output
    # only and so regenerates bit-identically.
    return table + "\n\n[throughput: " + ", ".join(walls) + "]"


def test_a3_thermal_step_size(benchmark):
    table = benchmark.pedantic(_run, rounds=1, iterations=1)
    save_table("a3_thermal_step_size", table)
