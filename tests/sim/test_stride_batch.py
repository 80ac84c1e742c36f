"""Batch-composition independence of the batched stride proof.

The driver proves the stride tasks of a lockstep round together
(``repro.sim.stride.serve_strides``).  That is only sound for the
lockstep results if a row's verdict does not depend on which rows share
its batch: every row's bounds, drift band, verdict and applied jump must
be bit-equal to proving that row alone.  Rows here are drawn at random:
temperatures near a steady state plus noise, spans of 2-40 steps,
nominal and DVS-low operating points, cold, warm and segment modes, and
thresholds placed near the trajectory so every verdict occurs.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sim.batch import _default_substrate
from repro.sim.stride import (
    ACCEPT,
    COLD,
    REJECT,
    REJECT_REASONS,
    SEGMENT,
    WARM,
    StrideTask,
    serve_strides,
)
from repro.thermal.solver import ExponentialSolver, steady_state

STEP_CYCLES = 10_000

_row = st.fixed_dictionaries(
    {
        "seed": st.integers(0, 2**32 - 1),
        "steps": st.integers(2, 40),
        "dvs_low": st.booleans(),
        "mode": st.sampled_from((COLD, WARM, SEGMENT)),
        "measuring": st.booleans(),
        "tol": st.sampled_from((1e-3, 1e-4)),
    }
)


def _substrate():
    _floorplan, hotspot, power = _default_substrate()
    return hotspot.network, power


def _make(row, mode=None):
    """A fresh (solver, task, dt, steps) request for one drawn row."""
    network, power = _substrate()
    rng = np.random.default_rng(row["seed"])
    tech = power.technology
    voltage = tech.vdd_nominal * (0.85 if row["dvs_low"] else 1.0)
    frequency = power.vf_curve.frequency(voltage)
    dt = STEP_CYCLES / frequency
    rows = network.block_node_indices
    acts = rng.uniform(0.05, 0.9, rows.size)
    settled = steady_state(
        network,
        network.power_vector(
            dict(
                zip(
                    network.block_names,
                    power.block_powers_vector(
                        acts, voltage, frequency, np.full(rows.size, 70.0)
                    ),
                )
            )
        ),
    )
    temps = settled + rng.normal(0.0, 0.5, settled.size)
    solver = ExponentialSolver(network, temps)
    blocks = power.block_powers_vector(
        acts, voltage, frequency, temps[rows], check=False
    ).copy()
    node_power = np.zeros(network.size)
    node_power[rows] = blocks
    hottest = float(temps[rows].max())
    # Half the rows put the trigger right at the hottest block, where
    # envelopes straddle it; the rest anywhere within a few kelvin.
    near = 0.02 if rng.random() < 0.5 else 1.5
    trigger = hottest + rng.uniform(-near, near)
    task = StrideTask(
        solver.span_probe(rows),
        power.leakage_vector_w,
        row["tol"],
        trigger,
        trigger + rng.uniform(0.1, 3.0),
        False,
    )
    task.blocks[:] = blocks
    np.subtract(
        blocks, power.dynamic_vector_w(acts, voltage, frequency), out=task.leak0
    )
    task.power, task.power_row = node_power, node_power[None]
    task.voltage, task.frequency = voltage, frequency
    task.span_s = row["steps"] * dt
    task.measuring = row["measuring"]
    mode = row["mode"] if mode is None else mode
    if mode == WARM:
        # The band a cold proof of this span guesses, cached and then
        # scaled: some too narrow to close, some wide enough to split.
        cold = _make(row, COLD)
        serve_strides([cold])
        task.band[...] = cold[1].band * rng.choice((1e-3, 1.0, 1.0, 8.0))
    task.arm(mode)
    return solver, task, dt, row["steps"]


def _outcome(request, reply):
    solver, task, _, _ = request
    return (
        task.verdict,
        task.reason,
        task.n_seg,
        task.violations,
        task.trigger_s,
        task.band.tobytes(),
        None if reply is None else reply.tobytes(),
    )


class TestBatchIndependence:
    @settings(max_examples=60, deadline=None)
    @given(st.lists(_row, min_size=1, max_size=9))
    def test_each_row_matches_proving_it_alone(self, rows):
        batch = [_make(row) for row in rows]
        replies = serve_strides(batch)
        for row, request, reply in zip(rows, batch, replies):
            alone = _make(row)
            (alone_reply,) = serve_strides([alone])
            assert _outcome(request, reply) == _outcome(alone, alone_reply)
            verdict, reason = request[1].verdict, request[1].reason
            assert verdict == ACCEPT or (
                verdict == REJECT and reason in REJECT_REASONS
            )

    @settings(max_examples=40, deadline=None)
    @given(st.lists(_row, min_size=1, max_size=9))
    def test_probe_rows_match_alone_and_the_reference_envelope(self, rows):
        batch = [_make(row) for row in rows]
        probe = batch[0][1].probe
        temps, decay = probe.gather(
            [solver for solver, _, _, _ in batch],
            [task.span_s for _, task, _, _ in batch],
        )
        temps, decay = temps.copy(), decay.copy()
        power = np.concatenate([task.power_row for _, task, _, _ in batch])
        envelope = probe.bounds(temps, power, decay).copy()
        pairs = np.stack(
            [np.stack([task.blocks, 0.9 * task.blocks]) for _, task, _, _ in batch]
        )
        widened = probe.widened(temps, pairs, decay).copy()
        node_rows = probe.basis.rows
        for i, (solver, task, _, _) in enumerate(batch):
            alone = probe.bounds(temps[i:i + 1], power[i:i + 1], decay[i:i + 1])
            assert alone.tobytes() == envelope[i:i + 1].tobytes()
            alone = probe.widened(temps[i:i + 1], pairs[i:i + 1], decay[i:i + 1])
            assert alone.tobytes() == widened[i:i + 1].tobytes()
            lower, upper = solver.span_envelope(task.power, task.span_s)
            np.testing.assert_allclose(envelope[i, 0], upper[node_rows], rtol=1e-9)
            np.testing.assert_allclose(envelope[i, 1], lower[node_rows], rtol=1e-9)


class TestVerdictCoverage:
    def test_random_rows_reach_every_verdict(self):
        # The drawn thresholds and tolerances are meant to exercise every
        # branch of the proof; check that a fixed sample of rows does.
        rng = np.random.default_rng(7)
        seen = set()
        for seed in range(300):
            row = {
                "seed": int(rng.integers(2**32)),
                "steps": int(rng.integers(2, 41)),
                "dvs_low": bool(seed % 2),
                "mode": (COLD, WARM, SEGMENT)[seed % 3],
                "measuring": seed % 5 != 0,
                "tol": (1e-3, 1e-4)[seed % 2],
            }
            request = _make(row)
            serve_strides([request])
            task = request[1]
            seen.add(task.reason or task.verdict)
            if task.n_seg > 1:
                seen.add("split")
        assert {ACCEPT, "split", *REJECT_REASONS} <= seen
