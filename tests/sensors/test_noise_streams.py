"""Shared sensor-noise streams.

The vector sampling path (``sample_vector`` / ``sample_hottest``) reads
its noise from the process-wide :class:`~repro.sensors.array.NoiseTable`
instead of per-array RNG refills.  Whatever the table's state -- empty,
filled by other arrays with the same seed, extended by another thread --
every reading must equal the scalar ``sample()`` path's reading exactly.
"""

import os
import sys
import threading
import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.floorplan import build_alpha21364_floorplan
from repro.sensors import SensorArray, SensorParameters
from repro.sensors import array as array_module
from repro.sensors.array import NOISE_BLOCK_ROWS, NoiseTable

FLOORPLAN = build_alpha21364_floorplan()
NAMES = FLOORPLAN.block_names
PERIOD_S = 1.0e-4

parameters = st.builds(
    SensorParameters,
    noise_sigma_c=st.sampled_from([0.0, 1.0 / 3.0]) | st.floats(0.0, 2.0),
    max_offset_c=st.sampled_from([0.0, 2.0]) | st.floats(0.0, 5.0),
    quantisation_c=st.sampled_from([0.0, 0.1]) | st.floats(0.01, 1.0),
)


def _temps(index: int) -> np.ndarray:
    """A deterministic, sample-dependent temperature vector."""
    rng = np.random.default_rng(index)
    return 60.0 + 40.0 * rng.random(len(NAMES))


def _scalar_readings(seed, params, count):
    """Reference readings from the scalar path, one dict per sample."""
    scalar = SensorArray(FLOORPLAN, parameters=params, seed=seed)
    return [
        scalar.sample(dict(zip(NAMES, _temps(i))), i * PERIOD_S)
        for i in range(count)
    ]


class TestVectorEqualsScalar:
    @settings(max_examples=40, deadline=None)
    @given(
        seed=st.integers(0, 10**6),
        count=st.integers(1, 3 * NOISE_BLOCK_ROWS + 5),
        params=parameters,
    )
    def test_vector_and_hottest_match_scalar(self, seed, count, params):
        expected = _scalar_readings(seed, params, count)
        vector = SensorArray(FLOORPLAN, parameters=params, seed=seed)
        hottest = SensorArray(FLOORPLAN, parameters=params, seed=seed)
        for i, reference in enumerate(expected):
            time_s = i * PERIOD_S
            assert vector.sample_vector(_temps(i), time_s) == reference
            assert hottest.sample_hottest(_temps(i), time_s) == max(
                reference.values()
            )

    @settings(max_examples=25, deadline=None)
    @given(
        seed=st.integers(0, 10**6),
        params=parameters,
        schedule=st.lists(
            st.tuples(st.integers(0, 3), st.integers(1, 90)),
            min_size=1,
            max_size=12,
        ),
    )
    def test_interleaved_same_seed_arrays(self, seed, params, schedule):
        # The lockstep pattern: several arrays over one seed, each at
        # its own position in the shared stream, read in turns.
        total = sum(reads for _, reads in schedule)
        expected = _scalar_readings(seed, params, total)
        arrays = [
            SensorArray(FLOORPLAN, parameters=params, seed=seed)
            for _ in range(4)
        ]
        done = [0] * len(arrays)
        for which, reads in schedule:
            for _ in range(reads):
                i = done[which]
                got = arrays[which].sample_vector(_temps(i), i * PERIOD_S)
                assert got == expected[i]
                done[which] += 1

    @settings(max_examples=25, deadline=None)
    @given(
        seed=st.integers(0, 10**6),
        params=parameters,
        before=st.integers(0, 2 * NOISE_BLOCK_ROWS + 3),
        after=st.integers(1, 2 * NOISE_BLOCK_ROWS + 3),
    )
    def test_reset_mid_run_replays_from_the_start(
        self, seed, params, before, after
    ):
        expected = _scalar_readings(seed, params, max(before, after))
        array = SensorArray(FLOORPLAN, parameters=params, seed=seed)
        for i in range(before):
            array.sample_vector(_temps(i), i * PERIOD_S)
        array.reset()
        for i in range(after):
            assert array.sample_vector(_temps(i), i * PERIOD_S) == expected[i]

    def test_scalar_reads_then_vector_reads_continue_the_stream(self):
        params = SensorParameters()
        expected = _scalar_readings(41, params, 3 * NOISE_BLOCK_ROWS)
        array = SensorArray(FLOORPLAN, parameters=params, seed=41)
        # First run: vector reads into the third block; then a reset
        # and a second run that starts on the scalar path.
        for i in range(2 * NOISE_BLOCK_ROWS + 5):
            array.sample_vector(_temps(i), i * PERIOD_S)
        array.reset()
        for i in range(NOISE_BLOCK_ROWS + 3):
            array.sample(dict(zip(NAMES, _temps(i))), i * PERIOD_S)
        for i in range(NOISE_BLOCK_ROWS + 3, 3 * NOISE_BLOCK_ROWS):
            assert array.sample_vector(_temps(i), i * PERIOD_S) == expected[i]


class TestConcurrentExtension:
    def test_threads_extending_one_stream_agree_with_serial(self):
        params = SensorParameters()
        seeds = tuple(range(500, 515))
        blocks = 6
        serial = NoiseTable()
        reference = serial.stream(seeds, params)
        for index in range(blocks):
            serial.block(reference, index)

        table = NoiseTable()
        stream = table.stream(seeds, params)
        errors = []

        def extend():
            try:
                for index in range(blocks):
                    table.block(stream, index)
            except Exception as exc:  # pragma: no cover - reported below
                errors.append(exc)

        previous = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            workers = [threading.Thread(target=extend) for _ in range(8)]
            for worker in workers:
                worker.start()
            for worker in workers:
                worker.join(timeout=60.0)
        finally:
            sys.setswitchinterval(previous)
        assert not any(worker.is_alive() for worker in workers)
        assert not errors
        # A lost update would draw a block twice (shifting every later
        # draw) or skip one: the count and every value must match.
        assert len(stream.blocks) == blocks
        for got, want in zip(stream.blocks, reference.blocks):
            assert np.array_equal(got, want)
        assert table.nbytes == serial.nbytes

    def test_threads_reading_one_seed_match_scalar(self, monkeypatch):
        # End to end through SensorArray, on an empty table so the
        # threads race to extend the same stream.
        monkeypatch.setattr(array_module, "NOISE_TABLE", NoiseTable())
        params = SensorParameters()
        count = 3 * NOISE_BLOCK_ROWS + 7
        expected = _scalar_readings(77, params, count)
        mismatches = []

        def read():
            array = SensorArray(FLOORPLAN, parameters=params, seed=77)
            for i in range(count):
                if array.sample_vector(_temps(i), i * PERIOD_S) != expected[i]:
                    mismatches.append(i)

        previous = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            workers = [threading.Thread(target=read) for _ in range(6)]
            for worker in workers:
                worker.start()
            for worker in workers:
                worker.join(timeout=60.0)
        finally:
            sys.setswitchinterval(previous)
        assert not any(worker.is_alive() for worker in workers)
        assert not mismatches


@pytest.mark.skipif(not hasattr(os, "fork"), reason="needs os.fork")
def test_child_forked_while_lock_held_can_extend():
    # A pool forked while another thread holds the table lock inherits
    # it held; the child must get a fresh lock instead of deadlocking,
    # and must not trust streams that thread may have been extending.
    seeds, params = tuple(range(900, 904)), SensorParameters()
    reference = NoiseTable()
    expected = reference.block(reference.stream(seeds, params), 2)
    table = NoiseTable()
    table.block(table.stream(seeds, params), 0)
    with table._lock:
        pid = os.fork()
        if pid == 0:  # pragma: no cover - child process
            code = 1
            try:
                dropped = len(table) == 0
                stream = table.stream(seeds, params)
                same = np.array_equal(table.block(stream, 2), expected)
                code = 0 if dropped and same else 2
            finally:
                os._exit(code)
    deadline = time.monotonic() + 30.0
    while True:
        done, status = os.waitpid(pid, os.WNOHANG)
        if done:
            break
        if time.monotonic() > deadline:
            os.kill(pid, 9)
            os.waitpid(pid, 0)
            pytest.fail("forked child deadlocked on the noise-table lock")
        time.sleep(0.01)
    assert os.waitstatus_to_exitcode(status) == 0
