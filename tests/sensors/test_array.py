"""Per-block sensor array and sampling-rate enforcement."""

import numpy as np
import pytest

from repro.errors import SimulationError
from repro.sensors import SensorArray, SensorParameters
from repro.sensors.array import NOISE_BLOCK_ROWS, NoiseTable
from repro.sensors.faults import SensorFault


@pytest.fixture()
def array(floorplan):
    return SensorArray(floorplan, seed=0)


def flat_temps(floorplan, value=85.0):
    return {name: value for name in floorplan.block_names}


class TestCoverage:
    def test_one_sensor_per_block(self, array, floorplan):
        assert set(array.block_names) == set(floorplan.block_names)

    def test_sample_covers_all_blocks(self, array, floorplan):
        readings = array.sample(flat_temps(floorplan), 0.0)
        assert set(readings) == set(floorplan.block_names)

    def test_missing_temperature_raises(self, array):
        with pytest.raises(SimulationError):
            array.sample({"IntReg": 85.0}, 0.0)


class TestSamplingRate:
    def test_default_is_10khz(self, array):
        assert array.sampling_period_s == pytest.approx(100e-6)

    def test_first_sample_due_immediately(self, array):
        assert array.due(0.0)

    def test_early_resample_rejected(self, array, floorplan):
        array.sample(flat_temps(floorplan), 0.0)
        assert not array.due(50e-6)
        with pytest.raises(SimulationError):
            array.sample(flat_temps(floorplan), 50e-6)

    def test_resample_after_period(self, array, floorplan):
        array.sample(flat_temps(floorplan), 0.0)
        assert array.due(100e-6)
        array.sample(flat_temps(floorplan), 100e-6)

    def test_rejects_non_positive_rate(self, floorplan):
        with pytest.raises(SimulationError):
            SensorArray(floorplan, sampling_rate_hz=0.0)


class TestErrors:
    def test_per_block_offsets_differ(self, array):
        offsets = {array.offset_of(name) for name in array.block_names}
        assert len(offsets) > len(array.block_names) // 2

    def test_offset_lookup_unknown_block(self, array):
        with pytest.raises(SimulationError):
            array.offset_of("nope")

    def test_ideal_array_reads_exactly(self, floorplan):
        array = SensorArray(
            floorplan, parameters=SensorParameters.ideal(), seed=0
        )
        readings = array.sample(flat_temps(floorplan, 83.4), 0.0)
        assert all(v == pytest.approx(83.4) for v in readings.values())

    def test_seeded_reproducibility(self, floorplan):
        temps = flat_temps(floorplan)
        a = SensorArray(floorplan, seed=11).sample(temps, 0.0)
        b = SensorArray(floorplan, seed=11).sample(temps, 0.0)
        assert a == b

    def test_max_reading(self, array, floorplan):
        readings = {"a": 1.0, "b": 3.0}
        assert SensorArray.max_reading(readings) == 3.0
        with pytest.raises(SimulationError):
            SensorArray.max_reading({})


class TestVectorPath:
    """The engine's vectorized sensing fast path.

    ``sample_vector`` must be *bit-identical* to ``sample``: same fixed
    offsets, same per-sensor noise streams (read from the shared noise
    table's blocks), same round-half-even quantisation.
    """

    def _vector_temps(self, array, temps):
        return np.array([temps[name] for name in array.block_names])

    def test_bit_identical_to_scalar_across_chunk_refills(self, floorplan):
        scalar = SensorArray(floorplan, seed=7)
        vector = SensorArray(floorplan, seed=7)
        temps = flat_temps(floorplan)
        vec = self._vector_temps(vector, temps)
        period = scalar.sampling_period_s
        # Enough samples to cross several noise-block boundaries, so
        # block turnover is exercised too.
        count = NOISE_BLOCK_ROWS + NOISE_BLOCK_ROWS * 2 + 10
        for i in range(count):
            time_s = i * period
            assert scalar.sample(temps, time_s) == vector.sample_vector(
                vec, time_s
            )

    def test_noise_table_memory_is_bounded(self):
        # Every distinct seed adds a stream; past the byte bound the
        # least recently used streams go, and a stream an array still
        # reads stays valid for it.
        params = SensorParameters()

        def seeds(k):
            return tuple(k * 1009 + i for i in range(4))

        first = None
        table = NoiseTable(max_bytes=1 << 14)
        for k in range(200):
            stream = table.stream(seeds(k), params)
            block = table.block(stream, 1)
            if first is None:
                first, first_block = stream, block
            assert table.nbytes <= 1 << 14
        assert len(table) < 200
        # The evicted first stream is still readable, unchanged and
        # extensible (outside the table's count); a fresh lookup of its
        # key re-draws identical noise.
        assert table.block(first, 1) is first_block
        table.block(first, 3)
        assert table.nbytes <= 1 << 14
        again = table.stream(seeds(0), params)
        assert again is not first
        assert np.array_equal(table.block(again, 1), first_block)

    def test_fault_free_array_is_vector_eligible(self, array):
        assert array.vector_eligible

    def test_faulted_array_is_not_vector_eligible(self, floorplan):
        faulted = SensorArray(
            floorplan, seed=0, faults=(SensorFault.dropout("FPMul"),)
        )
        assert not faulted.vector_eligible
        vec = self._vector_temps(faulted, flat_temps(floorplan))
        with pytest.raises(SimulationError, match="fault-free"):
            faulted.sample_vector(vec, 0.0)

    def test_mixing_scalar_reads_into_vector_stream_raises(self, floorplan):
        array = SensorArray(floorplan, seed=0)
        vec = self._vector_temps(array, flat_temps(floorplan))
        array.sample_vector(vec, 0.0)
        with pytest.raises(SimulationError, match="mix"):
            array.sample(flat_temps(floorplan), array.sampling_period_s)

    def test_vector_respects_sampling_period(self, floorplan):
        array = SensorArray(floorplan, seed=0)
        vec = self._vector_temps(array, flat_temps(floorplan))
        array.sample_vector(vec, 0.0)
        with pytest.raises(SimulationError, match="sampling period"):
            array.sample_vector(vec, array.sampling_period_s / 10.0)

    def test_ideal_vector_reads_exactly(self, floorplan):
        array = SensorArray(
            floorplan, parameters=SensorParameters.ideal(), seed=0
        )
        vec = self._vector_temps(array, flat_temps(floorplan, 83.4))
        readings = array.sample_vector(vec, 0.0)
        assert all(v == pytest.approx(83.4) for v in readings.values())
