"""The per-block sensor array and its 10 kHz sampler."""

from __future__ import annotations

import logging
import os
import random
import threading
import weakref
from collections import OrderedDict
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

import numpy as np

from repro.errors import SensorFaultError, SimulationError
from repro.floorplan.floorplan import Floorplan
from repro.obs import events as obs_events
from repro.obs import metrics as obs_metrics
from repro.sensors.faults import SensorFault
from repro.sensors.sensor import SensorParameters, ThermalSensor
from repro.units import KHZ

_LOGGER = logging.getLogger("repro.sensors")

NOISE_BLOCK_ROWS = 64
"""Samples per block of a shared noise stream (see :class:`NoiseTable`):
streams grow a block at a time, so a short run over-draws at most one
block while a long run amortises the per-block draw overhead."""

NOISE_TABLE_BYTES = 64 << 20
"""Memory bound of the process-wide noise table: past it, the least
recently used streams are dropped (and re-drawn, identically, if a
later array asks for them again)."""


class NoiseStream:
    """The noise of one sensor array, drawn once and shared read-only.

    Sensor ``i`` owns a ``random.Random(seeds[i])`` stream, exactly as
    its :class:`~repro.sensors.sensor.ThermalSensor` does: the first
    draw is the fixed offset (:attr:`offsets`), every later draw one
    Gaussian reading noise.  Row ``j`` of the concatenated
    :attr:`blocks` holds each sensor's ``j``-th noise draw, so reading
    rows in order reproduces the scalar path's values bit for bit.
    """

    def __init__(self, key: tuple):
        seeds, params = key
        self.key = key
        self._rngs = [random.Random(seed) for seed in seeds]
        bound = params.max_offset_c
        offsets = np.array([rng.uniform(-bound, bound) for rng in self._rngs])
        offsets.setflags(write=False)
        self.offsets = offsets
        self._sigma = params.noise_sigma_c
        #: Read-only ``(rows, sensors)`` blocks; only ever appended to.
        self.blocks: List[np.ndarray] = []
        self.nbytes = offsets.nbytes

    def _draw_block(self) -> int:
        """Append the next block (caller holds the table lock); returns
        its size in bytes."""
        block = np.empty((NOISE_BLOCK_ROWS, len(self._rngs)))
        sigma = self._sigma
        for i, rng in enumerate(self._rngs):
            gauss = rng.gauss
            block[:, i] = [gauss(0.0, sigma) for _ in range(NOISE_BLOCK_ROWS)]
        block.setflags(write=False)
        self.blocks.append(block)
        self.nbytes += block.nbytes
        return block.nbytes


class NoiseTable:
    """Process-wide :class:`NoiseStream` cache keyed by the sensors'
    seeds plus the frozen :class:`SensorParameters`.

    Every run of a sweep that shares a sensor seed reads the same noise,
    so the streams are drawn once per process instead of once per run;
    each :class:`SensorArray` keeps only a cursor.  Streams grow block
    by block on demand under a lock (a block is published only once
    fully drawn, so readers of existing blocks never wait), and the
    least recently used streams are evicted once the table holds more
    than ``max_bytes``.  An evicted stream stays valid for the arrays
    still reading it.  A forked child gets a fresh lock (and, if the
    lock was held, an empty table), so a pool forked while another
    thread extends a stream can neither deadlock nor read a half-drawn
    stream.
    """

    def __init__(self, max_bytes: int = NOISE_TABLE_BYTES):
        self._max_bytes = max_bytes
        self._streams: OrderedDict = OrderedDict()
        self._bytes = 0
        self._lock = threading.Lock()
        _TABLES.add(self)

    @property
    def nbytes(self) -> int:
        """Bytes held by the streams the table still tracks."""
        return self._bytes

    def __len__(self) -> int:
        return len(self._streams)

    def stream(
        self, seeds: Tuple[int, ...], params: SensorParameters
    ) -> NoiseStream:
        """The (possibly new) stream for these sensor seeds and error
        model; marks it most recently used."""
        key = (seeds, params)
        with self._lock:
            stream = self._streams.get(key)
            if stream is None:
                stream = self._streams[key] = NoiseStream(key)
                self._bytes += stream.nbytes
                self._evict(stream)
            else:
                self._streams.move_to_end(key)
        return stream

    def block(self, stream: NoiseStream, index: int) -> np.ndarray:
        """Block ``index`` of ``stream``, drawing it (and any before it)
        if no array has needed it yet."""
        blocks = stream.blocks
        if index < len(blocks):
            return blocks[index]
        with self._lock:
            tracked = self._streams.get(stream.key) is stream
            while len(blocks) <= index:
                grown = stream._draw_block()
                if tracked:
                    self._bytes += grown
            if tracked:
                self._streams.move_to_end(stream.key)
                self._evict(stream)
        return blocks[index]

    def _evict(self, keep: NoiseStream) -> None:
        """Drop least recently used streams other than ``keep`` until
        the table fits its bound (caller holds the lock)."""
        for key, victim in list(self._streams.items()):
            if self._bytes <= self._max_bytes:
                break
            if victim is not keep:
                del self._streams[key]
                self._bytes -= victim.nbytes


_TABLES: "weakref.WeakSet[NoiseTable]" = weakref.WeakSet()


def _reinit_locks_after_fork() -> None:
    # A parent thread may have been drawing a block when another thread
    # forked: in the child its lock would never be released, and the
    # stream it was extending may have advanced some sensors' RNGs
    # without publishing the block.  Give the child a fresh lock, and
    # drop the streams (they re-draw identically) if the lock was held.
    for table in list(_TABLES):
        if table._lock.locked():
            table._streams.clear()
            table._bytes = 0
        table._lock = threading.Lock()


if hasattr(os, "register_at_fork"):  # POSIX only
    os.register_at_fork(after_in_child=_reinit_locks_after_fork)

NOISE_TABLE = NoiseTable()
"""The table every :class:`SensorArray` reads its vector-path noise from."""


class SensorArray:
    """One :class:`ThermalSensor` in the middle of each floorplan block.

    ``sampling_rate_hz`` limits how often the DTM controller can obtain
    fresh readings (10 kHz in the paper -- "aggressive but reasonable").
    The array tracks the time of the last sample; :meth:`due` tells the
    simulation engine when the next sample may be taken.

    ``faults`` attaches one :class:`~repro.sensors.faults.SensorFault`
    per named block (stuck-at, dropout, extra offset; see
    :mod:`repro.sensors.faults`).  Dropped-out sensors are skipped when
    sampling -- the controller keeps operating on the survivors -- but
    an array with *no* live sensor raises
    :class:`~repro.errors.SensorFaultError` instead of returning an
    empty (and silently violation-free) sample.

    The vector paths (:meth:`sample_vector`, :meth:`sample_hottest`)
    read their noise from the process-wide :data:`NOISE_TABLE`, so
    arrays with the same seed share one stream and each keeps only a
    cursor into it; the scalar :meth:`sample` path draws from the
    sensors' own streams, which produce the same values.
    """

    def __init__(
        self,
        floorplan: Floorplan,
        parameters: Optional[SensorParameters] = None,
        sampling_rate_hz: float = 10.0 * KHZ,
        seed: int = 0,
        faults: Optional[Sequence[SensorFault]] = None,
    ):
        if sampling_rate_hz <= 0.0:
            raise SimulationError("sampling rate must be > 0")
        self._params = parameters if parameters is not None else SensorParameters()
        self._period_s = 1.0 / sampling_rate_hz
        by_block: Dict[str, SensorFault] = {}
        for fault in faults or ():
            if fault.block not in floorplan.block_names:
                raise SimulationError(
                    f"sensor fault names unknown block {fault.block!r}"
                )
            if fault.block in by_block:
                raise SimulationError(
                    f"block {fault.block!r} has more than one sensor fault"
                )
            by_block[fault.block] = fault
        if by_block:
            # Fault-plan application used to be silent; a degraded array
            # changes every downstream statistic, so say so.
            _LOGGER.warning(
                "sensor array built with %d faulted sensor(s): %s",
                len(by_block),
                ", ".join(sorted(by_block)),
            )
            obs_metrics.inc("sensors.faults_attached", len(by_block))
            obs_events.emit(
                "sensors.faults_attached",
                count=len(by_block),
                blocks=",".join(sorted(by_block)),
            )
        self._faults = by_block
        self._seeds = tuple(
            seed * 1009 + index for index in range(len(floorplan.block_names))
        )
        self._names = tuple(floorplan.block_names)
        self._has_faults = bool(by_block)
        # The scalar path's per-sensor streams, built on first use (a
        # fault-free array on the vector path never needs them).
        self._sensors: Optional[Dict[str, ThermalSensor]] = None
        self._last_sample_s = -self._period_s  # first sample due at t = 0
        # Vector-path state: the shared noise stream (looked up on first
        # use), the number of noise draws consumed per sensor, and the
        # stream block holding the next draw.
        self._stream: Optional[NoiseStream] = None
        self._cursor = 0
        self._block: Optional[np.ndarray] = None
        self._vector_reads = False

    def _scalar_sensors(self) -> Dict[str, ThermalSensor]:
        if self._sensors is None:
            self._sensors = {
                name: ThermalSensor(
                    self._params, seed=seed, fault=self._faults.get(name)
                )
                for name, seed in zip(self._names, self._seeds)
            }
        return self._sensors

    def reset(self) -> None:
        """Rewind the array to construction state.

        Re-seeds every scalar sensor's RNG stream and rewinds the vector
        path's cursor to the start of its shared noise stream, so a
        reset array replays bit-identical readings on a repeated run
        (the engine contract's reset-reentrancy guarantee).
        """
        if self._sensors is not None:
            for sensor in self._sensors.values():
                sensor.reset()
        self._last_sample_s = -self._period_s
        self._cursor = 0
        self._block = None
        self._vector_reads = False

    @property
    def parameters(self) -> SensorParameters:
        """Shared sensor error model."""
        return self._params

    @property
    def sampling_period_s(self) -> float:
        """Time between samples in seconds."""
        return self._period_s

    @property
    def block_names(self) -> tuple:
        """Blocks covered by the array."""
        return self._names

    @property
    def vector_eligible(self) -> bool:
        """True when :meth:`sample_vector` reproduces :meth:`sample`
        exactly: no injected sensor faults (stuck/offset/dropout
        handling stays on the scalar path)."""
        return not self._has_faults

    def offset_of(self, block: str) -> float:
        """Fixed offset of one block's sensor."""
        try:
            return self._scalar_sensors()[block].offset_c
        except KeyError:
            raise SimulationError(f"no sensor on block {block!r}") from None

    @property
    def next_due_s(self) -> float:
        """Earliest simulation time at which the next sample is due.

        The engine's constant-power fast-forward clips its jumps to this
        boundary so the policy sees exactly the sample times (and the
        sensors draw exactly the noise sequence) of explicit stepping.
        """
        return self._last_sample_s + self._period_s

    def due(self, time_s: float) -> bool:
        """True when a new sample may be taken at simulation time
        ``time_s`` (at least one sampling period since the last)."""
        return time_s - self._last_sample_s >= self._period_s - 1e-12

    def sample(
        self, true_temps_c: Mapping[str, float], time_s: float
    ) -> Dict[str, float]:
        """Read every sensor once, marking ``time_s`` as the sample time.

        The engine should call this only when :meth:`due` is true; calling
        early raises, which catches controllers that assume a faster
        sampling rate than the hardware provides.
        """
        if not self.due(time_s):
            raise SimulationError(
                f"sensor sample at t={time_s * 1e6:.1f} us violates the "
                f"{self._period_s * 1e6:.0f} us sampling period"
            )
        if self._vector_reads:
            # The vector path read ahead in the shared stream while the
            # scalar sensors' own streams stood still, so a scalar read
            # here would silently diverge from the pure-scalar sequence.
            raise SimulationError(
                "cannot mix sample() and sample_vector() on one array: "
                "the vectorized path has consumed noise the scalar "
                "sensors have not"
            )
        self._last_sample_s = time_s
        # One noise draw per sensor: a vector read after scalar ones
        # continues the stream where they left off.
        self._cursor += 1
        readings: Dict[str, float] = {}
        for name, sensor in self._scalar_sensors().items():
            if not sensor.alive:
                continue
            if name not in true_temps_c:
                raise SimulationError(f"no true temperature for block {name!r}")
            readings[name] = sensor.read(true_temps_c[name])
        if not readings:
            _LOGGER.error(
                "every sensor in the array has dropped out at t=%.6gs",
                time_s,
            )
            obs_events.emit("sensors.all_dropped_out", time_s=time_s)
            raise SensorFaultError(
                "every sensor in the array has dropped out; the DTM "
                "controller has no thermal observability"
            )
        return readings

    def _vector_readings(
        self, true_temps_c: np.ndarray, time_s: float
    ) -> np.ndarray:
        """Shared body of the vector paths: the per-block readings
        ``quantise(true + offset + noise)`` as a fresh array."""
        if self._has_faults:
            raise SimulationError(
                "vector sampling is only valid on a fault-free array; "
                "use sample() so per-sensor faults apply"
            )
        if not self.due(time_s):
            raise SimulationError(
                f"sensor sample at t={time_s * 1e6:.1f} us violates the "
                f"{self._period_s * 1e6:.0f} us sampling period"
            )
        self._last_sample_s = time_s
        self._vector_reads = True
        stream = self._stream
        if stream is None:
            stream = self._stream = NOISE_TABLE.stream(
                self._seeds, self._params
            )
        values = true_temps_c + stream.offsets
        if self._params.noise_sigma_c > 0.0:
            index, row = divmod(self._cursor, NOISE_BLOCK_ROWS)
            if row == 0 or self._block is None:
                self._block = NOISE_TABLE.block(stream, index)
            values += self._block[row]
            self._cursor += 1
        step = self._params.quantisation_c
        if step > 0.0:
            values /= step
            values.round(out=values)
            values *= step
        return values

    def sample_vector(
        self, true_temps_c: np.ndarray, time_s: float
    ) -> Dict[str, float]:
        """Read every sensor once from a temperature *vector*.

        The fast-path form of :meth:`sample` for the simulation engine:
        ``true_temps_c`` holds the block temperatures in
        :attr:`block_names` order, and the whole array is read with a
        handful of NumPy operations.  Readings are bit-identical to the
        scalar path -- same offsets, same per-sensor noise streams
        (drawn once per process into the shared :data:`NOISE_TABLE`),
        same round-half-even quantisation --
        which the equivalence tests assert.  Only valid on a fault-free
        array (:attr:`vector_eligible`); faulted arrays keep the scalar
        path's per-sensor handling.
        """
        values = self._vector_readings(true_temps_c, time_s)
        return dict(zip(self._names, values.tolist()))

    def sample_hottest(self, true_temps_c: np.ndarray, time_s: float) -> float:
        """Read every sensor once and return only the hottest reading.

        The fused-sensing form of :meth:`sample_vector` for policies
        that consume nothing but the array maximum (the paper's
        trigger/emergency comparisons): same offsets, same shared
        per-sensor noise streams, same round-half-even quantisation --
        the per-block values are computed identically and the maximum of
        identical values is order-independent, so the returned float is
        bit-identical to ``max(sample_vector(...).values())`` -- but no
        per-sample dict is built.  Only valid on a fault-free array
        (:attr:`vector_eligible`).
        """
        values = self._vector_readings(true_temps_c, time_s)
        return float(np.maximum.reduce(values))

    @staticmethod
    def max_reading(readings: Mapping[str, float]) -> float:
        """The hottest observed temperature across the array."""
        if not readings:
            raise SimulationError("empty sensor readings")
        return max(readings.values())
