"""The block-level power model facade.

:class:`PowerModel` combines the dynamic and leakage components and speaks
in per-block mappings, so the co-simulation engine never touches the
individual formulas.
"""

from __future__ import annotations

from typing import Dict, Mapping, Optional, Union

import numpy as np

from repro.errors import PowerModelError
from repro.floorplan.floorplan import Floorplan
from repro.power.budget import default_power_specs
from repro.power.dynamic import BlockPowerSpec
from repro.power.leakage import LeakageParameters
from repro.power.technology import Technology, default_technology
from repro.power.vf_curve import VoltageFrequencyCurve


def _scalar(value: float) -> np.ndarray:
    """``value`` as a read-only 0-d float64 array."""
    array = np.array(value, dtype=float)
    array.setflags(write=False)
    return array


class PowerModel:
    """Computes per-block power from activities, operating point and
    temperatures.

    Parameters
    ----------
    floorplan:
        Defines the block set; every block needs a spec.
    specs:
        Per-block power characteristics; defaults to the Alpha budget.
    technology:
        Process parameters; defaults to 130 nm / 1.3 V / 3 GHz.
    leakage_params:
        Leakage curve shape.
    """

    def __init__(
        self,
        floorplan: Floorplan,
        specs: Optional[Mapping[str, BlockPowerSpec]] = None,
        technology: Optional[Technology] = None,
        leakage_params: Optional[LeakageParameters] = None,
    ):
        self._floorplan = floorplan
        self._specs = dict(specs) if specs is not None else default_power_specs()
        self._tech = technology if technology is not None else default_technology()
        self._leakage = (
            leakage_params if leakage_params is not None else LeakageParameters()
        )
        missing = [n for n in floorplan.block_names if n not in self._specs]
        if missing:
            raise PowerModelError(f"no power spec for blocks: {missing}")
        self._vf_curve = VoltageFrequencyCurve(self._tech)
        # Per-block spec coefficients in floorplan order, precomputed once
        # so the hot path can evaluate all blocks with a handful of array
        # operations instead of two Python calls per block per step.
        self._names = tuple(floorplan.block_names)
        self._index = {name: i for i, name in enumerate(self._names)}
        self._peak_dynamic_w = np.array(
            [self._specs[n].peak_dynamic_w for n in self._names]
        )
        self._clock_fraction = np.array(
            [self._specs[n].clock_fraction for n in self._names]
        )
        self._leakage_ref_w = np.array(
            [self._specs[n].leakage_ref_w for n in self._names]
        )
        # Handed out by leakage_coefficients(); never written after this.
        self._leakage_ref_w.setflags(write=False)
        # The scalar leakage operands as 0-d arrays: a Python float
        # operand is converted to an array on every ufunc call, which
        # on a ~17-block vector costs about as much as the arithmetic.
        self._ref_temp_c = _scalar(self._leakage.reference_temp_c)
        self._beta_per_k = _scalar(self._leakage.beta_per_k)
        # Dynamic power split into its activity-independent and
        # activity-proportional parts, so the hot path evaluates
        # ``base + slope * activity`` without forming the intermediate
        # switching-fraction array.
        self._dyn_base_w = self._peak_dynamic_w * self._clock_fraction
        self._dyn_act_w = self._peak_dynamic_w * (1.0 - self._clock_fraction)
        self._dyn_buf = np.empty(len(self._names))
        self._leak_buf = np.empty(len(self._names))
        # (voltage, frequency) -> (dynamic scale, leakage scale); DTM uses
        # a handful of operating points per run, so validating and scaling
        # each once keeps the per-step cost to pure array arithmetic.
        self._op_cache: Dict[tuple, tuple] = {}

    # --- introspection -----------------------------------------------------------

    @property
    def floorplan(self) -> Floorplan:
        """The floorplan the model covers."""
        return self._floorplan

    @property
    def technology(self) -> Technology:
        """Process parameters."""
        return self._tech

    @property
    def vf_curve(self) -> VoltageFrequencyCurve:
        """The voltage-to-frequency curve for this technology."""
        return self._vf_curve

    @property
    def leakage_params(self) -> LeakageParameters:
        """Leakage curve shape."""
        return self._leakage

    @property
    def block_names(self) -> tuple:
        """Block names in the model's evaluation (floorplan) order."""
        return self._names

    def block_index(self, block: str) -> int:
        """Position of ``block`` in the vectorized evaluation order."""
        try:
            return self._index[block]
        except KeyError:
            raise PowerModelError(f"no power spec for block {block!r}") from None

    def spec(self, block: str) -> BlockPowerSpec:
        """Power spec of one block."""
        try:
            return self._specs[block]
        except KeyError:
            raise PowerModelError(f"no power spec for block {block!r}") from None

    # --- evaluation --------------------------------------------------------------

    def _check_operating_point(self, voltage: float, frequency: float) -> float:
        """Validate (V, f) against the curve; return the relative voltage."""
        v_rel = self._tech.relative_voltage(voltage)
        f_max = self._vf_curve.frequency(voltage)
        if frequency > f_max * (1.0 + 1e-9):
            raise PowerModelError(
                f"frequency {frequency / 1e9:.3f} GHz exceeds the maximum "
                f"{f_max / 1e9:.3f} GHz allowed at {voltage} V"
            )
        if frequency <= 0.0:
            raise PowerModelError("frequency must be > 0")
        return v_rel

    def _operating_point(self, voltage: float, frequency: float) -> tuple:
        """Validated ``(dynamic scale, leakage scale)`` for (V, f), cached
        per distinct operating point; the leakage scale is a 0-d array
        (it only ever multiplies the leakage vector)."""
        key = (voltage, frequency)
        cached = self._op_cache.get(key)
        if cached is None:
            v_rel = self._check_operating_point(voltage, frequency)
            f_rel = frequency / self._tech.frequency_nominal
            cached = (
                v_rel * v_rel * f_rel,
                _scalar(v_rel**self._leakage.voltage_exponent),
            )
            if len(self._op_cache) >= 256:
                self._op_cache.clear()
            self._op_cache[key] = cached
        return cached

    def block_powers_vector(
        self,
        activities: np.ndarray,
        voltage: float,
        frequency: float,
        temperatures: np.ndarray,
        clock_enabled_fraction: Union[float, np.ndarray] = 1.0,
        check: bool = True,
    ) -> np.ndarray:
        """Total (dynamic + leakage) power of every block as one array.

        This is the hot-path form of :meth:`block_powers`: inputs and
        output are arrays over :attr:`block_names` (floorplan order), and
        all per-block spec coefficients were precomputed at construction,
        so one call costs a handful of numpy operations regardless of the
        block count.

        Parameters
        ----------
        activities:
            (n_blocks,) switching activities in [0, 1], floorplan order.
        voltage, frequency:
            Operating point, validated against the V/f curve.
        temperatures:
            (n_blocks,) block temperatures in Celsius for the leakage term.
        clock_enabled_fraction:
            Scalar clock-enabled fraction, or an (n_blocks,) array for
            per-block gating (local toggling).
        check:
            Validate array shapes and value ranges.  The simulation inner
            loop passes ``False`` for inputs it constructed itself; the
            operating point is always validated (once per distinct
            (V, f)).

        Returns
        -------
        numpy.ndarray
            (n_blocks,) total power in watts, floorplan order.  With
            ``check=False`` the returned array is an internal buffer
            reused by the next call -- consume or copy it immediately.
        """
        n = len(self._names)
        acts = activities
        temps = temperatures
        gate: Union[float, np.ndarray] = clock_enabled_fraction
        if check:
            acts = np.asarray(acts, dtype=float)
            temps = np.asarray(temps, dtype=float)
            if acts.shape != (n,):
                raise PowerModelError(
                    f"activities have shape {acts.shape}, expected ({n},)"
                )
            if temps.shape != (n,):
                raise PowerModelError(
                    f"temperatures have shape {temps.shape}, expected ({n},)"
                )
            if np.any((acts < 0.0) | (acts > 1.0)):
                bad = int(np.argmax((acts < 0.0) | (acts > 1.0)))
                raise PowerModelError(
                    f"block {self._names[bad]!r}: activity {acts[bad]} "
                    f"outside [0, 1]"
                )
            if isinstance(gate, (int, float)):
                gate = float(gate)
                if not 0.0 <= gate <= 1.0:
                    raise PowerModelError(
                        f"clock enabled fraction {gate} outside [0, 1]"
                    )
            else:
                gate = np.asarray(gate, dtype=float)
                if gate.shape != (n,):
                    raise PowerModelError(
                        f"clock gate vector has shape {gate.shape}, "
                        f"expected ({n},)"
                    )
                if np.any((gate < 0.0) | (gate > 1.0)):
                    bad = int(np.argmax((gate < 0.0) | (gate > 1.0)))
                    raise PowerModelError(
                        f"block {self._names[bad]!r}: clock fraction "
                        f"{gate[bad]} outside [0, 1]"
                    )
        dyn_scale, leak_scale = self._operating_point(voltage, frequency)
        # All arithmetic lands in two preallocated buffers: on a
        # ~17-block chip the per-call cost is numpy dispatch, not flops,
        # so every avoided temporary counts.
        out = self._dyn_buf
        np.multiply(self._dyn_act_w, acts, out)
        out += self._dyn_base_w
        if isinstance(gate, np.ndarray):
            out *= gate
            out *= dyn_scale
        else:
            out *= gate * dyn_scale
        leak = self._leak_buf
        np.subtract(temps, self._ref_temp_c, leak)
        leak *= self._beta_per_k
        np.exp(leak, leak)
        leak *= leak_scale
        leak *= self._leakage_ref_w
        out += leak
        return out.copy() if check else out

    def dynamic_vector_w(
        self,
        activities: np.ndarray,
        voltage: float,
        frequency: float,
        clock_enabled_fraction: Union[float, np.ndarray] = 1.0,
        out: Optional[np.ndarray] = None,
    ) -> np.ndarray:
        """The dynamic-power half of :meth:`block_powers_vector`.

        Runs the identical float operations in the identical order as
        the dynamic portion of the fused call, so
        ``dynamic_vector_w(...) + leakage_vector_w(...)`` decomposes a
        ``block_powers_vector`` result exactly (the engine's
        event-driven stride relies on this to isolate leakage drift,
        and the fused span loops to evaluate the dynamic part once per
        phase run and only the leakage on every step).
        Inputs are trusted (no validation); pass ``out`` to avoid
        clobbering the model's internal buffers.
        """
        if out is None:
            out = np.empty(len(self._names))
        dyn_scale, _ = self._operating_point(voltage, frequency)
        gate = clock_enabled_fraction
        np.multiply(self._dyn_act_w, activities, out)
        out += self._dyn_base_w
        if isinstance(gate, np.ndarray):
            out *= gate
            out *= dyn_scale
        else:
            out *= gate * dyn_scale
        return out

    def leakage_vector_w(
        self,
        temperatures: np.ndarray,
        voltage: float,
        frequency: float,
        out: Optional[np.ndarray] = None,
    ) -> np.ndarray:
        """The leakage half of :meth:`block_powers_vector`.

        Exponential-in-temperature leakage at the given operating point,
        computed with the same float operations as the fused call (see
        :meth:`dynamic_vector_w`).  Inputs are trusted; pass ``out`` to
        avoid clobbering the model's internal buffers.
        """
        if out is None:
            out = np.empty(len(self._names))
        _, leak_scale = self._operating_point(voltage, frequency)
        np.subtract(temperatures, self._ref_temp_c, out)
        out *= self._beta_per_k
        np.exp(out, out)
        out *= leak_scale
        out *= self._leakage_ref_w
        return out

    def leakage_coefficients(self, voltage: float, frequency: float) -> tuple:
        """The leakage operands of :meth:`leakage_vector_w` at (V, f).

        Returns ``(reference_temp_c, beta_per_k, leak_scale,
        leakage_ref_w)``: three shared, read-only 0-d arrays and the
        shared, read-only per-block array.  Applying ``subtract
        reference_temp_c``, ``* beta_per_k``, ``exp``, ``* leak_scale``
        and ``* leakage_ref_w`` in that order to the block temperatures
        reproduces :meth:`leakage_vector_w` bit for bit; the fused span
        loops look the operating point up once per span and run the
        five ufuncs inline on every step.
        """
        _, leak_scale = self._operating_point(voltage, frequency)
        return (
            self._ref_temp_c,
            self._beta_per_k,
            leak_scale,
            self._leakage_ref_w,
        )

    def block_powers(
        self,
        activities: Mapping[str, float],
        voltage: float,
        frequency: float,
        temperatures: Mapping[str, float],
        clock_enabled_fraction: Union[float, Mapping[str, float]] = 1.0,
    ) -> Dict[str, float]:
        """Total (dynamic + leakage) power per block, in watts.

        A thin mapping-based wrapper over :meth:`block_powers_vector` for
        callers that speak ``{block: value}``; the simulation hot path
        uses the vector form directly.

        Parameters
        ----------
        activities:
            Per-block switching activity in [0, 1]; every floorplan block
            must be present.
        voltage:
            Supply voltage in volts.
        frequency:
            Clock frequency in hertz (must respect the V/f curve; validated
            against the curve with a small tolerance).
        temperatures:
            Per-block temperatures in Celsius for the leakage term.
        clock_enabled_fraction:
            Fraction of the interval the clock runs: a single number for
            global clock gating, or a per-block mapping (missing blocks
            default to 1.0) for local toggling of individual clock
            domains.
        """
        n = len(self._names)
        acts = np.empty(n)
        temps = np.empty(n)
        for i, name in enumerate(self._names):
            if name not in activities:
                raise PowerModelError(f"no activity given for block {name!r}")
            if name not in temperatures:
                raise PowerModelError(f"no temperature given for block {name!r}")
            acts[i] = activities[name]
            temps[i] = temperatures[name]
        if isinstance(clock_enabled_fraction, (int, float)):
            gate: Union[float, np.ndarray] = clock_enabled_fraction
        else:
            gate = np.array(
                [clock_enabled_fraction.get(name, 1.0) for name in self._names]
            )
        vector = self.block_powers_vector(acts, voltage, frequency, temps, gate)
        return {name: float(vector[i]) for i, name in enumerate(self._names)}

    def total_power(
        self,
        activities: Mapping[str, float],
        voltage: float,
        frequency: float,
        temperatures: Mapping[str, float],
        clock_enabled_fraction: Union[float, Mapping[str, float]] = 1.0,
    ) -> float:
        """Chip-wide power in watts for the given operating point."""
        return sum(
            self.block_powers(
                activities, voltage, frequency, temperatures, clock_enabled_fraction
            ).values()
        )
