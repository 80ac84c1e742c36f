"""Steady-state and transient solvers for thermal RC networks.

The governing equation (temperatures in Celsius, ambient folded into the
source term) is::

    C dT/dt = P + g_amb * T_amb - L T

Steady state is one linear solve (against a factorisation cached on the
network).  Transients offer two steppers behind one interface:

* :class:`TransientSolver` -- backward Euler,
  ``(C/dt + L) T_{k+1} = (C/dt) T_k + P + g_amb * T_amb``,
  unconditionally stable, LU-factorised once per distinct dt.  Kept as
  the regression anchor.
* :class:`ExponentialSolver` -- the *exact* discrete propagator for the
  LTI network, ``T_{k+1} = A_d T_k + B_d u`` with
  ``A_d = expm(-C^{-1} L dt)`` and ``B_d = (I - A_d) L^{-1}``: one
  ~n x n matvec pair per step instead of a factorized solve, no
  time-discretisation error, plus closed-form multi-step fast-forward
  ``T_{k+K} = A_d^K T_k + (I - A_d^K) T_ss`` for constant-power spans.

Every operator that depends only on the network and the step length --
per-dt propagators and factorisations, the ``(dt, K)`` powers, the modal
basis, the :class:`SpanProbe` basis -- lives in one read-only
:class:`OperatorBank` per network (:attr:`ThermalNetwork.operator_bank
<repro.thermal.rc_model.ThermalNetwork.operator_bank>`), so a sweep of
many runs over one network builds each operator once.  The per-dt
entries (dt rounded to femtosecond granularity) sit behind small LRUs,
because DVS changes the cycle time and continuous-DVS sweeps can touch
many distinct step lengths over a long sweep.  Solvers and probes own
only their state vector and scratch buffers.
"""

from __future__ import annotations

import logging
from collections import OrderedDict
from functools import cached_property
from typing import Optional, Tuple

import numpy as np
from scipy.linalg import expm, lu_factor
from scipy.linalg.lapack import get_lapack_funcs

from repro.errors import NumericalError, ThermalModelError
from repro.thermal.rc_model import ThermalNetwork

_LOGGER = logging.getLogger("repro.thermal")

STEPPER_BACKWARD_EULER = "be"
STEPPER_EXPONENTIAL = "expm"

DIVERGENCE_LIMIT_C = 1.0e4
"""Any node magnitude beyond this (in Celsius) counts as divergence: no
physical trajectory of the package leaves [-100, 500] C, so 10^4 flags
blow-ups early while never tripping on a legitimate transient.  NaN and
Inf fail the same comparison, so one vector predicate covers all three
health hazards."""


def _healthy(values: np.ndarray) -> bool:
    """True when every entry is finite and within the divergence limit.

    Written as two direct ufunc reductions (no ``.min()``/``.max()``
    wrapper frames, no ``np.abs`` temporary; ``axis=None`` covers the
    lockstep's 2-D stacks): a NaN anywhere poisons both reductions, so
    the comparisons come back False exactly as the predicate form did.
    """
    lo = np.minimum.reduce(values, axis=None)
    hi = np.maximum.reduce(values, axis=None)
    return bool(-DIVERGENCE_LIMIT_C < lo <= hi < DIVERGENCE_LIMIT_C)


def _bad_node_name(network: ThermalNetwork, values: np.ndarray) -> str:
    """Name of the first unhealthy node (a block name where possible)."""
    bad = np.where(~(np.abs(values) < DIVERGENCE_LIMIT_C))[0]
    index = int(bad[0]) if bad.size else 0
    for name, node in zip(network.block_names, network.block_node_indices):
        if int(node) == index:
            return name
    return f"node{index}"

FACTOR_CACHE_SIZE = 64
"""Per-dt operator cache bound (LU factors / propagators): multi-step or
continuous DVS creates one entry per distinct dt, so long sweeps need a
cap; 64 covers every realistic level ladder without thrash."""

POWER_CACHE_SIZE = 128
"""Cache bound for composed ``(dt, K)`` fast-forward propagators."""


class _LruCache:
    """A tiny least-recently-used mapping for per-dt solver operators.

    Safe to share between threads without a lock: each ``OrderedDict``
    call is atomic under the interpreter lock, and the only effect of
    two threads interleaving is an entry refreshed or evicted early
    (the ``KeyError`` of a key another thread just evicted is ignored).
    """

    def __init__(self, maxsize: int):
        if maxsize < 1:
            raise ThermalModelError("cache size must be >= 1")
        self._maxsize = maxsize
        self._data: OrderedDict = OrderedDict()

    def __len__(self) -> int:
        return len(self._data)

    def get(self, key):
        value = self._data.get(key)
        if value is not None:
            try:
                self._data.move_to_end(key)
            except KeyError:
                pass
        return value

    def put(self, key, value) -> None:
        self._data[key] = value
        try:
            self._data.move_to_end(key)
            while len(self._data) > self._maxsize:
                self._data.popitem(last=False)
        except KeyError:
            pass


def _frozen(*arrays: np.ndarray):
    """Mark bank arrays read-only (so an in-place write raises) and
    return them: one array as itself, several as a tuple."""
    for array in arrays:
        array.setflags(write=False)
    return arrays[0] if len(arrays) == 1 else arrays


def _dt_key(dt: float) -> int:
    return int(round(dt * 1e15))


class OperatorBank:
    """The run-invariant operators of one :class:`ThermalNetwork`.

    Everything here is a pure function of the network and a step or
    span length: the backward-Euler factorisations and exponential
    propagators per dt, the binary-exponentiation squarings, the
    composed ``(dt, K)`` powers, the modal basis of the whitened
    operator, and the row-restricted :class:`SpanProbe` bases with their
    decay vectors.  One bank per network
    (:attr:`~repro.thermal.rc_model.ThermalNetwork.operator_bank`) is
    shared by every solver and probe over it, so a sweep whose runs
    share a substrate builds each operator once per process instead of
    once per run.  Each entry is computed by exactly the expression a
    per-solver cache used, so every value is bit-identical to a fresh
    computation.

    Shared means immutable: every bank array is read-only, so a solver
    writing into one raises instead of corrupting its neighbours, and
    a cached squaring ladder is extended on a copy, so threads missing
    on the same dt at once can only duplicate work.  The per-dt LRU
    bounds (:data:`FACTOR_CACHE_SIZE`, :data:`POWER_CACHE_SIZE`) apply
    to the bank.
    """

    def __init__(self, network: ThermalNetwork):
        self._network = network
        self.ambient_source = _frozen(_ambient_source(network))
        #: -C^{-1} L: the generator of the continuous dynamics.
        self.generator = _frozen(
            -network.conductance / network.capacitance[:, None]
        )
        self.linv = _frozen(network.conductance_inverse.view())
        #: Capacitance weights for the trajectory envelope bound (see
        #: :meth:`ExponentialSolver.span_envelope`).
        self.c_sqrt = _frozen(np.sqrt(network.capacitance))
        self.inv_c_sqrt = _frozen(1.0 / self.c_sqrt)
        self._factors = _LruCache(FACTOR_CACHE_SIZE)
        self._propagators = _LruCache(FACTOR_CACHE_SIZE)
        self._squarings = _LruCache(FACTOR_CACHE_SIZE)
        self._powers = _LruCache(POWER_CACHE_SIZE)
        self._probe_bases = _LruCache(FACTOR_CACHE_SIZE)

    def factorisation(self, dt: float):
        """``(lu, piv, C/dt, getrs)`` of ``C/dt + L`` for backward Euler."""
        key = _dt_key(dt)
        cached = self._factors.get(key)
        if cached is None:
            c_over_dt = self._network.capacitance / dt
            matrix = np.diag(c_over_dt) + self._network.conductance
            lu, piv = lu_factor(matrix)
            # Bind the LAPACK triangular solve directly: it is what
            # lu_solve calls after several layers of validation, which
            # dominate the cost of solving a ~17-node system once per
            # thermal step.
            getrs, = get_lapack_funcs(("getrs",), (lu,))
            cached = (*_frozen(lu, piv, c_over_dt), getrs)
            self._factors.put(key, cached)
        return cached

    def propagator(self, dt: float) -> Tuple[np.ndarray, np.ndarray]:
        """``(A_d, B_d)`` for one step of ``dt`` seconds."""
        key = _dt_key(dt)
        cached = self._propagators.get(key)
        if cached is None:
            a_d = expm(self.generator * dt)
            b_d = (np.eye(self._network.size) - a_d) @ self.linv
            cached = _frozen(
                np.ascontiguousarray(a_d), np.ascontiguousarray(b_d)
            )
            self._propagators.put(key, cached)
        return cached

    def propagator_power(
        self, dt: float, steps: int
    ) -> Tuple[np.ndarray, np.ndarray]:
        """``(A_d^K, (I - A_d^K) L^{-1})`` composed from cached squarings.

        Run-length spans repeat the same K (steps to the next sensor
        sample), so the composed pair is cached per ``(dt, K)``; the
        binary-exponentiation squarings are cached per dt.
        """
        key = (_dt_key(dt), steps)
        cached = self._powers.get(key)
        if cached is None:
            # Extend a copy of the cached ladder: the cached list is
            # shared with any thread composing over the same dt.
            squarings = list(
                self._squarings.get(key[0]) or [self.propagator(dt)[0]]
            )
            result: Optional[np.ndarray] = None
            bit = 0
            remaining = steps
            while remaining:
                while bit >= len(squarings):
                    squarings.append(_frozen(squarings[-1] @ squarings[-1]))
                if remaining & 1:
                    power = squarings[bit]
                    result = power if result is None else power @ result
                remaining >>= 1
                bit += 1
            self._squarings.put(key[0], squarings)
            b_k = (np.eye(self._network.size) - result) @ self.linv
            cached = _frozen(
                np.ascontiguousarray(result), np.ascontiguousarray(b_k)
            )
            self._powers.put(key, cached)
        return cached

    @cached_property
    def modes(self) -> Tuple[np.ndarray, np.ndarray]:
        """``(rates, vectors)``: eigendecomposition of the whitened
        operator ``Ã = C^{-1/2} L C^{-1/2}`` (symmetric positive
        definite)."""
        whitened = self._network.conductance * np.outer(
            self.inv_c_sqrt, self.inv_c_sqrt
        )
        rates, vectors = np.linalg.eigh(0.5 * (whitened + whitened.T))
        return _frozen(rates, vectors)

    def probe_basis(self, rows: np.ndarray) -> "_ProbeBasis":
        """The :class:`SpanProbe` basis restricted to node ``rows``."""
        key = rows.tobytes()
        cached = self._probe_bases.get(key)
        if cached is None:
            cached = _ProbeBasis(self, rows)
            self._probe_bases.put(key, cached)
        return cached


class _ProbeBasis:
    """Read-only operators of a :class:`SpanProbe` over one row subset,
    shared through the network's :class:`OperatorBank`."""

    def __init__(self, bank: OperatorBank, rows: np.ndarray):
        rates, vectors = bank.modes
        linv = bank.linv
        self.ambient_source = bank.ambient_source
        self.linv = linv
        self.c_sqrt = bank.c_sqrt
        self.rows = _frozen(rows.copy())
        self.rates = rates
        self.vectors_t = _frozen(np.ascontiguousarray(vectors.T))
        # Row-restricted, capacitance-unwhitened basis: row i of
        # ``row_basis * coeffs`` is node rows[i]'s modal weight vector.
        self.row_basis = _frozen(
            np.ascontiguousarray(vectors[rows] * bank.inv_c_sqrt[rows, None])
        )
        # Steady-state response of the row subset to extra power *on*
        # the row subset: bounds the trajectory shift from a power
        # perturbation confined to those nodes (see ``response_bound``).
        self.linv_rows = _frozen(
            np.ascontiguousarray(linv[np.ix_(rows, rows)])
        )
        # Transposed-contiguous copies so the paired (2, n) variants run
        # as one dgemm each instead of two dgemv dispatches.
        self.linv_t = _frozen(np.ascontiguousarray(linv.T))
        self.vectors = _frozen(np.ascontiguousarray(vectors))
        self._decays = _LruCache(FACTOR_CACHE_SIZE)

    def decay(self, span_s: float) -> np.ndarray:
        """``exp(-rates * span_s)``, cached per span length."""
        key = _dt_key(span_s)
        cached = self._decays.get(key)
        if cached is None:
            cached = _frozen(np.exp(-self.rates * span_s))
            self._decays.put(key, cached)
        return cached


def _ambient_source(network: ThermalNetwork) -> np.ndarray:
    return network.ambient_conductance * network.ambient_c


def steady_state(network: ThermalNetwork, power: np.ndarray) -> np.ndarray:
    """Solve ``L T = P + g_amb * T_amb`` for the steady temperatures.

    Parameters
    ----------
    network:
        The assembled RC network.
    power:
        (n,) injected power vector (see
        :meth:`~repro.thermal.rc_model.ThermalNetwork.power_vector`).

    Returns
    -------
    numpy.ndarray
        (n,) temperatures in Celsius.
    """
    if power.shape != (network.size,):
        raise ThermalModelError(
            f"power vector has shape {power.shape}, expected ({network.size},)"
        )
    rhs = power + _ambient_source(network)
    try:
        return network.solve_steady(rhs)
    except np.linalg.LinAlgError as exc:  # pragma: no cover - defensive
        raise ThermalModelError(f"steady-state solve failed: {exc}") from exc


class TransientSolver:
    """Backward-Euler integrator over a thermal RC network.

    The solver owns the current temperature vector; callers advance it with
    :meth:`step` once per power sample.  Factorisations of ``C/dt + L``
    come from the network's :class:`OperatorBank`, cached per dt (rounded
    to femtosecond granularity) since a DTM run uses only a handful of
    distinct frequencies.

    Every step is health-checked (finite and within
    :data:`DIVERGENCE_LIMIT_C`); backward Euler is the last-resort
    stepper, so an unhealthy result raises
    :class:`~repro.errors.NumericalError` directly.
    """

    #: Interface parity with :class:`ExponentialSolver`: backward Euler
    #: has no further fallback, so this never becomes true.
    fallback_active = False

    def __init__(self, network: ThermalNetwork, initial: np.ndarray):
        if initial.shape != (network.size,):
            raise ThermalModelError(
                f"initial temperatures have shape {initial.shape}, "
                f"expected ({network.size},)"
            )
        self._network = network
        self._bank = network.operator_bank
        self._temps = np.array(initial, dtype=float, copy=True)
        self._ambient_source = self._bank.ambient_source
        self._rhs = np.empty(network.size)
        self._time_s = 0.0

    @property
    def network(self) -> ThermalNetwork:
        """The underlying RC network."""
        return self._network

    @property
    def temperatures(self) -> np.ndarray:
        """Current node temperatures in Celsius (copy)."""
        return self._temps.copy()

    @property
    def time_s(self) -> float:
        """Simulated time elapsed since construction, in seconds."""
        return self._time_s

    def step(self, power: np.ndarray, dt: float, copy: bool = True) -> np.ndarray:
        """Advance the network by ``dt`` seconds with constant injected
        ``power`` over the step.

        Returns the new temperature vector -- a copy by default.  With
        ``copy=False`` the solver's own state array is returned; it is
        overwritten by the next :meth:`step`, so read what you need from
        it before advancing again (the engine's inner loop gathers the
        block temperatures immediately)."""
        if dt <= 0.0:
            raise ThermalModelError(f"time step must be > 0, got {dt}")
        if power.shape != (self._network.size,):
            raise ThermalModelError(
                f"power vector has shape {power.shape}, "
                f"expected ({self._network.size},)"
            )
        lu, piv, c_over_dt, getrs = self._bank.factorisation(dt)
        # Assemble the right-hand side in a reused buffer and let LAPACK
        # solve in place on it; the buffer then *becomes* the state
        # vector (next step's multiply is elementwise, so reading the
        # old state out of the same array it writes is safe).
        rhs = self._rhs
        np.multiply(c_over_dt, self._temps, out=rhs)
        rhs += power
        rhs += self._ambient_source
        solution, info = getrs(lu, piv, rhs, overwrite_b=1)
        if info != 0:  # pragma: no cover - defensive
            raise ThermalModelError(f"transient solve failed (info={info})")
        if not _healthy(solution):
            raise NumericalError(
                _bad_node_name(self._network, solution),
                self._time_s,
                STEPPER_BACKWARD_EULER,
            )
        self._temps = solution
        self._rhs = solution
        self._time_s += dt
        return self._temps.copy() if copy else self._temps

    def reset(self, temperatures: np.ndarray) -> None:
        """Overwrite the state with ``temperatures`` and zero the clock."""
        if temperatures.shape != (self._network.size,):
            raise ThermalModelError(
                f"temperatures have shape {temperatures.shape}, "
                f"expected ({self._network.size},)"
            )
        self._temps = np.array(temperatures, dtype=float, copy=True)
        self._time_s = 0.0


class ExponentialSolver:
    """Exact exponential-propagator integrator over a thermal RC network.

    Because the network is LTI, the solution of
    ``C dT/dt = u - L T`` with ``u`` held constant over a step is exactly

        T_{k+1} = A_d T_k + B_d u,
        A_d = expm(-C^{-1} L dt),   B_d = (I - A_d) L^{-1},

    so a step costs two ~n x n matvecs instead of a factorized solve and
    carries *no* time-discretisation error (the only approximation left
    is the zero-order hold on the power, which backward Euler makes
    too).  A span of K steps with unchanged power jumps in closed form
    through :meth:`fast_forward`, using ``A_d^K`` composed from cached
    squarings, and :meth:`span_envelope` gives rigorous per-node bounds
    on the constant-power trajectory over the span so callers can prove
    a jump crosses no thermal threshold.

    The interface matches :class:`TransientSolver` (``step`` /
    ``temperatures`` / ``time_s`` / ``reset``), so the two are
    interchangeable behind :func:`make_transient_solver`.
    """

    def __init__(self, network: ThermalNetwork, initial: np.ndarray):
        if initial.shape != (network.size,):
            raise ThermalModelError(
                f"initial temperatures have shape {initial.shape}, "
                f"expected ({network.size},)"
            )
        self._network = network
        self._bank = network.operator_bank
        self._temps = np.array(initial, dtype=float, copy=True)
        self._ambient_source = self._bank.ambient_source
        n = network.size
        self._u = np.empty(n)
        self._scratch = np.empty(n)
        self._out = np.empty(n)
        self._time_s = 0.0
        #: Set when a numerical-health trip forced a backward-Euler
        #: recovery; the engine then disables fast-forward for the rest
        #: of the run (the exponential operators are suspect).
        self.fallback_active = False

    @property
    def network(self) -> ThermalNetwork:
        """The underlying RC network."""
        return self._network

    @property
    def temperatures(self) -> np.ndarray:
        """Current node temperatures in Celsius (copy)."""
        return self._temps.copy()

    @property
    def time_s(self) -> float:
        """Simulated time elapsed since construction, in seconds."""
        return self._time_s

    # --- operators ---------------------------------------------------------------

    # --- stepping ----------------------------------------------------------------

    def _check_step(self, power: np.ndarray, dt: float) -> None:
        if dt <= 0.0:
            raise ThermalModelError(f"time step must be > 0, got {dt}")
        if power.shape != (self._network.size,):
            raise ThermalModelError(
                f"power vector has shape {power.shape}, "
                f"expected ({self._network.size},)"
            )

    def _apply(self, a_d: np.ndarray, b_d: np.ndarray, power: np.ndarray) -> None:
        u = self._u
        np.add(power, self._ambient_source, out=u)
        np.dot(a_d, self._temps, out=self._out)
        np.dot(b_d, u, out=self._scratch)
        self._out += self._scratch
        self._temps, self._out = self._out, self._temps

    def step(self, power: np.ndarray, dt: float, copy: bool = True) -> np.ndarray:
        """Advance the network by ``dt`` seconds with constant injected
        ``power`` over the step.

        Returns the new temperature vector -- a copy by default; with
        ``copy=False`` the solver's own state array is returned (it is
        overwritten two steps later, so read what you need before
        advancing).

        An unhealthy result (NaN/Inf or past
        :data:`DIVERGENCE_LIMIT_C`) triggers a backward-Euler recovery
        from the pre-step state (:attr:`fallback_active` is then set);
        :class:`~repro.errors.NumericalError` is raised only when the
        fallback fails too."""
        self._check_step(power, dt)
        a_d, b_d = self._bank.propagator(dt)
        self._apply(a_d, b_d, power)
        if not _healthy(self._temps):
            self._recover(power, dt, 1)
        self._time_s += dt
        return self._temps.copy() if copy else self._temps

    def fast_forward(
        self, power: np.ndarray, dt: float, steps: int, copy: bool = True
    ) -> np.ndarray:
        """Jump ``steps`` consecutive ``dt`` steps of constant ``power``
        in closed form: exactly equivalent to calling :meth:`step`
        ``steps`` times with the same arguments (up to last-ulp matrix
        association order).  Health-guarded like :meth:`step` (recovery
        re-integrates the span with backward Euler)."""
        self._check_step(power, dt)
        if steps < 1:
            raise ThermalModelError(f"fast-forward needs >= 1 step, got {steps}")
        a_k, b_k = self._bank.propagator_power(dt, steps)
        self._apply(a_k, b_k, power)
        if not _healthy(self._temps):
            self._recover(power, dt, steps)
        self._time_s += steps * dt
        return self._temps.copy() if copy else self._temps

    def _recover(self, power: np.ndarray, dt: float, steps: int) -> None:
        """Re-integrate the failed span with backward Euler.

        After :meth:`_apply`'s buffer swap, ``self._out`` still holds
        the pre-step state; recovery restarts from it.  Raises
        :class:`~repro.errors.NumericalError` when the pre-step state or
        the power vector is already corrupt, or when backward Euler
        also produces an unhealthy result -- i.e. only when *both*
        steppers have failed."""
        previous = self._out
        if not _healthy(previous):
            raise NumericalError(
                _bad_node_name(self._network, previous),
                self._time_s,
                STEPPER_EXPONENTIAL,
                detail="pre-step state already corrupt",
            )
        if not np.all(np.isfinite(power)):
            raise NumericalError(
                _bad_node_name(self._network, power),
                self._time_s,
                f"{STEPPER_EXPONENTIAL}->{STEPPER_BACKWARD_EULER}",
                detail="power vector is non-finite",
            )
        fallback = TransientSolver(self._network, previous)
        try:
            for _ in range(steps):
                recovered = fallback.step(power, dt, copy=False)
        except NumericalError as exc:
            raise NumericalError(
                exc.block,
                self._time_s + exc.time_s,
                f"{STEPPER_EXPONENTIAL}->{STEPPER_BACKWARD_EULER}",
            ) from exc
        self._temps[:] = recovered
        first = not self.fallback_active
        self.fallback_active = True
        if first:
            # Cold path by construction (a numerical-health trip): worth
            # a counter, a structured event and a logged warning.
            from repro.obs import events as obs_events
            from repro.obs import metrics as obs_metrics

            obs_metrics.inc("thermal.fallback_activations")
            obs_events.emit(
                "thermal.fallback",
                time_s=self._time_s,
                dt=dt,
                steps=steps,
            )
            _LOGGER.warning(
                "exponential stepper tripped a numerical-health guard at "
                "t=%.6gs; recovered with backward Euler (dt=%.3g, "
                "steps=%d) and disabled expm for the rest of the run",
                self._time_s,
                dt,
                steps,
            )

    def span_envelope(
        self, power: np.ndarray, span_s: float
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Rigorous per-node bounds on the constant-power trajectory
        over the next ``span_s`` seconds.

        Returns ``(lower, upper)`` such that the trajectory from the
        current state under constant ``power`` satisfies
        ``lower <= T(t) <= upper`` elementwise for *all*
        ``t in [0, span_s]``.  Derivation: with ``y = C^{1/2}(T - T_ss)``
        the dynamics decouple into modes of the symmetric positive
        definite ``Ã = C^{-1/2} L C^{-1/2}``, so each node's deviation is
        a sum of exponentially decaying modal terms
        ``w_ij * exp(-rate_j * t)``; every term is monotone in ``t`` and
        takes its extremes at the span's endpoints.  Limiting the horizon
        to the span matters: slow package modes (the heat sink's seconds-
        scale time constant) then contribute only their current, nearly
        frozen offset instead of their distant asymptote.
        """
        if power.shape != (self._network.size,):
            raise ThermalModelError(
                f"power vector has shape {power.shape}, "
                f"expected ({self._network.size},)"
            )
        if span_s <= 0.0:
            raise ThermalModelError(f"span must be > 0, got {span_s}")
        bank = self._bank
        rates, vectors = bank.modes
        u = power + self._ambient_source
        t_ss = bank.linv @ u
        coeffs = vectors.T @ (bank.c_sqrt * (self._temps - t_ss))
        weights = (vectors * coeffs[None, :]) * bank.inv_c_sqrt[:, None]
        decayed = weights * np.exp(-rates * span_s)[None, :]
        lower = t_ss + np.minimum(weights, decayed).sum(axis=1)
        upper = t_ss + np.maximum(weights, decayed).sum(axis=1)
        return lower, upper

    def span_envelope_bounds(
        self, p_lo: np.ndarray, p_hi: np.ndarray, span_s: float
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Rigorous per-node bounds on *any* varying-power trajectory
        over the next ``span_s`` seconds.

        Returns ``(lower, upper)`` such that every trajectory from the
        current state under *any* measurable power profile ``P(t)`` with
        ``p_lo <= P(t) <= p_hi`` elementwise satisfies
        ``lower <= T(t) <= upper`` for all ``t in [0, span_s]``.

        The generalisation from :meth:`span_envelope` rests on the
        network's order structure: ``-C^{-1} L`` is a Metzler matrix
        (the off-diagonals of the conductance Laplacian are ``-g_ij <=
        0``), so the thermal dynamics are *cooperative* and the Kamke-
        Mueller comparison principle applies -- raising any input can
        only raise every temperature.  The trajectory under ``P(t)`` is
        therefore pinched, elementwise and for all ``t``, between the
        two constant-power extremal trajectories started from the same
        state, and each extremal trajectory is bounded by its modal
        envelope.  This is what lets the engine stride across spans of
        *piecewise-varying* power (leakage drifting with temperature, a
        controller holding its actuation between samples) with the same
        threshold-safety proof the constant-power fast-forward uses.
        """
        if p_lo.shape != (self._network.size,) or p_hi.shape != (
            self._network.size,
        ):
            raise ThermalModelError(
                f"power bounds have shapes {p_lo.shape}/{p_hi.shape}, "
                f"expected ({self._network.size},)"
            )
        if np.any(p_lo > p_hi):
            raise ThermalModelError(
                "power lower bound exceeds upper bound"
            )
        lower, _ = self.span_envelope(p_lo, span_s)
        _, upper = self.span_envelope(p_hi, span_s)
        return lower, upper

    def span_probe(self, rows: np.ndarray) -> "SpanProbe":
        """An allocation-free span-envelope evaluator restricted to the
        node subset ``rows`` (the engine passes its block-node indices).
        See :class:`SpanProbe`."""
        return SpanProbe(self, rows)

    def reset(self, temperatures: np.ndarray) -> None:
        """Overwrite the state with ``temperatures`` and zero the clock."""
        if temperatures.shape != (self._network.size,):
            raise ThermalModelError(
                f"temperatures have shape {temperatures.shape}, "
                f"expected ({self._network.size},)"
            )
        self._temps = np.array(temperatures, dtype=float, copy=True)
        self._time_s = 0.0
        self.fallback_active = False


class SpanProbe:
    """Allocation-free span-envelope evaluator over a fixed row subset.

    The engine's event-driven stride asks, once per sensor period, for
    bounds on the hottest *block* temperature over the coming span.
    :meth:`ExponentialSolver.span_envelope` answers that with ~six fresh
    arrays per call; at a few thousand calls per run the allocator
    becomes a measurable slice of the hot path.  This probe reads the
    modal basis restricted to the requested rows and the per-span decay
    vectors from the network's :class:`OperatorBank` (built once per
    network and row set, shared by every probe over it), and reuses its
    own set of buffers, so a call is a handful of in-place BLAS/ufunc
    operations.

    The returned bound arrays are the probe's own buffers: read them
    before the next :meth:`bounds` call.  Bounds are numerically
    identical to ``span_envelope(power, span_s)`` restricted to
    ``rows`` (same operations on the same doubles, reassociated only
    where float addition order is already unspecified upstream).
    """

    def __init__(self, solver: "ExponentialSolver", rows: np.ndarray):
        self._solver = solver
        basis = solver._bank.probe_basis(np.asarray(rows, dtype=np.intp))
        self._basis = basis
        n = solver._network.size
        m = basis.rows.size
        # Reused buffers.
        self._u = np.empty(n)
        self._t_ss = np.empty(n)
        self._diff = np.empty(n)
        self._coeffs = np.empty(n)
        self._weights = np.empty((m, n))
        self._decayed = np.empty((m, n))
        self._extreme = np.empty((m, n))
        self._lower = np.empty(m)
        self._upper = np.empty(m)
        self._resp = np.empty(m)
        self._pair_u = np.empty((2, n))
        self._pair_t_ss = np.empty((2, n))
        self._pair_diff = np.empty((2, n))
        self._pair_coeffs = np.empty((2, n))

    def bounds(
        self, power: np.ndarray, span_s: float
    ) -> Tuple[np.ndarray, np.ndarray]:
        """``(lower, upper)`` over the probe's rows for the constant-
        ``power`` trajectory over ``[0, span_s]`` -- the row-restricted
        :meth:`ExponentialSolver.span_envelope`, without allocation.
        Returns internal buffers, overwritten by the next call."""
        basis = self._basis
        u = self._u
        np.add(power, basis.ambient_source, out=u)
        t_ss = self._t_ss
        np.dot(basis.linv, u, out=t_ss)
        diff = self._diff
        np.subtract(self._solver._temps, t_ss, out=diff)
        diff *= basis.c_sqrt
        np.dot(basis.vectors_t, diff, out=self._coeffs)
        weights = self._weights
        np.multiply(basis.row_basis, self._coeffs[None, :], out=weights)
        decayed = self._decayed
        np.multiply(weights, basis.decay(span_s)[None, :], out=decayed)
        extreme = self._extreme
        np.minimum(weights, decayed, out=extreme)
        lower = self._lower
        np.add.reduce(extreme, axis=1, out=lower)
        lower += t_ss[basis.rows]
        np.maximum(weights, decayed, out=extreme)
        upper = self._upper
        np.add.reduce(extreme, axis=1, out=upper)
        upper += t_ss[basis.rows]
        return lower, upper

    def widened(
        self, power_pair: np.ndarray, span_s: float
    ) -> Tuple[np.ndarray, np.ndarray]:
        """``(lower, upper)`` where ``upper`` bounds the constant-
        ``power_pair[0]`` trajectory from above and ``lower`` bounds the
        constant-``power_pair[1]`` trajectory from below, over
        ``[0, span_s]`` on the probe's rows.

        This is the half of two :meth:`bounds` calls the engine's
        widened-envelope closure actually consumes (the upper bound of
        the leakage-inflated power, the lower bound of the deflated
        one), computed in one stacked pass so the two steady-state and
        modal projections run as single (2, n) x (n, n) matmuls instead
        of four matvec dispatches.  Each returned bound is numerically
        the same function of the same doubles as the corresponding
        :meth:`bounds` output.  Returns internal buffers, overwritten by
        the next :meth:`bounds` or :meth:`widened` call."""
        basis = self._basis
        u = self._pair_u
        np.add(power_pair, basis.ambient_source[None, :], out=u)
        t_ss = self._pair_t_ss
        np.dot(u, basis.linv_t, out=t_ss)
        diff = self._pair_diff
        np.subtract(self._solver._temps[None, :], t_ss, out=diff)
        diff *= basis.c_sqrt[None, :]
        np.dot(diff, basis.vectors, out=self._pair_coeffs)
        decay = basis.decay(span_s)
        weights = self._weights
        decayed = self._decayed
        extreme = self._extreme
        np.multiply(basis.row_basis, self._pair_coeffs[0][None, :], out=weights)
        np.multiply(weights, decay[None, :], out=decayed)
        np.maximum(weights, decayed, out=extreme)
        upper = self._upper
        np.add.reduce(extreme, axis=1, out=upper)
        upper += t_ss[0, basis.rows]
        np.multiply(basis.row_basis, self._pair_coeffs[1][None, :], out=weights)
        np.multiply(weights, decay[None, :], out=decayed)
        np.minimum(weights, decayed, out=extreme)
        lower = self._lower
        np.add.reduce(extreme, axis=1, out=lower)
        lower += t_ss[1, basis.rows]
        return lower, upper

    def response_bound(self, delta_rows: np.ndarray) -> np.ndarray:
        """Elementwise bound on the extra trajectory movement caused by
        adding a constant power perturbation ``delta_rows >= 0`` (one
        entry per probe row, applied at those nodes) on top of any
        profile already covered by :meth:`bounds`.

        By linearity the perturbed trajectory is the unperturbed one
        plus the zero-state response ``(I - e^{-C^{-1}L t}) L^{-1} d``,
        which for ``d >= 0`` is elementwise nonnegative, monotone in
        ``t`` and bounded by its asymptote ``L^{-1} d``.  Adding the
        returned vector to an upper bound (or subtracting the bound for
        ``-d`` from a lower bound) therefore keeps the envelope rigorous
        under power drift of at most ``delta_rows`` -- the a-posteriori
        closure the engine uses for temperature-dependent leakage.
        Returns an internal buffer, overwritten by the next call."""
        np.dot(self._basis.linv_rows, delta_rows, out=self._resp)
        return self._resp


def step_lockstep(solvers, powers, dt: float):
    """Advance many same-network solvers by one ``dt`` step at once.

    All solvers must be the same stepper class over the *same*
    :class:`~repro.thermal.rc_model.ThermalNetwork` object (the lockstep
    batch runner builds its engines on one shared substrate).  The R
    state vectors are stacked into an ``(R, n)`` matrix and advanced
    with one BLAS-3 operation -- a matrix-matrix product pair for the
    exponential stepper, a multi-right-hand-side triangular solve for
    backward Euler -- instead of R separate matvec/solve dispatches.
    Numerically this touches each run with exactly the operators
    :meth:`ExponentialSolver.step` / :meth:`TransientSolver.step` would
    use, so per-run trajectories match the serial path to BLAS summation
    order.

    Returns the list of the solvers' own state arrays (no copies), in
    input order.
    """
    first = solvers[0]
    if dt <= 0.0:
        raise ThermalModelError(f"time step must be > 0, got {dt}")
    network = first._network
    for solver in solvers:
        if type(solver) is not type(first) or solver._network is not network:
            raise ThermalModelError(
                "lockstep stepping needs solvers of one class over one "
                "shared network"
            )
    count = len(solvers)
    size = network.size
    if isinstance(first, ExponentialSolver):
        a_d, b_d = first._bank.propagator(dt)
        t_rows = np.empty((count, size))
        u_rows = np.empty((count, size))
        for i, (solver, power) in enumerate(zip(solvers, powers)):
            t_rows[i] = solver._temps
            np.add(power, solver._ambient_source, out=u_rows[i])
        out = t_rows @ a_d.T
        out += u_rows @ b_d.T
        if _healthy(out):
            for i, solver in enumerate(solvers):
                solver._temps[:] = out[i]
                solver._time_s += dt
        else:
            # One or more runs went unhealthy: adopt the healthy rows,
            # and push each unhealthy run through its own solver's
            # guarded step (backward-Euler recovery, or NumericalError
            # when that fails too).  The solvers' states are untouched
            # so far, so the individual re-step sees the pre-step state.
            row_ok = np.all(np.abs(out) < DIVERGENCE_LIMIT_C, axis=1)
            for i, solver in enumerate(solvers):
                if row_ok[i]:
                    solver._temps[:] = out[i]
                    solver._time_s += dt
                else:
                    solver.step(powers[i], dt, copy=False)
    else:
        lu, piv, c_over_dt, getrs = first._bank.factorisation(dt)
        rhs = np.empty((size, count), order="F")
        for i, (solver, power) in enumerate(zip(solvers, powers)):
            column = rhs[:, i]
            np.multiply(c_over_dt, solver._temps, out=column)
            column += power
            column += solver._ambient_source
        solution, info = getrs(lu, piv, rhs, overwrite_b=1)
        if info != 0:  # pragma: no cover - defensive
            raise ThermalModelError(f"lockstep solve failed (info={info})")
        for i, solver in enumerate(solvers):
            column = solution[:, i]
            if not _healthy(column):
                # Backward Euler is the last resort: no recovery path.
                raise NumericalError(
                    _bad_node_name(network, column),
                    solver._time_s,
                    STEPPER_BACKWARD_EULER,
                )
            solver._temps[:] = column
            solver._time_s += dt
    return [solver._temps for solver in solvers]


def make_transient_solver(
    network: ThermalNetwork, initial: np.ndarray, stepper: str = STEPPER_EXPONENTIAL
):
    """Build a transient stepper by name.

    ``"expm"`` (default) -- the exact :class:`ExponentialSolver`;
    ``"be"`` -- the backward-Euler :class:`TransientSolver`, kept as the
    time-discretised regression anchor.
    """
    if stepper == STEPPER_EXPONENTIAL:
        return ExponentialSolver(network, initial)
    if stepper == STEPPER_BACKWARD_EULER:
        return TransientSolver(network, initial)
    raise ThermalModelError(
        f"thermal stepper must be {STEPPER_BACKWARD_EULER!r} or "
        f"{STEPPER_EXPONENTIAL!r}, got {stepper!r}"
    )
