"""Steady-state and transient solvers for thermal RC networks.

The governing equation (temperatures in Celsius, ambient folded into the
source term) is::

    C dT/dt = P + g_amb * T_amb - L T

Steady state is one small dense linear solve.  Transients have one
stepper and one recovery stepper:

* :class:`ExponentialSolver` -- the *exact* discrete propagator for the
  LTI network, ``T_{k+1} = A_d T_k + B_d u`` with
  ``A_d = expm(-C^{-1} L dt)`` and ``B_d = (I - A_d) L^{-1}``: one
  ~n x n matvec pair per step instead of a linear solve, no
  time-discretisation error, plus closed-form multi-step fast-forward
  ``T_{k+K} = A_d^K T_k + (I - A_d^K) T_ss`` for constant-power spans.
  The engines step every run with it.
* :class:`TransientSolver` -- backward Euler,
  ``(C/dt + L) T_{k+1} = (C/dt) T_k + P + g_amb * T_amb``,
  unconditionally stable, with ``(C/dt + L)^{-1}`` inverted once per
  distinct dt.  :class:`ExponentialSolver` falls back to it when a step
  goes unhealthy; the tests also run whole engine runs on it as the
  time-discretised reference.

Every operator that depends only on the network and the step length --
per-dt propagators and backward-Euler inverses, the ``(dt, K)`` powers,
the modal basis, the :class:`SpanProbe` basis -- lives in one read-only
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


_DIVERGENCE_LIMIT_SQ = DIVERGENCE_LIMIT_C * DIVERGENCE_LIMIT_C


def _healthy(values: np.ndarray) -> bool:
    """True when every entry is finite and within the divergence limit.

    One call accepts nearly every state: the sum of squares is at least
    any single ``v_i**2`` (every term is >= 0 and rounding is monotone,
    fused multiply-adds included), so a sum below the squared limit
    proves ``|v_i| < DIVERGENCE_LIMIT_C`` for all entries, and NaN or
    Inf fail the comparison.  A state the fast test cannot clear --
    unhealthy, or healthy with a large sum of squares -- falls back to
    two direct ufunc reductions (``axis=None`` covers the lockstep's
    2-D stacks; a NaN anywhere poisons both), so the answer equals
    ``np.all(np.abs(values) < DIVERGENCE_LIMIT_C)`` for every input.
    """
    if np.vdot(values, values) < _DIVERGENCE_LIMIT_SQ:
        return True
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
"""Per-dt operator cache bound (BE inverses / propagators): multi-step or
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


def _check_step(network: ThermalNetwork, power: np.ndarray, dt: float) -> None:
    """Validate one step's ``dt`` and node power vector."""
    if dt <= 0.0:
        raise ThermalModelError(f"time step must be > 0, got {dt}")
    if power.shape != (network.size,):
        raise ThermalModelError(
            f"power vector has shape {power.shape}, "
            f"expected ({network.size},)"
        )


def _frozen(*arrays: np.ndarray):
    """Mark bank arrays read-only (so an in-place write raises) and
    return them: one array as itself, several as a tuple."""
    for array in arrays:
        array.setflags(write=False)
    return arrays[0] if len(arrays) == 1 else arrays


def _dt_key(dt: float) -> int:
    return int(round(dt * 1e15))


#: Coefficients b_0..b_13 of the [13/13] Pade approximant to exp, and
#: the largest 1-norm it meets in double precision without scaling
#: (Higham, "The scaling and squaring method for the matrix exponential
#: revisited", SIAM J. Matrix Anal. Appl. 26(4), 2005, Table 2.3).
_PADE13 = (
    64764752532480000.0, 32382376266240000.0, 7771770303897600.0,
    1187353796428800.0, 129060195264000.0, 10559470521600.0,
    670442572800.0, 33522128640.0, 1323241920.0, 40840800.0, 960960.0,
    16380.0, 182.0, 1.0,
)
_THETA13 = 5.371920351148152


def _expm(a: np.ndarray) -> np.ndarray:
    """Matrix exponential by [13/13] Pade scaling and squaring.

    Scales ``a`` by ``2**-s`` until its 1-norm is at most
    :data:`_THETA13`, evaluates the Pade quotient ``(V - U)^{-1} (V + U)``
    (``U`` the odd, ``V`` the even part, six products in Higham's
    factored form) with one LU solve, then squares ``s`` times.  The
    thermal generators are small (tens of nodes), so one fixed degree
    costs nothing against the per-dt caching around it.
    """
    norm = np.linalg.norm(a, 1)
    s = int(np.ceil(np.log2(norm / _THETA13))) if norm > _THETA13 else 0
    a = a * 2.0 ** -s
    b = _PADE13
    ident = np.eye(a.shape[0])
    a2 = a @ a
    a4 = a2 @ a2
    a6 = a4 @ a2
    u = a @ (
        a6 @ (b[13] * a6 + b[11] * a4 + b[9] * a2)
        + b[7] * a6 + b[5] * a4 + b[3] * a2 + b[1] * ident
    )
    v = (
        a6 @ (b[12] * a6 + b[10] * a4 + b[8] * a2)
        + b[6] * a6 + b[4] * a4 + b[2] * a2 + b[0] * ident
    )
    r = np.linalg.solve(v - u, v + u)
    for _ in range(s):
        r = r @ r
    return r


class OperatorBank:
    """The run-invariant operators of one :class:`ThermalNetwork`.

    Everything here is a pure function of the network and a step or
    span length: the backward-Euler inverses and exponential
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

    def factorisation(self, dt: float) -> Tuple[np.ndarray, np.ndarray]:
        """``(M^{-1}, C/dt)`` with ``M = C/dt + L``, for backward Euler.

        The network is small and ``M`` is diagonally dominant, so the
        explicit inverse is accurate and turns each step's solve into
        one matvec.
        """
        key = _dt_key(dt)
        cached = self._factors.get(key)
        if cached is None:
            c_over_dt = self._network.capacitance / dt
            matrix = np.diag(c_over_dt) + self._network.conductance
            cached = _frozen(np.linalg.inv(matrix), c_over_dt)
            self._factors.put(key, cached)
        return cached

    def propagator(self, dt: float) -> Tuple[np.ndarray, np.ndarray]:
        """``(A_d, B_d)`` for one step of ``dt`` seconds."""
        key = _dt_key(dt)
        cached = self._propagators.get(key)
        if cached is None:
            a_d = _expm(self.generator * dt)
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
    :meth:`step` once per power sample.  Inverses of ``C/dt + L``
    come from the network's :class:`OperatorBank`, cached per dt (rounded
    to femtosecond granularity) since a DTM run uses only a handful of
    distinct frequencies.

    Every step is health-checked (finite and within
    :data:`DIVERGENCE_LIMIT_C`); backward Euler is the last-resort
    stepper, so an unhealthy result raises
    :class:`~repro.errors.NumericalError` directly.
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
        _check_step(self._network, power, dt)
        temps = self._solve(*self._bank.factorisation(dt), power, dt)
        return temps.copy() if copy else temps

    def _solve(self, m_inv, c_over_dt, power, dt) -> np.ndarray:
        # Assemble the right-hand side in a reused buffer, then apply the
        # cached inverse into the state vector: the old state is fully
        # read into ``rhs`` before the product overwrites it.
        rhs = self._rhs
        np.multiply(c_over_dt, self._temps, out=rhs)
        rhs += power
        rhs += self._ambient_source
        solution = np.dot(m_inv, rhs, out=self._temps)
        if not _healthy(solution):
            raise NumericalError(
                _bad_node_name(self._network, solution),
                self._time_s,
                STEPPER_BACKWARD_EULER,
            )
        self._time_s += dt
        return solution

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

    An unhealthy step is re-integrated with the backward-Euler
    :class:`TransientSolver`, whose ``step`` / ``temperatures`` /
    ``time_s`` / ``reset`` interface this one shares.
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
        #: recovery; the engine then disables the closed-form stride for
        #: the rest of the run (its span operators are suspect).  Dense
        #: and fused steps keep the exponential propagator, each under
        #: the same guard.
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

    def _apply(self, a_d: np.ndarray, b_d: np.ndarray, power: np.ndarray) -> None:
        # Outputs passed positionally and np.dot's product run through
        # the ndarray method: on a ~36-node network a call costs its
        # dispatch, not its flops.
        u = self._u
        np.add(power, self._ambient_source, u)
        a_d.dot(self._temps, self._out)
        b_d.dot(u, self._scratch)
        np.add(self._out, self._scratch, self._out)
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
        _check_step(self._network, power, dt)
        temps = self._advance(*self._bank.propagator(dt), power, dt)
        return temps.copy() if copy else temps

    def _advance(self, a_d, b_d, power, dt) -> np.ndarray:
        """One guarded step with the given propagator pair."""
        self._apply(a_d, b_d, power)
        if not _healthy(self._temps):
            self._recover(power, dt, 1)
        self._time_s += dt
        return self._temps

    # --- steps taken outside the solver -------------------------------------------

    def span_operators(
        self, dt: float
    ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """``(a_d, b_d, ambient_source)`` for stepping ``dt`` outside
        the solver.

        A fused span loop (:meth:`repro.sim.kernel.ChipStep.run_span`)
        applies :meth:`step`'s float operations itself --
        ``a_d.dot(T, T')``, ``b_d.dot(power + ambient_source, s)``,
        ``add(T', s, T')``, outputs passed positionally -- on its own
        state rows.  It tests the health of each phase run once, after
        stepping it: :func:`_healthy`'s fast half on every new row (one
        sum of squares per row).  The first row that fails gets
        :meth:`guard` at its own step, after :meth:`adopt` of the steps
        before it, and the rest of the run is stepped again from the
        checked row; the final state comes back through :meth:`adopt`.
        The dt check and the propagator lookup run once here.
        """
        if dt <= 0.0:
            raise ThermalModelError(f"time step must be > 0, got {dt}")
        return (*self._bank.propagator(dt), self._ambient_source)

    def adopt(self, state: np.ndarray, dt: float, steps: int) -> np.ndarray:
        """Take ``state`` as the solver's state after ``steps`` steps
        of ``dt`` taken outside it; the clock advances by the same
        sequential adds :meth:`step` makes.  Returns the solver's own
        state array."""
        self._temps[:] = state
        time_s = self._time_s
        for _ in range(steps):
            time_s += dt
        self._time_s = time_s
        return self._temps

    def guard(
        self,
        state: np.ndarray,
        previous: np.ndarray,
        power: np.ndarray,
        dt: float,
    ) -> None:
        """:meth:`step`'s health check of one step of ``dt`` taken
        outside the solver, from ``previous`` to ``state`` under
        ``power``.

        The clock must stand at the step's start (:meth:`adopt`); it
        advances by ``dt``.  An unhealthy ``state`` is overwritten with
        the backward-Euler recovery from ``previous``
        (:attr:`fallback_active` is then set), or
        :class:`~repro.errors.NumericalError` is raised when that fails
        too -- exactly as :meth:`step` would have done.
        """
        if not _healthy(state):
            self._out[:] = previous
            self._recover(power, dt, 1)
            state[:] = self._temps
        self._time_s += dt

    def fast_forward(
        self, power: np.ndarray, dt: float, steps: int, copy: bool = True
    ) -> np.ndarray:
        """Jump ``steps`` consecutive ``dt`` steps of constant ``power``
        in closed form: exactly equivalent to calling :meth:`step`
        ``steps`` times with the same arguments (up to last-ulp matrix
        association order).  Health-guarded like :meth:`step` (recovery
        re-integrates the span with backward Euler)."""
        _check_step(self._network, power, dt)
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
                "steps=%d); the closed-form stride is off for the rest "
                "of the run, dense steps keep the exponential propagator",
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
        """A row-batched span-envelope evaluator over this solver's
        network, restricted to the node subset ``rows`` (the engine
        passes its block-node indices).  See :class:`SpanProbe`."""
        return SpanProbe(self._network, rows)

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
    """Row-batched span-envelope evaluator over a fixed node subset.

    The event-driven stride asks, once per sensor period per run, for
    bounds on the *block* temperatures over the coming span.
    :meth:`ExponentialSolver.span_envelope` answers for one run with
    ~six fresh full-node arrays per call; this probe answers for a batch
    of R runs over one network at once.  It reads the modal basis
    restricted to the requested rows and the per-span decay vectors from
    the network's :class:`OperatorBank` (built once per network and row
    set, shared by every probe over it), and keeps its own scratch,
    regrown to the largest batch it has seen.  A call is a dozen stacked
    BLAS/ufunc operations writing into that scratch; it is not
    allocation-free: :meth:`gather` stacks its rows into new arrays.

    **Bit-identity per row.**  A row's bounds are the same doubles
    whatever other rows share its batch (and so the same as for R = 1):
    the steady-state and modal projections of :meth:`bounds` are stacked
    ``(n, n) @ (R, n, 1)`` products, which run one GEMV per row, and
    those of :meth:`widened` are ``(R, 2, n) @ (n, n)`` products, one
    2-row GEMM per row; everything else is elementwise or a reduction
    along the last axis.  A plain ``(R, n) @ B`` GEMM is not used: for
    R >= 2 it can round rows differently from a GEMV.

    Both passes return an ``(R, 2, m)`` *envelope*: ``[:, 0]`` the upper
    bounds, ``[:, 1]`` the lower bounds, one row per run.  It is the
    probe's scratch: read it before the next call.
    """

    def __init__(self, network: ThermalNetwork, rows: np.ndarray):
        self._basis = network.operator_bank.probe_basis(
            np.asarray(rows, dtype=np.intp)
        )
        self._capacity = 0
        self._views: dict = {}
        self._scratch(1)

    @property
    def basis(self) -> "_ProbeBasis":
        """The shared row-restricted operators (``basis.rows`` are the
        probe's node rows).  Probes with the same basis may evaluate
        each other's rows."""
        return self._basis

    def _scratch(self, count: int) -> "_ProbeScratch":
        """Scratch views for ``count`` rows, regrown when too small."""
        scratch = self._views.get(count)
        if scratch is None:
            if count > self._capacity:
                self._capacity = count
                self._buffers = _ProbeScratch(self._capacity, self._basis)
                self._views.clear()
            scratch = self._buffers
            if count < self._capacity:
                scratch = scratch.head(count)
            self._views[count] = scratch
        return scratch

    def gather(self, solvers, spans) -> Tuple[np.ndarray, np.ndarray]:
        """``(temps, decay)``, each ``(R, n)``: the current states of
        ``solvers`` and the modal decay over each of ``spans`` -- the
        row inputs of :meth:`bounds` and :meth:`widened`, in new
        arrays."""
        decay = self._basis.decay
        return (
            np.concatenate([solver._temps[None] for solver in solvers]),
            np.concatenate([decay(span_s)[None] for span_s in spans]),
        )

    def bounds(
        self, temps: np.ndarray, power: np.ndarray, decay: np.ndarray
    ) -> np.ndarray:
        """Envelope of each row's constant-``power[i]`` trajectory from
        ``temps[i]`` over the span whose modal decay is ``decay[i]``
        (all ``(R, n)``): the row-restricted
        :meth:`ExponentialSolver.span_envelope` of each run."""
        s = self._scratch(len(temps))
        basis = self._basis
        np.add(power, s.ambient_row, out=s.u_row)
        np.matmul(basis.linv, s.u_col, out=s.t_ss_col)
        np.subtract(temps, s.t_ss_row, out=s.diff_row)
        np.multiply(s.diff_row, s.c_sqrt_row, out=s.diff_row)
        np.matmul(basis.vectors_t, s.diff_col, out=s.coeffs_col)
        weights, decayed = s.weights_row, s.extreme_row
        np.multiply(basis.row_basis, s.coeffs_row, out=weights)
        np.multiply(weights, decay[:, None, :], out=decayed)
        np.maximum(weights, decayed, out=s.decayed_row)
        np.minimum(weights, decayed, out=decayed)
        envelope = s.envelope
        np.add.reduce(s.decayed_flat, axis=-1, out=s.envelope_flat)
        s.t_ss_flat.take(s.upper_index, out=s.upper_flat)
        envelope += s.upper_rows
        return envelope

    def widened(
        self, temps: np.ndarray, power_pairs: np.ndarray, decay: np.ndarray
    ) -> np.ndarray:
        """Envelope whose upper row ``[i, 0]`` bounds the
        constant-power trajectory from ``temps[i]`` under
        ``power_pairs[i, 0]`` from above and whose lower row ``[i, 1]``
        bounds the one under ``power_pairs[i, 1]`` from below, over the
        span whose modal decay is ``decay[i]``.  ``power_pairs`` is
        ``(R, 2, m)``: power at the probe's rows, zero elsewhere.

        This is the half of two :meth:`bounds` calls the stride's
        widened-envelope closure consumes (the upper bound of the
        leakage-inflated power, the lower bound of the deflated one),
        with the two steady-state and modal projections of a row run as
        one 2-row GEMM each."""
        s = self._scratch(len(temps))
        basis = self._basis
        s.pairs_flat[s.rows_index] = power_pairs.reshape(-1)
        np.add(s.pairs, s.ambient, out=s.u)
        np.matmul(s.u, basis.linv_t, out=s.t_ss)
        np.subtract(temps[:, None, :], s.t_ss, out=s.diff)
        np.multiply(s.diff, s.c_sqrt, out=s.diff)
        np.matmul(s.diff, basis.vectors, out=s.coeffs)
        np.multiply(basis.row_basis, s.coeffs_pair, out=s.weights_pair)
        np.multiply(s.weights_run, decay[:, None, :], out=s.decayed_run)
        np.maximum(s.weights_row, s.decayed_row, out=s.decayed_row)
        np.minimum(s.weights_low, s.extreme_row, out=s.extreme_row)
        envelope = s.envelope
        np.add.reduce(s.decayed_flat, axis=-1, out=s.envelope_flat)
        s.t_ss_flat.take(s.rows_index, out=s.rows_flat)
        envelope += s.t_ss_rows
        return envelope


class _ProbeScratch:
    """A :class:`SpanProbe`'s scratch for ``count`` rows, with the views
    its passes write through (built once per batch size).  ``[:, 0]`` of
    the paired arrays serves :meth:`SpanProbe.bounds`."""

    def __init__(self, count: int, basis: "_ProbeBasis", arrays=None):
        rows = basis.rows
        n, m = basis.c_sqrt.size, rows.size
        if arrays is None:
            arrays = (
                np.zeros((count, 2, n)),
                np.empty((count, 2, n)),
                np.empty((count, 2, n)),
                np.empty((count, 2, n)),
                np.empty((count, 2, n)),
                np.empty((count, 2, m, n)),
                np.empty((count, 2, m, n)),
                np.empty((count, 2, m)),
                np.empty((count, 2, m)),
                # The node-vector constants, repeated per row: ufuncs on
                # operands of one shape dispatch faster than broadcasts.
                np.tile(basis.ambient_source, (count, 2, 1)),
                np.tile(basis.c_sqrt, (count, 2, 1)),
            )
        self._arrays = arrays
        self._basis = basis
        (
            self.pairs,
            self.u,
            self.t_ss,
            self.diff,
            self.coeffs,
            self.weights,
            self.decayed,
            self.envelope,
            self.t_ss_rows,
            self.ambient,
            self.c_sqrt,
        ) = arrays
        self.ambient_row, self.c_sqrt_row = self.ambient[:, 0], self.c_sqrt[:, 0]
        # Flat positions of the probe's rows in the (count, 2, n) node
        # arrays: the widened pass scatters its powers (zero off those
        # rows) and both passes gather the steady state through them.
        self.pairs_flat = self.pairs.reshape(-1)
        self.rows_index = (
            np.arange(2 * count)[:, None] * n + rows[None, :]
        ).ravel()
        self.upper_index = self.rows_index.reshape(count, 2, m)[:, 0].ravel()
        self.t_ss_flat = self.t_ss.reshape(-1)
        self.rows_flat = self.t_ss_rows.reshape(-1)
        self.upper_flat = self.rows_flat[: count * m]
        self.upper_rows = self.upper_flat.reshape(count, 1, m)
        self.u_row = self.u[:, 0]
        self.u_col = self.u_row[:, :, None]
        self.t_ss_row = self.t_ss[:, 0]
        self.t_ss_col = self.t_ss_row[:, :, None]
        self.diff_row = self.diff[:, 0]
        self.diff_col = self.diff_row[:, :, None]
        self.coeffs_col = self.coeffs[:, 0, :, None]
        self.coeffs_row = self.coeffs[:, :1]
        # Products and sums over the fewest axes that keep each node
        # row's operands and summation order.
        self.coeffs_pair = self.coeffs.reshape(2 * count, 1, n)
        self.weights_pair = self.weights.reshape(2 * count, m, n)
        self.weights_run = self.weights.reshape(count, 2 * m, n)
        self.decayed_run = self.decayed.reshape(count, 2 * m, n)
        self.decayed_flat = self.decayed.reshape(-1, n)
        self.envelope_flat = self.envelope.reshape(-1)
        self.weights_row = self.weights[:, 0]
        self.weights_low = self.weights[:, 1]
        self.decayed_row = self.decayed[:, 0]
        self.extreme_row = self.decayed[:, 1]
        # Both passes put the maxima in [:, 0] and the minima in [:, 1],
        # so the envelope's [:, 0] is the upper bound.

    def head(self, count: int) -> "_ProbeScratch":
        """The same buffers' first ``count`` rows."""
        return _ProbeScratch(
            count, self._basis, tuple(array[:count] for array in self._arrays)
        )


def step_lockstep(solvers, powers, dt: float):
    """Advance many same-network exponential solvers by one ``dt`` step
    at once.

    All solvers must be :class:`ExponentialSolver` instances over the
    *same* :class:`~repro.thermal.rc_model.ThermalNetwork` object (the
    lockstep batch runner builds its engines on one shared substrate).
    The R states and inputs are stacked as ``(R, n, 1)`` and advanced by
    two stacked products, ``A_d @ T`` then ``+= B_d @ U``: each row is
    the same matrix-vector product, in the same order, as
    :meth:`ExponentialSolver.step`, so every row is bit-identical to
    stepping its solver alone, whichever other rows share the batch.

    Returns the list of the solvers' own state arrays (no copies), in
    input order.
    """
    first = solvers[0]
    if dt <= 0.0:
        raise ThermalModelError(f"time step must be > 0, got {dt}")
    network = first._network
    for solver in solvers:
        if not isinstance(solver, ExponentialSolver) or (
            solver._network is not network
        ):
            raise ThermalModelError(
                "lockstep stepping needs exponential solvers over one "
                "shared network"
            )
    a_d, b_d = first._bank.propagator(dt)
    shape = (len(solvers), network.size, 1)
    t_rows = np.empty(shape)
    u_rows = np.empty(shape)
    for i, (solver, power) in enumerate(zip(solvers, powers)):
        t_rows[i, :, 0] = solver._temps
        np.add(power, solver._ambient_source, out=u_rows[i, :, 0])
    out = np.matmul(a_d, t_rows)
    out += np.matmul(b_d, u_rows)
    out = out[:, :, 0]
    if _healthy(out):
        for i, solver in enumerate(solvers):
            solver._temps[:] = out[i]
            solver._time_s += dt
    else:
        # One or more runs went unhealthy: adopt the healthy rows, and
        # push each unhealthy run through its own solver's guarded step
        # (backward-Euler recovery, or NumericalError when that fails
        # too).  The solvers' states are untouched so far, so the
        # individual re-step sees the pre-step state.
        row_ok = np.all(np.abs(out) < DIVERGENCE_LIMIT_C, axis=1)
        for i, solver in enumerate(solvers):
            if row_ok[i]:
                solver._temps[:] = out[i]
                solver._time_s += dt
            else:
                solver.step(powers[i], dt, copy=False)
    return [solver._temps for solver in solvers]
