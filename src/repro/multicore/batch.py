"""Sweep integration for dual-core runs.

:class:`DualCoreRunSpec` is the dual-core counterpart of
:class:`~repro.sim.batch.RunSpec`: a frozen, picklable description of
one :class:`~repro.multicore.engine.MultiCoreEngine` run that plugs into
:func:`~repro.sim.batch.run_many` unchanged -- supervision (retries,
timeouts, partial results), the JSONL journal (tagged ``"kind":
"multicore"`` so resume rebuilds the right result class), parent-side
warmup precomputation, and per-run observability records feeding the
:class:`~repro.obs.report.SweepReport` all apply.  The duck-typed hooks
the sweep machinery calls:

* ``digest_payload()`` -- the physics-determining fields for
  :func:`~repro.sim.supervisor.spec_digest`;
* ``precompute_warmup()`` -- a copy of the spec with ``initial``
  filled, cached per workload pair in the parent;
* ``run_in_process()`` -- dispatched by
  :func:`~repro.sim.batch.run_one`, so serial, pooled, retried and
  lockstep-delegated paths all execute a dual-core spec identically.

Dual-core specs never enter a lockstep step group (each engine owns a
private thermal network): the lockstep runner detects the spec type and
falls back to per-spec dispatch.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Callable, Dict, Optional, Tuple, Union

import numpy as np

from repro.dtm.thresholds import ThermalThresholds
from repro.errors import SimulationError
from repro.multicore.engine import HOP_STALL_S, MultiCoreEngine, MultiCoreResult
from repro.multicore.hopping import CoreHopper, HoppingConfig
from repro.sim.config import EngineConfig
from repro.sim.faults import fire_prerun_faults
from repro.sim.supervisor import policy_token
from repro.workloads.workload import Workload

DEFAULT_DURATION_S = 2.0e-3


@dataclass(frozen=True, eq=False)
class DualCoreRunSpec:
    """One dual-core simulation run, described by value.

    Parameters
    ----------
    workloads:
        One workload (or SPEC benchmark name) per core.
    policies:
        One DTM policy per core: a technique name for
        :func:`~repro.core.policies.make_policy`, or a zero-argument
        picklable factory.
    duration_s:
        Measured simulation time.
    settle_time_s:
        Unmeasured lead-in with the policies active.
    hopping:
        When given, a :class:`~repro.multicore.hopping.CoreHopper` is
        built from this config (and ``thresholds``) for the run.
    thresholds:
        Emergency/trigger thresholds for the engine and hopper.
    engine_config:
        Full engine configuration override (thermal step, fast-forward,
        fault plan, ``raise_on_violation``).
    seed:
        Sensor-noise seed; each run is seeded from its spec alone.
    initial:
        Node temperature vector to start from; when omitted, the
        workload pair's no-DTM steady state is computed (cached per
        process, keyed by the pair's names).
    hop_stall_s:
        Stall charged to both cores on a hopper swap.
    """

    workloads: Tuple[Union[str, Workload], Union[str, Workload]]
    policies: Tuple[Union[str, Callable], Union[str, Callable]] = (
        "none",
        "none",
    )
    duration_s: float = DEFAULT_DURATION_S
    settle_time_s: float = 0.0
    hopping: Optional[HoppingConfig] = None
    thresholds: Optional[ThermalThresholds] = None
    engine_config: Optional[EngineConfig] = None
    seed: int = 0
    initial: Optional[np.ndarray] = None
    hop_stall_s: float = HOP_STALL_S

    def __post_init__(self) -> None:
        if len(self.workloads) != 2:
            raise SimulationError("dual-core spec needs exactly 2 workloads")
        if len(self.policies) != 2:
            raise SimulationError("dual-core spec needs exactly 2 policies")
        if self.duration_s <= 0.0:
            raise SimulationError("duration must be > 0")
        if self.settle_time_s < 0.0:
            raise SimulationError("settle time must be >= 0")

    @property
    def config(self) -> EngineConfig:
        """The effective engine configuration."""
        if self.engine_config is not None:
            return self.engine_config
        return EngineConfig()

    @property
    def workload_name(self) -> str:
        """Both workloads' names without building them."""
        return "+".join(
            w if isinstance(w, str) else w.name for w in self.workloads
        )

    @property
    def policy(self) -> str:
        """Combined policy token (for failure records and run ids)."""
        return "+".join(policy_token(p) for p in self.policies)

    # --- sweep-machinery hooks ---------------------------------------------

    def digest_payload(self) -> tuple:
        """Physics-determining fields for
        :func:`~repro.sim.supervisor.spec_digest` (the initial-vector
        token is appended by the caller)."""
        return (
            "dualcore",
            self.workload_name,
            self.policy,
            self.duration_s,
            self.settle_time_s,
            repr(self.hopping),
            repr(self.thresholds),
            repr(self.config),
            self.seed,
            self.hop_stall_s,
        )

    def precompute_warmup(self) -> "DualCoreRunSpec":
        """A copy with ``initial`` filled from the cached steady state."""
        if self.initial is not None:
            return self
        return replace(self, initial=dual_core_steady_state(self.workloads))

    def run_in_process(self) -> MultiCoreResult:
        """Execute this spec here (:func:`~repro.sim.batch.run_one`
        dispatch target)."""
        return run_dual_core(self)


# Per-process steady-state cache, keyed by the workload pair's names
# (warmup runs unmanaged at nominal operation, so policies, seeds and
# hopping cannot leak in).
_WARMUP_CACHE: Dict[str, np.ndarray] = {}


def _resolve_workloads(spec: DualCoreRunSpec):
    from repro.workloads.spec import build_benchmark

    return [
        build_benchmark(w) if isinstance(w, str) else w
        for w in spec.workloads
    ]


def _build_policies(spec: DualCoreRunSpec):
    from repro.core.policies import make_policy

    return [
        make_policy(p) if isinstance(p, str) else p()
        for p in spec.policies
    ]


def dual_core_steady_state(workloads) -> np.ndarray:
    """No-DTM dual-core steady-state node temperatures, cached per
    process (a copy is returned).  Workloads given by name are built
    only on a cache miss."""
    key = "+".join(w if isinstance(w, str) else w.name for w in workloads)
    cached = _WARMUP_CACHE.get(key)
    if cached is None:
        from repro.workloads.spec import build_benchmark

        built = [
            build_benchmark(w) if isinstance(w, str) else w
            for w in workloads
        ]
        cached = MultiCoreEngine(built).compute_initial_temperatures()
        _WARMUP_CACHE[key] = cached
    return cached.copy()


def build_engine(spec: DualCoreRunSpec) -> MultiCoreEngine:
    """The configured :class:`MultiCoreEngine` for one spec."""
    hopper = None
    if spec.hopping is not None:
        hopper = CoreHopper(spec.hopping, thresholds=spec.thresholds)
    return MultiCoreEngine(
        _resolve_workloads(spec),
        policies=_build_policies(spec),
        hopper=hopper,
        thresholds=spec.thresholds,
        config=spec.config,
        seed=spec.seed,
        hop_stall_s=spec.hop_stall_s,
    )


def run_dual_core(spec: DualCoreRunSpec) -> MultiCoreResult:
    """Execute one dual-core spec in this process.

    Mirrors :func:`~repro.sim.batch.run_one`'s single-core path (which
    dispatches here and holds the run's record): pre-run harness faults
    fire first, and the warmup fills in when not pinned.
    """
    fire_prerun_faults(spec.config.fault_plan, spec.seed)
    engine = build_engine(spec)
    initial = spec.initial
    if initial is None:
        initial = dual_core_steady_state(spec.workloads)
    return engine.run(
        spec.duration_s,
        initial=np.array(initial, dtype=float, copy=True),
        settle_time_s=spec.settle_time_s,
    )
