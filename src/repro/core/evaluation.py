"""Suite-level evaluation harness.

Runs techniques over the nine-benchmark suite with the paper's protocol:
steady-state initialisation, a settling lead-in with the policy active,
then a fixed instruction budget measured against the no-DTM baseline.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import partial
from typing import Callable, Dict, List, Optional, Sequence

import numpy as np

from repro.core.metrics import mean_slowdown, slowdown_factor
from repro.core.policies import make_policy
from repro.dtm.base import DtmPolicy
from repro.errors import SimulationError
from repro.sim import batch
from repro.sim.batch import RunSpec
from repro.sim.config import EngineConfig
from repro.sim.results import RunResult
from repro.workloads.spec import build_spec_suite
from repro.workloads.workload import Workload

DEFAULT_INSTRUCTIONS = 20_000_000
"""Default per-benchmark instruction budget (a representative sample, as
the paper's SimPoint windows are; ~7 ms of 3 GHz execution)."""

DEFAULT_SETTLE_TIME_S = 2.0e-3
"""Default settling lead-in before measurement starts."""


@dataclass
class BenchmarkEvaluation:
    """One technique's result on one benchmark."""

    benchmark: str
    policy: str
    run: RunResult
    baseline: RunResult

    @property
    def slowdown(self) -> float:
        """Slowdown factor versus the unmanaged baseline."""
        return slowdown_factor(self.run, self.baseline)


@dataclass
class SuiteEvaluation:
    """One technique's results across the whole suite."""

    policy: str
    dvs_mode: str
    per_benchmark: List[BenchmarkEvaluation] = field(default_factory=list)

    @property
    def slowdowns(self) -> Dict[str, float]:
        """Per-benchmark slowdown factors."""
        return {e.benchmark: e.slowdown for e in self.per_benchmark}

    @property
    def mean_slowdown(self) -> float:
        """Mean slowdown across the suite (the paper's reported figure)."""
        return mean_slowdown([e.slowdown for e in self.per_benchmark])

    @property
    def total_violations(self) -> int:
        """Thermal violations across the suite (must be zero for a valid
        DTM configuration)."""
        return sum(e.run.violations for e in self.per_benchmark)


class _Baselines:
    """Cached no-DTM baselines and initial conditions per benchmark."""

    def __init__(
        self,
        suite: Sequence[Workload],
        instructions: int,
        settle_time_s: float,
        seed: int,
        processes: Optional[int] = None,
    ):
        self.suite = list(suite)
        self.instructions = instructions
        self.settle_time_s = settle_time_s
        self.seed = seed
        self.processes = processes
        self.initial: Dict[str, np.ndarray] = {
            workload.name: batch.steady_state_for(workload)
            for workload in self.suite
        }
        runs = batch.run_many(
            [
                RunSpec(
                    workload=workload,
                    policy="none",
                    instructions=instructions,
                    settle_time_s=settle_time_s,
                    seed=seed,
                    initial=self.initial[workload.name],
                )
                for workload in self.suite
            ],
            processes=processes,
        )
        self.baseline: Dict[str, RunResult] = {
            workload.name: run for workload, run in zip(self.suite, runs)
        }


def run_baselines(
    suite: Optional[Sequence[Workload]] = None,
    instructions: int = DEFAULT_INSTRUCTIONS,
    settle_time_s: float = DEFAULT_SETTLE_TIME_S,
    seed: int = 0,
    processes: Optional[int] = None,
) -> _Baselines:
    """Compute (and cache in the returned object) the no-DTM baselines.

    Reuse one baselines object across many :func:`evaluate_policy` calls:
    the baseline runs and steady-state solves dominate harness cost.
    ``processes`` fans the baseline runs out over a process pool and is
    remembered as the default for evaluations built on this object.
    """
    if suite is None:
        suite = build_spec_suite()
    return _Baselines(suite, instructions, settle_time_s, seed, processes)


def evaluate_policy(
    policy_factory: Callable[[], DtmPolicy],
    baselines: _Baselines,
    dvs_mode: str = "stall",
    engine_config: Optional[EngineConfig] = None,
    processes: Optional[int] = None,
) -> SuiteEvaluation:
    """Run one technique across the suite.

    Parameters
    ----------
    policy_factory:
        Zero-argument callable returning a *fresh* policy (controller
        state must not leak across benchmarks).  Must be picklable --
        e.g. ``functools.partial`` around a policy class -- to run in a
        process pool; lambdas still work but force a serial fallback.
    baselines:
        Output of :func:`run_baselines`.
    dvs_mode:
        ``"stall"`` or ``"ideal"`` (ignored if ``engine_config`` given).
    engine_config:
        Full engine configuration override.
    processes:
        Worker-process count for :func:`repro.sim.batch.run_many`;
        defaults to the count the baselines were built with.
    """
    config = (
        engine_config
        if engine_config is not None
        else EngineConfig(dvs_mode=dvs_mode)
    )
    if processes is None:
        processes = baselines.processes
    runs = batch.run_many(
        [
            RunSpec(
                workload=workload,
                policy=policy_factory,
                instructions=baselines.instructions,
                settle_time_s=baselines.settle_time_s,
                engine_config=config,
                seed=baselines.seed,
                initial=baselines.initial[workload.name],
            )
            for workload in baselines.suite
        ],
        processes=processes,
    )
    names = {run.policy for run in runs}
    if len(names) > 1:
        raise SimulationError(
            "policy_factory must build the same technique every call"
        )
    evaluation = SuiteEvaluation(policy=runs[0].policy, dvs_mode=config.dvs_mode)
    for workload, run in zip(baselines.suite, runs):
        evaluation.per_benchmark.append(
            BenchmarkEvaluation(
                benchmark=workload.name,
                policy=run.policy,
                run=run,
                baseline=baselines.baseline[workload.name],
            )
        )
    return evaluation


def evaluate_techniques(
    names: Sequence[str] = ("FG", "DVS", "PI-Hyb", "Hyb"),
    dvs_mode: str = "stall",
    baselines: Optional[_Baselines] = None,
    instructions: int = DEFAULT_INSTRUCTIONS,
    settle_time_s: float = DEFAULT_SETTLE_TIME_S,
    processes: Optional[int] = None,
) -> Dict[str, SuiteEvaluation]:
    """The Figure 4 experiment: all techniques over the full suite."""
    if baselines is None:
        baselines = run_baselines(
            instructions=instructions,
            settle_time_s=settle_time_s,
            processes=processes,
        )
    return {
        name: evaluate_policy(
            partial(make_policy, name),
            baselines,
            dvs_mode=dvs_mode,
            processes=processes,
        )
        for name in names
    }
