"""Experiment runners, one per figure/table of the paper's evaluation.

Every function takes the instruction budget (and where relevant the DVS
mode) so the same code serves quick tests and the full benchmark harness.
All return plain data structures; the benchmarks render them with
:func:`repro.analysis.tables.render_table`.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from typing import Dict, List, Optional, Sequence

from repro.core.crossover import (
    PAPER_DUTY_CYCLES,
    CrossoverResult,
    sweep_duty_cycles,
)
from repro.core.evaluation import (
    DEFAULT_INSTRUCTIONS,
    SuiteEvaluation,
    evaluate_policy,
    evaluate_techniques,
    run_baselines,
)
from repro.dtm.dvs import CONTINUOUS_LEVEL_COUNT, DvsConfig, DvsPolicy
from repro.dtm.fetch_gating import (
    FixedFetchGatingPolicy,
    duty_cycle_to_gating_fraction,
)
from repro.errors import ReproError


# --- Figure 3a -----------------------------------------------------------------

def fig3a_pihyb_duty_sweep(
    dvs_mode: str = "stall",
    duty_cycles: Sequence[float] = PAPER_DUTY_CYCLES,
    instructions: int = DEFAULT_INSTRUCTIONS,
    processes: Optional[int] = None,
    lockstep: Optional[bool] = None,
) -> CrossoverResult:
    """PI-Hyb slowdown as a function of the maximum fetch-gating duty
    cycle (Figure 3a)."""
    baselines = run_baselines(
        instructions=instructions, processes=processes, lockstep=lockstep
    )
    return sweep_duty_cycles(
        duty_cycles=duty_cycles,
        dvs_mode=dvs_mode,
        baselines=baselines,
        processes=processes,
    )


# --- Figure 3b -----------------------------------------------------------------

@dataclass
class Fig3bResult:
    """Stand-alone fetch gating versus the binary DVS reference line."""

    fg_mean_slowdowns: Dict[float, float]
    fg_violations: Dict[float, int]
    dvs_mean_slowdown: float
    dvs_violations: int


def fig3b_fg_vs_dvs(
    duty_cycles: Sequence[float] = PAPER_DUTY_CYCLES,
    dvs_mode: str = "stall",
    instructions: int = DEFAULT_INSTRUCTIONS,
    processes: Optional[int] = None,
    lockstep: Optional[bool] = None,
) -> Fig3bResult:
    """Fixed-duty stand-alone FG sweep with the DVS overhead superimposed
    (Figure 3b).

    Most duty cycles do not eliminate violations -- the violation counts
    are part of the result, as in the paper's discussion.

    ``lockstep`` selects the batched lockstep runner for the baselines
    and (via inheritance from the baselines object) every evaluation.
    """
    baselines = run_baselines(
        instructions=instructions, processes=processes, lockstep=lockstep
    )
    fg_means: Dict[float, float] = {}
    fg_violations: Dict[float, int] = {}
    for duty in duty_cycles:
        fraction = duty_cycle_to_gating_fraction(duty)
        evaluation = evaluate_policy(
            partial(FixedFetchGatingPolicy, fraction),
            baselines,
            dvs_mode=dvs_mode,
        )
        fg_means[duty] = evaluation.mean_slowdown
        fg_violations[duty] = evaluation.total_violations
    dvs = evaluate_policy(partial(DvsPolicy), baselines, dvs_mode=dvs_mode)
    return Fig3bResult(
        fg_mean_slowdowns=fg_means,
        fg_violations=fg_violations,
        dvs_mean_slowdown=dvs.mean_slowdown,
        dvs_violations=dvs.total_violations,
    )


# --- Figure 4 ------------------------------------------------------------------

def fig4_technique_comparison(
    dvs_mode: str = "stall",
    instructions: int = DEFAULT_INSTRUCTIONS,
    processes: Optional[int] = None,
    lockstep: Optional[bool] = None,
) -> Dict[str, SuiteEvaluation]:
    """FG / DVS / PI-Hyb / Hyb across the suite (Figure 4a or 4b by
    ``dvs_mode``)."""
    return evaluate_techniques(
        dvs_mode=dvs_mode,
        instructions=instructions,
        processes=processes,
        lockstep=lockstep,
    )


# --- In-text table T1: DVS step-count sensitivity --------------------------------

def t1_dvs_step_sensitivity(
    step_counts: Sequence[int] = (2, 3, 5, 10, CONTINUOUS_LEVEL_COUNT),
    dvs_modes: Sequence[str] = ("stall", "ideal"),
    instructions: int = DEFAULT_INSTRUCTIONS,
    processes: Optional[int] = None,
    lockstep: Optional[bool] = None,
) -> Dict[str, Dict[int, float]]:
    """Mean slowdown of DVS per level count and mode.

    The paper finds the level count barely matters: below 0.4 % spread for
    DVS-stall and below 0.01 % for DVS-ideal.
    """
    baselines = run_baselines(
        instructions=instructions, processes=processes, lockstep=lockstep
    )
    results: Dict[str, Dict[int, float]] = {}
    for mode in dvs_modes:
        per_mode: Dict[int, float] = {}
        for count in step_counts:
            config = DvsConfig(level_count=count)
            evaluation = evaluate_policy(
                partial(DvsPolicy, config),
                baselines,
                dvs_mode=mode,
            )
            per_mode[count] = evaluation.mean_slowdown
        results[mode] = per_mode
    return results


# --- In-text table T2: lowest safe voltage ---------------------------------------

@dataclass
class VoltageFloorResult:
    """Violations and slowdown per candidate low-voltage setting."""

    violations: Dict[float, int]
    mean_slowdowns: Dict[float, float]

    @property
    def largest_safe_ratio(self) -> Optional[float]:
        """The largest v_low/v_nominal that eliminates all violations."""
        safe = [ratio for ratio, count in self.violations.items() if count == 0]
        return max(safe) if safe else None


def t2_voltage_floor(
    ratios: Sequence[float] = (0.80, 0.825, 0.85, 0.875, 0.90, 0.925),
    dvs_mode: str = "stall",
    instructions: int = DEFAULT_INSTRUCTIONS,
    processes: Optional[int] = None,
    lockstep: Optional[bool] = None,
) -> VoltageFloorResult:
    """Binary-DVS low-voltage sweep: the paper reports 85 % of nominal as
    the largest setting that eliminates thermal violations."""
    if not ratios:
        raise ReproError("need at least one voltage ratio")
    baselines = run_baselines(
        instructions=instructions, processes=processes, lockstep=lockstep
    )
    violations: Dict[float, int] = {}
    slowdowns: Dict[float, float] = {}
    for ratio in ratios:
        config = DvsConfig(v_low_ratio=ratio)
        evaluation = evaluate_policy(
            partial(DvsPolicy, config),
            baselines,
            dvs_mode=dvs_mode,
        )
        violations[ratio] = evaluation.total_violations
        slowdowns[ratio] = evaluation.mean_slowdown
    return VoltageFloorResult(violations=violations, mean_slowdowns=slowdowns)


# --- In-text table T4: benchmark characterisation --------------------------------

@dataclass
class BenchmarkCharacter:
    """Unmanaged thermal character of one benchmark."""

    benchmark: str
    hottest_block: str
    max_temp_c: float
    fraction_above_trigger: float
    mean_power_w: float
    mean_ipc: float


def t4_benchmark_characterisation(
    instructions: int = DEFAULT_INSTRUCTIONS,
    processes: Optional[int] = None,
    lockstep: Optional[bool] = None,
) -> List[BenchmarkCharacter]:
    """No-DTM thermal characterisation of the nine benchmarks (paper,
    Section 3: all operate above the trigger most of the time, integer
    register file hottest)."""
    baselines = run_baselines(
        instructions=instructions, processes=processes, lockstep=lockstep
    )
    rows: List[BenchmarkCharacter] = []
    for workload in baselines.suite:
        run = baselines.baseline[workload.name]
        rows.append(
            BenchmarkCharacter(
                benchmark=workload.name,
                hottest_block=run.hottest_block,
                max_temp_c=run.max_true_temp_c,
                fraction_above_trigger=run.fraction_above_trigger,
                mean_power_w=run.mean_power_w,
                mean_ipc=workload.mean_ipc,
            )
        )
    return rows
