"""The paper's headline claims, verified on the full suite.

The instruction budget matches the benchmark harness's default (20 M per
run, about 7 ms of execution -- several thermal regulation periods, which
is what makes slowdown comparisons stable).  This module is the slowest
part of the test suite (~2 minutes) but guards the reproduction's core
results.
"""

import pytest

from repro.analysis import paired_comparison
from repro.analysis.experiments import (
    fig3a_pihyb_duty_sweep,
    t1_dvs_step_sensitivity,
)
from repro.core import evaluate_techniques, find_crossover, overhead_reduction
from repro.core.evaluation import run_baselines

N = 20_000_000
SETTLE = 2.0e-3


@pytest.fixture(scope="module")
def baselines():
    return run_baselines(instructions=N, settle_time_s=SETTLE)


@pytest.fixture(scope="module")
def stall(baselines):
    return evaluate_techniques(dvs_mode="stall", baselines=baselines)


@pytest.fixture(scope="module")
def ideal(baselines):
    return evaluate_techniques(dvs_mode="ideal", baselines=baselines)


@pytest.fixture(scope="module")
def t1_spreads():
    """T1's spread per DVS mode: max minus min mean slowdown over the
    level counts, as ``bench_t1`` reports it."""
    results = t1_dvs_step_sensitivity(instructions=N)
    return {
        mode: max(per_count.values()) - min(per_count.values())
        for mode, per_count in results.items()
    }


class TestProtection:
    def test_all_techniques_violation_free(self, stall, ideal):
        for results in (stall, ideal):
            for name, evaluation in results.items():
                assert evaluation.total_violations == 0, name

    def test_baselines_spend_nearly_all_time_above_trigger(self, baselines):
        # Paper Section 3: "All operate above [the trigger] 95+% of the
        # time and above 90% most of the time."
        for name, run in baselines.baseline.items():
            assert run.fraction_above_trigger > 0.9, name

    def test_integer_register_file_is_always_the_hotspot(self, baselines):
        for name, run in baselines.baseline.items():
            assert run.hottest_block == "IntReg", name


class TestOrdering:
    def test_fetch_gating_is_the_worst_standalone_technique(self, stall):
        fg = stall["FG"].mean_slowdown
        for other in ("DVS", "PI-Hyb", "Hyb"):
            assert fg > stall[other].mean_slowdown

    def test_hybrids_beat_dvs_under_stall(self, stall):
        dvs = stall["DVS"].mean_slowdown
        assert stall["PI-Hyb"].mean_slowdown < dvs
        assert stall["Hyb"].mean_slowdown < dvs

    def test_hybrids_beat_dvs_under_ideal(self, ideal):
        dvs = ideal["DVS"].mean_slowdown
        assert ideal["PI-Hyb"].mean_slowdown < dvs
        assert ideal["Hyb"].mean_slowdown < dvs

    def test_hybrid_beats_even_idealized_dvs(self, stall, ideal):
        # Paper: "can also outperform even an idealized DVS that has no
        # switching overhead."
        assert stall["PI-Hyb"].mean_slowdown < ideal["DVS"].mean_slowdown

    def test_eliminating_pi_control_sacrifices_little(self, stall):
        # Paper: Hyb performs within a whisker of PI-Hyb.
        gap = abs(
            stall["Hyb"].mean_slowdown - stall["PI-Hyb"].mean_slowdown
        )
        assert gap < 0.02


class TestMagnitudes:
    def test_stall_overhead_reduction_in_papers_range(self, stall):
        # Paper: about 25 % reduction in DTM overhead; accept a generous
        # band at reduced scale.
        reduction = overhead_reduction(
            stall["DVS"].mean_slowdown, stall["PI-Hyb"].mean_slowdown
        )
        assert 0.10 < reduction < 0.45

    def test_ideal_overhead_reduction_smaller_but_positive(self, ideal):
        # Paper: about 11 % against idealized DVS.
        reduction = overhead_reduction(
            ideal["DVS"].mean_slowdown, ideal["PI-Hyb"].mean_slowdown
        )
        assert 0.0 < reduction < 0.35

    def test_ideal_dvs_no_slower_than_stall_dvs(self, stall, ideal):
        assert ideal["DVS"].mean_slowdown <= stall["DVS"].mean_slowdown

    def test_dvs_overhead_magnitude_plausible(self, stall):
        # Binary DVS at 85 % voltage costs at most the full frequency
        # ratio and at least a few percent on this hot suite.
        dvs = stall["DVS"].mean_slowdown
        assert 1.03 < dvs < 1.15


class TestKnownDeviations:
    """Paper claims this reproduction does not meet, as strict xfails:
    the day a change makes one hold, its test fails and the deviation
    note in EXPERIMENTS.md (Figure 4a) is due for a rewrite."""

    @pytest.mark.xfail(
        strict=True,
        reason="EXPERIMENTS.md Figure 4a: absolute DVS-stall overhead is "
        "7.2 % here against the paper's ~22 %",
    )
    def test_dvs_stall_overhead_near_the_papers(self, stall):
        overhead = stall["DVS"].mean_slowdown - 1.0
        assert overhead == pytest.approx(0.22, abs=0.05)

    @pytest.mark.xfail(
        strict=True,
        reason="EXPERIMENTS.md Figure 4a: Hyb vs DVS p = 0.026, "
        "significant at 95 % but not at the paper's 99 %",
    )
    def test_hyb_beats_dvs_at_99_percent(self, stall):
        comparison = paired_comparison(
            stall["Hyb"].slowdowns, stall["DVS"].slowdowns
        )
        assert comparison.p_value < 0.01


class TestKnownSweepDeviations:
    """The in-text T1 and Figure 3a claims this reproduction does not
    meet, as strict xfails: the day a change makes one hold, its test
    fails and the EXPERIMENTS.md note its reason cites is due for a
    rewrite."""

    @pytest.mark.xfail(
        strict=True,
        reason="EXPERIMENTS.md T1: DVS-stall level-count spread is 2.19 % "
        "here against the paper's < 0.4 %",
    )
    def test_t1_stall_spread_below_the_papers(self, t1_spreads):
        assert t1_spreads["stall"] < 0.004

    @pytest.mark.xfail(
        strict=True,
        reason="EXPERIMENTS.md T1: DVS-ideal level-count spread is 0.23 % "
        "here against the paper's < 0.01 %",
    )
    def test_t1_ideal_spread_below_the_papers(self, t1_spreads):
        assert t1_spreads["ideal"] < 0.0001

    @pytest.mark.xfail(
        strict=True,
        reason="EXPERIMENTS.md Figure 3a: the DVS-ideal crossover lands on "
        "duty 3 here, where the paper finds 20",
    )
    def test_ideal_dvs_crossover_at_the_papers_duty(self):
        sweep = fig3a_pihyb_duty_sweep(dvs_mode="ideal", instructions=N)
        assert find_crossover(sweep) == 20
