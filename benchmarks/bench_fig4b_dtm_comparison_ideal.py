"""Figure 4b: technique comparison with idealised DVS (no switch stall).

Paper result: with no switching overhead DVS improves, and the hybrids'
advantage shrinks to about 1 % performance (an ~11 % reduction in DTM
overhead) -- but they still win.
"""

from _helpers import (
    bench_instructions,
    bench_processes,
    reset_throughput,
    save_table,
    throughput_report,
)

from repro.analysis import paired_comparison, render_table
from repro.analysis.experiments import fig4_technique_comparison
from repro.core import overhead_reduction


def _run() -> str:
    reset_throughput()
    results = fig4_technique_comparison(
        dvs_mode="ideal",
        instructions=bench_instructions(),
        processes=bench_processes(),
    )
    rows = []
    for name in ("FG", "DVS", "PI-Hyb", "Hyb"):
        evaluation = results[name]
        rows.append([name, evaluation.mean_slowdown, evaluation.total_violations])
    lines = [
        render_table(
            ["technique", "mean slowdown", "violations"],
            rows,
            title="Figure 4b: DTM slowdown with DVS-ideal "
                  "(9 SPEC benchmarks)",
        )
    ]
    for hybrid in ("PI-Hyb", "Hyb"):
        reduction = overhead_reduction(
            results["DVS"].mean_slowdown, results[hybrid].mean_slowdown
        )
        stats = paired_comparison(
            results[hybrid].slowdowns, results["DVS"].slowdowns
        )
        lines.append(
            f"{hybrid} vs DVS-ideal: {reduction * 100:.1f}% overhead "
            f"reduction (paper: ~11%), p={stats.p_value:.4g}, "
            f"significant at 99%: {stats.significant(0.99)}"
        )
    lines.append(throughput_report())
    return "\n\n".join(lines)


def test_fig4b_comparison_ideal(benchmark):
    table = benchmark.pedantic(_run, rounds=1, iterations=1)
    save_table("fig4b_ideal", table)
