"""Figure 4a: technique comparison with DVS-stall.

Paper result: slowdown ordering FG >> DVS > PI-Hyb ~ Hyb; the hybrids beat
DVS by 5.5-6 % performance, about a 25 % reduction in DTM overhead, with
the differences significant at the 99 % confidence level.
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
        dvs_mode="stall",
        instructions=bench_instructions(),
        processes=bench_processes(),
    )
    benchmarks = sorted(results["DVS"].slowdowns)
    rows = []
    for name in ("FG", "DVS", "PI-Hyb", "Hyb"):
        evaluation = results[name]
        row = [name, evaluation.mean_slowdown, evaluation.total_violations]
        rows.append(row)
    lines = [
        render_table(
            ["technique", "mean slowdown", "violations"],
            rows,
            title="Figure 4a: DTM slowdown with DVS-stall "
                  "(9 SPEC benchmarks)",
        )
    ]
    per_bench_rows = [
        [b] + [results[n].slowdowns[b] for n in ("FG", "DVS", "PI-Hyb", "Hyb")]
        for b in benchmarks
    ]
    lines.append(
        render_table(
            ["benchmark", "FG", "DVS", "PI-Hyb", "Hyb"],
            per_bench_rows,
            title="Per-benchmark slowdowns",
        )
    )
    for hybrid in ("PI-Hyb", "Hyb"):
        reduction = overhead_reduction(
            results["DVS"].mean_slowdown, results[hybrid].mean_slowdown
        )
        stats = paired_comparison(
            results[hybrid].slowdowns, results["DVS"].slowdowns
        )
        lines.append(
            f"{hybrid} vs DVS: {reduction * 100:.1f}% overhead reduction "
            f"(paper: ~25%), p={stats.p_value:.4g}, "
            f"significant at 99%: {stats.significant(0.99)}"
        )
    lines.append(throughput_report())
    return "\n\n".join(lines)


def test_fig4a_comparison_stall(benchmark):
    table = benchmark.pedantic(_run, rounds=1, iterations=1)
    save_table("fig4a_stall", table)
