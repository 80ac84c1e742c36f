"""Figure 3b: stand-alone fetch gating versus the DVS reference line.

Paper result: FG slowdown is flat while ILP hides the gating, then rises
linearly with the gated fraction from about duty cycle 3; the FG and DVS
curves cross near duty cycle 2; only the deepest setting eliminates all
violations (which is why stand-alone FG needs feedback control).
"""

from _helpers import (
    bench_instructions,
    bench_processes,
    reset_throughput,
    save_table,
    throughput_report,
)

from repro.analysis import render_table
from repro.analysis.experiments import fig3b_fg_vs_dvs


def _run() -> str:
    reset_throughput()
    result = fig3b_fg_vs_dvs(
        instructions=bench_instructions(),
        processes=bench_processes(),
    )
    rows = []
    for duty in sorted(result.fg_mean_slowdowns, reverse=True):
        rows.append(
            [
                duty,
                result.fg_mean_slowdowns[duty],
                result.fg_violations[duty],
            ]
        )
    rows.append(["DVS (ref)", result.dvs_mean_slowdown, result.dvs_violations])
    table = render_table(
        ["duty cycle", "mean slowdown", "violations"],
        rows,
        title=(
            "Figure 3b: fixed-duty stand-alone FG sweep with binary "
            "DVS-stall superimposed"
        ),
    )
    return table + "\n\n" + throughput_report()


def test_fig3b_fg_vs_dvs(benchmark):
    table = benchmark.pedantic(_run, rounds=1, iterations=1)
    save_table("fig3b", table)
