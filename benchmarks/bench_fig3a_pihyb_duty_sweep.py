"""Figure 3a: PI-Hyb slowdown versus maximum fetch-gating duty cycle.

Paper result: with DVS-stall the best maximum duty cycle is 3 (skip fetch
once every three cycles); slowdown rises sharply for deeper gating, while
the mild end of the sweep is nearly flat.
"""

from _helpers import (
    bench_instructions,
    bench_processes,
    reset_throughput,
    save_table,
    throughput_report,
)

from repro.analysis import render_table
from repro.analysis.experiments import fig3a_pihyb_duty_sweep
from repro.core import find_crossover


def _run(dvs_mode: str) -> str:
    reset_throughput()
    result = fig3a_pihyb_duty_sweep(
        dvs_mode=dvs_mode,
        instructions=bench_instructions(),
        processes=bench_processes(),
    )
    rows = []
    for duty, evaluation in sorted(result.evaluations.items(), reverse=True):
        rows.append(
            [duty, evaluation.mean_slowdown, evaluation.total_violations]
        )
    crossover = find_crossover(result)
    table = render_table(
        ["max duty cycle", "mean slowdown", "violations"],
        rows,
        title=(
            f"Figure 3a (DVS-{dvs_mode}): PI-Hyb duty-cycle sweep -- "
            f"crossover at duty {crossover:g} "
            f"(paper: 3 for stall, 20 for ideal)"
        ),
    )
    return table + "\n\n" + throughput_report()


def test_fig3a_duty_sweep_stall(benchmark):
    table = benchmark.pedantic(_run, args=("stall",), rounds=1, iterations=1)
    save_table("fig3a_stall", table)


def test_fig3a_duty_sweep_ideal(benchmark):
    table = benchmark.pedantic(_run, args=("ideal",), rounds=1, iterations=1)
    save_table("fig3a_ideal", table)
