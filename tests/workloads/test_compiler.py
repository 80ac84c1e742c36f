"""The workload trace compiler (phase schedules lowered to arrays)."""

import numpy as np
import pytest

from repro.errors import SimulationError, WorkloadError
from repro.multicore.engine import _WORKLOAD_BLOCK_ORDER
from repro.uarch.interval import DtmActuation, IntervalPerformanceModel
from repro.workloads import build_benchmark
from repro.workloads.compiler import (
    ACTIVITY_CACHE_SIZE,
    CompiledIntervalModel,
    CompiledSchedule,
    compile_workload,
)
from repro.workloads.spec import SPEC_BENCHMARK_NAMES


@pytest.fixture(scope="module")
def gcc():
    return build_benchmark("gcc")


@pytest.fixture(scope="module")
def schedule(gcc, floorplan):
    return compile_workload(gcc, floorplan.block_names)


class TestCompileWorkload:
    def test_cached_per_block_order(self, gcc, floorplan, schedule):
        assert compile_workload(gcc, floorplan.block_names) is schedule

    def test_distinct_block_orders_get_distinct_schedules(
        self, gcc, floorplan
    ):
        names = tuple(floorplan.block_names)
        reversed_names = tuple(reversed(names))
        a = compile_workload(gcc, names)
        b = compile_workload(gcc, reversed_names)
        assert a is not b
        assert b.block_names == reversed_names

    def test_rejects_empty_inputs(self, gcc):
        with pytest.raises(WorkloadError):
            CompiledSchedule(gcc.phases, ())
        with pytest.raises(WorkloadError):
            CompiledSchedule([], ("IntReg",))


class TestActivities:
    def test_matches_interpreted_arithmetic_bit_for_bit(self, schedule):
        for k, phase in enumerate(schedule.phases):
            mapping = phase.activity_model.activities(0.75, 0.5)
            vector = schedule.activities(k, 0.75, 0.5)
            reference = schedule.vector_from_mapping(mapping)
            assert np.array_equal(vector, reference)

    def test_clamped_at_one(self, schedule):
        acts = schedule.activities(0, 1.0, 1.0)
        assert float(acts.max()) <= 1.0

    def test_cache_returns_shared_readonly_vector(self, schedule):
        a = schedule.activities(0, 0.9, 0.9)
        b = schedule.activities(0, 0.9, 0.9)
        assert a is b
        assert not a.flags.writeable
        with pytest.raises(ValueError):
            a[0] = 2.0

    def test_cache_is_bounded(self, gcc, floorplan):
        fresh = CompiledSchedule(gcc.phases, tuple(floorplan.block_names))
        for i in range(ACTIVITY_CACHE_SIZE + 16):
            fresh.activities(0, 1.0 - i * 1e-7, 1.0)
        assert len(fresh._act_cache) <= ACTIVITY_CACHE_SIZE

    def test_rejects_negative_rates(self, schedule):
        with pytest.raises(WorkloadError):
            schedule.activities(0, -0.1, 1.0)

    def test_vector_from_mapping_ignores_unknown_blocks(self, schedule):
        out = schedule.vector_from_mapping({"NoSuchBlock": 0.5})
        assert not out.any()

    def test_vector_from_mapping_places_by_block_order(self, schedule):
        name = schedule.block_names[3]
        out = schedule.vector_from_mapping({name: 0.25})
        assert out[3] == 0.25
        assert np.count_nonzero(out) == 1


class TestCompiledIntervalModel:
    # The engines drive every run from the compiled model: the
    # single-core engine in floorplan block order, the dual-core engine
    # in its per-workload order (core blocks, then shared-L2 demand).
    @pytest.mark.parametrize("order", ["single", "dual"])
    @pytest.mark.parametrize("bench_name", SPEC_BENCHMARK_NAMES)
    def test_matches_interpreted(self, bench_name, order, floorplan):
        workload = build_benchmark(bench_name)
        block_order = (
            floorplan.block_names if order == "single"
            else _WORKLOAD_BLOCK_ORDER
        )
        schedule = compile_workload(workload, block_order)
        compiled = CompiledIntervalModel(schedule, loop=True, verify=True)
        interpreted = IntervalPerformanceModel(workload.phases, loop=True)
        actuations = [
            DtmActuation(),
            DtmActuation(gating_fraction=0.4),
            DtmActuation(relative_frequency=0.7, clock_enabled_fraction=0.9),
        ]
        phase_names = set()
        for i in range(300):
            act = actuations[i % len(actuations)]
            a = compiled.advance(100_000, act)
            b = interpreted.advance(100_000, act)
            assert a.cycles == b.cycles
            assert a.instructions == b.instructions
            assert a.fetch_rate_rel == b.fetch_rate_rel
            assert a.commit_rate_rel == b.commit_rate_rel
            assert a.phase_name == b.phase_name
            assert np.array_equal(
                a.acts, schedule.vector_from_mapping(b.activities)
            )
            phase_names.add(a.phase_name)
        # The walk must cross at least one phase boundary so the
        # delegating slow path is exercised, not just the fast path.
        assert len(phase_names) > 1

    def test_sample_is_reused_in_place(self, gcc, floorplan):
        model = CompiledIntervalModel(
            compile_workload(gcc, floorplan.block_names)
        )
        first = model.advance(10_000, DtmActuation())
        second = model.advance(10_000, DtmActuation(gating_fraction=0.2))
        assert first is second

    def test_verify_mode_accepts_clean_schedule(self, gcc, floorplan):
        model = CompiledIntervalModel(
            compile_workload(gcc, floorplan.block_names), verify=True
        )
        for _ in range(50):
            model.advance(50_000, DtmActuation(gating_fraction=0.3))

    def test_verify_mode_detects_divergence(self, gcc, floorplan):
        tampered = CompiledSchedule(gcc.phases, tuple(floorplan.block_names))
        tampered.base_activities *= 0.5
        model = CompiledIntervalModel(tampered, verify=True)
        with pytest.raises(SimulationError, match="diverged"):
            model.advance(10_000, DtmActuation())

    def test_rejects_non_positive_interval(self, gcc, floorplan):
        model = CompiledIntervalModel(
            compile_workload(gcc, floorplan.block_names)
        )
        with pytest.raises(SimulationError):
            model.advance(0, DtmActuation())
