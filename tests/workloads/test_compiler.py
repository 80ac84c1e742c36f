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
        compiled = CompiledIntervalModel(schedule, loop=True)
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

    def test_rejects_non_positive_interval(self, gcc, floorplan):
        model = CompiledIntervalModel(
            compile_workload(gcc, floorplan.block_names)
        )
        with pytest.raises(SimulationError):
            model.advance(0, DtmActuation())


def _state(model):
    sample = model._sample
    return (
        model._phase_index,
        model._instructions_left,
        model.total_instructions,
        sample.cycles,
        sample.instructions,
        sample.fetch_rate_rel,
        sample.commit_rate_rel,
        sample.phase_name,
    )


class TestPhaseRun:
    """``phase_run`` + ``commit(n)`` == ``n`` fast-path ``advance`` calls."""

    ACTUATIONS = [
        DtmActuation(),
        DtmActuation(gating_fraction=0.3),
        DtmActuation(relative_frequency=0.7, clock_enabled_fraction=0.9),
    ]

    @pytest.fixture
    def gcc_schedule(self, gcc, floorplan):
        return compile_workload(gcc, floorplan.block_names)

    @pytest.mark.parametrize("actuation", ACTUATIONS)
    def test_commit_equals_advances(self, gcc_schedule, actuation):
        # 200k-cycle intervals cross a gcc phase boundary every ~15
        # intervals, so the walk alternates runs and boundary steps.
        ran = CompiledIntervalModel(gcc_schedule)
        stepped = CompiledIntervalModel(gcc_schedule)
        cycles = 200_000
        boundaries = runs = 0
        phases = set()
        for i in range(120):
            n, instructions, acts = ran.phase_run(cycles, actuation, 11)
            if n == 0:
                boundaries += 1
                a = ran.advance(cycles, actuation)
                b = stepped.advance(cycles, actuation)
                assert np.array_equal(a.acts, b.acts)
            else:
                runs += 1
                assert 1 <= n <= 11
                k = n if i % 2 else max(1, n // 2)
                for _ in range(k):
                    b = stepped.advance(cycles, actuation)
                    assert b.instructions == instructions
                    assert b.acts is acts
                ran.commit(k)
                assert ran._sample.acts is stepped._sample.acts
            assert _state(ran) == _state(stepped)
            phases.add(ran._sample.phase_name)
        assert boundaries and runs and len(phases) > 1

    def test_n_counts_exactly_the_fast_path_steps(self, gcc_schedule):
        actuation = DtmActuation(gating_fraction=0.2)
        cycles = 150_000
        model = CompiledIntervalModel(gcc_schedule)
        probe = CompiledIntervalModel(gcc_schedule)
        for _ in range(6):
            n, instructions, _ = model.phase_run(cycles, actuation, 10**9)
            name = model.current_phase.name
            for _ in range(n):
                sample = probe.advance(cycles, actuation)
                assert sample.phase_name == name
                assert sample.instructions == instructions
            model.commit(n)
            # The next step crosses the boundary: the slow path.
            assert model.phase_run(cycles, actuation, 10**9)[0] == 0
            sample = probe.advance(cycles, actuation)
            assert model.current_phase.name == name
            model.advance(cycles, actuation)
            assert model.current_phase.name != name
            assert probe.current_phase.name == model.current_phase.name

    def test_sizing_leaves_the_model_untouched(self, gcc_schedule):
        model = CompiledIntervalModel(gcc_schedule)
        model.advance(10_000, DtmActuation())
        before = _state(model)
        acts = model._sample.acts
        actuation = DtmActuation(gating_fraction=0.5)
        assert model.phase_run(10_000, actuation, 40)[0]
        assert _state(model) == before
        assert model._sample.acts is acts

    def test_limit_bounds_the_run(self, gcc_schedule):
        model = CompiledIntervalModel(gcc_schedule)
        assert model.phase_run(10_000, DtmActuation(), 3)[0] == 3
        assert model.phase_run(10_000, DtmActuation(), 0)[0] == 0

    @pytest.mark.parametrize("fraction", [0.0, 1e-14])
    def test_gated_clock_is_never_a_run(self, gcc_schedule, fraction):
        actuation = DtmActuation(clock_enabled_fraction=fraction)
        model = CompiledIntervalModel(gcc_schedule)
        assert model.phase_run(10_000, actuation, 30) == (0, 0.0, None)
        assert model.advance(10_000, actuation).instructions == 0.0

    def test_commit_rejects_a_stale_or_overlong_run(self, gcc_schedule):
        model = CompiledIntervalModel(gcc_schedule)
        n, _, _ = model.phase_run(10_000, DtmActuation(), 5)
        with pytest.raises(SimulationError):
            model.commit(n + 1)
        model.advance(10_000, DtmActuation())
        with pytest.raises(SimulationError):
            model.commit(1)
        model.commit(0)  # a no-op, whatever was sized
        n, _, _ = model.phase_run(10_000, DtmActuation(), 5)
        model.commit(n)
        with pytest.raises(SimulationError):
            model.commit(1)
