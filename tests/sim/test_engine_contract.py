"""Conformance suite for the :class:`repro.sim.contract.SimEngine` contract.

One parametrized suite, three engines -- the single-core generator
engine, the batched lockstep runner and the dual-core engine -- pinning
the guarantees the contract docstring promises: reset-reentrancy, seed
determinism, bit-identity of externally driven ``iter_run`` against
``run``, incremental ``build``/``step`` driving, the event channel, and
fault/guard behaviour.
"""

import numpy as np
import pytest

from repro.errors import NumericalError, SimulationError
from repro.multicore.engine import MultiCoreEngine
from repro.sim.batch import RunSpec
from repro.sim.config import EngineConfig
from repro.sim.contract import (
    EngineEvent,
    SimEngine,
    service_request,
    service_round,
)
from repro.sim.engine import SimulationEngine
from repro.sim.faults import FaultPlan
from repro.sim.lockstep import LockstepEngine
from repro.workloads.spec import build_benchmark

INSTRUCTIONS = 300_000
DURATION_S = 0.4e-3


def _single_core(config=None, seed=3):
    return (
        SimulationEngine(
            build_benchmark("crafty"),
            config=config if config is not None else EngineConfig(),
            seed=seed,
        ),
        INSTRUCTIONS,
    )


def _lockstep(config=None, seed=3):
    specs = [
        RunSpec(
            workload=name,
            instructions=INSTRUCTIONS,
            seed=seed + i,
            engine_config=config,
        )
        for i, name in enumerate(["crafty", "mesa"])
    ]
    return LockstepEngine(specs), None


def _multicore(config=None, seed=3):
    return (
        MultiCoreEngine(
            [build_benchmark("crafty"), build_benchmark("mesa")],
            config=config if config is not None else EngineConfig(),
            seed=seed,
        ),
        DURATION_S,
    )


FACTORIES = {
    "single-core": _single_core,
    "lockstep": _lockstep,
    "multicore": _multicore,
}


@pytest.fixture(params=sorted(FACTORIES), ids=sorted(FACTORIES))
def factory(request):
    return FACTORIES[request.param]


def canon(result):
    """A comparable (bit-exact) projection of any engine's result."""
    if isinstance(result, list):
        return [r.to_json_dict() for r in result]
    return result.to_json_dict()


class TestContractShape:
    def test_every_engine_implements_the_contract(self, factory):
        engine, _budget = factory()
        assert isinstance(engine, SimEngine)

    def test_run_equals_externally_driven_iter_run(self, factory):
        engine, budget = factory()
        reference = canon(engine.run(budget))
        engine.reset()
        generator = engine.iter_run(budget)
        reply = None
        while True:
            try:
                request = generator.send(reply)
            except StopIteration as stop:
                driven = canon(stop.value)
                break
            if isinstance(request, dict):
                reply = service_round(request)
            else:
                reply = service_request(request)
        assert driven == reference

    def test_build_step_matches_run(self, factory):
        engine, budget = factory()
        reference = canon(engine.run(budget))
        engine.reset()
        engine.build(budget)
        steps = 0
        while True:
            result = engine.step()
            if result is not None:
                break
            steps += 1
        assert steps > 0
        assert canon(result) == reference

    def test_step_without_build_raises(self, factory):
        engine, _budget = factory()
        with pytest.raises(SimulationError):
            engine.step()


class TestDeterminism:
    def test_reset_reentrancy(self, factory):
        engine, budget = factory()
        first = canon(engine.run(budget))
        engine.reset()
        second = canon(engine.run(budget))
        assert second == first

    def test_seed_determinism_across_fresh_engines(self, factory):
        engine_a, budget = factory()
        engine_b, _ = factory()
        assert canon(engine_a.run(budget)) == canon(engine_b.run(budget))

    def test_different_seeds_draw_different_sensor_noise(self, factory):
        # With no-DTM policies the physics is noise-independent, so
        # compare the observable seeded surface: the sensor offsets of
        # two fresh engines differ while two same-seed engines agree.
        engine_a, _ = factory(seed=3)
        if isinstance(engine_a, LockstepEngine):
            pytest.skip(
                "the lockstep engine owns no sensors; per-spec seeding "
                "is pinned by its own suite"
            )
        engine_b, _ = factory(seed=11)
        engine_c, _ = factory(seed=3)
        block = engine_a._sensors.block_names[0]
        assert engine_a._sensors.offset_of(block) != (
            engine_b._sensors.offset_of(block)
        )
        assert engine_a._sensors.offset_of(block) == (
            engine_c._sensors.offset_of(block)
        )


class TestEvents:
    def test_run_lifecycle_events(self, factory):
        engine, budget = factory()
        seen = []
        engine.subscribe(seen.append)
        engine.run(budget)
        names = [event.name for event in seen]
        assert names[0] == "run.start"
        assert names[-1] == "run.complete"
        assert all(isinstance(event, EngineEvent) for event in seen)

    def test_unsubscribe_stops_delivery(self, factory):
        engine, budget = factory()
        seen = []
        unsubscribe = engine.subscribe(seen.append)
        unsubscribe()
        engine.run(budget)
        assert seen == []

    def test_events_do_not_change_results(self, factory):
        engine, budget = factory()
        reference = canon(engine.run(budget))
        engine.reset()
        engine.subscribe(lambda event: None)
        assert canon(engine.run(budget)) == reference


class TestFaultConformance:
    """A poisoned power vector must trip the numerical guards on every
    engine (the lockstep runner surfaces it per-run; see its suite)."""

    # Fast-forward off so the poisoned execution step is reached within
    # the short budget (a no-DTM run otherwise jumps straight across it).
    CONFIG = EngineConfig(
        fault_plan=FaultPlan(corrupt_power_at_step=3),
        fast_forward=False,
    )

    def test_corrupt_power_trips_guards_single_core(self):
        engine, budget = _single_core(config=self.CONFIG)
        with pytest.raises(NumericalError):
            engine.run(budget)

    def test_corrupt_power_trips_guards_multicore(self):
        engine, budget = _multicore(config=self.CONFIG)
        with pytest.raises(NumericalError):
            engine.run(budget)
