"""Fault composition and trace recording on the compiled step pipeline.

The engine lowers every workload's phase schedule to contiguous arrays
once per run (:mod:`repro.workloads.compiler`).  Its outputs are pinned
by the golden runs (``test_golden_runs.py``) and its arithmetic by the
compiler's component tests; this module checks that fault plans reach
the sensor array and that the per-step trace is stored in chunks that
only traced runs allocate.
"""

from dataclasses import asdict

from repro.core.policies import make_policy
from repro.sensors.faults import SensorFault
from repro.sim import EngineConfig, SimulationEngine
from repro.sim.engine import TraceBuffer
from repro.sim.faults import FaultPlan

FAST_N = 1_000_000


def _result(workload, *, policy="Hyb", seed=5, **config_kwargs):
    engine = SimulationEngine(
        workload,
        policy=make_policy(policy),
        config=EngineConfig(**config_kwargs),
        seed=seed,
    )
    init = engine.compute_initial_temperatures()
    return engine.run(FAST_N, initial=init, settle_time_s=2.0e-4)


class TestFaultComposition:
    def test_fault_plan_differs_from_clean_run(self, gzip_workload):
        # Guard against the golden fault scenario passing vacuously: the
        # injected fault must actually reach the sensor array.
        plan = FaultPlan(
            sensor_faults=(SensorFault.stuck("IntReg", 40.0),)
        )
        clean = _result(gzip_workload)
        faulted = _result(gzip_workload, fault_plan=plan)
        assert asdict(clean) != asdict(faulted)


class TestTrace:
    def test_no_trace_buffers_allocated_when_tracing_off(
        self, gzip_workload
    ):
        created_before = TraceBuffer.created
        result = _result(gzip_workload, record_trace=False)
        assert result.trace is None
        assert TraceBuffer.created == created_before

    def test_trace_buffer_grows_past_one_chunk(self):
        buffer = TraceBuffer(("IntReg",))
        for i in range(TraceBuffer.CHUNK + 10):
            buffer.append(i * 1e-5, 0, 80.0, 0.0, 1.0, 1.0, 1000.0)
        assert len(buffer) == TraceBuffer.CHUNK + 10
        points = buffer.points()
        assert len(points) == TraceBuffer.CHUNK + 10
        assert points[-1].time_s == (TraceBuffer.CHUNK + 9) * 1e-5
