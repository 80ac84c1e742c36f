"""Run-invariant state shared per process must not make results depend
on run order.

Sensor arrays read their noise from the process-wide noise table and
solvers read their operators from the network's operator bank.  A spec
run with both empty must give exactly the result it gives after a
lockstep sweep has filled them.
"""

from repro.sensors import array as sensor_array
from repro.sensors.array import NoiseTable
from repro.sim import batch
from repro.sim.batch import RunSpec, run_many, run_one
from repro.workloads.spec import SPEC_BENCHMARK_NAMES

# Long enough (~100 sensor samples per run, with the settle window) for
# the runs to cross the noise table's first block boundary, and to
# jump spans through the operator bank's (dt, K) powers.
INSTRUCTIONS = 40_000_000
SETTLE_S = 2.0e-3


def _spec(benchmark: str) -> RunSpec:
    return RunSpec(
        benchmark,
        "Hyb",
        instructions=INSTRUCTIONS,
        settle_time_s=SETTLE_S,
        seed=3,
    )


def test_run_one_is_independent_of_shared_state(monkeypatch):
    # Empty shared state: a fresh noise table and a fresh substrate
    # (hence a fresh thermal network with an empty operator bank).
    table = NoiseTable()
    monkeypatch.setattr(sensor_array, "NOISE_TABLE", table)
    monkeypatch.setattr(batch, "_SUBSTRATE", None)
    spec = _spec("gcc")
    cold = run_one(spec).to_json_dict()
    network = batch._default_substrate()[1].network
    (stream,) = table._streams.values()
    assert len(stream.blocks) >= 2

    # A 9-run lockstep sweep over the same seed and substrate fills
    # both: it extends the shared noise stream and the bank's caches.
    specs = [_spec(name) for name in SPEC_BENCHMARK_NAMES]
    assert len(specs) == 9
    run_many(specs)
    assert batch._default_substrate()[1].network is network
    assert len(network.operator_bank._powers) > 0

    warm = run_one(spec).to_json_dict()
    assert warm == cold
