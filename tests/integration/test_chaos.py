"""Chaos smoke: injected harness faults must not change sweep results.

The invariant gated here is the whole point of the resilience layer --
every run is seeded from its spec alone, so a run that was crashed,
corrupted, timed out, or resumed from a journal must converge to the
bit-identical result of a fault-free sweep.  A small figure-3b-style
grid (benchmarks x policies) is driven through ``run_many`` with one
worker killed and one solver step poisoned, and the healed outcomes are
compared field-by-field against the clean reference.
"""

import pytest

from repro.sim import (
    EngineConfig,
    FaultPlan,
    RunSpec,
    load_journal,
    run_many,
    run_one,
    spec_digest,
)
from repro.sim.supervisor import listen_outcomes

FAST_N = 1_500_000
SETTLE = 1.0e-4
GRID = [
    ("gcc", "FG"),
    ("gcc", "DVS"),
    ("gzip", "FG"),
    ("gzip", "DVS"),
]

RESULT_FIELDS = (
    "benchmark",
    "policy",
    "instructions",
    "elapsed_s",
    "cycles",
    "violations",
    "max_true_temp_c",
    "hottest_block",
    "time_above_trigger_s",
    "dvs_switches",
    "stall_time_s",
    "mean_power_w",
)


def _spec(index, plan=None):
    benchmark, policy = GRID[index]
    config = EngineConfig(fault_plan=plan) if plan is not None else None
    return RunSpec(
        workload=benchmark,
        policy=policy,
        instructions=FAST_N,
        settle_time_s=SETTLE,
        seed=index,
        engine_config=config,
    )


def _clean_specs():
    return [_spec(i) for i in range(len(GRID))]


def _chaos_specs():
    # One spec kills its pool worker, another poisons a solver step with
    # NaN power; both are transient harness faults that the supervisor
    # must heal by re-running the spec fault-free.
    plans = {
        1: FaultPlan(crash_worker=True),
        2: FaultPlan(corrupt_power_at_step=5, corruption="nan"),
    }
    return [_spec(i, plans.get(i)) for i in range(len(GRID))]


def _as_tuple(result):
    return tuple(getattr(result, field) for field in RESULT_FIELDS)


@pytest.fixture(scope="module")
def reference():
    """Fault-free sweep, serial run_one semantics for every spec (a
    lockstep sweep gives the same results bit for bit)."""
    return [_as_tuple(run_one(spec)) for spec in _clean_specs()]


class TestChaosInvariant:
    def test_faulty_pool_sweep_matches_fault_free(self, reference):
        healed = run_many(
            _chaos_specs(),
            processes=2,
            timeout_s=120.0,
            retries=2,
            backoff_s=0.0,
        )
        assert [_as_tuple(r) for r in healed] == reference

    def test_faulty_serial_sweep_matches_fault_free(self, reference):
        healed = run_many(_chaos_specs(), retries=2, backoff_s=0.0)
        assert [_as_tuple(r) for r in healed] == reference

    def test_unaffected_specs_do_not_pay_for_the_faulty_ones(self, reference):
        # Specs without a fault plan digest identically to the clean
        # grid, so a journal written during the chaos sweep doubles as
        # the clean sweep's journal for those entries.
        clean, chaos = _clean_specs(), _chaos_specs()
        for i in (0, 3):
            assert spec_digest(clean[i]) == spec_digest(chaos[i])
        for i in (1, 2):
            assert spec_digest(clean[i]) != spec_digest(chaos[i])


class TestResumeAfterKill:
    def test_resume_reexecutes_only_unfinished_specs(
        self, tmp_path, reference
    ):
        path = tmp_path / "sweep.jsonl"
        specs = _clean_specs()
        run_many(specs, journal=str(path))

        # Simulate the sweep process dying after two finishes: keep the
        # journal's first two lines, then resume the same grid.
        lines = path.read_text().splitlines()
        path.write_text("\n".join(lines[:2]) + "\n")
        finished = {
            entry for entry in load_journal(path)
        }

        # Every run the resumed sweep executes reports its outcome.
        executed = []

        def note(index, outcome):
            executed.append(spec_digest(specs[index]))

        with listen_outcomes(note):
            resumed = run_many(specs, resume=str(path))

        assert [_as_tuple(r) for r in resumed] == reference
        assert len(executed) == len(specs) - 2
        assert finished.isdisjoint(executed)
        # The resumed finishes were appended: the journal is now whole.
        assert len(load_journal(path)) == len(specs)
