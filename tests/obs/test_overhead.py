"""The disabled path must stay allocation-free.

The engine's hot loop and the library's cold paths all call into the
obs layer unconditionally; the contract that makes this acceptable is
that a disabled ``inc`` call allocates nothing and returns
immediately, and a disabled ``emit`` only appends to the bounded
crash ring.  These tests pin that contract with
``sys.getallocatedblocks``.
"""

import gc
import sys

from repro.obs import events, flightrec, heartbeat, metrics

N = 10_000
# Interpreter noise allowance: unrelated caches may allocate a handful
# of blocks; N no-op calls allocating anything real would show up as
# thousands.
SLACK = 50


def _allocated_blocks(fn) -> int:
    fn()  # warm any lazy setup outside the measured window
    gc.collect()
    before = sys.getallocatedblocks()
    fn()
    return sys.getallocatedblocks() - before


def test_disabled_inc_allocates_nothing(obs_dir):
    def burst():
        for _ in range(N):
            metrics.inc("hot.counter")

    assert _allocated_blocks(burst) < SLACK


def test_disabled_emit_holds_memory_at_the_ring(obs_dir):
    # ``emit`` always feeds the crash ring; with obs off it writes no
    # log, and once the ring is full each record evicts the oldest.
    def burst():
        for _ in range(N):
            events.emit("hot.event")

    assert _allocated_blocks(burst) < SLACK
    assert len(flightrec.snapshot()) == flightrec.RING_LEN
    assert not list(obs_dir.glob("events-*.jsonl"))


def test_disabled_heartbeat_begin_allocates_nothing(obs_dir):
    previous = heartbeat.set_enabled(False)
    try:

        def burst():
            for _ in range(N):
                heartbeat.begin("k", "gzip", "Hyb", 100.0)

        assert _allocated_blocks(burst) < SLACK
        assert heartbeat.snapshot() == {}
    finally:
        heartbeat.set_enabled(previous)


def test_disabled_heartbeat_active_allocates_nothing(obs_dir):
    # ``active`` is the engine's once-per-run capture; with nothing
    # registered it must be a free read returning None.
    def burst():
        for _ in range(N):
            heartbeat.active()

    assert heartbeat.active() is None
    assert _allocated_blocks(burst) < SLACK
