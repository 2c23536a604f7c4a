"""Regression: fault-double call counters are race-free under threads.

The doubles promise "each run attempt takes the next number" — a contract
the supervisor crash tests rely on to schedule the Nth call.  The bare
``self.calls += 1`` read-modify-write could drop increments under
concurrent callers, silently skipping a scheduled crash.  These tests
hammer the counters from many threads and require exact totals, and pin
that a scheduled crash index fires exactly once across threads.
"""

from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from repro.serve.faults import CrashError, CrashingEngine, FlakyBuilder

THREADS = 8
CALLS_PER_THREAD = 200
TOTAL = THREADS * CALLS_PER_THREAD


class _NullEngine:
    input_shape = (1,)
    output_shape = (1,)
    deployed = None

    def run(self, batch):
        return batch


def _hammer(fn):
    with ThreadPoolExecutor(THREADS) as pool:
        list(pool.map(lambda _: fn(), range(TOTAL)))


def test_crashing_engine_counts_every_call_exactly_once():
    engine = CrashingEngine(_NullEngine(), crash_on=())
    batch = np.zeros((1,), dtype=np.float64)
    _hammer(lambda: engine.run(batch))
    assert engine.calls == TOTAL


def test_crashing_engine_scheduled_crash_fires_exactly_once():
    engine = CrashingEngine(_NullEngine(), crash_on={TOTAL // 2}, label="probe")
    batch = np.zeros((1,), dtype=np.float64)
    crashes = []

    def attempt():
        try:
            engine.run(batch)
        except CrashError as exc:
            crashes.append(str(exc))

    _hammer(attempt)
    assert engine.calls == TOTAL
    assert len(crashes) == 1
    assert f"call {TOTAL // 2}" in crashes[0]


def test_flaky_builder_counts_every_attempt_exactly_once():
    builder = FlakyBuilder(artifact="a", fail_on=())
    _hammer(builder)
    assert builder.calls == TOTAL


def test_flaky_builder_scheduled_failures_fire_exactly_once_each():
    fail_on = {10, TOTAL // 2, TOTAL}
    builder = FlakyBuilder(artifact="a", fail_on=fail_on, label="flaky")
    failures = []

    def attempt():
        try:
            builder()
        except CrashError as exc:
            failures.append(str(exc))

    _hammer(attempt)
    assert builder.calls == TOTAL
    assert len(failures) == len(fail_on)


def test_sequential_semantics_unchanged():
    engine = CrashingEngine(_NullEngine(), crash_on={2}, label="x")
    batch = np.zeros((1,), dtype=np.float64)
    engine.run(batch)
    with pytest.raises(CrashError, match="call 2"):
        engine.run(batch)
    engine.run(batch)
    assert engine.calls == 3

