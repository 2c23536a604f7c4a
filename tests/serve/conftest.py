"""Serve-suite fixtures: fake clock, tiny models, watchdog.

Everything the serving tests need to run fast (< 10 s for the whole
suite) and deterministically: millisecond-scale MLP artifacts instead of
conv networks, a manually-advanced clock so latency/throughput
assertions are exact, a fake backoff sleep that *advances* that clock
(so restart-with-backoff sequences replay without wall-clock waits or
``time.sleep`` races), a fresh registry per test with builder-call
counting, and a per-test ``faulthandler`` watchdog that dumps all stacks
and kills the run if any single test hangs — a deadlocked supervisor
fails loudly instead of wedging CI.
"""

from __future__ import annotations

import faulthandler
import os

import numpy as np
import pytest

from repro.core import deploy_calibrated
from repro.core.engine import BatchedEngine
from repro.nn.layers import Dense, ReLU
from repro.nn.network import Network
from repro.serve import ModelRegistry

#: Hard per-test deadline for tests/serve — generous next to the <1 s a
#: healthy test takes, tiny next to a wedged condition-variable wait.
WATCHDOG_TIMEOUT_S = float(os.environ.get("REPRO_SERVE_TEST_TIMEOUT", "60"))


@pytest.fixture(autouse=True)
def serve_watchdog():
    """Per-test hang watchdog: dump every thread's stack, then exit hard.

    ``faulthandler.dump_traceback_later`` fires from a C thread, so it
    triggers even when all Python threads are deadlocked on locks —
    exactly the failure mode a broken supervisor produces.  Cancelled on
    the way out of every test, so the timer never outlives its test.
    """
    if WATCHDOG_TIMEOUT_S > 0:
        faulthandler.dump_traceback_later(WATCHDOG_TIMEOUT_S, exit=True)
    try:
        yield
    finally:
        faulthandler.cancel_dump_traceback_later()


class FakeClock:
    """Deterministic seconds-valued clock: call it to read, advance it to tick."""

    def __init__(self, start: float = 1000.0):
        self._now = start

    def __call__(self) -> float:
        return self._now

    def advance(self, seconds: float) -> None:
        assert seconds >= 0, "a monotonic clock cannot go backwards"
        self._now += seconds

    def sleeper(self, log: list | None = None):
        """A ``sleep(seconds)`` that advances this clock instead of waiting.

        Passing it as the runtime's ``sleep`` makes backoff waits
        instantaneous *and* observable: each requested duration is
        appended to ``log`` (when given), so tests assert the exact
        capped-exponential sequence.
        """

        def sleep(seconds: float) -> None:
            assert seconds >= 0, "cannot sleep a negative duration"
            if log is not None:
                log.append(seconds)
            self.advance(seconds)

        return sleep


@pytest.fixture
def fake_clock():
    return FakeClock()


@pytest.fixture
def backoff_log():
    """Mutable list the fake sleeper appends each backoff duration to."""
    return []


@pytest.fixture
def fake_sleep(fake_clock, backoff_log):
    """A backoff sleep bound to ``fake_clock``, recording into ``backoff_log``."""
    return fake_clock.sleeper(backoff_log)


def tiny_deployed(seed: int, in_features: int, out_features: int, name: str):
    """A deployed MF-DFP MLP small enough to execute in microseconds."""
    rng = np.random.default_rng(seed)
    net = Network(
        [
            Dense(in_features, 12, rng=rng, name="d1"),
            ReLU(name="r"),
            Dense(12, out_features, rng=rng, name="d2"),
        ],
        input_shape=(in_features,),
        name=name,
    )
    calib = rng.normal(scale=0.5, size=(64, in_features)).astype(np.float32)
    return deploy_calibrated(net, calib)


@pytest.fixture(scope="session")
def make_tiny_deployed():
    """The tiny-model factory, for tests that need bespoke artifacts."""
    return tiny_deployed


@pytest.fixture(scope="session")
def deployed_a():
    """Tiny model A: 6 features in, 3 classes out."""
    return tiny_deployed(seed=21, in_features=6, out_features=3, name="tiny_a")


@pytest.fixture(scope="session")
def deployed_b():
    """Tiny model B: 5 features in, 4 classes out (distinguishable from A)."""
    return tiny_deployed(seed=33, in_features=5, out_features=4, name="tiny_b")


@pytest.fixture(scope="session")
def engine_a(deployed_a):
    """Reference engine for model A (compiled outside any cache under test)."""
    return BatchedEngine(deployed_a)


@pytest.fixture(scope="session")
def engine_b(deployed_b):
    return BatchedEngine(deployed_b)


@pytest.fixture
def build_counts():
    """Mutable builder-call counter: ``{model name: times built}``."""
    return {}


@pytest.fixture
def registry(deployed_a, deployed_b, build_counts, fresh_engine_cache):
    """Fresh registry hosting the tiny models over an empty engine cache."""

    def builder(name, artifact):
        def build():
            build_counts[name] = build_counts.get(name, 0) + 1
            return artifact

        return build

    reg = ModelRegistry()
    reg.register("tiny_a", builder("tiny_a", deployed_a))
    reg.register("tiny_b", builder("tiny_b", deployed_b))
    return reg
