"""Campaign fan-out backends: jobs validation, cancellation, cross-backend identity."""

import functools
import os
import threading
from pathlib import Path

import numpy as np
import pytest

from repro.analysis.campaign import (
    CAMPAIGN_KINDS,
    parallel_map,
    resolve_jobs,
    run_campaign,
)
from repro.core.mfdfp import deploy_calibrated
from repro.parallel import WorkerCrashedError
from repro.parallel import worker as worker_mod


@pytest.fixture(scope="module")
def problem(trained_small_net, small_data):
    train, test = small_data
    return {
        "net": trained_small_net,
        "calib": train.x[:128],
        "test": test,
        "deployed": deploy_calibrated(trained_small_net.clone(), train.x[:128]),
    }


class TestResolveJobs:
    def test_none_means_every_core(self):
        assert resolve_jobs(None) == (os.cpu_count() or 1)

    @pytest.mark.parametrize("bad", [0, -1, -8])
    def test_non_positive_rejected(self, bad):
        with pytest.raises(ValueError, match="positive integer"):
            resolve_jobs(bad)

    def test_positive_passthrough(self):
        assert resolve_jobs(3) == 3

    def test_parallel_map_and_run_campaign_validate(self, problem, small_data):
        _, test = small_data
        with pytest.raises(ValueError, match="positive integer"):
            parallel_map([lambda: 1], jobs=0)
        with pytest.raises(ValueError, match="positive integer"):
            run_campaign(
                "faults",
                deployed=problem["deployed"],
                x=test.x[:8],
                y=test.y[:8],
                jobs=-2,
            )

    def test_unknown_backend_rejected(self):
        with pytest.raises(ValueError, match="unknown backend"):
            parallel_map([lambda: 1], jobs=2, backend="fiber")


class TestThreadCancellation:
    def test_first_error_cancels_queued_points(self):
        """Points still queued when one fails are skipped, not run.

        Regression: the old implementation iterated ``fut.result()`` with
        no shutdown-on-error, so every queued point ran to completion
        (and kept burning cores) after the batch had already failed.
        """
        ran = []
        release = threading.Event()

        def failing():
            raise RuntimeError("point exploded")

        def blocker():
            release.wait(10.0)
            return "late"

        def side_effect():
            ran.append(1)

        # Frees the blocker *after* the failure has propagated, so the
        # test observes cancellation rather than deadlocking on cleanup.
        timer = threading.Timer(0.2, release.set)
        timer.start()
        try:
            with pytest.raises(RuntimeError, match="point exploded"):
                parallel_map([failing, blocker] + [side_effect] * 4, jobs=2)
        finally:
            release.set()
            timer.cancel()
        assert ran == []

    def test_order_preserved_under_threads(self):
        fns = [functools.partial(worker_mod.echo, i) for i in range(16)]
        assert parallel_map(fns, jobs=4) == list(range(16))


class TestProcessBackend:
    def test_order_and_results_match_thread_backend(self):
        fns = [functools.partial(worker_mod.echo, i * i) for i in range(12)]
        assert parallel_map(fns, jobs=2, backend="process") == parallel_map(fns, jobs=2)

    def test_original_error_type_propagates(self):
        fns = [
            functools.partial(worker_mod.echo, 0),
            functools.partial(worker_mod.fail, "bad point"),
        ]
        with pytest.raises(ValueError, match="bad point"):
            parallel_map(fns, jobs=2, backend="process")

    def test_killed_worker_is_a_typed_error_not_a_hang(self):
        """A worker dying mid-campaign surfaces WorkerCrashedError promptly."""
        fns = [functools.partial(worker_mod.echo, 1), worker_mod.crash]
        with pytest.raises(WorkerCrashedError):
            parallel_map(fns, jobs=2, backend="process")


class _CountedPayload:
    """A shared point payload that counts how often this process pickles it."""

    pickles = 0

    def __init__(self, data):
        self.data = data

    def __reduce__(self):
        type(self).pickles += 1
        return (_CountedPayload, (self.data,))

    def __eq__(self, other):
        return isinstance(other, _CountedPayload) and np.array_equal(self.data, other.data)


class TestPointShipping:
    def test_shared_payload_is_pickled_once_per_campaign(self, monkeypatch):
        """Regression: each point task pickled the payload it shares with
        the others (a fault campaign re-sent its network and test set
        once per point); the point list now crosses to the pool once."""
        monkeypatch.setattr(_CountedPayload, "pickles", 0)
        payload = _CountedPayload(np.arange(4096, dtype=np.float64))
        fns = [functools.partial(worker_mod.echo, (payload, i)) for i in range(6)]
        fanned = parallel_map(fns, jobs=2, backend="process")
        assert _CountedPayload.pickles == 1
        assert fanned == parallel_map(fns, jobs=2, backend="thread")

    def test_unpicklable_point_raises_before_any_worker_runs(self, tmp_path):
        marker = tmp_path / "ran"
        fns = [functools.partial(Path.touch, marker), lambda: None]
        with pytest.raises(Exception):
            parallel_map(fns, jobs=2, backend="process")
        assert not marker.exists()


def _campaign_kwargs(kind, problem, test, seed):
    kwargs = {"x": test.x[:32], "y": test.y[:32], "points": 2, "rng": np.random.default_rng(seed)}
    if kind == "faults":
        kwargs["deployed"] = problem["deployed"]
    else:
        kwargs["net"] = problem["net"]
        kwargs["calibration_x"] = problem["calib"]
    return kwargs


class TestCrossBackendIdentity:
    @pytest.mark.parametrize("kind", sorted(CAMPAIGN_KINDS))
    def test_process_backend_bit_identical_to_serial_thread(self, kind, problem, small_data):
        """Every campaign kind: jobs=1/thread == jobs=2/process, exactly.

        The serial thread run is the reference ordering; the process run
        pickles the tasks (rng state replays identically) and fans them
        out across workers.  Placement must not leak into the numbers.
        """
        _, test = small_data
        serial = run_campaign(
            kind, jobs=1, backend="thread", **_campaign_kwargs(kind, problem, test, seed=7)
        )
        fanned = run_campaign(
            kind, jobs=2, backend="process", **_campaign_kwargs(kind, problem, test, seed=7)
        )
        assert serial.points == fanned.points
        assert serial.backend == "thread" and fanned.backend == "process"
        assert fanned.jobs == 2

    def test_process_backend_accounts_every_point_lookup(
        self, problem, small_data, fresh_engine_cache
    ):
        """Each point reports its own worker-side lookup, so the process
        backend counts one hit or miss per point, as the thread backend
        does.  The workers fork after the host cached the clean network,
        so the zero-BER point hits."""
        _, test = small_data
        fresh_engine_cache.get(problem["deployed"])
        kwargs = _campaign_kwargs("faults", problem, test, seed=7)
        kwargs["points"] = 3
        result = run_campaign("faults", jobs=2, backend="process", **kwargs)
        assert result.cache_hits + result.cache_misses == len(result.points) == 3
        assert result.cache_hits >= 1

    def test_jobs_none_resolves_to_cpu_count(self, problem, small_data):
        _, test = small_data
        result = run_campaign(
            "faults",
            deployed=problem["deployed"],
            x=test.x[:16],
            y=test.y[:16],
            points=1,
            jobs=None,
            rng=np.random.default_rng(0),
        )
        assert result.jobs == (os.cpu_count() or 1)
