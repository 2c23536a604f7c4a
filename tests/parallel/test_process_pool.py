"""ProcessPoolRunner: ordering, typed failure, crash detection, lifecycle."""

import functools
import gc
import os
import signal
import sys
import time
import weakref

import pytest

from repro.parallel import PoolClosedError, ProcessPoolRunner, WorkerCrashedError
from repro.parallel import pool as pool_mod
from repro.parallel import worker as worker_mod


def _die_holding_the_abort_lock() -> None:
    """Task: SIGKILL this worker while it holds any lock its abort flag has."""
    abort = sys._getframe(1).f_locals["abort"]  # the worker loop's
    for lock in (getattr(abort, "_cond", None), getattr(abort, "get_lock", lambda: None)()):
        if lock is not None:
            lock.acquire()
    os.kill(os.getpid(), signal.SIGKILL)


@pytest.fixture
def pool():
    runner = ProcessPoolRunner(2)
    yield runner
    runner.close()


class TestBasics:
    def test_eager_start(self, pool):
        # Workers exist before any task: forking happened in the
        # constructor, not lazily from some serving thread later.
        assert pool.alive_workers() == 2

    def test_call_roundtrip(self, pool):
        assert pool.call(worker_mod.echo, {"answer": 42}) == {"answer": 42}

    def test_map_preserves_input_order(self, pool):
        fns = [functools.partial(worker_mod.echo, i) for i in range(20)]
        assert pool.map(fns) == list(range(20))

    def test_task_error_is_the_original_type(self, pool):
        with pytest.raises(ValueError, match="kaboom"):
            pool.call(worker_mod.fail, "kaboom")
        # The pool survives an ordinary task exception.
        assert pool.call(worker_mod.echo, 1) == 1

    def test_map_propagates_first_error(self, pool):
        fns = [functools.partial(worker_mod.echo, 0), functools.partial(worker_mod.fail, "pt")]
        with pytest.raises(ValueError, match="pt"):
            pool.map(fns)

    def test_unpicklable_argument_raises_synchronously(self, pool):
        with pytest.raises(Exception):
            pool.submit(worker_mod.echo, lambda: None)

    def test_worker_count_validation(self):
        with pytest.raises(ValueError):
            ProcessPoolRunner(0)


class TestCrash:
    def test_killed_worker_surfaces_typed_error(self):
        runner = ProcessPoolRunner(1)
        try:
            with pytest.raises(WorkerCrashedError):
                runner.call(worker_mod.crash)
            assert runner.broken
        finally:
            runner.close()

    def test_sigkill_mid_task_fails_pending_futures(self):
        runner = ProcessPoolRunner(1)
        try:
            victim = runner._processes[0]
            future = runner.submit(worker_mod.hang, 60.0)
            # Let the worker pick the task up, then kill it from outside
            # — the OOM-killer scenario, not a Python-level exit.
            time.sleep(0.3)
            victim.terminate()  # SIGTERM; no result is ever reported
            with pytest.raises(WorkerCrashedError):
                future.result(timeout=30)
            # A broken pool refuses new work with the same typed error.
            with pytest.raises(WorkerCrashedError):
                runner.submit(worker_mod.echo, 1)
        finally:
            runner.close()

    def test_broken_pool_closes_without_waiting_on_survivors(self):
        """Regression: close() gave a broken pool's survivors the full
        graceful timeout, though a worker killed mid-``get`` can hold the
        task queue's lock so that no survivor ever reads its sentinel."""
        runner = ProcessPoolRunner(2)
        busy = runner.submit(worker_mod.hang, 60.0)
        time.sleep(0.3)  # one worker picks up the hang task
        with pytest.raises(WorkerCrashedError):
            runner.call(worker_mod.crash)  # the other dies
        assert runner.broken
        start = time.monotonic()
        runner.close()
        assert time.monotonic() - start < 5.0
        assert runner.alive_workers() == 0
        with pytest.raises(WorkerCrashedError):
            busy.result(timeout=0)

    def test_worker_killed_holding_the_abort_lock_cannot_wedge_the_pool(self):
        """Regression: the abort flag was an Event.  A worker killed while
        checking it died holding its process-shared lock, the collector's
        set() on breaking the pool blocked forever, and no pending future
        ever failed (a chaos campaign hung in ``map``)."""
        runner = ProcessPoolRunner(1)
        try:
            future = runner.submit(_die_holding_the_abort_lock)
            with pytest.raises(WorkerCrashedError):
                future.result(timeout=10)
        finally:
            runner.close()

    def test_close_after_a_death_does_not_wait_on_survivors(self):
        """Regression: a worker killed outside a task left the pool
        unbroken for up to one liveness poll, and close() then gave the
        survivors the full graceful timeout, though the dead worker may
        hold the task queue's lock (a chaos campaign paid 10 s a pool)."""
        runner = ProcessPoolRunner(2)
        runner.submit(worker_mod.hang, 60.0)
        time.sleep(0.3)  # one worker is mid-task; the other idles in get
        idle = runner.call(worker_mod.worker_stats)["pid"]
        os.kill(idle, signal.SIGKILL)
        start = time.monotonic()
        runner.close(timeout=30.0)
        assert time.monotonic() - start < 5.0
        assert runner.alive_workers() == 0


class TestLifecycle:
    def test_close_is_idempotent_and_rejects_submits(self):
        runner = ProcessPoolRunner(1)
        runner.close()
        runner.close()
        with pytest.raises(PoolClosedError):
            runner.submit(worker_mod.echo, 1)

    def test_context_manager_closes(self):
        with ProcessPoolRunner(1) as runner:
            assert runner.call(worker_mod.echo, "x") == "x"
        with pytest.raises(PoolClosedError):
            runner.submit(worker_mod.echo, 1)

    def test_spawn_context(self):
        with ProcessPoolRunner(1, mp_context="spawn") as runner:
            assert runner.call(worker_mod.echo, [1, 2]) == [1, 2]

    def test_close_wakes_the_collector_instead_of_waiting_out_the_poll(self, monkeypatch):
        """Regression: the collector only noticed close() on its next
        liveness-poll timeout, so every close paid up to one poll."""
        monkeypatch.setattr(ProcessPoolRunner, "_LIVENESS_POLL_S", 30.0)
        runner = ProcessPoolRunner(2)
        start = time.monotonic()
        runner.close()
        assert time.monotonic() - start < 1.0
        assert not runner._collector.is_alive()


def _open_fds() -> int:
    return len(os.listdir("/proc/self/fd"))


@pytest.mark.skipif(not os.path.isdir("/proc/self/fd"), reason="needs /proc/self/fd")
def test_closed_pools_release_their_pipes():
    """Regression: an ``atexit`` hook that close() never unregistered kept
    every closed runner, and its queue pipes, alive until exit (a long
    campaign loop ran the parent out of file descriptors)."""
    ProcessPoolRunner(2).close()  # starts the resource tracker, which stays
    gc.collect()
    baseline = _open_fds()
    for _ in range(20):
        with ProcessPoolRunner(2) as runner:
            assert runner.call(worker_mod.echo, 1) == 1
    ref = weakref.ref(runner)
    del runner
    deadline = time.monotonic() + 5.0
    while True:  # queue feeder threads close their pipe ends asynchronously
        gc.collect()
        if _open_fds() <= baseline or time.monotonic() > deadline:
            break
        time.sleep(0.05)
    assert _open_fds() <= baseline
    assert ref() is None


_FRAGMENTED_HEAP = """
import numpy as np
from repro.parallel import ProcessPoolRunner


def rss_anon_kib():
    with open("/proc/self/status") as status:
        for line in status:
            if line.startswith("RssAnon:"):
                return int(line.split()[1])


if __name__ == "__main__":
    blocks = [np.ones(64 * 1024 // 8) for _ in range(640)]  # 40 MiB of 64 KiB arrays
    kept = blocks[::16]  # pins the heap: only the gaps between these can go back
    del blocks
    before = rss_anon_kib()
    with ProcessPoolRunner(1, mp_context="fork") as runner:
        print(before, runner.call(rss_anon_kib))
"""


@pytest.mark.skipif(
    not sys.platform.startswith("linux") or pool_mod._malloc_trim() is None,
    reason="needs Linux /proc and glibc malloc_trim",
)
def test_forked_workers_do_not_inherit_the_parents_free_heap():
    """The runner trims the parent's heap before forking, so 37.5 MiB of
    freed (but fragmented, still resident) heap does not count again in
    the worker's RSS."""
    import subprocess
    from pathlib import Path

    import repro

    env = dict(os.environ)
    src = str(Path(repro.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-c", _FRAGMENTED_HEAP], env=env, capture_output=True, text=True, timeout=60
    )
    assert proc.returncode == 0, proc.stderr
    before, worker = map(int, proc.stdout.split())
    assert worker <= before - 30 * 1024, (before, worker)
