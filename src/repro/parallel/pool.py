"""A supervised process pool: real cores for GIL-bound fan-out.

:class:`ProcessPoolRunner` is the execution backend behind
``backend="process"`` in :func:`repro.analysis.campaign.parallel_map`
and the process-worker mode of
:class:`repro.serve.runtime.ServerRuntime`.  It deliberately owns its
worker processes instead of wrapping
:class:`concurrent.futures.ProcessPoolExecutor`, because the repo's
parallel paths need guarantees the stdlib pool does not make:

* **Eager start** — every worker is forked/spawned at construction,
  before any serving threads exist, so a fork can never duplicate a
  thread holding a lock (the classic fork-after-threads deadlock).
* **Typed death** — a worker killed mid-task (OOM, SIGKILL, segfault)
  surfaces as :class:`WorkerCrashedError` on every pending future
  within the liveness-poll interval; nothing hangs waiting on a queue
  a dead process will never feed.
* **First-error cancellation** — :meth:`map` aborts the remaining
  queued tasks on the first failure (workers drain them without
  executing), so side-effecting point closures never run after a
  campaign has already failed.
* **Pre-pickled payloads** — tasks and results cross the queues as
  explicit pickle bytes, so an unpicklable argument raises in the
  caller and an unpicklable result raises in the future, instead of
  vanishing inside a queue feeder thread.
* **Trimmed before fork** — a forked worker's RSS counts every resident
  page it inherits, freed heap included, so under ``fork`` the parent
  hands its free heap back to the OS (glibc ``malloc_trim``) first.

Workers run an optional ``initializer`` (e.g.
:func:`repro.parallel.worker.install_model` attaching shared-memory
weight planes) before serving tasks.  Task functions must be module
level (picklable by reference); see :mod:`repro.parallel.worker` for
the ones the repo ships.
"""

from __future__ import annotations

import atexit
import ctypes
import functools
import itertools
import multiprocessing as mp
import os
import pickle
import queue
import threading
import time
from concurrent.futures import CancelledError, Future
from typing import Callable, Optional, Sequence

from repro.chaos.registry import inject, register_site


class PoolError(RuntimeError):
    """Base class for process-pool failures."""


class WorkerCrashedError(PoolError):
    """A worker process died without reporting a result.

    Raised on every future that was pending when the death was
    detected, and on every submit after it — the pool is *broken* and
    must be replaced, exactly like
    :class:`concurrent.futures.process.BrokenProcessPool`.
    """


class PoolClosedError(PoolError):
    """The pool was closed while (or before) the task was pending."""


register_site(
    "parallel.pool.submit",
    layer="parallel",
    description="After a task is queued to the worker pool; context has "
    "task_index (monotonic id) and pool (the ProcessPoolRunner).",
)


def default_context() -> str:
    """The start method the runner uses when none is given.

    ``fork`` where the platform offers it — workers inherit the parent's
    imported modules, so startup is milliseconds — and ``spawn``
    elsewhere.  Callers forking from multi-threaded processes should
    construct their runner before starting threads (the serving runtime
    does) or pass ``mp_context="spawn"``.
    """
    return "fork" if "fork" in mp.get_all_start_methods() else "spawn"


@functools.lru_cache(maxsize=1)
def _malloc_trim():
    """glibc's ``malloc_trim``, or None where the C library has none."""
    try:
        trim = ctypes.CDLL(None).malloc_trim
    except (AttributeError, OSError, TypeError):
        return None
    trim.argtypes = [ctypes.c_size_t]
    trim.restype = ctypes.c_int
    return trim


def _pickle_payload(obj) -> bytes:
    return pickle.dumps(obj, protocol=pickle.HIGHEST_PROTOCOL)


def _pickle_error(error: BaseException) -> bytes:
    """Pickle an exception, degrading to a RuntimeError carrying its repr."""
    try:
        return _pickle_payload(error)
    except Exception:
        return _pickle_payload(RuntimeError(f"{type(error).__name__}: {error}"))


def _worker_main(tasks, results, abort, initializer, initargs) -> None:
    """Worker loop: run the initializer, then drain tasks until sentinel."""
    if initializer is not None:
        try:
            initializer(*pickle.loads(initargs))
        except BaseException as error:  # init failure breaks the pool, typed
            results.put((None, "init_error", _pickle_error(error)))
            return
    while True:
        item = tasks.get()
        if item is None:
            return
        task_id, payload = item
        if abort.value:
            results.put((task_id, "cancelled", b""))
            continue
        try:
            fn, args, kwargs = pickle.loads(payload)
            out = fn(*args, **kwargs)
            body = _pickle_payload(out)
        except BaseException as error:
            results.put((task_id, "error", _pickle_error(error)))
        else:
            results.put((task_id, "ok", body))


class ProcessPoolRunner:
    """Eagerly started worker processes draining a shared task queue.

    Args:
        workers: Worker process count (all started in the constructor).
        mp_context: Start method name (``"fork"``/``"spawn"``/
            ``"forkserver"``) or a :mod:`multiprocessing` context;
            default :func:`default_context`.
        initializer: Module-level callable run once in every worker
            before it serves tasks; a raise breaks the pool.
        initargs: Arguments for ``initializer``; pickled once, before
            any worker starts, so an unpicklable one raises here.

    Thread-safe: any number of threads may :meth:`submit` / :meth:`call`
    concurrently (the serving runtime's per-model actor workers do).
    """

    _LIVENESS_POLL_S = 0.1

    def __init__(
        self,
        workers: int,
        mp_context=None,
        initializer: Optional[Callable] = None,
        initargs: tuple = (),
    ):
        if workers < 1:
            raise ValueError(f"need at least one worker, got {workers}")
        initargs_payload = _pickle_payload(tuple(initargs))
        if mp_context is None or isinstance(mp_context, str):
            ctx = mp.get_context(mp_context or default_context())
        else:
            ctx = mp_context
        self.workers = workers
        self._ctx = ctx
        self._tasks = ctx.Queue()
        self._results = ctx.Queue()
        # A lock-free shared byte, not an Event: a worker killed while
        # checking an Event dies holding its process-shared lock, and
        # the next set() in the parent (the collector breaking the pool)
        # then blocks forever, so no pending future ever fails.
        self._abort = ctx.RawValue("b", 0)
        self._lock = threading.Lock()
        self._ids = itertools.count()
        self._pending: dict[int, Future] = {}
        self._closed = False
        self._broken: Optional[BaseException] = None
        # Start the stdlib resource tracker *before* forking: workers
        # must inherit the live tracker fd.  A worker that lazily spawns
        # its own tracker (fd unset at fork) would unlink shared-memory
        # segments the parent still serves the moment it exits.
        try:
            from multiprocessing import resource_tracker

            resource_tracker.ensure_running()
        except Exception:
            pass
        trim = _malloc_trim()
        if trim is not None and ctx.get_start_method() == "fork":
            trim(0)  # the workers would inherit the free heap as resident pages
        self._processes = [
            ctx.Process(
                target=_worker_main,
                args=(self._tasks, self._results, self._abort, initializer, initargs_payload),
                name=f"repro-pool-{i}",
                daemon=True,
            )
            for i in range(workers)
        ]
        for process in self._processes:
            process.start()
        self._collector = threading.Thread(
            target=self._collect, name="repro-pool-collector", daemon=True
        )
        self._collector.start()
        atexit.register(self.close)

    # -- submission --------------------------------------------------------
    def submit(self, fn: Callable, *args, **kwargs) -> Future:
        """Queue one task; resolves to its return value.

        ``fn`` must be picklable by reference (module-level).  Raises
        :class:`PoolClosedError` after :meth:`close` and
        :class:`WorkerCrashedError` once the pool is broken; an
        unpicklable argument raises here, synchronously.
        """
        payload = _pickle_payload((fn, args, kwargs))
        future: Future = Future()
        with self._lock:
            if self._broken is not None:
                raise WorkerCrashedError(str(self._broken))
            if self._closed:
                raise PoolClosedError("pool is closed")
            task_id = next(self._ids)
            self._pending[task_id] = future
        self._tasks.put((task_id, payload))
        inject("parallel.pool.submit", task_index=task_id, pool=self)
        return future

    def call(self, fn: Callable, *args, **kwargs):
        """Run one task and block for its result (or typed failure)."""
        return self.submit(fn, *args, **kwargs).result()

    def map(self, fns: Sequence[Callable]) -> list:
        """Run zero-argument callables, preserving input order.

        The first exception propagates; every task still queued at that
        moment is aborted — workers drain but do not execute it — so no
        point runs after the batch has failed.  A broken pool raises
        :class:`WorkerCrashedError`.
        """
        futures = [self.submit(fn) for fn in fns]
        error: Optional[BaseException] = None
        results = []
        for future in futures:
            try:
                value = future.result()
            except CancelledError:
                continue  # aborted after the first error
            except BaseException as exc:
                if error is None:
                    error = exc
                    self._abort.value = 1
                continue
            results.append(value)
        if error is not None:
            raise error
        return results

    # -- result collection / supervision -----------------------------------
    def _collect(self) -> None:
        while True:
            try:
                item = self._results.get(timeout=self._LIVENESS_POLL_S)
            except queue.Empty:
                with self._lock:
                    if self._closed:
                        return
                    dead = [p for p in self._processes if p.exitcode not in (None, 0)]
                if dead:
                    codes = ", ".join(str(p.exitcode) for p in dead)
                    self._break(
                        WorkerCrashedError(
                            f"{len(dead)} worker(s) died without reporting a result "
                            f"(exit codes: {codes})"
                        )
                    )
                    return
                continue
            if item is None:  # close() joined the workers: nothing more comes
                return
            task_id, status, body = item
            if status == "init_error":
                self._break(WorkerCrashedError(f"worker initializer failed: {pickle.loads(body)}"))
                return
            with self._lock:
                future = self._pending.pop(task_id, None)
            if future is None:
                continue
            if status == "ok":
                future.set_result(pickle.loads(body))
            elif status == "cancelled":
                future.cancel()
            else:
                future.set_exception(pickle.loads(body))

    def _break(self, error: BaseException) -> None:
        """Mark the pool broken and fail every pending future, typed."""
        with self._lock:
            self._broken = error
            pending, self._pending = list(self._pending.values()), {}
        self._abort.value = 1
        for future in pending:
            if not future.done():
                future.set_exception(error)

    @property
    def broken(self) -> bool:
        with self._lock:
            return self._broken is not None

    def alive_workers(self) -> int:
        return sum(p.is_alive() for p in self._processes)

    def _worker_died(self) -> bool:
        return any(p.exitcode not in (None, 0) for p in self._processes)

    # -- lifecycle ---------------------------------------------------------
    def close(self, timeout: float = 10.0) -> None:
        """Stop the workers and fail anything still pending (idempotent).

        Queued-but-unserved tasks resolve with :class:`PoolClosedError`;
        workers finish their in-flight task, then exit on the sentinel
        (stragglers are terminated after ``timeout``).  A broken pool is
        terminated at once: its pending futures have already failed, and
        a worker killed mid-``get`` can leave the task queue's lock held,
        so the survivors might never read their sentinel.  For the same
        reason the wait ends as soon as any worker has died, broken pool
        or not, and the survivors are terminated.  Once the
        workers are joined, a ``None`` on the results queue wakes the
        collector, so closing never waits out the liveness poll.
        """
        with self._lock:
            if self._closed:
                return
            self._closed = True
            broken = self._broken is not None
        atexit.unregister(self.close)  # the hook would keep a closed pool's pipes alive
        for _ in self._processes:
            try:
                self._tasks.put(None)
            except (OSError, ValueError):
                break  # queue already torn down
        deadline = time.monotonic() + (0.0 if broken else timeout)
        for process in self._processes:
            while process.is_alive() and time.monotonic() < deadline and not self._worker_died():
                process.join(timeout=0.05)
            if process.is_alive():
                process.terminate()
                process.join(timeout=1.0)
        # A broken pool's collector has already returned.  After a death
        # it returns on its own: the dead worker may hold the results
        # queue's write lock, which would wedge this put's feeder thread.
        if not (broken or self._worker_died()):
            self._results.put(None)
        self._collector.join(timeout=2.0)
        with self._lock:
            pending, self._pending = list(self._pending.values()), {}
        closed = self._broken or PoolClosedError("pool closed before serving this task")
        for future in pending:
            if not future.done():
                future.set_exception(closed)
        for q in (self._tasks, self._results):
            q.cancel_join_thread()
            q.close()

    def __enter__(self) -> "ProcessPoolRunner":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()
