"""Drill watchdog: a hang is a failure, not a wait.

Every recovery drill runs inside a :class:`Watchdog`.  If the budget
expires the watchdog dumps every thread's stack (``faulthandler``, which
fires even when all Python threads are wedged on locks) and sends the
main thread ``SIGINT``; the signal cuts short a blocking wait
(``Event.wait``, ``Future.result``, ``time.sleep``) at once, and the
context manager converts the resulting ``KeyboardInterrupt`` into a
typed :class:`~repro.chaos.errors.DrillTimeoutError` so "the system
hung instead of recovering" surfaces as an assertable drill failure —
the first of the three drill invariants.
"""

from __future__ import annotations

import faulthandler
import signal
import sys
import threading

from repro.chaos.errors import DrillTimeoutError


class Watchdog:
    """Context manager bounding a block's wall-clock time.

    Args:
        budget_s: Seconds the block may run.
        label: Echoed in the timeout error.
    """

    def __init__(self, budget_s: float, label: str = "drill"):
        if budget_s <= 0:
            raise DrillTimeoutError(f"watchdog budget must be positive, got {budget_s}")
        self.budget_s = float(budget_s)
        self.label = label
        self.expired = False
        self._timer: threading.Timer | None = None
        # Once __exit__ has begun, a late fire does nothing.
        self._lock = threading.Lock()
        self._ended = False

    def _fire(self) -> None:
        with self._lock:
            if self._ended:
                return
            self.expired = True
            faulthandler.dump_traceback(file=sys.stderr)
            # Unlike _thread.interrupt_main's flag, a signal breaks the
            # main thread's lock wait or sleep; __exit__ retypes the
            # KeyboardInterrupt.  A hard wedge in C code is still caught
            # by the outer faulthandler dump for diagnosis.
            signal.pthread_kill(threading.main_thread().ident, signal.SIGINT)

    def __enter__(self) -> "Watchdog":
        self._timer = threading.Timer(self.budget_s, self._fire)
        self._timer.daemon = True
        self._timer.start()
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        try:
            with self._lock:
                self._ended = True
            if self._timer is not None:
                self._timer.cancel()
        except KeyboardInterrupt as late:  # a fire that landed as the block ended
            if not self.expired:
                raise
            exc = late
        if self.expired:
            raise DrillTimeoutError(
                f"{self.label}: exceeded the {self.budget_s:.0f}s watchdog budget "
                "(stacks dumped to stderr)"
            ) from (exc if isinstance(exc, BaseException) else None)
        return False
