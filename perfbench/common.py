"""Shared helpers: percentiles, the run record, memory, host description."""

from __future__ import annotations

import json
import math
import os
import platform
import resource
import statistics
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

#: The serving latency limit: the 50 ms target ``bench_serve_slo.py`` uses.
SERVE_LIMIT_MS = 50.0

#: How many times a run repeats its set-up; ``setup_s`` is the median.
SETUP_REPEATS = 7


def expected(workload: str) -> dict:
    """The recorded values ``expected.json`` holds for one workload."""
    return json.loads(Path(__file__).with_name("expected.json").read_text())[workload]


def percentile(values, q: float) -> float:
    """Nearest-rank percentile (the definition ``repro.serve`` uses)."""
    ordered = sorted(values)
    if not ordered:
        return math.nan
    rank = max(1, math.ceil(q / 100.0 * len(ordered)))
    return float(ordered[rank - 1])


#: Which quantile over time windows ``windowed`` reports: the lower
#: quartile, the level of the quieter windows of the run.
WINDOW_QUANTILE = 0.25


def windowed(values, times, q: float, window_s: float = 1.0) -> float:
    """Lower quartile over time windows of each window's nearest-rank ``q`` percentile.

    The run is cut into equal windows of about ``window_s`` seconds by
    each sample's time stamp.  Interference from outside the process,
    such as the host descheduling this VM's vCPU, only ever adds time,
    and moves every sample of the windows it falls in: at 1000
    requests/s a serve run's per-second p99 went from 3 to 20 ms in
    such spells.  The lower quartile over windows ignores up to three
    quarters of disturbed windows where one percentile over the whole
    run, or the median over windows, would not.  A window holding fewer
    than ``100 / (100 - q)`` samples contributes its slowest one.
    """
    values, times = np.asarray(values, dtype=float), np.asarray(times, dtype=float)
    count = max(1, round((times.max() - times.min()) / window_s))
    edges = np.linspace(times.min(), times.max(), count + 1)
    slot = np.clip(np.searchsorted(edges, times, side="right") - 1, 0, count - 1)
    per_window = [percentile(values[slot == w], q) for w in range(count) if (slot == w).any()]
    return float(np.quantile(per_window, WINDOW_QUANTILE))


def chunked_rate(ops, seconds: float = 1.0) -> float:
    """Median work rate over consecutive chunks of at least ``seconds``.

    ``ops`` are ``(start, end, work)`` in completion order; each chunk's
    rate is its work over the wall time from its first start to its last
    end, so gaps between operations count.  A trailing chunk shorter
    than ``seconds`` joins the one before it.
    """
    rates, begin, work = [], None, 0.0
    for start, end, amount in ops:
        begin = start if begin is None else begin
        work += amount
        if end - begin >= seconds:
            rates.append((work, end - begin))
            begin, work = None, 0.0
    if begin is not None:
        if rates:
            last_work, last_span = rates.pop()
            rates.append((last_work + work, last_span + end - begin))
        else:
            rates.append((work, end - begin))
    return float(np.median([w / t for w, t in rates]))


def mean(values) -> float:
    values = list(values)
    return float(statistics.fmean(values)) if values else 0.0


def peak_rss_mb(children: bool = False) -> float:
    """Peak resident set of this process (plus the largest waited child)."""
    rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if children:
        rss_kb += resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return rss_kb / 1024.0


@dataclass
class Tally:
    """Operations attempted and failed, with the reason for each failure."""

    attempted: int = 0
    failed: int = 0
    problems: list = field(default_factory=list)

    def check(self, ok: bool, what: str) -> bool:
        """Count one checked operation; a false ``ok`` is a failure."""
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.problems) < 20:
                self.problems.append(what)
        return ok


class Deadline:
    """Wall-clock budget for a measured phase."""

    def __init__(self, seconds: float):
        self.start = time.perf_counter()
        self.end = self.start + seconds

    def left(self) -> float:
        return self.end - time.perf_counter()


def timed_setup(build, repeats: int = SETUP_REPEATS, close=None, between=None):
    """Run ``build()`` ``repeats`` times; return (last state, median seconds).

    Every state but the last is handed to ``close`` as soon as the next
    one exists, so at most two are alive at once.  ``between`` runs,
    untimed, after each set-up.
    """
    times, state = [], None
    for _ in range(repeats):
        t0 = time.perf_counter()
        fresh = build()
        times.append(time.perf_counter() - t0)
        if between is not None:
            between()
        if state is not None and close is not None:
            close(state)
        state = fresh
    return state, statistics.median(times)


def _blas_info() -> dict:
    info = {"name": "unknown", "version": "unknown"}
    try:
        blas = np.__config__.CONFIG["Build Dependencies"]["blas"]
        info = {"name": blas.get("name", "unknown"), "version": blas.get("version", "unknown")}
    except (AttributeError, KeyError, TypeError):
        pass
    info["corename"] = _openblas_corename()
    return info


def _openblas_corename() -> str:
    """The kernel family OpenBLAS picked at load time (e.g. ``SkylakeX``)."""
    import ctypes

    libs = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for lib in sorted(libs.glob("*openblas*")):
        try:
            handle = ctypes.CDLL(str(lib))
        except OSError:
            continue
        for symbol in ("scipy_openblas_get_corename64_", "openblas_get_corename64_",
                       "openblas_get_corename"):
            fn = getattr(handle, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_char_p
                fn.argtypes = []
                return fn().decode()
    return "unknown"


def _git_commit(root: Path) -> str:
    """HEAD's commit read from ``.git`` directly; "unknown" outside a clone."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_file = git / ref
        if ref_file.is_file():
            return ref_file.read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def host_info(root: Path, thread_pin) -> dict:
    return {
        "nproc": os.cpu_count(),
        "cpu_affinity": sorted(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "blas": _blas_info(),
        "thread_pin": {k: os.environ.get(k) for k in thread_pin},
        "git_commit": _git_commit(root),
    }


def result_line(tally: Tally, metrics: dict, units: dict) -> str:
    """The final stdout line: ``{correct, attempted, failed, metrics}``."""
    return json.dumps(
        {
            "correct": tally.failed == 0,
            "attempted": tally.attempted,
            "failed": tally.failed,
            "metrics": {
                name: {"value": float(metrics.get(name, math.nan)), "unit": units[name]}
                for name in units
            },
        }
    )
