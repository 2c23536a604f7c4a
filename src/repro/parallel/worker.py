"""Worker-process side of the process-pool backend.

Module-level task functions (picklable by reference, as
:class:`~repro.parallel.pool.ProcessPoolRunner` requires).  A worker
installs a model once — building a
:class:`~repro.core.engine.BatchedEngine` over shared-memory weight
planes via :func:`repro.parallel.arena.attach_planes` into the process's
one :func:`~repro.core.engine.engine_cache` — and then executes any
number of batches against it by fingerprint, with zero per-request
pickling of weights and zero LUT decodes.  Campaign tasks in the same
worker look engines up in that same cache.

Also home to :func:`runtime_check`, the probe the fork/spawn regression
tests dispatch to assert the process-global invariants (the frozen
``lru_cache`` im2col gather table, engine-cache same-object semantics,
frozen shared-plane views) hold in children under both start methods.
"""

from __future__ import annotations

import os
from typing import Optional

import numpy as np

from repro.core import engine as engine_mod
from repro.core.engine import BatchedEngine, engine_cache, engine_fingerprint
from repro.core.mfdfp import DeployedMFDFP
from repro.parallel.arena import ArenaSpec, attach_planes, attached_segment_count


class ModelNotLoadedError(RuntimeError):
    """This worker has not installed the requested model (or evicted it).

    Hosts recover by resending the batch through
    :func:`install_and_run` (see
    :class:`~repro.parallel.proxy.SharedEngineProxy`).
    """


#: Decode-counter value when this worker started serving (fork copies
#: the parent's counter, so raw counts include pre-fork publisher work).
_DECODE_BASELINE = 0


def mark_decode_baseline() -> None:
    """Zero this worker's decode accounting; use as the pool initializer.

    Makes ``worker_stats()["plane_decodes"]`` mean "LUT decodes *this
    worker* performed", which is what the single-mapping-per-host
    assertions check (it must stay 0 when serving from shared planes).
    """
    global _DECODE_BASELINE
    _DECODE_BASELINE = engine_mod.plane_decode_count()


def init_serving(deployed: DeployedMFDFP, spec: ArenaSpec) -> None:
    """Pool initializer: zero decode accounting, then pre-install a model.

    With this as the pool's ``initializer`` (and the picklable
    ``(deployed, spec)`` as ``initargs``), every worker holds the model
    before its first task, so the steady state ships only
    ``(fingerprint, batch)`` per request — never the artifact.
    """
    mark_decode_baseline()
    install_model(deployed, spec)


def _served(fingerprint: str) -> Optional[BatchedEngine]:
    """The resident engine over shared planes for ``fingerprint``, if any.

    Workers serve only engines compiled over the arena's planes: a fork
    inherits the parent's cache, whose engines hold private planes.
    """
    engine = engine_cache().lookup(fingerprint)
    return engine if engine is not None and engine.shared_planes else None


def install_model(deployed: DeployedMFDFP, spec: ArenaSpec) -> str:
    """Compile ``deployed`` into this worker's engine cache (idempotent).

    Returns its fingerprint.  The engine's weight planes are the
    shared-memory views of ``spec`` — no decode happens here.
    """
    fingerprint = engine_fingerprint(deployed)
    if _served(fingerprint) is None:
        engine_cache().install(BatchedEngine(deployed, weight_planes=attach_planes(spec)))
    return fingerprint


def run_batch(fingerprint: str, x: np.ndarray) -> np.ndarray:
    """Run one batch on an installed model; raises :class:`ModelNotLoadedError`."""
    engine = _served(fingerprint)
    if engine is None:
        raise ModelNotLoadedError(fingerprint)
    return engine.run(x)


def install_and_run(deployed: DeployedMFDFP, spec: ArenaSpec, x: np.ndarray) -> np.ndarray:
    """Install-if-needed then run: the proxy's cold-path fallback."""
    return run_batch(install_model(deployed, spec), x)


def worker_stats() -> dict:
    """Accounting snapshot for the single-mapping-per-host assertions.

    ``models`` lists the installed models: resident engines over
    shared planes.
    """
    return {
        "pid": os.getpid(),
        "models": sorted(e.fingerprint for e in engine_cache().engines() if e.shared_planes),
        "attached_segments": attached_segment_count(),
        "plane_decodes": engine_mod.plane_decode_count() - _DECODE_BASELINE,
    }


def echo(value):
    """Return ``value`` unchanged — the pool's liveness/ping probe."""
    return value


def fail(message: str = "boom") -> None:
    """Raise ``ValueError(message)`` — the pool's error-path probe."""
    raise ValueError(message)  # repro-lint: disable=error-taxonomy (deliberate error-path probe; tests assert a plain ValueError round-trips the pool)


def crash(exit_code: int = 137) -> None:
    """Hard-kill this worker (test hook for the typed-death guarantee)."""
    os._exit(exit_code)


def hang(seconds: float = 60.0):
    """Block, then echo back — a task guaranteed to be mid-flight when killed."""
    import time

    time.sleep(seconds)
    return seconds


def runtime_check(
    spec: Optional[ArenaSpec] = None,
    deployed: Optional[DeployedMFDFP] = None,
) -> dict:
    """Probe the process-global engine invariants inside this worker.

    Children rebuild the ``lru_cache`` im2col gather table from scratch
    (the cache is per-process), so the properties that matter — a frozen
    array, memoized same-object returns — must be re-established here,
    not inherited; this verifies they are, under fork and spawn alike.
    With ``deployed``, it also checks that two lookups in this child's
    :func:`~repro.core.engine.engine_cache` return the same engine.
    """
    im1 = engine_mod._im2col_indices(3, 8, 8, 3, 1, 1)
    im2 = engine_mod._im2col_indices(3, 8, 8, 3, 1, 1)
    out = {
        "pid": os.getpid(),
        "im2col_frozen": all(not a.flags.writeable for a in im1 if isinstance(a, np.ndarray)),
        "im2col_memoized": all(a is b for a, b in zip(im1, im2) if isinstance(a, np.ndarray)),
    }
    if deployed is not None:
        cache = engine_cache()
        first = cache.get(deployed)
        second = cache.get(deployed)
        out["cache_same_engine"] = first is second
        probe = np.arange(int(np.prod(first.input_shape)), dtype=np.float32)
        probe = (probe % 7 - 3).reshape((1, *first.input_shape)) / 4.0
        out["digest"] = first.run(probe).tobytes().hex()[:32]
    if spec is not None:
        views = attach_planes(spec)
        out["planes_frozen"] = all(not v.flags.writeable for v in views.values())
        out["attach_memoized"] = attach_planes(spec) is views
        out["attached_segments"] = attached_segment_count()
    return out
