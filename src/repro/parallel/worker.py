"""Worker-process side of the process-pool backend.

Module-level task functions (picklable by reference, as
:class:`~repro.parallel.pool.ProcessPoolRunner` requires) plus the
per-process model table they serve from.  A worker installs a model
once — building a :class:`~repro.core.engine.BatchedEngine` over
shared-memory weight planes via :func:`repro.parallel.arena.attach_planes`
— and then executes any number of batches against it by fingerprint,
with zero per-request pickling of weights and zero LUT decodes.

Also home to :func:`runtime_check`, the probe the fork/spawn regression
tests dispatch to assert the process-global invariants (frozen
``lru_cache`` gather tables, engine-cache same-object semantics, frozen
shared-plane views) hold in children under both start methods.
"""

from __future__ import annotations

import os
from typing import Optional

import numpy as np

from repro.core import engine as engine_mod
from repro.core.engine import BatchedEngine, engine_fingerprint
from repro.core.mfdfp import DeployedMFDFP
from repro.parallel.arena import ArenaSpec, attach_planes, attached_segment_count


class ModelNotLoadedError(RuntimeError):
    """This worker has not installed the requested model yet.

    Hosts recover by resending the batch through
    :func:`install_and_run` (see
    :class:`~repro.parallel.proxy.SharedEngineProxy`).
    """


#: Engines this worker has compiled, by content fingerprint.
_MODELS: dict[str, BatchedEngine] = {}

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


def init_serving(deployed: DeployedMFDFP, spec: Optional[ArenaSpec] = None) -> None:
    """Pool initializer: zero decode accounting, then pre-install a model.

    With this as the pool's ``initializer`` (and the picklable
    ``(deployed, spec)`` as ``initargs``), every worker holds the model
    before its first task, so the steady state ships only
    ``(fingerprint, batch)`` per request — never the artifact.
    """
    mark_decode_baseline()
    install_model(deployed, spec)


def install_model(deployed: DeployedMFDFP, spec: Optional[ArenaSpec] = None) -> str:
    """Compile ``deployed`` in this worker (idempotent); returns its fingerprint.

    With an :class:`ArenaSpec`, the engine's weight planes are the
    shared-memory views — no decode happens here.  The engine is also
    seeded into the worker's shared campaign cache, so campaign tasks
    evaluating the same content hit it instead of recompiling.
    """
    fingerprint = engine_fingerprint(deployed)
    if fingerprint in _MODELS:
        return fingerprint
    planes = attach_planes(spec) if spec is not None else None
    engine = BatchedEngine(deployed, weight_planes=planes)
    _MODELS[fingerprint] = engine
    from repro.analysis.campaign import shared_engine_cache

    shared_engine_cache().install(engine)
    return fingerprint


def run_batch(fingerprint: str, x: np.ndarray) -> np.ndarray:
    """Run one batch on an installed model; raises :class:`ModelNotLoadedError`."""
    engine = _MODELS.get(fingerprint)
    if engine is None:
        raise ModelNotLoadedError(fingerprint)
    return engine.run(x)


def install_and_run(deployed: DeployedMFDFP, spec: Optional[ArenaSpec], x: np.ndarray) -> np.ndarray:
    """Install-if-needed then run: the proxy's cold-path fallback."""
    return run_batch(install_model(deployed, spec), x)


def worker_stats() -> dict:
    """Accounting snapshot for the single-mapping-per-host assertions."""
    return {
        "pid": os.getpid(),
        "models": sorted(_MODELS),
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

    Children rebuild the ``lru_cache`` gather tables from scratch (the
    caches are per-process), so the properties that matter — frozen
    arrays, memoized same-object returns — must be re-established here,
    not inherited; this verifies they are, under fork and spawn alike.
    """
    im1 = engine_mod._im2col_indices(3, 8, 8, 3, 1, 1)
    im2 = engine_mod._im2col_indices(3, 8, 8, 3, 1, 1)
    pool1 = engine_mod._pool_indices(8, 8, 2, 2, 0, True)
    pool2 = engine_mod._pool_indices(8, 8, 2, 2, 0, True)
    out = {
        "pid": os.getpid(),
        "im2col_frozen": all(not a.flags.writeable for a in im1 if isinstance(a, np.ndarray)),
        "im2col_memoized": all(a is b for a, b in zip(im1, im2) if isinstance(a, np.ndarray)),
        "pool_frozen": all(not a.flags.writeable for a in pool1 if isinstance(a, np.ndarray)),
        "pool_memoized": all(a is b for a, b in zip(pool1, pool2) if isinstance(a, np.ndarray)),
    }
    if deployed is not None:
        from repro.analysis.campaign import shared_engine_cache

        cache = shared_engine_cache()
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
