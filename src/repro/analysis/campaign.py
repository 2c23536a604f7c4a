"""Parallel experiment campaigns over the MF-DFP design space.

The ablation sweeps and fault studies in :mod:`repro.analysis` all share
one shape: many independent *points* (a bit width, an exponent clamp, a
bit-error rate), each requiring an evaluation of some executable artifact
on a labelled test batch.  This module factors that shape out:

* :func:`evaluate_batched` — the one evaluation API every campaign
  routes through.  Deployed integer artifacts run through the compiled
  :class:`~repro.core.engine.BatchedEngine` from the process-wide
  :func:`~repro.core.engine.engine_cache` (compile once per content,
  bit-identical to the eager reference path);
  quantized-simulation networks run through the same chunked top-k
  evaluation the trainer uses, so sweep numbers are unchanged to the
  last bit relative to ``error_rate``.
* :func:`parallel_map` — the fan-out primitive, with two backends.
  ``backend="thread"`` (default) overlaps points on a thread pool: the
  hot loops are BLAS GEMMs and large NumPy kernels that release the
  GIL.  ``backend="process"`` fans points out across real cores via
  :class:`repro.parallel.ProcessPoolRunner` — tasks must then be
  picklable (the sweep/fault task objects are); closures are not.
  Either way campaigns stay *bit-deterministic* — every point derives
  its randomness and its inputs independently, so the result list is
  identical for any ``jobs``, any backend, any placement.
* :func:`run_campaign` — the named campaigns behind
  ``python -m repro sweep`` (bit width, exponent clamp, rounding mode,
  dynamic-vs-static radix, weight-memory faults), with wall-clock and
  engine-cache accounting attached.

Determinism contract: for every campaign, ``jobs=N, backend=B`` returns
a list bit-identical to ``jobs=1, backend="thread"``.  The regression
suite pins this property across both backends.
"""

from __future__ import annotations

import numbers
import os
import threading
import time
from concurrent.futures import CancelledError, ThreadPoolExecutor
from dataclasses import dataclass
from typing import Callable, Optional, Sequence, Union

import numpy as np

from repro.core.engine import deployed_accuracy, labelled_batch
from repro.core.mfdfp import DeployedMFDFP, MFDFPNetwork
from repro.nn.data import ArrayDataset
from repro.nn.network import Network
from repro.nn.optim import SGD
from repro.nn.trainer import TrainHistory, Trainer, topk_correct

#: Evaluation artifacts :func:`evaluate_batched` accepts.
Evaluable = Union[Network, MFDFPNetwork, DeployedMFDFP]

def evaluate_batched(
    model: Evaluable,
    x: np.ndarray,
    y: np.ndarray,
    *,
    batch_size: int = 256,
) -> float:
    """Top-1 accuracy of an executable artifact on a labelled batch.

    The single evaluation entry point for sweeps, fault studies, and the
    campaign runner:

    * :class:`~repro.core.mfdfp.DeployedMFDFP` — executed through
      :func:`~repro.core.engine.deployed_accuracy`: the compiled engine
      from the process-wide cache, in ``batch_size`` slices.
      Bit-identical to eager ``execute_deployed`` for every slice size;
      the engine compiles once per network *content*.
    * :class:`~repro.core.mfdfp.MFDFPNetwork` / plain
      :class:`~repro.nn.network.Network` — the quantized (or float)
      simulation, evaluated through the trainer's chunked top-k path, so
      the returned accuracy equals ``1 - error_rate(net, dataset)``
      exactly.

    Returns the accuracy as a fraction in ``[0, 1]``.
    """
    if isinstance(model, DeployedMFDFP):
        return deployed_accuracy(model, x, y, batch_size)
    x, y = labelled_batch(x, y)
    net = model.net if isinstance(model, MFDFPNetwork) else model
    return topk_correct(net, x, y, k=1, batch_size=batch_size) / len(x)


def train_surrogate(
    net: Network,
    train: ArrayDataset,
    val: ArrayDataset,
    epochs: int,
    *,
    lr: float = 0.02,
    momentum: float = 0.9,
    batch_size: int = 32,
    rng: Optional[np.random.Generator] = None,
    profile: bool = False,
) -> tuple[TrainHistory, Trainer]:
    """Train a campaign's surrogate network on the compiled trainer.

    Every ``python -m repro sweep CAMPAIGN --epochs N`` pays this
    training cost before a single campaign point runs, so it routes
    through the compiled training fast path (:mod:`repro.nn.compiled`)
    — bit-identical to the eager trainer, about 1.5× the
    samples/sec.  Returns the history and the trainer (whose
    ``profile_rows()`` carry per-layer timings when ``profile``).
    """
    trainer = Trainer(
        net,
        SGD(net.params, lr=lr, momentum=momentum),
        batch_size=batch_size,
        rng=rng or np.random.default_rng(1),  # repro-lint: disable=rng-discipline (deterministic default when the caller injects no rng; fixed so repeated campaigns reproduce)
        profile=profile,
    )
    history = trainer.fit(train, val, epochs=epochs)
    return history, trainer


#: Fan-out backends :func:`parallel_map` / :func:`run_campaign` accept.
PARALLEL_BACKENDS = ("thread", "process")


def resolve_jobs(jobs: Optional[int]) -> int:
    """Normalize a ``jobs`` request: ``None`` means every core.

    ``None`` resolves to ``os.cpu_count()`` explicitly; zero and
    negative values are rejected rather than silently coerced to inline
    execution (the pre-scale-out behavior, which hid misconfigured
    fan-out behind correct-but-serial results).
    """
    if jobs is None:
        return os.cpu_count() or 1
    if jobs < 1:
        raise ValueError(f"jobs must be a positive integer or None (all cores), got {jobs}")
    return int(jobs)


class _PointCancelled(Exception):
    """Internal marker: a queued point skipped after an earlier failure."""


def parallel_map(
    fns: Sequence[Callable[[], object]],
    jobs: Optional[int] = None,
    backend: str = "thread",
) -> list:
    """Run zero-argument point tasks, preserving input order.

    ``jobs=None`` uses every core (:func:`resolve_jobs`); ``jobs=1``
    with the thread backend runs inline — no pool, no thread hops —
    which is also the reference ordering for the determinism contract.
    ``backend="process"`` runs the points in a
    :class:`repro.parallel.ProcessPoolRunner` (tasks must pickle).

    Error semantics on both backends: the first exception propagates,
    and every point still queued at that moment is cancelled rather
    than run to completion — side-effecting tasks never execute after
    the batch has already failed.
    """
    fns = list(fns)
    jobs = resolve_jobs(jobs)
    if backend not in PARALLEL_BACKENDS:
        raise ValueError(f"unknown backend {backend!r}; choose from {PARALLEL_BACKENDS}")
    if not fns:
        return []
    if backend == "process":
        from repro.parallel import ProcessPoolRunner

        with ProcessPoolRunner(min(jobs, len(fns))) as runner:
            return runner.map(fns)
    if jobs == 1 or len(fns) == 1:
        return [fn() for fn in fns]

    abort = threading.Event()

    def guarded(fn):
        if abort.is_set():
            raise _PointCancelled()
        try:
            return fn()
        except BaseException:
            abort.set()
            raise

    pool = ThreadPoolExecutor(max_workers=min(jobs, len(fns)), thread_name_prefix="campaign")
    try:
        futures = [pool.submit(guarded, fn) for fn in fns]
        results = []
        error: Optional[BaseException] = None
        for future in futures:
            try:
                results.append(future.result())
            except (CancelledError, _PointCancelled):
                continue
            except BaseException as exc:
                if error is None:
                    error = exc
                    # Queued futures are cancelled outright; anything a
                    # worker thread already picked up sees the abort flag
                    # in ``guarded`` and skips itself.
                    pool.shutdown(wait=False, cancel_futures=True)
        if error is not None:
            raise error
        return results
    finally:
        pool.shutdown(wait=True, cancel_futures=True)


# -- named campaigns ---------------------------------------------------------------
#: Default point lists per campaign kind; ``points=N`` takes a prefix.
DEFAULT_POINTS = {
    "bitwidth": (4, 6, 8, 10, 12, 16),
    "clamp": (-3, -5, -7, -9, -12, -15),
    "rounding": ("deterministic", "stochastic"),
    "dynamic": ("dynamic", "static"),
    "faults": (0.0, 1e-4, 1e-3, 1e-2, 3e-2, 0.1),
}

CAMPAIGN_KINDS = tuple(DEFAULT_POINTS)


@dataclass(frozen=True)
class CampaignResult:
    """One campaign run: its points plus execution accounting.

    Attributes:
        kind: Campaign name (one of :data:`CAMPAIGN_KINDS`).
        points: ``SweepPoint`` list for the design-space campaigns,
            ``(bit_error_rate, accuracy)`` pairs for ``faults``.
        jobs: Workers the campaign fanned out over (resolved — never
            ``None``).
        elapsed_s: Wall-clock seconds for the point evaluations.
        cache_hits / cache_misses: Engine-cache traffic during this
            campaign (misses == compiles): each fault point reports
            whether its own engine lookup hit, wherever it ran, and
            the campaign sums those flags.  Two concurrent campaigns
            therefore each see exactly their own traffic, and
            ``hits + misses`` equals the point count on either
            backend (zero for campaigns that compile no engines).
        backend: ``"thread"`` or ``"process"`` — how points fanned out.
    """

    kind: str
    points: list
    jobs: int
    elapsed_s: float
    cache_hits: int
    cache_misses: int
    backend: str = "thread"

    def rows(self) -> list[dict]:
        """Uniform ``{label, value}`` rows for printing any campaign."""
        if self.kind == "faults":
            return [{"label": f"ber={ber:.0e}", "value": acc} for ber, acc in self.points]
        return [{"label": p.label, "value": p.error_rate} for p in self.points]


def campaign_points(kind: str, points: Optional[int]) -> tuple:
    """The point prefix a campaign will run (validates ``kind``/``points``).

    Exposed so callers (e.g. the CLI) can reject a bad request *before*
    paying for training or deployment.
    """
    if kind not in DEFAULT_POINTS:
        raise ValueError(f"unknown campaign {kind!r}; choose from {CAMPAIGN_KINDS}")
    defaults = DEFAULT_POINTS[kind]
    if points is None:
        return defaults
    if isinstance(points, bool) or not isinstance(points, numbers.Integral):
        raise ValueError(f"points must be an integer, got {points!r}")
    if not 1 <= points <= len(defaults):
        raise ValueError(
            f"{kind} campaign supports 1..{len(defaults)} points, got {points}"
        )
    return defaults[: int(points)]


def run_campaign(
    kind: str,
    *,
    net: Optional[Network] = None,
    deployed: Optional[DeployedMFDFP] = None,
    calibration_x: Optional[np.ndarray] = None,
    x: Optional[np.ndarray] = None,
    y: Optional[np.ndarray] = None,
    points: Optional[int] = None,
    jobs: Optional[int] = 1,
    rng: Optional[np.random.Generator] = None,
    backend: str = "thread",
) -> CampaignResult:
    """Run one named experiment campaign, fanned out over ``jobs`` workers.

    The design-space campaigns (``bitwidth``, ``clamp``, ``rounding``,
    ``dynamic``) need a float ``net``, a ``calibration_x`` batch, and the
    labelled test arrays ``x``/``y``; they quantize a clone per point and
    evaluate the quantized simulation (numerically identical to the
    serial ``repro.analysis.sweeps`` functions, which they delegate to).
    The ``faults`` campaign needs a ``deployed`` artifact; every
    corrupted variant runs through the shared compiled-engine path.

    ``points`` selects a prefix of :data:`DEFAULT_POINTS`.
    ``backend="process"`` evaluates points in pool workers
    (bit-identical to the thread backend — pinned by the cross-backend
    property tests).
    """
    from repro.analysis import faults as faults_mod
    from repro.analysis import sweeps
    from repro.nn.data import ArrayDataset

    selected = campaign_points(kind, points)
    jobs = resolve_jobs(jobs)
    if x is None or y is None:
        raise ValueError("campaigns need labelled test arrays x and y")
    hits = misses = 0
    start = time.perf_counter()
    fan_out = {"jobs": jobs, "backend": backend}

    if kind == "faults":
        if deployed is None:
            raise ValueError("the faults campaign needs a deployed network")
        curve = faults_mod._fault_curve(deployed, x, y, selected, rng, **fan_out)
        result_points = [(ber, acc) for ber, acc, _ in curve]
        hits = sum(hit for _, _, hit in curve)
        misses = len(curve) - hits
    else:
        if net is None or calibration_x is None:
            raise ValueError(f"the {kind} campaign needs net and calibration_x")
        test = ArrayDataset(x, y)
        if kind == "bitwidth":
            result_points = sweeps.bitwidth_sweep(
                net, calibration_x, test, bit_widths=selected, **fan_out
            )
        elif kind == "clamp":
            result_points = sweeps.exponent_clamp_sweep(
                net, calibration_x, test, min_exps=selected, **fan_out
            )
        elif kind == "rounding":
            result_points = sweeps.stochastic_vs_deterministic(
                net, calibration_x, test, rng=rng, modes=selected, **fan_out
            )
        else:  # dynamic
            result_points = sweeps.dynamic_vs_static(
                net, calibration_x, test, modes=selected, **fan_out
            )

    elapsed = time.perf_counter() - start
    return CampaignResult(
        kind=kind,
        points=list(result_points),
        jobs=jobs,
        elapsed_s=elapsed,
        cache_hits=hits,
        cache_misses=misses,
        backend=backend,
    )
