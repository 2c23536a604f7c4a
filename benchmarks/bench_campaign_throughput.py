"""Experiment-campaign throughput: parallel batched runner vs serial eager.

The ablation sweeps and fault studies used to evaluate every point
through the eager paths — ``error_rate`` over the quantized simulation
for sweeps, per-point ``copy.deepcopy`` plus eager ``execute_deployed``
for fault curves.  ``repro.analysis.campaign`` routes every evaluation
through the shared batched API instead (compiled
:class:`~repro.core.engine.BatchedEngine` behind one content-addressed
cache, structure-sharing fault copies) and fans points out over a thread
pool.

The same fault campaign on the process backend
(``run_campaign("faults", backend="process", jobs=2)``: pool start-up,
point shipping and worker compiles included) is recorded beside the
thread figure, ungated.

Two properties are gated here:

* **speedup** — the parallel batched fault campaign must deliver at
  least 4x the samples/sec of the serial eager baseline (deepcopy +
  whole-batch ``execute_deployed`` per point, the pre-refactor
  implementation; the per-sample variant a naive study would run is
  also printed for context),
* **bit identity** — ``bitwidth_sweep`` results must equal the
  old-style serial ``error_rate`` evaluation exactly, and
  ``accuracy_under_faults`` must equal eager execution of the very same
  corrupted networks exactly, for any ``jobs``.
"""

import copy
import time

import numpy as np
import pytest

from repro.analysis.campaign import DEFAULT_POINTS, run_campaign
from repro.analysis.faults import _point_rng, accuracy_under_faults, inject_weight_faults
from repro.analysis.sweeps import bitwidth_sweep
from repro.core.engine import engine_cache, execute_deployed
from repro.core.mfdfp import MFDFPNetwork, deploy_calibrated
from repro.datasets import cifar10_surrogate
from repro.nn import SGD, Trainer, error_rate
from repro.zoo import cifar10_small

BERS = (0.0, 1e-4, 3e-4, 1e-3, 3e-3, 1e-2, 3e-2, 0.1)
JOBS = 4
GATE = 4.0


@pytest.fixture(scope="module")
def problem(quick):
    """A lightly trained surrogate net, its deployed artifact, and data."""
    n_train, n_test, epochs = (128, 48, 1) if quick else (512, 128, 4)
    train, test = cifar10_surrogate(n_train=n_train, n_test=n_test, size=16, seed=5)
    net = cifar10_small(size=16, rng=np.random.default_rng(17))
    Trainer(
        net,
        SGD(net.params, lr=0.02, momentum=0.9),
        batch_size=32,
        rng=np.random.default_rng(11),
    ).fit(train, test, epochs=epochs)
    deployed = deploy_calibrated(net.clone(), train.x[:128])
    return {"net": net, "train": train, "test": test, "deployed": deployed}


def _serial_eager_faults(deployed, x, y, seed=0, per_sample=False):
    """The pre-refactor fault curve: deepcopy + eager execution per point.

    Shares the campaign's per-point child-generator derivation so both
    paths corrupt identical bits — the comparison isolates the
    evaluation machinery.
    """
    rng = np.random.default_rng(seed)
    entropy = int(rng.integers(0, 2**63))
    points = []
    for ber in BERS:
        target = copy.deepcopy(deployed)  # the old implementation's copy cost
        result = inject_weight_faults(target, ber, _point_rng(entropy, ber))
        if per_sample:
            codes = np.concatenate(
                [execute_deployed(result.faulty, x[i : i + 1]) for i in range(len(x))]
            )
        else:
            codes = execute_deployed(result.faulty, x)
        points.append((float(ber), float((codes.argmax(axis=1) == y).mean())))
    return points


def _parallel_batched_faults(deployed, x, y, seed=0, jobs=JOBS):
    """The campaign path, cold engine cache per run (compiles included)."""
    engine_cache().clear()
    return accuracy_under_faults(
        deployed, x, y, BERS, rng=np.random.default_rng(seed), jobs=jobs
    )


def _process_campaign(deployed, x, y, seed=0):
    """``run_campaign`` on the process backend, cold engine cache per run."""
    engine_cache().clear()
    return run_campaign(
        "faults", deployed=deployed, x=x, y=y, jobs=2, backend="process",
        rng=np.random.default_rng(seed),
    )


def _best_time(fn, repeats=5):
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - start)
    return best


def test_bench_serial_eager_baseline(problem, benchmark):
    test = problem["test"]
    points = benchmark(_serial_eager_faults, problem["deployed"], test.x, test.y)
    assert len(points) == len(BERS)


def test_bench_parallel_batched_campaign(problem, benchmark):
    test = problem["test"]
    points = benchmark(_parallel_batched_faults, problem["deployed"], test.x, test.y)
    assert len(points) == len(BERS)


def test_bitwidth_sweep_identical_to_eager_serial(problem):
    """The refactored (batched, parallel) sweep returns the exact floats
    the old serial ``error_rate`` evaluation produced."""
    net, train, test = problem["net"], problem["train"], problem["test"]
    calib = train.x[:128]
    widths = (4, 8, 16)
    swept = bitwidth_sweep(net, calib, test, bit_widths=widths, jobs=JOBS)
    for point, bits in zip(swept, widths):
        mf = MFDFPNetwork.from_float(net.clone(), calib, bits=bits, min_exp=-(bits - 1))
        assert point.error_rate == error_rate(mf.net, test), f"{bits}-bit point drifted"


def test_fault_campaign_identical_for_any_jobs(problem):
    """Serial eager, serial batched, and parallel batched all agree bitwise."""
    test = problem["test"]
    eager = _serial_eager_faults(problem["deployed"], test.x, test.y)
    serial = _parallel_batched_faults(problem["deployed"], test.x, test.y, jobs=1)
    parallel = _parallel_batched_faults(problem["deployed"], test.x, test.y, jobs=JOBS)
    assert eager == serial == parallel


def test_campaign_runner_matches_direct_call(problem):
    """`run_campaign` is a thin veneer: same points, honest accounting."""
    test = problem["test"]
    result = run_campaign(
        "faults",
        deployed=problem["deployed"],
        x=test.x,
        y=test.y,
        jobs=2,
        rng=np.random.default_rng(0),
    )
    direct = accuracy_under_faults(
        problem["deployed"],
        test.x,
        test.y,
        DEFAULT_POINTS["faults"],
        rng=np.random.default_rng(0),
    )
    assert result.points == direct
    assert result.cache_hits + result.cache_misses == len(result.points)


def test_campaign_4x_serial_eager_baseline(problem, full_only, bench_metrics):
    """Acceptance gate: >= 4x the serial eager baseline, identical points."""
    test = problem["test"]
    deployed = problem["deployed"]
    n_points = len(BERS)

    campaign_points = _parallel_batched_faults(deployed, test.x, test.y)
    eager_points = _serial_eager_faults(deployed, test.x, test.y)
    assert campaign_points == eager_points  # the gate compares equal work

    _parallel_batched_faults(deployed, test.x, test.y)  # warm BLAS/allocator
    eager_s = _best_time(lambda: _serial_eager_faults(deployed, test.x, test.y))
    scalar_s = _best_time(
        lambda: _serial_eager_faults(deployed, test.x, test.y, per_sample=True), repeats=2
    )
    campaign_s = _best_time(lambda: _parallel_batched_faults(deployed, test.x, test.y))
    speedup = eager_s / campaign_s
    bench_metrics.update(
        {
            "points": n_points,
            "samples": len(test.x),
            "eager_batch_points_per_s": round(n_points / eager_s, 2),
            "parallel_batched_points_per_s": round(n_points / campaign_s, 2),
            "speedup": round(speedup, 2),
            "gate": GATE,
        }
    )
    print(
        f"\n{n_points}-point fault campaign on {len(test.x)} samples: "
        f"eager/sample {n_points / scalar_s:.1f} pts/s, "
        f"eager/batch {n_points / eager_s:.1f} pts/s, "
        f"parallel batched {n_points / campaign_s:.1f} pts/s "
        f"({speedup:.1f}x vs eager/batch, {scalar_s / campaign_s:.1f}x vs eager/sample)"
    )
    assert speedup >= GATE, f"campaign only {speedup:.2f}x over the serial eager baseline"


def test_process_backend_campaign_throughput(problem, full_only, bench_metrics):
    """Recorded, not gated: the process-backend campaign in points/s."""
    test = problem["test"]
    deployed = problem["deployed"]
    result = _process_campaign(deployed, test.x, test.y)
    assert result.points == accuracy_under_faults(
        deployed, test.x, test.y, DEFAULT_POINTS["faults"], rng=np.random.default_rng(0)
    )
    process_s = _best_time(lambda: _process_campaign(deployed, test.x, test.y))
    bench_metrics["process_points_per_s"] = round(len(result.points) / process_s, 2)
    print(f"\nprocess backend, jobs=2: {len(result.points) / process_s:.1f} pts/s")
