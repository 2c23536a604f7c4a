"""Serving throughput: compiled batched engine vs the scalar deployed path.

The deployed integer artifact can be served three ways, all bit-identical:

* **scalar** — ``execute_deployed`` once per sample (a naive server),
* **eager batch** — ``execute_deployed`` on the whole batch (re-derives
  weights and windows every call),
* **compiled engine** — :class:`repro.core.engine.BatchedEngine`
  (LUT-decoded weights, a precomputed im2col gather table, BLAS-backed
  GEMMs, an exact float route and strided-window pools over
  batch-last activations).  Each op runs in float32 when its proved
  worst-case sum is below 2^24 and in float64 otherwise; this network's
  ops all run in float32.

The speedup test is the PR's acceptance gate: the compiled engine must
deliver at least 5x the scalar path's samples/sec at batch size 64 while
producing identical output codes.
"""

import time

import numpy as np
import pytest

from repro.core import MFDFPNetwork
from repro.core.engine import BatchedEngine, execute_deployed
from repro.datasets import cifar10_surrogate
from repro.zoo import cifar10_small

BATCH = 64


@pytest.fixture(scope="module")
def served():
    """A deployed surrogate network, its engine, and one batch of requests."""
    train, test = cifar10_surrogate(n_train=256, n_test=BATCH, size=16, seed=5)
    net = cifar10_small(size=16, rng=np.random.default_rng(17))
    mfdfp = MFDFPNetwork.from_float(net, train.x[:128])
    mfdfp.calibrate_bias_to_accumulator_grid()
    deployed = mfdfp.deploy()
    return {"deployed": deployed, "engine": BatchedEngine(deployed), "x": test.x[:BATCH]}


def test_bench_scalar_path(served, benchmark):
    deployed, x = served["deployed"], served["x"]
    out = benchmark(lambda: [execute_deployed(deployed, x[i : i + 1]) for i in range(BATCH)])
    assert len(out) == BATCH


def test_bench_eager_batch(served, benchmark):
    out = benchmark(execute_deployed, served["deployed"], served["x"])
    assert out.shape[0] == BATCH


def test_bench_compiled_engine(served, benchmark):
    engine = served["engine"]
    engine.run_codes(served["x"])  # compile/warm outside the timer
    out = benchmark(engine.run_codes, served["x"])
    assert out.shape[0] == BATCH


def _best_time(fn, repeats=7):
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - start)
    return best


def test_engine_bit_exact(served):
    """Identical codes on the whole batch (runs in --quick mode too)."""
    deployed, engine, x = served["deployed"], served["engine"], served["x"]
    scalar_codes = np.concatenate(
        [execute_deployed(deployed, x[i : i + 1]) for i in range(BATCH)]
    )
    assert np.array_equal(scalar_codes, engine.run_codes(x))


def test_engine_5x_speedup(served, full_only, bench_metrics):
    """Acceptance gate: >= 5x samples/sec at batch 64."""
    deployed, engine, x = served["deployed"], served["engine"], served["x"]
    engine.run_codes(x)  # warm caches before timing
    scalar_s = _best_time(lambda: [execute_deployed(deployed, x[i : i + 1]) for i in range(BATCH)])
    engine_s = _best_time(lambda: engine.run_codes(x))
    speedup = scalar_s / engine_s
    bench_metrics.update(
        {
            "batch_size": BATCH,
            "scalar_samples_per_s": round(BATCH / scalar_s, 1),
            "engine_samples_per_s": round(BATCH / engine_s, 1),
            "speedup": round(speedup, 2),
            "gate": 5.0,
        }
    )
    print(
        f"\nbatch {BATCH}: scalar {BATCH / scalar_s:.0f} samples/s, "
        f"engine {BATCH / engine_s:.0f} samples/s ({speedup:.1f}x)"
    )
    assert speedup >= 5.0, f"engine only {speedup:.2f}x over the scalar path"
