"""Serving throughput: compiled batched engine vs the scalar deployed path.

The deployed integer artifact can be served three ways, all bit-identical:

* **scalar** — ``execute_deployed`` once per sample (a naive server),
* **eager batch** — ``execute_deployed`` on the whole batch (re-derives
  weights and windows every call),
* **compiled engine** — :class:`repro.core.engine.BatchedEngine`
  (LUT-decoded weight planes that carry each op's power-of-two route
  scale, an im2col operand gathered and multiplied in cache-sized
  blocks of output rows, BLAS-backed GEMMs whose sums land on the output
  grid, so the route is an exact ``rint`` and clip, run after the max
  pool when one follows a conv, and strided-window pools over
  batch-last activations).  Input quantization runs in the input's
  float dtype.  Each op runs in float32 when its proved worst-case sum
  is below 2^24 and its scaled values stay in float32's normal range,
  and in float64 otherwise; this network's ops all run in float32.

The speedup test is the acceptance gate: the compiled engine must
deliver at least 5x the scalar path's samples/sec at batch size 64 while
producing identical output codes.  On a shared host one best-of-7 timing
moves by more than a change does, so the record keeps the median and
range of :data:`REPEATS` best-of-7 timings of each path, and the gate
reads the medians.
"""

import time

import numpy as np
import pytest

from repro.core import MFDFPNetwork
from repro.core.engine import BatchedEngine, execute_deployed
from repro.datasets import cifar10_surrogate
from repro.zoo import cifar10_small

BATCH = 64
#: Best-of-7 timings per path; the record keeps their median and range.
REPEATS = 5


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
    """Acceptance gate: >= 5x median samples/sec at batch 64."""
    deployed, engine, x = served["deployed"], served["engine"], served["x"]
    engine.run_codes(x)  # warm caches before timing
    rates = {"scalar": [], "engine": []}
    for _ in range(REPEATS):  # interleaved, so host drift hits both paths alike
        scalar_s = _best_time(lambda: [execute_deployed(deployed, x[i : i + 1]) for i in range(BATCH)])
        rates["scalar"].append(BATCH / scalar_s)
        rates["engine"].append(BATCH / _best_time(lambda: engine.run_codes(x)))
    medians = {path: float(np.median(values)) for path, values in rates.items()}
    speedup = medians["engine"] / medians["scalar"]
    bench_metrics.update({"batch_size": BATCH, "repeats": REPEATS, "speedup": round(speedup, 2), "gate": 5.0})
    for path, values in rates.items():
        bench_metrics[f"{path}_samples_per_s"] = round(medians[path], 1)
        bench_metrics[f"{path}_samples_per_s_min"] = round(min(values), 1)
        bench_metrics[f"{path}_samples_per_s_max"] = round(max(values), 1)
    print(
        f"\nbatch {BATCH}, median of {REPEATS} best-of-7: scalar {medians['scalar']:.0f} samples/s "
        f"({min(rates['scalar']):.0f}-{max(rates['scalar']):.0f}), engine {medians['engine']:.0f} samples/s "
        f"({min(rates['engine']):.0f}-{max(rates['engine']):.0f}), {speedup:.1f}x"
    )
    assert speedup >= 5.0, f"engine only {speedup:.2f}x over the scalar path"
