"""``infer``: offline batched inference straight into ``BatchedEngine.run_codes``.

Seeded batches of 64 go alternately to the ``cifar10_full`` and
``alexnet`` zoo deployables (16x16 inputs).  The engine's gather and
GEMM kernels do nearly all the work; serve, the trainer and the pool
do none, so a kernel change must show here.

One *round* is one batch to each deployable.  Latency is per round
(the sum of its two ``run_codes`` calls): per-call times of the two
models form two clusters, and a median of a 50/50 mix of two clusters
jumps between them from run to run.
"""

from __future__ import annotations

import time
from contextlib import nullcontext

import numpy as np

from common import Deadline, chunked_rate, windowed
from layers import engine_layer_metrics, npu_per_inference, wrap_engine
from repro.core import BatchedEngine, execute_deployed
from repro.datasets import cifar10_surrogate, imagenet_surrogate
from repro.zoo import DEPLOYABLE_BUILDERS

MODELS = ("cifar10_full", "alexnet")
SIZE = 16
BATCH = 64
POOL = 32  # distinct seeded batches per model
#: A round slower than this counts as missing its limit (a stall detector:
#: a round takes about 50 ms on a 2-core Xeon).
ROUND_LIMIT_MS = 500.0
CHECK_ROWS = 16  # rows per checked batch compared with execute_deployed


class Workload:
    name = "infer"

    def __init__(self, seed: int):
        self.seed = seed
        cifar, _ = cifar10_surrogate(n_train=POOL * BATCH, n_test=8, size=SIZE, seed=seed)
        inet, _ = imagenet_surrogate(n_train=POOL * BATCH, n_test=8, size=SIZE, seed=seed)
        self.inputs = {}
        for model, data in zip(MODELS, (cifar, inet)):
            x = data.x.reshape((POOL, BATCH) + data.x.shape[1:])
            self.inputs[model] = (x, data.y.reshape(POOL, BATCH))

    def setup(self, tracer=None):
        deployed = {m: DEPLOYABLE_BUILDERS[m](size=SIZE) for m in MODELS}
        if tracer is None:
            engines = {m: BatchedEngine(d) for m, d in deployed.items()}
        else:
            compile_ = tracer.timed(BatchedEngine, "core.engine.compile")
            engines = {m: compile_(d) for m, d in deployed.items()}
        return {"deployed": deployed, "engines": engines}

    def close(self, state) -> None:
        pass

    def measure(self, state, seconds: float, tally, clock, tracer=None) -> dict:
        engines = state["engines"]
        run_codes = {m: engines[m].run_codes for m in MODELS}
        if tracer is not None:
            for m in MODELS:
                wrap_engine(tracer, engines[m], m)
                run_codes[m] = tracer.timed(engines[m].run_codes, "core.engine.run_codes")
        rng = np.random.default_rng([self.seed, 1])
        rounds, ops, samples, errors, stalls = [], [], 0, 0, 0
        outputs = state.setdefault("outputs", {})
        deadline = Deadline(seconds)
        with tracer.span("bench.measure") if tracer else nullcontext():
            while deadline.left() > 0:
                clock.tick()
                took, done, begin = 0.0, 0, clock.now()
                for model in MODELS:
                    k = int(rng.integers(POOL))
                    x, y = self.inputs[model][0][k], self.inputs[model][1][k]
                    tally.attempted += 1
                    t0 = time.perf_counter()
                    try:
                        codes = run_codes[model](x)
                    except Exception as exc:  # a failed call is counted, not fatal
                        tally.check(False, f"{model} run_codes raised {exc!r}")
                        continue
                    took += time.perf_counter() - t0
                    errors += int(np.count_nonzero(np.argmax(codes, axis=1) != y))
                    done += len(x)
                    outputs.setdefault((model, k), codes)
                samples += done
                rounds.append(took)
                ops.append((begin, clock.now(), done))
                stalls += 1e3 * took > ROUND_LIMIT_MS
        cycles, energy = npu_per_inference(state["deployed"].values(), BATCH)
        ends = [end for _, end, _ in ops]
        return {
            "throughput_per_s": chunked_rate(ops),
            "latency_p50_ms": 1e3 * windowed(rounds, ends, 50),
            "latency_p99_ms": 1e3 * windowed(rounds, ends, 99),
            "slo_met_share": (len(rounds) - stalls) / len(rounds) if rounds else 0.0,
            "top1_error": errors / samples if samples else 1.0,
            "npu_cycles_per_inf": cycles,
            "npu_energy_uj_per_inf": energy,
        }

    def check(self, state, tally) -> None:
        """Measured outputs equal the eager reference, bit for bit."""
        rng = np.random.default_rng([self.seed, 2])
        for (model, k), codes in sorted(state.get("outputs", {}).items()):
            rows = np.sort(rng.choice(BATCH, CHECK_ROWS, replace=False))
            x = self.inputs[model][0][k][rows]
            ref = execute_deployed(state["deployed"][model], x)
            tally.check(np.array_equal(codes[rows], ref), f"{model} batch {k} differs from execute_deployed")

    def layer_metrics(self, state, tracer) -> tuple[dict, list[str]]:
        return engine_layer_metrics(tracer, state["deployed"], BATCH)

