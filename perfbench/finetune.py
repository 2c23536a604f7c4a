"""``finetune``: the paper's pipeline at surrogate scale.

Each pipeline pretrains ``cifar10_small`` (16x16, the geometry of the
zoo's ``cifar10_full`` deployable) on ``cifar10_surrogate`` for a few
float epochs, runs Algorithm 1 (phase 1 + phase 2, compiled trainer),
deploys, and evaluates the deployed net through ``BatchedEngine``.
``nn.compiled`` and ``core.quantizer`` do the work; the engine does
little and serve and the pool do nothing.

The training task (data, initial weights, shuffling) is fixed, so the
deployed net's ``top1_error`` repeats exactly and is checked against the
value in ``expected.json``: on this short schedule the error moves by
tens of percent with the data or the initial weights, which no bound
could absorb.  The seed orders the evaluation batches and picks the
samples compared bit for bit with ``execute_deployed``.
"""

from __future__ import annotations

import time
from contextlib import nullcontext

import numpy as np

from common import Deadline, chunked_rate, expected, percentile
from layers import engine_layer_metrics, npu_per_inference, wrap_engine
from repro.core import BatchedEngine, MFDFPConfig, execute_deployed, run_algorithm1
from repro.datasets import cifar10_surrogate
from repro.nn import SGD, Trainer
from repro.zoo import cifar10_small

TASK_SEED = 0
SIZE = 16
N_TRAIN = 512
N_TEST = 512
N_CALIB = 128
FLOAT_EPOCHS = 2
FLOAT_LR = 0.01
BATCH = 32
CONFIG = MFDFPConfig(phase1_epochs=3, phase2_epochs=3, batch_size=BATCH)
EVAL_BATCH = 64
#: An epoch slower than this counts as missing its limit (a stall
#: detector: epochs take 0.2-0.5 s on a 2-core Xeon).
EPOCH_LIMIT_MS = 10_000.0
CHECK_ROWS = 64


class EpochClock:
    """Pipeline checkpointer that only stamps Algorithm 1's epoch boundaries.

    ``run_algorithm1`` calls ``begin`` right before phase 1, ``phase1``
    and ``phase2`` after every epoch, and ``phase1_complete`` between
    the phases; consecutive stamps bound each epoch.
    """

    def __init__(self):
        self.epochs: list[tuple[str, float, float]] = []
        self._last = None

    def _stamp(self, phase: str) -> None:
        now = time.perf_counter()
        self.epochs.append((phase, self._last, now))
        self._last = now

    def begin(self, **context) -> None:
        self._last = time.perf_counter()

    def phase1(self, trainer) -> None:
        self._stamp("phase1")

    def phase1_complete(self, history) -> None:
        self._last = time.perf_counter()

    def phase2(self, trainer) -> None:
        self._stamp("phase2")


class Workload:
    name = "finetune"

    def __init__(self, seed: int):
        self.seed = seed

    def setup(self, tracer=None):
        train, test = cifar10_surrogate(n_train=N_TRAIN, n_test=N_TEST, size=SIZE, seed=TASK_SEED)
        net = cifar10_small(size=SIZE, rng=np.random.default_rng(TASK_SEED))
        return {"train": train, "test": test, "net": net}

    def close(self, state) -> None:
        pass

    def pipeline(self, state, tracer=None) -> dict:
        """Pretrain, Algorithm 1, deploy, evaluate; returns the epochs and error."""
        span = tracer.span if tracer else (lambda name: nullcontext())
        train, test = state["train"], state["test"]
        net = state["net"].clone()
        trainer = Trainer(
            net, SGD(net.params, lr=FLOAT_LR, momentum=0.9), batch_size=BATCH,
            rng=np.random.default_rng(TASK_SEED),
        )
        epochs = []
        for _ in range(FLOAT_EPOCHS):
            start = time.perf_counter()
            with span("nn.trainer.epoch.float"):
                trainer.train_epoch(train)
            epochs.append(("float", start, time.perf_counter()))
        stamps = EpochClock()
        with span("core.pipeline.run_algorithm1"):
            result = run_algorithm1(
                net, train, test, train.x[:N_CALIB], CONFIG,
                rng=np.random.default_rng(TASK_SEED), checkpoint=stamps,
            )
        epochs += stamps.epochs
        if tracer is not None:
            for phase, start, end in stamps.epochs:
                tracer.record(f"nn.trainer.epoch.{phase}", start, end)
        deployed = result.mfdfp.deploy()
        with span("core.engine.compile"):
            engine = BatchedEngine(deployed)
        if tracer is not None:
            wrap_engine(tracer, engine, "cifar10_full")
        order = np.random.default_rng([self.seed, 1]).permutation(len(test.y))
        wrong = 0
        for lo in range(0, len(order), EVAL_BATCH):
            rows = order[lo:lo + EVAL_BATCH]
            with span("core.engine.run_codes"):
                codes = engine.run_codes(test.x[rows])
            wrong += int(np.count_nonzero(np.argmax(codes, axis=1) != test.y[rows]))
        return {
            "epochs": epochs,
            "error": wrong / len(order),
            "deployed": deployed,
            "engine": engine,
        }

    def measure(self, state, seconds: float, tally, clock, tracer=None) -> dict:
        deadline = Deadline(seconds)
        epochs, middle, slowest, ops, runs = [], [], [], [], []
        with tracer.span("bench.measure") if tracer else nullcontext():
            while not runs or deadline.left() > 0:
                clock.tick()
                start = clock.now()
                with tracer.span("bench.pipeline") if tracer else nullcontext():
                    run = self.pipeline(state, tracer)
                runs.append(run)
                ms = [1e3 * (end - begin) for _, begin, end in run["epochs"]]
                epochs += ms
                middle.append(percentile(ms, 50))
                slowest.append(max(ms))
                ops.append((start, clock.now(), len(ms) * N_TRAIN))
                tally.attempted += 1
        state["last"] = runs[-1]
        errors = {run["error"] for run in runs}
        recorded = expected("finetune")["top1_error"]
        tally.check(errors == {recorded},
                    f"top1_error {sorted(errors)} != recorded {recorded}")
        cycles, energy = npu_per_inference([runs[-1]["deployed"]], 1)
        return {
            # Medians over pipelines.  Epoch kinds form clusters (float,
            # first phase-1 epoch, later phase-1 epochs, phase 2); a median
            # over all epochs of a run sits at a cluster edge and jumps
            # between clusters from run to run.  A pipeline has too few
            # epochs for a 99th percentile: its p99 is its slowest epoch.
            "throughput_per_s": chunked_rate(ops),
            "latency_p50_ms": float(np.median(middle)),
            "latency_p99_ms": float(np.median(slowest)),
            "slo_met_share": sum(ms <= EPOCH_LIMIT_MS for ms in epochs) / len(epochs),
            "top1_error": runs[-1]["error"],
            "npu_cycles_per_inf": cycles,
            "npu_energy_uj_per_inf": energy,
        }

    def check(self, state, tally) -> None:
        """The deployed result runs bit-identically to the eager reference."""
        last = state["last"]
        test = state["test"]
        rows = np.sort(np.random.default_rng([self.seed, 2]).choice(len(test.y), CHECK_ROWS, replace=False))
        ref = execute_deployed(last["deployed"], test.x[rows])
        tally.check(np.array_equal(last["engine"].run_codes(test.x[rows]), ref),
                    "deployed engine differs from execute_deployed")

    def layer_metrics(self, state, tracer) -> tuple[dict, list[str]]:
        return engine_layer_metrics(tracer, {"cifar10_full": state["last"]["deployed"]}, 1)
