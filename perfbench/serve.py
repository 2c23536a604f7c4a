"""``serve``: closed-loop traffic into one ``ServerRuntime``.

Single-sample requests split 50/50 between the ``cifar10_full`` and
``alexnet`` deployables at 8x8 go into one runtime (thread backend, one
worker per model, default greedy batching).  At this size an engine call
costs well under a millisecond, so admission, mailbox wait, batch claim
and future resolution weigh heavily, and the engine runs small batches
instead of ``infer``'s 64.  Set-up publishes both artifacts to an
``ArtifactStore`` and cold-starts the registry from it, which puts
``repro.io`` on the path.

Eight clients each send their next request as soon as their last one
completes, so eight requests are always in flight (a closed loop; one
generator thread sends for all of them).  A request is timed from its
send.  An open-loop design, a fixed Poisson rate plus a rate ladder
for the capacity, was built and measured first and did not repeat on
a shared VM; README.md gives the figures.

SLO mode (``target_p99_s``) is left out on purpose; see README.md.
"""

from __future__ import annotations

import os
import shutil
import threading
import time
from contextlib import nullcontext
from functools import partial

import numpy as np

from common import SERVE_LIMIT_MS, chunked_rate, mean, percentile, windowed
from layers import engine_layer_metrics, npu_per_inference, wrap_engine
from repro.core import execute_deployed
from repro.datasets import cifar10_surrogate, imagenet_surrogate
from repro.io.store import ArtifactStore
from repro.serve import ModelRegistry, ServerRuntime
from repro.zoo import DEPLOYABLE_BUILDERS

MODELS = ("cifar10_full", "alexnet")
SIZE = 8
POOL = 1024  # distinct seeded samples per model
CLIENTS = 8  # requests in flight
WARMUP_S = 1.0  # closed loop before the measured phase, not measured
MAX_RATE = 20_000  # requests/s, an upper bound that sizes the arrays
KEEP_ROWS = 4096  # first requests whose full responses are kept for the check
SEGMENT_S = 2.0  # the measured phase runs in segments this long
CHECK_PER_MODEL = 64  # served responses per model compared with execute_deployed
DRAIN_TIMEOUT_S = 60.0
WIDTH = 20  # widest output row of the two models


class _TimedEngine:
    """Engine handed to the traced runtime: records one span per batch."""

    def __init__(self, engine, model: str, tracer):
        self.engine = engine
        self.model = model
        self.tracer = tracer
        self.input_shape = engine.input_shape
        self.deployed = engine.deployed

    def run(self, x):
        start = time.perf_counter()
        out = self.engine.run(x)
        self.tracer.record("serve.engine", start, time.perf_counter(), model=self.model, n=len(x))
        return out


class _Responses:
    """Where done-callbacks put each response, so no future outlives it.

    Holding one future per request for the whole run made the cyclic
    garbage collector walk tens of thousands of them in the middle of a
    measured phase (a 50-100 ms pause).  Each resolution frees its
    client's slot.
    """

    def __init__(self, n: int, slots: threading.Semaphore):
        self.done = np.full(n, np.nan)
        self.top = np.full(n, -1, dtype=np.int16)
        self.rows = np.full((min(n, KEEP_ROWS), WIDTH), np.nan)
        self.failed = np.zeros(n, dtype=bool)
        self.slots = slots
        self._pending = 0
        self._cond = threading.Condition()

    def expect(self) -> None:
        with self._cond:
            self._pending += 1

    def resolve(self, i: int, future) -> None:
        self.done[i] = time.perf_counter()
        if future.exception() is None:
            row = future.result()
            self.top[i] = np.argmax(row)
            if i < len(self.rows):
                self.rows[i, : len(row)] = row
        else:
            self.failed[i] = True
        self.slots.release()
        with self._cond:
            self._pending -= 1
            self._cond.notify_all()

    def wait(self, timeout: float) -> None:
        with self._cond:
            self._cond.wait_for(lambda: self._pending == 0, timeout)


class Workload:
    name = "serve"

    def __init__(self, seed: int, workdir):
        self.seed = seed
        self.workdir = workdir
        self._stores = 0
        # One vCPU for the whole process, before any runtime thread exists
        # (threads inherit it).  See README.md: cross-vCPU GIL hand-offs made
        # latency swing 2-3x with the host's load.
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
        cifar, _ = cifar10_surrogate(n_train=POOL, n_test=8, size=SIZE, seed=seed)
        inet, _ = imagenet_surrogate(n_train=POOL, n_test=8, size=SIZE, seed=seed)
        self.inputs = {m: (d.x, d.y) for m, d in zip(MODELS, (cifar, inet))}

    # -- set-up ------------------------------------------------------------------
    def setup(self, tracer=None):
        span = tracer.span if tracer else (lambda name: nullcontext())
        self._stores += 1
        root = self.workdir / f"store-{self._stores}"
        deployed = {m: DEPLOYABLE_BUILDERS[m](size=SIZE) for m in MODELS}
        store = ArtifactStore(root)
        for model in MODELS:
            with span("io.store.publish"):
                store.publish_deployed(model, deployed[model])
        with span("io.registry.cold_load"):
            registry = ModelRegistry.from_store(store)
            for model in MODELS:
                registry.engine(model)
        provider = None
        if tracer is not None:
            for model in MODELS:
                wrap_engine(tracer, registry.engine(model), model)

            def provider(name, version):
                return _TimedEngine(registry.engine(name), name, tracer), registry.version_label(name)

        runtime = ServerRuntime(registry, MODELS, workers=1, engine_provider=provider).start()
        return {"root": root, "deployed": deployed, "runtime": runtime}

    def close(self, state) -> None:
        state["runtime"].stop(drain=True)
        shutil.rmtree(state["root"], ignore_errors=True)

    # -- load ----------------------------------------------------------------------
    def _drive(self, runtime, seconds: float, phase: int) -> dict:
        """``CLIENTS`` requests in flight for ``seconds``; wait until all resolve."""
        rng = np.random.default_rng([self.seed, 10 + phase])
        n = int(MAX_RATE * seconds) + CLIENTS
        which, index = rng.integers(len(MODELS), size=n), rng.integers(POOL, size=n)
        sent = np.full(n, np.nan)
        submitted = np.full(n, np.nan)
        slots = threading.Semaphore(CLIENTS)
        responses = _Responses(n, slots)
        end = time.perf_counter() + seconds
        count = 0
        while count < n:
            slots.acquire()
            sent[count] = time.perf_counter()
            if sent[count] >= end:
                break
            model = MODELS[which[count]]
            try:
                future = runtime.submit(model, self.inputs[model][0][index[count]])
            except Exception:  # refused or closed: a failed request, counted by the caller
                slots.release()
                count += 1
                continue
            submitted[count] = time.perf_counter()
            responses.expect()
            future.add_done_callback(partial(responses.resolve, count))
            count += 1
        responses.wait(DRAIN_TIMEOUT_S)
        done = responses.done[:count]
        ok = ~np.isnan(submitted[:count]) & ~np.isnan(done) & ~responses.failed[:count]
        return {
            "sent": sent[:count], "submitted": submitted[:count], "done": done, "ok": ok,
            "top": responses.top[:count], "which": which[:count], "index": index[:count],
            "rows": responses.rows[:count],
        }

    def measure(self, state, seconds: float, tally, clock, tracer=None) -> dict:
        runtime = state["runtime"]
        self._drive(runtime, WARMUP_S, 0)  # fills lazy state only
        # Segments of about SEGMENT_S, with the reference slices between them.
        segments = max(1, round(seconds / SEGMENT_S))
        parts = []
        for k in range(segments):
            clock.tick()
            parts.append(self._drive(runtime, seconds / segments, 1 + k))
        clock.tick()
        run = {key: np.concatenate([part[key] for part in parts]) for key in parts[0] if key != "rows"}
        run["rows"] = parts[0]["rows"]  # full responses of the first segment's first requests
        run["latency"] = np.where(run["ok"], run["done"] - run["sent"], np.inf)
        tally.attempted += len(run["ok"])
        tally.failed += int(np.count_nonzero(~run["ok"]))
        state["run"] = run
        ms = 1e3 * run["latency"]
        labels = np.array([self.inputs[MODELS[m]][1][i] for m, i in zip(run["which"], run["index"])])
        served = np.count_nonzero(run["ok"])
        errors = np.count_nonzero(run["ok"] & (run["top"] != labels))
        order = np.argsort(run["done"])
        ops = [(run["sent"][i], run["done"][i], 1) for i in order if run["ok"][i]]
        cycles, energy = npu_per_inference(state["deployed"].values(), 1)
        return {
            "throughput_per_s": chunked_rate(ops),
            "latency_p50_ms": windowed(ms, run["sent"], 50),
            "latency_p99_ms": windowed(ms, run["sent"], 99),
            "slo_met_share": float(np.count_nonzero(ms <= SERVE_LIMIT_MS)) / len(ms),
            "top1_error": errors / served if served else 1.0,
            "npu_cycles_per_inf": cycles,
            "npu_energy_uj_per_inf": energy,
        }

    def check(self, state, tally) -> None:
        """A seeded subset of served responses equals the eager reference."""
        run = state["run"]
        rng = np.random.default_rng([self.seed, 2])
        kept = np.arange(len(run["ok"])) < len(run["rows"])
        for m, model in enumerate(MODELS):
            served = np.flatnonzero(run["ok"] & kept & (run["which"] == m))
            picks = np.sort(rng.choice(served, min(CHECK_PER_MODEL, len(served)), replace=False))
            deployed = state["deployed"][model]
            x = self.inputs[model][0][run["index"][picks]]
            ref = execute_deployed(deployed, x)
            scale = 2.0 ** deployed.ops[-1].out_frac  # logits are codes x 2^-out_frac
            for row, i in zip(ref, picks):
                codes = run["rows"][i, : len(row)] * scale
                tally.check(np.array_equal(codes, row), f"{model} request {i} differs from execute_deployed")

    # -- traced run --------------------------------------------------------------------
    def layer_metrics(self, state, tracer) -> tuple[dict, list[str]]:
        metrics, lines = engine_layer_metrics(tracer, state["deployed"], 1)
        stages = {k: [] for k in ("submit", "wait", "engine", "resolve")}
        latency_total = accounted = 0.0
        batches = {m: [s for s in tracer.spans if s.name == "serve.engine" and s.attrs["model"] == m]
                   for m in MODELS}
        rid = 0
        run = state["run"]
        for m, model in enumerate(MODELS):
            # workers=1 and FIFO claims: a model's batches serve its
            # admitted requests in submission order.
            queue = np.flatnonzero((run["which"] == m) & ~np.isnan(run["submitted"]))
            cursor = 0
            for span in sorted(batches[model], key=lambda s: s.start):
                if cursor >= len(queue):
                    break
                if span.end < run["sent"][0]:
                    continue
                for i in queue[cursor:cursor + span.attrs["n"]]:
                    parts = {
                        "submit": run["submitted"][i] - run["sent"][i],
                        "wait": span.start - run["submitted"][i],
                        "engine": span.duration,
                        "resolve": run["done"][i] - span.end,
                    }
                    total = run["done"][i] - run["sent"][i]
                    latency_total += total
                    accounted += sum(v for v in parts.values() if v >= 0)
                    edges = [run["sent"][i], run["submitted"][i],
                             span.start, span.end, run["done"][i]]
                    lane = -1 - rid
                    tracer.record("bench.request", edges[0], edges[-1], lane=lane, rid=rid)
                    for (name, value), a, b in zip(parts.items(), edges, edges[1:]):
                        stages[name].append(value)
                        tracer.record(f"serve.{name}", a, b, lane=lane, rid=rid)
                    rid += 1
                cursor += span.attrs["n"]
        snaps = [state["runtime"].metrics(m).snapshot() for m in MODELS]
        metrics.update({
            "serve.submit_us": 1e6 * mean(stages["submit"]),
            "serve.queue_wait_ms": 1e3 * percentile(stages["wait"], 50),
            "serve.engine_ms": 1e3 * mean(s.duration for b in batches.values() for s in b),
            "serve.batch_size": mean(s.attrs["n"] for b in batches.values() for s in b),
            "serve.resolve_ms": 1e3 * percentile(stages["resolve"], 50),
            "serve.rejected": sum(s["rejected"] for s in snaps),
            "serve.crashed": sum(s["crashed"] for s in snaps),
            "io.artifact_bytes": sum(p.stat().st_size for p in state["root"].rglob("*") if p.is_file()),
            # Stage spans of one request tile its latency when the request
            # is attributed to the right batch; a gap or overlap shows here.
            "trace.unaccounted_share": 1 - accounted / latency_total if latency_total else 0.0,
        })
        lines.append(
            "serve stages p50 ms: "
            + ", ".join(f"{k} {1e3 * percentile(v, 50):.3f}" for k, v in stages.items())
        )
        return metrics, lines
