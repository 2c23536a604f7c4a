"""``sweep``: the ``faults`` campaign on the ``cifar10_full`` deployable.

``run_campaign("faults", ...)`` over all six default bit-error rates,
through the process backend with two workers (never more than
``nproc``), repeated under fresh seeds.  Every point compiles a new
engine for a corrupted variant, so engine compile and ``EngineCache``
carry the load, not the kernels; the points also cross
``parallel.pool``, which no other workload uses.

``peak_rss_mb`` here is the process tree: this process's peak plus the
peak of its largest waited-for child (a pool worker).  Before the
clock starts, one campaign with a fixed generator on a fixed data set
runs; it warms the lazy imports the first fork pays for, and its curve
is checked against ``expected.json``.
"""

from __future__ import annotations

import os
import pickle
import time
from contextlib import nullcontext

import numpy as np

from common import Deadline, chunked_rate, expected, percentile, windowed
from layers import engine_layer_metrics, npu_per_inference
from repro.analysis import inject_weight_faults, run_campaign
from repro.analysis.campaign import DEFAULT_POINTS
from repro.core import BatchedEngine, execute_deployed
from repro.core.engine import plane_decode_count
from repro.datasets import cifar10_surrogate
from repro.parallel import ProcessPoolRunner
from repro.zoo import cifar10_full_deployable

SIZE = 16
N_TEST = 512
BATCH = 64  # the fixed batch the modeled NPU numbers are scheduled at
JOBS = min(2, os.cpu_count() or 1)
WINDOW_S = 3.0  # the campaign p99 is a median over windows this long
CANONICAL_SEED = 0  # data and fault generator of the recorded campaign
#: A campaign slower than this counts as missing its limit (a stall
#: detector: a campaign takes about 0.7 s on a 2-core Xeon).
CAMPAIGN_LIMIT_MS = 30_000.0


def _campaign(deployed, data, rng):
    return run_campaign(
        "faults", deployed=deployed, x=data.x, y=data.y, jobs=JOBS, backend="process", rng=rng
    )


class Workload:
    name = "sweep"
    rss_includes_children = True

    def __init__(self, seed: int):
        self.seed = seed
        _, self.canonical = cifar10_surrogate(n_train=8, n_test=N_TEST, size=SIZE, seed=CANONICAL_SEED)

    def setup(self, tracer=None):
        _, test = cifar10_surrogate(n_train=8, n_test=N_TEST, size=SIZE, seed=self.seed)
        return {"test": test, "deployed": cifar10_full_deployable(size=SIZE)}

    def close(self, state) -> None:
        pass

    def measure(self, state, seconds: float, tally, clock, tracer=None) -> dict:
        deployed, test = state["deployed"], state["test"]
        canonical = _campaign(deployed, self.canonical, np.random.default_rng(CANONICAL_SEED))
        recorded = [tuple(p) for p in expected("sweep")["canonical_curve"]]
        tally.check(canonical.points == recorded,
                    f"canonical curve {canonical.points} != recorded {recorded}")
        if tracer is not None:
            self._trace_pool(tracer, state)
        campaign = tracer.timed(_campaign, "analysis.campaign") if tracer else _campaign
        deadline = Deadline(seconds)
        times, ops, results, attempts = [], [], [], 0
        with tracer.span("bench.measure") if tracer else nullcontext():
            while not attempts or deadline.left() > 0:
                clock.tick()
                rng = np.random.default_rng([self.seed, attempts])
                attempts += 1
                tally.attempted += 1
                t0 = clock.now()
                try:
                    result = campaign(deployed, test, rng)
                except Exception as exc:  # a failed campaign is counted, not fatal
                    tally.check(False, f"campaign raised {exc!r}")
                    continue
                times.append(clock.now() - t0)
                ops.append((t0, t0 + times[-1], len(result.points)))
                results.append(result)
        state["results"] = results
        if not results:
            return {}  # every campaign failed: counted above, no figures
        cycles, energy = npu_per_inference([deployed], BATCH)
        return {
            "throughput_per_s": chunked_rate(ops),
            "latency_p50_ms": 1e3 * percentile(times, 50),
            "latency_p99_ms": 1e3 * windowed(times, [end for _, end, _ in ops], 99, WINDOW_S),
            "slo_met_share": sum(1e3 * t <= CAMPAIGN_LIMIT_MS for t in times) / len(times),
            # The canonical campaign's curve: fixed data and fault generator,
            # so it repeats exactly.  The untrained zoo net sits at chance
            # (0.0957 clean on ten classes), so faults barely move it.
            "top1_error": float(np.mean([1.0 - acc for _, acc in canonical.points])),
            "npu_cycles_per_inf": cycles,
            "npu_energy_uj_per_inf": energy,
        }

    def check(self, state, tally) -> None:
        """Every clean point equals the eager reference; campaign 0 replays exactly."""
        deployed, test = state["deployed"], state["test"]
        codes = execute_deployed(deployed, test.x)
        clean = float(np.mean(np.argmax(codes, axis=1) == test.y))
        for i, result in enumerate(state["results"]):
            points = dict(result.points)
            tally.check(points.get(0.0) == clean, f"campaign {i} clean point {points.get(0.0)} != {clean}")
        if state["results"]:
            replay = _campaign(deployed, test, np.random.default_rng([self.seed, 0]))
            tally.check(replay.points == state["results"][0].points, "campaign 0 did not replay exactly")

    # -- traced run --------------------------------------------------------------------
    def _trace_pool(self, tracer, state) -> None:
        """Time ``ProcessPoolRunner.map`` and size the pickled point tasks."""
        original = ProcessPoolRunner.map
        task_bytes = state.setdefault("task_bytes", [])

        def map_traced(runner, fns):
            fns = list(fns)
            task_bytes.append(mean_size(fns))
            start = time.perf_counter()
            try:
                return original(runner, fns)
            finally:
                tracer.record("parallel.pool.map", start, time.perf_counter(), tasks=len(fns))

        tracer.patch(ProcessPoolRunner, "map", map_traced)

    def layer_metrics(self, state, tracer) -> tuple[dict, list[str]]:
        metrics, lines = engine_layer_metrics(tracer, {"cifar10_full": state["deployed"]}, BATCH)
        results = state["results"]
        # Host-side replay of what each worker does per point: the workers'
        # own compiles are not visible from here.
        rng = np.random.default_rng([self.seed, 99])
        decodes = plane_decode_count()
        for ber in DEFAULT_POINTS["faults"]:
            faulty = inject_weight_faults(state["deployed"], ber, rng).faulty
            with tracer.span("core.engine.compile"):
                BatchedEngine(faulty)
        metrics.update({
            "core.engine.plane_decodes": plane_decode_count() - decodes,
            "analysis.campaign.elapsed_ms": 1e3 * float(np.mean([r.elapsed_s for r in results])),
            # The process backend looks engines up in the workers' caches,
            # so the host-side counts read 0/0: recorded as found.
            "analysis.campaign.cache_hits": sum(r.cache_hits for r in results),
            "analysis.campaign.cache_misses": sum(r.cache_misses for r in results),
            "parallel.pool.task_bytes": float(np.mean(state["task_bytes"])),
        })
        return metrics, lines


def mean_size(fns) -> float:
    """Mean pickled size of the point tasks, in bytes."""
    return float(np.mean([len(pickle.dumps(fn, protocol=pickle.HIGHEST_PROTOCOL)) for fn in fns]))
