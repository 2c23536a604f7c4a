"""The repository's benchmark: one workload per run, in a fresh interpreter.

Usage (from the repository root)::

    python3 perfbench/run.py --workload {infer,serve,finetune,sweep} \\
        --seed N --seconds S --trace {0,1}

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  With
``--trace 0`` the metrics are the end-to-end metrics listed in
``BENCHMARK.json``; with ``--trace 1`` they are its per-layer metrics,
measured in a separate traced phase, and a per-layer table plus the
traced and untraced end-to-end numbers are printed above that line.
Spans of the traced phase are written to ``.perfbench/traces/``.  A
host line (core count, python, numpy, BLAS and its thread pin, git
commit) precedes the result.  See ``perfbench/README.md``.
"""

import argparse
import importlib
import json
import os
import shutil
import sys
from pathlib import Path

#: Set before numpy is first imported (by ``common`` and the workloads), so
#: the BLAS starts one thread instead of ``nproc`` threads beside the
#: runtime's own workers.
THREAD_PIN = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
os.environ.update(THREAD_PIN)

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORKLOADS = ("infer", "serve", "finetune", "sweep")

#: Per-layer metrics read straight off span durations (mean per span, ms).
SPAN_MEANS_MS = {
    "core.engine.compile_ms": "core.engine.compile",
    "core.mfdfp.from_float_ms": "core.mfdfp.from_float",
    "core.mfdfp.deploy_ms": "core.mfdfp.deploy",
    "nn.trainer.epoch_ms.float": "nn.trainer.epoch.float",
    "nn.trainer.epoch_ms.phase1": "nn.trainer.epoch.phase1",
    "nn.trainer.epoch_ms.phase2": "nn.trainer.epoch.phase2",
    "nn.trainer.forward_ms": "nn.trainer.forward",
    "nn.trainer.backward_ms": "nn.trainer.backward",
    "nn.optim.step_ms": "nn.optim.step",
    "nn.trainer.eval_ms": "nn.trainer.eval",
    "io.store.publish_ms": "io.store.publish",
    "io.registry.cold_load_ms": "io.registry.cold_load",
    "parallel.pool.map_ms": "parallel.pool.map",
}


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return args


def make_workload(name: str, seed: int, workdir: Path):
    module = importlib.import_module(name)
    if name == "serve":
        return module.Workload(seed, workdir)
    return module.Workload(seed)


#: End-to-end metrics in host time, reported at the reference host speed
#: (``hostspeed.py``): times are multiplied by a speed factor, rates
#: divided by it.  ``setup_s`` uses the slices run right after each
#: set-up, the others the slices interleaved with the measured phase.
HOST_TIMES = ("setup_s", "latency_p50_ms", "latency_p99_ms")
HOST_RATES = ("throughput_per_s",)


def run_plain(workload, seconds: float, tally) -> tuple[dict, list[str]]:
    from common import peak_rss_mb, timed_setup
    from hostspeed import HostSpeed

    setup_clock, clock = HostSpeed(), HostSpeed()
    state, setup_s = timed_setup(
        workload.setup, close=workload.close, between=lambda: setup_clock.sample(2)
    )
    try:
        metrics = workload.measure(state, seconds, tally, clock)
        metrics["peak_rss_mb"] = peak_rss_mb(getattr(workload, "rss_includes_children", False))
        workload.check(state, tally)
    finally:
        workload.close(state)
    metrics["setup_s"] = setup_s
    factors = {"setup": setup_clock.factor(), "measure": clock.factor()}
    raw = {name: metrics[name] for name in HOST_TIMES + HOST_RATES if name in metrics}
    for name, value in raw.items():
        factor = factors["setup" if name == "setup_s" else "measure"]
        metrics[name] = value * factor if name in HOST_TIMES else value / factor
    lines = [
        "host speed factors: " + json.dumps(factors),
        "raw, before scaling: " + json.dumps(raw),
    ]
    return metrics, lines


def install_layer_wraps(tracer) -> None:
    """Time the public entry points of the trainer and the quantizer."""
    from repro.core import MFDFPNetwork
    from repro.nn import SGD, Trainer

    tracer.wrap(MFDFPNetwork, "from_float", "core.mfdfp.from_float")
    tracer.wrap(MFDFPNetwork, "deploy", "core.mfdfp.deploy")
    tracer.wrap(Trainer, "forward_batch", "nn.trainer.forward")
    tracer.wrap(Trainer, "backward_batch", "nn.trainer.backward")
    tracer.wrap(Trainer, "evaluate_error", "nn.trainer.eval")
    tracer.wrap(SGD, "step", "nn.optim.step")


def run_traced(workload, seconds: float, tally, trace_path: Path) -> tuple[dict, list[str]]:
    """Untraced half, then traced half; per-layer metrics from the traced one."""
    from common import mean, timed_setup
    from repro.core.engine import plane_decode_count
    from hostspeed import HostSpeed
    from spans import Tracer

    state, _ = timed_setup(workload.setup, repeats=1)
    try:
        untraced = workload.measure(state, seconds / 2, tally, HostSpeed())
        workload.check(state, tally)
        extra = workload.untraced_layer_metrics(state) if hasattr(workload, "untraced_layer_metrics") else {}
    finally:
        workload.close(state)

    tracer = Tracer()
    install_layer_wraps(tracer)
    decodes = plane_decode_count()
    state = None
    try:
        with tracer.span("bench.setup"):
            state = workload.setup(tracer)
        traced = workload.measure(state, seconds / 2, tally, HostSpeed(), tracer)
        metrics = {"core.engine.plane_decodes": plane_decode_count() - decodes}
        layer, lines = workload.layer_metrics(state, tracer)
        for metric, span in SPAN_MEANS_MS.items():
            metrics[metric] = 1e3 * mean(tracer.durations(span))
        metrics.update(layer)
        metrics.update(extra)
        tracer.restore()
        workload.check(state, tally)
    finally:
        tracer.restore()
        if state is not None:
            workload.close(state)
    if "trace.unaccounted_share" not in metrics:
        metrics["trace.unaccounted_share"] = tracer.unaccounted_share()
    metrics["trace.overhead_share"] = traced["latency_p50_ms"] / untraced["latency_p50_ms"] - 1
    tracer.write(trace_path)
    lines.append(f"{'end-to-end':<24}{'untraced':>12}{'traced':>12}")
    for name, value in untraced.items():
        lines.append(f"{name:<24}{value:>12.4f}{traced[name]:>12.4f}")
    lines.append(
        f"trace.unaccounted_share {metrics['trace.unaccounted_share']:.4f}  "
        f"trace.overhead_share {metrics['trace.overhead_share']:.4f}  spans -> {trace_path}"
    )
    return metrics, lines


def stop_resource_tracker() -> None:
    """Stop the tracker process a process pool starts, and wait for it.

    ``multiprocessing`` leaves it running until the interpreter exits;
    the benchmark stops every process it starts before it returns.
    """
    from multiprocessing import resource_tracker

    tracker = resource_tracker._resource_tracker
    if getattr(tracker, "_pid", None) is not None:
        tracker._stop()


def use_sources() -> bool:
    """Put the checkout's ``src`` first on the import path (and the workers')."""
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"perfbench: the repro sources are missing under {SRC}", file=sys.stderr)
        return False
    sys.path.insert(0, str(SRC))
    os.environ["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    return True


def main(argv=None) -> int:
    args = parse_args(argv)
    if not use_sources():
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())

    # Every import happens before any set-up clock starts.
    from common import Tally, host_info, result_line

    workdir = ROOT / ".perfbench" / f"run-{os.getpid()}"
    workload = make_workload(args.workload, args.seed, workdir)
    tally = Tally()
    lines = []
    try:
        if args.trace:
            path = ROOT / ".perfbench" / "traces" / f"{args.workload}-seed{args.seed}.jsonl"
            metrics, lines = run_traced(workload, args.seconds, tally, path)
            units = {m["name"]: m["unit"] for m in spec["per_layer"]}
            metrics = {name: metrics.get(name, 0.0) for name in units}
        else:
            metrics, lines = run_plain(workload, args.seconds, tally)
            units = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        stop_resource_tracker()
    if tally.attempted == 0:
        tally.check(False, "no operation ran")
    print("host: " + json.dumps(host_info(ROOT, THREAD_PIN)))
    for line in lines:
        print(line)
    for problem in tally.problems:
        print(f"FAILED: {problem}")
    print(result_line(tally, metrics, units))
    return 0


if __name__ == "__main__":
    sys.exit(main())
