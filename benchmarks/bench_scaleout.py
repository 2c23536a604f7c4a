"""Process scale-out: open-loop Poisson load against shared-memory workers.

The process backend's claim is linear-ish samples/sec scaling with
worker count at **zero** numeric cost: every placement — any number of
workers, fork or spawn — produces byte-identical outputs, because the
workers all execute the same canonical float64 weight planes out of one
shared-memory segment (see ``repro.parallel.arena``).

The load model is a million-request open-loop Poisson stream: arrival
times are exponential inter-arrivals on a *virtual* clock (no sleeping
— the generator is not the bottleneck under test), and the server
drains in micro-batches exactly as the runtime's batcher does: a batch
closes when it holds ``MAX_BATCH`` samples or the next arrival falls
outside the service window.  Batches are submitted open-loop (all in
flight at once) and results gathered at the end.

Gates:

* **always** (and in ``--quick`` smoke mode): bit-identical outputs
  across 1-worker and multi-worker placements, and against the
  in-process reference engine; the publisher decoded each weight plane
  exactly once per host and workers decoded none (segment accounting).
* **full runs only, ≥ 4 cores**: 4 process workers deliver ≥ 2.5x the
  1-worker samples/sec on the million-request stream.
"""

import functools
import os
import time

import numpy as np
import pytest

from repro.core import engine as engine_mod
from repro.core.engine import BatchedEngine, engine_fingerprint
from repro.parallel import ProcessPoolRunner, SharedWeightArena
from repro.parallel import worker as worker_mod
from repro.zoo import cifar10_full_deployable

N_REQUESTS_FULL = 1_000_000
N_REQUESTS_QUICK = 2_000
RATE_HZ = 50_000.0  # open-loop arrival rate of the Poisson stream
WINDOW_S = 0.002  # batcher service window on the virtual clock
MAX_BATCH = 64
SAMPLE_BANK = 512  # distinct request payloads, cycled by arrival index
SCALE_WORKERS = 4
SCALE_GATE = 2.5


@pytest.fixture(scope="module")
def served(quick):
    """One serving-scale artifact + the Poisson-batched request stream."""
    deployed = cifar10_full_deployable(size=8)
    reference = BatchedEngine(deployed)
    rng = np.random.default_rng(23)
    bank = rng.normal(scale=0.5, size=(SAMPLE_BANK,) + reference.input_shape).astype(
        np.float32
    )
    n = N_REQUESTS_QUICK if quick else N_REQUESTS_FULL
    batches = _poisson_batches(n, rng)
    return {
        "deployed": deployed,
        "reference": reference,
        "bank": bank,
        "expected": reference.run(bank),
        "batches": batches,
        "n": n,
    }


def _poisson_batches(n, rng):
    """Open-loop Poisson arrivals, drained into micro-batches.

    Returns a list of ``(start, stop)`` index ranges into the arrival
    order; request ``i`` carries payload ``bank[i % SAMPLE_BANK]``.
    Batch boundaries are a pure function of the arrival times, so every
    placement serves the exact same batches.
    """
    gaps = rng.exponential(1.0 / RATE_HZ, size=n)
    arrivals = np.cumsum(gaps)
    batches = []
    start = 0
    for i in range(1, n + 1):
        full = i - start >= MAX_BATCH
        window_over = i < n and arrivals[i] - arrivals[start] > WINDOW_S
        if full or window_over or i == n:
            batches.append((start, i))
            start = i
    return batches


def _run_placement(served, workers, mp_context=None):
    """Serve the whole stream on ``workers`` processes; returns results + stats."""
    deployed, bank = served["deployed"], served["bank"]
    decodes_before = engine_mod.plane_decode_count()
    fingerprint = engine_fingerprint(deployed)
    with SharedWeightArena() as arena:
        spec = arena.publish(deployed)
        # init_serving pre-installs the model in every worker, so the
        # steady state ships only (fingerprint, batch) per request.
        with ProcessPoolRunner(
            workers,
            mp_context=mp_context,
            initializer=worker_mod.init_serving,
            initargs=(deployed, spec),
        ) as runner:
            start = time.perf_counter()
            futures = []
            for lo, hi in served["batches"]:
                idx = np.arange(lo, hi) % SAMPLE_BANK
                futures.append(
                    runner.submit(
                        functools.partial(worker_mod.run_batch, fingerprint, bank[idx])
                    )
                )
            outputs = [f.result(timeout=600) for f in futures]
            elapsed = time.perf_counter() - start
            stats = runner.call(worker_mod.worker_stats)
        accounting = {
            "segments_created": arena.created,
            "segments_adopted": arena.adopted,
            "host_plane_decodes": engine_mod.plane_decode_count() - decodes_before,
            "worker_plane_decodes": stats["plane_decodes"],
            "worker_attached_segments": stats["attached_segments"],
        }
    return {
        "outputs": np.concatenate(outputs, axis=0),
        "samples_per_sec": served["n"] / elapsed,
        "elapsed_s": elapsed,
        "accounting": accounting,
    }


def test_placements_are_bit_identical(served, quick, bench_metrics):
    """1 worker vs many, fork or not — the numbers never move."""
    one = _run_placement(served, workers=1)
    many = _run_placement(served, workers=2 if quick else SCALE_WORKERS)

    expected = served["expected"]
    idx = np.arange(served["n"]) % SAMPLE_BANK
    assert np.array_equal(one["outputs"], expected[idx])
    assert one["outputs"].tobytes() == many["outputs"].tobytes()

    # Single-mapping invariant: the host (publisher) decoded each plane
    # exactly once; serving workers decoded nothing and mapped the one
    # segment at most once.
    for run in (one, many):
        acc = run["accounting"]
        assert acc["segments_created"] + acc["segments_adopted"] == 1
        assert acc["worker_plane_decodes"] == 0
        assert acc["worker_attached_segments"] == 1
    weighted_planes = len(
        [op for op in served["deployed"].ops if op.kind in ("conv", "dense") and op.weight_codes is not None]
    )
    assert one["accounting"]["host_plane_decodes"] == weighted_planes

    bench_metrics["n_requests"] = served["n"]
    bench_metrics["batches"] = len(served["batches"])
    bench_metrics["samples_per_sec_1w"] = round(one["samples_per_sec"], 1)
    bench_metrics["samples_per_sec_multi"] = round(many["samples_per_sec"], 1)


def test_spawn_placement_matches_fork(served, quick):
    """Start method is also not allowed to leak into the numbers."""
    if not quick:
        pytest.skip("placement-identity already covered at full scale above")
    fork = _run_placement(served, workers=2, mp_context="fork")
    spawn = _run_placement(served, workers=2, mp_context="spawn")
    assert fork["outputs"].tobytes() == spawn["outputs"].tobytes()


def test_scaling_gate(served, full_only, bench_metrics):
    """Million-request stream: 4 workers ≥ 2.5x 1 worker samples/sec."""
    if (os.cpu_count() or 1) < SCALE_WORKERS:
        pytest.skip(f"scaling gate needs >= {SCALE_WORKERS} cores")
    one = _run_placement(served, workers=1)
    four = _run_placement(served, workers=SCALE_WORKERS)
    assert four["outputs"].tobytes() == one["outputs"].tobytes()
    speedup = four["samples_per_sec"] / one["samples_per_sec"]
    bench_metrics["scaleout_speedup_4w"] = round(speedup, 2)
    bench_metrics["samples_per_sec_4w"] = round(four["samples_per_sec"], 1)
    print(
        f"\nscale-out: 1w {one['samples_per_sec']:.0f} -> "
        f"4w {four['samples_per_sec']:.0f} samples/s ({speedup:.2f}x)"
    )
    assert speedup >= SCALE_GATE, (
        f"4-worker placement delivered only {speedup:.2f}x the 1-worker "
        f"throughput (gate: {SCALE_GATE}x)"
    )
