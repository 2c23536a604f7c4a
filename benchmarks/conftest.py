"""Shared benchmark fixtures.

The accuracy-bearing benchmarks train on the CIFAR-10 surrogate at
reduced scale (see DESIGN.md, "Substitutions"); training happens once per
session in fixtures, and the ``benchmark`` fixture then times the
measurement step of each experiment.

Every benchmark file also supports a ``--quick`` smoke mode::

    python -m pytest benchmarks/bench_X.py --quick --benchmark-disable -q

Quick mode shrinks the trained fixtures to smoke scale (tiny datasets,
1-2 epochs) and skips the tests marked with the ``full_only`` fixture —
the statistical accuracy bands and wall-clock speedup gates, which are
meaningless on an untrained network or an unwarmed machine.  Everything
else (plumbing, printing, bit-identity assertions) still runs, which is
what ``tests/integration/test_bench_smoke.py`` pins in tier-1 so the
benchmark suite cannot silently rot.

Gate numbers are persisted: any test may write into its file's
``bench_metrics`` dict (a plain ``{key: number-or-string}``), and a full
(non ``--quick``) run dumps each file's dict to
``benchmarks/BENCH_<name>.json`` at session end — the machine-readable
perf trajectory tracked PR-over-PR.  Quick runs never write, so the
tier-1 smoke gate cannot clobber real measurements with smoke numbers.
Each record carries a ``host`` block (cores, machine, Python, numpy,
BLAS, thread pins): a speedup is only comparable on the same host.
"""

from __future__ import annotations

import json
import os
import platform
import time
from pathlib import Path

#: One BLAS thread, set before numpy is first imported.  On a small host
#: an unpinned BLAS spends a batch's time waking threads, so a wall-clock
#: gate reads the scheduler instead of the kernel (the engine speedup
#: gate swung across its 5x bound run to run).  perfbench pins the same.
os.environ.update({"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"})

import numpy as np
import pytest

#: Per-bench-file metric dicts accumulated over the session.
_BENCH_METRICS: dict[str, dict] = {}


@pytest.fixture
def bench_metrics(request) -> dict:
    """The requesting bench file's persisted-metrics dict.

    Keys written here (measured speedups, samples/sec, accuracy deltas)
    land in ``benchmarks/BENCH_<name>.json`` after a full run.
    """
    name = Path(str(request.node.fspath)).stem.removeprefix("bench_")
    return _BENCH_METRICS.setdefault(name, {})


def _host() -> dict:
    """The machine and numerical stack a record was measured on."""
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]["name"]
    except (TypeError, KeyError):  # numpy < 1.26 has no dict mode
        blas = "unknown"
    return {
        "cpu_count": os.cpu_count(),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "thread_pins": {k: v for k, v in sorted(os.environ.items()) if k.endswith("_NUM_THREADS")},
    }


def pytest_sessionfinish(session, exitstatus):
    if session.config.getoption("--quick", default=False):
        return  # smoke numbers are meaningless; keep the real trajectory
    for name, metrics in _BENCH_METRICS.items():
        if not metrics:
            continue
        payload = {
            "bench": name,
            "host": _host(),
            "recorded_unix": int(time.time()),
            "metrics": metrics,
        }
        out = Path(__file__).parent / f"BENCH_{name}.json"
        out.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")

from repro.core import MFDFPConfig, run_algorithm1
from repro.datasets import cifar10_surrogate, imagenet_surrogate
from repro.nn import SGD, PlateauScheduler, Trainer
from repro.zoo import alexnet_small, cifar10_small


def pytest_addoption(parser):
    parser.addoption(
        "--quick",
        action="store_true",
        default=False,
        help="smoke mode: tiny data and epochs; skip statistical/timing gates",
    )


def pytest_collect_file(file_path, parent):
    """Collect ``bench_*.py`` when this directory was asked for explicitly.

    The benchmark files do not match pytest's default ``test_*.py``
    pattern, so ``pytest benchmarks/`` used to collect nothing at all —
    the documented command silently ran zero benchmarks.  This hook
    collects them, but only when the benchmarks directory itself appears
    in the command-line arguments: a plain ``pytest`` from the repo root
    (the tier-1 suite) must not start training benchmark fixtures.
    """
    if not (file_path.suffix == ".py" and file_path.name.startswith("bench_")):
        return None
    config = parent.config
    bench_dir = Path(file_path).resolve().parent
    invocation_dir = Path(str(config.invocation_params.dir))
    for raw in config.invocation_params.args:
        arg = str(raw).split("::")[0]
        if arg.startswith("-"):
            continue
        try:
            target = (invocation_dir / arg).resolve()
        except OSError:  # unresolvable option values, e.g. `-k expr`
            continue
        if target == bench_dir:
            return pytest.Module.from_parent(parent, path=file_path)
    return None


@pytest.fixture(scope="session")
def quick(request) -> bool:
    """True when the benchmarks run in ``--quick`` smoke mode."""
    return bool(request.config.getoption("--quick"))


@pytest.fixture
def full_only(request):
    """Skip the requesting test in ``--quick`` mode.

    For statistical accuracy bands and wall-clock speedup gates: smoke
    fixtures are too small for either to be meaningful.
    """
    if request.config.getoption("--quick"):
        pytest.skip("statistical/timing gate skipped in --quick smoke mode")


def train_float(net, train, test, epochs=20, lr=0.02, seed=0):
    """Train the float network to convergence (plateau LR schedule)."""
    optimizer = SGD(net.params, lr=lr, momentum=0.9)
    scheduler = PlateauScheduler(optimizer, patience=2)
    trainer = Trainer(
        net, optimizer, scheduler=scheduler, batch_size=32, rng=np.random.default_rng(seed)
    )
    trainer.fit(train, test, epochs=epochs)
    return trainer.history


@pytest.fixture(scope="session")
def cifar_problem(quick):
    """Trained float cifar10_small + surrogate data (accuracy benchmarks).

    noise=0.75 puts the surrogate in the paper's operating regime: the
    float network converges well below ceiling and raw quantization costs
    several accuracy points that fine-tuning must then recover.
    """
    n_train, n_test, epochs = (160, 80, 2) if quick else (1200, 300, 20)
    train, test = cifar10_surrogate(n_train=n_train, n_test=n_test, size=16, seed=3, noise=0.75)
    net = cifar10_small(size=16, rng=np.random.default_rng(7))
    history = train_float(net, train, test, epochs=epochs)
    return {"net": net, "train": train, "test": test, "history": history}


@pytest.fixture(scope="session")
def imagenet_problem(quick):
    """Trained float alexnet_small + downscaled ImageNet surrogate."""
    n_train, n_test, epochs = (160, 80, 2) if quick else (1200, 300, 20)
    train, test = imagenet_surrogate(
        n_train=n_train, n_test=n_test, num_classes=20, size=16, noise=0.8, seed=9
    )
    net = alexnet_small(num_classes=20, size=16, rng=np.random.default_rng(17))
    history = train_float(net, train, test, epochs=epochs)
    return {"net": net, "train": train, "test": test, "history": history}


@pytest.fixture(scope="session")
def cifar_mfdfp(cifar_problem, quick):
    """Algorithm 1 result on the CIFAR surrogate (phases 1+2)."""
    epochs = 1 if quick else 6
    config = MFDFPConfig(phase1_epochs=epochs, phase2_epochs=epochs, lr=5e-3, batch_size=32)
    return run_algorithm1(
        cifar_problem["net"].clone(),
        cifar_problem["train"],
        cifar_problem["test"],
        cifar_problem["train"].x[:256],
        config,
        rng=np.random.default_rng(1),
    )


@pytest.fixture(scope="session")
def imagenet_mfdfp(imagenet_problem, quick):
    epochs = 1 if quick else 6
    config = MFDFPConfig(phase1_epochs=epochs, phase2_epochs=epochs, lr=5e-3, batch_size=32)
    return run_algorithm1(
        imagenet_problem["net"].clone(),
        imagenet_problem["train"],
        imagenet_problem["test"],
        imagenet_problem["train"].x[:256],
        config,
        rng=np.random.default_rng(2),
    )
