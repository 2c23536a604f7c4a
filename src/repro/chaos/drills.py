"""End-to-end recovery drills: inject a fault plan, assert recovery.

Each drill stages a realistic failure through a printed
:class:`~repro.chaos.plan.FaultPlan` and then asserts the same three
invariants:

1. **No hangs** — the whole drill runs inside a
   :class:`~repro.chaos.watchdog.Watchdog`; a wedged recovery path
   surfaces as :class:`~repro.chaos.errors.DrillTimeoutError` with every
   thread's stack dumped, never as a stuck CI job.
2. **Typed errors only** — every error the fault provokes must belong to
   the owning layer's hierarchy (``ArtifactError``, ``PoolError``,
   ``CrashError``); a raw ``OSError``/``zipfile``/``numpy`` exception
   escaping a layer boundary is an
   :class:`~repro.chaos.errors.InvariantViolation`.
3. **Bit-identical recovery** — after the system recovers, its results
   (final weights, served logits, campaign outputs) equal the
   fault-free reference exactly, to the last bit.

The four drills (``DRILLS``):

``torn-checkpoint-resume``
    The newest checkpoint file is torn post-write (storage that lied
    about durability); resume must fall back to the previous valid step
    and refit to a bit-identical final state.
``corrupted-store-cold-start``
    The newest published model version rots on disk; a cold-started
    registry must quarantine it and silently serve the previous
    verified version, while a direct load of the bad version raises
    :class:`~repro.io.store.QuarantinedArtifactError`.
``worker-death-campaign``
    A pool worker is SIGKILLed mid-campaign; the crash must surface as
    a typed :class:`~repro.parallel.pool.WorkerCrashedError` within the
    liveness poll, and a policy-driven retry must complete the campaign
    with results bit-identical to the single-threaded baseline.
``kill-and-resume-under-load``
    A trainer subprocess is SIGKILLed mid-epoch (right after a
    checkpoint write) while this process streams serving traffic
    against the artifact store; the resumed run must produce
    bit-identical final weights and the serving tier must answer every
    request — zero drops.

Drills are deterministic from their seed: the printed plan JSON plus the
seed reproduce any failure exactly (``--seed`` on the CLI).
"""

from __future__ import annotations

import json
import os
import signal
import subprocess
import sys
import tempfile
import textwrap
import threading
import time
from dataclasses import dataclass, field
from functools import partial
from pathlib import Path
from typing import Callable, Optional

import numpy as np

from repro.chaos.errors import DrillError, InvariantViolation
from repro.chaos.plan import FaultPlan, FaultRule
from repro.chaos.registry import installed
from repro.chaos.watchdog import Watchdog


@dataclass
class DrillReport:
    """One drill run: its plan, what fired, and the invariant verdicts."""

    name: str
    seed: int
    quick: bool
    passed: bool
    duration_s: float
    plan: dict
    fired: list
    invariants: dict = field(default_factory=dict)
    details: dict = field(default_factory=dict)

    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "seed": self.seed,
            "quick": self.quick,
            "passed": self.passed,
            "duration_s": self.duration_s,
            "plan": self.plan,
            "fired": [list(f) for f in self.fired],
            "invariants": dict(self.invariants),
            "details": dict(self.details),
        }


def _expect(condition: bool, message: str) -> None:
    if not condition:
        raise DrillError(message)


def _typed_only(fn: Callable, allowed: tuple, label: str):
    """Run ``fn``; an exception outside ``allowed`` is an invariant breach.

    Returns ``(result, error)`` — exactly one is non-None — so drills
    can assert on errors that are *supposed* to happen without ever
    letting a raw one through.
    """
    try:
        return fn(), None
    except allowed as exc:
        return None, exc
    except BaseException as exc:
        raise InvariantViolation(
            f"{label}: raw {type(exc).__name__} escaped the layer boundary: {exc}"
        ) from exc


def _no_sleep(_seconds: float) -> None:
    """Zero-wait sleeper for retry backoff inside drills (determinism)."""


def _tiny_deployed(seed: int):
    """A deployed MF-DFP network small enough to publish/serve in ms."""
    from repro.core.mfdfp import deploy_calibrated
    from repro.zoo import cifar10_small

    net = cifar10_small(size=8, width=4, rng=np.random.default_rng(seed), dtype=np.float64)
    calib = np.random.default_rng(seed + 1).normal(size=(16, 3, 8, 8))
    return deploy_calibrated(net, calib)


def _make_trainer(seed: int):
    """The drills' shared training problem (surrogate CIFAR-10, tiny net)."""
    from repro.datasets import cifar10_surrogate
    from repro.nn import SGD, PlateauScheduler, Trainer
    from repro.zoo import cifar10_small

    train, test = cifar10_surrogate(n_train=64, n_test=32, size=8, seed=seed)
    net = cifar10_small(size=8, width=4, rng=np.random.default_rng(seed + 1))
    optimizer = SGD(net.params, lr=0.02, momentum=0.9)
    trainer = Trainer(
        net,
        optimizer,
        scheduler=PlateauScheduler(optimizer, patience=1),
        batch_size=16,
        rng=np.random.default_rng(seed + 2),
    )
    return trainer, train, test


def _weights_of(trainer) -> dict:
    return {k: v.copy() for k, v in trainer.net.get_weights().items()}


def _assert_weights_equal(ref: dict, got: dict, label: str) -> None:
    _expect(set(ref) == set(got), f"{label}: weight key sets differ")
    for key in sorted(ref):
        _expect(
            bool(np.array_equal(ref[key], got[key])),
            f"{label}: weight {key!r} differs after recovery (not bit-identical)",
        )


# -- drill 1: torn checkpoint, resume falls back ----------------------------


def drill_torn_checkpoint_resume(
    seed: int, quick: bool, workdir: Path
) -> tuple[FaultPlan, dict, dict]:
    """Tear the newest checkpoint post-write; resume must fall back."""
    from repro.io.artifacts import ArtifactError, load_checkpoint
    from repro.io.checkpoint import Checkpointer

    total = 4 if quick else 6
    torn_epoch = total - 1
    plan = FaultPlan(
        seed=seed,
        name="torn-checkpoint-resume",
        rules=[
            FaultRule(
                site="io.artifact.write",
                fault="torn-write",
                trigger={"suffix": f"epoch_{torn_epoch:04d}.npz"},
                params={"fraction": 0.4},
            )
        ],
    )

    # Reference: the uninterrupted run.
    reference, train, test = _make_trainer(seed)
    reference.fit(train, test, epochs=total)
    ref_weights = _weights_of(reference)

    # Faulted run: train to torn_epoch with checkpoints; the plan tears
    # the newest file the moment its (atomic) write completes.
    ckpt_dir = workdir / "ckpt"
    trainer, train, test = _make_trainer(seed)
    checkpointer = Checkpointer(ckpt_dir)
    with installed(plan):
        trainer.fit(train, test, epochs=torn_epoch, checkpoint=checkpointer)
    torn = ckpt_dir / f"epoch_{torn_epoch:04d}.npz"
    _expect(torn.is_file(), "torn checkpoint file vanished instead of being torn")
    _expect(
        checkpointer.latest() == checkpointer.path_for(torn_epoch - 1),
        "the fault plan failed to tear the newest checkpoint",
    )

    # A direct load of the torn file must fail typed, never raw.
    _, load_error = _typed_only(
        lambda: load_checkpoint(torn), (ArtifactError,), "load of torn checkpoint"
    )
    _expect(load_error is not None, "loading a torn checkpoint unexpectedly succeeded")

    # Recovery: a fresh trainer resumes — skipping the torn newest file —
    # and refits to the end.
    resumed, train, test = _make_trainer(seed)
    restored, resume_error = _typed_only(
        lambda: checkpointer.resume(resumed), (ArtifactError,), "checkpoint resume"
    )
    _expect(resume_error is None, f"resume failed instead of falling back: {resume_error}")
    _expect(
        restored == torn_epoch - 1,
        f"resume restored {restored} epochs; expected fallback to {torn_epoch - 1}",
    )
    resumed.fit(train, test, epochs=total, resume=True, checkpoint=checkpointer)
    _assert_weights_equal(ref_weights, _weights_of(resumed), "torn-checkpoint-resume")
    _expect(
        list(np.asarray(reference.history.train_losses))
        == list(np.asarray(resumed.history.train_losses)),
        "loss curves differ after torn-checkpoint recovery",
    )
    invariants = {
        "typed-errors-only": f"torn load raised {type(load_error).__name__}",
        "fallback": f"resume skipped epoch_{torn_epoch:04d}.npz, restored {restored} epochs",
        "bit-identical": f"{len(ref_weights)} weight tensors equal after refit",
    }
    details = {"epochs": total, "torn_epoch": torn_epoch}
    return plan, invariants, details


# -- drill 2: corrupted store, cold start falls back ------------------------


def drill_corrupted_store_cold_start(
    seed: int, quick: bool, workdir: Path
) -> tuple[FaultPlan, dict, dict]:
    """Rot the newest published version; cold start must quarantine it."""
    from repro.core.engine import BatchedEngine, engine_fingerprint
    from repro.io.artifacts import ArtifactError
    from repro.io.store import ArtifactStore, QuarantinedArtifactError
    from repro.serve import ModelRegistry

    model = "drill_model"
    plan = FaultPlan(
        seed=seed,
        name="corrupted-store-cold-start",
        rules=[
            FaultRule(
                site="io.store.read",
                fault="truncate",
                trigger={"suffix": "v0002.npz", "call": 2},
                params={"fraction": 0.6},
            )
        ],
    )

    store = ArtifactStore(workdir / "store", sleep=_no_sleep)
    v1_artifact = _tiny_deployed(seed + 11)
    v2_artifact = _tiny_deployed(seed + 13)
    _expect(store.publish_deployed(model, v1_artifact) == 1, "v1 publish did not land as 1")
    _expect(store.publish_deployed(model, v2_artifact) == 2, "v2 publish did not land as 2")

    rng = np.random.default_rng(seed + 17)
    batch = rng.normal(scale=0.5, size=(4, 3, 8, 8))
    ref_logits = BatchedEngine(v1_artifact).run(batch)

    with installed(plan):
        # Warm read: both versions verify before the rot sets in.
        warm_version, _ = store.load_newest_verified(model)
        _expect(warm_version == 2, f"warm read resolved v{warm_version}, expected v2")
        # Cold start: the second read of v0002 hits the rotted bytes.
        registry, start_error = _typed_only(
            lambda: ModelRegistry.from_store(store), (ArtifactError,), "registry cold start"
        )
        _expect(start_error is None, f"cold start failed instead of falling back: {start_error}")
        engine, build_error = _typed_only(
            lambda: registry.engine(model), (ArtifactError,), "engine build"
        )
        _expect(build_error is None, f"engine build failed instead of falling back: {build_error}")

    _expect(
        registry.version_label(model) == "v0001",
        f"cold start served {registry.version_label(model)}, expected fallback to v0001",
    )
    _expect(
        store.quarantined_versions(model) == [2],
        f"quarantine holds {store.quarantined_versions(model)}, expected [2]",
    )
    reason = store.quarantine_dir(model) / "v0002.reason.json"
    _expect(reason.is_file(), "quarantine reason sidecar missing")
    _expect(
        json.loads(reason.read_text())["model"] == model,
        "quarantine reason sidecar does not name the model",
    )

    # A direct load of the quarantined version is a typed, specific error.
    _, direct_error = _typed_only(
        lambda: store.load_deployed(model, 2), (ArtifactError,), "direct load of bad version"
    )
    _expect(
        isinstance(direct_error, QuarantinedArtifactError),
        f"direct load raised {type(direct_error).__name__}, expected QuarantinedArtifactError",
    )

    # Bit-identity: the fallback serves exactly v1's bytes and logits.
    _expect(
        engine_fingerprint(engine.deployed) == engine_fingerprint(v1_artifact),
        "fallback engine fingerprint differs from the v1 artifact",
    )
    _expect(
        bool(np.array_equal(engine.run(batch), ref_logits)),
        "fallback engine logits differ from the v1 reference (not bit-identical)",
    )
    invariants = {
        "typed-errors-only": "direct load raised QuarantinedArtifactError",
        "quarantine": "v0002.npz moved to quarantine/ with a reason sidecar",
        "bit-identical": "cold start silently serves v0001, logits equal",
    }
    details = {"model": model, "quarantined": store.quarantined_versions(model)}
    return plan, invariants, details


# -- drill 3: worker death mid-campaign -------------------------------------


def _campaign_point(seed: int) -> float:
    """One deterministic campaign point (module-level: pickles by reference)."""
    rng = np.random.default_rng(seed)
    return float(rng.standard_normal(2048).sum())


def _gated_campaign_point(seed: int, claim_dir: str, gate: str) -> float:
    """A campaign point that claims itself, then blocks until ``gate`` exists.

    Pure rendezvous around :func:`_campaign_point` (the value is
    identical): the claim marker is the sigkill-worker fault's evidence
    that this worker is mid-task, and the gate — touched only *after*
    the kill — guarantees no result can land while the victim is still
    alive.  Without it the victim can die idle and the survivor drain
    the whole queue, turning the drill into a coin flip.
    """
    claim = Path(claim_dir) / f"claim_{seed}"
    claim.touch()
    deadline = time.monotonic() + 30.0
    while not Path(gate).exists():
        if time.monotonic() > deadline:
            raise DrillError(f"campaign point {seed} never saw the kill gate at {gate}")
        time.sleep(0.002)
    return _campaign_point(seed)


def drill_worker_death_campaign(
    seed: int, quick: bool, workdir: Path
) -> tuple[FaultPlan, dict, dict]:
    """SIGKILL a pool worker mid-campaign; a typed retry must finish it."""
    from repro.parallel.pool import PoolError, ProcessPoolRunner, WorkerCrashedError
    from repro.retry import RetryPolicy

    n_points = 6 if quick else 10
    kill_at = 2 if quick else 4
    point_seeds = [seed + 100 + i for i in range(n_points)]
    claim_dir = workdir / "claims"
    claim_dir.mkdir()
    gate = workdir / "kill-gate"
    plan = FaultPlan(
        seed=seed,
        name="worker-death-campaign",
        rules=[
            FaultRule(
                site="parallel.pool.submit",
                fault="sigkill-worker",
                trigger={"call": kill_at},
                params={
                    "worker": 0,
                    "await_claims": str(claim_dir),
                    "await_count": 2,
                    "release": str(gate),
                },
            )
        ],
    )

    baseline = [_campaign_point(s) for s in point_seeds]
    retries: list[dict] = []

    def run_campaign() -> list:
        with ProcessPoolRunner(2) as runner:
            return runner.map(
                [
                    partial(_gated_campaign_point, s, str(claim_dir), str(gate))
                    for s in point_seeds
                ]
            )

    policy = RetryPolicy(attempts=3, backoff_initial_s=0.01, backoff_cap_s=0.05)
    with installed(plan):
        results, error = _typed_only(
            lambda: policy.call(
                run_campaign,
                retry_on=(PoolError,),
                sleep=_no_sleep,
                on_retry=lambda k, exc: retries.append(
                    {"attempt": k, "error": f"{type(exc).__name__}: {exc}"}
                ),
            ),
            (PoolError,),
            "campaign under worker death",
        )
    _expect(error is None, f"campaign never recovered: {error}")
    _expect(len(retries) == 1, f"expected exactly one typed retry, saw {len(retries)}")
    _expect(
        retries[0]["error"].startswith(WorkerCrashedError.__name__),
        f"retry was caused by {retries[0]['error']}, expected WorkerCrashedError",
    )
    _expect(results == baseline, "campaign results differ from baseline (not bit-identical)")
    invariants = {
        "no-hang": "worker death surfaced within the liveness poll",
        "typed-errors-only": retries[0]["error"].split(":")[0] + " only",
        "bit-identical": f"{n_points} points equal the single-process baseline",
    }
    details = {"points": n_points, "kill_at_submit": kill_at, "retries": retries}
    return plan, invariants, details


# -- drill 4: SIGKILL the trainer while serving stays live -------------------

_DRIVER_SRC = """
import numpy as np
from repro.chaos import FaultPlan, installed
from repro.datasets import cifar10_surrogate
from repro.io import Checkpointer
import repro.io.artifacts  # registers the io.artifact.* injection sites
from repro.nn import SGD, PlateauScheduler, Trainer
from repro.zoo import cifar10_small

SEED = {seed}
TOTAL = {total}

def make_trainer():
    train, test = cifar10_surrogate(n_train=64, n_test=32, size=8, seed=SEED)
    net = cifar10_small(size=8, width=4, rng=np.random.default_rng(SEED + 1))
    optimizer = SGD(net.params, lr=0.02, momentum=0.9)
    trainer = Trainer(
        net, optimizer,
        scheduler=PlateauScheduler(optimizer, patience=1),
        batch_size=16, rng=np.random.default_rng(SEED + 2),
    )
    return trainer, train, test
"""

_KILLED_SRC = """
plan = FaultPlan.from_json(open("plan.json").read())
trainer, train, test = make_trainer()
with installed(plan):
    trainer.fit(train, test, epochs=TOTAL, checkpoint=Checkpointer("ckpt"))
raise SystemExit("the fault plan never killed this process")
"""

_RESUMED_SRC = """
trainer, train, test = make_trainer()
ck = Checkpointer("ckpt")
restored = ck.resume(trainer)
assert restored == {kill_call}, f"resumed {{restored}} epochs, expected {kill_call}"
trainer.fit(train, test, epochs=TOTAL, resume=True, checkpoint=ck)
out = {{f"w/{{k}}": v for k, v in trainer.net.get_weights().items()}}
out["losses"] = np.array(trainer.history.train_losses)
np.savez("final.npz", **out)
"""


def _run_driver(workdir: Path, name: str, source: str) -> subprocess.CompletedProcess:
    import repro

    script = workdir / f"{name}.py"
    script.write_text(source)
    env = dict(os.environ)
    src = str(Path(repro.__file__).resolve().parents[1])
    existing = env.get("PYTHONPATH")
    env["PYTHONPATH"] = f"{src}{os.pathsep}{existing}" if existing else src
    return subprocess.run(
        [sys.executable, str(script)],
        cwd=workdir,
        env=env,
        capture_output=True,
        text=True,
        timeout=240,
    )


def drill_kill_and_resume_under_load(
    seed: int, quick: bool, workdir: Path
) -> tuple[FaultPlan, dict, dict]:
    """SIGKILL a trainer mid-run while streaming requests against the store."""
    from repro.core.engine import BatchedEngine
    from repro.io.store import ArtifactStore
    from repro.serve import ModelRegistry, ServerRuntime

    total = 4 if quick else 6
    kill_call = total - 2  # die right after this checkpoint write lands
    n_requests = 32 if quick else 96
    model = "drill_served"
    plan = FaultPlan(
        seed=seed,
        name="kill-and-resume-under-load",
        rules=[
            FaultRule(
                site="io.artifact.write",
                fault="sigkill-self",
                trigger={"call": kill_call},
            )
        ],
    )
    (workdir / "plan.json").write_text(plan.to_json())

    # The serving tier: a store-backed model this process streams
    # requests against for the whole duration of the kill + resume.
    store = ArtifactStore(workdir / "store", sleep=_no_sleep)
    served_artifact = _tiny_deployed(seed + 21)
    store.publish_deployed(model, served_artifact)
    registry = ModelRegistry.from_store(store)
    rng = np.random.default_rng(seed + 23)
    samples = [rng.normal(scale=0.5, size=(3, 8, 8)) for _ in range(n_requests)]
    reference_engine = BatchedEngine(served_artifact)
    expected = [reference_engine.run(s[None])[0] for s in samples]

    futures: list = []
    submit_errors: list = []

    def stream(runtime: ServerRuntime) -> None:
        for sample in samples:
            try:
                futures.append(runtime.submit(model, sample))
            except Exception as exc:  # collected, asserted typed below
                submit_errors.append(exc)
            time.sleep(0.002)

    driver_src = textwrap.dedent(_DRIVER_SRC.format(seed=seed, total=total))
    with ServerRuntime(registry, [model], workers=1) as runtime:
        streamer = threading.Thread(target=stream, args=(runtime,), daemon=True)
        streamer.start()

        # Reference final weights: the uninterrupted run, this process.
        reference, train, test = _make_trainer(seed)
        reference.fit(train, test, epochs=total)
        ref_weights = _weights_of(reference)

        killed = _run_driver(workdir, "killed", driver_src + textwrap.dedent(_KILLED_SRC))
        _expect(
            killed.returncode == -signal.SIGKILL,
            f"trainer exited {killed.returncode}, expected SIGKILL (-9): "
            f"{killed.stderr[-500:]}",
        )
        resumed = _run_driver(
            workdir,
            "resumed",
            driver_src + textwrap.dedent(_RESUMED_SRC.format(kill_call=kill_call)),
        )
        _expect(
            resumed.returncode == 0,
            f"resume driver failed ({resumed.returncode}): {resumed.stderr[-800:]}",
        )
        streamer.join(timeout=60)
        _expect(not streamer.is_alive(), "request streamer wedged")

    _expect(not submit_errors, f"submits failed during the kill: {submit_errors[:3]}")
    _expect(len(futures) == n_requests, "not every request was admitted")
    dropped = [i for i, f in enumerate(futures) if not f.done()]
    _expect(not dropped, f"{len(dropped)} request future(s) never resolved")
    for i, future in enumerate(futures):
        logits, serve_error = _typed_only(
            lambda f=future: f.result(timeout=30), (), f"request {i}"
        )
        _expect(serve_error is None, f"request {i} failed: {serve_error}")
        _expect(
            bool(np.array_equal(logits, expected[i])),
            f"request {i} logits differ from the engine reference",
        )

    with np.load(workdir / "final.npz") as data:
        final = {k[2:]: data[k] for k in data.files if k.startswith("w/")}
        final_losses = list(data["losses"])
    _assert_weights_equal(ref_weights, final, "kill-and-resume-under-load")
    _expect(
        list(np.asarray(reference.history.train_losses)) == final_losses,
        "loss curves differ after kill-and-resume",
    )
    invariants = {
        "no-hang": "kill, resume, and drain all completed inside the watchdog",
        "typed-errors-only": "no submit or serve errors during the kill window",
        "bit-identical": (
            f"final weights equal the uninterrupted run; "
            f"{n_requests}/{n_requests} requests answered correctly"
        ),
    }
    details = {
        "epochs": total,
        "killed_at_checkpoint": kill_call,
        "killed_returncode": killed.returncode,
        "requests": n_requests,
    }
    return plan, invariants, details


# -- the drill registry and runners ------------------------------------------

DRILLS: dict[str, Callable] = {
    "torn-checkpoint-resume": drill_torn_checkpoint_resume,
    "corrupted-store-cold-start": drill_corrupted_store_cold_start,
    "worker-death-campaign": drill_worker_death_campaign,
    "kill-and-resume-under-load": drill_kill_and_resume_under_load,
}

#: Per-drill watchdog budgets (seconds) — generous enough for slow CI,
#: tight enough that a hang fails long before the job times out.
_BUDGETS = {
    "torn-checkpoint-resume": 120.0,
    "corrupted-store-cold-start": 120.0,
    "worker-death-campaign": 120.0,
    "kill-and-resume-under-load": 300.0,
}


def run_drill(
    name: str,
    seed: int = 0,
    quick: bool = False,
    workdir: Optional[Path] = None,
    log: Callable[[str], None] = lambda line: None,
) -> DrillReport:
    """Run one drill under its watchdog; returns the (passed) report.

    A failed invariant raises :class:`~repro.chaos.errors.DrillError`
    (or :class:`~repro.chaos.errors.DrillTimeoutError` on a hang) —
    drills do not return failure, they raise it, so CI pipelines fail
    loudly.  ``log`` receives progress lines (the CLI passes ``print``).
    """
    if name not in DRILLS:
        raise DrillError(f"unknown drill {name!r}; choose from {sorted(DRILLS)}")
    start = time.monotonic()
    with tempfile.TemporaryDirectory(prefix=f"repro-chaos-{name}-") as tmp:
        base = Path(workdir) if workdir is not None else Path(tmp)
        base.mkdir(parents=True, exist_ok=True)
        with Watchdog(_BUDGETS[name], label=name):
            plan, invariants, details = DRILLS[name](seed, quick, base)
    report = DrillReport(
        name=name,
        seed=seed,
        quick=quick,
        passed=True,
        duration_s=time.monotonic() - start,
        plan=plan.to_dict(),
        fired=list(plan.fired),
        invariants=invariants,
        details=details,
    )
    log(f"drill {name}: PASS in {report.duration_s:.1f}s (seed={seed})")
    return report


def run_all_drills(
    seed: int = 0,
    quick: bool = False,
    log: Callable[[str], None] = lambda line: None,
) -> list[DrillReport]:
    """Run every drill in catalog order; raises on the first failure."""
    return [run_drill(name, seed=seed, quick=quick, log=log) for name in DRILLS]
