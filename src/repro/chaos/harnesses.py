"""Scenario harnesses: any fault plan, end to end, with checked recovery.

A harness stages one workload: it builds its own fault-free reference,
runs the workload under a :class:`~repro.chaos.plan.FaultPlan`,
recovers, and returns an :class:`Outcome`.  :func:`run_plan` holds
every harness to three invariants: **no hangs** (a
:class:`~repro.chaos.watchdog.Watchdog` bounds the run), **typed errors
only** (anything outside the owning layer's hierarchy is an
:class:`~repro.chaos.errors.InvariantViolation`) and **bit-identical
results** (every completed result equals the reference; the report's
``compared`` counts them).  :data:`HARNESSES` are ``resume``,
``resume-in-child`` (the resume run in a child process, the one place
``sigkill-self`` is valid, while ``serve`` streams fault-free requests
here), ``cold-start``, ``campaign`` and ``serve``.  The four
:data:`DRILLS` are pinned plans on them.  A printed plan replays with
``run_plan(HARNESSES[name], FaultPlan.from_json(text))``.
"""

from __future__ import annotations

import json
import os
import pickle
import signal
import subprocess
import sys
import tempfile
import threading
import time
from concurrent.futures import Future
from concurrent.futures import TimeoutError as FutureTimeout
from contextlib import contextmanager
from dataclasses import asdict, dataclass, field
from functools import partial
from pathlib import Path
from typing import Callable, NamedTuple, Optional

import numpy as np

from repro.chaos.errors import ChaosError, DrillError, DrillTimeoutError, InvariantViolation
from repro.chaos.plan import FaultPlan, FaultRule
from repro.chaos.registry import active_plan, installed
from repro.chaos.watchdog import Watchdog


@dataclass
class Outcome:
    """What one harness run produced, for :func:`run_plan` to check."""

    reference: dict = field(default_factory=dict)
    completed: dict = field(default_factory=dict)
    errors: list = field(default_factory=list)
    evidence: dict = field(default_factory=dict)

    def attempt(self, label: str, allowed: tuple, fn: Callable):
        """``(fn(), None)``, or ``(None, error)`` for a recorded ``allowed`` error."""
        try:
            return fn(), None
        except allowed as exc:
            self.errors.append(f"{label}: {type(exc).__name__}")
            return None, exc
        except ChaosError:
            raise
        except Exception as exc:
            raise InvariantViolation(
                f"{label}: raw {type(exc).__name__} escaped the layer boundary: {exc}"
            ) from exc


@dataclass(frozen=True)
class Harness:
    """``run(plan, quick, workdir) -> Outcome`` over ``sites`` (site -> valid faults)."""

    name: str
    run: Callable
    sites: dict
    budget_s: float = 120.0


@dataclass
class DrillReport:
    """One harness run: its plan, what fired, and the invariant verdicts."""

    name: str
    seed: int
    quick: bool
    passed: bool
    duration_s: float
    plan: dict
    fired: list
    compared: int
    errors: list
    invariants: dict = field(default_factory=dict)
    details: dict = field(default_factory=dict)

    def to_dict(self) -> dict:
        return {**asdict(self), "fired": [list(f) for f in self.fired]}


def _expect(condition: bool, message: str) -> None:
    if not condition:
        raise DrillError(message)


def _no_sleep(_seconds: float) -> None:
    """Zero-wait sleeper for retry backoff inside harnesses (determinism)."""


def _background(fn: Callable, *args) -> Future:
    """``fn(*args)`` on a daemon thread, as a future."""
    future: Future = Future()

    def run() -> None:
        try:
            future.set_result(fn(*args))
        except BaseException as exc:  # re-raised by _wait on the harness thread
            future.set_exception(exc)

    threading.Thread(target=run, daemon=True).start()
    return future


def _wait(future: Future, timeout: float, what: str):
    try:
        return future.result(timeout)
    except FutureTimeout:
        raise DrillTimeoutError(f"{what} wedged for {timeout:.0f}s") from None


class _Quiet(NamedTuple):
    """A step the must-complete rule judges, and the version files it could resolve."""

    label: str
    error: Optional[BaseException]
    quiet: bool
    snapshot: list


def _snapshot_versions(store, model: str, dest: Path) -> list:
    """Plain copies of the versions ``model`` resolves to now (no fault site crossed)."""
    import shutil

    dest.mkdir(parents=True, exist_ok=True)
    copies = []
    for version in store.versions(model):
        copies.append(dest / f"v{version:04d}.npz")
        shutil.copyfile(store.model_path(model, version), copies[-1])
    return copies


def _verifies(path: Path) -> bool:
    from repro.io.artifacts import ArtifactError, load_deployed

    try:
        load_deployed(path)
    except ArtifactError:
        return False
    return True


def _judge_quiet_steps(name: str, steps: list) -> None:
    """The must-complete rule, checked once no plan is installed.

    A step (a cold start, a store load, a request) during which no fault
    fired must complete whenever a version it could resolve verifies.
    """
    for step in steps:
        if step.error is None or not step.quiet:
            continue
        verified = [p.name for p in step.snapshot if _verifies(p)]
        _expect(not verified, f"{name}: {step.label} failed ({type(step.error).__name__}) "
                f"although no fault fired during it and {verified[:1]} verifies")


def _tiny_deployed(seed: int):
    """A deployed MF-DFP network small enough to publish/serve in ms."""
    from repro.core.mfdfp import deploy_calibrated
    from repro.zoo import cifar10_small

    net = cifar10_small(size=8, width=4, rng=np.random.default_rng(seed), dtype=np.float64)
    return deploy_calibrated(net, np.random.default_rng(seed + 1).normal(size=(16, 3, 8, 8)))


# -- resume: train with checkpoints, then resume ------------------------------


def _epochs(quick: bool) -> int:
    return 4 if quick else 6


def _make_trainer(seed: int):
    """The resume harness's training problem (surrogate CIFAR-10, tiny net)."""
    from repro.datasets import cifar10_surrogate
    from repro.nn import SGD, PlateauScheduler, Trainer
    from repro.zoo import cifar10_small

    train, test = cifar10_surrogate(n_train=64, n_test=32, size=8, seed=seed)
    net = cifar10_small(size=8, width=4, rng=np.random.default_rng(seed + 1))
    optimizer = SGD(net.params, lr=0.02, momentum=0.9)
    scheduler = PlateauScheduler(optimizer, patience=1)
    rng = np.random.default_rng(seed + 2)
    return Trainer(net, optimizer, scheduler=scheduler, batch_size=16, rng=rng), train, test


def _train_result(trainer) -> dict:
    out = {f"weights/{k}": v.copy() for k, v in trainer.net.get_weights().items()}
    out["losses"] = np.asarray(trainer.history.train_losses)
    return out


def _resume_and_finish(seed: int, total: int, checkpointer, outcome: Outcome, label: str) -> None:
    """Resume a fresh trainer from ``checkpointer`` and train to ``total``.

    Records ``latest()``, the newer files it skipped (with what a direct
    load of each raised) and the epochs restored — with no plan
    installed (no fault can change a file in between), ``latest()``'s.
    """
    from repro.io.artifacts import ArtifactError, load_checkpoint

    def probe(path) -> Optional[str]:
        _, error = outcome.attempt(f"{label}: load {path.name}", (ArtifactError,),
                                   partial(load_checkpoint, path))
        return None if error is None else type(error).__name__

    def run() -> dict:
        latest, found = checkpointer.latest(), checkpointer.checkpoints()
        skipped = {p.name: probe(p) for p in found[found.index(latest) + 1 if latest else 0:]}
        trainer, train, test = _make_trainer(seed)
        restored = checkpointer.resume(trainer)
        record = {"label": label, "latest": latest and latest.name, "skipped": skipped,
                  "restored": restored, "finished": False}
        outcome.evidence.setdefault("resumes", []).append(record)
        resumed_from = checkpointer.path_for(restored) if restored else None
        _expect(active_plan() is not None or resumed_from == latest,
                f"{label}: resume restored {restored} epochs, latest() is {latest}")
        trainer.fit(train, test, epochs=total, resume=True, checkpoint=checkpointer)
        record["finished"] = True
        return _train_result(trainer)

    result, _ = outcome.attempt(label, (ArtifactError,), run)
    outcome.completed.update(result or {})


def _train_then_resume(plan: FaultPlan, total: int, ckpt_dir: Path) -> Outcome:
    """Under ``plan``: train ``total - 1`` epochs with checkpoints, resume, finish."""
    from repro.io.artifacts import ArtifactError
    from repro.io.checkpoint import Checkpointer

    outcome, checkpointer = Outcome(), Checkpointer(ckpt_dir)
    with installed(plan):
        trainer, train, test = _make_trainer(plan.seed)
        fit = partial(trainer.fit, train, test, epochs=total - 1, checkpoint=checkpointer)
        outcome.attempt("training", (ArtifactError,), fit)
        _resume_and_finish(plan.seed, total, checkpointer, outcome, "resume under the plan")
    return outcome


def _child_main(workdir: str, total: str) -> None:
    """Entry point of the ``resume-in-child`` run: pickles its :class:`Outcome`."""
    plan = FaultPlan.from_json((Path(workdir) / "plan.json").read_text())
    outcome = _train_then_resume(plan, int(total), Path(workdir) / "ckpt")
    (Path(workdir) / "child.pkl").write_bytes(pickle.dumps(outcome))


def _resume(plan: FaultPlan, quick: bool, workdir: Path, child: bool = False) -> Outcome:
    """Train with checkpoints under the plan, then resume; weights bit-identical.

    With ``child`` the run under the plan is a subprocess (it may
    SIGKILL itself) while :func:`_serve` streams requests here.
    Recovery resumes in this process.
    """
    import repro
    from repro.io.checkpoint import Checkpointer

    total = _epochs(quick)
    if child:
        (workdir / "plan.json").write_text(plan.to_json())
        load = _background(_serve, FaultPlan(seed=plan.seed, name="load"), quick, workdir / "load")
        src = str(Path(repro.__file__).resolve().parents[1])
        path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
        code = "import sys; from repro.chaos.harnesses import _child_main; _child_main(*sys.argv[1:])"
        proc = subprocess.Popen([sys.executable, "-c", code, str(workdir), str(total)],
                                env={**os.environ, "PYTHONPATH": path},
                                stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True)
    reference, train, test = _make_trainer(plan.seed)
    reference.fit(train, test, epochs=total)
    if child:
        try:
            _, stderr = proc.communicate(timeout=240)
        except subprocess.TimeoutExpired:
            proc.kill()
            raise DrillTimeoutError("the child run wedged for 240s") from None
        _expect(proc.returncode in (0, -signal.SIGKILL),
                f"the child run failed ({proc.returncode}): {stderr[-800:]}")
        ran = pickle.loads((workdir / "child.pkl").read_bytes()) if proc.returncode == 0 else Outcome()
        served = _wait(load, 120.0, "the serve load")
        ran.evidence.update(child_returncode=proc.returncode, load=served.evidence)
        ran.errors += [f"load/{e}" for e in served.errors]
        ran.completed.update({f"load/{k}": v for k, v in served.completed.items()})
        ran.reference = {f"load/{k}": v for k, v in served.reference.items()}
    else:
        ran = _train_then_resume(plan, total, workdir / "ckpt")
    ran.reference.update(_train_result(reference))
    ran.evidence["epochs"] = total
    if "losses" not in ran.completed:  # no plan now: a file latest() names must resume
        checkpointer = Checkpointer(workdir / "ckpt")
        _resume_and_finish(plan.seed, total, checkpointer, ran, "recovery")
        _expect("losses" in ran.completed or checkpointer.latest() is None,
                f"recovery failed although latest() is {checkpointer.latest()}")
    return ran


# -- cold-start: publish, then cold-start a registry --------------------------


def _cold_start(plan: FaultPlan, quick: bool, workdir: Path) -> Outcome:
    """Publish v1 and v2, read the newest back, cold-start a registry.

    The served version must carry that version's fingerprint and
    logits.  The read and the cold start must complete when no fault
    fired during them and a version they could resolve verifies.  Each
    quarantined version then gets a direct load.
    """
    from repro.core.engine import BatchedEngine, engine_fingerprint
    from repro.io.artifacts import ArtifactError
    from repro.io.store import ArtifactStore
    from repro.serve import ModelRegistry, ServeError

    seed, model, typed = plan.seed, "drill_model", (ArtifactError, ServeError)
    artifacts = {"v0001": _tiny_deployed(seed + 11), "v0002": _tiny_deployed(seed + 13)}
    batch = np.random.default_rng(seed + 17).normal(scale=0.5, size=(4, 3, 8, 8))
    outcome = Outcome()
    for label, artifact in artifacts.items():
        outcome.reference[f"{label}/fingerprint"] = engine_fingerprint(artifact)
        outcome.reference[f"{label}/logits"] = BatchedEngine(artifact).run(batch)
    store = ArtifactStore(workdir / "store", sleep=_no_sleep)

    def cold_start():
        registry = ModelRegistry.from_store(store)
        engine = registry.engine(model)
        return registry.version_label(model), engine

    steps: list[_Quiet] = []

    def load(label: str, fn: Callable):
        snapshot = _snapshot_versions(store, model, workdir / f"resolvable-{len(steps)}")
        fired = len(plan.fired)
        result, error = outcome.attempt(label, typed, fn)
        steps.append(_Quiet(label, error, len(plan.fired) == fired, snapshot))
        return result

    with installed(plan):
        for artifact in artifacts.values():
            outcome.attempt("publish", typed, partial(store.publish_deployed, model, artifact))
        warm = load("warm read", partial(store.load_newest_verified, model))
        started = load("cold start", cold_start)
    _judge_quiet_steps("cold-start", steps)
    evidence = outcome.evidence
    evidence.update(warm=warm and warm[0], served=started and started[0], reasons={}, direct={})
    if started is not None:
        label, engine = started
        outcome.completed[f"{label}/fingerprint"] = engine_fingerprint(engine.deployed)
        outcome.completed[f"{label}/logits"] = engine.run(batch)
    evidence["quarantined"] = store.quarantined_versions(model)
    for version in evidence["quarantined"]:
        sidecar = store.quarantine_dir(model) / f"v{version:04d}.reason.json"
        evidence["reasons"][version] = json.loads(sidecar.read_text())["model"]
        _, error = outcome.attempt("direct load", typed, partial(store.load_deployed, model, version))
        evidence["direct"][version] = error and type(error).__name__
    return outcome


# -- campaign: a process-pool campaign with typed retries ---------------------


def _campaign_point(seed: int) -> float:
    """One deterministic campaign point (module-level: pickles by reference)."""
    return float(np.random.default_rng(seed).standard_normal(2048).sum())


def _gated_campaign_point(seed: int, claim_dir: str, gate: str) -> float:
    """:func:`_campaign_point` behind the sigkill-worker fault's rendezvous.

    The claim proves this worker is mid-task; the gate, touched after
    the kill, keeps the survivor from draining the queue meanwhile.
    """
    (Path(claim_dir) / f"claim_{seed}").touch()
    deadline = time.monotonic() + 30.0
    while not Path(gate).exists():
        if time.monotonic() > deadline:
            raise DrillError(f"campaign point {seed} never saw the kill gate at {gate}")
        time.sleep(0.002)
    return _campaign_point(seed)


def _campaign(plan: FaultPlan, quick: bool, workdir: Path) -> Outcome:
    """Map the campaign over a 2-worker pool, retrying typed pool failures.

    Points gate on ``workdir/kill-gate`` only when a rule of the plan
    releases it (the worker-death drill's rendezvous).
    """
    from repro.parallel.pool import PoolError, ProcessPoolRunner
    from repro.retry import RetryPolicy

    seeds = [plan.seed + 100 + i for i in range(6 if quick else 10)]
    outcome = Outcome(reference={f"point/{i}": _campaign_point(s) for i, s in enumerate(seeds)})
    claims, gate = workdir / "claims", workdir / "kill-gate"
    claims.mkdir(exist_ok=True)
    point = _campaign_point
    if any(rule.params.get("release") == str(gate) for rule in plan.rules):
        point = partial(_gated_campaign_point, claim_dir=str(claims), gate=str(gate))
    retries = outcome.evidence["retries"] = []

    def campaign() -> list:
        with ProcessPoolRunner(2) as runner:
            return runner.map([partial(point, s) for s in seeds])

    def retry(attempt: int, exc: BaseException) -> None:
        retries.append(f"{type(exc).__name__}: {exc}")
        outcome.errors.append(f"campaign retry: {type(exc).__name__}")

    policy = RetryPolicy(attempts=3, backoff_initial_s=0.01, backoff_cap_s=0.05)
    with installed(plan):
        results, _ = outcome.attempt("campaign", (PoolError,), partial(
            policy.call, campaign, retry_on=(PoolError,), sleep=_no_sleep, on_retry=retry))
    outcome.completed.update({f"point/{i}": v for i, v in enumerate(results or [])})
    return outcome


# -- serve: stream requests across a publish + rollover -----------------------


def _serve(plan: FaultPlan, quick: bool, workdir: Path) -> Outcome:
    """Stream requests to a store-backed model; publish v2 and roll over mid-stream.

    An answered request must equal its serving version's engine
    reference; any other must fail typed, and none may be left
    unresolved after the draining stop.  The start, and each request
    from submit to resolution, must complete when no fault fired in
    that span while a version is in service: v1, published before the
    plan, still resolves and verifies at the end (so it did throughout),
    and supervision has not quarantined the model over earlier crashes.
    """
    from repro.core.engine import BatchedEngine
    from repro.io.artifacts import ArtifactError
    from repro.io.store import ArtifactStore
    from repro.parallel.pool import PoolError
    from repro.serve import CrashError, ModelRegistry, ServeError, ServerRuntime
    from repro.serve.errors import ModelQuarantinedError

    seed, model = plan.seed, "drill_served"
    typed = (ArtifactError, CrashError, PoolError, ServeError)
    versions = {"v0001": _tiny_deployed(seed + 21), "v0002": _tiny_deployed(seed + 22)}
    rng = np.random.default_rng(seed + 23)
    samples = [rng.normal(scale=0.5, size=(3, 8, 8)) for _ in range(32 if quick else 96)]
    outcome = Outcome()
    for label, artifact in versions.items():
        engine = BatchedEngine(artifact)
        for i, sample in enumerate(samples):
            outcome.reference[f"{label}/request/{i}"] = engine.run(sample[None])[0]
    store = ArtifactStore(workdir / "store", sleep=_no_sleep)
    store.publish_deployed(model, versions["v0001"])
    futures: list[Future] = []
    spans: list[list] = []  # per request: faults fired at submit, at resolution
    halfway = threading.Event()

    def stream(runtime) -> None:
        for i, sample in enumerate(samples):
            spans.append([len(plan.fired), None])
            try:
                futures.append(runtime.submit(model, sample))
            except Exception as exc:  # classified below, with the failed requests
                futures.append(Future())
                futures[-1].set_exception(exc)
            futures[-1].add_done_callback(lambda _, span=spans[-1]: span.__setitem__(1, len(plan.fired)))
            if i == len(samples) // 2:
                halfway.set()
            time.sleep(0.002)

    def start():
        return ServerRuntime(ModelRegistry.from_store(store), [model], workers=1)

    with installed(plan):
        runtime, start_error = outcome.attempt("start", typed, start)
        quiet_start = not plan.fired
        if runtime is not None:
            with runtime:
                streamer = _background(stream, runtime)
                halfway.wait(30.0)
                publish = partial(store.publish_deployed, model, versions["v0002"])
                outcome.attempt("publish v2", typed, publish)
                outcome.attempt("rollover", typed, partial(runtime.rollover, model))
                _wait(streamer, 60.0, "the request stream")
    in_service = [store.model_path(model, 1)] if 1 in store.versions(model) else []
    steps = [_Quiet("start", start_error, quiet_start, in_service)]
    for i, future in enumerate(futures):
        _expect(future.done(), f"request {i} was never resolved (dropped)")
        logits, error = outcome.attempt(f"request {i}", typed, future.result)
        quiet = spans[i][0] == spans[i][1] and not isinstance(error, ModelQuarantinedError)
        steps.append(_Quiet(f"request {i}", error, quiet, in_service))
        if logits is not None:
            outcome.completed[f"{future.serving_version}/request/{i}"] = logits
    _judge_quiet_steps("serve", steps)
    outcome.evidence.update(requests=len(samples), answered=len(outcome.completed))
    return outcome


_WRITE = ("bitflip", "truncate", "torn-write", "raise", "latency")
_READ = ("bitflip", "truncate", "raise", "latency")

#: The scenario harnesses, by name.
HARNESSES: dict[str, Harness] = {
    h.name: h
    for h in (
        Harness("resume", _resume, {"io.artifact.write": _WRITE, "io.artifact.read": _READ}),
        Harness(
            "resume-in-child",
            partial(_resume, child=True),
            {"io.artifact.write": _WRITE + ("sigkill-self",), "io.artifact.read": _READ},
            budget_s=300.0,
        ),
        Harness("cold-start", _cold_start, {
            "io.artifact.write": _WRITE, "io.artifact.read": _READ, "io.store.read": _READ}),
        Harness("campaign", _campaign, {"parallel.pool.submit": ("sigkill-worker", "latency")}),
        Harness("serve", _serve, {
            "serve.engine.run": ("crash", "latency"),
            "serve.builder.build": ("crash", "latency"),
            "io.store.read": _READ,
            "io.artifact.read": _READ,
        }),
    )
}


@contextmanager
def _workdir(workdir, label: str):
    with tempfile.TemporaryDirectory(prefix=f"repro-chaos-{label}-") as tmp:
        base = Path(workdir) if workdir is not None else Path(tmp)
        base.mkdir(parents=True, exist_ok=True)
        yield base


def run_plan(
    harness: Harness,
    plan: FaultPlan,
    quick: bool = True,
    workdir: Optional[Path] = None,
    name: Optional[str] = None,
) -> DrillReport:
    """Run ``plan`` through ``harness`` and check the three invariants.

    The plan's seed also seeds the harness's data, so the plan JSON
    alone replays the run.  A broken invariant raises
    :class:`~repro.chaos.errors.DrillError`; a returned report passed.
    """
    name = name or harness.name
    start = time.monotonic()
    with _workdir(workdir, name) as base, Watchdog(harness.budget_s, label=name):
        try:
            outcome = harness.run(plan, quick, base)
        except ChaosError:
            raise
        except Exception as exc:
            raise InvariantViolation(
                f"{name}: raw {type(exc).__name__} escaped the harness: {exc}"
            ) from exc
    for key, got in outcome.completed.items():
        _expect(key in outcome.reference, f"{name}: completed {key!r} has no reference")
        ref, got = np.asarray(outcome.reference[key]), np.asarray(got)
        _expect(
            ref.dtype == got.dtype and bool(np.array_equal(ref, got)),
            f"{name}: {key!r} differs from the fault-free reference (not bit-identical)",
        )
    kinds = sorted({e.rsplit(": ", 1)[-1] for e in outcome.errors})
    return DrillReport(
        name=name,
        seed=plan.seed,
        quick=quick,
        passed=True,
        duration_s=time.monotonic() - start,
        plan=plan.to_dict(),
        fired=list(plan.fired),
        compared=len(outcome.completed),
        errors=list(outcome.errors),
        invariants={
            "no-hang": f"finished inside the {harness.budget_s:.0f}s watchdog",
            "typed-errors-only": ", ".join(kinds) + " only" if kinds else "no errors",
            "bit-identical": f"{len(outcome.completed)} result(s) equal the fault-free reference",
        },
        details=outcome.evidence,
    )


# -- the drills: pinned plans on the harnesses --------------------------------


class Drill(NamedTuple):
    """A pinned ``plan(seed, quick, workdir)`` on ``harness``; ``expect(report)`` -> verdicts."""

    harness: Harness
    plan: Callable
    expect: Callable


def _pinned(name: str, site: str, fault: str, trigger: Callable, params=lambda workdir: {}):
    """A drill plan factory: one rule whose trigger/params depend on (quick, workdir)."""
    return lambda seed, quick, workdir: FaultPlan(seed=seed, name=name, rules=[
        FaultRule(site, fault, trigger(quick), params(workdir))])


def _expect_torn(report: DrillReport) -> dict:
    epochs, resumes = report.details["epochs"], report.details.get("resumes", [])
    torn = f"epoch_{epochs - 1:04d}.npz"
    _expect(len(resumes) == 1 and resumes[0]["finished"], f"resume did not fall back: {resumes}")
    skipped, restored = resumes[0]["skipped"], resumes[0]["restored"]
    _expect(list(skipped) == [torn], f"latest() skipped {list(skipped)}, expected [{torn}]")
    _expect(skipped[torn] is not None, "loading the torn checkpoint unexpectedly succeeded")
    _expect(restored == epochs - 2 and resumes[0]["latest"] == f"epoch_{restored:04d}.npz",
            f"resume restored {restored} epochs from {resumes[0]['latest']}, expected {epochs - 2}")
    return {"fallback": f"latest() skipped {torn} ({skipped[torn]}), restored {restored} epochs"}


def _expect_quarantine(report: DrillReport) -> dict:
    d = report.details
    _expect(d["warm"] == 2, f"warm read resolved v{d['warm']}, expected v2")
    _expect(d["served"] == "v0001", f"cold start served {d['served']}, expected v0001")
    _expect(d["quarantined"] == [2], f"quarantine holds {d['quarantined']}, expected [2]")
    _expect(d["reasons"] == {2: "drill_model"}, "quarantine reason sidecar does not name the model")
    _expect(d["direct"] == {2: "QuarantinedArtifactError"},
            f"direct load raised {d['direct']}, expected QuarantinedArtifactError")
    return {"quarantine": "v0002.npz quarantined with a reason sidecar; cold start serves v0001"}


def _expect_one_retry(report: DrillReport) -> dict:
    retries = report.details["retries"]
    _expect(len(retries) == 1, f"expected exactly one typed retry, saw {len(retries)}")
    _expect(retries[0].startswith("WorkerCrashedError"), f"retry was caused by {retries[0]}")
    return {"retry": "one retry, caused by WorkerCrashedError"}


def _expect_killed(report: DrillReport) -> dict:
    d, load = report.details, report.details["load"]
    _expect(d["child_returncode"] == -signal.SIGKILL,
            f"trainer exited {d['child_returncode']}, expected SIGKILL (-9)")
    restored = d.get("resumes", [{}])[-1].get("restored")
    _expect(restored == d["epochs"] - 2, f"resumed {restored} epochs, expected {d['epochs'] - 2}")
    _expect(not report.errors, f"errors during the kill window: {report.errors[:3]}")
    _expect(load["answered"] == load["requests"],
            f"{load['requests'] - load['answered']} request(s) went unanswered")
    return {"zero-drops": f"{load['answered']}/{load['requests']} requests answered during the kill"}


#: The drills, in catalog order: pinned plans on :data:`HARNESSES`.
DRILLS: dict[str, Drill] = {
    "torn-checkpoint-resume": Drill(
        HARNESSES["resume"],
        _pinned("torn-checkpoint-resume", "io.artifact.write", "torn-write",
                lambda quick: {"suffix": f"epoch_{_epochs(quick) - 1:04d}.npz"},
                lambda workdir: {"fraction": 0.4}),
        _expect_torn,
    ),
    "corrupted-store-cold-start": Drill(
        HARNESSES["cold-start"],
        _pinned("corrupted-store-cold-start", "io.store.read", "truncate",
                lambda quick: {"suffix": "v0002.npz", "call": 2},
                lambda workdir: {"fraction": 0.6}),
        _expect_quarantine,
    ),
    "worker-death-campaign": Drill(
        HARNESSES["campaign"],
        _pinned("worker-death-campaign", "parallel.pool.submit", "sigkill-worker",
                lambda quick: {"call": 2 if quick else 4},
                lambda workdir: {"worker": 0, "await_claims": str(workdir / "claims"),
                                 "await_count": 2, "release": str(workdir / "kill-gate")}),
        _expect_one_retry,
    ),
    "kill-and-resume-under-load": Drill(
        HARNESSES["resume-in-child"],
        _pinned("kill-and-resume-under-load", "io.artifact.write", "sigkill-self",
                lambda quick: {"call": _epochs(quick) - 2}),
        _expect_killed,
    ),
}


def run_drill(
    name: str,
    seed: int = 0,
    quick: bool = False,
    workdir: Optional[Path] = None,
    log: Callable[[str], None] = lambda line: None,
) -> DrillReport:
    """Run one drill's pinned plan; returns the (passed) report.

    A failed invariant or expectation raises :class:`DrillError` (a
    hang, :class:`DrillTimeoutError`).  ``log`` receives progress lines.
    """
    if name not in DRILLS:
        raise DrillError(f"unknown drill {name!r}; choose from {sorted(DRILLS)}")
    drill = DRILLS[name]
    with _workdir(workdir, name) as base:
        plan = drill.plan(seed, quick, base)
        report = run_plan(drill.harness, plan, quick=quick, workdir=base, name=name)
    report.invariants.update(drill.expect(report))
    log(f"drill {name}: PASS in {report.duration_s:.1f}s (seed={seed})")
    return report


def run_all_drills(
    seed: int = 0,
    quick: bool = False,
    log: Callable[[str], None] = lambda line: None,
) -> list[DrillReport]:
    """Run every drill in catalog order; raises on the first failure."""
    return [run_drill(name, seed=seed, quick=quick, log=log) for name in DRILLS]
