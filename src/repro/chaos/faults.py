"""The fault catalog: what a triggered rule actually does.

Every fault is a callable ``fault(plan, rule, ctx)`` registered in
:data:`FAULTS`; ``ctx`` is the injection context plus the reserved keys
``site`` and ``call`` (the 1-based firing count).  Faults either mutate
the world (corrupt a file, kill a worker, unlink a segment) and return
— letting the owning layer discover the damage through its normal
verification — or raise an error **from the owning layer's typed
hierarchy** so the failure is indistinguishable from the real thing.
Raising raw ``OSError``/``RuntimeError`` here is a lint violation
(``injection-discipline``): a fault that raises an untyped error would
test nothing but the harness's own sloppiness.

File-corrupting faults draw byte positions from the plan's seeded
generator, so a plan replays the *same* corruption on every run.
"""

from __future__ import annotations

import os
import signal
import time
from pathlib import Path


def _path_of(ctx: dict) -> Path:
    from repro.chaos.errors import FaultPlanError

    path = ctx.get("path")
    if path is None:
        raise FaultPlanError(
            f"fault at site {ctx.get('site')!r} needs a 'path' in the injection context"
        )
    return Path(path)


def fault_bitflip(plan, rule, ctx) -> None:
    """Flip ``params['flips']`` (default 1) random byte(s) of ``ctx['path']``.

    Positions and masks come from the plan RNG — deterministic per plan.
    The mutated file is left in place; the owning layer's verify-on-load
    is what must catch (or survive) the damage.
    """
    path = _path_of(ctx)
    data = bytearray(path.read_bytes())
    if not data:
        return
    for _ in range(int(rule.params.get("flips", 1))):
        pos = int(plan.rng.integers(0, len(data)))
        data[pos] ^= int(plan.rng.integers(1, 256))
    path.write_bytes(bytes(data))


def fault_truncate(plan, rule, ctx) -> None:
    """Cut ``ctx['path']`` to ``params['fraction']`` (default 0.5) of its bytes."""
    path = _path_of(ctx)
    data = path.read_bytes()
    fraction = float(rule.params.get("fraction", 0.5))
    path.write_bytes(data[: int(len(data) * fraction)])


def fault_torn_write(plan, rule, ctx) -> None:
    """Tear a just-completed write: keep only a prefix of the final file.

    Fired at a write site, this models the one failure the atomic
    temp-file + replace protocol cannot rule out — storage that lied
    about durability (power loss after the rename, a torn NFS page).
    The newest file *looks* present but is truncated, which is exactly
    the state checkpoint fallback and store quarantine must recover
    from.
    """
    fault_truncate(plan, rule, {**ctx})


def fault_raise(plan, rule, ctx) -> None:
    """Raise a typed error from the owning layer: ``params['error']``.

    Known names: ``transient-store`` (heals on retry) and
    ``artifact-corrupt``.  Serve crashes are the ``crash`` fault.
    """
    from repro.chaos.errors import FaultPlanError

    kind = rule.params.get("error")
    fields = dict(rule.params)
    fields.update(error=kind, site=ctx.get("site"), call=ctx.get("call"))
    message = str(
        rule.params.get("message", "injected {error} at {site} call {call}")
    ).format(**fields)
    if kind == "transient-store":
        from repro.io.store import TransientStoreError

        raise TransientStoreError(message)
    if kind == "artifact-corrupt":
        from repro.io.artifacts import ArtifactCorruptError

        raise ArtifactCorruptError(message)
    raise FaultPlanError(f"unknown raise fault error kind {kind!r}")


def fault_crash(plan, rule, ctx) -> None:
    """Raise :class:`~repro.serve.errors.CrashError`: a scheduled serve crash.

    The message echoes the model name from the site context, the site
    and the call number, so a failed future says which crash it was.
    """
    from repro.serve.errors import CrashError

    name = ctx.get("name", "injected")
    raise CrashError(f"{name}: scheduled crash at {ctx['site']} call {ctx['call']}")


def fault_latency(plan, rule, ctx) -> None:
    """A latency spike: sleep ``params['seconds']`` on the context's clock.

    ``ctx['sleep']`` (injectable, so a test can pass a fake-clock
    sleeper) defaults to :func:`time.sleep`.
    """
    sleep = ctx.get("sleep") or time.sleep
    sleep(float(rule.params.get("seconds", 0.05)))


def fault_sigkill_worker(plan, rule, ctx) -> None:
    """SIGKILL a live worker of the pool in ``ctx['pool']``.

    ``params['worker']`` picks which (default 0, modulo the live ones).
    Two optional rendezvous params let callers make the kill
    deterministic when tasks gate on a file: ``await_claims`` /
    ``await_count`` block (bounded by ``await_timeout_s``, default 10 s)
    until that many files exist in the claims directory — evidence that
    every worker is mid-task — and ``release`` names a gate file touched
    *after* the kill, so no task can finish before the victim is dead.
    The pool's liveness poll must then surface the death as
    :class:`~repro.parallel.pool.WorkerCrashedError` — never a hang.
    """
    from repro.chaos.errors import FaultPlanError

    pool = ctx.get("pool")
    if pool is None:
        raise FaultPlanError("sigkill-worker needs a 'pool' in the injection context")
    claims = rule.params.get("await_claims")
    if claims is not None:
        want = int(rule.params.get("await_count", 1))
        deadline = time.monotonic() + float(rule.params.get("await_timeout_s", 10.0))
        while sum(1 for _ in Path(claims).iterdir()) < want:
            if time.monotonic() > deadline:
                raise FaultPlanError(
                    f"sigkill-worker: fewer than {want} task claims appeared "
                    f"under {claims} before the await timeout"
                )
            time.sleep(0.002)
    alive = [p for p in pool._processes if p.is_alive()]
    if not alive:
        return
    victim = alive[int(rule.params.get("worker", 0)) % len(alive)]
    os.kill(victim.pid, signal.SIGKILL)
    release = rule.params.get("release")
    if release is not None:
        Path(release).touch()


def fault_sigkill_self(plan, rule, ctx) -> None:
    """SIGKILL the calling process — the real mid-run kill, no cleanup.

    Used by drill driver subprocesses to die abruptly at a chosen
    injection point (e.g. right after the Nth checkpoint write), the
    way an OOM kill or power loss would.
    """
    os.kill(os.getpid(), signal.SIGKILL)


def fault_unlink_segment(plan, rule, ctx) -> None:
    """Unlink the shared-memory segment named in ``ctx['segment']``.

    Models a segment stolen underneath a worker (a foreign cleaner, a
    crashed publisher's tracker).  The attach path must turn the loss
    into a typed :class:`~repro.parallel.arena.ArenaSegmentLostError`.
    """
    from repro.chaos.errors import FaultPlanError
    from repro.parallel.arena import unlink_segment

    segment = ctx.get("segment")
    if segment is None:
        raise FaultPlanError("unlink-segment needs a 'segment' in the injection context")
    unlink_segment(str(segment))


#: Name → implementation; plan validation rejects unknown names.
FAULTS = {
    "bitflip": fault_bitflip,
    "truncate": fault_truncate,
    "torn-write": fault_torn_write,
    "raise": fault_raise,
    "crash": fault_crash,
    "latency": fault_latency,
    "sigkill-worker": fault_sigkill_worker,
    "sigkill-self": fault_sigkill_self,
    "unlink-segment": fault_unlink_segment,
}
