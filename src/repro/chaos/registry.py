"""The injection-site catalog and the process-wide plan installation.

An **injection site** is a named seam an owning layer threads through
its own code: ``repro.io`` fires ``io.artifact.read`` just before it
opens a container, ``repro.parallel`` fires ``parallel.pool.submit`` as
each task enters the pool, the serve supervisor fires
``serve.engine.run`` before every batch.  Sites are registered at the
owning module's import time via :func:`register_site`, so the catalog
(:func:`site_catalog`) is a complete, documented inventory of where the
system can be made to fail.

:func:`inject` is the only thing the instrumented code calls.  With no
plan installed it is a dict lookup and a ``None`` compare — the hot
paths pay nothing.  :func:`installed` activates one
:class:`~repro.chaos.plan.FaultPlan` process-wide for a ``with`` block
(nested installs are a :class:`~repro.chaos.errors.ChaosError`: two
overlapping experiments cannot be told apart afterwards).

Discipline contract (enforced by the ``injection-discipline`` lint
rule): site names at call sites are string literals — the catalog must
be statically enumerable — and fault code raises typed errors only.
"""

from __future__ import annotations

import threading
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Optional

from repro.chaos.errors import ChaosError, UnknownSiteError
from repro.chaos.plan import FaultPlan


@dataclass(frozen=True)
class InjectionSite:
    """Catalog entry for one named seam: owning layer + what firing means."""

    name: str
    layer: str
    description: str


_SITES: dict[str, InjectionSite] = {}
_LOCK = threading.Lock()
_ACTIVE: Optional[FaultPlan] = None


def register_site(name: str, layer: str, description: str) -> str:
    """Register an injection site (idempotent; owning-module import time).

    Returns ``name`` so modules can bind it to a constant in one line.
    """
    if not name or "." not in name:
        raise ChaosError(f"site names are dotted paths like 'io.artifact.read', got {name!r}")
    with _LOCK:
        existing = _SITES.get(name)
        if existing is not None and existing.layer != layer:
            raise ChaosError(
                f"site {name!r} already registered by layer {existing.layer!r}"
            )
        _SITES[name] = InjectionSite(name=name, layer=layer, description=description)
    return name


def site_catalog() -> dict[str, InjectionSite]:
    """Every registered site, sorted by name (import the layers first)."""
    with _LOCK:
        return dict(sorted(_SITES.items()))


def inject(site: str, **context) -> None:
    """Fire one injection site; a no-op unless a plan is installed.

    The owning layer calls this at its seam with whatever context the
    faults need (``path=``, ``pool=``, ``segment=``, ``sleep=``...).
    Counting only happens for sites the active plan has rules for, so
    an installed plan perturbs nothing it does not target.
    """
    plan = _ACTIVE
    if plan is None or site not in plan.sites():
        return
    plan.fire(site, context)


def active_plan() -> Optional[FaultPlan]:
    """The currently installed plan, if any."""
    return _ACTIVE


@contextmanager
def installed(plan: FaultPlan, strict: bool = True):
    """Install ``plan`` process-wide for the duration of the block.

    ``strict=True`` (the default) requires every rule's site to be in
    the registered catalog — a typo in a site name fails at install
    time instead of silently never firing.  Import the layers whose
    sites the plan targets before installing.
    """
    global _ACTIVE
    if strict:
        with _LOCK:
            unknown = [s for s in plan.sites() if s not in _SITES]
        if unknown:
            raise UnknownSiteError(
                f"plan {plan.name!r} targets unregistered site(s) {sorted(unknown)} "
                "(import the owning modules first, or pass strict=False)"
            )
    with _LOCK:
        if _ACTIVE is not None:
            raise ChaosError(
                f"a fault plan ({_ACTIVE.name!r}) is already installed; "
                "chaos experiments do not nest"
            )
        _ACTIVE = plan
    try:
        yield plan
    finally:
        with _LOCK:
            _ACTIVE = None
