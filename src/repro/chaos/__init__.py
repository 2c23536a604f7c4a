"""Cross-layer chaos harness: deterministic faults, typed recovery drills.

The subsystem has three parts:

* **Plans** (:mod:`repro.chaos.plan`) — a :class:`FaultPlan` is a seed
  plus ordered ``(site, trigger, fault)`` rules; it serializes to JSON
  and replays bit-identically, so every failure the harness produces
  reproduces from a printed document.
* **Sites** (:mod:`repro.chaos.registry`) — named seams the owning
  layers thread through their own code (``io.artifact.write``,
  ``parallel.pool.submit``, ``serve.engine.run``, ...).  With no plan
  installed, firing a site costs a dict lookup; :func:`site_catalog`
  is the complete inventory of where the system can be made to fail.
* **Drills** (:mod:`repro.chaos.drills`) — end-to-end recovery
  exercises (``python -m repro chaos --drill NAME``), each asserting
  the same three invariants: no hangs (a :class:`Watchdog` bounds every
  drill), typed errors only, and bit-identical results after recovery.

The serve supervisor fires its own sites (``serve.engine.run``,
``serve.builder.build``), so scheduled serving crashes and io/parallel
chaos share one trigger grammar and one fault catalog (:data:`FAULTS`).
"""

from repro.chaos.errors import (
    ChaosError,
    DrillError,
    DrillTimeoutError,
    FaultPlanError,
    InvariantViolation,
    UnknownSiteError,
)
from repro.chaos.faults import FAULTS
from repro.chaos.plan import FaultPlan, FaultRule
from repro.chaos.registry import (
    InjectionSite,
    active_plan,
    inject,
    installed,
    register_site,
    site_catalog,
)
from repro.chaos.watchdog import Watchdog
from repro.chaos.drills import DRILLS, DrillReport, run_all_drills, run_drill

__all__ = [
    "ChaosError",
    "DRILLS",
    "DrillError",
    "DrillReport",
    "DrillTimeoutError",
    "FAULTS",
    "FaultPlan",
    "FaultPlanError",
    "FaultRule",
    "InjectionSite",
    "InvariantViolation",
    "UnknownSiteError",
    "Watchdog",
    "active_plan",
    "inject",
    "installed",
    "register_site",
    "run_all_drills",
    "run_drill",
    "site_catalog",
]
