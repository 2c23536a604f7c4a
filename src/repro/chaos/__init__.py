"""Cross-layer chaos harness: deterministic faults, typed recovery.

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
* **Harnesses** (:mod:`repro.chaos.harnesses`) — four end-to-end
  scenarios (train-then-resume, publish-then-cold-start, a process-pool
  campaign, serving across a rollover) that each run *any* plan over
  the sites they cross.  :func:`run_plan` holds every run to the same
  three invariants: no hangs (a :class:`Watchdog` bounds it), typed
  errors only, and bit-identical results for whatever completed.  The
  four drills (``python -m repro chaos --drill NAME``) are pinned
  plans on these harnesses.

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
from repro.chaos.harnesses import DRILLS, HARNESSES, DrillReport, Harness, run_plan
from repro.chaos.harnesses import run_all_drills, run_drill

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
    "HARNESSES",
    "Harness",
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
    "run_plan",
    "site_catalog",
]
