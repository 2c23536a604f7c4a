"""Deterministic fault plans: seeded RNG + ordered ``(site, trigger, fault)`` rules.

A :class:`FaultPlan` is the unit of reproducibility for every chaos
experiment in the repo.  It owns

* a seed (one :class:`numpy.random.Generator` shared by every fault
  that needs randomness — byte positions for bit flips, etc.), and
* an ordered tuple of :class:`FaultRule` entries, each binding an
  injection **site** (a name the owning layer fires through
  :func:`repro.chaos.registry.inject`), a **trigger** (which firings of
  that site the rule matches) and a **fault** (what happens — see
  :data:`repro.chaos.faults.FAULTS`).

Plans serialize to JSON (:meth:`FaultPlan.to_json` /
:meth:`FaultPlan.from_json`); every drill prints its plan, so a failure
observed anywhere reproduces from the printed document alone.  Firing
is counted under a lock, so a plan replays identically under any thread
interleaving that preserves the order of the firings a rule counts.

Trigger grammar (all present keys must match; an empty trigger never
fires):

``{"call": 3}``
    the 3rd firing of the site (1-based).
``{"calls": [2, 5]}``
    an explicit set of firings.
``{"always": true}``
    every firing.
``{"suffix": "v0002.npz"}``
    only when ``str(context["path"])`` ends with the suffix (combined
    with a call key, the count still advances on every firing).
``{"match": {"name": "cifar10_full"}}``
    equality over context values (compared as strings, so plans stay
    JSON-round-trippable).  A rule with ``match`` numbers its
    ``call``/``calls`` among the firings its ``match`` accepts, so
    ``{"match": {"name": "a"}, "calls": [1]}`` is model ``a``'s first
    batch however much traffic other models send through the site.
"""

from __future__ import annotations

import json
import threading
from dataclasses import dataclass, field
from typing import Iterable, Optional

import numpy as np

from repro.chaos.errors import FaultPlanError

_TRIGGER_KEYS = {"call", "calls", "always", "suffix", "match"}


@dataclass(frozen=True)
class FaultRule:
    """One injection rule: at ``site``, when ``trigger`` matches, do ``fault``."""

    site: str
    fault: str
    trigger: dict
    params: dict = field(default_factory=dict)

    def __post_init__(self):
        if not self.site or not isinstance(self.site, str):
            raise FaultPlanError(f"rule site must be a non-empty string, got {self.site!r}")
        if not self.fault or not isinstance(self.fault, str):
            raise FaultPlanError(f"rule fault must be a non-empty string, got {self.fault!r}")
        if not isinstance(self.trigger, dict):
            raise FaultPlanError(f"rule trigger must be a dict, got {self.trigger!r}")
        unknown = set(self.trigger) - _TRIGGER_KEYS
        if unknown:
            raise FaultPlanError(
                f"unknown trigger key(s) {sorted(unknown)} (known: {sorted(_TRIGGER_KEYS)})"
            )

    def accepts(self, context: dict) -> bool:
        """Whether ``context`` passes this rule's ``match`` (if any)."""
        return all(
            str(context.get(key)) == str(expected)
            for key, expected in self.trigger.get("match", {}).items()
        )

    def matches(self, call: int, context: dict) -> bool:
        """Whether this rule fires on the ``call``-th firing with ``context``.

        ``call`` is the rule's own count of the firings it :meth:`accepts`.
        """
        trigger = self.trigger
        if not trigger:
            return False
        if "call" in trigger and call != int(trigger["call"]):
            return False
        if "calls" in trigger and call not in {int(c) for c in trigger["calls"]}:
            return False
        if "suffix" in trigger and not str(context.get("path", "")).endswith(
            str(trigger["suffix"])
        ):
            return False
        if not self.accepts(context):
            return False
        if "always" in trigger and not trigger["always"]:
            return False
        return True

    def to_dict(self) -> dict:
        return {
            "site": self.site,
            "fault": self.fault,
            "trigger": dict(self.trigger),
            "params": dict(self.params),
        }

    @classmethod
    def from_dict(cls, data: dict) -> "FaultRule":
        if not isinstance(data, dict):
            raise FaultPlanError(f"rule must be a JSON object, got {type(data).__name__}")
        unknown = set(data) - {"site", "fault", "trigger", "params"}
        if unknown:
            raise FaultPlanError(f"unknown rule field(s) {sorted(unknown)}")
        try:
            return cls(
                site=data["site"],
                fault=data["fault"],
                trigger=dict(data.get("trigger", {})),
                params=dict(data.get("params", {})),
            )
        except KeyError as exc:
            raise FaultPlanError(f"rule is missing required field {exc}") from exc


class FaultPlan:
    """A seeded, ordered set of fault rules plus firing counters.

    Each site counts every firing; each rule counts the firings it
    :meth:`~FaultRule.accepts` (all of its site's, without ``match``).

    Thread-safe: counting and the fired-log append happen under one
    lock; the fault action itself runs outside it (faults may sleep,
    kill processes, or re-enter other sites).

    Args:
        seed: Seed of the plan's generator (used by randomized faults).
        rules: The :class:`FaultRule` entries, in evaluation order.
        name: Label echoed in ``describe()`` and drill reports.
    """

    def __init__(self, seed: int = 0, rules: Iterable[FaultRule] = (), name: str = "plan"):
        self.seed = int(seed)
        self.name = name
        self.rules = tuple(rules)
        for rule in self.rules:
            if not isinstance(rule, FaultRule):
                raise FaultPlanError(f"rules must be FaultRule instances, got {rule!r}")
        from repro.chaos.faults import FAULTS  # local: faults imports layers lazily

        for rule in self.rules:
            if rule.fault not in FAULTS:
                raise FaultPlanError(
                    f"unknown fault {rule.fault!r} in rule for site {rule.site!r} "
                    f"(known: {', '.join(sorted(FAULTS))})"
                )
        self.rng = np.random.default_rng(self.seed)
        self._sites = frozenset(rule.site for rule in self.rules)
        self._lock = threading.Lock()
        self._counts: dict[str, int] = {}
        self._rule_counts = [0] * len(self.rules)
        #: Log of every fault actually executed: (site, call, fault name),
        #: where call is the number the rule matched on.
        self.fired: list[tuple[str, int, str]] = []

    # -- firing ------------------------------------------------------------
    def calls(self, site: str) -> int:
        """How many times ``site`` has fired through this plan."""
        with self._lock:
            return self._counts.get(site, 0)

    def sites(self) -> frozenset[str]:
        """Every site this plan has a rule for."""
        return self._sites

    def fire(self, site: str, context: Optional[dict] = None) -> None:
        """Record one firing of ``site`` and execute any matching faults.

        Called by :func:`repro.chaos.registry.inject` while the plan is
        installed.  Fault actions run in rule order; a fault that raises
        stops the remaining rules for this firing (the error is the
        injected failure, propagating into the owning layer).
        """
        from repro.chaos.faults import FAULTS

        context = context if context is not None else {}
        numbered = []
        with self._lock:
            self._counts[site] = self._counts.get(site, 0) + 1
            for index, rule in enumerate(self.rules):
                if rule.site == site and rule.accepts(context):
                    self._rule_counts[index] += 1
                    numbered.append((rule, self._rule_counts[index]))
        for rule, call in numbered:
            if not rule.matches(call, context):
                continue
            with self._lock:
                self.fired.append((site, call, rule.fault))
            ctx = dict(context)
            ctx["site"] = site
            ctx["call"] = call
            FAULTS[rule.fault](self, rule, ctx)

    # -- serialization -----------------------------------------------------
    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "seed": self.seed,
            "rules": [rule.to_dict() for rule in self.rules],
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2, sort_keys=True)

    @classmethod
    def from_dict(cls, data: dict) -> "FaultPlan":
        if not isinstance(data, dict):
            raise FaultPlanError(f"plan must be a JSON object, got {type(data).__name__}")
        unknown = set(data) - {"name", "seed", "rules"}
        if unknown:
            raise FaultPlanError(f"unknown plan field(s) {sorted(unknown)}")
        rules = data.get("rules", [])
        if not isinstance(rules, list):
            raise FaultPlanError("plan 'rules' must be a list")
        return cls(
            seed=data.get("seed", 0),
            rules=[FaultRule.from_dict(r) for r in rules],
            name=str(data.get("name", "plan")),
        )

    @classmethod
    def from_json(cls, text: str) -> "FaultPlan":
        try:
            data = json.loads(text)
        except json.JSONDecodeError as exc:
            raise FaultPlanError(f"plan is not valid JSON: {exc}") from exc
        return cls.from_dict(data)

    def describe(self) -> str:
        """One line per rule, for drill logs."""
        lines = [f"FaultPlan {self.name!r} (seed={self.seed}, {len(self.rules)} rule(s))"]
        for rule in self.rules:
            lines.append(
                f"  {rule.site}: {rule.fault} when {json.dumps(rule.trigger, sort_keys=True)}"
                + (f" with {json.dumps(rule.params, sort_keys=True)}" if rule.params else "")
            )
        return "\n".join(lines)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"FaultPlan(name={self.name!r}, seed={self.seed}, rules={len(self.rules)})"
