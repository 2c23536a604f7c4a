"""FaultPlan/FaultRule: validation, trigger grammar, JSON round-trip, counting."""

import json
import threading

import pytest

from repro.chaos import FaultPlan, FaultPlanError, FaultRule
from repro.serve import CrashError


def rule(site="io.artifact.read", fault="truncate", trigger=None, params=None):
    return FaultRule(
        site=site,
        fault=fault,
        trigger=trigger if trigger is not None else {"always": True},
        params=params or {},
    )


def crash_rule(trigger):
    return rule(site="serve.engine.run", fault="crash", trigger=trigger)


class TestRuleValidation:
    def test_empty_site_rejected(self):
        with pytest.raises(FaultPlanError, match="site"):
            rule(site="")

    def test_non_string_fault_rejected(self):
        with pytest.raises(FaultPlanError, match="fault"):
            rule(fault=None)

    def test_non_dict_trigger_rejected(self):
        with pytest.raises(FaultPlanError, match="trigger"):
            rule(trigger=[1])

    def test_unknown_trigger_key_rejected(self):
        with pytest.raises(FaultPlanError, match="unknown trigger key"):
            rule(trigger={"on_call": 3})

    def test_unknown_fault_name_rejected_at_plan_construction(self):
        # The rule itself is syntactically fine; the *plan* owns the
        # fault catalog check so a typo fails before any drill runs.
        with pytest.raises(FaultPlanError, match="unknown fault 'explode'"):
            FaultPlan(rules=[rule(fault="explode")])

    def test_non_rule_entries_rejected(self):
        with pytest.raises(FaultPlanError, match="FaultRule"):
            FaultPlan(rules=[{"site": "a.b", "fault": "truncate", "trigger": {}}])

    def test_rule_from_dict_rejects_unknown_fields(self):
        with pytest.raises(FaultPlanError, match="unknown rule field"):
            FaultRule.from_dict({"site": "a.b", "fault": "truncate", "when": {}})

    def test_rule_from_dict_rejects_missing_fields(self):
        with pytest.raises(FaultPlanError, match="missing required field"):
            FaultRule.from_dict({"site": "a.b"})


class TestTriggerGrammar:
    def test_empty_trigger_never_fires(self):
        r = rule(trigger={})
        assert not any(r.matches(call, {}) for call in range(1, 10))

    def test_call_is_one_based(self):
        r = rule(trigger={"call": 3})
        assert [c for c in range(1, 6) if r.matches(c, {})] == [3]

    def test_calls_set(self):
        r = rule(trigger={"calls": [2, 5]})
        assert [c for c in range(1, 7) if r.matches(c, {})] == [2, 5]

    def test_always(self):
        r = rule(trigger={"always": True})
        assert all(r.matches(c, {}) for c in range(1, 5))
        assert not rule(trigger={"always": False}).matches(1, {})

    def test_suffix_matches_context_path(self):
        r = rule(trigger={"suffix": "v0002.npz"})
        assert r.matches(1, {"path": "/store/models/m/v0002.npz"})
        assert not r.matches(1, {"path": "/store/models/m/v0003.npz"})
        assert not r.matches(1, {})  # no path in context -> no match

    def test_match_compares_as_strings(self):
        r = rule(trigger={"match": {"name": "m", "version": 2}})
        assert r.matches(1, {"name": "m", "version": 2})
        assert r.matches(1, {"name": "m", "version": "2"})  # JSON round-trip safe
        assert not r.matches(1, {"name": "other", "version": 2})

    def test_keys_combine_conjunctively(self):
        r = rule(trigger={"call": 2, "suffix": "a.npz"})
        assert not r.matches(1, {"path": "a.npz"})
        assert not r.matches(2, {"path": "b.npz"})
        assert r.matches(2, {"path": "a.npz"})


class TestSerialization:
    def plan(self):
        return FaultPlan(
            seed=42,
            rules=[
                rule(trigger={"call": 3}, params={"fraction": 0.4}),
                rule(site="parallel.pool.submit", fault="sigkill-worker", trigger={"calls": [2]}),
            ],
            name="roundtrip",
        )

    def test_json_round_trip(self):
        plan = self.plan()
        again = FaultPlan.from_json(plan.to_json())
        assert again.to_dict() == plan.to_dict()
        assert again.seed == 42 and again.name == "roundtrip"
        assert again.sites() == plan.sites()

    def test_to_json_is_valid_sorted_json(self):
        doc = json.loads(self.plan().to_json())
        assert doc["seed"] == 42
        assert [r["site"] for r in doc["rules"]] == [
            "io.artifact.read",
            "parallel.pool.submit",
        ]

    def test_from_json_rejects_garbage(self):
        with pytest.raises(FaultPlanError, match="not valid JSON"):
            FaultPlan.from_json("{nope")

    def test_from_dict_rejects_unknown_plan_fields(self):
        with pytest.raises(FaultPlanError, match="unknown plan field"):
            FaultPlan.from_dict({"seed": 1, "extras": []})

    def test_describe_names_every_rule(self):
        text = self.plan().describe()
        assert "roundtrip" in text and "seed=42" in text
        assert "io.artifact.read: truncate" in text
        assert "parallel.pool.submit: sigkill-worker" in text


class TestFiring:
    def test_counts_are_per_site(self):
        plan = FaultPlan(rules=[rule(trigger={})])
        plan.fire("io.artifact.read", {})
        plan.fire("io.artifact.read", {})
        plan.fire("io.artifact.write", {})
        assert plan.calls("io.artifact.read") == 2
        assert plan.calls("io.artifact.write") == 1
        assert plan.calls("never.fired") == 0

    def test_fired_log_records_site_call_and_fault(self, tmp_path):
        victim = tmp_path / "f.bin"
        victim.write_bytes(b"x" * 100)
        plan = FaultPlan(
            rules=[rule(fault="truncate", trigger={"call": 2}, params={"fraction": 0.5})]
        )
        plan.fire("io.artifact.read", {"path": victim})
        assert plan.fired == []
        plan.fire("io.artifact.read", {"path": victim})
        assert plan.fired == [("io.artifact.read", 2, "truncate")]
        assert victim.stat().st_size == 50

    def test_counting_is_thread_safe(self):
        plan = FaultPlan(rules=[rule(trigger={})])
        n_threads, per_thread = 8, 200

        def hammer():
            for _ in range(per_thread):
                plan.fire("io.artifact.read", {})

        threads = [threading.Thread(target=hammer) for _ in range(n_threads)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert plan.calls("io.artifact.read") == n_threads * per_thread

    def test_match_rules_number_calls_among_accepted_firings(self):
        plan = FaultPlan(
            rules=[
                crash_rule({"match": {"name": "a"}, "calls": [2]}),
                crash_rule({"match": {"name": "b"}, "call": 1}),
            ]
        )
        crashes = []
        for name in ["a", "b", "a", "a", "b"]:
            try:
                plan.fire("serve.engine.run", {"name": name})
            except CrashError as exc:
                crashes.append(str(exc))
        assert crashes == [
            "b: scheduled crash at serve.engine.run call 1",
            "a: scheduled crash at serve.engine.run call 2",
        ]
        assert plan.fired == [("serve.engine.run", 1, "crash"), ("serve.engine.run", 2, "crash")]
        assert plan.calls("serve.engine.run") == 5  # the site total spans both models

    def test_rules_without_match_count_every_firing_of_the_site(self):
        slept = []
        plan = FaultPlan(
            rules=[
                rule(
                    fault="latency",
                    trigger={"suffix": "v2.npz", "call": 3},
                    params={"seconds": 0.0},
                )
            ]
        )
        for path in ["v1.npz", "v2.npz", "v2.npz", "v2.npz"]:
            plan.fire("io.artifact.read", {"path": path, "sleep": slept.append})
        assert plan.fired == [("io.artifact.read", 3, "latency")]
        assert slept == [0.0]

    def test_match_counting_is_thread_safe(self):
        n_threads, per_thread = 8, 200
        per_model = n_threads * per_thread // 2
        # Each model's last call fires and the one after it never does:
        # both hold only if the per-model count is exact.
        schedule = {
            "a": [1, 17, per_model // 2, per_model, per_model + 1],
            "b": [3, per_model - 1, per_model, per_model + 1],
        }
        plan = FaultPlan(
            rules=[
                crash_rule({"match": {"name": name}, "calls": calls})
                for name, calls in schedule.items()
            ]
        )
        crashes = {name: [] for name in schedule}
        lock = threading.Lock()

        def hammer():
            for i in range(per_thread):
                name = "ab"[i % 2]
                try:
                    plan.fire("serve.engine.run", {"name": name})
                except CrashError as exc:
                    with lock:
                        crashes[name].append(int(str(exc).rsplit(" ", 1)[1]))

        threads = [threading.Thread(target=hammer) for _ in range(n_threads)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert plan.calls("serve.engine.run") == 2 * per_model
        for name, calls in schedule.items():
            # Every scheduled call up to the model's total fired exactly once.
            assert sorted(crashes[name]) == [c for c in calls if c <= per_model]
        assert len(plan.fired) == sum(len(c) for c in crashes.values())

    def test_seeded_rng_replays_identical_corruption(self, tmp_path):
        blobs = []
        for run in range(2):
            victim = tmp_path / f"run{run}.bin"
            victim.write_bytes(bytes(range(256)) * 8)
            plan = FaultPlan(
                seed=9,
                rules=[rule(fault="bitflip", trigger={"always": True}, params={"flips": 4})],
            )
            plan.fire("io.artifact.read", {"path": victim})
            blobs.append(victim.read_bytes())
        assert blobs[0] == blobs[1]
