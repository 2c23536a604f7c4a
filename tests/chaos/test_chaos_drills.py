"""Drills and the plan runner: report shape, invariants, determinism.

The full four-drill sweep (including the process-pool and SIGKILL
drills) runs in ``benchmarks/bench_chaos_recovery.py`` and the CI chaos
smoke step; here the fast drills prove the harnesses end-to-end at
unit-test speed, and toy harnesses prove each check of the runner.
"""

import json
import time

import numpy as np
import pytest

from repro.chaos import (
    DRILLS,
    HARNESSES,
    DrillError,
    FaultPlan,
    Harness,
    InvariantViolation,
    Watchdog,
    run_drill,
    run_plan,
)
from repro.chaos.errors import DrillTimeoutError
from repro.chaos.harnesses import Outcome


def toy(run, budget_s=30.0):
    return Harness("toy", lambda plan, quick, workdir: run(), {}, budget_s=budget_s)


class TestHarness:
    def test_catalog_names_all_four_drills(self):
        assert list(DRILLS) == [
            "torn-checkpoint-resume",
            "corrupted-store-cold-start",
            "worker-death-campaign",
            "kill-and-resume-under-load",
        ]

    def test_unknown_drill_is_typed(self):
        with pytest.raises(DrillError, match="unknown drill"):
            run_drill("explode-everything")

    def test_watchdog_turns_hangs_into_typed_timeouts(self):
        import time

        with pytest.raises(DrillTimeoutError, match="hang"):
            with Watchdog(0.05, label="hang"):
                time.sleep(5.0)

    def test_watchdog_noop_on_fast_block(self):
        with Watchdog(30.0, label="fast"):
            pass

    def test_drills_are_pinned_plans_on_the_harnesses(self):
        assert {drill.harness.name for drill in DRILLS.values()} == {
            "resume",
            "cold-start",
            "campaign",
            "resume-in-child",
        }
        assert all(drill.harness is HARNESSES[drill.harness.name] for drill in DRILLS.values())


class TestRunner:
    def test_counts_bit_identical_results(self):
        outcome = Outcome(reference={"a": np.arange(3.0), "b": 1.5}, completed={"a": np.arange(3.0)})
        report = run_plan(toy(lambda: outcome), FaultPlan(seed=4))
        assert report.passed and report.compared == 1 and report.seed == 4

    @pytest.mark.parametrize(
        "completed",
        [{"a": np.arange(3.0) + 1e-12}, {"a": np.arange(3, dtype=np.float32)}, {"c": 1.0}],
        ids=["value", "dtype", "no-reference"],
    )
    def test_any_completed_result_off_the_reference_fails(self, completed):
        outcome = Outcome(reference={"a": np.arange(3.0)}, completed=completed)
        with pytest.raises(DrillError):
            run_plan(toy(lambda: outcome), FaultPlan())

    def test_raw_error_escaping_a_harness_is_an_invariant_violation(self):
        def run():
            raise KeyError("raw")

        with pytest.raises(InvariantViolation, match="raw KeyError"):
            run_plan(toy(run), FaultPlan())

    def test_attempt_records_typed_errors_and_rejects_raw_ones(self):
        outcome = Outcome()
        result, error = outcome.attempt("step", (KeyError,), lambda: {}["x"])
        assert result is None and isinstance(error, KeyError)
        assert outcome.errors == ["step: KeyError"]
        with pytest.raises(InvariantViolation, match="step: raw ZeroDivisionError"):
            outcome.attempt("step", (KeyError,), lambda: 1 / 0)

    def test_a_hung_harness_times_out_typed(self):
        def run():
            for _ in range(500):
                time.sleep(0.01)

        with pytest.raises(DrillTimeoutError, match="toy"):
            run_plan(toy(run, budget_s=0.05), FaultPlan())


class TestCheapDrills:
    @pytest.mark.parametrize("name", ["torn-checkpoint-resume", "corrupted-store-cold-start"])
    def test_quick_drill_passes_and_reports(self, name, tmp_path):
        report = run_drill(name, seed=3, quick=True, workdir=tmp_path, log=lambda msg: None)
        assert report.passed and report.name == name and report.seed == 3 and report.quick
        assert report.duration_s >= 0
        # Every invariant the drill asserts is echoed with its verdict.
        assert report.invariants and all(report.invariants.values())
        # The plan round-trips: a failure log alone reproduces the run.
        again = FaultPlan.from_json(json.dumps(report.plan))
        assert again.to_dict() == report.plan
        assert report.fired, "the drill's fault plan never fired"
        doc = report.to_dict()
        assert doc["name"] == name and doc["plan"] == report.plan

    def test_drill_is_deterministic_per_seed(self, tmp_path):
        reports = [
            run_drill(
                "torn-checkpoint-resume",
                seed=11,
                quick=True,
                workdir=tmp_path / f"run{i}",
                log=lambda msg: None,
            )
            for i in range(2)
        ]
        assert reports[0].plan == reports[1].plan
        assert reports[0].fired == reports[1].fired
        assert reports[0].details == reports[1].details

    def test_printed_plan_replays_through_its_harness(self, tmp_path):
        report = run_drill("torn-checkpoint-resume", seed=5, quick=True, workdir=tmp_path / "a")
        plan = FaultPlan.from_json(json.dumps(report.plan))
        replay = run_plan(HARNESSES["resume"], plan, quick=True, workdir=tmp_path / "b")
        assert replay.fired == report.fired
        assert replay.details == report.details
        assert replay.compared == report.compared == 9  # 8 weight tensors + the loss curve
