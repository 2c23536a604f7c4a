"""Chaos recovery drills as an acceptance gate: no hangs, no data loss.

Runs the full ``repro.chaos`` drill suite — the four pinned plans on
the scenario harnesses that ``python -m repro chaos --drill all``
exercises — under the benchmark harness, so every PR records how long
recovery takes and whether the three invariants still hold:

* **no hangs** — each drill finishes inside its watchdog budget;
* **typed errors only** — every failure surfaced during recovery is
  from a typed hierarchy (``ArtifactError``/``PoolError``/``CrashError``);
* **bit-identical recovery** — weights, loss curves and served outputs
  after recovery equal the undisturbed run's exactly (the report's
  ``compared`` field counts the results checked).

``--quick`` runs every drill at smoke scale (the tier-1 gate via
``tests/integration/test_bench_smoke.py``); the full run additionally
enforces wall-clock recovery budgets and persists per-drill timings to
``BENCH_chaos_recovery.json``.
"""

import pytest

from repro.chaos import DRILLS, run_drill

SEED = 2017

#: Full-run wall-clock budget per drill, seconds.  These are acceptance
#: ceilings (CI-machine safe), not targets; the recorded metrics track
#: the actual trajectory.
RECOVERY_BUDGET_S = {
    "torn-checkpoint-resume": 60.0,
    "corrupted-store-cold-start": 30.0,
    "worker-death-campaign": 90.0,
    "kill-and-resume-under-load": 180.0,
}


@pytest.fixture(scope="module")
def reports(quick):
    """Every drill, run once per session at the harness-selected scale."""
    out = {}
    for name in DRILLS:
        out[name] = run_drill(name, seed=SEED, quick=quick, log=lambda msg: None)
    return out


@pytest.mark.parametrize("name", list(DRILLS))
def test_drill_passes_with_all_invariants(name, reports, bench_metrics):
    report = reports[name]
    assert report.passed, f"drill {name} failed"
    assert report.invariants and all(report.invariants.values())
    if name != "kill-and-resume-under-load":
        # That drill's fault (sigkill-self) fires inside the killed
        # subprocess; the parent plan's log is empty by design — the
        # drill asserts the -SIGKILL returncode instead.
        assert report.fired, f"drill {name}: the fault plan never fired"
    bench_metrics[f"{name}_s"] = round(report.duration_s, 3)
    bench_metrics[f"{name}_faults_fired"] = len(report.fired)


def test_zero_silent_data_loss(reports, bench_metrics):
    """Every drill compared completed results against its fault-free
    reference — recovery that drops or alters results must fail here,
    not ship.  ``run_plan`` raises on any result that is not
    bit-identical, so a passed report's ``compared`` count is the number
    of results checked exactly."""
    for name, report in reports.items():
        assert report.compared > 0, f"drill {name} compared no results to its reference"
        bench_metrics[f"{name}_results_compared"] = report.compared


@pytest.mark.parametrize("name", list(DRILLS))
def test_recovery_within_budget(name, reports, full_only, bench_metrics):
    duration = reports[name].duration_s
    assert duration <= RECOVERY_BUDGET_S[name], (
        f"drill {name} recovered in {duration:.1f}s, over the "
        f"{RECOVERY_BUDGET_S[name]:.0f}s acceptance budget"
    )


def test_drills_replay_deterministically(quick, bench_metrics):
    """Same seed, same plan, same firing log, same observed details —
    a drill failure anywhere reproduces from its printed seed."""
    name = "torn-checkpoint-resume"
    first = run_drill(name, seed=SEED + 1, quick=quick, log=lambda msg: None)
    second = run_drill(name, seed=SEED + 1, quick=quick, log=lambda msg: None)
    assert first.plan == second.plan
    assert first.fired == second.fired
    assert first.details == second.details
    bench_metrics["replay_checked"] = name
