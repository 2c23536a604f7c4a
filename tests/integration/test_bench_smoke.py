"""Tier-1 smoke gate over the benchmark suite.

The benchmark files are pytest suites invoked by explicit path (they do
not match the default ``test_*.py`` collection pattern), so nothing in
the plain tier-1 run would notice if one of them stopped importing or
its fixtures rotted — including the bit-identity acceptance gates of the
engine, serving, and campaign benchmarks.  This test runs every
``benchmarks/bench_*.py`` in its ``--quick`` smoke mode (tiny fixtures,
statistical/timing gates skipped, ``--benchmark-disable``) in a
subprocess and requires a clean pass.
"""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import pytest

REPO_ROOT = Path(__file__).resolve().parents[2]
BENCH_FILES = sorted((REPO_ROOT / "benchmarks").glob("bench_*.py"))


def test_benchmark_suite_is_discovered():
    """A rename that hides benchmarks from this gate must fail loudly."""
    assert len(BENCH_FILES) >= 16
    names = {p.name for p in BENCH_FILES}
    assert "bench_engine_throughput.py" in names
    assert "bench_campaign_throughput.py" in names
    assert "bench_serve_slo.py" in names
    assert "bench_artifact_io.py" in names
    assert "bench_scaleout.py" in names
    assert "bench_chaos_recovery.py" in names
    assert "bench_explore.py" in names


@pytest.mark.parametrize("bench", BENCH_FILES, ids=lambda p: p.name)
def test_benchmark_quick_smoke(bench):
    env = dict(os.environ)
    src = str(REPO_ROOT / "src")
    existing = env.get("PYTHONPATH")
    env["PYTHONPATH"] = f"{src}{os.pathsep}{existing}" if existing else src
    proc = subprocess.run(
        [
            sys.executable,
            "-m",
            "pytest",
            str(bench),
            "--quick",
            "--benchmark-disable",
            "-q",
            "-x",
            "-p",
            "no:cacheprovider",
        ],
        cwd=REPO_ROOT,
        env=env,
        capture_output=True,
        text=True,
        timeout=600,
    )
    assert proc.returncode == 0, (
        f"{bench.name} failed in --quick smoke mode:\n"
        f"{proc.stdout[-3000:]}\n{proc.stderr[-2000:]}"
    )
