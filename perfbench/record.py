"""Re-record ``expected.json``, the values ``finetune`` and ``sweep`` check.

Run from the repository root::

    python3 perfbench/record.py

``finetune`` checks its deployed net's ``top1_error``; ``sweep`` checks
the curve of its canonical campaign.  Both are fixed by the benchmark's
constants, so re-record only for a change meant to alter them, and say
so in that change.
"""

import json
import sys

import run


def main() -> int:
    if not run.use_sources():
        return 2
    import numpy as np

    import finetune
    import sweep

    work = finetune.Workload(seed=0)
    tuned = work.pipeline(work.setup())
    bench = sweep.Workload(seed=0)
    deployed = bench.setup()["deployed"]
    curve = sweep.run_campaign(
        "faults", deployed=deployed, x=bench.canonical.x, y=bench.canonical.y, jobs=1,
        rng=np.random.default_rng(sweep.CANONICAL_SEED),
    ).points
    record = {
        "finetune": {"top1_error": tuned["error"]},
        "sweep": {"canonical_curve": [list(p) for p in curve]},
    }
    path = run.ROOT / "perfbench" / "expected.json"
    path.write_text(json.dumps(record, indent=2) + "\n")
    print(json.dumps(record))
    run.stop_resource_tracker()
    return 0


if __name__ == "__main__":
    sys.exit(main())
