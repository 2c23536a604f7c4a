"""Analysis tooling around the MF-DFP quantization.

Not part of the paper's tables, but the instruments one needs to *debug*
a quantized network of this kind:

* :mod:`repro.analysis.sqnr` — per-layer signal-to-quantization-noise
  ratios and weight-exponent histograms.
* :mod:`repro.analysis.sweeps` — parameter sweeps (bit width, exponent
  clamp, dynamic-vs-static) used by the ablation benchmarks.
* :mod:`repro.analysis.faults` — bit-flip fault injection into deployed
  weight codes, for robustness studies of the 4-bit encoding.
* :mod:`repro.analysis.frontier` — Pareto dominance geometry (objective
  declarations, frontier extraction, margin-relaxed pruning) used by the
  co-design explorer's successive-halving scheduler.
* :mod:`repro.analysis.campaign` — the shared batched-evaluation API
  (:func:`~repro.analysis.campaign.evaluate_batched`) and the parallel
  campaign runner behind ``python -m repro sweep``: every sweep point
  and fault trial evaluates through the compiled
  :class:`~repro.core.engine.BatchedEngine` / quantized simulation and
  fans out over a thread pool, bit-deterministically.
"""

from repro.analysis.campaign import (
    CAMPAIGN_KINDS,
    CampaignResult,
    evaluate_batched,
    parallel_map,
    run_campaign,
    train_surrogate,
)
from repro.analysis.faults import (
    FaultInjectionResult,
    accuracy_under_faults,
    inject_weight_faults,
)
from repro.analysis.frontier import (
    Objective,
    dominates,
    pareto_frontier,
    prune_dominated,
)
from repro.analysis.sqnr import (
    LayerNoiseReport,
    exponent_histogram,
    layer_sqnr_report,
    quantization_noise_campaign,
    quantization_noise_of,
    sqnr_db,
)
from repro.analysis.sweeps import (
    SweepPoint,
    bitwidth_sweep,
    dynamic_vs_static,
    exponent_clamp_sweep,
    stochastic_vs_deterministic,
)

__all__ = [
    "CAMPAIGN_KINDS",
    "CampaignResult",
    "FaultInjectionResult",
    "LayerNoiseReport",
    "Objective",
    "SweepPoint",
    "accuracy_under_faults",
    "bitwidth_sweep",
    "dominates",
    "dynamic_vs_static",
    "evaluate_batched",
    "exponent_clamp_sweep",
    "exponent_histogram",
    "inject_weight_faults",
    "layer_sqnr_report",
    "parallel_map",
    "pareto_frontier",
    "prune_dominated",
    "quantization_noise_campaign",
    "quantization_noise_of",
    "run_campaign",
    "sqnr_db",
    "stochastic_vs_deterministic",
    "train_surrogate",
]
