"""Hardware accelerator model (Section 5 of the paper).

* :mod:`repro.hw.datapath` — bit-accurate integer primitives: the
  16-neuron × 16-synapse tile geometry, per-bits wire widths, shift
  products, the widening adder tree, round/saturate.
* :mod:`repro.hw.neuron` — the single neuron of Figure 2(a).
* :mod:`repro.hw.npu` — the processing unit of Figure 2(b).
* :mod:`repro.hw.memory` — geometry of the three SRAM buffers.
* :mod:`repro.hw.scheduler` — tile scheduling, cycle counting, per-layer
  buffer traffic and the optional off-chip DMA model.
* :mod:`repro.hw.cost` — 65 nm area/power component model (Table 1).
* :mod:`repro.hw.accelerator` — the one priced design
  (``AcceleratorConfig``: precision, PU count, activation width) and
  its area, power, latency, energy (single and batched schedules), and
  bit-accurate inference of deployed MF-DFP networks via the shared
  layer-op registry in :mod:`repro.core.engine`.
"""

from repro.hw.accelerator import Accelerator, AcceleratorConfig
from repro.hw.cost import (
    TECHNOLOGY_PRESETS,
    CostBreakdown,
    CostModel,
    CostModelError,
    TechnologyParams,
    technology,
)
from repro.hw.datapath import (
    adder_tree,
    div_round_half_even,
    requantize_codes,
    rshift_round_half_even,
    saturate,
    shift_product,
)
from repro.hw.memory import BufferConfig
from repro.hw.neuron import Neuron
from repro.hw.npu import ProcessingUnit
from repro.hw.scheduler import LayerSchedule, Schedule, TileScheduler

__all__ = [
    "Accelerator",
    "AcceleratorConfig",
    "BufferConfig",
    "CostBreakdown",
    "CostModel",
    "CostModelError",
    "LayerSchedule",
    "Neuron",
    "ProcessingUnit",
    "Schedule",
    "TECHNOLOGY_PRESETS",
    "TechnologyParams",
    "TileScheduler",
    "technology",
    "adder_tree",
    "div_round_half_even",
    "requantize_codes",
    "rshift_round_half_even",
    "saturate",
    "shift_product",
]
