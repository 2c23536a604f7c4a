"""Hardware accelerator model (Section 5 of the paper).

* :mod:`repro.hw.datapath` — bit-accurate integer primitives: per-bits
  wire widths, shift products, the widening adder tree, round/saturate.
* :mod:`repro.hw.neuron` — the single neuron of Figure 2(a).
* :mod:`repro.hw.npu` — processing units (16 neurons × 16 synapses) and
  the neural processing unit of Figure 2(b).
* :mod:`repro.hw.memory` — the three SRAM buffer subsystems + DMA.
* :mod:`repro.hw.scheduler` — tile scheduling and cycle counting.
* :mod:`repro.hw.cost` — 65 nm area/power component model (Table 1).
* :mod:`repro.hw.accelerator` — ties everything together: area, power,
  latency, energy (single and batched schedules), and bit-accurate
  inference of deployed MF-DFP networks via the shared layer-op registry
  in :mod:`repro.core.engine`.
"""

from repro.hw.accelerator import Accelerator, AcceleratorConfig
from repro.hw.cost import (
    TECHNOLOGY_PRESETS,
    CostBreakdown,
    CostModel,
    CostModelError,
    NPUDesign,
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
from repro.hw.memory import BufferConfig, MemorySubsystem, SramBuffer
from repro.hw.neuron import Neuron
from repro.hw.npu import NeuralProcessingUnit, ProcessingUnit
from repro.hw.scheduler import LayerSchedule, Schedule, TileScheduler

__all__ = [
    "Accelerator",
    "AcceleratorConfig",
    "BufferConfig",
    "CostBreakdown",
    "CostModel",
    "CostModelError",
    "LayerSchedule",
    "MemorySubsystem",
    "NPUDesign",
    "NeuralProcessingUnit",
    "Neuron",
    "ProcessingUnit",
    "Schedule",
    "SramBuffer",
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
