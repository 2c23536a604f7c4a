"""65 nm area/power component model (reproduces Table 1).

The paper synthesizes its designs with Synopsys Design Compiler on a
65 nm standard-cell library at 250 MHz.  Offline we model each design as
a bill of gate-equivalents (GE, 1 GE = one NAND2) plus SRAM bits:

* component GE counts come from textbook gate-level estimates (an FP32
  multiplier ~10k GE, an FP32 adder ~4k GE, an n-bit integer adder ~8n GE,
  a barrel shifter ~2.5 GE per bit per stage, a flip-flop ~4.5 GE);
* area is ``GE x um2_per_ge + sram_bits x um2_per_sram_bit``, power is
  activity-weighted GE plus SRAM streaming power;
* a single pair of calibration factors maps raw model output to silicon,
  chosen so the *FP32 baseline* reproduces the paper's synthesis anchors
  (16.52 mm², 1361.61 mW) exactly.

The MF-DFP and ensemble numbers are then genuine model predictions: the
paper's reported savings (87.97% area / 89.79% power for one PU, 76.0% /
80.15% for two) fall out of the gate-count ratios, not out of fitting.
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass, field

from repro.hw.datapath import datapath_widths
from repro.hw.memory import BufferConfig

#: Synthesis anchors from Table 1 (the FP32 baseline, one processing unit).
FP32_BASELINE_AREA_MM2 = 16.52
FP32_BASELINE_POWER_MW = 1361.61


class CostModelError(ValueError):
    """A cost-model input describes a physically meaningless design.

    Raised instead of silently pricing degenerate hardware (a 0-bit adder
    has no gates, so an explorer sweeping widths would rank it as free).
    """


def _require_positive_int(name: str, value) -> int:
    """Validate a structural parameter (bit width, stage count, PU count).

    Rejects booleans (``True`` is an ``int`` but never a width),
    non-integral values, and anything below 1 with a typed
    :class:`CostModelError`.  NumPy integer scalars are accepted —
    exploration grids hand those in.
    """
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise CostModelError(f"{name} must be a positive integer, got {value!r}")
    if value < 1:
        raise CostModelError(f"{name} must be >= 1, got {value!r}")
    return int(value)

#: Table 1 reference values for comparison in reports.
PAPER_TABLE1 = {
    "fp32": {"area_mm2": 16.52, "power_mw": 1361.61},
    "mfdfp": {"area_mm2": 1.99, "power_mw": 138.96},
    "mfdfp_x2": {"area_mm2": 3.96, "power_mw": 270.27},
}


@dataclass(frozen=True)
class TechnologyParams:
    """65 nm, typical corner, 250 MHz.

    ``activity`` maps component classes to switching-activity weights used
    by the power model (multipliers toggle far more than shifters).
    """

    um2_per_ge: float = 1.44
    um2_per_sram_bit: float = 0.525
    uw_per_weighted_ge: float = 0.30
    uw_per_sram_bit: float = 0.10
    activity: dict = field(
        default_factory=lambda: {
            "fp_mult": 0.50,
            "fp_add": 0.40,
            "int_mult": 0.35,
            "int_add": 0.25,
            "shift": 0.15,
            "register": 0.30,
            "control": 0.30,
            "nl": 0.20,
        }
    )


#: Named technology corners for design-space exploration.  ``"65nm"`` is
#: the paper's synthesis node; the scaled nodes apply first-order logic
#: shrink with the (realistic) caveat that SRAM bit cells scale *worse*
#: than standard-cell logic, which shifts the buffer/datapath balance and
#: therefore the relative MF-DFP savings at each node.
TECHNOLOGY_PRESETS: dict[str, TechnologyParams] = {
    "65nm": TechnologyParams(),
    "45nm": TechnologyParams(
        um2_per_ge=0.69,
        um2_per_sram_bit=0.30,
        uw_per_weighted_ge=0.21,
        uw_per_sram_bit=0.072,
    ),
    "28nm": TechnologyParams(
        um2_per_ge=0.27,
        um2_per_sram_bit=0.16,
        uw_per_weighted_ge=0.12,
        uw_per_sram_bit=0.048,
    ),
}


def technology(name: str) -> TechnologyParams:
    """Look up a :data:`TECHNOLOGY_PRESETS` corner by name.

    Raises :class:`CostModelError` for unknown nodes (listing the valid
    ones) so exploration specs fail loudly instead of silently defaulting.
    """
    try:
        return TECHNOLOGY_PRESETS[name]
    except KeyError:
        known = ", ".join(sorted(TECHNOLOGY_PRESETS))
        raise CostModelError(f"unknown technology {name!r} (known: {known})") from None


@dataclass(frozen=True)
class NPUDesign:
    """A parameterized MF-DFP NPU configuration for design-space exploration.

    ``activation_bits`` sets the dynamic-fixed-point activation width, from
    which :func:`repro.hw.datapath.datapath_widths` sizes (and bounds) every
    wire.  ``activation_bits=8`` reproduces the paper's Figure 2(a)
    datapath — and the legacy ``CostModel.evaluate("mfdfp", ...)`` bill —
    exactly.  ``num_pus=2`` is the ensemble design of Table 1.
    """

    activation_bits: int = 8
    num_pus: int = 1

    def __post_init__(self):
        try:
            bits = datapath_widths(self.activation_bits).bits
        except ValueError as exc:
            raise CostModelError(f"activation_bits: {exc}") from None
        object.__setattr__(self, "activation_bits", bits)
        object.__setattr__(self, "num_pus", _require_positive_int("num_pus", self.num_pus))


# -- component gate counts ---------------------------------------------------
def fp32_multiplier_ge() -> float:
    """IEEE-754 single-precision multiplier (24x24 mantissa array)."""
    return 10_000.0


def fp32_adder_ge() -> float:
    """IEEE-754 single-precision adder (align/add/normalize/round)."""
    return 4_000.0


def int_adder_ge(bits: int) -> float:
    """n-bit carry-lookahead integer adder (~8 GE per bit).

    Raises :class:`CostModelError` for non-positive or non-integral widths.
    """
    return 8.0 * _require_positive_int("bits", bits)


def int_multiplier_ge(bits: int) -> float:
    """n x n integer array multiplier (~6.6 GE per partial-product cell).

    Raises :class:`CostModelError` for non-positive or non-integral widths.
    """
    return 6.6 * _require_positive_int("bits", bits) ** 2


def barrel_shifter_ge(width: int, stages: int) -> float:
    """Mux-based barrel shifter: width x stages 2:1 muxes (~2.5 GE each).

    Raises :class:`CostModelError` for non-positive or non-integral
    width/stage counts.
    """
    return 2.5 * _require_positive_int("width", width) * _require_positive_int("stages", stages)


def register_ge(bits: int) -> float:
    """Flip-flop bank (~4.5 GE per bit).

    Raises :class:`CostModelError` for non-positive or non-integral widths.
    """
    return 4.5 * _require_positive_int("bits", bits)


@dataclass
class CostItem:
    """One line of the bill of materials."""

    name: str
    ge: float = 0.0
    sram_bits: int = 0
    activity_class: str = "control"


@dataclass
class CostBreakdown:
    """Raw (uncalibrated) and silicon (calibrated) cost of a design."""

    items: list[CostItem]
    area_mm2: float
    power_mw: float
    raw_area_um2: float
    raw_power_uw: float

    def item_area_fraction(self) -> dict[str, float]:
        """Per-item share of raw area (sums to 1)."""
        tech = TechnologyParams()
        areas = {
            i.name: i.ge * tech.um2_per_ge + i.sram_bits * tech.um2_per_sram_bit
            for i in self.items
        }
        total = sum(areas.values())
        return {k: v / total for k, v in areas.items()} if total else {}


class CostModel:
    """Area/power estimation for any accelerator configuration.

    Args:
        tech: Technology parameters (defaults: 65 nm / 250 MHz).

    Calibration factors are derived once from the FP32 single-PU baseline
    (see module docstring) and applied to every design.
    """

    NEURONS = 16
    SYNAPSES = 16
    PIPELINE_STAGES = 2

    def __init__(self, tech: TechnologyParams | None = None):
        self.tech = tech or TechnologyParams()
        raw_area, raw_power = self._raw_totals(self._bill("fp32", 1, self._fp32_buffers()))
        self.area_calibration = FP32_BASELINE_AREA_MM2 * 1e6 / raw_area
        self.power_calibration = FP32_BASELINE_POWER_MW * 1e3 / raw_power

    # -- bills of material ---------------------------------------------------
    @staticmethod
    def _fp32_buffers() -> BufferConfig:
        return BufferConfig().scaled_to_precision(activation_bits=32, weight_bits=32)

    def _pu_items(self, precision: str) -> list[CostItem]:
        """One processing unit: 16 neurons x 16 synapses."""
        lanes = self.NEURONS * self.SYNAPSES
        if precision == "fp32":
            return [
                CostItem("multipliers", lanes * fp32_multiplier_ge(), 0, "fp_mult"),
                CostItem(
                    "adder_tree", self.NEURONS * (self.SYNAPSES - 1) * fp32_adder_ge(), 0, "fp_add"
                ),
                CostItem(
                    "accumulators",
                    self.NEURONS * (fp32_adder_ge() + register_ge(32)),
                    0,
                    "fp_add",
                ),
                CostItem(
                    "pipeline_regs",
                    self.PIPELINE_STAGES * lanes * register_ge(32),
                    0,
                    "register",
                ),
                CostItem("nonlinearity", self.NEURONS * 200.0, 0, "nl"),
            ]
        if precision == "fixed8":
            # 8-bit dynamic fixed-point datapath *with* multipliers — the
            # representation of [9, 13] the paper improves on.  Products
            # are 16-bit, so it is the 8-bit MF-DFP PU with its shifters
            # (the first item) swapped for multipliers.
            multipliers = CostItem("multipliers", lanes * int_multiplier_ge(8), 0, "int_mult")
            return [multipliers] + self._mfdfp_pu_items(8)[1:]
        if precision == "mfdfp":
            return self._mfdfp_pu_items(8)
        raise ValueError(f"unknown precision {precision!r}")

    def _mfdfp_pu_items(self, activation_bits: int) -> list[CostItem]:
        """MF-DFP processing unit at a parameterized activation width.

        Every wire width comes from :func:`repro.hw.datapath.datapath_widths`;
        tree level ``i`` holds ``SYNAPSES >> i`` adders of width ``tree[i-1]``.
        At ``activation_bits=8`` this is the paper's 8x17b + 4x18b + 2x19b +
        1x20b tree with a 32-bit accumulator and router, and the bill is
        bit-identical to the legacy ``"mfdfp"`` one.
        """
        widths = datapath_widths(activation_bits)
        lanes = self.NEURONS * self.SYNAPSES
        product, acc = widths.product, widths.accumulator
        tree_bits = sum((self.SYNAPSES >> i) * w for i, w in enumerate(widths.tree, 1))
        return [
            CostItem("shifters", lanes * barrel_shifter_ge(product, 3), 0, "shift"),
            CostItem("adder_tree", self.NEURONS * int_adder_ge(tree_bits), 0, "int_add"),
            CostItem(
                "accumulators",
                self.NEURONS * (int_adder_ge(acc) + register_ge(acc)),
                0,
                "int_add",
            ),
            CostItem("routing", self.NEURONS * barrel_shifter_ge(acc, 6), 0, "shift"),
            CostItem(
                "pipeline_regs",
                self.PIPELINE_STAGES * lanes * register_ge(product),
                0,
                "register",
            ),
            CostItem("nonlinearity", self.NEURONS * 200.0, 0, "nl"),
        ]

    def _bill(self, precision: str, num_pus: int, buffers: BufferConfig) -> list[CostItem]:
        """Full accelerator: PUs + per-PU memory/DMA/control + shared glue."""
        return self._assemble(self._pu_items(precision), num_pus, buffers)

    def _assemble(
        self, pu_items: list[CostItem], num_pus: int, buffers: BufferConfig
    ) -> list[CostItem]:
        items: list[CostItem] = []
        for pu in range(num_pus):
            for item in pu_items:
                items.append(
                    CostItem(f"pu{pu}.{item.name}", item.ge, item.sram_bits, item.activity_class)
                )
            items.append(CostItem(f"pu{pu}.buffers", 0.0, buffers.total_bits, "control"))
            items.append(CostItem(f"pu{pu}.dma", 3 * 40_000.0, 0, "control"))
            items.append(CostItem(f"pu{pu}.control", 150_000.0, 0, "control"))
        items.append(CostItem("shared.interface", 20_000.0, 0, "control"))
        return items

    # -- totals ----------------------------------------------------------------
    def _raw_totals(self, items: list[CostItem]) -> tuple[float, float]:
        tech = self.tech
        area_um2 = sum(
            i.ge * tech.um2_per_ge + i.sram_bits * tech.um2_per_sram_bit for i in items
        )
        power_uw = sum(
            i.ge * tech.activity[i.activity_class] * tech.uw_per_weighted_ge
            + i.sram_bits * tech.uw_per_sram_bit
            for i in items
        )
        return area_um2, power_uw

    def evaluate(
        self, precision: str, num_pus: int = 1, buffers: BufferConfig | None = None
    ) -> CostBreakdown:
        """Area (mm²) and power (mW) of a configuration.

        Args:
            precision: ``"fp32"``, ``"mfdfp"``, or ``"fixed8"`` (an 8-bit
                fixed-point datapath *with* multipliers — the [9, 13]
                comparison point the paper's shift datapath improves on).
            num_pus: Processing units (2 for the ensemble design).
            buffers: Buffer geometry; defaults to the paper's configuration
                at the precision's word widths.
        """
        num_pus = _require_positive_int("num_pus", num_pus)
        if buffers is None:
            if precision == "fp32":
                buffers = self._fp32_buffers()
            elif precision == "fixed8":
                buffers = BufferConfig().scaled_to_precision(activation_bits=8, weight_bits=8)
            else:
                buffers = BufferConfig()
        items = self._bill(precision, num_pus, buffers)
        raw_area, raw_power = self._raw_totals(items)
        return CostBreakdown(
            items=items,
            area_mm2=raw_area * self.area_calibration / 1e6,
            power_mw=raw_power * self.power_calibration / 1e3,
            raw_area_um2=raw_area,
            raw_power_uw=raw_power,
        )

    def evaluate_design(
        self, design: NPUDesign, buffers: BufferConfig | None = None
    ) -> CostBreakdown:
        """Area (mm²) and power (mW) of a parameterized :class:`NPUDesign`.

        Buffers default to the paper's geometry at the design's activation
        width with 4-bit weight codes.  ``NPUDesign(activation_bits=8,
        num_pus=n)`` is bit-identical to ``evaluate("mfdfp", n)``.
        """
        if buffers is None:
            buffers = BufferConfig().scaled_to_precision(
                activation_bits=design.activation_bits, weight_bits=4
            )
        items = self._assemble(
            self._mfdfp_pu_items(design.activation_bits), design.num_pus, buffers
        )
        raw_area, raw_power = self._raw_totals(items)
        return CostBreakdown(
            items=items,
            area_mm2=raw_area * self.area_calibration / 1e6,
            power_mw=raw_power * self.power_calibration / 1e3,
            raw_area_um2=raw_area,
            raw_power_uw=raw_power,
        )

    def savings_vs_baseline(self, breakdown: CostBreakdown) -> tuple[float, float]:
        """(area saving %, power saving %) versus the FP32 baseline."""
        area = 100.0 * (1.0 - breakdown.area_mm2 / FP32_BASELINE_AREA_MM2)
        power = 100.0 * (1.0 - breakdown.power_mw / FP32_BASELINE_POWER_MW)
        return area, power
