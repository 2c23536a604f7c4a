"""65 nm cost model: Table 1 anchors, savings bands, scaling laws."""

import numpy as np
import pytest

from repro.hw.cost import (
    FP32_BASELINE_AREA_MM2,
    FP32_BASELINE_POWER_MW,
    PAPER_TABLE1,
    TECHNOLOGY_PRESETS,
    CostModel,
    CostModelError,
    barrel_shifter_ge,
    fp32_adder_ge,
    fp32_multiplier_ge,
    int_adder_ge,
    int_multiplier_ge,
    register_ge,
    technology,
)
from repro.hw.accelerator import AcceleratorConfig
from repro.hw.memory import BufferConfig


@pytest.fixture(scope="module")
def model():
    return CostModel()


class TestComponentCounts:
    def test_fp32_multiplier_much_larger_than_shifter(self):
        assert fp32_multiplier_ge() > 50 * barrel_shifter_ge(16, 3)

    def test_fp32_adder_much_larger_than_int_adder(self):
        assert fp32_adder_ge() > 10 * int_adder_ge(20)

    def test_int_adder_linear_in_width(self):
        assert int_adder_ge(20) == 2 * int_adder_ge(10)

    def test_register_linear(self):
        assert register_ge(32) == 2 * register_ge(16)

    def test_numpy_integer_widths_accepted(self):
        assert int_adder_ge(np.int64(20)) == int_adder_ge(20)
        assert barrel_shifter_ge(np.int32(16), np.int32(3)) == barrel_shifter_ge(16, 3)


class TestComponentValidation:
    """Degenerate datapaths must fail loudly, never price as free."""

    @pytest.mark.parametrize("bad", [0, -1, -32])
    def test_nonpositive_widths_rejected(self, bad):
        for fn in (int_adder_ge, int_multiplier_ge, register_ge):
            with pytest.raises(CostModelError, match=">= 1"):
                fn(bad)
        with pytest.raises(CostModelError, match=">= 1"):
            barrel_shifter_ge(bad, 3)
        with pytest.raises(CostModelError, match=">= 1"):
            barrel_shifter_ge(16, bad)

    @pytest.mark.parametrize("bad", [2.5, "8", None, True, float("nan")])
    def test_non_integral_widths_rejected(self, bad):
        for fn in (int_adder_ge, int_multiplier_ge, register_ge):
            with pytest.raises(CostModelError, match="positive integer"):
                fn(bad)
        with pytest.raises(CostModelError, match="positive integer"):
            barrel_shifter_ge(16, bad)

    def test_cost_model_error_is_a_value_error(self):
        assert issubclass(CostModelError, ValueError)


class TestTechnologyPresets:
    def test_default_preset_is_65nm(self):
        model = TECHNOLOGY_PRESETS["65nm"]
        from repro.hw.cost import TechnologyParams

        assert model == TechnologyParams()
        assert technology("65nm") == model

    def test_unknown_node_rejected_with_known_list(self):
        with pytest.raises(CostModelError, match="28nm"):
            technology("7nm")

    def test_scaled_nodes_shrink_logic_faster_than_sram(self):
        base = technology("65nm")
        for node in ("45nm", "28nm"):
            tech = technology(node)
            logic_shrink = tech.um2_per_ge / base.um2_per_ge
            sram_shrink = tech.um2_per_sram_bit / base.um2_per_sram_bit
            assert logic_shrink < sram_shrink < 1.0

    def test_fp32_anchor_holds_at_every_node(self):
        """Calibration re-anchors the FP32 baseline at each corner; the
        interesting signal is the *relative* design costs."""
        for node in TECHNOLOGY_PRESETS:
            b = CostModel(technology(node)).evaluate("fp32", 1)
            assert b.area_mm2 == pytest.approx(FP32_BASELINE_AREA_MM2, rel=1e-9)
            assert b.power_mw == pytest.approx(FP32_BASELINE_POWER_MW, rel=1e-9)

    def test_sram_heavy_designs_cost_relatively_more_at_advanced_nodes(self):
        """SRAM scales worse than logic, so the buffer-dominated MF-DFP
        design keeps a larger fraction of the FP32 area at 28 nm."""
        area_65 = CostModel(technology("65nm")).evaluate("mfdfp", 1).area_mm2
        area_28 = CostModel(technology("28nm")).evaluate("mfdfp", 1).area_mm2
        assert area_28 > area_65


class TestNPUDesign:
    """The NPU design: ``AcceleratorConfig(bits, num_pus)``, priced by
    ``CostModel.evaluate(..., bits=)``."""

    def test_bits8_bill_bit_identical_to_legacy_mfdfp(self, model):
        for pus in (1, 2):
            legacy = model.evaluate("mfdfp", pus)
            design = model.evaluate("mfdfp", pus, bits=8)
            assert design.area_mm2 == legacy.area_mm2
            assert design.power_mw == legacy.power_mw
            assert design.raw_area_um2 == legacy.raw_area_um2
            assert design.raw_power_uw == legacy.raw_power_uw
            assert [(i.name, i.ge, i.sram_bits) for i in design.items] == [
                (i.name, i.ge, i.sram_bits) for i in legacy.items
            ]

    def test_cost_monotone_in_activation_bits(self, model):
        areas = [model.evaluate("mfdfp", bits=b).area_mm2 for b in (4, 6, 8, 12, 16)]
        assert all(a < b for a, b in zip(areas, areas[1:]))

    def test_validation(self, model):
        for bad in ({"bits": 0}, {"bits": 17}, {"num_pus": 0}, {"bits": 2.5}, {"bits": np.array(8)}):
            with pytest.raises(CostModelError):
                AcceleratorConfig(**bad)
            with pytest.raises(CostModelError):
                model.evaluate("mfdfp", **bad)

    def test_numpy_widths_normalized_to_python_ints(self):
        d = AcceleratorConfig(bits=np.int64(8), num_pus=np.int32(2))
        assert type(d.bits) is int and d.bits == 8
        assert type(d.num_pus) is int and d.num_pus == 2

    def test_fixed_width_precisions_reject_other_widths(self, model):
        with pytest.raises(CostModelError, match="fixed widths"):
            AcceleratorConfig(precision="fp32", bits=4)
        for precision in ("fp32", "fixed8"):
            with pytest.raises(CostModelError, match="fixed widths"):
                model.evaluate(precision, bits=4)
            assert model.evaluate(precision, bits=8).area_mm2 == model.evaluate(precision).area_mm2

    def test_default_buffers_follow_bits(self, model):
        for bits in (4, 8, 12):
            default = model.evaluate("mfdfp", bits=bits)
            scaled = model.evaluate(
                "mfdfp", buffers=BufferConfig().scaled_to_precision(bits, 4), bits=bits
            )
            assert default.area_mm2 == scaled.area_mm2
        assert BufferConfig().scaled_to_precision(8, 4) == BufferConfig()


class TestBaselineAnchors:
    def test_fp32_area_matches_paper_exactly(self, model):
        b = model.evaluate("fp32", 1)
        assert b.area_mm2 == pytest.approx(FP32_BASELINE_AREA_MM2, rel=1e-9)

    def test_fp32_power_matches_paper_exactly(self, model):
        b = model.evaluate("fp32", 1)
        assert b.power_mw == pytest.approx(FP32_BASELINE_POWER_MW, rel=1e-9)

    def test_fp32_savings_are_zero(self, model):
        area, power = model.savings_vs_baseline(model.evaluate("fp32", 1))
        assert area == pytest.approx(0.0)
        assert power == pytest.approx(0.0)


class TestMfdfpPredictions:
    def test_area_saving_in_paper_band(self, model):
        """Paper: 87.97% area saving.  The model's gate-ratio prediction
        must land within a few points of that."""
        area, _ = model.savings_vs_baseline(model.evaluate("mfdfp", 1))
        assert 85.0 < area < 91.0

    def test_power_saving_in_paper_band(self, model):
        """Paper: 89.79% power saving."""
        _, power = model.savings_vs_baseline(model.evaluate("mfdfp", 1))
        assert 87.0 < power < 92.0

    def test_area_close_to_paper_value(self, model):
        b = model.evaluate("mfdfp", 1)
        assert abs(b.area_mm2 - PAPER_TABLE1["mfdfp"]["area_mm2"]) < 0.4

    def test_power_close_to_paper_value(self, model):
        b = model.evaluate("mfdfp", 1)
        assert abs(b.power_mw - PAPER_TABLE1["mfdfp"]["power_mw"]) < 20.0


class TestEnsemblePredictions:
    def test_ensemble_nearly_doubles_single(self, model):
        single = model.evaluate("mfdfp", 1)
        double = model.evaluate("mfdfp", 2)
        assert 1.9 < double.area_mm2 / single.area_mm2 <= 2.0
        assert 1.9 < double.power_mw / single.power_mw <= 2.0

    def test_ensemble_savings_in_paper_band(self, model):
        """Paper: 76.0% area, 80.15% power for the 2-PU ensemble."""
        area, power = model.savings_vs_baseline(model.evaluate("mfdfp", 2))
        assert 72.0 < area < 80.0
        assert 77.0 < power < 83.0

    def test_monotone_in_pus(self, model):
        areas = [model.evaluate("mfdfp", n).area_mm2 for n in (1, 2, 3, 4)]
        assert all(a < b for a, b in zip(areas, areas[1:]))


class TestModelStructure:
    def test_unknown_precision_rejected(self, model):
        with pytest.raises(ValueError):
            model.evaluate("int8", 1)

    def test_nonpositive_pus_rejected(self, model):
        with pytest.raises(ValueError):
            model.evaluate("mfdfp", 0)

    def test_multipliers_dominate_fp32_area(self, model):
        b = model.evaluate("fp32", 1)
        fractions = b.item_area_fraction()
        assert fractions["pu0.multipliers"] > 0.3

    def test_buffers_dominate_mfdfp_area(self, model):
        """After removing multipliers, SRAM is the biggest piece."""
        b = model.evaluate("mfdfp", 1)
        fractions = b.item_area_fraction()
        logic = sum(v for k, v in fractions.items() if "buffers" not in k)
        assert fractions["pu0.buffers"] > 0.25
        assert fractions["pu0.buffers"] < logic  # but not everything

    def test_custom_buffers_change_cost(self, model):
        small = BufferConfig(input_words=1024, output_words=1024, weight_words=4096)
        a = model.evaluate("mfdfp", 1, small).area_mm2
        b = model.evaluate("mfdfp", 1).area_mm2
        assert a < b

    def test_mfdfp_weight_buffer_8x_narrower(self):
        fp = CostModel._fp32_buffers()
        mf = BufferConfig()
        assert fp.weight_bits == 8 * mf.weight_bits

    def test_area_power_positive(self, model):
        for precision in ("fp32", "mfdfp"):
            b = model.evaluate(precision, 1)
            assert b.area_mm2 > 0
            assert b.power_mw > 0
