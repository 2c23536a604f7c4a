"""Dynamic fixed-point format: grids, rounding, saturation, properties."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.dfp import (
    DFPFormat,
    DFPQuantizer,
    choose_fraction_length,
    dfp_from_codes,
    dfp_quantize,
    dfp_to_codes,
)


class TestDFPFormat:
    def test_paper_default_8bit(self):
        fmt = DFPFormat(8, 0)
        assert fmt.max_code == 127
        assert fmt.max_value == 127.0
        assert fmt.min_value == -127.0

    def test_resolution(self):
        assert DFPFormat(8, 4).resolution == 2.0**-4
        assert DFPFormat(8, -2).resolution == 4.0

    def test_negative_frac_supported(self):
        fmt = DFPFormat(8, -1)
        assert fmt.max_value == 254.0

    def test_too_few_bits_rejected(self):
        with pytest.raises(ValueError):
            DFPFormat(1, 0)

    def test_str(self):
        assert str(DFPFormat(8, 4)) == "<8,4>"


class TestCodes:
    def test_roundtrip_exact_grid_points(self):
        fmt = DFPFormat(8, 3)
        values = np.array([0.0, 0.125, -0.125, 15.875, -15.875])
        assert np.allclose(dfp_from_codes(dfp_to_codes(values, fmt), fmt), values)

    def test_saturation_at_rails(self):
        fmt = DFPFormat(8, 0)
        codes = dfp_to_codes(np.array([1e9, -1e9]), fmt)
        assert np.array_equal(codes, [127, -127])

    def test_saturation_happens_before_the_integer_cast(self):
        """inf, 1e300 and 2^60 (times 2^6 past int64) saturate high; NaN maps to -max_code."""
        fmt = DFPFormat(8, 6)
        codes = dfp_to_codes(np.array([np.inf, 1e300, 2.0**60, -np.inf, -1e300, -(2.0**60), np.nan]), fmt)
        assert codes.dtype == np.int64
        assert codes.tolist() == [127, 127, 127, -127, -127, -127, -127]

    def test_rounding_half_to_even(self):
        fmt = DFPFormat(8, 0)
        assert dfp_to_codes(np.array([0.5]), fmt)[0] == 0
        assert dfp_to_codes(np.array([1.5]), fmt)[0] == 2
        assert dfp_to_codes(np.array([-0.5]), fmt)[0] == 0

    def test_from_codes_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            dfp_from_codes(np.array([128]), DFPFormat(8, 0))

    def test_sign_symmetric_range(self):
        """Sign-magnitude: the range is symmetric (no -128)."""
        fmt = DFPFormat(8, 0)
        assert dfp_to_codes(np.array([-128.0]), fmt)[0] == -127


class TestQuantize:
    def test_values_on_grid(self, rng):
        fmt = DFPFormat(8, 5)
        q = dfp_quantize(rng.normal(size=100), fmt)
        assert np.allclose(q * 2.0**fmt.frac, np.rint(q * 2.0**fmt.frac))

    def test_error_bound_inside_range(self, rng):
        fmt = DFPFormat(8, 5)
        x = rng.uniform(-3.9, 3.9, size=500)
        q = dfp_quantize(x, fmt)
        assert np.max(np.abs(q - x)) <= fmt.resolution / 2 + 1e-12

    def test_idempotent(self, rng):
        fmt = DFPFormat(8, 4)
        q = dfp_quantize(rng.normal(size=50), fmt)
        assert np.array_equal(dfp_quantize(q, fmt), q)

    def test_preserves_dtype(self):
        fmt = DFPFormat(8, 4)
        assert dfp_quantize(np.ones(3, dtype=np.float32), fmt).dtype == np.float32

    @given(
        frac=st.integers(-4, 12),
        values=st.lists(st.floats(-1e4, 1e4, allow_nan=False), min_size=1, max_size=50),
    )
    @settings(max_examples=100, deadline=None)
    def test_property_grid_and_bounds(self, frac, values):
        """Quantized values are on the grid and within the format range."""
        fmt = DFPFormat(8, frac)
        q = dfp_quantize(np.array(values), fmt)
        scaled = q * 2.0**fmt.frac
        assert np.allclose(scaled, np.rint(scaled))
        assert np.all(np.abs(q) <= fmt.max_value + 1e-12)

    @given(
        frac=st.integers(-2, 10),
        values=st.lists(st.floats(-100, 100, allow_nan=False), min_size=1, max_size=30),
    )
    @settings(max_examples=100, deadline=None)
    def test_property_idempotence(self, frac, values):
        fmt = DFPFormat(8, frac)
        q1 = dfp_quantize(np.array(values), fmt)
        assert np.array_equal(dfp_quantize(q1, fmt), q1)


class TestChooseFractionLength:
    def test_unit_range(self):
        """max|x| = 1 with 8 bits: 127 * 2^-6 = 1.98 >= 1 > 127 * 2^-7 no wait.

        f=6: 127/64 = 1.98 >= 1; f=7: 127/128 = 0.99 < 1 -> choose 6.
        """
        assert choose_fraction_length(np.array([1.0]), bits=8) == 6

    def test_small_values_get_fine_grid(self):
        f = choose_fraction_length(np.array([0.01]), bits=8)
        assert 127 * 2.0**-f >= 0.01
        assert 127 * 2.0 ** -(f + 1) < 0.01

    def test_large_values_get_negative_frac(self):
        f = choose_fraction_length(np.array([1000.0]), bits=8)
        assert f < 0
        assert 127 * 2.0**-f >= 1000.0

    def test_zero_input_default(self):
        assert choose_fraction_length(np.zeros(4), bits=8) == 7

    def test_subnormal_input_does_not_overflow(self):
        # max_code / max_abs overflows float64 for subnormals; the log
        # formulation must survive and clamp to the fine-grid end.
        f = choose_fraction_length(np.array([0.0, 2.225073858507e-311]), bits=8)
        assert f == 64

    def test_never_saturates_calibration_max(self, rng):
        for _ in range(20):
            x = rng.uniform(0.001, 500, size=10)
            f = choose_fraction_length(x, bits=8)
            assert 127 * 2.0**-f >= x.max()

    def test_margin_reserves_headroom(self):
        base = choose_fraction_length(np.array([1.0]), bits=8, margin=0)
        with_margin = choose_fraction_length(np.array([1.0]), bits=8, margin=2)
        assert with_margin == base - 2

    @given(max_abs=st.floats(1e-6, 1e6), bits=st.integers(4, 16))
    @settings(max_examples=200, deadline=None)
    def test_property_tightest_fit(self, max_abs, bits):
        """f is the largest fraction length that does not saturate."""
        f = choose_fraction_length(np.array([max_abs]), bits=bits)
        max_code = (1 << (bits - 1)) - 1
        assert max_code * 2.0**-f >= max_abs
        assert max_code * 2.0 ** -(f + 1) < max_abs or f == 64


class TestDFPQuantizer:
    def test_callable(self, rng):
        q = DFPQuantizer(DFPFormat(8, 4))
        x = rng.normal(size=10)
        assert np.array_equal(q(x), dfp_quantize(x, DFPFormat(8, 4)))

    def test_repr(self):
        assert "<8,4>" in repr(DFPQuantizer(DFPFormat(8, 4)))
