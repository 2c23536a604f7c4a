"""Bit-accurate datapath primitives: shifts, adder tree, rounding."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.hw.datapath import (
    MAX_BITS,
    MIN_BITS,
    DatapathOverflowError,
    accumulator_route,
    adder_tree,
    check_width,
    datapath_widths,
    div_round_half_even,
    requantize_codes,
    rshift_round_half_even,
    saturate,
    shift_product,
)

CODE_MAX = datapath_widths(8).code_max
codes_st = st.integers(-CODE_MAX, CODE_MAX)
exps_st = st.integers(-7, 0)
signs_st = st.sampled_from([-1, 1])


class TestDatapathWidths:
    def test_paper_widths_at_8_bits(self):
        widths = datapath_widths(8)
        assert widths.code_max == 127
        assert widths.product == 16
        assert widths.tree == (17, 18, 19, 20)
        assert widths.accumulator == 32

    @pytest.mark.parametrize("bits", range(MIN_BITS, MAX_BITS + 1))
    def test_every_wire_follows_bits(self, bits):
        widths = datapath_widths(bits)
        assert widths.code_max == 2 ** (bits - 1) - 1
        assert widths.tree == tuple(bits + 8 + i for i in range(1, 5))
        assert widths.accumulator == bits + 24 <= 40

    @pytest.mark.parametrize("bits", [0, 1, 17, 64, 8.0, True, np.array(8)])
    def test_rejects_widths_outside_the_range(self, bits):
        with pytest.raises(ValueError, match="datapath bits"):
            datapath_widths(bits)

    @pytest.mark.parametrize("bits", [2, 4, 12, 16])
    def test_extreme_products_fit_every_level(self, bits):
        code_max = datapath_widths(bits).code_max
        for sign in (1, -1):
            products = shift_product(
                np.full(16, code_max), np.full(16, sign), np.zeros(16, dtype=np.int64), bits
            )
            assert adder_tree(products, bits=bits) == sign * code_max * 128 * 16

    def test_shift_product_range_check_follows_bits(self):
        shift_product(np.array([7]), np.array([1]), np.array([0]), bits=4)
        with pytest.raises(ValueError, match="4-bit"):
            shift_product(np.array([8]), np.array([1]), np.array([0]), bits=4)


class TestCheckWidth:
    def test_accepts_in_range(self):
        check_width(np.array([-32768, 32767]), 16, "test")

    def test_rejects_overflow(self):
        with pytest.raises(DatapathOverflowError):
            check_width(np.array([32768]), 16, "test")
        with pytest.raises(DatapathOverflowError):
            check_width(np.array([-32769]), 16, "test")

    def test_empty_ok(self):
        check_width(np.array([]), 8, "test")


class TestShiftProduct:
    def test_equals_real_multiplication(self):
        """(s*x) << (7+e) represents x * s*2^e on the 2^-(m+7) grid."""
        x = np.array([100, -50, 3])
        s = np.array([1, -1, 1])
        e = np.array([0, -3, -7])
        products = shift_product(x, s, e)
        real = x * (s * np.exp2(e.astype(float)))
        assert np.allclose(products, real * 2.0**7)

    def test_never_overflows_16_bits(self):
        """Worst case |x|=127, e=0: 127 << 7 = 16256 < 2^15."""
        products = shift_product(np.array([127, -127]), np.array([1, -1]), np.array([0, 0]))
        assert np.array_equal(products, [16256, 16256])

    def test_rejects_out_of_range_codes(self):
        with pytest.raises(ValueError):
            shift_product(np.array([128]), np.array([1]), np.array([0]))

    def test_rejects_bad_exponents(self):
        with pytest.raises(ValueError):
            shift_product(np.array([1]), np.array([1]), np.array([1]))
        with pytest.raises(ValueError):
            shift_product(np.array([1]), np.array([1]), np.array([-8]))

    @given(
        x=st.lists(codes_st, min_size=1, max_size=32),
        seed=st.integers(0, 2**16),
    )
    @settings(max_examples=100, deadline=None)
    def test_property_exact_and_16bit(self, x, seed):
        rng = np.random.default_rng(seed)
        x = np.array(x)
        s = rng.choice([-1, 1], size=x.shape)
        e = rng.integers(-7, 1, size=x.shape)
        products = shift_product(x, s, e)
        assert np.allclose(products, x * s * np.exp2(e + 7.0))
        check_width(products, 16, "products")  # must never raise


class TestAdderTree:
    def test_simple_sum(self):
        products = np.arange(16)
        assert adder_tree(products) == products.sum()

    def test_batched(self, rng):
        products = rng.integers(-16000, 16000, size=(5, 3, 16))
        out = adder_tree(products)
        assert np.array_equal(out, products.sum(axis=-1))

    def test_wrong_width_rejected(self):
        with pytest.raises(ValueError):
            adder_tree(np.zeros(8))

    def test_input_overflow_detected(self):
        bad = np.zeros(16, dtype=np.int64)
        bad[0] = 1 << 16
        with pytest.raises(DatapathOverflowError):
            adder_tree(bad)

    @given(seed=st.integers(0, 2**16))
    @settings(max_examples=200, deadline=None)
    def test_property_no_level_overflow_for_legal_inputs(self, seed):
        """The widening 16->20 bit tree cannot overflow for any legal
        product inputs — the paper's 'no loss in intermediate values'."""
        rng = np.random.default_rng(seed)
        x = rng.integers(-CODE_MAX, CODE_MAX + 1, size=16)
        s = rng.choice([-1, 1], size=16)
        e = rng.integers(-7, 1, size=16)
        products = shift_product(x, s, e)
        out = adder_tree(products)  # raises on overflow
        assert out == products.sum()

    def test_extreme_all_max_inputs(self):
        """All 16 products at the extreme +/-16256 still fit every level."""
        for sign in (1, -1):
            products = np.full(16, sign * 16256, dtype=np.int64)
            out = adder_tree(products)
            assert out == sign * 16256 * 16
            check_width(np.array([out]), 20, "root")


class TestRounding:
    @given(v=st.integers(-(2**40), 2**40), shift=st.integers(0, 20))
    @settings(max_examples=300, deadline=None)
    def test_rshift_matches_rint(self, v, shift):
        got = rshift_round_half_even(np.array([v]), shift)[0]
        want = np.rint(v / 2.0**shift) if shift < 53 else None
        assert got == int(want)

    def test_negative_shift_is_left_shift(self):
        assert rshift_round_half_even(np.array([3]), -2)[0] == 12

    def test_ties_to_even(self):
        assert rshift_round_half_even(np.array([1]), 1)[0] == 0   # 0.5 -> 0
        assert rshift_round_half_even(np.array([3]), 1)[0] == 2   # 1.5 -> 2
        assert rshift_round_half_even(np.array([-1]), 1)[0] == 0  # -0.5 -> 0
        assert rshift_round_half_even(np.array([-3]), 1)[0] == -2  # -1.5 -> -2

    @given(num=st.integers(-(2**40), 2**40), den=st.integers(1, 1000))
    @settings(max_examples=300, deadline=None)
    def test_div_matches_rint(self, num, den):
        got = div_round_half_even(np.array([num]), den)[0]
        # exact rational tie detection
        q, r = divmod(num, den)
        if 2 * r == den:
            want = q if q % 2 == 0 else q + 1
        else:
            want = q + (1 if 2 * r > den else 0)
        assert got == want

    def test_div_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            div_round_half_even(np.array([1]), 0)

    def test_div_array_denominator(self):
        out = div_round_half_even(np.array([10, 10]), np.array([2, 5]))
        assert np.array_equal(out, [5, 2])


class TestSaturateAndRoute:
    def test_saturate(self):
        assert np.array_equal(saturate(np.array([200, -200, 5]), CODE_MAX), [127, -127, 5])

    def test_requantize_coarser(self):
        # value 16 at f=4 (i.e. 1.0) -> f=2 -> code 4
        assert requantize_codes(np.array([16]), 4, 2, CODE_MAX)[0] == 4

    def test_requantize_finer_saturates(self):
        # code 127 at f=0 -> f=2 would need 508: saturate at 127
        assert requantize_codes(np.array([127]), 0, 2, CODE_MAX)[0] == 127

    def test_route_relu_zeroes_negative_accumulator(self):
        out = accumulator_route(
            np.array([-5000, 5000]), acc_frac=10, out_frac=3, activation="relu", max_code=CODE_MAX
        )
        assert out[0] == 0
        assert out[1] > 0

    def test_route_none_keeps_negative(self):
        out = accumulator_route(
            np.array([-5000]), acc_frac=10, out_frac=3, activation="none", max_code=CODE_MAX
        )
        assert out[0] < 0

    def test_route_rejects_unknown_activation(self):
        with pytest.raises(ValueError):
            accumulator_route(np.array([1]), 10, 3, activation="tanh", max_code=CODE_MAX)

    def test_route_matches_float_reference(self, rng):
        """Route == quantize(value) computed in floats."""
        m, n = 4, 2
        acc = rng.integers(-(2**20), 2**20, size=100)
        out = accumulator_route(acc, m + 7, n, "none", max_code=CODE_MAX)
        real = acc / 2.0 ** (m + 7)
        want = np.clip(np.rint(real * 2.0**n), -127, 127)
        assert np.array_equal(out, want.astype(np.int64))
