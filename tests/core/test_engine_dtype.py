"""Per-op dtypes: float32 exactly where the proved bound allows it.

:func:`repro.core.engine.op_dtypes` runs a conv or dense op in float32
only when its worst-case sum, ``fan_in * (code_max << 7) + max|bias|``,
is below 2^24; float32 holds every integer below that exactly, so the
GEMM is exact in any summation order.  These tests sit on both sides of
the threshold: one LSB over it the op must widen to float64 (and a
float32 GEMM would indeed be wrong there), one LSB under it the float32
op must equal the eager reference bit for bit.

An average pool divides in its float dtype; its quotient rounds exactly
while the numerator ``k*k*code_max << max(shift, 0)`` is below 2^(p-1),
so it widens at 2^23 and fails to compile at 2^52.
"""

import numpy as np
import pytest

from repro.core import MFDFPNetwork
from repro.core.engine import (
    NARROW_LIMIT,
    BatchedEngine,
    decode_weight_plane,
    execute_deployed,
    op_dtypes,
)
from repro.core.mfdfp import DeployedLayer, DeployedMFDFP
from repro.hw.datapath import DatapathOverflowError, datapath_widths, div_round_half_even
from repro.nn.layers import AvgPool2D, Conv2D, Dense, Flatten, MaxPool2D, ReLU
from repro.nn.network import Network

CODE_MAX = datapath_widths(8).code_max
PRODUCT_MAX = CODE_MAX << 7  # the largest shift product of an 8-bit datapath
FAN_IN = NARROW_LIMIT // PRODUCT_MAX  # 1032: the largest fan-in under 2^24
IN_FRAC, OUT_FRAC = 0, 18


def _boundary_op(kind: str, bias: int) -> tuple[DeployedLayer, tuple]:
    """A conv or dense op of fan-in :data:`FAN_IN` whose bound is ``FAN_IN * PRODUCT_MAX + bias``.

    Every weight code is 0, the shift multiplier ``+2^7``, so an input of
    all ``+code_max`` codes reaches the bound exactly.
    """
    common = dict(name=f"{kind}_edge", in_frac=IN_FRAC, out_frac=OUT_FRAC)
    if kind == "conv":
        op = DeployedLayer(
            kind="conv",
            weight_codes=np.zeros((2, FAN_IN, 1, 1), dtype=np.int64),
            bias_int=np.array([bias, -bias]),
            in_channels=FAN_IN,
            out_channels=2,
            kernel_size=1,
            **common,
        )
        return op, (FAN_IN, 2, 2)
    op = DeployedLayer(
        kind="dense",
        weight_codes=np.zeros((2, FAN_IN), dtype=np.int64),
        bias_int=np.array([bias, -bias]),
        in_features=FAN_IN,
        out_features=2,
        **common,
    )
    return op, (FAN_IN,)


def _net(op: DeployedLayer, in_shape: tuple, bits: int = 8) -> DeployedMFDFP:
    return DeployedMFDFP(
        name=f"edge_{op.kind}", input_shape=in_shape, input_frac=IN_FRAC, bits=bits, ops=[op]
    )


def _adversarial_inputs(in_shape: tuple) -> np.ndarray:
    """Every code ``+code_max`` (first sample) or ``-code_max`` (second)."""
    ones = np.ones((1,) + in_shape, dtype=np.float32)
    return np.concatenate([ones, -ones]) * CODE_MAX * 2.0**-IN_FRAC


@pytest.mark.parametrize("kind", ["conv", "dense"])
def test_op_just_over_the_bound_compiles_to_float64(kind):
    bias = NARROW_LIMIT - FAN_IN * PRODUCT_MAX + 1  # bound = 2^24 + 1
    op, in_shape = _boundary_op(kind, bias)
    deployed = _net(op, in_shape)
    engine = BatchedEngine(deployed)
    assert [compiled.dtype for compiled in engine.program] == [np.float64]
    x = _adversarial_inputs(in_shape)
    assert np.array_equal(engine.run_codes(x), execute_deployed(deployed, x))

    # The widening is needed: on these codes a float32 GEMM cannot hold
    # the exact sum, 2^24 + 1 (times the route scale the plane carries,
    # 2^(OUT_FRAC - IN_FRAC - 7)), whatever its summation order.
    assert FAN_IN * PRODUCT_MAX + bias == NARROW_LIMIT + 1
    scale = 2.0 ** (OUT_FRAC - IN_FRAC - 7)
    plane = decode_weight_plane(op, np.float32)
    codes = np.full((1, FAN_IN), CODE_MAX, dtype=np.float32)
    if kind == "conv":
        acc32 = plane.reshape(2, FAN_IN) @ codes.T
    else:
        acc32 = (codes @ plane).T
    acc32 += (op.bias_int[:, None] * scale).astype(np.float32)
    assert float(acc32[0, 0]) != (NARROW_LIMIT + 1) * scale


@pytest.mark.parametrize("kind", ["conv", "dense"])
def test_op_just_under_the_bound_runs_float32_bit_identically(kind):
    bias = NARROW_LIMIT - FAN_IN * PRODUCT_MAX - 1  # bound = 2^24 - 1
    op, in_shape = _boundary_op(kind, bias)
    deployed = _net(op, in_shape)
    engine = BatchedEngine(deployed)
    assert [compiled.dtype for compiled in engine.program] == [np.float32]
    rng = np.random.default_rng(3)
    random = rng.normal(scale=60.0, size=(5,) + in_shape).astype(np.float32)
    for x in (_adversarial_inputs(in_shape), random):
        assert np.array_equal(engine.run_codes(x), execute_deployed(deployed, x))


def test_bound_counts_bias_magnitude_of_either_sign():
    bias = NARROW_LIMIT - FAN_IN * PRODUCT_MAX  # bound = 2^24 exactly: not below
    for sign in (1, -1):
        op, in_shape = _boundary_op("dense", sign * bias)
        assert op_dtypes(_net(op, in_shape)) == [np.float64]


def _wide_net(rng) -> Network:
    """Every conv and dense op has a fan-in of at least 5."""
    return Network(
        [
            Conv2D(3, 4, 3, pad=1, rng=rng, name="c1"),
            ReLU(name="r1"),
            MaxPool2D(2, stride=2, name="p1"),
            Conv2D(4, 4, 3, pad=1, rng=rng, name="c2"),
            ReLU(name="r2"),
            AvgPool2D(2, stride=2, name="p2"),
            Flatten(name="f"),
            Dense(4 * 2 * 2, 5, rng=rng, name="d"),
        ],
        input_shape=(3, 8, 8),
        name="wide",
    )


def test_sixteen_bit_network_runs_every_op_in_float64():
    """At 16 bits one shift product is ``32767 << 7``: five reach 2^24."""
    rng = np.random.default_rng(4)
    net = _wide_net(rng)
    calib = rng.normal(scale=0.8, size=(16, 3, 8, 8)).astype(np.float32)
    mf = MFDFPNetwork.from_float(net, calib, bits=16)
    mf.calibrate_bias_to_accumulator_grid()
    deployed = mf.deploy()
    assert deployed.bits == 16
    engine = BatchedEngine(deployed)
    assert {compiled.dtype for compiled in engine.program} == {np.dtype(np.float64)}
    x = rng.normal(scale=0.8, size=(6, 3, 8, 8)).astype(np.float32)
    assert np.array_equal(engine.run_codes(x), execute_deployed(deployed, x))


def test_sixteen_bit_fan_in_of_four_still_fits_float32():
    """``4 * (32767 << 7)`` is 512 below 2^24: the rule reads the bound, not the width."""
    op = DeployedLayer(
        kind="dense", name="d", in_frac=0, out_frac=12,
        weight_codes=np.zeros((3, 4), dtype=np.int64), in_features=4, out_features=3,
    )
    deployed = _net(op, (4,), bits=16)
    assert op_dtypes(deployed) == [np.float32]
    x = np.full((2, 4), 32767.0, dtype=np.float32) * np.array([[1.0], [-1.0]], dtype=np.float32)
    assert np.array_equal(BatchedEngine(deployed).run_codes(x), execute_deployed(deployed, x))


def test_window_ops_keep_their_input_dtype():
    """A pool after a float64 conv stays float64; a flatten never casts."""
    rng = np.random.default_rng(5)
    bias = NARROW_LIMIT - FAN_IN * PRODUCT_MAX + 1
    conv, in_shape = _boundary_op("conv", bias)
    ops = [
        conv,
        DeployedLayer(kind="maxpool", name="p", in_frac=OUT_FRAC, out_frac=OUT_FRAC, kernel_size=2, stride=2),
        DeployedLayer(kind="flatten", name="f", in_frac=OUT_FRAC, out_frac=OUT_FRAC),
        DeployedLayer(
            kind="dense", name="d", in_frac=OUT_FRAC, out_frac=OUT_FRAC,
            weight_codes=rng.integers(0, 16, size=(3, 2)), in_features=2, out_features=3,
        ),
    ]
    deployed = DeployedMFDFP(name="mixed", input_shape=in_shape, input_frac=IN_FRAC, bits=8, ops=ops)
    engine = BatchedEngine(deployed)
    assert [c.dtype for c in engine.program] == [np.float64, np.float64, np.float64, np.float32]
    x = _adversarial_inputs(in_shape)
    assert np.array_equal(engine.run_codes(x), execute_deployed(deployed, x))


def _pool_net(bits: int, k: int, shift: int, in_shape: tuple, **geometry) -> DeployedMFDFP:
    """A 1x1 max pool (so the average pool's input is float32) then a ``k``x``k`` average pool."""
    ops = [
        DeployedLayer(kind="maxpool", name="p1", in_frac=0, out_frac=0, kernel_size=1, stride=1),
        DeployedLayer(kind="avgpool", name="p2", in_frac=0, out_frac=shift, kernel_size=k, **geometry),
    ]
    return DeployedMFDFP(name="pools", input_shape=in_shape, input_frac=0, bits=bits, ops=ops)


def test_average_pool_widens_only_past_its_window_bound():
    """At 16 bits and a shift of one, an 11x11 window's numerator stays below 2^23; a 12x12 one's cannot."""
    rng = np.random.default_rng(6)
    for k, widened in ((11, np.float32), (12, np.float64)):
        deployed = _pool_net(16, k, 1, (2, k, k), stride=k)
        engine = BatchedEngine(deployed)
        assert [c.dtype for c in engine.program] == [np.float32, widened]
        x = rng.integers(-32767, 32768, size=(3, 2, k, k)).astype(np.float32)
        x[0] = 32767.0
        assert np.array_equal(engine.run_codes(x), execute_deployed(deployed, x))


@pytest.mark.parametrize("bits", [2, 8, 16])
@pytest.mark.parametrize("k", [1, 2, 3, 5])
def test_average_pool_switches_where_its_numerator_reaches_two_to_the_23(bits, k):
    """The dtype flips at the first shift whose numerator ``k*k*code_max << shift`` reaches 2^23."""
    code_max = datapath_widths(bits).code_max
    first = next(s for s in range(64) if k * k * code_max << s >= 1 << 23)
    for shift, dtype in ((-8, np.float32), (first - 1, np.float32), (first, np.float64)):
        assert op_dtypes(_pool_net(bits, k, shift, (1, 8, 8), stride=1)) == [np.float32, dtype]


def test_float32_division_is_wrong_past_the_bound():
    """Past a 2^23 numerator a float32 quotient can round onto a half and break the tie the other way."""
    num, den = 12582916, 3  # 2^23 < num < 2^24: num itself is exact in float32
    assert np.rint(np.float32(num) / np.float32(den)) != div_round_half_even(np.array([num]), den)[0]
    assert np.rint(np.float64(num) / np.float64(den)) == div_round_half_even(np.array([num]), den)[0]


def test_average_pool_just_under_the_bound_runs_float32_bit_identically():
    """At 16 bits a 3x3 window shifted by 4 has a numerator below 2^23; by 5 it widens."""
    rng = np.random.default_rng(8)
    assert 9 * 32767 << 4 < 1 << 23 <= 9 * 32767 << 5
    for shift, dtype in ((4, np.float32), (5, np.float64)):
        deployed = _pool_net(16, 3, shift, (2, 9, 9), stride=1, pad=1)
        engine = BatchedEngine(deployed)
        assert engine.program[-1].dtype == dtype
        x = rng.integers(-32767, 32768, size=(6, 2, 9, 9)).astype(np.float32)
        x[0], x[1] = 32767.0, -32767.0
        x[2] = 32767.0 - rng.integers(0, 4, size=(2, 9, 9))
        assert np.array_equal(engine.run_codes(x), execute_deployed(deployed, x))


def test_average_pool_numerator_past_two_to_the_52_fails_to_compile():
    """At 16 bits a 5x5 window shifted by 33 could reach 2^52: no float dtype divides it exactly."""
    assert 25 * 32767 << 32 < 1 << 52 <= 25 * 32767 << 33
    deployed = _pool_net(16, 5, 32, (1, 5, 5), stride=5)
    assert op_dtypes(deployed) == [np.float32, np.float64]
    x = np.full((2, 1, 5, 5), 32767.0, dtype=np.float32)
    x[1] = -x[1]
    assert np.array_equal(BatchedEngine(deployed).run_codes(x), execute_deployed(deployed, x))
    with pytest.raises(DatapathOverflowError, match="p2"):
        BatchedEngine(_pool_net(16, 5, 33, (1, 5, 5), stride=5))


def test_ceil_mode_drops_a_window_that_would_start_past_the_input():
    """Size 5, kernel 1, stride 3: the third ceil-mode window would start at 6, so there are two."""
    deployed = _pool_net(8, 1, 0, (1, 5, 5), stride=3, ceil_mode=True)
    engine = BatchedEngine(deployed)
    assert engine.output_shape == (1, 2, 2)
    x = np.random.default_rng(9).integers(-127, 128, size=(3, 1, 5, 5)).astype(np.float32)
    assert np.array_equal(engine.run_codes(x), execute_deployed(deployed, x))


def test_average_pool_over_padding_alone_fails_to_compile():
    """With ``pad >= kernel`` the first window reads padding alone: no element to divide by."""
    deployed = _pool_net(8, 1, 0, (1, 5, 5), stride=3, pad=1, ceil_mode=True)
    with pytest.raises(ValueError, match="p2: a pooling window reads no input"):
        BatchedEngine(deployed)


# -- the route scale folded into the planes ------------------------------------------
#
# A conv or dense plane carries ``2^e``, ``e = out_frac - in_frac - 7``, and
# a max pool scales by ``2^(out_frac - in_frac)``.  float32 holds the
# scaled values exactly while ``2^e`` is normal (``e >= -126``) and the
# scaled bound stays below 2^128; fractions in [-64, 64] reach both edges.


def _fan_in_one(kind: str, in_frac: int, out_frac: int) -> DeployedLayer:
    """Fan-in 1 at 8 bits, no bias: the bound is ``127 << 7`` = 16256, 14 bits.

    The weights are ``+1`` and ``-1`` (codes 7 and 15), so the plane holds ``±2^e``.
    """
    weights = np.array([[7], [15]])
    common = dict(name=f"{kind}_scaled", in_frac=in_frac, out_frac=out_frac, weight_codes=weights)
    if kind == "conv":
        common["weight_codes"] = common["weight_codes"].reshape(2, 1, 1, 1)
        return DeployedLayer(kind="conv", in_channels=1, out_channels=2, kernel_size=1, **common)
    return DeployedLayer(kind="dense", in_features=1, out_features=2, **common)


def _edge_inputs(in_shape: tuple, in_frac: int) -> np.ndarray:
    codes = np.array([CODE_MAX, -CODE_MAX, 1, -1, 0, 77], dtype=np.float64)
    return (codes.reshape((-1,) + (1,) * len(in_shape)) * np.ones(in_shape)) * 2.0**-in_frac


@pytest.mark.parametrize("kind", ["conv", "dense"])
def test_scale_widens_below_float32s_smallest_normal(kind):
    """``e = -126`` keeps float32; ``e = -127`` widens (in_frac 64, out_frac -55 and -56)."""
    in_shape = (1, 2, 2) if kind == "conv" else (1,)
    for out_frac, dtype in ((-55, np.float32), (-56, np.float64)):
        op = _fan_in_one(kind, 64, out_frac)
        assert out_frac - 64 - 7 == (-126 if dtype is np.float32 else -127)
        deployed = DeployedMFDFP(name="low", input_shape=in_shape, input_frac=64, bits=8, ops=[op])
        assert op_dtypes(deployed) == [dtype]
        assert np.abs(decode_weight_plane(op, dtype)).min() == 2.0 ** (out_frac - 64 - 7)
        x = _edge_inputs(in_shape, 64)
        assert np.array_equal(BatchedEngine(deployed).run_codes(x), execute_deployed(deployed, x))


@pytest.mark.parametrize("kind", ["conv", "dense"])
def test_scale_widens_where_the_scaled_bound_could_overflow(kind):
    """A 14-bit bound times ``2^114`` stays below 2^128 in float32; times ``2^115`` it widens."""
    in_shape = (1, 2, 2) if kind == "conv" else (1,)
    assert (CODE_MAX << 7).bit_length() == 14
    for out_frac, dtype in ((57, np.float32), (58, np.float64)):
        op = _fan_in_one(kind, -64, out_frac)
        deployed = DeployedMFDFP(name="high", input_shape=in_shape, input_frac=-64, bits=8, ops=[op])
        assert op_dtypes(deployed) == [dtype]
        x = _edge_inputs(in_shape, -64)
        codes = BatchedEngine(deployed).run_codes(x)
        assert np.array_equal(codes, execute_deployed(deployed, x))
        assert codes[0].max() == CODE_MAX and codes[1].min() == -CODE_MAX
    # Past the edge a float32 product can overflow: a sum of two of them is inf - inf = NaN.
    with np.errstate(over="ignore", invalid="ignore"):
        product = np.float32(CODE_MAX) * np.float32(2.0 ** (7 + 115))
        assert np.isinf(product) and np.isnan(product - product)


def test_max_pool_scale_widens_at_both_edges():
    """A max pool scales codes by ``2^shift``: float32 for shifts -126..113 at 8 bits (7-bit codes)."""

    def pool(shift):
        op = DeployedLayer(kind="maxpool", name="p", in_frac=0, out_frac=shift, kernel_size=2, stride=2)
        return DeployedMFDFP(name="pool", input_shape=(1, 4, 4), input_frac=0, bits=8, ops=[op])

    assert CODE_MAX.bit_length() + 121 == 128
    for shift, dtype in ((-126, np.float32), (-127, np.float64), (121, np.float32), (122, np.float64)):
        deployed = pool(shift)
        assert op_dtypes(deployed) == [dtype], shift
        rng = np.random.default_rng(shift + 200)
        x = rng.integers(-CODE_MAX, CODE_MAX + 1, size=(3, 1, 4, 4)).astype(np.float32)
        assert np.array_equal(BatchedEngine(deployed).run_codes(x), execute_deployed(deployed, x))


def test_scale_no_float_holds_fails_to_compile():
    """A route scale past float64's range is refused at compile time, naming the op."""
    op = _fan_in_one("dense", 0, 1100)
    deployed = DeployedMFDFP(name="far", input_shape=(1,), input_frac=0, bits=8, ops=[op])
    with pytest.raises(DatapathOverflowError, match="dense_scaled"):
        BatchedEngine(deployed)


def test_float32_input_quantizes_in_float64_when_its_scale_is_no_float32_normal():
    """``2^128`` overflows float32, so an input fraction of 128 quantizes float32 input in float64."""
    for input_frac in (127, 128, -126, -127):
        op = DeployedLayer(kind="flatten", name="f", in_frac=input_frac, out_frac=input_frac)
        deployed = DeployedMFDFP(name="in", input_shape=(1, 2, 2), input_frac=input_frac, bits=8, ops=[op])
        codes = np.array([0.75, -1.5, 1.25, -0.5], dtype=np.float64).reshape(1, 1, 2, 2)
        x = (codes * 2.0**-input_frac).astype(np.float32)  # exact, subnormals included
        assert np.array_equal(x.astype(np.float64) * 2.0**input_frac, codes)
        out = BatchedEngine(deployed).run_codes(x)
        assert out.tolist() == [[1, -2, 1, 0]] and np.array_equal(out, execute_deployed(deployed, x))
