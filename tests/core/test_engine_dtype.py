"""Per-op GEMM dtypes: float32 exactly where the proved bound allows it.

:func:`repro.core.engine.op_dtypes` runs a conv or dense op in float32
only when its worst-case sum, ``fan_in * (code_max << 7) + max|bias|``,
is below 2^24; float32 holds every integer below that exactly, so the
GEMM is exact in any summation order.  These tests sit on both sides of
the threshold: one LSB over it the op must widen to float64 (and a
float32 GEMM would indeed be wrong there), one LSB under it the float32
op must equal the eager reference bit for bit.
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
from repro.hw.datapath import datapath_widths
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
    # the exact sum, 2^24 + 1, whatever its summation order.
    assert FAN_IN * PRODUCT_MAX + bias == NARROW_LIMIT + 1
    plane = decode_weight_plane(op, np.float32)
    codes = np.full((1, FAN_IN), CODE_MAX, dtype=np.float32)
    if kind == "conv":
        acc32 = plane.reshape(2, FAN_IN) @ codes.T
    else:
        acc32 = (codes @ plane).T
    acc32 += op.bias_int[:, None].astype(np.float32)
    assert int(acc32[0, 0]) != NARROW_LIMIT + 1


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


def test_average_pool_widens_only_past_its_window_bound():
    """At 16 bits a 23x23 window can sum past 2^24; a 22x22 one cannot."""
    rng = np.random.default_rng(6)
    for k, widened in ((22, np.float32), (23, np.float64)):
        ops = [
            DeployedLayer(kind="maxpool", name="p1", in_frac=0, out_frac=0, kernel_size=1, stride=1),
            DeployedLayer(kind="avgpool", name="p2", in_frac=0, out_frac=1, kernel_size=k, stride=k),
        ]
        deployed = DeployedMFDFP(name="pools", input_shape=(2, k, k), input_frac=0, bits=16, ops=ops)
        engine = BatchedEngine(deployed)
        assert [c.dtype for c in engine.program] == [np.float32, widened]
        x = rng.integers(-32767, 32768, size=(3, 2, k, k)).astype(np.float32)
        x[0] = 32767.0
        assert np.array_equal(engine.run_codes(x), execute_deployed(deployed, x))
