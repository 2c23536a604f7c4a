"""The compiled engine's float64 route equals the integer datapath route.

:class:`repro.core.engine.BatchedEngine` routes accumulators in float64
(:func:`repro.core.engine._route`: scale by a power of two, ``rint``,
clip) instead of through :func:`repro.hw.datapath.accumulator_route`'s
integer shift-round-saturate.  That is exact only because every
accumulator is an integer far below 2^53; these tests pin both halves of
the argument at every datapath width.
"""

import numpy as np
import pytest

from repro.core.dfp import MIN_BITS
from repro.core.engine import _route
from repro.hw.datapath import MAX_BITS, accumulator_route, datapath_widths

SHIFTS = (-6, -1, 0, 1, 2, 5, 7, 12, 20)  # acc_frac - out_frac


def _accumulators(bits: int, shift: int, rng) -> np.ndarray:
    """Edge and random accumulator values of a ``bits``-bit datapath."""
    widths = datapath_widths(bits)
    limit = (1 << (widths.accumulator - 1)) - 1  # largest |acc| _proved_code_max admits
    edges = [0, 1, -1, limit, -limit, limit - 1, -(limit - 1)]
    step = 1 << max(shift, 0)
    for code in (widths.code_max, widths.code_max + 1, 2 * widths.code_max + 3):
        edges += [code * step, -code * step, code * step + 1, -code * step - 1]
    if shift > 0:
        half = 1 << (shift - 1)
        edges += [(2 * m + 1) * half for m in range(-6, 6)]  # exact ±0.5 ties
        edges += [(2 * m + 1) * half + d for m in (-3, 2) for d in (-1, 1)]
    random = rng.integers(-limit, limit, size=512, endpoint=True)
    values = np.concatenate([np.array(edges, dtype=np.int64), random])
    return values[np.abs(values) <= limit]


@pytest.mark.parametrize("bits", range(MIN_BITS, MAX_BITS + 1))
@pytest.mark.parametrize("activation", ["none", "relu"])
def test_float_route_equals_integer_route(bits, activation):
    rng = np.random.default_rng(bits)
    max_code = datapath_widths(bits).code_max
    for shift in SHIFTS:
        out_frac = 3
        acc_frac = out_frac + shift
        acc = _accumulators(bits, shift, rng)
        expected = accumulator_route(acc, acc_frac, out_frac, activation, max_code=max_code)
        routed = _route(acc.astype(np.float64), acc_frac, out_frac, activation, max_code)
        assert routed.dtype == np.float64
        assert np.array_equal(routed.astype(np.int64), expected), f"bits={bits} shift={shift}"


def test_route_works_in_place_and_rejects_unknown_activation():
    acc = np.array([-300.0, -3.0, 5.0, 300.0])
    assert _route(acc, 1, 0, "relu", 127) is acc
    assert acc.tolist() == [0.0, 0.0, 2.0, 127.0]
    with pytest.raises(ValueError, match="activation"):
        _route(acc, 1, 0, "tanh", 127)


def test_widest_accumulator_is_exact_in_float64():
    """Raising ``MAX_BITS`` past this point must fail here, not silently."""
    widths = datapath_widths(MAX_BITS)
    assert widths.accumulator + 1 <= 53, (
        f"a {MAX_BITS}-bit datapath has a {widths.accumulator}-bit accumulator: the float64 "
        "engine (repro.core.engine.BatchedEngine) is exact only while every accumulator "
        "stays well below 2^53"
    )
