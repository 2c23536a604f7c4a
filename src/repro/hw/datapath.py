"""Bit-accurate integer primitives of the multiplier-free datapath.

Activations travel as ``bits``-bit DFP codes (``|code| <= code_max``,
value = code * 2^-m; the paper's ``bits`` is 8).  A weight ⟨s, e⟩ turns
the multiply ``x * w`` into ``(s * x) << (7 + e)``: because ``e >= -7``,
the shift amount is non-negative, and every product lands on the common
accumulator grid ``2^-(m+7)``.  :func:`datapath_widths` sizes every wire
from ``bits``: ``bits + 8``-bit products, a 16-input tree widening one
bit per level, and an accumulator 12 bits wider than the root (2^12
chunks) — at 8 bits, 16→17→18→19→20 and 32 — so no intermediate value
can overflow (the paper: "we ensure that all intermediate signals have
large enough word-width").

Rounding throughout is round-half-to-even, matching numpy's ``rint`` so
the integer datapath and the float simulation agree bit for bit.
"""

from __future__ import annotations

import functools
import numbers
from dataclasses import dataclass

import numpy as np

from repro.core.dfp import MIN_BITS, DFPFormat

#: The processing-unit tile of Figure 2(b): 16 neurons, each reducing
#: 16 synapses per cycle.  The cost model, the structural PU and neuron,
#: and the tile scheduler all read the geometry from here.
NEURONS = 16
SYNAPSES = 16

#: Widest admitted activation width: every accumulator then fits 40 bits
#: (exact in float64).  The narrowest, ``MIN_BITS``, is DFP's own.
MAX_BITS = 16


@dataclass(frozen=True)
class DatapathWidths:
    """Wire widths of a ``bits``-bit datapath (Figure 2(a))."""

    bits: int
    code_max: int  # DFPFormat(bits).max_code
    product: int  # bits + 8
    tree: tuple  # the four adder-tree levels, product + 1 .. product + 4
    accumulator: int  # the tree root + 12, for up to 2^12 chunks


def datapath_widths(bits: int) -> DatapathWidths:
    """The :class:`DatapathWidths` of ``bits``; ``ValueError`` outside the range."""
    if isinstance(bits, bool) or not isinstance(bits, numbers.Integral) or not MIN_BITS <= bits <= MAX_BITS:
        raise ValueError(f"datapath bits must be an integer in [{MIN_BITS}, {MAX_BITS}], got {bits!r}")
    return _widths(int(bits))


@functools.lru_cache(maxsize=None)
def _widths(bits: int) -> DatapathWidths:
    tree = tuple(bits + 8 + level for level in range(1, 5))
    return DatapathWidths(bits, DFPFormat(bits).max_code, bits + 8, tree, tree[-1] + 12)


class DatapathOverflowError(RuntimeError):
    """An intermediate signal exceeded its declared wire width."""


def check_width(values: np.ndarray, bits: int, what: str) -> None:
    """Raise :class:`DatapathOverflowError` if any value needs > ``bits``.

    Widths are for two's-complement signed wires: representable range is
    ``[-2^(bits-1), 2^(bits-1) - 1]``.
    """
    values = np.asarray(values)
    if values.size == 0:
        return
    lo, hi = int(values.min()), int(values.max())
    bound = 1 << (bits - 1)
    if lo < -bound or hi > bound - 1:
        raise DatapathOverflowError(
            f"{what}: value range [{lo}, {hi}] exceeds {bits}-bit signed wire"
        )


def shift_product(x_codes: np.ndarray, w_sign: np.ndarray, w_exp: np.ndarray, bits: int = 8) -> np.ndarray:
    """The multiplier-free product: ``(s * x) << (7 + e)``.

    Args:
        x_codes: Input activation codes (int, ``|x| <= code_max``).
        w_sign: Weight signs (±1).
        w_exp: Weight exponents (``-7 <= e <= 0``).
        bits: Activation width of the datapath.

    Returns:
        Product integers on the ``2^-(m+7)`` grid; guaranteed to fit the
        ``bits + 8``-bit product wire.
    """
    widths = datapath_widths(bits)
    x_codes = np.asarray(x_codes, dtype=np.int64)
    w_exp = np.asarray(w_exp, dtype=np.int64)
    if np.any(np.abs(x_codes) > widths.code_max):
        raise ValueError(f"input codes exceed {bits}-bit sign-magnitude range")
    if np.any(w_exp < -7) or np.any(w_exp > 0):
        raise ValueError("weight exponents must lie in [-7, 0]")
    products = (np.asarray(w_sign, dtype=np.int64) * x_codes) << (7 + w_exp)
    check_width(products, widths.product, "shift product")
    return products


def adder_tree(products: np.ndarray, bits: int = 8) -> np.ndarray:
    """Sum 16 products pairwise through the widening tree of Figure 2(a).

    Every tree level is checked against its declared width.

    Args:
        products: Array whose *last* axis has length 16 (one per synapse).
        bits: Activation width of the datapath the tree belongs to.

    Returns:
        Per-neuron partial sums (last axis reduced), safe in the tree's
        ``bits + 12``-bit root.
    """
    widths = datapath_widths(bits)
    level = np.asarray(products, dtype=np.int64)
    if level.shape[-1] != SYNAPSES:
        raise ValueError(f"adder tree expects {SYNAPSES} inputs, got {level.shape[-1]}")
    check_width(level, widths.product, "adder tree input")
    for width in widths.tree:
        level = level[..., 0::2] + level[..., 1::2]
        check_width(level, width, f"adder tree level ({width}-bit)")
    return level[..., 0]


def saturate(values: np.ndarray, max_code: int) -> np.ndarray:
    """Clamp to the symmetric code range ``[-max_code, max_code]``, as int64.

    An object array of Python integers (a wide left shift, see
    :func:`rshift_round_half_even`) clamps before the cast, so no value
    wraps.
    """
    values = np.asarray(values)
    if values.dtype != object:
        values = values.astype(np.int64, copy=False)
    return np.clip(values, -max_code, max_code).astype(np.int64)


def rshift_round_half_even(values: np.ndarray, shift: int) -> np.ndarray:
    """Arithmetic right shift with round-half-to-even; left shift if < 0.

    Equivalent to ``rint(v / 2**shift)`` computed purely with integers,
    exactly for any shift.  A left shift whose result leaves int64
    returns Python integers (an object array); a right shift by 64 or
    more returns 0, since no int64 exceeds half of ``2^64``.
    """
    v = np.asarray(values, dtype=np.int64)
    if shift <= 0:
        if v.size and not -(1 << 63) <= int(v.min()) << -shift <= int(v.max()) << -shift < 1 << 63:
            v = v.astype(object)
        return v << (-shift)
    if shift >= 64:
        return np.zeros_like(v)
    q = v >> shift
    r = v - (q << shift)
    half = np.int64(1) << (shift - 1)
    round_up = (r > half) | ((r == half) & ((q & 1) == 1))
    return q + round_up.astype(np.int64)


def div_round_half_even(num: np.ndarray, den) -> np.ndarray:
    """``rint(num / den)`` in exact integer arithmetic (``den > 0``).

    Models the constant-coefficient shift-add divider used for average
    pooling (e.g. the 1/9 of a 3x3 window), computed to full precision.
    ``den`` may be a scalar or an array broadcastable against ``num``.
    """
    den = np.asarray(den, dtype=np.int64)
    if np.any(den <= 0):
        raise ValueError("denominator must be positive")
    num = np.asarray(num, dtype=np.int64)
    q = np.floor_divide(num, den)
    r = num - q * den
    twice = 2 * r
    round_up = (twice > den) | ((twice == den) & ((q & 1) == 1))
    return q + round_up.astype(np.int64)


def requantize_codes(codes: np.ndarray, in_frac: int, out_frac: int, max_code: int) -> np.ndarray:
    """Move codes from grid ``2^-in_frac`` to ``2^-out_frac`` (round+sat).

    This is the "Accumulator & Routing" radix realignment: a shift by
    ``in_frac - out_frac`` followed by saturation to ``±max_code``.
    """
    shifted = rshift_round_half_even(codes, in_frac - out_frac)
    return saturate(shifted, max_code)


def accumulator_route(
    acc: np.ndarray,
    acc_frac: int,
    out_frac: int,
    activation: str = "none",
    *,
    max_code: int,
) -> np.ndarray:
    """The full Accumulator & Routing stage of Figure 2(a).

    Applies the fused non-linearity on the wide accumulator value, then
    shifts from the accumulator grid (fraction ``acc_frac = m + 7``) to
    the output grid ``n = out_frac`` and saturates to ``±max_code``.
    ``m`` and ``n`` are the radix control signals of the paper.
    """
    acc = np.asarray(acc, dtype=np.int64)
    if activation == "relu":
        acc = np.maximum(acc, 0)
    elif activation != "none":
        raise ValueError(f"unsupported fused activation {activation!r}")
    return requantize_codes(acc, acc_frac, out_frac, max_code)
