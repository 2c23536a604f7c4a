"""Dynamic fixed-point (DFP) number format ⟨b, f⟩.

The paper (following Courbariaux et al. [13]) represents each signal as

    value = (-1)^s * 2^(-f) * sum_{i=0}^{b-2} 2^i x_i

i.e. *sign-magnitude* with ``b-1`` magnitude bits and fractional length
``f``.  The representable grid is the symmetric set
``{ -M..M } * 2^-f`` with ``M = 2^(b-1) - 1``.  "Dynamic" means each layer
may use a different ``f``; the paper fixes ``b = 8`` everywhere.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

#: Narrowest DFP width: a sign bit plus one magnitude bit.
MIN_BITS = 2


@dataclass(frozen=True)
class DFPFormat:
    """A dynamic fixed-point format ⟨b, f⟩.

    Attributes:
        bits: Total bit width ``b`` (one sign bit + ``b-1`` magnitude bits).
        frac: Fractional length ``f`` (may be negative or exceed ``b``).
    """

    bits: int = 8
    frac: int = 0

    def __post_init__(self):
        if self.bits < MIN_BITS:
            raise ValueError(f"DFP needs at least {MIN_BITS} bits, got {self.bits}")

    @property
    def max_code(self) -> int:
        """Largest magnitude code: ``2^(b-1) - 1``."""
        return (1 << (self.bits - 1)) - 1

    @property
    def resolution(self) -> float:
        """Grid step ``2^-f``."""
        return 2.0 ** (-self.frac)

    @property
    def max_value(self) -> float:
        """Largest representable value."""
        return self.max_code * self.resolution

    @property
    def min_value(self) -> float:
        """Most negative representable value (symmetric range)."""
        return -self.max_value

    def __str__(self) -> str:
        return f"<{self.bits},{self.frac}>"


def rint_saturate(scaled: np.ndarray, max_code: int) -> np.ndarray:
    """Round float ``scaled`` half to even and saturate at ``±max_code``, in place.

    Saturating in float, before any integer cast, sends ``±inf`` and
    values past int64 to ``±max_code``; ``np.fmax`` sends NaN to
    ``-max_code``.  Returns ``scaled``.
    """
    bound = float(max_code)  # numpy bounds a float array by a Python int half as fast
    np.rint(scaled, out=scaled)
    np.minimum(scaled, bound, out=scaled)
    return np.fmax(scaled, -bound, out=scaled)


def dfp_to_codes(x: np.ndarray, fmt: DFPFormat) -> np.ndarray:
    """Quantize ``x`` to signed integer codes on the ⟨b, f⟩ grid.

    Round-to-nearest (ties to even, numpy semantics) in float64 with
    saturation at ``±(2^(b-1)-1)`` (:func:`rint_saturate`).  The returned
    dtype is int64.
    """
    with np.errstate(over="ignore"):  # an overflow to inf saturates
        scaled = np.asarray(x, dtype=np.float64) * (2.0**fmt.frac)
    return rint_saturate(scaled, fmt.max_code).astype(np.int64)


def dfp_from_codes(codes: np.ndarray, fmt: DFPFormat) -> np.ndarray:
    """Reconstruct real values from integer codes."""
    codes = np.asarray(codes)
    if np.any(np.abs(codes) > fmt.max_code):
        raise ValueError(f"code out of range for {fmt}")
    return codes.astype(np.float64) * fmt.resolution


def dfp_quantize(x: np.ndarray, fmt: DFPFormat) -> np.ndarray:
    """Round ``x`` to the nearest representable DFP value (with saturation)."""
    out = dfp_from_codes(dfp_to_codes(x, fmt), fmt)
    return out.astype(np.asarray(x).dtype, copy=False)


def choose_fraction_length(x: np.ndarray, bits: int = 8, margin: int = 0) -> int:
    """Pick the largest ``f`` such that ``max|x|`` does not saturate.

    This is the Ristretto-style rule: give the integer part just enough
    bits for the observed range and spend the rest on fraction.  ``margin``
    reserves extra integer bits as saturation headroom.

    Args:
        x: Calibration data (any shape).
        bits: Total DFP bit width.
        margin: Extra integer bits to reserve.

    Returns:
        The fractional length ``f`` (clamped to ``[-64, 64]``).
    """
    max_abs = float(np.max(np.abs(x))) if np.asarray(x).size else 0.0
    max_code = DFPFormat(bits).max_code
    if max_abs == 0.0:
        return bits - 1
    # Largest f with max_code * 2^-f >= max_abs.  Computed as a log
    # difference: the quotient max_code / max_abs overflows to inf for
    # subnormal max_abs (~1e-311), while log2 handles subnormals fine.
    f = math.floor(math.log2(max_code) - math.log2(max_abs))
    f -= margin
    # Guard against log2 edge cases: back off while saturating.
    while max_code * 2.0**-f < max_abs:
        f -= 1
    return int(np.clip(f, -64, 64))


class DFPQuantizer:
    """Callable quantization hook: snap arrays to a fixed ⟨b, f⟩ grid.

    Instances are attached to layers as ``output_quantizer`` (activations)
    or used as the network ``input_quantizer``.  The backward pass treats
    them as the identity (straight-through estimator).
    """

    def __init__(self, fmt: DFPFormat):
        self.fmt = fmt

    def __call__(self, x: np.ndarray) -> np.ndarray:
        return dfp_quantize(x, self.fmt)

    def __repr__(self) -> str:
        return f"DFPQuantizer({self.fmt})"
