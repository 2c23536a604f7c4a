"""Bit-flip fault injection into deployed weight codes.

The 4-bit ⟨s, e⟩ encoding concentrates a lot of meaning per bit (a sign
flip negates the weight; an exponent MSB flip changes its magnitude by up
to 16x).  This module quantifies that sensitivity — a robustness study in
the spirit of the paper's "inherent resiliency of DNNs" motivation.

Fault curves are *point-independent*: every bit-error-rate point derives
its own child generator from the caller's ``rng`` and the BER value, so
a point's injected faults do not depend on which other BERs share the
curve, and curves are reproducible under any ``jobs`` fan-out.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Optional

import numpy as np

from repro.core.engine import CacheStats, deployed_accuracy
from repro.core.mfdfp import DeployedMFDFP


@dataclass(frozen=True)
class FaultInjectionResult:
    """Outcome of one fault-injection run."""

    flipped_bits: int
    total_weight_bits: int
    bit_error_rate: float
    faulty: DeployedMFDFP


def inject_weight_faults(
    deployed: DeployedMFDFP,
    bit_error_rate: float,
    rng: Optional[np.random.Generator] = None,
) -> FaultInjectionResult:
    """Flip each stored weight bit independently with the given probability.

    Only the 4-bit weight codes are attacked (biases and radix indices
    model registers/control, not the dense weight memory).  The input
    ``deployed`` network is never modified.  The returned copy shares
    every untouched tensor with the original — only ``weight_codes``
    arrays that actually took a flip are copied, so a zero-flip
    injection costs a handful of dataclass shells, not a deep copy of
    the weight memory.  Treat both networks as frozen artifacts: the
    shared arrays must not be mutated in place.
    """
    if not 0.0 <= bit_error_rate <= 1.0:
        raise ValueError("bit_error_rate must be in [0, 1]")
    rng = rng or np.random.default_rng(0)  # repro-lint: disable=rng-discipline (deterministic fallback; fault campaigns derive per-point streams from this parent)
    flipped = 0
    total_bits = 0
    ops = []
    for op in deployed.ops:
        faulty_op = replace(op)  # field-shallow copy: shares the arrays
        if op.weight_codes is not None:
            codes = op.weight_codes
            total_bits += codes.size * 4
            flips = rng.random((codes.size, 4)) < bit_error_rate
            if flips.any():
                flat = codes.ravel().astype(np.uint8)  # fresh buffer for the copy
                for bit in range(4):
                    mask = flips[:, bit]
                    flat[mask] ^= np.uint8(1 << bit)
                    flipped += int(mask.sum())
                faulty_op.weight_codes = flat.reshape(codes.shape)
        ops.append(faulty_op)
    faulty = DeployedMFDFP(
        name=deployed.name,
        input_shape=deployed.input_shape,
        input_frac=deployed.input_frac,
        bits=deployed.bits,
        ops=ops,
    )
    return FaultInjectionResult(
        flipped_bits=flipped,
        total_weight_bits=total_bits,
        bit_error_rate=bit_error_rate,
        faulty=faulty,
    )


def _point_rng(entropy: int, bit_error_rate: float) -> np.random.Generator:
    """Independent child generator for one bit-error-rate point.

    Seeded by the parent generator's one-time entropy draw plus the
    BER's own bit pattern, so the faults injected at a given BER depend
    only on ``(rng, ber)`` — never on the point's position in the curve
    or on which other points accompany it.
    """
    ber_bits = int(np.float64(bit_error_rate).view(np.uint64))
    return np.random.default_rng(np.random.SeedSequence([entropy, ber_bits]))


class _FaultPoint:
    """A picklable zero-argument task for one fault-curve point.

    Injection randomness is fully determined by ``(entropy, ber)`` via
    :func:`_point_rng`, so the same task object produces the same point
    in any thread, any process, any placement.  The point returns
    ``(ber, accuracy, hit)``: ``hit`` says whether its engine lookup in
    the running process's :func:`~repro.core.engine.engine_cache` found
    a compiled engine, so campaign accounting needs nothing pickled
    back but the flag.
    """

    def __init__(self, deployed, ber, entropy, x, y, batch_size):
        self.deployed = deployed
        self.ber = ber
        self.entropy = entropy
        self.x = x
        self.y = y
        self.batch_size = batch_size

    def __call__(self) -> tuple[float, float, bool]:
        result = inject_weight_faults(self.deployed, self.ber, _point_rng(self.entropy, self.ber))
        stats = CacheStats()
        acc = deployed_accuracy(result.faulty, self.x, self.y, self.batch_size, stats)
        return (float(self.ber), acc, stats.hits == 1)


def _fault_curve(
    deployed, x, y, bit_error_rates, rng, *, jobs=1, batch_size=64, backend="thread"
) -> list[tuple[float, float, bool]]:
    """:func:`accuracy_under_faults` with each point's cache-hit flag."""
    from repro.analysis.campaign import parallel_map

    rng = rng or np.random.default_rng(0)  # repro-lint: disable=rng-discipline (deterministic fallback; fault campaigns derive per-point streams from this parent)
    entropy = int(rng.integers(0, 2**63))
    return parallel_map(
        [_FaultPoint(deployed, ber, entropy, x, y, batch_size) for ber in bit_error_rates],
        jobs=jobs,
        backend=backend,
    )


def accuracy_under_faults(
    deployed: DeployedMFDFP,
    x: np.ndarray,
    y: np.ndarray,
    bit_error_rates,
    rng: Optional[np.random.Generator] = None,
    *,
    jobs: Optional[int] = 1,
    batch_size: int = 64,
    backend: str = "thread",
) -> list[tuple[float, float]]:
    """Accuracy vs bit-error-rate curve on a labelled batch.

    Returns ``(bit_error_rate, accuracy)`` pairs.  Every corrupted
    network executes through the compiled batched engine
    (:func:`repro.core.engine.deployed_accuracy` — bit-identical to
    the eager reference execution), and points fan out over ``jobs``
    workers on the chosen ``backend``.  Each point draws from an
    independent child generator keyed by the BER value, so
    ``accuracy_under_faults(d, x, y, [b])`` reproduces the same point
    inside any longer curve and the result is bit-identical for every
    ``jobs``/``backend`` setting.  The flip side of that keying: listing
    the *same* BER twice returns the identical point twice — for
    independent trials at one BER, call again with a different parent
    ``rng``.  Points run in ``batch_size``-sample slices: at the default
    64 a freshly forked pool worker takes about half the page faults on
    its first point that 256 costs, and the engine is exact for every
    slice size, so the curve does not depend on it.
    """
    curve = _fault_curve(
        deployed, x, y, bit_error_rates, rng, jobs=jobs, batch_size=batch_size, backend=backend
    )
    return [(ber, acc) for ber, acc, _ in curve]
