"""Parameter sweeps over the quantization design space.

These drive the ablation benchmarks and give downstream users a one-call
answer to "what would N bits have cost me?" — the question Section 1 of
the paper raises against sub-8-bit designs.

Every sweep point evaluates through the shared batched-evaluation API
(:func:`repro.analysis.campaign.evaluate_batched`) and fans out over
``jobs`` workers on either fan-out backend (``"thread"`` or
``"process"`` — point tasks are picklable objects, not closures, so
they cross process boundaries).  Point results are independent of the
fan-out: any ``jobs``/``backend`` returns a list bit-identical to the
serial sweep.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from repro.analysis.campaign import evaluate_batched, parallel_map
from repro.core.mfdfp import MFDFPNetwork
from repro.nn.data import ArrayDataset
from repro.nn.network import Network


@dataclass(frozen=True)
class SweepPoint:
    """One configuration of a sweep and its measured error rate."""

    label: str
    error_rate: float
    bits: int
    min_exp: int
    dynamic: bool


def _evaluate(
    net: Network,
    calibration_x: np.ndarray,
    test: ArrayDataset,
    label: str,
    **kwargs,
) -> SweepPoint:
    clone = net.clone()
    mf = MFDFPNetwork.from_float(clone, calibration_x, **kwargs)
    err = 1.0 - evaluate_batched(mf, test.x, test.y)
    return SweepPoint(
        label=label,
        error_rate=err,
        bits=kwargs.get("bits", 8),
        min_exp=kwargs.get("min_exp", -7),
        dynamic=kwargs.get("dynamic", True),
    )


class _SweepTask:
    """A picklable zero-argument task evaluating one sweep configuration.

    Replaces the old lambda closures so sweep points can cross process
    boundaries under ``backend="process"``.  Carries everything the
    point needs (the float network, calibration batch, test set, and
    quantization kwargs — a pickled stochastic ``rng`` draws the same
    values as the live one, keeping points bit-identical across
    backends).
    """

    def __init__(self, net, calibration_x, test, label, **kwargs):
        self.net = net
        self.calibration_x = calibration_x
        self.test = test
        self.label = label
        self.kwargs = kwargs

    def __call__(self) -> SweepPoint:
        return _evaluate(self.net, self.calibration_x, self.test, self.label, **self.kwargs)


def bitwidth_sweep(
    net: Network,
    calibration_x: np.ndarray,
    test: ArrayDataset,
    bit_widths: Sequence[int] = (4, 6, 8, 10, 12, 16),
    jobs: Optional[int] = 1,
    backend: str = "thread",
) -> list[SweepPoint]:
    """Error rate vs activation bit width (weight clamp scales along).

    No fine-tuning is applied: this isolates the representational cost of
    the format, the quantity Figure 3's epoch-0 point reflects.
    """
    return parallel_map(
        [
            _SweepTask(net, calibration_x, test, f"{b}-bit", bits=b, min_exp=-(b - 1))
            for b in bit_widths
        ],
        jobs=jobs,
        backend=backend,
    )


def exponent_clamp_sweep(
    net: Network,
    calibration_x: np.ndarray,
    test: ArrayDataset,
    min_exps: Sequence[int] = (-3, -5, -7, -9, -12, -15),
    jobs: Optional[int] = 1,
    backend: str = "thread",
) -> list[SweepPoint]:
    """Error rate vs the weight-exponent lower clamp.

    The paper bounds e >= -7 so weights fit 4 bits; this sweep quantifies
    what that clamp costs relative to wider exponent ranges.
    """
    return parallel_map(
        [_SweepTask(net, calibration_x, test, f"e>={e}", min_exp=e) for e in min_exps],
        jobs=jobs,
        backend=backend,
    )


def _mode_points(net, calibration_x, test, modes, mode_kwargs, jobs, backend):
    """Evaluate the requested subset of a fixed mode set."""
    unknown = [m for m in modes if m not in mode_kwargs]
    if unknown:
        raise ValueError(f"unknown modes {unknown}; choose from {tuple(mode_kwargs)}")
    return parallel_map(
        [_SweepTask(net, calibration_x, test, m, **mode_kwargs[m]) for m in modes],
        jobs=jobs,
        backend=backend,
    )


def dynamic_vs_static(
    net: Network,
    calibration_x: np.ndarray,
    test: ArrayDataset,
    jobs: Optional[int] = 1,
    modes: Sequence[str] = ("dynamic", "static"),
    backend: str = "thread",
) -> list[SweepPoint]:
    """Per-layer (dynamic) vs global (static) fixed-point radix."""
    mode_kwargs = {"dynamic": {"dynamic": True}, "static": {"dynamic": False}}
    return _mode_points(net, calibration_x, test, modes, mode_kwargs, jobs, backend)


def stochastic_vs_deterministic(
    net: Network,
    calibration_x: np.ndarray,
    test: ArrayDataset,
    rng: Optional[np.random.Generator] = None,
    jobs: Optional[int] = 1,
    modes: Sequence[str] = ("deterministic", "stochastic"),
    backend: str = "thread",
) -> list[SweepPoint]:
    """The weight-rounding-mode comparison of Section 4.1.

    The stochastic point owns the ``rng`` exclusively (the deterministic
    point draws nothing), so the pair can safely run in parallel — and a
    pickled generator replays the same draws, so the process backend
    returns the same point.
    """
    rng = rng or np.random.default_rng(0)  # repro-lint: disable=rng-discipline (deterministic fallback; sweep points derive child streams from this parent)
    mode_kwargs = {
        "deterministic": {"weight_mode": "deterministic"},
        "stochastic": {"weight_mode": "stochastic", "rng": rng},
    }
    return _mode_points(net, calibration_x, test, modes, mode_kwargs, jobs, backend)
