"""Golden test-vector generation for RTL verification.

A codesign repository ships verification collateral alongside the model:
this module emits stimulus/expected-response vectors for the Figure 2(a)
neuron that an RTL testbench can replay against the synthesized design.
Each vector exercises one full neuron computation (16 synapses, one
accumulate cycle, Accumulator & Routing emit); the expected responses
come from the bit-accurate Python model, which the test suite proves
equivalent to the quantized software simulation.

File format (one vector per line, whitespace separated)::

    m n activation x0..x15 w0..w15 bias expected

where ``x`` are signed 8-bit input codes, ``w`` are 4-bit weight codes
(hex), ``bias`` is the signed accumulator-grid bias, and ``expected`` is
the signed 8-bit output code.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from repro.core.pow2 import pow2_code_fields
from repro.hw.datapath import datapath_widths
from repro.hw.neuron import Neuron


@dataclass(frozen=True)
class NeuronVector:
    """One stimulus/response pair for the neuron testbench."""

    m: int
    n: int
    activation: str
    x_codes: tuple
    w_codes: tuple
    bias_int: int
    expected: int

    def to_line(self) -> str:
        act = 1 if self.activation == "relu" else 0
        xs = " ".join(str(int(v)) for v in self.x_codes)
        ws = " ".join(f"{int(v):x}" for v in self.w_codes)
        return f"{self.m} {self.n} {act} {xs} {ws} {self.bias_int} {self.expected}"

    @classmethod
    def from_line(cls, line: str) -> "NeuronVector":
        parts = line.split()
        if len(parts) != 3 + 16 + 16 + 2:
            raise ValueError(f"malformed vector line ({len(parts)} fields)")
        m, n, act = int(parts[0]), int(parts[1]), int(parts[2])
        xs = tuple(int(v) for v in parts[3:19])
        ws = tuple(int(v, 16) for v in parts[19:35])
        return cls(
            m=m,
            n=n,
            activation="relu" if act else "none",
            x_codes=xs,
            w_codes=ws,
            bias_int=int(parts[35]),
            expected=int(parts[36]),
        )


def _expected_output(vector_inputs) -> int:
    m, n, activation, x_codes, w_codes, bias_int = vector_inputs
    sign, exp = pow2_code_fields(np.array(w_codes, dtype=np.uint8))
    return Neuron().compute_output(
        np.array(x_codes, dtype=np.int64), sign, exp, bias_int, m, n, activation
    )


def generate_neuron_vectors(
    count: int = 256,
    rng: Optional[np.random.Generator] = None,
    include_corners: bool = True,
) -> list[NeuronVector]:
    """Random + corner-case neuron vectors with golden responses.

    Corner cases cover the datapath extremes: all-max positive/negative
    products (adder-tree saturation headroom), all-zero inputs, and the
    bias-only path.
    """
    rng = rng or np.random.default_rng(0)  # repro-lint: disable=rng-discipline (golden test-vector sets are defined by this fixed seed)
    top = datapath_widths(8).code_max  # the format carries the paper's 8-bit neuron
    cases = []
    if include_corners:
        cases.append((0, 0, "none", (top,) * 16, (0x0,) * 16, 0))        # +max products
        cases.append((0, 0, "none", (top,) * 16, (0x8,) * 16, 0))        # -max products
        cases.append((4, 4, "relu", (0,) * 16, (0x7,) * 16, 0))          # zeros
        cases.append((4, 4, "none", (0,) * 16, (0x0,) * 16, 2047))       # bias only
        cases.append((7, 0, "relu", (-top,) * 16, (0x8,) * 16, -1))      # sign interplay
    while len(cases) < count:
        m = int(rng.integers(0, 8))
        n = int(rng.integers(0, 8))
        activation = "relu" if rng.random() < 0.5 else "none"
        xs = tuple(int(v) for v in rng.integers(-top, top + 1, size=16))
        ws = tuple(int(v) for v in rng.integers(0, 16, size=16))
        bias = int(rng.integers(-(2**12), 2**12))
        cases.append((m, n, activation, xs, ws, bias))
    vectors = []
    for case in cases[:count]:
        vectors.append(
            NeuronVector(
                m=case[0],
                n=case[1],
                activation=case[2],
                x_codes=case[3],
                w_codes=case[4],
                bias_int=case[5],
                expected=_expected_output(case),
            )
        )
    return vectors


def write_vectors(vectors: list[NeuronVector], path) -> None:
    """Write vectors to a plain-text file (one per line, with header)."""
    with open(path, "w") as f:
        f.write("# m n act x0..x15 w0..w15(hex) bias expected\n")
        for v in vectors:
            f.write(v.to_line() + "\n")


def read_vectors(path) -> list[NeuronVector]:
    """Read a vector file written by :func:`write_vectors`."""
    vectors = []
    with open(path) as f:
        for line in f:
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            vectors.append(NeuronVector.from_line(line))
    return vectors


def verify_vectors(vectors: list[NeuronVector]) -> int:
    """Replay vectors against the Python model; returns mismatch count."""
    mismatches = 0
    for v in vectors:
        got = _expected_output((v.m, v.n, v.activation, v.x_codes, v.w_codes, v.bias_int))
        if got != v.expected:
            mismatches += 1
    return mismatches
