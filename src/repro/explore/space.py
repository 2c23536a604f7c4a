"""The co-design grid: quantization knobs × NPU configuration × technology.

A :class:`DesignSpace` is a declarative cross product over the axes the
paper's Table-2/Fig-3 story trades against each other — activation bit
width, weight-exponent clamp, rounding mode, processing-unit count, and
the technology corner pricing the silicon.  Points enumerate in a fixed
lexicographic order (the declared axis order, each axis in its declared
sequence), so a point's ``index`` is a stable identity: the explorer's
per-point RNG streams, checkpoints, and resume logic all key on it.

Spaces round-trip losslessly through :meth:`DesignSpace.spec` /
:meth:`DesignSpace.from_spec` — the exploration checkpointer embeds the
spec so a resumed search can refuse to mix rows from a different grid.
"""

from __future__ import annotations

import itertools
import numbers
from dataclasses import dataclass

from repro.hw.cost import TECHNOLOGY_PRESETS
from repro.hw.datapath import MAX_BITS, MIN_BITS

#: Rounding modes understood by ``MFDFPNetwork.from_float``.
WEIGHT_MODES = ("deterministic", "stochastic")


class DesignSpaceError(ValueError):
    """A design-space declaration is empty, malformed, or out of range."""


def _int_axis(name: str, values, lo: int, hi: int) -> tuple:
    values = tuple(values)
    if not values:
        raise DesignSpaceError(f"{name} axis must not be empty")
    out = []
    for v in values:
        if isinstance(v, bool) or not isinstance(v, numbers.Integral):
            raise DesignSpaceError(f"{name} values must be integers, got {v!r}")
        v = int(v)
        if not lo <= v <= hi:
            raise DesignSpaceError(f"{name} values must be in [{lo}, {hi}], got {v}")
        out.append(v)
    if len(set(out)) != len(out):
        raise DesignSpaceError(f"{name} axis has duplicate values: {values}")
    return tuple(out)


@dataclass(frozen=True)
class DesignPoint:
    """One candidate co-design: quantization format + NPU + technology.

    ``index`` is the point's position in its space's lexicographic
    enumeration — the stable key for RNG derivation and checkpoints.
    """

    index: int
    bits: int
    min_exp: int
    weight_mode: str
    num_pus: int
    technology: str

    @property
    def label(self) -> str:
        return (
            f"b{self.bits}/e{self.min_exp}/{self.weight_mode[:5]}"
            f"/pu{self.num_pus}/{self.technology}"
        )


@dataclass(frozen=True)
class DesignSpace:
    """A cross product of co-design axes, enumerated lexicographically.

    Axis order is fixed (bits, min_exps, weight_modes, num_pus,
    technologies); each axis iterates in its declared sequence.  The
    default space is the paper's neighborhood: 4/8-bit activations, the
    e ≥ -7 clamp against a looser one, deterministic rounding, one or
    two processing units, the 65 nm synthesis node.
    """

    bits: tuple = (4, 8)
    min_exps: tuple = (-7, -9)
    weight_modes: tuple = ("deterministic",)
    num_pus: tuple = (1, 2)
    technologies: tuple = ("65nm",)

    def __post_init__(self):
        object.__setattr__(self, "bits", _int_axis("bits", self.bits, MIN_BITS, MAX_BITS))
        object.__setattr__(self, "min_exps", _int_axis("min_exps", self.min_exps, -32, -1))
        object.__setattr__(self, "num_pus", _int_axis("num_pus", self.num_pus, 1, 8))
        modes = tuple(self.weight_modes)
        if not modes:
            raise DesignSpaceError("weight_modes axis must not be empty")
        for mode in modes:
            if mode not in WEIGHT_MODES:
                raise DesignSpaceError(
                    f"unknown weight mode {mode!r}; choose from {WEIGHT_MODES}"
                )
        if len(set(modes)) != len(modes):
            raise DesignSpaceError(f"weight_modes axis has duplicate values: {modes}")
        object.__setattr__(self, "weight_modes", modes)
        techs = tuple(self.technologies)
        if not techs:
            raise DesignSpaceError("technologies axis must not be empty")
        for tech in techs:
            if tech not in TECHNOLOGY_PRESETS:
                known = ", ".join(sorted(TECHNOLOGY_PRESETS))
                raise DesignSpaceError(f"unknown technology {tech!r} (known: {known})")
        if len(set(techs)) != len(techs):
            raise DesignSpaceError(f"technologies axis has duplicate values: {techs}")
        object.__setattr__(self, "technologies", techs)

    def __len__(self) -> int:
        return (
            len(self.bits)
            * len(self.min_exps)
            * len(self.weight_modes)
            * len(self.num_pus)
            * len(self.technologies)
        )

    def points(self) -> list[DesignPoint]:
        """Every point, in the space's canonical lexicographic order."""
        return [
            DesignPoint(index=i, bits=b, min_exp=e, weight_mode=m, num_pus=n, technology=t)
            for i, (b, e, m, n, t) in enumerate(
                itertools.product(
                    self.bits, self.min_exps, self.weight_modes, self.num_pus, self.technologies
                )
            )
        ]

    def spec(self) -> dict:
        """A JSON-serializable description that round-trips the space."""
        return {
            "bits": list(self.bits),
            "min_exps": list(self.min_exps),
            "weight_modes": list(self.weight_modes),
            "num_pus": list(self.num_pus),
            "technologies": list(self.technologies),
        }

    @classmethod
    def from_spec(cls, spec: dict) -> "DesignSpace":
        """Rebuild a space from :meth:`spec` output (validates everything)."""
        if not isinstance(spec, dict):
            raise DesignSpaceError(f"space spec must be a dict, got {type(spec).__name__}")
        missing = {"bits", "min_exps", "weight_modes", "num_pus", "technologies"} - set(spec)
        if missing:
            raise DesignSpaceError(f"space spec missing axes: {sorted(missing)}")
        return cls(
            bits=tuple(spec["bits"]),
            min_exps=tuple(spec["min_exps"]),
            weight_modes=tuple(spec["weight_modes"]),
            num_pus=tuple(spec["num_pus"]),
            technologies=tuple(spec["technologies"]),
        )
