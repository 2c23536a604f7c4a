"""Versioned single-file artifact container and its typed error hierarchy.

Every artifact the reproduction persists — deployed MF-DFP networks,
float network weights, optimizer state, training checkpoints, full
:class:`~repro.core.pipeline.MFDFPResult` objects — travels in one
container format: an ``.npz`` whose ``__header__`` entry is a JSON
document ``{magic, format_version, kind, meta}`` and whose remaining
entries are the integer/float tensors.  The header carries everything
JSON-able (geometry, radix indices, RNG states, loss curves); the arrays
carry everything bit-exact.

Integrity is layered:

* **container level** — unreadable zips, truncated files and mangled
  JSON raise :class:`ArtifactCorruptError`; an unknown
  ``format_version`` raises :class:`ArtifactVersionError` *before* any
  reconstruction is attempted.
* **schema level** — missing fields, wrong types, out-of-range weight
  codes and shape mismatches raise :class:`ArtifactSchemaError` with
  the offending field named.
* **content level** — deployed artifacts embed their
  :func:`~repro.core.engine.engine_fingerprint`; a load whose
  recomputed fingerprint differs from the stored one raises
  :class:`ArtifactCorruptError`, so bit rot that survives the zip CRC
  still cannot reach the serving registry.

All three are :class:`ArtifactError`, which subclasses ``ValueError``
so callers that catch ``ValueError`` keep working.

Version 1 is the legacy pre-container layout (deployed networks
only, no magic, no fingerprint, no ``groups`` field); its loader lives
here so every artifact ever written stays loadable.  Version 2 is the
current container.  ``DEPLOYED_LOADERS`` maps each supported version to
its loader — the format-stability test requires an entry per version,
so bumping :data:`FORMAT_VERSION` without writing a loader branch fails
tier-1.
"""

from __future__ import annotations

import json
import os
from dataclasses import asdict
from pathlib import Path
from typing import Optional

import numpy as np

from repro.chaos.registry import inject, register_site
from repro.core.dfp import DFPFormat
from repro.core.engine import engine_fingerprint
from repro.core.mfdfp import DeployedLayer, DeployedMFDFP
from repro.core.quantizer import LayerQuantSpec, QuantizationPlan

#: Current container format version.  Bumping it requires adding the
#: matching loader branch to :data:`DEPLOYED_LOADERS` (enforced by
#: ``tests/io/test_golden_artifact.py``).
FORMAT_VERSION = 2

#: Marker distinguishing container files from the legacy v1 layout.
MAGIC = "repro-artifact"

register_site(
    "io.artifact.write",
    layer="io",
    description="after an atomic container write lands at its final path; "
    "faults here tear or corrupt the durable bytes (storage that lied)",
)
register_site(
    "io.artifact.read",
    layer="io",
    description="before a container file is opened; faults here corrupt the "
    "file or raise typed read errors the load path must classify",
)


class ArtifactError(ValueError):
    """Base class for artifact persistence failures.

    Subclasses ``ValueError``, the error contract of the original
    version-1 loader.
    """


class ArtifactCorruptError(ArtifactError):
    """The file is unreadable, truncated, or fails an integrity check."""


class ArtifactSchemaError(ArtifactError):
    """The file parses but a required field is missing or mistyped."""


class ArtifactVersionError(ArtifactError):
    """The file declares a format version this code cannot load."""


# -- container level -------------------------------------------------------------
def _header_array(header: dict) -> np.ndarray:
    return np.frombuffer(json.dumps(header).encode(), dtype=np.uint8)


def write_container(path, kind: str, meta: dict, arrays: dict[str, np.ndarray]) -> None:
    """Write one artifact: JSON header + named arrays in a single npz.

    The write is atomic (temp file + ``os.replace`` in the target
    directory): a process killed mid-write — e.g. during the very
    epoch-boundary checkpoint whose survival this format exists for —
    leaves the previous file intact rather than a truncated newest one.
    The dot-prefixed temp name is invisible to every checkpoint/store
    glob, so a leftover from a kill is inert.
    """
    for key in arrays:
        if key.startswith("__"):
            raise ArtifactError(f"array name {key!r} collides with the reserved header slot")
    header = {"magic": MAGIC, "format_version": FORMAT_VERSION, "kind": kind, "meta": meta}
    final = Path(path)
    if final.suffix != ".npz":  # np.savez would silently append .npz
        final = final.with_name(final.name + ".npz")
    tmp = final.with_name(f".tmp.{os.getpid()}.{final.name}")
    try:
        np.savez(tmp, __header__=_header_array(header), **arrays)
        os.replace(tmp, final)
    finally:
        tmp.unlink(missing_ok=True)
    inject("io.artifact.write", path=final, kind=kind)


def _parse_header(raw: bytes, path, expect_kind: Optional[str]) -> dict:
    """Validate raw header bytes into a normalized header dict."""
    try:
        header = json.loads(raw.decode())
    except Exception as exc:
        raise ArtifactCorruptError(f"{path}: artifact header is not valid JSON") from exc
    if not isinstance(header, dict):
        raise ArtifactCorruptError(f"{path}: artifact header must be a JSON object")

    if "magic" not in header:
        # Legacy version-1 layout: the header *is* the deployed meta.
        version = header.get("format_version")
        if version == 1 and isinstance(header.get("ops"), list):
            header = {"magic": MAGIC, "format_version": 1, "kind": "deployed", "meta": header}
        else:
            raise ArtifactVersionError(
                f"{path}: unsupported format version {version!r} "
                f"(supported: 1..{FORMAT_VERSION})"
            )
    if header.get("magic") != MAGIC:
        raise ArtifactCorruptError(
            f"{path}: bad artifact magic {header.get('magic')!r} (expected {MAGIC!r})"
        )
    version = header.get("format_version")
    if not isinstance(version, int) or not 1 <= version <= FORMAT_VERSION:
        raise ArtifactVersionError(
            f"{path}: unsupported format version {version!r} (supported: 1..{FORMAT_VERSION})"
        )
    if not isinstance(header.get("kind"), str) or not isinstance(header.get("meta"), dict):
        raise ArtifactSchemaError(f"{path}: artifact header is missing 'kind'/'meta'")
    if expect_kind is not None and header["kind"] != expect_kind:
        raise ArtifactSchemaError(
            f"{path}: artifact kind is {header['kind']!r}, expected {expect_kind!r}"
        )
    return header


def _load_entries(path, want_arrays: bool) -> tuple[bytes, dict]:
    try:
        # Inside the try on purpose: an injected fault that raises a raw
        # error exercises (and is converted by) the same classification
        # the real failure modes go through.
        inject("io.artifact.read", path=path)
        with np.load(path) as data:
            if "__header__" not in data.files:
                raise ArtifactSchemaError(
                    f"{path} is not a deployed MF-DFP file (missing header)"
                )
            raw = bytes(data["__header__"])
            arrays = (
                {k: data[k] for k in data.files if k != "__header__"} if want_arrays else {}
            )
    except ArtifactError:
        raise
    except Exception as exc:  # BadZipFile, OSError, zlib/pickle errors, ...
        raise ArtifactCorruptError(f"{path}: unreadable artifact container: {exc}") from exc
    return raw, arrays


def read_container(path, expect_kind: Optional[str] = None) -> tuple[dict, dict]:
    """Read an artifact container; returns ``(header, arrays)``.

    Accepts both the current container layout and legacy version-1
    deployed files (which are normalized to a synthetic v1 header).
    Raises the typed :class:`ArtifactError` hierarchy — never a raw
    zip/JSON/numpy exception — on any malformed input.
    """
    raw, arrays = _load_entries(path, want_arrays=True)
    return _parse_header(raw, path, expect_kind), arrays


def read_header(path) -> dict:
    """Read only the JSON header of an artifact (cheap: no tensor data).

    Tensor entries stay on disk (``NpzFile`` is lazy), so listing a
    store or re-checking fingerprints on publish never decompresses
    weight arrays.
    """
    raw, _ = _load_entries(path, want_arrays=False)
    return _parse_header(raw, path, None)


# -- schema-level helpers --------------------------------------------------------
def _field(meta: dict, name: str, types, ctx: str):
    if name not in meta:
        raise ArtifactSchemaError(f"{ctx}: missing required field {name!r}")
    value = meta[name]
    if not isinstance(value, types):
        raise ArtifactSchemaError(
            f"{ctx}: field {name!r} has type {type(value).__name__}, "
            f"expected {types if isinstance(types, type) else '/'.join(t.__name__ for t in types)}"
        )
    return value


def _int_field(meta: dict, name: str, ctx: str) -> int:
    value = _field(meta, name, (int, bool), ctx)
    if isinstance(value, bool):
        raise ArtifactSchemaError(f"{ctx}: field {name!r} must be an integer, got bool")
    return value


def _check_integer_array(arr: np.ndarray, ctx: str) -> np.ndarray:
    if not np.issubdtype(arr.dtype, np.integer):
        raise ArtifactSchemaError(f"{ctx}: expected an integer array, got dtype {arr.dtype}")
    return arr


def _pack(prefix: str, mapping: dict[str, np.ndarray]) -> dict[str, np.ndarray]:
    return {f"{prefix}/{name}": value for name, value in mapping.items()}


def _unpack(arrays: dict[str, np.ndarray], prefix: str) -> dict[str, np.ndarray]:
    cut = len(prefix) + 1
    return {key[cut:]: value for key, value in arrays.items() if key.startswith(prefix + "/")}


# -- deployed networks -----------------------------------------------------------
#: Scalar DeployedLayer fields carried in the header, with their types.
_OP_META_FIELDS = {
    "kind": str,
    "name": str,
    "in_frac": int,
    "out_frac": int,
    "activation": str,
    "in_channels": int,
    "out_channels": int,
    "kernel_size": int,
    "stride": int,
    "pad": int,
    "groups": int,
    "ceil_mode": bool,
    "in_features": int,
    "out_features": int,
}

#: Fields absent from legacy v1 files (with the value v1 implied).
_V1_OP_DEFAULTS = {"groups": 1}


def deployed_meta(deployed: DeployedMFDFP) -> dict:
    """Header metadata of a deployed network, fingerprint included."""
    return {
        "name": deployed.name,
        "input_shape": list(deployed.input_shape),
        "input_frac": deployed.input_frac,
        "bits": deployed.bits,
        "fingerprint": engine_fingerprint(deployed),
        "ops": [
            {field: getattr(op, field) for field in _OP_META_FIELDS} for op in deployed.ops
        ],
    }


def deployed_arrays(deployed: DeployedMFDFP, prefix: str = "op") -> dict[str, np.ndarray]:
    """Tensor entries of a deployed network (canonical dtypes)."""
    arrays: dict[str, np.ndarray] = {}
    for i, op in enumerate(deployed.ops):
        if op.weight_codes is not None:
            arrays[f"{prefix}{i}.weight_codes"] = np.ascontiguousarray(
                op.weight_codes, dtype=np.uint8
            )
        if op.bias_int is not None:
            arrays[f"{prefix}{i}.bias_int"] = np.ascontiguousarray(op.bias_int, dtype=np.int64)
    return arrays


def save_deployed(deployed: DeployedMFDFP, path) -> None:
    """Write a deployed MF-DFP network as a version-2 container."""
    write_container(path, "deployed", deployed_meta(deployed), deployed_arrays(deployed))


def _validate_op_meta(op_meta, index: int, ctx: str, v1: bool) -> dict:
    if not isinstance(op_meta, dict):
        raise ArtifactSchemaError(f"{ctx}: op {index} metadata must be an object")
    octx = f"{ctx}: op {index}"
    fields = {}
    for name, typ in _OP_META_FIELDS.items():
        if v1 and name in _V1_OP_DEFAULTS and name not in op_meta:
            fields[name] = _V1_OP_DEFAULTS[name]
            continue
        if typ is int:
            fields[name] = _int_field(op_meta, name, octx)
        else:
            fields[name] = _field(op_meta, name, typ, octx)
    unknown = set(op_meta) - set(_OP_META_FIELDS)
    if unknown:
        raise ArtifactSchemaError(f"{octx}: unknown fields {sorted(unknown)}")
    return fields


def _attach_op_tensors(op: DeployedLayer, arrays: dict, index: int, ctx: str, v1: bool) -> None:
    octx = f"{ctx}: op {index} ({op.name})"
    key = f"op{index}.weight_codes"
    if key in arrays:
        codes = _check_integer_array(arrays[key], f"{octx} weight_codes")
        if v1:
            shape_key = f"op{index}.weight_shape"
            if shape_key in arrays:
                shape = tuple(int(v) for v in arrays[shape_key])
                if int(np.prod(shape)) != codes.size:
                    raise ArtifactSchemaError(
                        f"{octx}: weight_codes size {codes.size} does not match "
                        f"recorded shape {shape}"
                    )
                codes = codes.reshape(shape)
        if codes.size and (codes.min() < 0 or codes.max() > 0x0F):
            raise ArtifactSchemaError(f"{octx}: weight codes exceed 4 bits")
        op.weight_codes = codes
    bkey = f"op{index}.bias_int"
    if bkey in arrays:
        op.bias_int = _check_integer_array(arrays[bkey], f"{octx} bias_int")


def _load_deployed_meta(meta: dict, arrays: dict, path, v1: bool) -> DeployedMFDFP:
    ctx = str(path)
    name = _field(meta, "name", str, ctx)
    input_shape = _field(meta, "input_shape", list, ctx)
    if not all(isinstance(v, int) and not isinstance(v, bool) for v in input_shape):
        raise ArtifactSchemaError(f"{ctx}: input_shape entries must be integers")
    deployed = DeployedMFDFP(
        name=name,
        input_shape=tuple(input_shape),
        input_frac=_int_field(meta, "input_frac", ctx),
        bits=_int_field(meta, "bits", ctx),
    )
    ops_meta = _field(meta, "ops", list, ctx)
    for i, op_meta in enumerate(ops_meta):
        op = DeployedLayer(**_validate_op_meta(op_meta, i, ctx, v1=v1))
        _attach_op_tensors(op, arrays, i, ctx, v1=v1)
        deployed.ops.append(op)
    return deployed


def _load_deployed_v1(meta: dict, arrays: dict, path) -> DeployedMFDFP:
    return _load_deployed_meta(meta, arrays, path, v1=True)


def _load_deployed_v2(meta: dict, arrays: dict, path) -> DeployedMFDFP:
    return _load_deployed_meta(meta, arrays, path, v1=False)


#: Loader branch per supported container version.  The format-stability
#: guard requires ``set(DEPLOYED_LOADERS) == {1..FORMAT_VERSION}``.
DEPLOYED_LOADERS = {1: _load_deployed_v1, 2: _load_deployed_v2}


def load_deployed(path) -> DeployedMFDFP:
    """Read a deployed MF-DFP network (current or legacy format).

    Validates every field and tensor before reconstruction and verifies
    the stored content fingerprint (when present) against the loaded
    tensors.  Raises :class:`ArtifactError` subclasses on any problem.
    """
    header, arrays = read_container(path, expect_kind="deployed")
    loader = DEPLOYED_LOADERS[header["format_version"]]
    deployed = loader(header["meta"], arrays, path)
    stored = header["meta"].get("fingerprint")
    if stored is not None:
        actual = engine_fingerprint(deployed)
        if actual != stored:
            raise ArtifactCorruptError(
                f"{path}: content fingerprint mismatch "
                f"(stored {stored!r}, recomputed {actual!r})"
            )
    return deployed


# -- float networks --------------------------------------------------------------
def network_meta(net) -> dict:
    return {
        "name": net.name,
        "input_shape": None if net.input_shape is None else list(net.input_shape),
        "params": [
            {"name": p.name, "dtype": str(p.data.dtype), "shape": list(p.shape)}
            for p in net.params
        ],
    }


def save_network(net, path) -> None:
    """Persist a float network's parameters (dtype-exact)."""
    write_container(
        path, "network", network_meta(net), _pack("weights", {p.name: p.data for p in net.params})
    )


def load_network_state(path) -> dict[str, np.ndarray]:
    """Load a network artifact's parameters as a name → array dict."""
    header, arrays = read_container(path, expect_kind="network")
    meta = header["meta"]
    ctx = str(path)
    weights = _unpack(arrays, "weights")
    for spec in _field(meta, "params", list, ctx):
        name = _field(spec, "name", str, ctx)
        if name not in weights:
            raise ArtifactSchemaError(f"{ctx}: missing tensor for parameter {name!r}")
        arr = weights[name]
        if str(arr.dtype) != spec.get("dtype"):
            raise ArtifactSchemaError(
                f"{ctx}: parameter {name!r} has dtype {arr.dtype}, "
                f"header says {spec.get('dtype')!r}"
            )
        if list(arr.shape) != spec.get("shape"):
            raise ArtifactSchemaError(
                f"{ctx}: parameter {name!r} has shape {list(arr.shape)}, "
                f"header says {spec.get('shape')}"
            )
    return weights


def load_network_into(net, path) -> None:
    """Restore a network artifact into ``net`` (strict name/shape match)."""
    weights = load_network_state(path)
    try:
        net.set_weights(weights)
    except (KeyError, ValueError) as exc:
        raise ArtifactSchemaError(f"{path}: artifact does not match network: {exc}") from exc


# -- optimizer state -------------------------------------------------------------
def save_optimizer(optimizer, path) -> None:
    """Persist an SGD optimizer's hyper-parameters and velocity state."""
    state = optimizer.state_dict()
    velocity = state.pop("velocity")
    write_container(path, "optimizer", state, _pack("velocity", velocity))


def load_optimizer_state(path) -> dict:
    """Load an optimizer artifact back into ``SGD.load_state_dict`` form."""
    header, arrays = read_container(path, expect_kind="optimizer")
    meta = dict(header["meta"])
    ctx = str(path)
    for name in ("lr", "momentum", "weight_decay"):
        _field(meta, name, (int, float), ctx)
    meta["velocity"] = _unpack(arrays, "velocity")
    return meta


# -- quantization plans ----------------------------------------------------------
def plan_to_meta(plan: QuantizationPlan) -> dict:
    """JSON-able encoding of a quantization plan."""
    return {
        "bits": plan.bits,
        "input_fmt": {"bits": plan.input_fmt.bits, "frac": plan.input_fmt.frac},
        "min_exp": plan.min_exp,
        "max_exp": plan.max_exp,
        "dynamic": plan.dynamic,
        "layers": [
            {
                "layer_name": s.layer_name,
                "in_fmt": {"bits": s.in_fmt.bits, "frac": s.in_fmt.frac},
                "out_fmt": {"bits": s.out_fmt.bits, "frac": s.out_fmt.frac},
                "quantize_output": s.quantize_output,
                "quantize_weights": s.quantize_weights,
            }
            for s in plan.layers
        ],
    }


def _fmt(meta: dict, ctx: str) -> DFPFormat:
    return DFPFormat(_int_field(meta, "bits", ctx), _int_field(meta, "frac", ctx))


def plan_from_meta(meta: dict, ctx: str = "plan") -> QuantizationPlan:
    """Rebuild a :class:`QuantizationPlan` from :func:`plan_to_meta` output."""
    plan = QuantizationPlan(
        bits=_int_field(meta, "bits", ctx),
        input_fmt=_fmt(_field(meta, "input_fmt", dict, ctx), ctx),
        min_exp=_int_field(meta, "min_exp", ctx),
        max_exp=_int_field(meta, "max_exp", ctx),
        dynamic=bool(_field(meta, "dynamic", bool, ctx)),
    )
    for spec in _field(meta, "layers", list, ctx):
        if not isinstance(spec, dict):
            raise ArtifactSchemaError(f"{ctx}: layer spec must be an object")
        plan.layers.append(
            LayerQuantSpec(
                layer_name=_field(spec, "layer_name", str, ctx),
                in_fmt=_fmt(_field(spec, "in_fmt", dict, ctx), ctx),
                out_fmt=_fmt(_field(spec, "out_fmt", dict, ctx), ctx),
                quantize_output=bool(_field(spec, "quantize_output", bool, ctx)),
                quantize_weights=bool(_field(spec, "quantize_weights", bool, ctx)),
            )
        )
    return plan


# -- trainer checkpoints ---------------------------------------------------------
def _trainer_state_split(state: dict) -> tuple[dict, dict[str, np.ndarray]]:
    """Split a ``Trainer.state_dict()`` into (JSON meta, tensor arrays)."""
    optimizer = dict(state["optimizer"])
    velocity = optimizer.pop("velocity")
    meta = {
        "optimizer": optimizer,
        "scheduler": state["scheduler"],
        "rng": state["rng"],
        "history": state["history"],
    }
    arrays = {**_pack("weights", state["weights"]), **_pack("velocity", velocity)}
    return meta, arrays


def _trainer_state_join(meta: dict, arrays: dict, ctx: str) -> dict:
    optimizer = dict(_field(meta, "optimizer", dict, ctx))
    optimizer["velocity"] = _unpack(arrays, "velocity")
    return {
        "weights": _unpack(arrays, "weights"),
        "optimizer": optimizer,
        "scheduler": _field(meta, "scheduler", (dict, type(None)), ctx)
        if "scheduler" in meta
        else None,
        "rng": _field(meta, "rng", dict, ctx),
        "history": _field(meta, "history", list, ctx),
    }


def save_checkpoint(path, trainer_state: dict, phase: str = "train", extra: Optional[dict] = None) -> None:
    """Persist one epoch-boundary training checkpoint.

    ``trainer_state`` is ``Trainer.state_dict()`` output; ``extra`` is
    an optional JSON-able dict stored alongside (e.g. run labels).
    """
    meta, arrays = _trainer_state_split(trainer_state)
    meta["phase"] = phase
    meta["extra"] = extra or {}
    write_container(path, "checkpoint", meta, arrays)


def load_checkpoint(path) -> tuple[str, dict, dict]:
    """Load a checkpoint; returns ``(phase, trainer_state, extra)``."""
    header, arrays = read_container(path, expect_kind="checkpoint")
    meta = header["meta"]
    ctx = str(path)
    state = _trainer_state_join(meta, arrays, ctx)
    return _field(meta, "phase", str, ctx), state, meta.get("extra", {})


# -- MF-DFP pipeline results -----------------------------------------------------
def _snapshot_arrays(snapshots) -> dict[str, np.ndarray]:
    arrays = {}
    for e, snap in enumerate(snapshots or []):
        arrays.update(_pack(f"snap{e}", snap))
    return arrays


def _snapshots_from_arrays(arrays: dict, count: int) -> list[dict]:
    return [_unpack(arrays, f"snap{e}") for e in range(count)]


def save_mfdfp_result(result, path, weight_mode: str = "deterministic") -> None:
    """Persist an :class:`~repro.core.pipeline.MFDFPResult`.

    Stores the quantization plan, the student's master weights, both
    phase histories, the float baseline error and the per-epoch phase-1
    quantized-weight snapshots.  ``weight_mode`` records how weight
    hooks should be reconstructed on load.
    """
    net = result.mfdfp.net
    snapshots = result.phase1_snapshots
    meta = {
        "plan": plan_to_meta(result.plan),
        "weight_mode": weight_mode,
        "float_val_error": result.float_val_error,
        "phase1_history": [asdict(e) for e in result.phase1.epochs],
        "phase2_history": [asdict(e) for e in result.phase2.epochs],
        "network": network_meta(net),
        "n_snapshots": 0 if snapshots is None else len(snapshots),
        "has_snapshots": snapshots is not None,
    }
    arrays = {
        **_pack("weights", {p.name: p.data for p in net.params}),
        **_snapshot_arrays(snapshots),
    }
    write_container(path, "mfdfp_result", meta, arrays)


def load_mfdfp_result(path, float_net, rng: Optional[np.random.Generator] = None):
    """Rebuild an :class:`~repro.core.pipeline.MFDFPResult` from disk.

    ``float_net`` supplies the architecture (it is converted in place:
    quantization hooks are attached per the stored plan and the stored
    master weights restored — the same in-place contract as
    ``run_algorithm1``).  ``rng`` seeds stochastic weight hooks when the
    artifact was trained with ``weight_mode="stochastic"``.
    """
    from repro.core.mfdfp import MFDFPNetwork
    from repro.core.pipeline import MFDFPResult
    from repro.core.quantizer import NetworkQuantizer
    from repro.nn.trainer import EpochResult, TrainHistory

    header, arrays = read_container(path, expect_kind="mfdfp_result")
    meta = header["meta"]
    ctx = str(path)
    plan = plan_from_meta(_field(meta, "plan", dict, ctx), ctx)
    weight_mode = _field(meta, "weight_mode", str, ctx)
    quantizer = NetworkQuantizer(
        bits=plan.bits,
        min_exp=plan.min_exp,
        max_exp=plan.max_exp,
        weight_mode=weight_mode,
        dynamic=plan.dynamic,
        rng=rng,
    )
    quantizer.apply(float_net, plan)
    try:
        float_net.set_weights(_unpack(arrays, "weights"))
    except (KeyError, ValueError) as exc:
        raise ArtifactSchemaError(f"{ctx}: artifact does not match network: {exc}") from exc
    snapshots = None
    if meta.get("has_snapshots"):
        snapshots = _snapshots_from_arrays(arrays, _int_field(meta, "n_snapshots", ctx))
    histories = []
    for key in ("phase1_history", "phase2_history"):
        entries = _field(meta, key, list, ctx)
        try:
            histories.append(TrainHistory([EpochResult(**e) for e in entries]))
        except TypeError as exc:
            raise ArtifactSchemaError(f"{ctx}: malformed {key}: {exc}") from exc
    return MFDFPResult(
        mfdfp=MFDFPNetwork(float_net, plan),
        plan=plan,
        phase1=histories[0],
        phase2=histories[1],
        float_val_error=float(_field(meta, "float_val_error", (int, float), ctx)),
        phase1_snapshots=snapshots,
    )
