"""Deployed-network round trips through repro.io: fields, memory, legacy v1.

Container-level errors and round-trip execution are covered in
``test_artifacts.py``; the committed golden files in
``test_golden_artifact.py``.
"""

import json

import numpy as np
import pytest

from repro.core.engine import execute_deployed
from repro.core.mfdfp import MFDFPNetwork
from repro.io import ArtifactSchemaError, load_deployed, save_deployed
from repro.zoo import cifar10_small


@pytest.fixture
def deployed(rng):
    net = cifar10_small(size=16, dtype=np.float64)
    mf = MFDFPNetwork.from_float(net, rng.normal(size=(8, 3, 16, 16)))
    return mf.deploy()


class TestRoundtrip:
    def test_metadata_preserved(self, deployed, tmp_path):
        path = tmp_path / "net.npz"
        save_deployed(deployed, path)
        loaded = load_deployed(path)
        assert loaded.name == deployed.name
        assert loaded.input_shape == deployed.input_shape
        assert loaded.input_frac == deployed.input_frac
        assert loaded.bits == deployed.bits
        assert len(loaded.ops) == len(deployed.ops)

    def test_op_fields_preserved(self, deployed, tmp_path):
        path = tmp_path / "net.npz"
        save_deployed(deployed, path)
        loaded = load_deployed(path)
        for a, b in zip(deployed.ops, loaded.ops):
            assert a.kind == b.kind
            assert a.in_frac == b.in_frac
            assert a.out_frac == b.out_frac
            assert a.activation == b.activation

    def test_weights_bit_identical(self, deployed, tmp_path):
        path = tmp_path / "net.npz"
        save_deployed(deployed, path)
        loaded = load_deployed(path)
        for a, b in zip(deployed.ops, loaded.ops):
            if a.weight_codes is None:
                assert b.weight_codes is None
            else:
                assert np.array_equal(a.weight_codes, b.weight_codes)
                assert np.array_equal(a.bias_int, b.bias_int)

    def test_memory_accounting_preserved(self, deployed, tmp_path):
        path = tmp_path / "net.npz"
        save_deployed(deployed, path)
        loaded = load_deployed(path)
        assert loaded.parameter_count() == deployed.parameter_count()
        assert loaded.weight_memory_mb() == deployed.weight_memory_mb()


def _rewrite_header(src, dst, mutate):
    with np.load(src) as data:
        arrays = {k: data[k] for k in data.files if k != "__header__"}
        header = json.loads(bytes(data["__header__"]).decode())
    np.savez(
        dst,
        __header__=np.frombuffer(json.dumps(mutate(header)).encode(), dtype=np.uint8),
        **arrays,
    )
    return dst


class TestErrors:
    def test_missing_field_rejected_before_reconstruction(self, deployed, tmp_path):
        """Regression: a dropped header field used to surface as a raw
        KeyError/TypeError deep inside DeployedLayer reconstruction."""
        path = tmp_path / "net.npz"
        save_deployed(deployed, path)

        def drop_field(h):
            h = json.loads(json.dumps(h))
            del h["meta"]["ops"][0]["kernel_size"]
            return h

        bad = _rewrite_header(path, tmp_path / "bad.npz", drop_field)
        with pytest.raises(ArtifactSchemaError, match="kernel_size"):
            load_deployed(bad)


class TestLegacyCompat:
    def test_v1_artifact_loads_and_runs(self, deployed, tmp_path):
        """A file written by the seed-era exporter still loads (and runs)."""
        # Byte layout of the original version-1 writer.
        v1_fields = (
            "kind", "name", "in_frac", "out_frac", "activation", "in_channels",
            "out_channels", "kernel_size", "stride", "pad", "ceil_mode",
            "in_features", "out_features",
        )
        header = {
            "format_version": 1,
            "name": deployed.name,
            "input_shape": list(deployed.input_shape),
            "input_frac": deployed.input_frac,
            "bits": deployed.bits,
            "ops": [{f: getattr(op, f) for f in v1_fields} for op in deployed.ops],
        }
        arrays = {"__header__": np.frombuffer(json.dumps(header).encode(), dtype=np.uint8)}
        for i, op in enumerate(deployed.ops):
            if op.weight_codes is not None:
                arrays[f"op{i}.weight_codes"] = op.weight_codes
                arrays[f"op{i}.weight_shape"] = np.array(op.weight_codes.shape, dtype=np.int64)
            if op.bias_int is not None:
                arrays[f"op{i}.bias_int"] = op.bias_int
        path = tmp_path / "legacy.npz"
        np.savez(path, **arrays)

        loaded = load_deployed(path)
        x = np.random.default_rng(3).normal(size=(4, 3, 16, 16))
        assert np.array_equal(execute_deployed(deployed, x), execute_deployed(loaded, x))
