"""Unit tests of the artifact container: codecs, validation, typed errors."""

import json

import numpy as np
import pytest

from repro.core.engine import engine_fingerprint, execute_deployed
from repro.core.mfdfp import MFDFPNetwork, deploy_calibrated
from repro.io import (
    ArtifactCorruptError,
    ArtifactError,
    ArtifactSchemaError,
    ArtifactVersionError,
    load_deployed,
    load_mfdfp_result,
    load_network_into,
    load_network_state,
    load_optimizer_state,
    read_container,
    save_deployed,
    save_mfdfp_result,
    save_network,
    save_optimizer,
    write_container,
)
from repro.io.artifacts import MAGIC, plan_from_meta, plan_to_meta
from repro.nn import SGD
from repro.zoo import cifar10_small


@pytest.fixture
def tiny_net(rng):
    return cifar10_small(size=8, width=4, rng=np.random.default_rng(3), dtype=np.float32)


@pytest.fixture
def deployed(rng):
    net = cifar10_small(size=8, width=4, rng=np.random.default_rng(3), dtype=np.float64)
    return deploy_calibrated(net, rng.normal(size=(16, 3, 8, 8)))


def _mangle_header(path, out, mutate):
    """Rewrite an artifact with its JSON header transformed by ``mutate``."""
    with np.load(path) as data:
        arrays = {k: data[k] for k in data.files if k != "__header__"}
        header = json.loads(bytes(data["__header__"]).decode())
    header = mutate(header)
    np.savez(out, __header__=np.frombuffer(json.dumps(header).encode(), dtype=np.uint8), **arrays)
    return out


class TestContainer:
    def test_roundtrip(self, tmp_path):
        path = tmp_path / "c.npz"
        write_container(path, "network", {"a": 1}, {"x": np.arange(5)})
        header, arrays = read_container(path, expect_kind="network")
        assert header["magic"] == MAGIC
        assert header["meta"] == {"a": 1}
        assert np.array_equal(arrays["x"], np.arange(5))

    def test_reserved_array_name_rejected(self, tmp_path):
        with pytest.raises(ValueError, match="reserved"):
            write_container(tmp_path / "c.npz", "network", {}, {"__header__": np.zeros(1)})

    def test_missing_file(self, tmp_path):
        with pytest.raises(ArtifactCorruptError):
            read_container(tmp_path / "nope.npz")

    def test_not_a_zip(self, tmp_path):
        path = tmp_path / "garbage.npz"
        path.write_bytes(b"this is not an npz file at all")
        with pytest.raises(ArtifactCorruptError):
            read_container(path)

    def test_missing_header(self, tmp_path):
        path = tmp_path / "bogus.npz"
        np.savez(path, something=np.zeros(3))
        with pytest.raises(ArtifactSchemaError, match="missing header"):
            read_container(path)

    def test_header_not_json(self, tmp_path):
        path = tmp_path / "badjson.npz"
        np.savez(path, __header__=np.frombuffer(b"{not json", dtype=np.uint8))
        with pytest.raises(ArtifactCorruptError, match="JSON"):
            read_container(path)

    def test_unknown_version(self, tmp_path):
        path = tmp_path / "c.npz"
        write_container(path, "network", {}, {})
        bad = _mangle_header(path, tmp_path / "bad.npz", lambda h: {**h, "format_version": 99})
        with pytest.raises(ArtifactVersionError, match="unsupported format version 99"):
            read_container(bad)

    def test_legacy_header_without_ops_rejected(self, tmp_path):
        path = tmp_path / "odd.npz"
        header = {"format_version": 3}  # no magic, not a valid legacy file
        np.savez(path, __header__=np.frombuffer(json.dumps(header).encode(), dtype=np.uint8))
        with pytest.raises(ArtifactVersionError):
            read_container(path)

    def test_bad_magic_rejected(self, tmp_path):
        path = tmp_path / "c.npz"
        write_container(path, "network", {}, {})
        bad = _mangle_header(path, tmp_path / "bad.npz", lambda h: {**h, "magic": "other-tool"})
        with pytest.raises(ArtifactCorruptError, match="bad artifact magic"):
            read_container(bad)

    def test_write_is_atomic_no_temp_residue(self, tmp_path):
        path = tmp_path / "c.npz"
        write_container(path, "network", {"a": 1}, {"x": np.arange(3)})
        write_container(path, "network", {"a": 2}, {"x": np.arange(4)})  # overwrite in place
        assert [p.name for p in tmp_path.iterdir()] == ["c.npz"]  # no .tmp.* leftovers
        header, arrays = read_container(path)
        assert header["meta"] == {"a": 2} and len(arrays["x"]) == 4

    def test_kind_mismatch(self, tmp_path):
        path = tmp_path / "c.npz"
        write_container(path, "optimizer", {}, {})
        with pytest.raises(ArtifactSchemaError, match="kind"):
            read_container(path, expect_kind="deployed")

    def test_truncated_file(self, tmp_path, deployed):
        path = tmp_path / "full.npz"
        save_deployed(deployed, path)
        blob = path.read_bytes()
        cut = tmp_path / "cut.npz"
        cut.write_bytes(blob[: len(blob) // 2])
        with pytest.raises(ArtifactError):
            load_deployed(cut)

    def test_errors_are_value_errors(self):
        # The pre-container loader raised ValueError; the typed
        # hierarchy must remain catchable the old way.
        for err in (ArtifactError, ArtifactCorruptError, ArtifactSchemaError, ArtifactVersionError):
            assert issubclass(err, ValueError)


class TestDeployed:
    def test_roundtrip_bit_identical(self, tmp_path, deployed, rng):
        path = tmp_path / "d.npz"
        save_deployed(deployed, path)
        loaded = load_deployed(path)
        assert engine_fingerprint(loaded) == engine_fingerprint(deployed)
        x = rng.normal(size=(4, 3, 8, 8))
        assert np.array_equal(execute_deployed(loaded, x), execute_deployed(deployed, x))

    def test_groups_preserved(self, tmp_path, deployed):
        deployed.ops[0].groups = 1  # explicit, then check the field survives
        path = tmp_path / "d.npz"
        save_deployed(deployed, path)
        loaded = load_deployed(path)
        for a, b in zip(deployed.ops, loaded.ops):
            assert a.groups == b.groups

    def test_fingerprint_mismatch_detected(self, tmp_path, deployed):
        path = tmp_path / "d.npz"
        save_deployed(deployed, path)

        def corrupt(header):
            return header  # header untouched; we flip a weight tensor below

        with np.load(path) as data:
            arrays = {k: data[k] for k in data.files}
        arrays["op0.weight_codes"] = arrays["op0.weight_codes"].copy()
        arrays["op0.weight_codes"].flat[0] ^= 1
        np.savez(tmp_path / "bad.npz", **arrays)
        with pytest.raises(ArtifactCorruptError, match="fingerprint mismatch"):
            load_deployed(tmp_path / "bad.npz")

    @pytest.mark.parametrize("missing", ["name", "input_frac", "bits", "ops"])
    def test_missing_required_field(self, tmp_path, deployed, missing):
        path = tmp_path / "d.npz"
        save_deployed(deployed, path)
        bad = _mangle_header(
            path,
            tmp_path / "bad.npz",
            lambda h: {**h, "meta": {k: v for k, v in h["meta"].items() if k != missing}},
        )
        with pytest.raises(ArtifactSchemaError, match=missing):
            load_deployed(bad)

    def test_mistyped_field(self, tmp_path, deployed):
        path = tmp_path / "d.npz"
        save_deployed(deployed, path)

        def mutate(h):
            h = json.loads(json.dumps(h))
            h["meta"]["ops"][0]["in_frac"] = "four"
            return h

        bad = _mangle_header(path, tmp_path / "bad.npz", mutate)
        with pytest.raises(ArtifactSchemaError, match="in_frac"):
            load_deployed(bad)

    def test_unknown_op_field_rejected(self, tmp_path, deployed):
        path = tmp_path / "d.npz"
        save_deployed(deployed, path)

        def mutate(h):
            h = json.loads(json.dumps(h))
            h["meta"]["ops"][0]["dilation"] = 2
            return h

        bad = _mangle_header(path, tmp_path / "bad.npz", mutate)
        with pytest.raises(ArtifactSchemaError, match="dilation"):
            load_deployed(bad)

    def test_out_of_range_codes_rejected(self, tmp_path, deployed):
        path = tmp_path / "d.npz"
        save_deployed(deployed, path)
        with np.load(path) as data:
            arrays = {k: data[k] for k in data.files}
        arrays["op0.weight_codes"] = arrays["op0.weight_codes"].astype(np.int64) + 16
        np.savez(tmp_path / "bad.npz", **arrays)
        with pytest.raises(ArtifactSchemaError, match="4 bits"):
            load_deployed(tmp_path / "bad.npz")

    def test_float_weight_codes_rejected(self, tmp_path, deployed):
        path = tmp_path / "d.npz"
        save_deployed(deployed, path)
        with np.load(path) as data:
            arrays = {k: data[k] for k in data.files}
        arrays["op0.weight_codes"] = arrays["op0.weight_codes"].astype(np.float32)
        np.savez(tmp_path / "bad.npz", **arrays)
        with pytest.raises(ArtifactSchemaError, match="integer"):
            load_deployed(tmp_path / "bad.npz")


class TestNetworkAndOptimizer:
    def test_network_roundtrip(self, tmp_path, tiny_net):
        path = tmp_path / "net.npz"
        save_network(tiny_net, path)
        state = load_network_state(path)
        for p in tiny_net.params:
            assert state[p.name].dtype == p.data.dtype
            assert np.array_equal(state[p.name], p.data)
        fresh = cifar10_small(size=8, width=4, rng=np.random.default_rng(99), dtype=np.float32)
        load_network_into(fresh, path)
        for a, b in zip(tiny_net.params, fresh.params):
            assert np.array_equal(a.data, b.data)

    def test_network_mismatch_rejected(self, tmp_path, tiny_net):
        path = tmp_path / "net.npz"
        save_network(tiny_net, path)
        other = cifar10_small(size=16, width=8, rng=np.random.default_rng(0))
        with pytest.raises(ArtifactSchemaError, match="does not match"):
            load_network_into(other, path)

    def test_network_dtype_validated(self, tmp_path, tiny_net):
        path = tmp_path / "net.npz"
        save_network(tiny_net, path)
        with np.load(path) as data:
            arrays = {k: data[k] for k in data.files}
        key = next(k for k in arrays if k.startswith("weights/"))
        arrays[key] = arrays[key].astype(np.float64)
        np.savez(tmp_path / "bad.npz", **arrays)
        with pytest.raises(ArtifactSchemaError, match="dtype"):
            load_network_state(tmp_path / "bad.npz")

    def test_optimizer_roundtrip(self, tmp_path, tiny_net, rng):
        opt = SGD(tiny_net.params, lr=0.05, momentum=0.8, weight_decay=1e-4)
        # Take a couple of real steps so velocity is non-trivial.
        x = rng.normal(size=(8, 3, 8, 8)).astype(np.float32)
        for _ in range(2):
            logits = tiny_net.forward(x, training=True)
            tiny_net.backward(np.ones_like(logits))
            opt.step()
        path = tmp_path / "opt.npz"
        save_optimizer(opt, path)
        state = load_optimizer_state(path)
        fresh = SGD(tiny_net.params, lr=0.1)
        fresh.load_state_dict(state)
        assert fresh.lr == opt.lr
        assert fresh.momentum == opt.momentum
        assert fresh.weight_decay == opt.weight_decay
        for (p, v), (_, v2) in zip(
            zip(opt.params, opt._velocity), zip(fresh.params, fresh._velocity)
        ):
            assert np.array_equal(v, v2)

    def test_optimizer_name_mismatch_rejected(self, tmp_path, tiny_net):
        opt = SGD(tiny_net.params, lr=0.05)
        path = tmp_path / "opt.npz"
        save_optimizer(opt, path)
        other_net = cifar10_small(size=8, width=4, name="other", rng=np.random.default_rng(1))
        other = SGD(other_net.params[:2], lr=0.05)
        with pytest.raises(ValueError, match="name mismatch"):
            other.load_state_dict(load_optimizer_state(path))


class TestPlanAndResult:
    def test_plan_roundtrip(self, rng, tiny_net):
        mfdfp = MFDFPNetwork.from_float(
            tiny_net, rng.normal(size=(16, 3, 8, 8)).astype(np.float32)
        )
        plan = mfdfp.plan
        rebuilt = plan_from_meta(plan_to_meta(plan))
        assert rebuilt.bits == plan.bits
        assert rebuilt.input_fmt == plan.input_fmt
        assert rebuilt.min_exp == plan.min_exp and rebuilt.max_exp == plan.max_exp
        assert rebuilt.dynamic == plan.dynamic
        assert rebuilt.layers == plan.layers

    def test_mfdfp_result_roundtrip(self, tmp_path, small_data):
        from repro.core import MFDFPConfig, run_algorithm1

        train, test = small_data
        net = cifar10_small(size=16, rng=np.random.default_rng(4))
        config = MFDFPConfig(phase1_epochs=1, phase2_epochs=1, batch_size=32)
        result = run_algorithm1(
            net, train, test, train.x[:64], config, rng=np.random.default_rng(5)
        )
        path = tmp_path / "result.npz"
        save_mfdfp_result(result, path)
        template = cifar10_small(size=16, rng=np.random.default_rng(99))
        loaded = load_mfdfp_result(path, template)
        assert loaded.plan.layers == result.plan.layers
        assert loaded.float_val_error == result.float_val_error
        assert loaded.phase1.train_losses == result.phase1.train_losses
        assert loaded.phase2.val_errors == result.phase2.val_errors
        for a, b in zip(result.mfdfp.net.params, loaded.mfdfp.net.params):
            assert np.array_equal(a.data, b.data)
        assert len(loaded.phase1_snapshots) == len(result.phase1_snapshots)
        for snap_a, snap_b in zip(result.phase1_snapshots, loaded.phase1_snapshots):
            assert set(snap_a) == set(snap_b)
            for k in snap_a:
                assert np.array_equal(snap_a[k], snap_b[k])
        # The reloaded student must predict bit-identically.
        x = test.x[:16]
        assert np.array_equal(result.mfdfp.logits(x), loaded.mfdfp.logits(x))
