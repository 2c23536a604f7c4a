"""Parameter sweeps and fault injection."""

import numpy as np
import pytest

from repro.analysis.faults import accuracy_under_faults, inject_weight_faults
from repro.analysis.sweeps import (
    bitwidth_sweep,
    dynamic_vs_static,
    exponent_clamp_sweep,
    stochastic_vs_deterministic,
)
from repro.core.engine import execute_deployed
from repro.core.mfdfp import MFDFPNetwork


@pytest.fixture(scope="module")
def sweep_problem(trained_small_net, small_data):
    train, test = small_data
    return trained_small_net, train.x[:128], test


class TestSweeps:
    def test_bitwidth_sweep_structure(self, sweep_problem):
        net, calib, test = sweep_problem
        points = bitwidth_sweep(net, calib, test, bit_widths=(4, 8, 16))
        assert [p.bits for p in points] == [4, 8, 16]
        assert all(0.0 <= p.error_rate <= 1.0 for p in points)

    def test_16bit_not_worse_than_4bit(self, sweep_problem):
        net, calib, test = sweep_problem
        points = {p.bits: p.error_rate for p in bitwidth_sweep(net, calib, test, (4, 16))}
        assert points[16] <= points[4]

    def test_exponent_clamp_sweep(self, sweep_problem):
        net, calib, test = sweep_problem
        points = exponent_clamp_sweep(net, calib, test, min_exps=(-3, -7, -15))
        assert [p.min_exp for p in points] == [-3, -7, -15]
        by_exp = {p.min_exp: p.error_rate for p in points}
        # a very tight clamp (-3) cannot beat the wide one by much
        assert by_exp[-15] <= by_exp[-3] + 0.05

    def test_dynamic_vs_static(self, sweep_problem):
        net, calib, test = sweep_problem
        points = dynamic_vs_static(net, calib, test)
        labels = {p.label: p for p in points}
        assert labels["dynamic"].dynamic and not labels["static"].dynamic
        assert labels["dynamic"].error_rate <= labels["static"].error_rate + 0.05

    def test_rounding_mode_comparison(self, sweep_problem):
        net, calib, test = sweep_problem
        points = stochastic_vs_deterministic(net, calib, test)
        assert {p.label for p in points} == {"deterministic", "stochastic"}

    def test_sweep_does_not_mutate_network(self, sweep_problem, rng):
        net, calib, test = sweep_problem
        x = rng.normal(size=(2, 3, 16, 16)).astype(np.float32)
        before = net.logits(x)
        bitwidth_sweep(net, calib, test, bit_widths=(8,))
        assert np.allclose(net.logits(x), before)


@pytest.fixture(scope="module")
def deployed_net(trained_small_net, small_data):
    train, _ = small_data
    net = trained_small_net.clone()
    mf = MFDFPNetwork.from_float(net, train.x[:128])
    return mf.deploy()


class TestFaultInjection:
    def test_zero_ber_is_identity(self, deployed_net, small_data):
        _, test = small_data
        result = inject_weight_faults(deployed_net, 0.0)
        assert result.flipped_bits == 0
        a = execute_deployed(deployed_net, test.x[:8])
        b = execute_deployed(result.faulty, test.x[:8])
        assert np.array_equal(a, b)

    def test_original_not_modified(self, deployed_net, rng):
        before = [op.weight_codes.copy() for op in deployed_net.ops if op.weight_codes is not None]
        inject_weight_faults(deployed_net, 0.5, rng)
        after = [op.weight_codes for op in deployed_net.ops if op.weight_codes is not None]
        assert all(np.array_equal(a, b) for a, b in zip(before, after))

    def test_flip_rate_statistics(self, deployed_net, rng):
        result = inject_weight_faults(deployed_net, 0.1, rng)
        rate = result.flipped_bits / result.total_weight_bits
        assert 0.07 < rate < 0.13

    def test_faulty_codes_still_4bit(self, deployed_net, rng):
        result = inject_weight_faults(deployed_net, 0.5, rng)
        for op in result.faulty.ops:
            if op.weight_codes is not None:
                assert op.weight_codes.max() <= 0x0F

    def test_invalid_ber_rejected(self, deployed_net):
        with pytest.raises(ValueError):
            inject_weight_faults(deployed_net, 1.5)

    def test_accuracy_degrades_with_ber(self, deployed_net, small_data):
        """Accuracy at heavy corruption must not exceed the clean accuracy
        by more than noise; the curve should trend downward."""
        _, test = small_data
        x, y = test.x[:100], test.y[:100]
        points = accuracy_under_faults(
            deployed_net, x, y, bit_error_rates=(0.0, 0.02, 0.3), rng=np.random.default_rng(0)
        )
        accs = dict(points)
        assert accs[0.0] >= accs[0.3] - 0.02
        assert accs[0.3] < accs[0.0] + 0.05

    def test_faulty_network_still_executes(self, deployed_net, small_data, rng):
        _, test = small_data
        result = inject_weight_faults(deployed_net, 0.25, rng)
        codes = execute_deployed(result.faulty, test.x[:4])
        assert np.abs(codes).max() <= 127


class TestFaultCopySharing:
    """inject_weight_faults shares immutable structure instead of deep
    copying the whole artifact (regression for the copy-cost satellite)."""

    def test_zero_flip_shares_weight_arrays(self, deployed_net):
        result = inject_weight_faults(deployed_net, 0.0)
        assert result.faulty is not deployed_net
        for orig, faulty in zip(deployed_net.ops, result.faulty.ops):
            assert faulty is not orig
            if orig.weight_codes is not None:
                assert faulty.weight_codes is orig.weight_codes

    def test_biases_and_untouched_codes_always_shared(self, deployed_net, rng):
        result = inject_weight_faults(deployed_net, 0.05, rng)
        for orig, faulty in zip(deployed_net.ops, result.faulty.ops):
            if orig.bias_int is not None:
                assert faulty.bias_int is orig.bias_int
            if orig.weight_codes is not None and not np.array_equal(
                orig.weight_codes, faulty.weight_codes
            ):
                assert faulty.weight_codes is not orig.weight_codes

    def test_heavy_injection_never_mutates_original(self, deployed_net):
        before = [
            op.weight_codes.copy()
            for op in deployed_net.ops
            if op.weight_codes is not None
        ]
        for trial in range(5):
            inject_weight_faults(deployed_net, 0.5, np.random.default_rng(trial))
        after = [
            op.weight_codes for op in deployed_net.ops if op.weight_codes is not None
        ]
        assert all(np.array_equal(a, b) for a, b in zip(before, after))


class TestFaultPointIndependence:
    """Each BER point derives an independent child generator (regression
    for the RNG cross-contamination satellite)."""

    def test_single_point_reproduces_curve_point(self, deployed_net, small_data):
        _, test = small_data
        x, y = test.x[:64], test.y[:64]
        curve = accuracy_under_faults(
            deployed_net, x, y, [1e-4, 1e-3, 1e-2], rng=np.random.default_rng(0)
        )
        for ber, acc in curve:
            single = accuracy_under_faults(
                deployed_net, x, y, [ber], rng=np.random.default_rng(0)
            )
            assert single == [(ber, acc)], f"point {ber} depends on its neighbours"

    def test_point_order_is_irrelevant(self, deployed_net, small_data):
        _, test = small_data
        x, y = test.x[:64], test.y[:64]
        bers = [1e-4, 1e-3, 1e-2, 0.1]
        forward = dict(
            accuracy_under_faults(deployed_net, x, y, bers, rng=np.random.default_rng(7))
        )
        backward = dict(
            accuracy_under_faults(
                deployed_net, x, y, bers[::-1], rng=np.random.default_rng(7)
            )
        )
        assert forward == backward

    def test_injected_faults_keyed_by_ber(self, deployed_net, small_data):
        """Two different BERs must not draw identical flip patterns."""
        from repro.analysis.faults import _point_rng

        a = _point_rng(1234, 1e-3).random(8)
        b = _point_rng(1234, 1e-2).random(8)
        c = _point_rng(1234, 1e-3).random(8)
        assert not np.array_equal(a, b)
        assert np.array_equal(a, c)
