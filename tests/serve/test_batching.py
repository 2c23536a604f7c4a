"""AdaptiveBatchPolicy: SLO-driven batch sizing decisions and validation."""

import pytest

from repro.serve import AdaptiveBatchPolicy


class TestAdaptiveBatchPolicy:
    def test_no_target_pins_at_max_batch(self):
        policy = AdaptiveBatchPolicy(min_batch=1, max_batch=16)
        assert policy.initial == 16
        for current, depth in [(16, 0), (4, 100), (1, 0)]:
            assert policy.next_size(current, depth) == 16
            assert policy.next_size(current, depth, p99_s=99.0) == 16

    def test_shrinks_when_p99_exceeds_target(self):
        policy = AdaptiveBatchPolicy(min_batch=1, max_batch=16, target_p99_s=0.5, step=2.0)
        assert policy.next_size(16, 1000, p99_s=0.6) == 8
        assert policy.next_size(8, 1000, p99_s=0.6) == 4
        assert policy.next_size(1, 1000, p99_s=0.6) == 1  # floor holds

    def test_grows_under_queue_pressure_when_slo_met(self):
        policy = AdaptiveBatchPolicy(
            min_batch=1, max_batch=16, target_p99_s=0.5, grow_pressure=2.0, step=2.0
        )
        assert policy.next_size(4, 8, p99_s=0.1) == 8
        assert policy.next_size(4, 7, p99_s=0.1) == 4  # below pressure: hold
        assert policy.next_size(16, 1000, p99_s=0.1) == 16  # ceiling holds
        assert policy.next_size(1, 2, p99_s=0.1) == 2  # grows by at least one

    def test_nan_p99_never_shrinks(self):
        policy = AdaptiveBatchPolicy(min_batch=1, max_batch=16, target_p99_s=0.5)
        assert policy.next_size(8, 0) == 8  # no latency data yet: hold

    def test_out_of_range_current_is_clamped(self):
        policy = AdaptiveBatchPolicy(min_batch=2, max_batch=8, target_p99_s=0.5)
        assert policy.next_size(100, 0, p99_s=0.1) == 8
        assert policy.next_size(0, 0, p99_s=0.1) == 2

    @pytest.mark.parametrize(
        "kwargs, match",
        [
            (dict(min_batch=0), "min_batch"),
            (dict(min_batch=4, max_batch=2), "max_batch"),
            (dict(target_p99_s=0.0), "target_p99_s"),
            (dict(grow_pressure=0.0), "grow_pressure"),
            (dict(step=1.0), "step"),
            (dict(slo_window=0), "slo_window"),
        ],
    )
    def test_validation(self, kwargs, match):
        with pytest.raises(ValueError, match=match):
            AdaptiveBatchPolicy(**kwargs)
