"""ModelMetrics: percentile monotonicity, fake-clock throughput, gauges."""

import math

import numpy as np
import pytest

from repro.serve import ModelMetrics, ServerRuntime
from repro.serve.metrics import LATENCY_RESERVOIR


@pytest.fixture
def metrics(fake_clock):
    return ModelMetrics("tiny_a", clock=fake_clock)


class TestLatencyPercentiles:
    def test_exact_values_on_fake_clock(self, metrics, fake_clock):
        for latency in (0.2, 0.4, 0.6, 0.8, 1.0):
            start = metrics.record_submit()
            fake_clock.advance(latency)
            metrics.record_done(start)
        assert metrics.latency_percentile(0) == pytest.approx(0.2)
        assert metrics.latency_percentile(50) == pytest.approx(0.6)
        assert metrics.latency_percentile(100) == pytest.approx(1.0)

    def test_percentiles_are_monotone(self, metrics, fake_clock):
        rng = np.random.default_rng(0)
        for latency in rng.uniform(1e-4, 2.0, size=200):
            start = metrics.record_submit()
            fake_clock.advance(float(latency))
            metrics.record_done(start)
        quantiles = [metrics.latency_percentile(q) for q in (0, 10, 25, 50, 75, 90, 99, 100)]
        assert quantiles == sorted(quantiles)

    def test_nearest_rank_returns_observed_latencies(self, metrics, fake_clock):
        observed = {0.15, 0.35, 0.55}
        for latency in sorted(observed):
            start = metrics.record_submit()
            fake_clock.advance(latency)
            metrics.record_done(start)
        for q in (1, 33, 50, 66, 99):
            assert round(metrics.latency_percentile(q), 9) in {round(v, 9) for v in observed}

    def test_nan_before_any_completion(self, metrics):
        assert math.isnan(metrics.latency_percentile(50))

    def test_invalid_percentile_rejected(self, metrics):
        with pytest.raises(ValueError, match="percentile"):
            metrics.latency_percentile(101)
        with pytest.raises(ValueError, match="percentile"):
            metrics.latency_percentile(-1)

    def test_nan_percentile_rejected(self, metrics):
        with pytest.raises(ValueError, match="percentile"):
            metrics.latency_percentile(float("nan"))

    def test_reservoir_is_bounded(self, metrics, fake_clock):
        for _ in range(LATENCY_RESERVOIR + 100):
            metrics.record_done(fake_clock())
        assert len(metrics._latencies) == LATENCY_RESERVOIR


class TestThroughput:
    def test_matches_request_count_over_fake_clock(self, metrics, fake_clock):
        for _ in range(10):
            start = metrics.record_submit()
            metrics.record_done(start)
        fake_clock.advance(2.0)
        assert metrics.throughput_rps() == pytest.approx(5.0)
        assert metrics.completed == 10

    def test_zero_elapsed_reports_zero_not_inf(self, metrics):
        start = metrics.record_submit()
        metrics.record_done(start)
        assert metrics.throughput_rps() == 0.0


class TestCountersAndSnapshot:
    def test_mean_fill(self, metrics):
        for n in (4, 4, 2):
            for _ in range(n):
                metrics.record_done(metrics.record_submit())
            metrics.record_batch(n)
        assert metrics.mean_fill == pytest.approx(10 / 3)

    def test_mean_fill_counts_claimed_not_completed(self, metrics):
        metrics.record_batch(4)  # a batch whose requests all failed
        assert metrics.completed == 0
        assert metrics.mean_fill == pytest.approx(4.0)
        assert metrics.snapshot()["mean_fill"] == pytest.approx(4.0)

    def test_snapshot_is_complete(self, metrics, fake_clock):
        start = metrics.record_submit()
        fake_clock.advance(0.5)
        metrics.record_done(start)
        metrics.record_claim(1)
        metrics.record_batch(1)
        metrics.record_reject(2)
        metrics.record_crash(1)
        for _ in range(3):
            metrics.record_submit()  # three admitted, unclaimed: gauge = 3
        snap = metrics.snapshot()
        assert snap["model"] == "tiny_a"
        assert snap["submitted"] == 4 and snap["completed"] == 1
        assert snap["rejected"] == 2 and snap["queue_depth"] == 3
        assert snap["crashed"] == 1
        assert snap["batches"] == 1 and snap["mean_fill"] == 1.0
        assert snap["latency_p50_s"] == pytest.approx(0.5)
        assert snap["latency_p99_s"] == pytest.approx(0.5)
        assert snap["throughput_rps"] == pytest.approx(2.0)


class TestQueueDepthGauge:
    def test_gauge_tracks_pending_and_returns_to_zero_after_drain(
        self, registry, fake_clock
    ):
        runtime = ServerRuntime(
            registry,
            ["tiny_a"],
            workers=1,
            max_batch=4,
            max_queue=64,
            clock=fake_clock,
        )
        x = np.random.default_rng(2).normal(size=(10, 6)).astype(np.float32)
        for sample in x:  # unstarted runtime: depth grows deterministically
            runtime.submit("tiny_a", sample)
        metrics = runtime.metrics("tiny_a")
        assert metrics.queue_depth == 10
        assert runtime.queue_depth("tiny_a") == 10
        runtime.stop(drain=True)
        assert metrics.queue_depth == 0
        assert metrics.completed == 10

    def test_reject_never_touches_the_gauge(self, metrics):
        """Regression: a shed request must not leak a depth increment."""
        metrics.record_reject()
        metrics.record_reject(5)
        assert metrics.queue_depth == 0
        assert metrics.rejected == 6

    def test_admission_rejection_leaves_gauge_at_queue_size(self, registry, fake_clock):
        """Regression: the old gauge was set by call sites and the reject
        path could leave it stale; now sheds are depth-neutral by
        construction and the gauge equals the real backlog throughout."""
        from repro.serve import QueueFullError

        runtime = ServerRuntime(
            registry,
            ["tiny_a"],
            workers=1,
            max_batch=4,
            max_queue=3,
            clock=fake_clock,
        )
        metrics = runtime.metrics("tiny_a")
        x = np.random.default_rng(3).normal(size=(5, 6)).astype(np.float32)
        for sample in x[:3]:
            runtime.submit("tiny_a", sample)
        for sample in x[3:]:  # over the bound: shed, gauge untouched
            with pytest.raises(QueueFullError):
                runtime.submit("tiny_a", sample)
        assert metrics.queue_depth == 3 == runtime.queue_depth("tiny_a")
        assert metrics.rejected == 2 and metrics.submitted == 3
        runtime.stop(drain=True)
        assert metrics.queue_depth == 0
        assert metrics.completed == 3

    def test_no_drain_shutdown_claims_then_rejects(self, registry, fake_clock):
        """Post-admission rejection = claim + reject: depth returns to
        zero and the rejects are counted, with nothing double-counted."""
        runtime = ServerRuntime(
            registry,
            ["tiny_a"],
            workers=1,
            max_batch=4,
            max_queue=64,
            clock=fake_clock,
        )
        futures = [
            runtime.submit("tiny_a", s)
            for s in np.random.default_rng(4).normal(size=(4, 6)).astype(np.float32)
        ]
        assert runtime.metrics("tiny_a").queue_depth == 4
        runtime.stop(drain=False)
        metrics = runtime.metrics("tiny_a")
        assert metrics.queue_depth == 0
        assert metrics.rejected == 4 and metrics.completed == 0
        for future in futures:
            with pytest.raises(Exception, match="stopped"):
                future.result(timeout=5)

    def test_negative_gauge_is_a_loud_call_site_bug(self, metrics):
        metrics.record_submit()
        with pytest.raises(AssertionError, match="negative"):
            metrics.record_claim(2)
