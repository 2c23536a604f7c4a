"""The shared batched-evaluation API and the parallel campaign runner."""

import numpy as np
import pytest

from repro.analysis.campaign import (
    CAMPAIGN_KINDS,
    DEFAULT_POINTS,
    CampaignResult,
    evaluate_batched,
    parallel_map,
    run_campaign,
    train_surrogate,
)
from repro.analysis.faults import accuracy_under_faults
from repro.analysis.sqnr import layer_sqnr_report, quantization_noise_campaign
from repro.analysis.sweeps import bitwidth_sweep, exponent_clamp_sweep
from repro.core.engine import ENGINE_CACHE_CAPACITY, EngineCache, engine_cache, execute_deployed
from repro.core.mfdfp import MFDFPNetwork, deploy_calibrated
from repro.core.quantizer import strip_quantization
from repro.hw import Accelerator, AcceleratorConfig
from repro.nn import error_rate
from repro.zoo import cifar10_small


@pytest.fixture(scope="module")
def problem(trained_small_net, small_data):
    train, test = small_data
    deployed = deploy_calibrated(trained_small_net.clone(), train.x[:128])
    return {
        "net": trained_small_net,
        "calib": train.x[:128],
        "test": test,
        "deployed": deployed,
    }


class TestEvaluateBatched:
    def test_deployed_matches_eager_execution(self, problem, small_data):
        _, test = small_data
        x, y = test.x[:64], test.y[:64]
        codes = execute_deployed(problem["deployed"], x)
        expected = float((codes.argmax(axis=1) == y).mean())
        assert evaluate_batched(problem["deployed"], x, y) == expected

    def test_deployed_chunking_is_invisible(self, problem, small_data):
        _, test = small_data
        x, y = test.x[:60], test.y[:60]
        full = evaluate_batched(problem["deployed"], x, y, batch_size=256)
        chunked = evaluate_batched(problem["deployed"], x, y, batch_size=7)
        assert full == chunked

    def test_mfdfp_network_matches_error_rate(self, problem, small_data):
        _, test = small_data
        mf = MFDFPNetwork.from_float(problem["net"].clone(), problem["calib"])
        acc = evaluate_batched(mf, test.x, test.y)
        assert acc == 1.0 - error_rate(mf.net, test)

    def test_plain_network_accepted(self, problem, small_data):
        _, test = small_data
        acc = evaluate_batched(problem["net"], test.x, test.y)
        assert acc == 1.0 - error_rate(problem["net"], test)

    def test_uses_the_one_engine_cache(self, problem, small_data, fresh_engine_cache):
        _, test = small_data
        hits, misses = fresh_engine_cache.counters()
        evaluate_batched(problem["deployed"], test.x[:8], test.y[:8])
        assert fresh_engine_cache.counters()[1] - misses == 1
        evaluate_batched(problem["deployed"], test.x[:8], test.y[:8])
        after_hits, after_misses = fresh_engine_cache.counters()
        assert after_hits - hits >= 1 and after_misses - misses == 1

    def test_rejects_empty_and_mismatched(self, problem, small_data):
        _, test = small_data
        with pytest.raises(ValueError):
            evaluate_batched(problem["deployed"], test.x[:0], test.y[:0])
        with pytest.raises(ValueError):
            evaluate_batched(problem["deployed"], test.x[:4], test.y[:3])


class TestParallelMap:
    def test_preserves_order(self):
        fns = [lambda i=i: i * i for i in range(20)]
        assert parallel_map(fns, jobs=4) == [i * i for i in range(20)]

    def test_serial_inline(self):
        assert parallel_map([lambda: 1, lambda: 2], jobs=None) == [1, 2]
        assert parallel_map([], jobs=8) == []

    def test_exceptions_propagate(self):
        def boom():
            raise RuntimeError("point failed")

        with pytest.raises(RuntimeError, match="point failed"):
            parallel_map([lambda: 1, boom, lambda: 3], jobs=3)


class TestCampaignDeterminism:
    """The PR's core property: jobs=N is bit-identical to jobs=1."""

    @pytest.mark.parametrize("seed", [0, 7])
    def test_sweeps_bit_identical_across_jobs(self, small_data, seed):
        train, test = small_data
        net = cifar10_small(size=16, rng=np.random.default_rng(seed))
        calib = train.x[:64]
        serial = bitwidth_sweep(net, calib, test, bit_widths=(4, 8), jobs=1)
        threaded = bitwidth_sweep(net, calib, test, bit_widths=(4, 8), jobs=4)
        assert serial == threaded
        serial_c = exponent_clamp_sweep(net, calib, test, min_exps=(-3, -7), jobs=1)
        threaded_c = exponent_clamp_sweep(net, calib, test, min_exps=(-3, -7), jobs=4)
        assert serial_c == threaded_c

    @pytest.mark.parametrize("seed", [1, 9])
    def test_fault_curves_bit_identical_across_jobs(self, small_data, seed):
        train, test = small_data
        net = cifar10_small(size=16, rng=np.random.default_rng(seed))
        deployed = deploy_calibrated(net, train.x[:64])
        bers = (0.0, 1e-3, 1e-2, 0.1)
        serial = accuracy_under_faults(
            deployed, test.x[:64], test.y[:64], bers, rng=np.random.default_rng(seed), jobs=1
        )
        threaded = accuracy_under_faults(
            deployed, test.x[:64], test.y[:64], bers, rng=np.random.default_rng(seed), jobs=4
        )
        assert serial == threaded

    def test_engine_cache_hits_return_same_object(self, problem, small_data, fresh_engine_cache):
        """Across campaign points with equal content, the cache hands back
        the very same compiled engine."""
        _, test = small_data
        cache = fresh_engine_cache
        _, misses = cache.counters()
        first = cache.get(problem["deployed"])
        # same content deployed again -> same engine object, no recompile
        again = deploy_calibrated(problem["net"].clone(), problem["calib"])
        assert cache.get(again) is first
        # a zero-BER campaign point shares the clean content too
        result = run_campaign(
            "faults",
            deployed=problem["deployed"],
            x=test.x[:32],
            y=test.y[:32],
            points=1,  # BER 0.0
            jobs=2,
        )
        assert (result.cache_hits, result.cache_misses) == (1, 0)
        assert cache.get(problem["deployed"]) is first
        assert cache.counters()[1] - misses == 1


class TestRunCampaign:
    def test_kinds_cover_defaults(self):
        assert set(CAMPAIGN_KINDS) == set(DEFAULT_POINTS)

    def test_bitwidth_campaign_matches_sweep(self, problem, small_data):
        _, test = small_data
        result = run_campaign(
            "bitwidth",
            net=problem["net"],
            calibration_x=problem["calib"],
            x=test.x,
            y=test.y,
            points=2,
            jobs=2,
        )
        direct = bitwidth_sweep(
            problem["net"], problem["calib"], test, bit_widths=DEFAULT_POINTS["bitwidth"][:2]
        )
        assert result.points == direct
        assert result.kind == "bitwidth" and result.jobs == 2
        assert result.elapsed_s > 0
        assert [row["label"] for row in result.rows()] == ["4-bit", "6-bit"]

    def test_faults_campaign_rows(self, problem, small_data):
        _, test = small_data
        result = run_campaign(
            "faults",
            deployed=problem["deployed"],
            x=test.x[:32],
            y=test.y[:32],
            points=2,
            jobs=2,
            rng=np.random.default_rng(3),
        )
        assert [p[0] for p in result.points] == [0.0, 1e-4]
        assert all(0.0 <= p[1] <= 1.0 for p in result.points)
        assert result.rows()[0]["label"] == "ber=0e+00"

    def test_rounding_campaign_honors_points_prefix(self, problem, small_data):
        _, test = small_data
        result = run_campaign(
            "rounding",
            net=problem["net"],
            calibration_x=problem["calib"],
            x=test.x,
            y=test.y,
            points=1,
        )
        assert [p.label for p in result.points] == ["deterministic"]

    def test_validation_errors(self, problem, small_data):
        _, test = small_data
        with pytest.raises(ValueError, match="unknown campaign"):
            run_campaign("voltage", x=test.x, y=test.y)
        with pytest.raises(ValueError, match="labelled test arrays"):
            run_campaign("bitwidth", net=problem["net"], calibration_x=problem["calib"])
        with pytest.raises(ValueError, match="deployed network"):
            run_campaign("faults", x=test.x, y=test.y)
        with pytest.raises(ValueError, match="net and calibration_x"):
            run_campaign("bitwidth", x=test.x, y=test.y)
        with pytest.raises(ValueError, match="points"):
            run_campaign(
                "faults", deployed=problem["deployed"], x=test.x, y=test.y, points=99
            )

    def test_points_edge_cases_pinned(self, problem, small_data):
        """points=0, beyond the prefix, and non-integral all raise the
        documented ValueError — never an index error or empty campaign."""
        from repro.analysis.campaign import campaign_points

        _, test = small_data
        for bad in (0, -1, 99):
            with pytest.raises(ValueError, match="points"):
                campaign_points("faults", bad)
            with pytest.raises(ValueError, match="points"):
                run_campaign(
                    "faults", deployed=problem["deployed"], x=test.x, y=test.y, points=bad
                )
        for bad in (1.5, "2", True):
            with pytest.raises(ValueError, match="points must be an integer"):
                campaign_points("faults", bad)
        # numpy integers from sweep grids are fine
        assert campaign_points("faults", np.int64(2)) == DEFAULT_POINTS["faults"][:2]
        # points=None is the full default list for every kind
        for kind in CAMPAIGN_KINDS:
            assert campaign_points(kind, None) == DEFAULT_POINTS[kind]
            assert campaign_points(kind, len(DEFAULT_POINTS[kind])) == DEFAULT_POINTS[kind]

    def test_engine_cache_is_a_bounded_singleton(self):
        cache = engine_cache()
        assert cache is engine_cache()
        assert isinstance(cache, EngineCache)
        assert ENGINE_CACHE_CAPACITY == 32

    def test_result_is_frozen(self):
        result = CampaignResult("faults", [], 1, 0.0, 0, 0)
        with pytest.raises(AttributeError):
            result.kind = "other"

    def test_concurrent_campaigns_account_their_own_cache_traffic(self, small_data):
        """Two campaigns racing on one shared cache must each report exactly
        their own lookups — the old before/after counter deltas let one
        campaign's traffic leak into the other's accounting."""
        import threading

        train, test = small_data
        deployments = [
            deploy_calibrated(
                cifar10_small(size=16, rng=np.random.default_rng(seed)), train.x[:64]
            )
            for seed in (21, 22)
        ]
        results = [None, None]
        errors = []
        barrier = threading.Barrier(2)

        def campaign(slot):
            try:
                barrier.wait(timeout=30)
                results[slot] = run_campaign(
                    "faults",
                    deployed=deployments[slot],
                    x=test.x[:32],
                    y=test.y[:32],
                    points=4,
                    jobs=2,
                    rng=np.random.default_rng(slot),
                )
            except Exception as exc:  # pragma: no cover - surfaced via errors
                errors.append(exc)

        threads = [threading.Thread(target=campaign, args=(slot,)) for slot in (0, 1)]
        hits, misses = engine_cache().counters()
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert not errors
        for result in results:
            # one engine lookup per fault point, attributed to this campaign
            # alone: no cross-contamination from the concurrent sibling.
            assert result.cache_hits + result.cache_misses == len(result.points)
        # the shared cache saw exactly the union of both campaigns' traffic
        after_hits, after_misses = engine_cache().counters()
        assert (after_hits - hits) + (after_misses - misses) == sum(len(r.points) for r in results)


class TestSqnrCampaign:
    def test_chunked_report_close_to_single_pass(self, problem, small_data):
        _, test = small_data
        float_net = strip_quantization(problem["net"].clone())
        quant_net = problem["net"].clone()
        MFDFPNetwork.from_float(quant_net, problem["calib"])
        x = test.x[:48]
        single = layer_sqnr_report(float_net, quant_net, x)
        chunked = layer_sqnr_report(float_net, quant_net, x, batch_size=13)
        assert [r.layer_name for r in single] == [r.layer_name for r in chunked]
        # float32 BLAS blocking varies with batch shape, so chunked forward
        # passes drift by ~1e-9 relative; anything beyond that is a bug.
        for a, b in zip(single, chunked):
            assert a.sqnr_db == pytest.approx(b.sqnr_db, rel=1e-6)
            assert a.max_abs_error == pytest.approx(b.max_abs_error, rel=1e-6, abs=1e-9)
            assert a.signal_range == pytest.approx(b.signal_range, rel=1e-6)

    def test_noise_campaign_deterministic_across_jobs(self, problem, small_data):
        _, test = small_data
        configs = [{"bits": 6}, {"bits": 8}]
        serial = quantization_noise_campaign(
            problem["net"], problem["calib"], test.x[:16], configs, jobs=1
        )
        threaded = quantization_noise_campaign(
            problem["net"], problem["calib"], test.x[:16], configs, jobs=2
        )
        assert serial == threaded
        assert len(serial) == 2


class TestAcceleratorEvaluate:
    def test_accuracy_matches_evaluate_batched(self, problem, small_data):
        _, test = small_data
        acc = Accelerator(AcceleratorConfig(precision="mfdfp"))
        x, y = test.x[:50], test.y[:50]
        report = acc.evaluate_deployed(problem["deployed"], x, y, batch_size=16)
        assert report["accuracy"] == evaluate_batched(problem["deployed"], x, y)
        assert report["samples"] == 50
        assert report["modeled_latency_us"] > 0
        assert report["modeled_energy_uj"] == pytest.approx(
            acc.power_mw * 1e-3 * report["modeled_latency_us"]
        )
        assert report["modeled_throughput_ips"] > 0

    def test_batched_accounting_beats_per_sample(self, problem, small_data):
        """The whole point: batch-resident weights make the modeled cost of
        an N-sample evaluation less than N single-sample inferences."""
        _, test = small_data
        acc = Accelerator(AcceleratorConfig(precision="mfdfp"))
        n = 32
        report = acc.evaluate_deployed(
            problem["deployed"], test.x[:n], test.y[:n], batch_size=n
        )
        per_sample_us = n * acc.latency_us(problem["deployed"])
        assert report["modeled_latency_us"] < per_sample_us

    def test_fp32_rejected(self, problem, small_data):
        _, test = small_data
        acc = Accelerator(AcceleratorConfig(precision="fp32"))
        with pytest.raises(ValueError):
            acc.evaluate_deployed(problem["deployed"], test.x[:4], test.y[:4])

    def test_empty_rejected(self, problem, small_data):
        _, test = small_data
        acc = Accelerator(AcceleratorConfig(precision="mfdfp"))
        with pytest.raises(ValueError):
            acc.evaluate_deployed(problem["deployed"], test.x[:0], test.y[:0])


class TestTrainSurrogate:
    def test_compiled_bit_identical_to_eager(self, small_data):
        """The campaign's surrogate training: fast path changes nothing."""
        train, test = small_data
        histories, weights = {}, {}
        for compiled in (False, True):
            net = cifar10_small(size=16, rng=np.random.default_rng(4))
            history, trainer = train_surrogate(
                net, train, test, epochs=2, rng=np.random.default_rng(2), compiled=compiled
            )
            histories[compiled] = history
            weights[compiled] = net.get_weights()
            assert (trainer.executor is not None) == compiled
        assert histories[False].train_losses == histories[True].train_losses
        assert histories[False].val_errors == histories[True].val_errors
        for name in weights[False]:
            assert np.array_equal(weights[False][name], weights[True][name])
