"""The successive-halving explorer: pruning, determinism, checkpointing."""

import numpy as np
import pytest

from repro.explore import (
    DesignSpace,
    ExplorationResult,
    ExploreConfig,
    ExploreConfigError,
    explore,
)
from repro.explore.explorer import _cost_metrics, _cost_twin_survivors, _member_rng
from repro.hw.cost import CostModel
from repro.io import ArtifactSchemaError, ExplorationCheckpointer

SPACE = DesignSpace(bits=(4, 8), min_exps=(-7,), num_pus=(1, 2), technologies=("65nm",))
CONFIG = ExploreConfig(seed=5, rung_epochs=(0,), final_epochs=1, checkpoint_every=2)


@pytest.fixture(scope="module")
def problem(trained_small_net, small_data):
    train, test = small_data
    return {"net": trained_small_net, "train": train, "test": test, "calib": train.x[:64]}


@pytest.fixture(scope="module")
def reference(problem):
    """The jobs=1 thread-backend exploration every variant must match."""
    return explore(
        problem["net"], problem["train"], problem["test"], problem["calib"],
        SPACE, CONFIG, jobs=1,
    )


def evaluation_key(result: ExplorationResult) -> list:
    return [
        (e.point.index, e.rung, e.accuracy, e.area_mm2, e.power_mw, e.latency_us, e.energy_uj)
        for e in result.evaluations
    ]


class TestExploreConfig:
    def test_defaults_valid(self):
        config = ExploreConfig()
        assert config.final_rung == len(config.rung_epochs)

    def test_validation(self):
        with pytest.raises(ExploreConfigError, match="seed"):
            ExploreConfig(seed=1.5)
        with pytest.raises(ExploreConfigError, match="rung_epochs"):
            ExploreConfig(rung_epochs=(-1,))
        with pytest.raises(ExploreConfigError, match="non-decreasing"):
            ExploreConfig(rung_epochs=(2, 1))
        with pytest.raises(ExploreConfigError, match="final_epochs"):
            ExploreConfig(final_epochs=0)
        with pytest.raises(ExploreConfigError, match="margin"):
            ExploreConfig(margin=-0.1)
        with pytest.raises(ExploreConfigError, match="margin"):
            ExploreConfig(margin=float("nan"))
        with pytest.raises(ExploreConfigError, match="checkpoint_every"):
            ExploreConfig(checkpoint_every=0)

    def test_spec_excludes_resume_irrelevant_knobs(self):
        """checkpoint_every changes save cadence, never results — two runs
        differing only there must share checkpoints."""
        a = ExploreConfig(checkpoint_every=1).spec()
        b = ExploreConfig(checkpoint_every=64).spec()
        assert a == b


class TestExplorationShape:
    def test_structure_and_accounting(self, reference):
        # rung 0 evaluates all 4 points; the final rung only survivors.
        assert reference.survivors_per_rung[-1] == reference.full_evaluations
        assert reference.total_evaluations == len(SPACE) + reference.full_evaluations
        assert all(e.full == (e.rung == CONFIG.final_rung) for e in reference.evaluations)
        # canonical order: rung-major, then point index
        keys = [(e.rung, e.point.index) for e in reference.evaluations]
        assert keys == sorted(keys)

    def test_frontier_is_full_fidelity_and_nondominated(self, reference):
        assert reference.frontier
        assert all(e.full for e in reference.frontier)
        for e in reference.frontier:
            for other in reference.frontier:
                if other is e:
                    continue
                dominated = (
                    other.accuracy >= e.accuracy
                    and other.energy_uj <= e.energy_uj
                    and other.area_mm2 <= e.area_mm2
                    and (
                        other.accuracy > e.accuracy
                        or other.energy_uj < e.energy_uj
                        or other.area_mm2 < e.area_mm2
                    )
                )
                assert not dominated

    def test_rows_match_frontier(self, reference):
        rows = reference.rows()
        assert [r["label"] for r in rows] == [e.point.label for e in reference.frontier]
        assert all(set(r) >= {"accuracy", "energy_uj", "area_mm2", "latency_us"} for r in rows)

    def test_cost_metrics_match_cost_model(self, problem):
        point = SPACE.points()[0]
        area, power, latency, energy = _cost_metrics(problem["net"], point, {})
        breakdown = CostModel().evaluate("mfdfp", point.num_pus, bits=point.bits)
        assert area == breakdown.area_mm2
        assert power == breakdown.power_mw
        assert energy == pytest.approx(power * 1e-3 * latency)

    def test_member_rng_keyed_on_quantization_identity(self):
        # bits slowest axis, technologies fastest: indexes 0/1 differ only
        # in technology, 0/2 differ in bits.
        p = DesignSpace(
            bits=(4, 8), min_exps=(-7,), num_pus=(1,), technologies=("65nm", "28nm")
        ).points()
        draw = lambda point, rung=0, member=0: _member_rng(5, rung, point, member).integers(
            0, 2**63, 4
        )
        assert np.array_equal(draw(p[0]), draw(p[1]))  # cost-only axis: same stream
        assert not np.array_equal(draw(p[0]), draw(p[2]))  # different quantization
        assert not np.array_equal(draw(p[0]), draw(p[0], member=1))
        assert not np.array_equal(draw(p[0]), draw(p[0], rung=1))
        assert np.array_equal(draw(p[0]), draw(p[0]))


class TestPruning:
    def test_exhaustive_evaluates_everything(self, problem, reference):
        exhaustive = explore(
            problem["net"], problem["train"], problem["test"], problem["calib"],
            SPACE, ExploreConfig(seed=5, rung_epochs=(0,), final_epochs=1, prune=False),
            jobs=2,
        )
        assert exhaustive.full_evaluations == len(SPACE)
        # Shared seed derivation: final-rung accuracies agree point-for-point
        pruned_final = {e.point.index: e.accuracy for e in reference.evaluations if e.full}
        exhaustive_final = {e.point.index: e.accuracy for e in exhaustive.evaluations if e.full}
        for index, acc in pruned_final.items():
            assert exhaustive_final[index] == acc
        # and the pruned frontier equals the exhaustive one on this problem
        assert [e.point for e in reference.frontier] == [e.point for e in exhaustive.frontier]

    def test_pruning_saves_full_pipelines(self, reference):
        assert reference.full_evaluations <= len(SPACE)


class TestCostTwinElimination:
    """Quantization-identical designs differing only in technology are
    settled on closed-form cost alone — margin pruning cannot do it
    (exact accuracy ties are inside any margin), so the explorer must."""

    def test_twin_survivors_keep_cost_pareto_set(self):
        space = DesignSpace(
            bits=(4,), min_exps=(-7,), num_pus=(1,), technologies=("65nm", "45nm", "28nm")
        )
        # (area, power, latency, energy): 0 dominates 2; 1 trades area for energy.
        costs = {0: (1.0, 0.0, 0.0, 5.0), 1: (0.5, 0.0, 0.0, 6.0), 2: (1.2, 0.0, 0.0, 5.5)}
        kept = _cost_twin_survivors(space.points(), costs)
        assert [p.index for p in kept] == [0, 1]

    def test_dominated_technology_twin_never_evaluated(self, problem):
        space = DesignSpace(
            bits=(4, 8), min_exps=(-7,), num_pus=(1,), technologies=("65nm", "28nm")
        )
        # A huge margin disables accuracy pruning entirely: every saved
        # pipeline below comes from twin elimination alone.
        config = ExploreConfig(seed=5, rung_epochs=(0,), final_epochs=1, margin=0.5)
        pruned = explore(
            problem["net"], problem["train"], problem["test"], problem["calib"],
            space, config,
        )
        # 28nm is cost-dominated at equal accuracy (FP32-anchored scaling),
        # so no evaluation — at any rung — is spent on it.
        assert {e.point.technology for e in pruned.evaluations} == {"65nm"}
        assert pruned.full_evaluations == len(space) // 2
        exhaustive = explore(
            problem["net"], problem["train"], problem["test"], problem["calib"],
            space, ExploreConfig(seed=5, rung_epochs=(0,), final_epochs=1, prune=False),
        )
        assert [e.point for e in pruned.frontier] == [e.point for e in exhaustive.frontier]


class TestDeterminism:
    """ISSUE satellite: Pareto set and every evaluated point bit-identical
    across jobs and backends."""

    def test_thread_jobs2_bit_identical(self, problem, reference):
        threaded = explore(
            problem["net"], problem["train"], problem["test"], problem["calib"],
            SPACE, CONFIG, jobs=2,
        )
        assert evaluation_key(threaded) == evaluation_key(reference)
        assert [e.point for e in threaded.frontier] == [e.point for e in reference.frontier]

    def test_process_jobs2_bit_identical(self, problem, reference):
        processed = explore(
            problem["net"], problem["train"], problem["test"], problem["calib"],
            SPACE, CONFIG, jobs=2, backend="process",
        )
        assert evaluation_key(processed) == evaluation_key(reference)
        assert [e.point for e in processed.frontier] == [e.point for e in reference.frontier]

    def test_technology_variants_measure_identical_accuracy(self, problem):
        """Technology is a cost-only axis: the same quantization evaluated
        for two silicon nodes must yield bit-identical accuracy (which is
        what lets pruning discard a dominated node without running it)."""
        space = DesignSpace(
            bits=(4,), min_exps=(-7,), num_pus=(1,), technologies=("65nm", "28nm")
        )
        result = explore(
            problem["net"], problem["train"], problem["test"], problem["calib"],
            space, ExploreConfig(seed=5, rung_epochs=(0,), final_epochs=1, prune=False),
        )
        by_tech = {e.point.technology: e for e in result.evaluations if e.full}
        assert by_tech["65nm"].accuracy == by_tech["28nm"].accuracy
        # FP32-anchored calibration: the SRAM-heavy MF-DFP datapath scales
        # *worse* than the baseline at advanced nodes, so 65nm dominates.
        assert by_tech["65nm"].area_mm2 < by_tech["28nm"].area_mm2
        assert by_tech["65nm"].energy_uj < by_tech["28nm"].energy_uj
        # and the exact frontier keeps only the dominating node
        assert [e.point.technology for e in result.frontier] == ["65nm"]


class TestCheckpointResume:
    def test_fresh_checkpointed_run_matches_reference(self, problem, reference, tmp_path):
        ckpt = ExplorationCheckpointer(tmp_path / "ckpt")
        first = explore(
            problem["net"], problem["train"], problem["test"], problem["calib"],
            SPACE, CONFIG, jobs=1, checkpoint=ckpt,
        )
        assert evaluation_key(first) == evaluation_key(reference)
        # a second run restores every row: bit-identical, no re-evaluation
        resumed = explore(
            problem["net"], problem["train"], problem["test"], problem["calib"],
            SPACE, CONFIG, jobs=2, backend="process", checkpoint=ckpt,
        )
        assert evaluation_key(resumed) == evaluation_key(reference)
        assert [e.point for e in resumed.frontier] == [e.point for e in reference.frontier]

    def test_checkpoint_refuses_other_space_or_config(self, problem, tmp_path):
        ckpt = ExplorationCheckpointer(tmp_path / "ckpt")
        explore(
            problem["net"], problem["train"], problem["test"], problem["calib"],
            SPACE, CONFIG, jobs=1, checkpoint=ckpt,
        )
        other_space = DesignSpace(bits=(8,), min_exps=(-7,), num_pus=(1,))
        with pytest.raises(ArtifactSchemaError, match="design space"):
            explore(
                problem["net"], problem["train"], problem["test"], problem["calib"],
                other_space, CONFIG, jobs=1, checkpoint=ckpt,
            )
        other_config = ExploreConfig(seed=6, rung_epochs=(0,), final_epochs=1)
        with pytest.raises(ArtifactSchemaError, match="config"):
            explore(
                problem["net"], problem["train"], problem["test"], problem["calib"],
                SPACE, other_config, jobs=1, checkpoint=ckpt,
            )
