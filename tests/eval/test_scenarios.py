"""Tests for the scenario matrix runner (repro.eval.scenarios)."""

from __future__ import annotations

import json

import numpy as np
import pytest

from repro.data.designs import ConnectivityConfig, GroundTruthConfig, block_design
from repro.eval import (
    Scenario,
    ScenarioMatrix,
    default_matrix,
    format_accuracy_table,
    matrix_record,
    max_roc_auc,
    run_matrix,
    run_scenario,
    smoke_matrix,
)


def _tiny_config(**connectivity: float) -> GroundTruthConfig:
    """A seconds-scale scenario small enough for unit tests."""
    return GroundTruthConfig(
        design=block_design(epoch_length=6, epochs_per_condition=3, gap=2,
                            dummy_trs=1),
        connectivity=ConnectivityConfig(n_informative=12, **connectivity),
        n_voxels=36,
        n_subjects=3,
        seed=7,
    )


def _tiny_matrix(**overrides: object) -> ScenarioMatrix:
    matrix = ScenarioMatrix(
        designs=("block",),
        snrs=(6.0,),
        n_voxels=36,
        seed=7,
        connectivity=ConnectivityConfig(n_informative=12),
        subjects=(3,),
    )
    return matrix.scaled(**overrides) if overrides else matrix


class TestScenarioKey:
    def test_key_format(self):
        scenario = Scenario(_tiny_config(snr=6.0, sf=1.0))
        assert scenario.key == "block.snr6.sf1.subj3"

    def test_key_compacts_floats(self):
        scenario = Scenario(_tiny_config(snr=0.3, sf=2.5))
        assert scenario.key == "block.snr0.3.sf2.5.subj3"


class TestScenarioMatrix:
    def test_grid_size_and_order(self):
        matrix = ScenarioMatrix(
            designs=("block", "event"), snrs=(6.0, 1.0), sfs=(1.0,),
            subjects=(4,),
        )
        assert len(matrix) == 4
        scenarios = matrix.scenarios()
        assert len(scenarios) == 4
        # Design-major, SNR-descending flattening.
        assert [s.key for s in scenarios] == [
            "block.snr6.sf1.subj4",
            "block.snr1.sf1.subj4",
            "event.snr6.sf1.subj4",
            "event.snr1.sf1.subj4",
        ]

    def test_presets(self):
        assert len(smoke_matrix()) == 2
        full = default_matrix()
        assert len(full) == 9
        assert set(full.designs) == {"block", "event", "jittered"}
        assert list(full.snrs) == sorted(full.snrs, reverse=True)

    @pytest.mark.parametrize("overrides", [
        {"designs": ()}, {"snrs": ()}, {"sfs": ()}, {"subjects": ()},
        {"designs": ("resting",)}, {"subjects": (0,)},
    ])
    def test_validation(self, overrides):
        with pytest.raises(ValueError):
            ScenarioMatrix(**overrides)


class TestRunScenario:
    @pytest.fixture(scope="class")
    def result(self):
        return run_scenario(Scenario(_tiny_config(snr=6.0)))

    def test_scores_all_voxels(self, result):
        assert result.score.n_scored == 36
        assert result.score.n_informative == 12
        assert result.score.top_k == 12
        assert result.wall_seconds > 0

    def test_high_snr_recovers_planted_set(self, result):
        assert result.score.roc_auc >= 0.85

    def test_metrics_namespace(self, result):
        metrics = result.metrics()
        prefix = "acc.block.snr6.sf1.subj3."
        assert set(metrics) == {
            prefix + "roc_auc",
            prefix + "average_precision",
            prefix + "top_k_hit_rate",
            prefix + "wall_seconds",
        }

    def test_deterministic_across_runs(self, result):
        again = run_scenario(Scenario(_tiny_config(snr=6.0)))
        np.testing.assert_array_equal(
            result.selection.voxels, again.selection.voxels
        )
        np.testing.assert_array_equal(
            result.selection.accuracies, again.selection.accuracies
        )
        assert again.score == result.score


class TestMatrixRecording:
    @pytest.fixture(scope="class")
    def run(self):
        matrix = _tiny_matrix()
        return matrix, run_matrix(matrix)

    def test_record_flattens_every_scenario(self, run):
        matrix, results = run
        record = matrix_record(matrix, results)
        auc_keys = [k for k in record if k.endswith(".roc_auc")]
        assert len(auc_keys) == len(results) == 1
        assert record["suite"] == "scenario-accuracy"
        assert record["n_scenarios"] == 1
        assert record["seed"] == matrix.seed
        # A plain dict: it round-trips through JSON unchanged.
        assert json.loads(json.dumps(record)) == record

    def test_record_requires_results(self):
        with pytest.raises(ValueError, match="empty"):
            matrix_record(_tiny_matrix(), [])

    def test_progress_callback_sees_each_result(self):
        matrix = _tiny_matrix()
        seen = []
        results = run_matrix(matrix, progress=seen.append)
        assert seen == results

    def test_table_renders_grid(self, run):
        matrix, results = run
        table = format_accuracy_table(results)
        lines = table.splitlines()
        assert lines[0].split() == ["design", "sf", "subj", "snr=6"]
        assert lines[2].startswith("block")
        assert format_accuracy_table([]) == "(no scenarios)"

    def test_max_roc_auc(self, run):
        _, results = run
        assert max_roc_auc(results) == results[0].score.roc_auc
        with pytest.raises(ValueError, match="no scenarios"):
            max_roc_auc([])
