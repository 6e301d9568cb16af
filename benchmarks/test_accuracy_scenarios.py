"""Ground-truth accuracy scenarios: is FCMA's voxel selection *right*?

Every other benchmark gates speed or bitwise equivalence; this suite
gates correctness against planted truth.  The default scenario matrix
(:func:`repro.eval.default_matrix`) sweeps the block, event-related,
and jittered-ISI designs across a descending SNR ladder with a known
set of informative voxels, runs real voxel selection on each, and
asserts the accuracy shape the generator must produce:

* ROC-AUC >= 0.9 at the high-SNR block preset (the acceptance floor);
* monotone degradation as SNR decreases, for every design;
* near-chance ranking at the bottom of the ladder (the planted signal,
  not an artifact, carries the accuracy).

Every number of the matrix except the per-scenario ``wall_seconds`` is
a function of the generator and the pipeline, so a fresh run must
reproduce the committed ``BENCH_accuracy.json`` exactly.  The fixture is
read, never written: to move it, regenerate it on purpose and say why.
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from repro.eval import (
    default_matrix,
    format_accuracy_table,
    matrix_record,
    run_matrix,
)

BENCH_JSON = Path(__file__).parent.parent / "BENCH_accuracy.json"

#: The acceptance floor at the high-SNR block preset.
AUC_FLOOR = 0.9
#: Tolerance on the monotone-degradation check: adjacent SNR rungs may
#: tie within this band (low-SNR scores hover around chance).
MONOTONE_SLACK = 0.05
#: Every design must rank clearly above chance at the top of the ladder.
HIGH_SNR_AUC = 0.85
#: ... and close to chance at the bottom.
LOW_SNR_AUC_CEILING = 0.75


@pytest.fixture(scope="module")
def matrix():
    return default_matrix()


@pytest.fixture(scope="module")
def results(matrix):
    return run_matrix(matrix)


def _auc(results, kind: str, snr: float) -> float:
    for result in results:
        config = result.scenario.config
        if config.design.kind == kind and config.connectivity.snr == snr:
            return result.score.roc_auc
    raise AssertionError(f"no scenario for design={kind} snr={snr}")


class TestAccuracyScenarios:
    def test_high_snr_block_meets_floor(self, matrix, results):
        auc = _auc(results, "block", matrix.snrs[0])
        assert auc >= AUC_FLOOR, (
            f"block design at snr={matrix.snrs[0]:g} ranked the planted "
            f"set at AUC {auc:.3f} < {AUC_FLOOR}"
        )

    def test_every_design_informative_at_high_snr(self, matrix, results):
        for kind in matrix.designs:
            auc = _auc(results, kind, matrix.snrs[0])
            assert auc >= HIGH_SNR_AUC, (
                f"{kind} design at snr={matrix.snrs[0]:g}: AUC {auc:.3f}"
            )

    def test_monotone_degradation_with_snr(self, matrix, results):
        assert list(matrix.snrs) == sorted(matrix.snrs, reverse=True), (
            "matrix SNR grid must be descending for this check"
        )
        for kind in matrix.designs:
            ladder = [_auc(results, kind, snr) for snr in matrix.snrs]
            for rung, (hi, lo) in enumerate(zip(ladder, ladder[1:])):
                assert lo <= hi + MONOTONE_SLACK, (
                    f"{kind}: AUC rose from {hi:.3f} to {lo:.3f} when SNR "
                    f"dropped {matrix.snrs[rung]:g} -> "
                    f"{matrix.snrs[rung + 1]:g}"
                )

    def test_low_snr_near_chance(self, matrix, results):
        for kind in matrix.designs:
            auc = _auc(results, kind, matrix.snrs[-1])
            assert auc <= LOW_SNR_AUC_CEILING, (
                f"{kind} design still ranks AUC {auc:.3f} at "
                f"snr={matrix.snrs[-1]:g} — the planted signal should "
                f"be buried"
            )

    def test_hit_rate_tracks_auc_at_high_snr(self, matrix, results):
        for result in results:
            config = result.scenario.config
            if config.connectivity.snr != matrix.snrs[0]:
                continue
            assert result.score.top_k_hit_rate >= 0.5, (
                f"{result.scenario.key}: top-k hit rate "
                f"{result.score.top_k_hit_rate:.2f} despite AUC "
                f"{result.score.roc_auc:.3f}"
            )

    def test_fresh_run_equals_committed_fixture(
        self, matrix, results, save_table
    ):
        def pinned(record):
            return {
                k: v for k, v in record.items()
                if not k.endswith(".wall_seconds")
            }

        fixture = json.loads(BENCH_JSON.read_text())
        fresh = json.loads(json.dumps(matrix_record(matrix, results)))
        auc_keys = [k for k in fresh if k.endswith(".roc_auc")]
        assert len(auc_keys) == len(results)
        assert pinned(fresh) == pinned(fixture)
        assert fresh.keys() == fixture.keys()
        save_table("accuracy_scenarios", format_accuracy_table(results))
