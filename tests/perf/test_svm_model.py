"""Tests for the SVM performance model, including the measured (not
calibrated) iteration-count ratio between heuristics."""

import numpy as np
import pytest

from repro.bench.paperdata import TABLE1_BASELINE, TABLE8_SVM
from repro.bench.tables import within_factor
from repro.data import ATTENTION, FACE_SCENE
from repro.hw import PHI_5110P
from repro.perf.svm_model import SVM_VARIANTS, model_svm_cv, svm_problem_count
from repro.svm import (
    AdaptiveSelector,
    SecondOrderSelector,
    linear_kernel,
    solve_smo,
)


class TestProblemCount:
    def test_face_scene(self):
        folds, m_inner = svm_problem_count(FACE_SCENE)
        assert folds == 17
        assert m_inner == 204 - 12

    def test_attention(self):
        folds, m_inner = svm_problem_count(ATTENTION)
        assert folds == 29
        assert m_inner == 522 - 18


class TestAgainstPaper:
    @pytest.mark.parametrize(
        "variant,paper_ms",
        [(variant, ms) for variant, (ms, _) in TABLE8_SVM.items()],
    )
    def test_table8_times(self, variant, paper_ms):
        est = model_svm_cv(FACE_SCENE, 120, PHI_5110P, variant)
        assert within_factor(est.milliseconds, paper_ms, 1.25)

    def test_table8_ordering(self):
        times = [
            model_svm_cv(FACE_SCENE, 120, PHI_5110P, v).seconds
            for v in ("libsvm", "libsvm-opt", "phisvm")
        ]
        assert times[0] > times[1] > times[2]

    def test_phisvm_about_9x_faster_than_libsvm(self):
        lib = model_svm_cv(FACE_SCENE, 120, PHI_5110P, "libsvm")
        phi = model_svm_cv(FACE_SCENE, 120, PHI_5110P, "phisvm")
        assert 6.0 < lib.seconds / phi.seconds < 13.0  # paper: ~9.2x

    def test_vi_from_calibration(self):
        for variant, (_, vi) in TABLE8_SVM.items():
            est = model_svm_cv(FACE_SCENE, 120, PHI_5110P, variant)
            assert est.counters.vectorization_intensity == pytest.approx(vi)

    def test_libsvm_refs_table1(self):
        est = model_svm_cv(FACE_SCENE, 120, PHI_5110P, "libsvm")
        assert within_factor(est.counters.mem_refs, TABLE1_BASELINE["libsvm"][1], 1.2)

    def test_bad_variant(self):
        with pytest.raises(ValueError, match="unknown variant"):
            model_svm_cv(FACE_SCENE, 120, PHI_5110P, "thundersvm")

    def test_bad_iter_factor(self):
        with pytest.raises(ValueError):
            model_svm_cv(FACE_SCENE, 120, PHI_5110P, "phisvm", iter_factor=0)


class TestMechanisms:
    def test_thread_starvation_baseline_only(self):
        """60-voxel baseline tasks starve harder than 120-voxel ones."""
        t60 = model_svm_cv(FACE_SCENE, 60, PHI_5110P, "libsvm").seconds / 60
        t120 = model_svm_cv(FACE_SCENE, 120, PHI_5110P, "libsvm").seconds / 120
        assert t60 > 1.5 * t120

    def test_phisvm_not_starved(self):
        t120 = model_svm_cv(FACE_SCENE, 120, PHI_5110P, "phisvm").seconds / 120
        t240 = model_svm_cv(FACE_SCENE, 240, PHI_5110P, "phisvm").seconds / 240
        assert t120 == pytest.approx(t240, rel=0.01)

    def test_attention_l2_overflow_penalizes_libsvm_more(self):
        """M=522 kernels overflow L2; double precision suffers most —
        why attention gains 16x vs face-scene's 5x (Fig 9)."""
        fs = model_svm_cv(FACE_SCENE, 120, PHI_5110P, "libsvm")
        att = model_svm_cv(ATTENTION, 120, PHI_5110P, "libsvm")
        fs_phi = model_svm_cv(FACE_SCENE, 120, PHI_5110P, "phisvm")
        att_phi = model_svm_cv(ATTENTION, 120, PHI_5110P, "phisvm")
        gap_fs = fs.seconds / fs_phi.seconds
        gap_att = att.seconds / att_phi.seconds
        assert gap_att > gap_fs

    def test_iteration_override(self):
        a = model_svm_cv(FACE_SCENE, 120, PHI_5110P, "phisvm", iter_factor=5.0)
        b = model_svm_cv(FACE_SCENE, 120, PHI_5110P, "phisvm", iter_factor=10.0)
        assert b.counters.mem_refs == pytest.approx(2 * a.counters.mem_refs)


class TestIterationRatioMeasured:
    def test_adaptive_not_worse_than_fixed_cost_model(self):
        """The model's iteration advantage for PhiSVM (13 vs 22 per M)
        reflects the adaptive heuristic; verify on real solves that the
        adaptive heuristic's *cost-weighted* work is at most that of
        always-second-order, within tolerance."""
        rng = np.random.default_rng(11)
        costs = {"adaptive": 0.0, "second": 0.0}
        for seed in range(3):
            rng = np.random.default_rng(seed)
            x = rng.standard_normal((96, 40)).astype(np.float32)
            w = rng.standard_normal(40)
            y = np.where(x @ w + 0.7 * rng.standard_normal(96) > 0, 1, -1)
            k = linear_kernel(x.astype(np.float64))
            adaptive = AdaptiveSelector()
            ra = solve_smo(k, y, selector=adaptive, tol=1e-4)
            rs = solve_smo(k, y, selector=SecondOrderSelector(), tol=1e-4)
            cost_a = (
                adaptive.usage["first"] * 1.0 + adaptive.usage["second"] * 2.0
            )
            costs["adaptive"] += cost_a
            costs["second"] += rs.iterations * 2.0
        assert costs["adaptive"] < 1.5 * costs["second"]

    def test_variant_table_complete(self):
        assert set(SVM_VARIANTS) == {"libsvm", "libsvm-opt", "phisvm"}
