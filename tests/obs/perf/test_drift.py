"""Drift detection: metric classification, baselines, and the CLI gate."""

from __future__ import annotations

import pytest

from repro.cli import main
from repro.obs.perf import (
    DEFAULT_EXACT_TOLERANCE,
    DEFAULT_TIMING_TOLERANCE,
    BenchmarkRecord,
    HistoryRegistry,
    check_record,
    is_timing_name,
)


def _record(metrics, *, name="series", machine=None):
    return BenchmarkRecord(
        name=name,
        metrics=metrics,
        machine=machine or {"node": "same-box"},
    )


class TestIsTimingName:
    @pytest.mark.parametrize(
        "name",
        [
            "run.wall_seconds",
            "kernel.score_voxels.wall_seconds",
            "stage.stage1_correlation.seconds",
            "reference_seconds",
            "kernel.score_voxels.model_ratio",
            "speedup",
        ],
    )
    def test_timing(self, name):
        assert is_timing_name(name)

    @pytest.mark.parametrize(
        "name",
        [
            "kernel.score_voxels.predicted_seconds",
            "kernel.score_voxels.pc.l2_misses",
            "kernel.score_voxels.predicted_gflops",
            "run.tasks",
            "stage.stage1_correlation.calls",
            "floor",
            "batch_voxels",
        ],
    )
    def test_deterministic(self, name):
        assert not is_timing_name(name)


class TestCheckRecord:
    def test_fresh_series_skips_everything(self):
        current = _record({"run.tasks": 2.0, "run.wall_seconds": 1.0})
        report = check_record(current, [])
        assert report.ok
        assert report.checked == 0
        assert set(report.skipped) == {"run.tasks", "run.wall_seconds"}

    def test_identical_history_is_clean(self):
        metrics = {"run.tasks": 2.0, "run.wall_seconds": 1.0}
        history = [_record(metrics), _record(metrics)]
        report = check_record(_record(metrics), history)
        assert report.ok
        assert report.checked == 2
        assert not report.skipped

    def test_deterministic_drift_fails_tight(self):
        history = [_record({"run.tasks": 2.0})] * 1
        report = check_record(_record({"run.tasks": 3.0}), history)
        (finding,) = report.failures
        assert finding.metric == "run.tasks"
        assert not finding.timing
        assert finding.tolerance == DEFAULT_EXACT_TOLERANCE
        assert finding.deviation == pytest.approx(0.5)

    def test_timing_jitter_within_band_passes(self):
        history = [_record({"run.wall_seconds": 1.0})]
        report = check_record(_record({"run.wall_seconds": 1.3}), history)
        assert report.ok
        (finding,) = report.findings
        assert finding.timing
        assert finding.tolerance == DEFAULT_TIMING_TOLERANCE

    def test_timing_regression_beyond_band_fails(self):
        history = [_record({"run.wall_seconds": 1.0})]
        report = check_record(_record({"run.wall_seconds": 2.5}), history)
        assert not report.ok

    def test_sub_millisecond_jitter_absorbed_by_slack(self):
        # 0.2 ms vs 0.6 ms is a 3x relative blowup but physically
        # meaningless; the absolute slack keeps the gate quiet.
        history = [_record({"kernel.score_batch.wall_seconds": 6e-4})]
        report = check_record(
            _record({"kernel.score_batch.wall_seconds": 2e-4}), history
        )
        (finding,) = report.findings
        assert finding.deviation > finding.tolerance
        assert finding.ok
        assert report.ok

    def test_slack_does_not_cover_ratios(self):
        # model_ratio is unitless: a tiny absolute delta can still be a
        # real relative regression, so no slack applies.
        history = [_record({"kernel.x.model_ratio": 0.004})]
        report = check_record(
            _record({"kernel.x.model_ratio": 0.008}), history
        )
        assert not report.ok

    @pytest.mark.parametrize(
        "baseline_wall, drifted",
        [
            pytest.param(0.075e-3, False, id="jitter"),  # x5 = +0.3 ms
            pytest.param(12.5e-3, True, id="drift"),  # x5 = +50 ms
        ],
    )
    def test_ratio_inherits_its_kernels_wall_time_slack(
        self, baseline_wall, drifted
    ):
        """The prediction is deterministic, so ``X.model_ratio`` moves
        only with ``X.wall_seconds``: a x5 ratio whose wall time moved
        0.3 ms is jitter, the same x5 over 50 ms is drift."""
        predicted = baseline_wall / 5.0

        def metrics(wall):
            return {
                "kernel.x.wall_seconds": wall,
                "kernel.x.model_ratio": wall / predicted,
                "kernel.x.predicted_seconds": predicted,
            }

        report = check_record(
            _record(metrics(5 * baseline_wall)),
            [_record(metrics(baseline_wall))] * 3,
        )
        ratio = next(f for f in report.findings if f.metric.endswith("ratio"))
        assert ratio.deviation == pytest.approx(4.0)  # far outside +-50 %
        assert ratio.ok is not drifted
        assert {f.metric for f in report.failures} == (
            {"kernel.x.model_ratio", "kernel.x.wall_seconds"} if drifted else set()
        )

    def test_slack_configurable_down_to_zero(self):
        history = [_record({"kernel.score_batch.wall_seconds": 6e-4})]
        report = check_record(
            _record({"kernel.score_batch.wall_seconds": 2e-4}),
            history,
            timing_slack_seconds=0.0,
        )
        assert not report.ok

    def test_timing_only_compares_same_machine(self):
        foreign = _record(
            {"run.wall_seconds": 1.0, "run.tasks": 2.0},
            machine={"node": "other-box"},
        )
        current = _record({"run.wall_seconds": 50.0, "run.tasks": 2.0})
        report = check_record(current, [foreign])
        # The 50x timing blowup is unjudgeable (different machine), but
        # the deterministic count still checks against all history.
        assert report.skipped == {
            "run.wall_seconds": "no same-machine history"
        }
        assert [f.metric for f in report.findings] == ["run.tasks"]
        assert report.ok

    def test_baseline_is_median_not_mean(self):
        history = [
            _record({"run.wall_seconds": v}) for v in (1.0, 1.0, 10.0)
        ]
        report = check_record(_record({"run.wall_seconds": 1.1}), history)
        (finding,) = report.findings
        assert finding.baseline == pytest.approx(1.0)
        assert finding.ok

    def test_min_history_skips_thin_series(self):
        history = [_record({"run.tasks": 2.0})]
        report = check_record(
            _record({"run.tasks": 2.0}), history, min_history=2
        )
        assert report.checked == 0
        assert "run.tasks" in report.skipped

    def test_current_record_excluded_from_its_own_baseline(self):
        current = _record({"run.tasks": 3.0})
        history = [_record({"run.tasks": 2.0}), current]
        report = check_record(current, history)
        (finding,) = report.findings
        assert finding.baseline == pytest.approx(2.0)

    def test_other_series_ignored(self):
        other = _record({"run.tasks": 99.0}, name="other-series")
        report = check_record(_record({"run.tasks": 2.0}), [other])
        assert report.checked == 0

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"timing_tolerance": 0.0},
            {"exact_tolerance": -1.0},
            {"timing_slack_seconds": -0.001},
            {"min_history": 0},
        ],
    )
    def test_bad_parameters_raise(self, kwargs):
        with pytest.raises(ValueError):
            check_record(_record({"a": 1.0}), [], **kwargs)

    def test_summary_counts(self):
        history = [_record({"run.tasks": 2.0, "run.wall_seconds": 1.0})]
        current = _record({"run.tasks": 4.0, "run.wall_seconds": 1.0})
        report = check_record(current, history)
        assert report.summary() == (
            "DRIFT: series: 2 metrics checked, 1 drifted, 0 skipped"
        )


class TestCheckCli:
    """The ``fcma perf check --latest`` gate, end to end on disk.

    This is the acceptance scenario: a synthetic regression injected
    into the newest record of a series must turn the exit code red.
    """

    METRICS = {
        "run.wall_seconds": 2.0,
        "run.tasks": 2.0,
        "kernel.score_voxels.pc.l2_misses": 1e6,
        "kernel.score_voxels.predicted_seconds": 0.5,
    }

    def _seed(self, path, n=2, metrics=None):
        registry = HistoryRegistry(path)
        for _ in range(n):
            registry.append(_record(metrics or self.METRICS, name="gate"))
        return registry

    def test_healthy_series_exits_zero(self, tmp_path, capsys):
        path = tmp_path / "history.jsonl"
        self._seed(path, n=3)
        rc = main(
            ["perf", "check", "--latest", "--name", "gate",
             "--history", str(path)]
        )
        assert rc == 0
        assert "OK: gate" in capsys.readouterr().out

    def test_synthetic_regression_exits_one(self, tmp_path, capsys):
        path = tmp_path / "history.jsonl"
        registry = self._seed(path, n=2)
        # Inject the regression: modeled L2 misses up 1.5x (a model or
        # kernel change) and wall time up 10x (a real slowdown).
        bad = dict(self.METRICS)
        bad["kernel.score_voxels.pc.l2_misses"] *= 1.5
        bad["run.wall_seconds"] *= 10.0
        registry.append(_record(bad, name="gate"))

        rc = main(
            ["perf", "check", "--latest", "--name", "gate",
             "--history", str(path)]
        )
        assert rc == 1
        out = capsys.readouterr().out
        assert "DRIFT: gate" in out
        assert "DRIFT kernel.score_voxels.pc.l2_misses" in out
        assert "DRIFT run.wall_seconds" in out

    def test_empty_registry_exits_two(self, tmp_path, capsys):
        rc = main(
            ["perf", "check", "--latest", "--name", "gate",
             "--history", str(tmp_path / "none.jsonl")]
        )
        assert rc == 2
        assert "no 'gate' records" in capsys.readouterr().err

    def test_single_record_is_uncheckable(self, tmp_path, capsys):
        path = tmp_path / "history.jsonl"
        self._seed(path, n=1)
        rc = main(
            ["perf", "check", "--latest", "--name", "gate",
             "--history", str(path)]
        )
        assert rc == 2
        assert "nothing checkable" in capsys.readouterr().err

    def test_config_change_is_flagged_as_note(self, tmp_path, capsys):
        path = tmp_path / "history.jsonl"
        registry = HistoryRegistry(path)
        for hash_ in ("aaa", "aaa", "bbb"):
            registry.append(
                BenchmarkRecord(
                    name="gate",
                    metrics=self.METRICS,
                    machine={"node": "same-box"},
                    config_hash=hash_,
                )
            )
        rc = main(
            ["perf", "check", "--latest", "--name", "gate",
             "--history", str(path)]
        )
        assert rc == 0
        assert "config hash bbb not seen" in capsys.readouterr().out
