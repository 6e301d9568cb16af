"""``fcma perf report`` end to end, and the pinned numbers of one run."""

from __future__ import annotations

import json
from collections import Counter

import pytest

from repro.cli import main
from repro.obs import read_jsonl


@pytest.fixture(scope="module")
def dataset_file(tmp_path_factory):
    path = tmp_path_factory.mktemp("perfcli") / "ds.npz"
    assert main(
        ["generate", str(path), "--preset", "quickstart",
         "--voxels", "60", "--seed", "11"]
    ) == 0
    return path


@pytest.fixture(scope="module")
def traces(dataset_file, tmp_path_factory):
    """Two enriched traces of the same serial run (``fcma run --trace``)."""
    out = tmp_path_factory.mktemp("perfcli-traces")
    paths = []
    for i in range(2):
        path = out / f"trace{i}.jsonl"
        assert main(
            ["run", str(dataset_file), "--task-voxels", "40",
             "--trace", str(path)]
        ) == 0
        paths.append(path)
    return paths


#: Model outputs a kernel span carries once enriched, summed over calls.
_KERNEL_PREDICTIONS = (
    "predicted_seconds", "pc.flops", "pc.l2_misses", "pc.l2_remote_hits"
)


def _deterministic(spans) -> dict[str, float]:
    """A run's numbers that do not depend on the clock: run counters,
    task and stage-call counts, and each enriched kernel's modelled
    counters and predicted time (with the GFLOPS they imply)."""
    out: Counter[str] = Counter()
    for span in spans:
        for name, value in span.metrics.items():
            if name.startswith("ctr."):
                out[f"counter.{name[4:]}"] += value
        if span.kind == "task":
            out["run.tasks"] += 1
        elif span.kind == "stage":
            out[f"stage.{span.name}.calls"] += span.metrics.get("calls", 1.0)
        elif span.kind == "kernel" and "predicted_seconds" in span.metrics:
            for name in _KERNEL_PREDICTIONS:
                if name in span.metrics:
                    out[f"kernel.{span.name}.{name}"] += span.metrics[name]
    for key in [k for k in out if k.endswith(".predicted_seconds")]:
        prefix = key.removesuffix(".predicted_seconds")
        out[f"{prefix}.predicted_gflops"] = (
            out[f"{prefix}.pc.flops"] / out[key] / 1e9
        )
    return dict(out)


#: The quickstart run above (60 voxels, seed 11, 40-voxel tasks, Xeon
#: model): counts exact, model outputs to 1e-6 relative.
PINNED_COUNTS = {
    "counter.emitter_dense_runs": 2,
    "counter.emitter_dense_tiles": 2,
    "counter.stage12_tiles": 2,
    "run.tasks": 2,
    "stage.correlate+normalize.calls": 2,
    "stage.preprocess.calls": 2,
    "stage.score.calls": 2,
    "kernel.correlate_normalize_batched.pc.flops": 6220800,
    "kernel.correlate_normalize_batched.pc.l2_misses": 18765,
    "kernel.correlate_normalize_batched.pc.l2_remote_hits": 4320,
    "kernel.score_voxels.pc.flops": 8386560,
    "kernel.score_voxels.pc.l2_misses": 2880,
}
PINNED_MODEL = {
    "kernel.correlate_normalize_batched.predicted_seconds":
        4.2109739010989013e-05,
    "kernel.correlate_normalize_batched.predicted_gflops":
        147.72829625889185,
    "kernel.score_voxels.predicted_seconds": 0.0002376,
    "kernel.score_voxels.predicted_gflops": 35.2969696969697,
}


class TestPinnedQuickstartRun:
    def test_two_runs_match_the_pinned_numbers(self, traces):
        first, second = (_deterministic(read_jsonl(p)) for p in traces)
        assert first == second
        assert {k: first.get(k) for k in PINNED_COUNTS} == PINNED_COUNTS
        assert {k: first.get(k) for k in PINNED_MODEL} == pytest.approx(
            PINNED_MODEL, rel=1e-6
        )


class TestPerfReport:
    def test_renders_both_sections(self, traces, capsys):
        capsys.readouterr()
        assert main(["perf", "report", str(traces[0])]) == 0
        out = capsys.readouterr().out
        assert "predicted vs measured" in out
        assert "roofline: peak" in out
        assert "correlate_normalize_batched" in out

    def test_unreadable_trace_exits_two(self, tmp_path, capsys):
        rc = main(["perf", "report", str(tmp_path / "missing.jsonl")])
        assert rc == 2
        assert "cannot read trace" in capsys.readouterr().err


class TestRunHistoryFlag:
    def test_run_without_history_has_no_history_key(self, dataset_file,
                                                    capsys):
        """``fcma run`` keeps no benchmark history: its report has no
        ``history`` key (and the flag itself is gone: test_cli)."""
        rc = main(
            ["run", str(dataset_file), "--task-voxels", "40", "--json"]
        )
        assert rc == 0
        report = json.loads(capsys.readouterr().out)
        assert "history" not in report
