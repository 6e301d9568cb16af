"""CLI integration for the live plane: ``run --live`` and ``fcma top``.

Covers the acceptance criteria end to end: monotonically non-decreasing
progress snapshots, per-rank heartbeats over the TCP transport,
bitwise-identical results with the plane on vs off, a parseable
Prometheus exposition file, and ETA convergence on mid-run snapshots.
"""

from __future__ import annotations

import dataclasses
import io
import json
from contextlib import redirect_stdout
from pathlib import Path

import pytest

from repro.cli import main
from repro.data import generate_dataset, save_dataset
from repro.obs.live import SNAPSHOT_SCHEMA
from repro.obs.live.view import read_snapshots

GOLDEN = Path(__file__).parent.parent / "golden" / "live_snapshot_schema.json"


def _run_cli(argv: list[str]) -> tuple[int, str]:
    buf = io.StringIO()
    with redirect_stdout(buf):
        code = main(argv)
    return code, buf.getvalue()


@pytest.fixture(scope="module")
def dataset_path(tiny_dataset, tmp_path_factory) -> str:
    path = tmp_path_factory.mktemp("ds") / "tiny.npz"
    save_dataset(tiny_dataset, path)
    return str(path)


@pytest.fixture(scope="module")
def wide_dataset_path(tiny_config, tmp_path_factory) -> str:
    """The tiny dataset widened to 600 voxels: a serial run lasts a few
    hundred milliseconds, long enough for a stream of mid-run snapshots
    at a 20 ms interval (the 60-voxel run finishes inside one or two)."""
    config = dataclasses.replace(tiny_config, n_voxels=600, name="wide")
    path = tmp_path_factory.mktemp("ds") / "wide.npz"
    save_dataset(generate_dataset(config), path)
    return str(path)


class TestSerialLive:
    @pytest.fixture(scope="class")
    def live_run(self, dataset_path, tmp_path_factory):
        out = tmp_path_factory.mktemp("live")
        events = out / "events.jsonl"
        prom = out / "metrics.prom"
        # Warm-up run: BLAS threads and code paths initialize outside
        # the measured run, so per-task wall times are uniform and the
        # ETA extrapolation below has a steady rate to work with.
        _run_cli(["run", dataset_path, "--task-voxels", "5", "--json"])
        code, stdout = _run_cli([
            "run", dataset_path, "--task-voxels", "5", "--json",
            "--live", "--live-events", str(events),
            "--prom-file", str(prom), "--live-interval", "0.02",
        ])
        assert code == 0
        return json.loads(stdout), events, prom

    def test_report_embeds_final_snapshot(self, live_run):
        report, _, _ = live_run
        live = report["live"]
        assert live["schema"] == SNAPSHOT_SCHEMA
        assert live["final"] is True
        assert live["progress"]["fraction"] == 1.0
        assert live["progress"]["eta_s"] == 0.0
        assert live["counters"]["tasks"] == live["progress"]["total"] > 0

    def test_snapshot_stream_monotonic(self, live_run):
        _, events, _ = live_run
        snaps = read_snapshots(events)
        assert snaps, "no snapshots published"
        seqs = [s["seq"] for s in snaps]
        assert seqs == sorted(seqs)
        fractions = [s["progress"]["fraction"] for s in snaps]
        assert all(a <= b for a, b in zip(fractions, fractions[1:]))
        assert snaps[-1]["final"] is True
        assert snaps[-1]["progress"]["fraction"] == 1.0

    def test_snapshot_stream_matches_golden_schema(self, live_run):
        _, events, _ = live_run
        golden = json.loads(GOLDEN.read_text())
        for snap in read_snapshots(events):
            assert sorted(snap) == sorted(golden["snapshot_keys"])
            assert sorted(snap["progress"]) == sorted(
                golden["progress_keys"]
            )

    def test_eta_converges_on_midrun_snapshots(
        self, wide_dataset_path, tmp_path
    ):
        """Acceptance: past 50% progress the remaining-work ETA must be
        within 50% of the true remaining wall time (known post hoc).

        Judged at the first snapshot after each completion — between
        completions the fraction is quantized (the ETA cannot see how
        far into the current task the run is), so later samples at the
        same fraction go stale by design. The extrapolation assumes a
        steady task rate, so a background load spike mid-measurement can
        legitimately skew it; the run is retried so only a persistent
        divergence fails."""
        failures = []
        for attempt in range(3):
            events = tmp_path / f"eta-{attempt}.jsonl"
            code, _ = _run_cli([
                "run", wide_dataset_path, "--task-voxels", "5", "--json",
                "--live-events", str(events), "--live-interval", "0.02",
            ])
            assert code == 0
            snaps = read_snapshots(events)
            true_elapsed = snaps[-1]["elapsed_s"]
            candidates = []
            last_fraction = None
            for snap in snaps[:-1]:
                fraction = snap["progress"]["fraction"]
                eta = snap["progress"]["eta_s"]
                fresh = fraction != last_fraction
                last_fraction = fraction
                true_remaining = true_elapsed - snap["elapsed_s"]
                if (
                    fresh
                    and 0.5 <= fraction < 1.0
                    and eta is not None
                    and true_remaining > 0.02
                ):
                    candidates.append((eta, true_remaining))
            failures = [
                f"ETA {eta:.3f}s vs true remaining {true_remaining:.3f}s"
                for eta, true_remaining in candidates
                if abs(eta - true_remaining) > 0.5 * true_remaining + 0.1
            ]
            if candidates and not failures:
                return
        if not candidates:
            pytest.skip("run finished too fast for mid-run snapshots")
        assert not failures, "; ".join(failures)

    def test_prometheus_file_parses(self, live_run):
        _, _, prom = live_run
        text = prom.read_text()
        assert "fcma_progress_fraction 1" in text
        for line in text.splitlines():
            if line.startswith("#") or not line:
                continue
            float(line.rpartition(" ")[2])

    def test_report_has_no_live_key_without_flag(self, dataset_path):
        code, stdout = _run_cli([
            "run", dataset_path, "--task-voxels", "20", "--json",
        ])
        assert code == 0
        assert "live" not in json.loads(stdout)

    def test_events_imply_live(self, dataset_path, tmp_path):
        events = tmp_path / "events.jsonl"
        code, stdout = _run_cli([
            "run", dataset_path, "--task-voxels", "20",
            "--live-events", str(events),
        ])
        assert code == 0
        assert "live:" in stdout
        assert read_snapshots(events)


class TestRtfmriLive:
    def test_step_histogram_and_training_progress(
        self, dataset_path, tmp_path
    ):
        """The feedback loop's per-step ``stream`` spans land in the
        ``rtfmri_step_seconds`` histogram, and the session's internal
        training executor drives progress to completion (its ``plan``
        event and task spans) — all folded from the session's tracer."""
        events = tmp_path / "rt.jsonl"
        code, stdout = _run_cli([
            "rtfmri", dataset_path, "--training-epochs", "4",
            "--latency-budget-ms", "5000", "--json",
            "--live-events", str(events),
        ])
        assert code == 0
        live = json.loads(stdout)["live"]
        steps = live["histograms"]["rtfmri_step_seconds"]
        assert steps["count"] > 0
        assert live["counters"]["rtfmri_steps"] == steps["count"]
        assert live["progress"]["fraction"] == 1.0
        assert live["gauges"]["rtfmri_latency_budget_s"] == 5.0
        assert read_snapshots(events)[-1]["final"] is True


class TestTop:
    def test_renders_latest_snapshot(self, dataset_path, tmp_path):
        events = tmp_path / "events.jsonl"
        code, _ = _run_cli([
            "run", dataset_path, "--task-voxels", "20",
            "--live-events", str(events),
        ])
        assert code == 0
        code, stdout = _run_cli(["top", str(events)])
        assert code == 0
        assert "fcma top" in stdout
        assert "100.0%" in stdout

    def test_missing_snapshots_exit_one(self, tmp_path):
        empty = tmp_path / "empty.jsonl"
        empty.write_text("")
        code, _ = _run_cli(["top", str(empty)])
        assert code == 1


class TestMasterWorkerLive:
    @pytest.fixture(scope="class")
    def tcp_live_run(self, dataset_path, tmp_path_factory):
        out = tmp_path_factory.mktemp("tcp_live")
        events = out / "events.jsonl"
        code, stdout = _run_cli([
            "run", dataset_path, "--task-voxels", "20", "--json",
            "--executor", "master-worker", "--transport", "tcp",
            "--partition", "tiles", "--workers", "2",
            "--live", "--live-events", str(events),
            "--live-interval", "0.02",
        ])
        assert code == 0
        return json.loads(stdout), events

    def test_progress_completes_with_heartbeats(self, tcp_live_run):
        report, _ = tcp_live_run
        live = report["live"]
        assert live["progress"]["fraction"] == 1.0
        # Both worker ranks were heard from and reported completions.
        assert set(live["workers"]) == {"1", "2"}
        for entry in live["workers"].values():
            assert entry["lost"] is False
            assert entry["stale"] is False

    @staticmethod
    def _assert_workers_sum_to_total(live: dict) -> None:
        # Per-rank progress is the master's own count of the results it
        # received: exact, so it sums to the items served.
        reported = sum(entry["completed"] for entry in live["workers"].values())
        assert reported == live["progress"]["total"] > 0

    def test_worker_completions_cover_tasks(self, tcp_live_run):
        report, _ = tcp_live_run
        self._assert_workers_sum_to_total(report["live"])

    def test_thread_worker_completions_cover_tasks(self, dataset_path):
        code, stdout = _run_cli([
            "run", dataset_path, "--task-voxels", "20", "--json",
            "--executor", "master-worker", "--transport", "thread",
            "--partition", "tiles", "--workers", "2", "--live",
        ])
        assert code == 0
        self._assert_workers_sum_to_total(json.loads(stdout)["live"])

    def test_stream_monotonic_over_tcp(self, tcp_live_run):
        _, events = tcp_live_run
        snaps = read_snapshots(events)
        fractions = [s["progress"]["fraction"] for s in snaps]
        assert all(a <= b for a, b in zip(fractions, fractions[1:]))
        assert fractions[-1] == 1.0

    def test_results_bitwise_identical_live_on_off(self, dataset_path):
        def top_voxels(live: bool) -> list:
            argv = [
                "run", dataset_path, "--task-voxels", "20", "--json",
                "--executor", "master-worker", "--transport", "tcp",
                "--partition", "tiles", "--workers", "2",
            ]
            if live:
                argv.append("--live")
            code, stdout = _run_cli(argv)
            assert code == 0
            return json.loads(stdout)["top"]

        assert top_voxels(live=False) == top_voxels(live=True)
