"""Tests for the command-line interface."""

import json

import numpy as np
import pytest

from repro.cli import build_parser, main


@pytest.fixture(scope="module")
def dataset_file(tmp_path_factory):
    path = tmp_path_factory.mktemp("cli") / "ds.npz"
    rc = main([
        "generate", str(path), "--preset", "quickstart",
        "--voxels", "80", "--seed", "11",
    ])
    assert rc == 0
    return path


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_unknown_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["transmogrify"])

    def test_defaults(self):
        args = build_parser().parse_args(["report"])
        assert args.dataset == "face-scene"
        assert args.machine == "phi"

    @pytest.mark.parametrize("command", [
        ["run", "ds.npz"], ["select", "ds.npz"], ["scenarios"],
        ["run", "ds.npz", "--hosts"],
    ])
    @pytest.mark.parametrize("count", ["0", "-3"])
    def test_worker_counts_below_one_exit_2(self, command, count, capsys):
        flag = [] if command[-1] == "--hosts" else ["--workers"]
        with pytest.raises(SystemExit) as exit_info:
            build_parser().parse_args([*command, *flag, count])
        assert exit_info.value.code == 2
        assert "must be >= 1" in capsys.readouterr().err

    @pytest.mark.parametrize("argv", [
        ["run", "ds.npz", "--history", "h.jsonl"],
        ["rtfmri", "ds.npz", "--history", "h.jsonl"],
        ["scenarios", "--history", "h.jsonl"],
        ["perf", "record", "ds.npz"],
        ["perf", "check", "--latest"],
        ["perf", "history"],
    ])
    def test_benchmark_history_flags_and_commands_exit_2(self, argv, capsys):
        """No command keeps a benchmark history: timing is judged by the
        end-to-end benchmark's paired runs alone."""
        with pytest.raises(SystemExit) as exit_info:
            build_parser().parse_args(argv)
        assert exit_info.value.code == 2
        err = capsys.readouterr().err
        assert "unrecognized arguments: --history" in err or (
            "invalid choice" in err
        )

    @pytest.mark.parametrize("option", [
        ["--workers", "3"],
        ["--listen", "127.0.0.1:5555"],
        ["--hosts", "2"],
        ["--transport", "tcp"],
        ["--partition", "tiles"],
    ])
    def test_rank_options_on_the_serial_executor_exit_2(
        self, dataset_file, option, capsys
    ):
        """The serial executor has no ranks: a rank option is an error,
        not silently ignored."""
        argv = ["run", str(dataset_file), "--executor", "serial", *option]
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert f"{option[0]} require --executor master-worker" in err


class TestGenerate:
    def test_writes_loadable_dataset(self, dataset_file):
        from repro.data import load_dataset

        ds = load_dataset(dataset_file)
        assert ds.n_voxels == 80

    def test_subject_override(self, tmp_path):
        path = tmp_path / "s.npz"
        assert main(["generate", str(path), "--subjects", "2"]) == 0
        from repro.data import load_dataset

        assert load_dataset(path).n_subjects == 2


class TestGenerateDesign:
    """The ``--design`` path and its golden-file determinism contract."""

    ARGS = ["--design", "block", "--voxels", "48", "--subjects", "2",
            "--seed", "3"]

    #: The .npz schema every generated scenario archive must carry.
    SCHEMA = {
        "format_version", "name", "subjects", "epoch_records",
        "bold_0", "bold_1",
    }

    def _generate(self, path):
        assert main(["generate", str(path), *self.ARGS]) == 0

    def test_writes_loadable_scenario_dataset(self, tmp_path, capsys):
        path = tmp_path / "design.npz"
        self._generate(path)
        out = capsys.readouterr().out
        assert "design: block" in out and "planted voxels" in out
        from repro.data import load_dataset

        ds = load_dataset(path)
        assert ds.n_voxels == 48
        assert ds.n_subjects == 2

    def test_npz_schema(self, tmp_path):
        path = tmp_path / "design.npz"
        self._generate(path)
        with np.load(path, allow_pickle=False) as archive:
            assert set(archive.files) == self.SCHEMA
            assert int(archive["format_version"]) == 1
            assert str(archive["name"]) == "scenario-block"
            assert archive["bold_0"].dtype == np.float32

    def test_arrays_byte_stable_for_fixed_seed(self, tmp_path):
        a_path, b_path = tmp_path / "a.npz", tmp_path / "b.npz"
        self._generate(a_path)
        self._generate(b_path)
        with np.load(a_path) as a, np.load(b_path) as b:
            assert a.files == b.files
            for key in a.files:
                assert a[key].tobytes() == b[key].tobytes(), key

    def test_golden_epoch_records_and_planted_set(self, tmp_path):
        """Integer outputs are platform-independent: pin them exactly."""
        from repro.data import DESIGN_PRESETS, GroundTruthConfig
        from repro.data.designs import design_ground_truth

        path = tmp_path / "design.npz"
        self._generate(path)
        with np.load(path) as archive:
            records = archive["epoch_records"]
        # 2 subjects x 10 alternating epochs of 10 TRs, gap 5, offset 3.
        assert records.shape == (20, 4)
        np.testing.assert_array_equal(
            records[:3],
            [[0, 0, 3, 10], [0, 1, 18, 10], [0, 0, 33, 10]],
        )
        cfg = GroundTruthConfig(
            design=DESIGN_PRESETS["block"](), n_voxels=48, n_subjects=2,
            seed=3, name="scenario-block",
        )
        np.testing.assert_array_equal(
            design_ground_truth(cfg)[:6], [1, 2, 3, 4, 5, 6]
        )

    @pytest.mark.parametrize("kind", ["event", "jittered"])
    def test_other_designs_generate(self, tmp_path, kind):
        path = tmp_path / f"{kind}.npz"
        rc = main([
            "generate", str(path), "--design", kind,
            "--voxels", "48", "--subjects", "1", "--seed", "3",
        ])
        assert rc == 0
        from repro.data import load_dataset

        assert load_dataset(path).name == f"scenario-{kind}"

    def test_snr_sf_require_design(self, tmp_path, capsys):
        rc = main(["generate", str(tmp_path / "x.npz"), "--snr", "2.0"])
        assert rc == 2
        assert "--design" in capsys.readouterr().err

    def test_epochs_per_subject_must_balance(self, tmp_path, capsys):
        rc = main([
            "generate", str(tmp_path / "x.npz"), "--design", "block",
            "--epochs-per-subject", "5",
        ])
        assert rc == 2
        assert "multiple" in capsys.readouterr().err


class TestScenarios:
    ARGS = ["scenarios", "--matrix", "smoke", "--design", "block",
            "--snr", "6.0", "--voxels", "36", "--subjects", "3",
            "--seed", "7"]

    def test_table_and_floor_pass(self, capsys):
        assert main([*self.ARGS, "--min-auc", "0.8"]) == 0
        out = capsys.readouterr().out
        assert "snr=6" in out
        assert "meets 0.800" in out

    def test_floor_failure_exits_nonzero(self, capsys):
        assert main([*self.ARGS, "--min-auc", "1.01"]) == 1
        assert "BELOW" in capsys.readouterr().out

    def test_json_report(self, capsys):
        rc = main([*self.ARGS, "--json"])
        assert rc == 0
        report = json.loads(capsys.readouterr().out)
        assert report["n_scenarios"] == 1
        (scenario,) = report["scenarios"]
        assert scenario["key"] == "block.snr6.sf1.subj3"
        assert 0.0 <= scenario["roc_auc"] <= 1.0


class TestRtfmri:
    def test_streaming_ci_session_is_pinned(self, tmp_path, capsys):
        """The closed-loop session the streaming CI job runs (quickstart,
        60 voxels, one subject of 20 epochs, seed 17; 8 training epochs,
        top 20 voxels): its counts and feedback accuracy are a function
        of the data, pinned at equality."""
        path = tmp_path / "rt.npz"
        assert main([
            "generate", str(path), "--preset", "quickstart",
            "--voxels", "60", "--subjects", "1",
            "--epochs-per-subject", "20", "--seed", "17",
        ]) == 0
        capsys.readouterr()
        assert main([
            "rtfmri", str(path), "--training-epochs", "8", "--top-k", "20",
            "--json",
        ]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["feedback_events"] == 12
        assert report["feedback_accuracy"] == 0.8333333333333334
        streaming = {
            k: report["streaming"][k]
            for k in ("trs_streamed", "partial_updates", "epochs_completed",
                      "epochs_evicted", "warm_started_retrains")
        }
        assert streaming == {
            "trs_streamed": 144,
            "partial_updates": 132,
            "epochs_completed": 12,
            "epochs_evicted": 0,
            "warm_started_retrains": 0,
        }


class TestRun:
    @pytest.mark.parametrize("executor", ["serial", "master-worker"])
    def test_runs_on_every_executor(self, dataset_file, capsys, executor):
        # The serial executor has no ranks to count (``--workers`` there
        # is an error: TestParser).
        ranks = ["--workers", "2"] if executor == "master-worker" else []
        rc = main([
            "run", str(dataset_file), "--executor", executor, *ranks,
            "--task-voxels", "40", "--top", "3",
        ])
        assert rc == 0
        out = capsys.readouterr().out
        assert f"executor: {executor}" in out
        assert "per-stage wall time" in out
        assert out.count("accuracy") >= 3

    def test_json_report(self, dataset_file, capsys):
        rc = main([
            "run", str(dataset_file), "--json",
            "--task-voxels", "40", "--top", "2",
        ])
        assert rc == 0
        report = json.loads(capsys.readouterr().out)
        assert report["executor"] == "serial"
        assert report["n_tasks"] == 2
        assert set(report["stages"]) == {
            "preprocess", "correlate+normalize", "score",
        }
        assert len(report["top"]) == 2
        assert all(0 <= entry["accuracy"] <= 1 for entry in report["top"])

    def test_executors_print_identical_rankings(self, dataset_file, capsys):
        tops = []
        for executor, ranks in (
            ("serial", []),
            ("master-worker", ["--transport", "thread", "--workers", "2"]),
            ("master-worker", ["--transport", "tcp", "--workers", "2"]),
        ):
            rc = main([
                "run", str(dataset_file), "--executor", executor, *ranks,
                "--task-voxels", "40", "--top", "5", "--json",
            ])
            assert rc == 0
            tops.append(json.loads(capsys.readouterr().out)["top"])
        assert tops[0] == tops[1] == tops[2]


class TestSelect:
    def test_prints_top_voxels(self, dataset_file, capsys):
        rc = main([
            "select", str(dataset_file), "--top", "3", "--task-voxels", "40",
        ])
        assert rc == 0
        out = capsys.readouterr().out
        assert "top 3 voxels" in out
        assert out.count("accuracy") >= 3

    def test_csv_output(self, dataset_file, tmp_path, capsys):
        csv = tmp_path / "scores.csv"
        rc = main([
            "select", str(dataset_file), "--top", "2",
            "--task-voxels", "40", "--output", str(csv),
        ])
        assert rc == 0
        lines = csv.read_text().splitlines()
        assert lines[0] == "voxel,accuracy"
        assert len(lines) == 81
        accs = np.array([float(l.split(",")[1]) for l in lines[1:]])
        assert (np.diff(accs) <= 1e-9).all()  # sorted descending
        # Two master-worker thread ranks write the serial file, byte
        # for byte.
        ranks = tmp_path / "ranks.csv"
        rc = main([
            "select", str(dataset_file), "--top", "2", "--task-voxels", "40",
            "--workers", "2", "--output", str(ranks),
        ])
        assert rc == 0
        assert ranks.read_bytes() == csv.read_bytes()

    def test_baseline_variant(self, dataset_file, capsys):
        rc = main([
            "select", str(dataset_file), "--variant", "baseline",
            "--top", "2", "--task-voxels", "80",
        ])
        assert rc == 0


class TestAnalysisCommands:
    def test_offline(self, dataset_file, capsys):
        rc = main(["offline", str(dataset_file), "--top", "8",
                   "--task-voxels", "80"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "mean held-out accuracy" in out

    def test_online(self, dataset_file, capsys):
        rc = main(["online", str(dataset_file), "--subject", "1", "--top", "5"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "selected 5 voxels" in out


class TestModelCommands:
    def test_report(self, capsys):
        rc = main(["report", "--dataset", "attention", "--machine", "phi",
                   "--task-voxels", "60"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "LibSVM" in out
        assert "speedup" in out

    def test_report_knl(self, capsys):
        assert main(["report", "--machine", "knl"]) == 0
        assert "KNL" in capsys.readouterr().out

    def test_simulate_offline(self, capsys):
        rc = main(["simulate", "--dataset", "face-scene", "--nodes", "1", "8"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "8 coprocessors" in out
        assert "utilization" in out

    def test_simulate_online(self, capsys):
        rc = main(["simulate", "--mode", "online", "--nodes", "1"])
        assert rc == 0
        assert "online workload" in capsys.readouterr().out

    def test_simulate_trace_is_the_largest_schedule(self, capsys, tmp_path):
        """``--trace`` writes the span tree of the largest node count's
        schedule, and ``fcma trace`` reads it like a measured run's."""
        from repro.bench.experiments import paper_workload
        from repro.cluster import ClusterConfig, simulate

        path = tmp_path / "sim.jsonl"
        assert main(["simulate", "--nodes", "1", "4", "--trace", str(path)]) == 0
        assert "(4-worker schedule)" in capsys.readouterr().out
        assert main(["trace", str(path), "--view", "chrome"]) == 0
        events = json.loads(capsys.readouterr().out)["traceEvents"]
        (run,) = [e for e in events if e["cat"] == "run"]
        expected = simulate(
            paper_workload("offline", "face-scene"), ClusterConfig(n_workers=4)
        )
        assert run["args"]["t1_s"] == expected.elapsed_seconds
        assert {e["tid"] for e in events if e["cat"] == "task"} == {0, 1, 2, 3}
