"""Checks on the benchmark harness itself (not on the program's speed).

Run with ``python -m pytest benchmarks/e2e/test_harness.py``; tier-1
does not collect this directory.  One ``--smoke`` run (tiny geometries)
feeds most tests.
"""

from __future__ import annotations

import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
sys.path.insert(0, str(HERE))

from metrics import END_TO_END, PER_LAYER  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")
DECLARED = json.loads((ROOT / "BENCHMARK.json").read_text())


def run(*args: str) -> subprocess.CompletedProcess[str]:
    return subprocess.run(
        [sys.executable, str(HERE / "run.py"), *args],
        cwd=ROOT, capture_output=True, text=True, timeout=170,
    )


@pytest.fixture(scope="module")
def smoke() -> dict:
    proc = run("--smoke")
    assert proc.returncode == 0, proc.stdout + proc.stderr
    return json.loads((HERE / "out" / "smoke.json").read_text())


def test_benchmark_json_matches_declarations():
    assert set(DECLARED) == {
        "command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"
    }
    assert DECLARED["paths"] == ["benchmarks/e2e"]
    assert [(w["name"], w["why"]) for w in DECLARED["workloads"]] == [
        (w.name, w.why) for w in WORKLOADS.values()
    ]
    assert DECLARED["end_to_end"] == [
        {"name": m.name, "unit": m.unit, "better": m.better, "bound": m.bound}
        for m in END_TO_END
    ]
    assert DECLARED["per_layer"] == [
        {"name": m.name, "unit": m.unit, "better": m.better} for m in PER_LAYER
    ]


def test_contract_limits():
    assert 1 <= len(END_TO_END) <= 16 and 1 <= len(PER_LAYER) <= 128
    assert 2 <= len(WORKLOADS) <= 8
    names = [m.name for m in (*END_TO_END, *PER_LAYER)] + list(WORKLOADS)
    assert len(set(names)) == len(names)
    for name in names:
        assert NAME.fullmatch(name), name
    for m in (*END_TO_END, *PER_LAYER):
        assert UNIT.fullmatch(m.unit), m
        assert m.better in ("lower", "higher")
    for m in END_TO_END:
        assert 0 < m.bound <= 0.25
    assert any(m.name == "setup_s" and m.unit == "s" and m.better == "lower"
               for m in END_TO_END)
    for w in WORKLOADS.values():
        assert len(w.why) <= 200 and "\n" not in w.why
    assert isinstance(DECLARED["run_seconds"], int) and 1 <= DECLARED["run_seconds"] <= 60


def test_smoke_emits_exactly_the_declared_metrics(smoke):
    assert list(smoke["workloads"]) == list(WORKLOADS)
    for name, entry in smoke["workloads"].items():
        assert {k: v["unit"] for k, v in entry["end_to_end"].items()} == {
            m.name: m.unit for m in END_TO_END
        }, name
        assert {k: v["unit"] for k, v in entry["per_layer"].items()} == {
            m.name: m.unit for m in PER_LAYER
        }, name
        for v in entry["end_to_end"].values():
            assert v["value"] > 0 and v["n"] == len(v["samples"])
        assert entry["failed"] == 0 and entry["attempted"] >= 1, entry["failures"]
        assert re.fullmatch(r"[0-9a-f]{64}", entry["selection_digest"])


def test_environment_block(smoke):
    assert {"nproc", "blas", "blas_threads", "numpy", "python"} <= set(smoke["env"])
    assert set(smoke["env"]["blas_threads"].values()) == {"1"}
    assert {"seed", "git_sha", "run_seconds"} <= set(smoke)
    for entry in smoke["workloads"].values():
        assert {"n_voxels", "n_epochs", "n_scored", "config"} <= set(entry["geometry"])
        assert {"machine.sgemm_gflops", "llc_mb", "stream_array_mb"} <= set(entry["machine"])


def test_layers_and_residual_sum_to_wall(smoke):
    for name, entry in smoke["workloads"].items():
        layer = {k: v["value"] for k, v in entry["per_layer"].items()}
        wall = layer["bench.paired_wall_s"]
        assert layer["exec.layers_sum_s"] + layer["exec.residual_s"] == pytest.approx(wall), name
        assert layer["exec.residual_frac"] == pytest.approx(layer["exec.residual_s"] / wall)


def test_bypassed_layers_read_zero(smoke):
    per = {n: {k: v["value"] for k, v in e["per_layer"].items()}
           for n, e in smoke["workloads"].items()}
    for name in ("offline-facescene", "online-wide", "sparse-wide"):
        assert all(v == 0 for k, v in per[name].items() if k.startswith("parallel."))
    assert per["online-wide"]["core.sparse.csr_s"] == 0 < per["sparse-wide"]["core.sparse.csr_s"]
    assert per["sparse-wide"]["core.engine.dense_s"] == 0 < per["online-wide"]["core.engine.dense_s"]
    assert per["scaleout-tiles"]["parallel.comm.bytes_sent"] > 0


def test_span_parents_resolve(smoke):
    for name, entry in smoke["workloads"].items():
        spans = json.loads(Path(entry["trace_file"]).read_text())
        ids = {s["id"] for s in spans}
        assert len(ids) == len(spans) > 0
        for s in spans:
            assert s["workload"] == name and s["end"] >= s["start"]
            assert s["parent"] is None or (s["parent"] in ids and s["parent"] < s["id"])
        assert {s["name"] for s in spans if s["parent"] is None} == {"drive"}


@pytest.mark.parametrize("trace", ["0", "1"])
def test_contract_mode_prints_one_result_object(trace):
    proc = run("--workload", "sparse-wide", "--seed", "3", "--seconds", "1",
               "--trace", trace, "--smoke")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 <= result["attempted"] - 1
    declared = DECLARED["per_layer" if trace == "1" else "end_to_end"]
    assert {k: v["unit"] for k, v in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in declared
    }


def test_refuses_to_run_without_the_program(tmp_path):
    """A directory holding only BENCHMARK.json and the benchmark's own
    files must fail without printing a result."""
    bench = tmp_path / "benchmarks" / "e2e"
    shutil.copytree(HERE, bench, ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, str(bench / "run.py"), "--workload", "online-wide",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=170,
    )
    assert proc.returncode != 0 and proc.stdout == ""
