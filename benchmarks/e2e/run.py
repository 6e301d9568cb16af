"""One end-to-end FCMA benchmark: four workloads through ``Executor.run``.

    python benchmarks/e2e/run.py                 all workloads, table + out/result.json
    python benchmarks/e2e/run.py --smoke         tiny geometries, < 30 s
    python benchmarks/e2e/run.py --workload W --seed N --seconds S --trace 0|1
                                                 one workload; last stdout line is the
                                                 result object of the builder contract

Closed loop, one client.  Every measurement happens in a fresh child
process (``child.py``); this file only starts them one after another,
aggregates, prints and checks.  See README.md for the metric glossary.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Any

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
OUT = HERE / "out"
sys.path.insert(0, str(HERE))

from metrics import END_TO_END, PER_LAYER  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

#: Cold processes whose set-up time is sampled per run (median reported).
SETUP_SAMPLES = 3
CHILD_TIMEOUT_S = 170


def spawn_child(workload: str, seed: int, **options: Any) -> dict[str, Any]:
    """Run ``child.py`` to completion and return its result object."""
    cmd = [
        sys.executable, str(HERE / "child.py"),
        "--workload", workload, "--seed", str(seed),
        "--spawned-at", repr(time.time()),
    ]
    for key, value in options.items():
        flag = "--" + key.replace("_", "-")
        if value is True:
            cmd.append(flag)
        elif value is not False and value is not None:
            cmd += [flag, str(value)]
    # Own session: a timeout kills the child *and* the TCP workers it spawned.
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True, start_new_session=True)
    try:
        stdout, _ = proc.communicate(timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        raise RuntimeError(f"{workload}: child exceeded {CHILD_TIMEOUT_S}s") from None
    if proc.returncode != 0:
        raise RuntimeError(f"{workload}: child exited with {proc.returncode}")
    return json.loads(stdout.strip().splitlines()[-1])


def run_workload(
    name: str,
    seed: int,
    *,
    seconds: float,
    min_reps: int,
    setups: int,
    trace_seconds: float | None,
    smoke: bool,
) -> dict[str, Any]:
    setup = [
        spawn_child(name, seed, seconds=0, min_reps=0, setup_only=True, smoke=smoke)["setup_s"]
        for _ in range(setups - 1)
    ]
    result = spawn_child(
        name, seed, seconds=seconds, min_reps=min_reps, smoke=smoke,
        trace_seconds=trace_seconds,
    )
    setup.append(result["setup_s"])
    result["setup_samples"] = setup
    result["setup_s"] = statistics.median(setup)
    return result


def end_to_end_metrics(result: dict[str, Any]) -> dict[str, dict[str, Any]]:
    return {m.name: {"value": result[m.name], "unit": m.unit} for m in END_TO_END}


def per_layer_metrics(result: dict[str, Any]) -> dict[str, dict[str, Any]]:
    # A layer the workload bypasses reads 0: the bypass is part of the record.
    layers = result["layers"]
    return {m.name: {"value": layers.get(m.name, 0.0), "unit": m.unit} for m in PER_LAYER}


def record(name: str, result: dict[str, Any]) -> dict[str, Any]:
    """The per-workload entry of the result file (what compare.py reads)."""
    walls = result["walls"]
    samples = {
        "wall_s": walls,
        "voxels_per_s": [result["geometry"]["n_scored"] / w for w in walls],
        "setup_s": result["setup_samples"],
        "peak_rss_mb": [result["peak_rss_mb"]],
    }
    end_to_end = end_to_end_metrics(result)
    for m in END_TO_END:
        s = samples[m.name]
        end_to_end[m.name].update(
            better=m.better, bound=m.bound, min=min(s), max=max(s), n=len(s), samples=s
        )
    return {
        "why": WORKLOADS[name].why,
        "geometry": result["geometry"],
        "repetitions": len(walls),
        "end_to_end": end_to_end,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "failed_frac": result["failed"] / result["attempted"],
        "failures": result["failures"],
        "selection_auc": result["selection_auc"],
        "selection_digest": result["selection_digest"],
        "per_layer": per_layer_metrics(result),
        "drive_passes": result["drive_passes"],
        "trace_file": result["trace_file"],
    }


def print_table(name: str, entry: dict[str, Any]) -> None:
    print(f"\n== {name}: {entry['repetitions']} repetitions, "
          f"{entry['geometry']['n_scored']} scored voxels ==")
    for metric, v in entry["end_to_end"].items():
        print(f"  {metric:36s} {v['value']:>16.6g} {v['unit']:8s} "
              f"[min {v['min']:.6g}  max {v['max']:.6g}  n={v['n']}  "
              f"bound {v['bound']:.0%}]")
    print(f"  {'failed_frac':36s} {entry['failed_frac']:>16.6g} {'ratio':8s} "
          f"[{entry['failed']} of {entry['attempted']}; bound 0]")
    print(f"  {'selection_auc':36s} {entry['selection_auc']:>16.6g} ratio")
    print(f"  selection_digest {entry['selection_digest']}")
    for metric, v in entry["per_layer"].items():
        print(f"  {metric:36s} {v['value']:>16.6g} {v['unit']}")
    for failure in entry["failures"]:
        print(f"  FAILED {failure}")


def git_sha() -> str:
    try:
        return subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "HEAD"],
            capture_output=True, text=True, check=True,
        ).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        return "unknown"


def run_all(seed: int, seconds: float, smoke: bool) -> int:
    out: dict[str, Any] = {
        "seed": seed, "run_seconds": seconds, "smoke": smoke,
        "git_sha": git_sha(), "workloads": {},
    }
    for name, workload in WORKLOADS.items():
        result = run_workload(
            name, seed, smoke=smoke,
            seconds=0 if smoke else seconds,
            min_reps=2 if smoke else workload.min_reps,
            setups=1 if smoke else SETUP_SAMPLES,
            trace_seconds=0 if smoke else seconds / 2,
        )
        # Two result files are comparable only when these blocks match.
        out.setdefault("env", {k: v for k, v in result["env"].items() if k != "machine"})
        entry = out["workloads"][name] = record(name, result)
        entry["machine"] = result["env"]["machine"]
        print_table(name, entry)
    path = OUT / ("smoke.json" if smoke else "result.json")
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(out, indent=1) + "\n")
    failed = sum(e["failed"] for e in out["workloads"].values())
    print(f"\nwrote {path}; span traces in {OUT}/trace-<workload>.json; "
          f"{failed} failed checks")
    return 1 if failed else 0


def run_one(name: str, seed: int, seconds: float, trace: bool, smoke: bool) -> int:
    """Builder-contract mode: one workload, one JSON object on the last line."""
    workload = WORKLOADS[name]
    if trace:
        result = run_workload(
            name, seed, smoke=smoke, setups=1, min_reps=0, seconds=0,
            trace_seconds=seconds,
        )
        metrics = per_layer_metrics(result)
    else:
        result = run_workload(
            name, seed, smoke=smoke, setups=SETUP_SAMPLES, min_reps=workload.min_reps,
            seconds=seconds, trace_seconds=None,
        )
        metrics = end_to_end_metrics(result)
    for failure in result["failures"]:
        print(f"FAILED {failure}", file=sys.stderr)
    print(json.dumps({
        "correct": result["failed"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": metrics,
    }))
    return 0


def main(argv: list[str] | None = None) -> int:
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=2015)
    parser.add_argument("--seconds", type=float, default=declared["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true")
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "repro").is_dir():
        print(f"no program to measure: {ROOT / 'src' / 'repro'} is missing", file=sys.stderr)
        return 2
    if args.workload:
        return run_one(args.workload, args.seed, args.seconds, bool(args.trace), args.smoke)
    return run_all(args.seed, args.seconds, args.smoke)


if __name__ == "__main__":
    raise SystemExit(main())
