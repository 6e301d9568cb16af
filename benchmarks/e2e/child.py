"""The measured process: one workload, one seed, started fresh by ``run.py``.

Order of events: pin BLAS threads, import numpy and ``repro``, generate
the inputs, one warm-up repetition (end of set-up), closed-loop timed
repetitions with tracing off, then — only with ``--trace-seconds`` —
passes that pair one more untraced repetition with the traced layer
drives, then output checks and calibrations.  The last line of stdout
is one JSON object for the parent.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import statistics
import sys
import time
import traceback
from pathlib import Path
from typing import Any

ROOT = Path(__file__).resolve().parents[2]
OUT = Path(__file__).resolve().parent / "out"
BLAS_THREADS = 1
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


class Checks:
    """Attempted operations and the ones that failed (-> ``failed_frac``)."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failures: list[str] = []

    def record(self, name: str, ok: bool, detail: str = "") -> None:
        self.attempted += 1
        if not ok:
            self.failures.append(f"{name}: {detail}" if detail else name)


def digest(scores: Any) -> str:
    """sha256 over voxel-sorted (voxels, accuracies): the handle for a
    later 'bitwise unchanged' claim."""
    import numpy as np

    order = np.argsort(scores.voxels, kind="stable")
    h = hashlib.sha256()
    h.update(scores.voxels[order].astype("<i8").tobytes())
    h.update(scores.accuracies[order].astype("<f8").tobytes())
    return h.hexdigest()


def repetition(workload: Any, inputs: Any) -> tuple[float, Any, Any]:
    from repro.core.pipeline import clear_preprocess_cache
    from repro.exec import RunContext

    from workloads import make_executor

    clear_preprocess_cache()
    ctx = RunContext(inputs.config)
    executor = make_executor(workload)
    t0 = time.perf_counter()
    scores = executor.run(inputs.dataset, ctx, inputs.voxels)
    return time.perf_counter() - t0, scores, ctx


class Session:
    """Repetitions of one workload with their output checks; keeps the
    first digest (all later ones must equal it) and the last result."""

    def __init__(self, workload: Any, inputs: Any, checks: Checks) -> None:
        self.workload, self.inputs, self.checks = workload, inputs, checks
        self.digest: str | None = None
        self.scores: Any = None
        self.ctx: Any = None

    def repetition(self) -> float | None:
        """Seconds of one checked repetition, or None when it raised
        (counted as failed; the run continues)."""
        checks = self.checks
        try:
            wall, scores, ctx = repetition(self.workload, self.inputs)
        except Exception as exc:  # noqa: BLE001 - counted, run continues
            traceback.print_exc()
            checks.record("repetition", False, repr(exc))
            return None
        checks.record("repetition", True)
        this = digest(scores)
        self.digest = self.digest or this
        checks.record("digest-stable", this == self.digest, f"{this} != {self.digest}")
        # A re-queued tile or task shows up as an extra task span.
        ran, planned = len(ctx.task_seconds), ctx.metadata["n_tasks"]
        checks.record("tasks-once", ran == planned, f"{ran} task spans, {planned} planned")
        self.scores, self.ctx = scores, ctx
        return wall


def peak_rss_mb() -> float:
    """This process plus its largest waited-for child (a TCP worker)."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    child = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + child) / 1024.0


def environment() -> dict[str, Any]:
    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        vendor = f"{blas['name']} {blas['version']}"
    except (KeyError, TypeError):
        vendor = "unknown"
    return {
        "nproc": os.cpu_count(),
        "blas": vendor,
        "blas_threads": {var: os.environ.get(var) for var in THREAD_VARS},
        "numpy": np.__version__,
        "python": platform.python_version(),
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--min-reps", type=int, required=True)
    parser.add_argument("--trace-seconds", type=float, default=None)
    parser.add_argument("--spawned-at", type=float, required=True,
                        help="time.time() in the parent just before the spawn")
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--smoke", action="store_true")
    args = parser.parse_args(argv)

    for var in THREAD_VARS:
        os.environ[var] = str(BLAS_THREADS)
    sys.path.insert(0, str(ROOT / "src"))

    from workloads import WORKLOADS, build_inputs, n_workers

    workload = WORKLOADS[args.workload]
    tiled = workload.executor == "master-worker"
    inputs = build_inputs(workload, args.seed, args.smoke)
    repetition(workload, inputs)  # warm-up, discarded
    out: dict[str, Any] = {
        "workload": workload.name,
        "seed": args.seed,
        "setup_s": time.time() - args.spawned_at,
    }
    if args.setup_only:
        print(json.dumps(out))
        return 0

    from repro.eval import score_selection

    checks = Checks()
    session = Session(workload, inputs, checks)

    # Untraced, closed loop: the end-to-end numbers.
    walls: list[float] = []
    attempts = 0
    deadline = time.perf_counter() + args.seconds
    while attempts < args.min_reps or time.perf_counter() < deadline:
        attempts += 1
        wall = session.repetition()
        if wall is not None:
            walls.append(wall)
    if walls:
        wall_s = statistics.median(walls)
        out.update(
            walls=walls,
            wall_s=wall_s,
            voxels_per_s=inputs.voxels.size / wall_s,
            # Read before the serial check and the drives below allocate.
            peak_rss_mb=peak_rss_mb(),
        )

    # Traced: each pass is one untraced repetition followed at once by the
    # layer drives, so both see the same machine weather (this VM's speed
    # drifts by tens of percent over seconds) and their difference means
    # something.
    if args.trace_seconds is not None:
        import layers
        from spans import SpanLog

        log = SpanLog(workload.name)
        passes: list[dict[str, float]] = []
        attempts = 0
        min_passes = 1 if args.smoke else 2
        deadline = time.perf_counter() + args.trace_seconds
        while attempts < min_passes or time.perf_counter() < deadline:
            attempts += 1
            wall = session.repetition()
            if wall is None:
                continue
            raw, results = layers.drive_once(log, inputs, tiled, n_workers())
            raw["bench.paired_wall_s"] = wall
            for result in results:
                checks.record("drive-digest", digest(result) == session.digest)
            passes.append(raw)

    if session.scores is None:
        print("every repetition raised", file=sys.stderr)
        return 1
    scores, ctx = session.scores, session.ctx
    auc = score_selection(scores, inputs.truth).roc_auc
    if workload.auc_floor is not None:
        checks.record("selection-auc", auc >= workload.auc_floor, f"{auc} < {workload.auc_floor}")
    counters = ctx.metadata.get("counters", {})
    if inputs.config.top_k is not None:
        want = inputs.voxels.size * inputs.dataset.n_epochs * inputs.config.top_k
        got = counters.get("stage12_nnz")
        checks.record("sparse-nnz", got == want, f"{got} != V*E*top_k = {want}")
    if tiled:
        from repro.exec import RunContext, SerialExecutor

        serial = SerialExecutor().run(
            inputs.dataset, RunContext(inputs.config), inputs.voxels
        )
        checks.record("tiled-equals-serial", digest(serial) == session.digest)

    synthetic = inputs.synthetic
    out.update(
        selection_auc=auc,
        selection_digest=session.digest,
        geometry={
            "n_voxels": synthetic.n_voxels,
            "n_subjects": synthetic.n_subjects,
            "n_epochs": inputs.dataset.n_epochs,
            "epoch_length": synthetic.epoch_length,
            "n_scored": int(inputs.voxels.size),
            "config": {k: v for k, v in vars(inputs.config).items() if v is not None},
            "executor": workload.executor,
            "executor_kwargs": workload.executor_kwargs,
            "n_workers": n_workers() if tiled else 1,
        },
        env=environment(),
    )

    if args.trace_seconds is not None and passes:
        m = {k: statistics.median(p[k] for p in passes) for k in passes[0]}
        m["data.generate_s"] = inputs.generate_s
        m["data.bold_bytes"] = float(inputs.dataset.nbytes())
        m["exec.tasks"] = float(len(ctx.task_seconds))
        m["obs.spans_per_run"] = float(len(ctx.tracer.spans()))
        m["obs.span_cost_us"] = layers.span_cost_us()
        m["eval.selection_auc"] = auc
        machine, machine_info = layers.calibrate_machine(BLAS_THREADS, args.smoke)
        m.update(machine)
        if tiled:
            m["parallel.comm.bytes_sent"] = float(counters.get("comm.bytes_sent", 0))
            m["parallel.comm.bytes_recv"] = float(counters.get("comm.bytes_recv", 0))
            m["parallel.comm.bcast_bytes"] = float(n_workers() * inputs.dataset.nbytes())
            panel_rows = min(inputs.config.task_voxels, inputs.voxels.size)
            m.update(
                layers.probe_transport(
                    panel_rows * inputs.dataset.n_epochs * synthetic.n_voxels * 4
                )
            )
        layers.derive(m, n_workers(), tiled)
        out["layers"] = m
        out["drive_passes"] = len(passes)
        out["env"]["machine"] = {**machine, **machine_info}
        # Spans stay in memory until here; written once, at the end.
        trace_file = OUT / f"trace-{workload.name}.json"
        trace_file.parent.mkdir(parents=True, exist_ok=True)
        trace_file.write_text(json.dumps(log.spans) + "\n")
        out["trace_file"] = str(trace_file)

    out.update(attempted=checks.attempted, failed=len(checks.failures),
               failures=checks.failures)
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
