"""Per-layer attribution from outside the program.

The traced run drives each layer's *public* functions in the order the
stage graph (serial) or the tiled master/worker loops (scale-out) call
them, with a benchmark-side span around every call.  The drive's result
digest must equal the end-to-end digest — that check (in ``child.py``)
is what keeps this file from drifting away from the program.

Imported only by the measuring child, after the BLAS thread pins.
"""

from __future__ import annotations

import os
import statistics
import subprocess
import sys
import time
from collections import defaultdict
from pathlib import Path
from typing import Any, Callable

import numpy as np
from repro.core import blocking
from repro.core.engine import DenseEmitter, run_engine
from repro.core.kernels import csr_gram_panel, kernel_matrix_batched
from repro.core.normalization import NormalizationWorkspace
from repro.core.pipeline import clear_preprocess_cache, preprocess_dataset
from repro.core.results import PanelAssembler, VoxelScores
from repro.core.sparse import CSREmitter, sparse_tile_plan
from repro.exec import RunContext
from repro.exec.partition import (
    partition_rows_by_nnz,
    partition_tasks,
    partition_tiles,
    tile_cols_for,
)
from repro.exec.registry import create_backend
from repro.hw import E5_2670
from repro.obs.tracer import Tracer
from repro.parallel.comm import Comm
from repro.parallel.tiled import compute_tile, score_panel
from repro.parallel.transport import TcpListener
from repro.svm.cross_validation import grouped_cross_validation_batch, kfold_ids

from echo_peer import STOP_TAG
from spans import SpanLog, self_seconds
from workloads import Inputs

#: Span name -> the per-layer metric its self time feeds.
SPAN_METRIC = {
    "exec.partition": "exec.partition_s",
    "core.pipeline.preprocess": "core.preprocess_s",
    "core.engine.dense": "core.engine.dense_s",
    "core.sparse.csr": "core.sparse.csr_s",
    "core.kernels.gram": "core.kernels.gram_s",
    "svm.cv": "svm.cv_s",
    "core.results.merge": "core.results.merge_s",
    "core.results.assemble": "core.results.assemble_s",
    "parallel.tiled.compute_tile": "parallel.tiled.compute_tile_s",
    "parallel.tiled.score_panel": "parallel.tiled.score_panel_s",
}


def _fold_ids(grouped: Any, config: Any) -> np.ndarray:
    epochs = grouped.epochs
    if epochs.n_subjects >= 2:
        return np.asarray(epochs.subjects())
    return np.asarray(kfold_ids(len(epochs), config.online_folds))


def _score(
    log: SpanLog,
    batches: list[tuple[int, int]],
    gram: Callable[[int, int], np.ndarray],
    backend: Any,
    labels: np.ndarray,
    folds: np.ndarray,
    counts: dict[str, float],
) -> np.ndarray:
    """Stage 3 of one task, split at the kernels / svm boundary."""
    accuracies = np.empty(batches[-1][1], dtype=np.float64)
    for b0, b1 in batches:
        with log.span("core.kernels.gram"):
            kernels = gram(b0, b1)
        with log.span("svm.cv"):
            result = grouped_cross_validation_batch(backend, kernels, labels, folds)
        accuracies[b0:b1] = result.accuracies
        counts["svm.problems"] += result.fold_iterations.size
        counts["svm.smo_iterations"] += int(result.fold_iterations.sum())
    return accuracies


def _task_dense(
    log: SpanLog, z: np.ndarray, assigned: np.ndarray, per_subject: int,
    config: Any, score: Callable[..., np.ndarray], counts: dict[str, float],
) -> np.ndarray:
    v, (n_epochs, n_voxels, epoch_length) = assigned.size, z.shape
    with log.span("core.blocking.plan"):
        plan = blocking.plan_blocks(
            E5_2670,
            epochs_per_subject=per_subject,
            epoch_length=epoch_length,
            n_assigned=v,
            n_voxels=n_voxels,
        )
    with log.span("core.engine.dense"):
        corr, _ = run_engine(
            z, assigned, per_subject, DenseEmitter(voxel_sweep=plan.voxel_block)
        )
    counts["core.engine.bytes_out"] += corr.nbytes
    counts["core.kernels.gram_flops"] += 2 * v * n_epochs**2 * n_voxels
    batch = config.batch_voxels
    return score(
        [(b0, min(b0 + batch, v)) for b0 in range(0, v, batch)],
        lambda b0, b1: kernel_matrix_batched(corr[b0:b1]),
    )


def _task_sparse(
    log: SpanLog, z: np.ndarray, assigned: np.ndarray, per_subject: int,
    config: Any, score: Callable[..., np.ndarray], counts: dict[str, float],
) -> np.ndarray:
    v, (n_epochs, n_voxels, _) = assigned.size, z.shape
    sweep, t_block = sparse_tile_plan(v, n_epochs, n_voxels)
    emitter = CSREmitter(
        threshold=config.threshold,
        top_k=config.top_k,
        voxel_sweep=sweep,
        target_block=t_block,
    )
    with log.span("core.sparse.csr"):
        csr, stats = run_engine(z, assigned, per_subject, emitter)
    counts["core.sparse.nnz"] += stats.nnz
    counts["sparse_elements"] += stats.elements
    counts["core.sparse.tiles"] += stats.n_tiles
    counts["core.sparse.bytes_out"] += (
        csr.data.nbytes + csr.indices.nbytes + csr.indptr.nbytes
    )
    counts["core.kernels.gram_flops"] += 2 * n_epochs * stats.nnz
    voxel_nnz = csr.row_nnz.reshape(v, n_epochs).sum(axis=1)
    batch = config.batch_voxels
    budget = max(1, batch * max(1, int(voxel_nnz.mean())))
    return score(
        partition_rows_by_nnz(voxel_nnz, budget, max_rows=batch),
        lambda b0, b1: csr_gram_panel(csr, b0, b1),
    )


def drive_serial(
    log: SpanLog, inputs: Inputs, counts: dict[str, float]
) -> tuple[VoxelScores, int]:
    """The serial executor's work, one public call per layer boundary.

    Each task runs in its own function so its correlation buffer is
    freed before the next task allocates, as ``execute_task`` does: on
    this kernel a second live ~200 MB buffer needs fresh huge pages and
    the faults then cost more than the engine's arithmetic.
    """
    config, dataset = inputs.config, inputs.dataset
    task = _task_sparse if config.resolved_emitter() == "csr" else _task_dense
    with log.span("drive", path="serial") as root:
        clear_preprocess_cache()
        with log.span("exec.partition"):
            tasks = partition_tasks(dataset.n_voxels, config.task_voxels, inputs.voxels)
        with log.span("core.pipeline.preprocess"):
            grouped, z = preprocess_dataset(dataset)
        n_epochs, n_voxels, epoch_length = z.shape
        per_subject = grouped.epochs.epochs_per_subject()
        labels, folds = grouped.epochs.labels(), _fold_ids(grouped, config)
        backend = create_backend(config)
        counts["core.preprocess_bytes"] += z.nbytes

        def score(batches: list[tuple[int, int]], gram: Any) -> np.ndarray:
            return _score(log, batches, gram, backend, labels, folds, counts)

        parts = []
        for assigned in tasks:
            counts["core.engine.calls"] += 1
            counts["core.engine.flops"] += (
                2 * assigned.size * n_epochs * n_voxels * epoch_length
            )
            counts["engine_bytes_in"] += z.nbytes
            accuracies = task(log, z, assigned, per_subject, config, score, counts)
            parts.append(VoxelScores(voxels=assigned, accuracies=accuracies))
        with log.span("core.results.merge"):
            scores = VoxelScores.concatenate(parts).sorted_by_accuracy()
    return scores, root["id"]


def drive_tiled(
    log: SpanLog, inputs: Inputs, n_workers: int, counts: dict[str, float]
) -> tuple[VoxelScores, int]:
    """The tiled runtime's compute, serially in-process: what the workers
    run (``compute_tile``, ``score_panel``) and what the master runs
    (``PanelAssembler.add``, the final merge), without comm."""
    config, dataset = inputs.config, inputs.dataset
    with log.span("drive", path="tiled") as root:
        clear_preprocess_cache()
        with log.span("core.pipeline.preprocess"):
            grouped, z = preprocess_dataset(dataset)
        n_epochs, n_voxels = z.shape[0], z.shape[1]
        with log.span("exec.partition"):
            n_panels = len(partition_tasks(n_voxels, config.task_voxels, inputs.voxels))
            cols = tile_cols_for(n_voxels, config.target_block, n_workers, n_panels)
            tiles = partition_tiles(n_voxels, config.task_voxels, cols, inputs.voxels)
        per_subject = grouped.epochs.epochs_per_subject()
        assembler = PanelAssembler(n_voxels, n_epochs)
        for panel in range(n_panels):
            mine = [t for t in tiles if t.panel == panel]
            assembler.expect(panel, mine[0].rows, len(mine))
        workspace = NormalizationWorkspace()
        ctx = RunContext(config)
        parts: dict[int, VoxelScores] = {}
        cached: tuple[int, np.ndarray] | None = None
        for t in tiles:
            if cached is None or cached[0] != t.panel:
                cached = (t.panel, z[:, t.rows])
            with log.span("parallel.tiled.compute_tile"):
                block = compute_tile(
                    z, t.rows, t.col_start, t.col_stop, per_subject,
                    workspace=workspace, panel=cached[1],
                )
            with log.span("core.results.assemble"):
                done = assembler.add(t.panel, t.col_start, t.col_stop, block)
            if done is not None:
                with log.span("parallel.tiled.score_panel"):
                    parts[t.panel] = score_panel(grouped, config, t.rows, done, ctx)
                assembler.release(t.panel)
        with log.span("core.results.merge"):
            scores = VoxelScores.concatenate(
                [parts[p] for p in range(n_panels)]
            ).sorted_by_accuracy()
    counts["parallel.tiled.tiles"] = len(tiles)
    counts["parallel.tiled.score_tasks"] = n_panels
    return scores, root["id"]


def gemm_floor_s(inputs: Inputs) -> float:
    """Stage 1's epoch-batched matmul alone, same shapes as the engine
    sees, into an already-touched buffer: the part of engine time no
    normalizer, emitter or allocation change can touch.  Best of two per
    distinct task size, summed over the tasks."""
    config = inputs.config
    _, z = preprocess_dataset(inputs.dataset)
    zt = z.swapaxes(1, 2)
    by_size: dict[int, float] = {}
    total = 0.0
    for assigned in partition_tasks(z.shape[1], config.task_voxels, inputs.voxels):
        if assigned.size not in by_size:
            panel = z[:, assigned]
            out = np.empty((z.shape[0], assigned.size, z.shape[1]), dtype=np.float32)
            best = float("inf")
            for _ in range(2):
                t0 = time.perf_counter()
                np.matmul(panel, zt, out=out)
                best = min(best, time.perf_counter() - t0)
            by_size[assigned.size] = best
        total += by_size[assigned.size]
    return total


def drive_once(
    log: SpanLog, inputs: Inputs, tiled: bool, n_workers: int
) -> tuple[dict[str, float], list[VoxelScores]]:
    """One traced pass; returns raw per-layer numbers and the drives'
    results (whose digests must match the end-to-end one)."""
    raw: dict[str, float] = defaultdict(float)

    def absorb(root: int) -> None:
        own = self_seconds(log.spans, root)
        own.pop("drive")
        for span_name, seconds in own.items():
            if span_name in SPAN_METRIC:
                raw[SPAN_METRIC[span_name]] = seconds
        raw["exec.layers_sum_s"] = sum(own.values())
        raw["drive_total_s"] = log.spans[root]["end"] - log.spans[root]["start"]

    scores, root = drive_serial(log, inputs, raw)
    absorb(root)
    results = [scores]
    if tiled:
        # The tiled drive is the path this workload takes, so its
        # preprocess/partition/merge and layer sum replace the serial ones.
        raw["serial_drive_s"] = raw["exec.layers_sum_s"]
        scores, root = drive_tiled(log, inputs, n_workers, raw)
        absorb(root)
        results.append(scores)
    raw["core.engine.gemm_floor_s"] = gemm_floor_s(inputs)
    return raw, results


# -- calibration ------------------------------------------------------------


def _llc_bytes() -> int:
    sizes = []
    for path in Path("/sys/devices/system/cpu/cpu0/cache").glob("index*/size"):
        text = path.read_text().strip()
        unit = {"K": 1 << 10, "M": 1 << 20, "G": 1 << 30}.get(text[-1])
        sizes.append(int(text[:-1]) * unit if unit else int(text))
    return max(sizes, default=32 << 20)


def _mem_available_bytes() -> int:
    try:
        for line in Path("/proc/meminfo").read_text().splitlines():
            if line.startswith("MemAvailable:"):
                return int(line.split()[1]) << 10
    except OSError:
        pass
    return 4 << 30


def calibrate_machine(blas_threads: int, smoke: bool) -> tuple[dict[str, float], dict[str, Any]]:
    """Peak single-precision gemm rate and sustainable copy bandwidth,
    measured in this run so the roofline ratio has its own ceiling."""
    n = 256 if smoke else 1024
    a = np.random.default_rng(0).standard_normal((n, n), dtype=np.float32)
    b = a.T.copy()
    a @ b
    best = float("inf")
    for _ in range(5):
        t0 = time.perf_counter()
        a @ b
        best = min(best, time.perf_counter() - t0)
    sgemm = 2 * n**3 / best / 1e9

    llc = _llc_bytes()
    # >= 4x the last-level cache, unless two such arrays would not fit.
    want = (8 << 20) if smoke else max(64 << 20, 4 * llc)
    size = min(want, _mem_available_bytes() // 8)
    src = np.ones(size // 4, dtype=np.float32)
    dst = np.empty_like(src)
    best = float("inf")
    for _ in range(3):
        t0 = time.perf_counter()
        np.copyto(dst, src)
        best = min(best, time.perf_counter() - t0)
    stream = 2 * src.nbytes / best / 1e9
    metrics = {
        "machine.sgemm_gflops": sgemm,
        "machine.stream_gb_per_s": stream,
        "machine.nproc": float(os.cpu_count() or 1),
        "machine.blas_threads": float(blas_threads),
    }
    info = {
        "sgemm_n": n,
        "llc_mb": llc / 2**20,
        "stream_array_mb": src.nbytes / 2**20,
        "stream_array_ge_4x_llc": src.nbytes >= 4 * llc,
    }
    return metrics, info


def span_cost_us(n: int = 10_000) -> float:
    tracer = Tracer()
    t0 = time.perf_counter()
    for _ in range(n):
        with tracer.span("empty"):
            pass
    return (time.perf_counter() - t0) / n * 1e6


def probe_transport(block_bytes: int) -> dict[str, float]:
    """Loopback ``TcpTransport`` against an echo process: start-up cost,
    small-message round trip, and panel-sized throughput."""
    import repro

    env = dict(os.environ)
    env["PYTHONPATH"] = str(Path(repro.__file__).resolve().parents[1])
    listener = TcpListener("127.0.0.1", 0)
    host, port = listener.address
    t0 = time.perf_counter()
    proc = subprocess.Popen(
        [sys.executable, str(Path(__file__).with_name("echo_peer.py")), f"{host}:{port}"],
        env=env,
    )
    transport = None
    try:
        transport = listener.accept(1, timeout=60)
        spawn_accept_s = time.perf_counter() - t0
        comm = Comm(transport, 0)
        rtts = []
        for _ in range(200):
            t0 = time.perf_counter()
            comm.send(None, 1, 1)
            comm.recv(source=1)
            rtts.append(time.perf_counter() - t0)
        block = np.zeros(block_bytes // 4, dtype=np.float32)
        rates = []
        for _ in range(3):
            t0 = time.perf_counter()
            comm.send(block, 1, 1)
            comm.recv(source=1)
            rates.append(2 * block.nbytes / (time.perf_counter() - t0) / 1e6)
        comm.send(None, 1, STOP_TAG)
    finally:
        if transport is not None:
            transport.close()
        else:
            listener.close()
        try:
            proc.wait(timeout=10)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()
    return {
        "parallel.transport.spawn_accept_s": spawn_accept_s,
        "parallel.transport.small_rtt_us": statistics.median(rtts) * 1e6,
        "parallel.transport.echo_mb_per_s": statistics.median(rates),
    }


# -- derived metrics --------------------------------------------------------


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def derive(m: dict[str, float], n_workers: int, tiled: bool) -> None:
    """Fill the rate/ratio metrics in ``m`` from its medians and counts.

    Every ratio against wall time uses ``bench.paired_wall_s``, the
    untraced repetitions run back to back with the drives.
    """
    g = lambda name: m.get(name, 0.0)  # noqa: E731
    wall_s = m["bench.paired_wall_s"]
    engine_s = g("core.engine.dense_s") + g("core.sparse.csr_s")
    flops = g("core.engine.flops")
    m["core.engine.gflops"] = _ratio(flops, engine_s) / 1e9
    m["core.engine.normalize_emit_s"] = engine_s - g("core.engine.gemm_floor_s")
    moved = g("engine_bytes_in") + g("core.engine.bytes_out") + g("core.sparse.bytes_out")
    roof = min(
        g("machine.sgemm_gflops"),
        g("machine.stream_gb_per_s") * _ratio(flops, moved),
    )
    m["core.engine.roofline_frac"] = _ratio(m["core.engine.gflops"], roof)
    m["core.sparse.density"] = _ratio(g("core.sparse.nnz"), g("sparse_elements"))
    m["core.kernels.gram_gflops"] = (
        _ratio(g("core.kernels.gram_flops"), g("core.kernels.gram_s")) / 1e9
    )
    m["svm.us_per_iteration"] = _ratio(g("svm.cv_s"), g("svm.smo_iterations")) * 1e6
    m["exec.residual_s"] = wall_s - g("exec.layers_sum_s")
    m["exec.residual_frac"] = _ratio(m["exec.residual_s"], wall_s)
    m["obs.overhead_frac_est"] = _ratio(
        g("obs.spans_per_run") * g("obs.span_cost_us") * 1e-6, wall_s
    )
    m["bench.trace_overhead_frac"] = _ratio(g("drive_total_s") - wall_s, wall_s)
    if tiled:
        ideal = (
            g("parallel.tiled.compute_tile_s") + g("parallel.tiled.score_panel_s")
        ) / n_workers
        m["parallel.ideal_s"] = ideal
        m["parallel.overhead_s"] = wall_s - ideal
        m["parallel.overhead_frac"] = 1.0 - _ratio(ideal, wall_s)
        m["parallel.efficiency"] = _ratio(g("serial_drive_s"), n_workers * wall_s)
