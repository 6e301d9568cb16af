"""Strong/weak scaling of the 2-D tiled master-worker executor.

Regenerates the scale-out story of the paper's Fig. 8 at benchmark
scale: the tiled protocol runs at 1/2/4 workers, every run is verified
bitwise-equal to the serial reference, and the measured elapsed times
are recorded next to two predictions of the one cluster simulator —
the replay of the measured task stream
(:func:`repro.cluster.measured_workload` over each run's
``ctx.task_seconds``, made here after the run) and the modelled tiled
workload of the same geometry (:func:`repro.cluster.tiled_workload`:
the runtime's tile and score items, every message on the master's
link).

Geometry note: a tile returns one partial Gram per chunk of the Gram
rule (``repro.core.kernels.gram_chunks``, 2048 columns) and is a whole
number of chunks wide.  This workload's 240 voxels are one chunk, so
every row panel is **one** tile (``tile_cols`` = 240) plus its score
item at every worker count — 8 work items for the 4 panels, where the
block-shipping runtime planned 2 tiles per panel at 4 workers.  The
geometry counts and the modelled tiled curve are deterministic and are
pinned at equality in :func:`test_record_scaling_curves`.

Single-core CI note: on a one-core box (``nproc`` = 1, the common CI
case) wall-clock cannot improve with worker count — thread workers
time-share the core — so the >= 1.5x strong-scaling gate is asserted on
the simulator replay, which is deterministic for a given task stream.
Measured elapsed is still written to
``benchmarks/results/latest/scaleout.txt`` so multi-core machines show
the real curve.  Whether the tiled runtime
got slower is judged by the end-to-end benchmark's ``scaleout-tiles``
workload, not here.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.cluster import (
    IN_PROCESS,
    LOOPBACK_TCP,
    ClusterConfig,
    FoldSpec,
    Workload,
    measured_workload,
    simulate,
    speedup_curve,
    tiled_workload,
)
from repro.core import FCMAConfig
from repro.core.kernels import GRAM_CHUNK_COLS
from repro.data import FACE_SCENE, SyntheticConfig, generate_dataset
from repro.data.presets import DatasetSpec
from repro.exec import RunContext, make_executor
from repro.hw import E5_2670

WORKERS = (1, 2, 4)
SPEEDUP_FLOOR = 1.5


@pytest.fixture(scope="module")
def workload():
    cfg = SyntheticConfig(
        n_voxels=240, n_subjects=4, epochs_per_subject=8, epoch_length=12,
        n_informative=24, n_groups=3, seed=11, name="scalebench",
    )
    fcma = FCMAConfig(task_voxels=60, target_block=32)
    return generate_dataset(cfg), fcma


@pytest.fixture(scope="module")
def serial_reference(workload):
    ds, cfg = workload
    ctx = RunContext(cfg)
    scores = make_executor("serial").run(ds, ctx)
    return scores, ctx


@pytest.fixture(scope="module")
def scaling_runs(workload):
    """One tiled thread-transport run per worker count."""
    ds, cfg = workload
    runs: dict[int, tuple] = {}
    for n in WORKERS:
        ctx = RunContext(cfg)
        executor = make_executor(
            "master-worker", n_workers=n, transport="thread",
            partition="tiles",
        )
        scores = executor.run(ds, ctx)
        runs[n] = (scores, ctx)
    return runs


class TestCorrectness:
    def test_every_worker_count_bitwise_equal_to_serial(
        self, scaling_runs, serial_reference
    ):
        reference, _ = serial_reference
        for n, (scores, _ctx) in scaling_runs.items():
            np.testing.assert_array_equal(
                scores.voxels, reference.voxels, err_msg=f"n_workers={n}"
            )
            np.testing.assert_array_equal(
                scores.accuracies,
                reference.accuracies,
                err_msg=f"n_workers={n}",
            )

    def test_tcp_localhost_bitwise_equal_to_serial(
        self, workload, serial_reference
    ):
        """1 master + 2 real worker processes over loopback TCP."""
        ds, cfg = workload
        reference, _ = serial_reference
        ctx = RunContext(cfg)
        executor = make_executor(
            "master-worker", n_workers=2, transport="tcp", partition="tiles",
        )
        scores = executor.run(ds, ctx)
        np.testing.assert_array_equal(scores.voxels, reference.voxels)
        np.testing.assert_array_equal(
            scores.accuracies, reference.accuracies
        )
        assert ctx.metadata["transport"] == "tcp"
        counters = ctx.metadata.get("counters", {})
        assert counters.get("comm.bytes_sent", 0) > 0
        assert counters.get("comm.bytes_recv", 0) > 0


class TestPredictedVsMeasured:
    def test_replay_of_own_stream_lands_beside_measured(
        self, workload, scaling_runs
    ):
        ds, _cfg = workload
        for n, (_scores, ctx) in scaling_runs.items():
            predicted = _replay(ctx, n, ds.nbytes())
            assert predicted.n_workers == n
            assert predicted.elapsed_seconds > 0
            assert 0 < predicted.utilization <= 1
            assert ctx.metadata["measured_elapsed_s"] > 0

    def test_simulator_strong_scaling_meets_floor(self, scaling_runs):
        """The acceptance gate: >= 1.5x predicted speedup at 4 workers.

        Replays the 1-worker measured task stream through the cluster
        simulator at each worker count — deterministic, so it holds on
        single-core CI where wall-clock cannot scale.
        """
        _, ctx1 = scaling_runs[1]
        base = None
        speedups = {}
        for n in WORKERS:
            sim = _replay(ctx1, n)
            if base is None:
                base = sim.elapsed_seconds
            speedups[n] = base / sim.elapsed_seconds
        assert speedups[1] == pytest.approx(1.0)
        assert speedups[4] >= SPEEDUP_FLOOR
        assert speedups[2] <= speedups[4] + 1e-9

    def test_analytic_model_agrees_on_compute_bound_scaling(
        self, workload, scaling_runs
    ):
        """The one predictor where compute dominates and where it does not.

        Table 2's face-scene data in 120-voxel panels of one-chunk tiles
        over loopback is compute-bound: the simulated curve is within
        5 % of linear.  At this bench's own geometry an item computes
        for milliseconds and the master spends 1 ms handing each out,
        so the curve stays far below linear, as the measured row does.
        """
        paper = speedup_curve(
            tiled_workload(FACE_SCENE, E5_2670, 120, GRAM_CHUNK_COLS),
            [1, 2, 4],
            network=LOOPBACK_TCP,
        )
        for n in (2, 4):
            assert paper[n][1] == pytest.approx(n, rel=0.05)
        bench = _tiled_curve(workload, scaling_runs)
        # Measured: ~0.96x at 4 workers; compute alone would say 4x.
        assert bench[WORKERS[-1]][1] < 0.5 * WORKERS[-1]


class TestOverlapCounters:
    def test_overlap_and_wire_counters_recorded(self, scaling_runs):
        for n, (_scores, ctx) in scaling_runs.items():
            counters = ctx.metadata.get("counters", {})
            assert counters.get("overlap_hidden_seconds") is not None
            assert counters["overlap_hidden_seconds"] >= 0.0


#: voxels x subjects x epochs x length x float64 of the module workload.
DATASET_BYTES = 240 * 4 * 8 * 12 * 8


def _replay(ctx, n_workers, dataset_bytes=DATASET_BYTES):
    """Cluster-simulator prediction for ``ctx``'s stream at ``n_workers``."""
    workload = measured_workload(
        ctx.task_seconds, dataset_bytes, result_bytes=ctx.config.task_voxels * 8
    )
    return simulate(workload, ClusterConfig(n_workers=n_workers))


def _weak_scaling_efficiency(ctx, n_workers):
    """Simulated weak scaling: n copies of the stream on n workers."""
    stream = measured_workload(
        ctx.task_seconds, 0, result_bytes=ctx.config.task_voxels * 8
    )
    (fold,) = stream.folds
    one = simulate(stream, ClusterConfig(n_workers=1))
    many = simulate(
        Workload(
            name=f"weak-{n_workers}",
            dataset_bytes=0,
            folds=(FoldSpec(fold.tasks * n_workers),),
        ),
        ClusterConfig(n_workers=n_workers),
    )
    return one.elapsed_seconds / many.elapsed_seconds


def _dataset_spec(ds) -> DatasetSpec:
    return DatasetSpec(
        name="scalebench",
        n_voxels=ds.n_voxels,
        n_subjects=4,
        n_epochs=32,
        epoch_length=12,
    )


def _tiled_curve(workload, scaling_runs):
    """The simulator's curve for this bench's tiled geometry, in-process."""
    ds, cfg = workload
    tile_cols = int(scaling_runs[1][1].metadata["tile_cols"])
    return speedup_curve(
        tiled_workload(_dataset_spec(ds), E5_2670, cfg.task_voxels, tile_cols),
        list(WORKERS),
        network=IN_PROCESS,
    )


#: The modelled tiled workload's strong-scaling curve at this geometry
#: (:func:`_tiled_curve`): a function of the geometry and the machine
#: and network models only, so it is pinned, not measured.
TILED_SIM_SPEEDUP = {1: 1.0, 2: 1.1557996622132898, 4: 1.1507370094870053}


def test_record_scaling_curves(workload, scaling_runs, save_table):
    """Write measured-vs-predicted curves to ``results/scaleout.txt``;
    pin the geometry and the modelled curve."""
    ds, cfg = workload
    _, ctx1 = scaling_runs[1]
    tile_cols = int(scaling_runs[1][1].metadata["tile_cols"])
    tiled = _tiled_curve(workload, scaling_runs)

    assert (ds.n_voxels, cfg.task_voxels, tile_cols) == (240, 60, 240)
    assert {n: tiled[n][1] for n in WORKERS} == pytest.approx(
        TILED_SIM_SPEEDUP, rel=1e-6
    )
    lines = [
        "strong scaling: tiled master-worker (thread transport)",
        f"  {'n':>3} {'measured_s':>11} {'sim_pred_s':>11} "
        f"{'sim_speedup':>11} {'tiled_speedup':>13} {'weak_eff':>9}",
    ]
    sim_base = _replay(ctx1, 1).elapsed_seconds
    for n in WORKERS:
        _scores, ctx = scaling_runs[n]
        measured = float(ctx.metadata["measured_elapsed_s"])
        sim = _replay(ctx1, n)
        sim_speedup = sim_base / sim.elapsed_seconds
        tiled_speedup = tiled[n][1]
        weak_eff = _weak_scaling_efficiency(ctx1, n)
        lines.append(
            f"  {n:>3} {measured:>11.3f} {sim.elapsed_seconds:>11.3f} "
            f"{sim_speedup:>10.2f}x {tiled_speedup:>12.2f}x "
            f"{weak_eff:>8.2f}"
        )
    gate_speedup = sim_base / _replay(ctx1, WORKERS[-1]).elapsed_seconds
    lines.append(
        f"  gate: simulator speedup at {WORKERS[-1]}w = "
        f"{gate_speedup:.2f}x (floor {SPEEDUP_FLOOR}x)"
    )
    assert gate_speedup >= SPEEDUP_FLOOR
    save_table("scaleout", "\n".join(lines))
