#!/usr/bin/env python
"""Regenerate the paper's single-node performance story (Tables 1, 5-8).

Uses the hardware performance models at full paper scale (34,470-voxel
face-scene geometry on a Xeon Phi 5110P model) to print the baseline
instrumentation report, the per-kernel comparisons, and the resulting
Fig. 9 speedups — the numbers a perf engineer would use to decide where
to optimize next.

Run:  python examples/instrumentation_report.py
"""

from __future__ import annotations

from repro.bench import claims, render_table, run_experiment
from repro.data import FACE_SCENE
from repro.hw import PHI_5110P
from repro.perf import (
    model_correlation_matmul,
    model_kernel_syrk,
    model_normalization,
    model_svm_cv,
    roofline_point,
)


def main() -> None:
    hw = PHI_5110P
    print(f"machine: {hw}\n")

    # --- Table 1: where does the baseline spend its time? -------------
    table1 = claims("table1")
    print(run_experiment("table1", table1))
    total = sum(c.modelled for c in table1 if c.name.endswith("time ms"))
    print(f"total baseline task time: {total:,.0f} ms\n")

    # --- Tables 5-8: each optimization, quantified. --------------------
    comparisons = [
        ("stage 1 correlation gemm",
         model_correlation_matmul(FACE_SCENE, 120, hw, "mkl"),
         model_correlation_matmul(FACE_SCENE, 120, hw, "ours")),
        ("stage 2 normalization",
         model_normalization(FACE_SCENE, 120, hw, "separated"),
         model_normalization(FACE_SCENE, 120, hw, "merged")),
        ("stage 3a kernel syrk",
         model_kernel_syrk(FACE_SCENE, 120, hw, "mkl"),
         model_kernel_syrk(FACE_SCENE, 120, hw, "ours")),
        ("stage 3b SVM CV",
         model_svm_cv(FACE_SCENE, 120, hw, "libsvm"),
         model_svm_cv(FACE_SCENE, 120, hw, "phisvm")),
    ]
    table = [
        [
            name,
            f"{before.milliseconds:.0f}",
            f"{after.milliseconds:.0f}",
            f"{before.seconds / after.seconds:.2f}x",
        ]
        for name, before, after in comparisons
    ]
    print(render_table(
        ["kernel", "baseline ms", "optimized ms", "speedup"],
        table,
        title="Per-kernel impact of the three optimization ideas",
    ))

    # --- Roofline placement of the two matmuls. ------------------------
    print("\nroofline placement (optimized kernels):")
    for name, est in (
        ("correlation gemm", model_correlation_matmul(FACE_SCENE, 120, hw, "ours")),
        ("kernel syrk", model_kernel_syrk(FACE_SCENE, 120, hw, "ours")),
    ):
        p = roofline_point(hw, est.counters, est.seconds)
        bound = "memory-bound" if p.memory_bound else "compute-bound"
        print(f"  {name:18s} AI {p.arithmetic_intensity:6.1f} flop/B, "
              f"attainable {p.attainable_gflops:5.0f} GF, "
              f"achieved {p.achieved_gflops:5.0f} GF  ({bound})")

    # --- Fig 9/10 headline speedups. -----------------------------------
    print()
    for exp_id in ("fig9", "fig10"):
        print(run_experiment(exp_id), end="\n\n")


if __name__ == "__main__":
    main()
