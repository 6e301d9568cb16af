"""The paper's published numbers, transcribed for bench comparisons.

Every benchmark that regenerates a table or figure compares its modeled
or measured output against these reference values and reports the ratio.
Nothing here feeds the models — see :mod:`repro.perf.calibration` for
the few measured microarchitectural descriptors that do.
"""

from __future__ import annotations

__all__ = [
    "TABLE1_BASELINE",
    "TABLE3_OFFLINE_SECONDS",
    "TABLE4_ONLINE_SECONDS",
    "TABLE5_MATMUL",
    "TABLE6_COUNTERS",
    "TABLE7_MERGING",
    "TABLE8_SVM",
    "FIG8_SPEEDUP_96",
    "FIG9_SPEEDUP",
    "FIG10_XEON_SPEEDUP",
    "SECTION333_TASK_MEMORY_GB",
    "NODE_COUNTS",
]

#: Worker counts of the scaling studies (the tables' column heads).
NODE_COUNTS = [1, 8, 16, 32, 64, 96]

#: Table 1 — baseline instrumentation on the coprocessor, face-scene,
#: 120-voxel task: (time_ms, mem_refs, l2_misses, vector_intensity).
TABLE1_BASELINE = {
    "matmul": (1830.0, 34.9e9, 709e6, 3.6),
    "normalization": (766.0, 6.2e9, 179e6, 8.5),
    "libsvm": (3600.0, 23.0e9, 7e6, 1.9),
}

#: Table 3 — offline analysis elapsed seconds vs coprocessor count.
TABLE3_OFFLINE_SECONDS = {
    "face-scene": {1: 5101, 8: 694, 16: 385, 32: 242, 64: 124, 96: 85},
    "attention": {1: 54506, 8: 6813, 16: 3620, 32: 2172, 64: 1099, 96: 741},
}

#: Table 4 — online voxel-selection elapsed seconds vs coprocessor count.
TABLE4_ONLINE_SECONDS = {
    "face-scene": {1: 12.00, 96: 2.21},
    "attention": {1: 16.50, 8: 0.20, 96: 2.51},
}
# NOTE: the published attention row (16.50 at 1 node, 0.20 at 8 nodes)
# is internally inconsistent (a 82x speedup on 8 nodes); the 8-node
# entry is widely regarded as a typo.  Benches compare the 1- and
# 96-node endpoints only.

#: Table 5 — matmul routines: (time_ms, gflops).
TABLE5_MATMUL = {
    ("ours", "corr"): (170.0, 126.0),
    ("ours", "syrk"): (400.0, 430.0),
    ("mkl", "corr"): (230.0, 93.0),
    ("mkl", "syrk"): (1600.0, 108.0),
}

#: Table 6 — combined matmul counters: (mem_refs, l2_misses, vi).
TABLE6_COUNTERS = {
    "ours": (9_974_870_500.0, 121_800_000.0, 16.0),
    "mkl": (34_858_368_500.0, 708_900_000.0, 3.6),
}

#: Table 7 — merged vs separated stage 1+2: (time_ms, refs, misses).
TABLE7_MERGING = {
    "merged": (320.0, 1_925_806_500.0, 67_500_000.0),
    "separated": (420.0, 4_347_490_500.0, 188_100_000.0),
}

#: Table 8 — SVM cross-validation: (time_ms, vector_intensity).
TABLE8_SVM = {
    "libsvm": (3600.0, 1.9),
    "libsvm-opt": (1150.0, 7.3),
    "phisvm": (390.0, 9.8),
}

#: Fig. 8 — speedup at 96 coprocessors.
FIG8_SPEEDUP_96 = {"face-scene": 59.8, "attention": 73.5}

#: Fig. 9 — optimized over baseline per-voxel speedup on one coprocessor.
FIG9_SPEEDUP = {"face-scene": 5.24, "attention": 16.39}

#: Fig. 10 — optimized over baseline on one E5-2670.
FIG10_XEON_SPEEDUP = {"face-scene": 1.4, "attention": 2.5}

#: Section 3.3.3 — device memory (decimal GB) that "240 voxels'
#: correlation vectors will consume": why baseline tasks stop at 120.
SECTION333_TASK_MEMORY_GB = {"face-scene": 8.3}
