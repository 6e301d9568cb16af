"""The claims ledger: every number the paper publishes, compared once.

Each experiment id (a paper table or figure) yields a list of
:class:`Claim` — one modelled quantity, the published value read from
:mod:`.paperdata`, and the tolerance band of its quantity class.  The
ledger is the only place a model meets a paper number; everything else
reads it: ``fcma reproduce <id>`` and ``benchmarks/test_paper_tables.py``
render one id, ``fcma perf calibrate`` gates all of them, ``fcma report``
is the Table-1 builder at another configuration, and EXPERIMENTS.md
embeds the rendered text (held equal by ``tests/bench``).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, NamedTuple

from ..cluster import offline_workload, online_workload, speedup_curve
from ..data.presets import ATTENTION, FACE_SCENE, DatasetSpec
from ..hw import E5_2670, PHI_5110P
from ..hw.spec import HardwareSpec
from ..perf.matmul_model import model_correlation_matmul, model_kernel_syrk
from ..perf.memory_model import task_memory
from ..perf.norm_model import model_normalization
from ..perf.svm_model import model_svm_cv
from ..perf.task_model import (
    OPTIMIZED_TASK_VOXELS,
    model_task,
    offline_task_seconds,
    online_task_seconds,
    per_voxel_seconds,
)
from ..perf.vtune import baseline_report
from . import paperdata
from .tables import compare_row, render_table

__all__ = [
    "Band",
    "Claim",
    "EXPERIMENTS",
    "claims",
    "list_experiments",
    "paper_workload",
    "render_claims",
    "run_experiment",
    "run_gate",
    "speedup",
    "table1",
]


class Band(NamedTuple):
    """One tolerance per quantity class: ``max(r, 1/r) - 1 <= tolerance``."""

    name: str
    tolerance: float


#: Modelled times (and the GFLOPS derived from them) are the calibrated
#: quantity and track the paper closely.
TIME = Band("time", 0.10)
#: Memory references and vectorization intensity derive near-exactly
#: from the calibrated per-kernel descriptors.
REFS = Band("refs", 0.05)
VI = Band("VI", 0.05)
#: L2 misses are first-principles sweep arithmetic and legitimately
#: overshoot the measured values (the model ignores reuse a real cache
#: finds).
L2_MISS = Band("L2 miss", 0.75)
#: End-to-end speedups compound several kernel models.
SPEEDUP = Band("speedup", 0.35)
#: Simulated scaling points add the cluster simulator's distribution,
#: handout and imbalance effects on top of the task model.
SCALING = Band("scaling", 0.50)
#: Device footprints: the model counts arrays, not runtime buffers.
MEMORY = Band("memory", 0.15)


@dataclass(frozen=True)
class Claim:
    """One modelled quantity beside the value the paper publishes for it."""

    #: The paper table / figure / section the value comes from.
    source: str
    name: str
    modelled: float
    #: ``None``: the paper prints no number for this point.
    paper: float | None = None
    #: ``None``: reported, not gated.
    band: Band | None = None
    #: Why this entry carries a band other than its class's, or none.
    note: str = ""

    @property
    def gated(self) -> bool:
        return self.paper is not None and self.band is not None

    @property
    def deviation(self) -> float:
        """Symmetric relative deviation ``max(r, 1/r) - 1`` of modelled
        over published: half the paper's value is as bad as double it."""
        if self.paper is None:
            return 0.0
        if self.modelled <= 0 or self.paper <= 0:
            return float("inf")
        ratio = self.modelled / self.paper
        return max(ratio, 1.0 / ratio) - 1.0

    @property
    def ok(self) -> bool:
        return not self.gated or self.deviation <= self.band.tolerance


#: The task sizes of the paper's runs (Section 5.4.1).
_PAPER_TASKS = {"face-scene": (FACE_SCENE, 120), "attention": (ATTENTION, 60)}


def _scaled(source, name, modelled, paper, band, scale):
    """A claim whose two sides are printed in units of ``scale``."""
    return Claim(
        source, name, modelled / scale,
        None if paper is None else paper / scale, band,
    )


def table1(
    spec: DatasetSpec = FACE_SCENE,
    hw: HardwareSpec = PHI_5110P,
    task_voxels: int = 120,
) -> list[Claim]:
    """Baseline instrumentation rows; the published column exists only
    at the paper's own configuration (the defaults)."""
    published = (spec, hw, task_voxels) == (FACE_SCENE, PHI_5110P, 120)
    columns = (("time ms", TIME, 1.0), ("refs G", REFS, 1e9),
               ("L2 miss M", L2_MISS, 1e6), ("VI", VI, 1.0))
    out = []
    for paper, row in zip(
        paperdata.TABLE1_BASELINE.values(), baseline_report(spec, task_voxels, hw)
    ):
        values = (row.time_ms, row.mem_refs, row.l2_misses, row.vector_intensity)
        out += [
            _scaled("Table 1", f"{row.name} {quantity}", value,
                    ref if published else None, band, scale)
            for (quantity, band, scale), value, ref in zip(columns, values, paper)
        ]
    return out


def paper_workload(mode: str, name: str, task_voxels: int | None = None):
    """The simulator workload of one dataset's ``"offline"`` (Table 3,
    Fig. 8) or ``"online"`` (Table 4) runs: modelled optimized task
    seconds, at the paper's task size unless ``fcma simulate`` asks for
    another."""
    spec, paper_voxels = _PAPER_TASKS[name]
    tv = task_voxels or paper_voxels
    if mode == "offline":
        return offline_workload(spec, offline_task_seconds(spec, PHI_5110P, tv), tv)
    return online_workload(spec, online_task_seconds(spec, PHI_5110P, tv), tv)


def _scaling_curve(mode: str, name: str) -> dict[int, tuple[float, float]]:
    """``{nodes: (elapsed s, speedup)}`` of one dataset's simulated runs."""
    return speedup_curve(paper_workload(mode, name), paperdata.NODE_COUNTS)


def _table3() -> list[Claim]:
    return [
        Claim("Table 3", f"{name} @{n} s", elapsed,
              paperdata.TABLE3_OFFLINE_SECONDS[name][n], SCALING)
        for name in _PAPER_TASKS
        for n, (elapsed, _) in _scaling_curve("offline", name).items()
    ]


#: Table 4 entries that do not take the scaling band, and why.
_TABLE4_EXCEPTIONS = {
    ("attention", 1): (
        Band("outlier", 1.00),
        "the paper does not document its online cost composition; the "
        "modelled single-node task is ~1.8x under, the 96-node floor is in band",
    ),
    ("attention", 8): (
        None,
        "not gated: the published value implies an 82x speedup on 8 "
        "nodes of its own row and is regarded as a typo",
    ),
}


def _table4() -> list[Claim]:
    out = []
    for name in _PAPER_TASKS:
        for n, (elapsed, _) in _scaling_curve("online", name).items():
            band, note = _TABLE4_EXCEPTIONS.get((name, n), (SCALING, ""))
            out.append(Claim(
                "Table 4", f"{name} @{n} s", elapsed,
                paperdata.TABLE4_ONLINE_SECONDS[name].get(n), band, note,
            ))
    return out


def _fig8() -> list[Claim]:
    return [
        Claim("Fig 8", f"{name} @{n} speedup", gain,
              paperdata.FIG8_SPEEDUP_96[name] if n == 96 else None, SPEEDUP)
        for name in _PAPER_TASKS
        for n, (_, gain) in _scaling_curve("offline", name).items()
    ]


def _matmuls(impl: str):
    """The stage-1 gemm and stage-3a syrk of one 120-voxel Phi task."""
    return (
        model_correlation_matmul(FACE_SCENE, 120, PHI_5110P, impl),
        model_kernel_syrk(FACE_SCENE, 120, PHI_5110P, impl),
    )


def _table5() -> list[Claim]:
    out = []
    for (impl, kind), (p_ms, p_gflops) in paperdata.TABLE5_MATMUL.items():
        corr, syrk = _matmuls(impl)
        est = syrk if kind == "syrk" else corr
        out += [
            Claim("Table 5", f"{impl}/{kind} time ms", est.milliseconds, p_ms, TIME),
            Claim("Table 5", f"{impl}/{kind} GFLOPS", est.gflops, p_gflops, TIME),
        ]
    return out


def _counter_claims(source, label, counters, p_refs, p_miss) -> list[Claim]:
    """Refs and DRAM-served L2 misses (the event vTune counts on KNC),
    plus the unpublished total that adds remote-L2 hits."""
    return [
        _scaled(source, f"{label} refs G", counters.mem_refs, p_refs, REFS, 1e9),
        _scaled(source, f"{label} L2 miss M", counters.l2_misses, p_miss,
                L2_MISS, 1e6),
        _scaled(source, f"{label} L2 miss + remote-L2 hits M",
                counters.total_l2_misses, None, None, 1e6),
    ]


def _table6() -> list[Claim]:
    out = []
    for impl, (p_refs, p_miss, p_vi) in paperdata.TABLE6_COUNTERS.items():
        corr, syrk = _matmuls(impl)
        counters = corr.counters + syrk.counters
        out += _counter_claims("Table 6", impl, counters, p_refs, p_miss)
        out.append(Claim(
            "Table 6", f"{impl} VI", counters.vectorization_intensity, p_vi, VI
        ))
    return out


def _table7() -> list[Claim]:
    corr, _ = _matmuls("ours")
    out = []
    for variant, (p_ms, p_refs, p_miss) in paperdata.TABLE7_MERGING.items():
        norm = model_normalization(FACE_SCENE, 120, PHI_5110P, variant)
        out.append(Claim(
            "Table 7", f"{variant} time ms",
            corr.milliseconds + norm.milliseconds, p_ms, TIME,
        ))
        out += _counter_claims(
            "Table 7", variant, corr.counters + norm.counters, p_refs, p_miss
        )
    return out


def _table8() -> list[Claim]:
    out = []
    for variant, (p_ms, p_vi) in paperdata.TABLE8_SVM.items():
        est = model_svm_cv(FACE_SCENE, 120, PHI_5110P, variant)
        out += [
            Claim("Table 8", f"{variant} time ms", est.milliseconds, p_ms, TIME),
            Claim("Table 8", f"{variant} VI",
                  est.counters.vectorization_intensity, p_vi, VI),
        ]
    return out


def speedup(spec: DatasetSpec, hw: HardwareSpec) -> float:
    """Optimized-over-baseline per-voxel speedup (the Fig. 9/10 metric)."""
    return (
        per_voxel_seconds(spec, hw, "baseline")
        / per_voxel_seconds(spec, hw, "optimized")
    )


def _fig9() -> list[Claim]:
    out = []
    for name, (spec, _) in _PAPER_TASKS.items():
        base = model_task(spec, PHI_5110P, "baseline")
        opt = model_task(spec, PHI_5110P, "optimized")
        out += [
            Claim("Fig 9", f"{name} baseline ms/voxel", base.seconds_per_voxel * 1e3),
            Claim("Fig 9", f"{name} optimized ms/voxel", opt.seconds_per_voxel * 1e3),
            Claim("Fig 9", f"{name} speedup", speedup(spec, PHI_5110P),
                  paperdata.FIG9_SPEEDUP[name], SPEEDUP),
            # The paper's stated mechanism for attention's larger gain.
            Claim("Fig 9", f"{name} baseline SVM share", base.svm.seconds / base.seconds),
        ]
    # The figure's premise: a baseline task of the optimized size does
    # not fit the coprocessor, so the two are compared per voxel.
    for name, paper_gb in paperdata.SECTION333_TASK_MEMORY_GB.items():
        spec, _ = _PAPER_TASKS[name]
        out.append(Claim(
            "Sec 3.3.3", f"{name} baseline {OPTIMIZED_TASK_VOXELS}-voxel task GB",
            task_memory(spec, OPTIMIZED_TASK_VOXELS, "baseline").total_gb,
            paper_gb, MEMORY,
        ))
    return out


def _fig10() -> list[Claim]:
    out = []
    for name, (spec, _) in _PAPER_TASKS.items():
        out += [
            Claim("Fig 10", f"{name} E5-2670 speedup", speedup(spec, E5_2670),
                  paperdata.FIG10_XEON_SPEEDUP[name], SPEEDUP),
            Claim("Fig 10", f"{name} Phi speedup (Fig 9)", speedup(spec, PHI_5110P)),
        ]
    return out


def _fig11() -> list[Claim]:
    out = []
    for name, (spec, _) in _PAPER_TASKS.items():
        reference = per_voxel_seconds(spec, E5_2670, "baseline")
        out += [
            Claim("Fig 11", f"{name} {hw_name} {variant}",
                  reference / per_voxel_seconds(spec, hw, variant))
            for hw_name, hw in (("E5", E5_2670), ("Phi", PHI_5110P))
            for variant in ("baseline", "optimized")
        ]
    return out


#: id -> (title, builder).
EXPERIMENTS: dict[str, tuple[str, Callable[[], list[Claim]]]] = {
    "table1": ("Table 1: baseline instrumentation (face-scene, 120-voxel "
               "task, Phi 5110P)", table1),
    "table3": ("Table 3: offline analysis elapsed seconds vs #coprocessors",
               _table3),
    "table4": ("Table 4: online voxel-selection seconds vs #coprocessors",
               _table4),
    "table5": ("Table 5: matmul routines (face-scene, 120-voxel task)", _table5),
    "table6": ("Table 6: matmul memory references, L2 misses, vector "
               "intensity", _table6),
    "table7": ("Table 7: merged vs separated stages (stage 1 + 2)", _table7),
    "table8": ("Table 8: SVM cross-validation (face-scene, 120 voxels)", _table8),
    "fig8": ("Fig 8: speedup of the optimized implementation", _fig8),
    "fig9": ("Fig 9: optimized over baseline, one coprocessor (per voxel)",
             _fig9),
    "fig10": ("Fig 10: optimized over baseline on the E5-2670", _fig10),
    "fig11": ("Fig 11: relative performance (E5-2670 baseline = 1)", _fig11),
}


def list_experiments() -> list[str]:
    """Known experiment ids, sorted."""
    return sorted(EXPERIMENTS)


def claims(exp_id: str) -> list[Claim]:
    """One experiment's ledger entries; KeyError lists known ids."""
    try:
        _, build = EXPERIMENTS[exp_id]
    except KeyError:
        raise KeyError(
            f"unknown experiment {exp_id!r}; known: {', '.join(list_experiments())}"
        ) from None
    return build()


def render_claims(entries: list[Claim], title: str = "") -> str:
    """The one rendering of ledger entries: a row per claim with its
    ratio, band and verdict, then the reasons of the annotated rows."""
    rows, notes = [], []
    for c in entries:
        mark = "*" if c.note else ""
        band = f"{c.band.name} ±{c.band.tolerance:.0%}" if c.gated else "-"
        verdict = "-" if not c.gated else "ok" if c.ok else "DRIFT"
        rows.append([
            c.source, *compare_row(c.name, c.modelled, c.paper),
            band + mark, verdict,
        ])
        if c.note:
            notes.append(f"* {c.name}: {c.note}")
    table = render_table(
        ["source", "claim", "modelled", "paper", "ratio", "band", "verdict"],
        rows, title=title,
    )
    # No trailing pad: the text is embedded verbatim in EXPERIMENTS.md.
    return "\n".join([*map(str.rstrip, table.splitlines()), *notes])


def run_experiment(exp_id: str, entries: list[Claim] | None = None) -> str:
    """One experiment's table under its title, from ``entries`` when the
    caller already built them; KeyError lists known ids."""
    if entries is None:
        entries = claims(exp_id)
    return render_claims(entries, title=EXPERIMENTS[exp_id][0])


def run_gate(emit: Callable[[str], None] = print) -> int:
    """Check every published claim of every experiment against its band;
    print the report and return a process exit code (1 on drift)."""
    gated = [c for exp_id in EXPERIMENTS for c in claims(exp_id) if c.gated]
    drifted = [c for c in gated if not c.ok]
    emit(render_claims(gated))
    emit(
        f"{len(gated)} claims checked, {len(drifted)} drifted"
        + (" — a model moved away from the paper" if drifted else "")
    )
    return 1 if drifted else 0
