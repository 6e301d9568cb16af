"""Scenario matrix: sweep design x SNR x SF x subjects, gate accuracy.

A :class:`Scenario` is one complete simulated experiment
(:class:`~repro.data.designs.GroundTruthConfig`); a
:class:`ScenarioMatrix` sweeps the grid the TMFC pipelines vary —
design kind, SNR, scaling factor SF, and subject count.  Running a
scenario generates the dataset, runs FCMA voxel selection through a
real executor, and scores the ranking against the planted informative
set (:func:`repro.eval.accuracy.score_selection`).

Results flatten into one dict under the ``acc.*`` names
(:func:`matrix_record`): ``acc.<design>.snr<q>.sf<q>.subj<n>.roc_auc``
(and ``.average_precision`` / ``.top_k_hit_rate``) are deterministic —
a pure function of the matrix and the pipeline — so the accuracy
benchmark holds a fresh run equal to the committed
``BENCH_accuracy.json``; only the per-scenario ``...wall_seconds``
varies from run to run.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field, replace
from typing import Callable

from ..core.pipeline import FCMAConfig
from ..core.results import VoxelScores
from ..data.designs import (
    DESIGN_PRESETS,
    ConnectivityConfig,
    GroundTruthConfig,
    design_ground_truth,
    generate_design_dataset,
)
from ..exec.context import RunContext
from ..exec.executors import make_executor
from .accuracy import SelectionScore, score_selection

__all__ = [
    "Scenario",
    "ScenarioMatrix",
    "ScenarioResult",
    "default_matrix",
    "format_accuracy_table",
    "matrix_record",
    "max_roc_auc",
    "run_matrix",
    "run_scenario",
    "scenario_fcma_config",
    "smoke_matrix",
]


def scenario_fcma_config() -> FCMAConfig:
    """The pipeline configuration every accuracy scenario runs under.

    One shared config keeps the ``acc.*`` metrics comparable across the
    CLI, the benchmark suite, and CI.
    """
    return FCMAConfig(target_block=64)


@dataclass(frozen=True)
class Scenario:
    """One simulated experiment plus how to score its selection."""

    config: GroundTruthConfig
    #: Hit-rate cutoff; ``None`` uses the planted set size.
    top_k: int | None = None

    @property
    def key(self) -> str:
        """Stable metric-key segment: ``block.snr6.sf1.subj4``."""
        conn = self.config.connectivity
        return (
            f"{self.config.design.kind}"
            f".snr{conn.snr:g}.sf{conn.sf:g}"
            f".subj{self.config.n_subjects}"
        )


@dataclass(frozen=True)
class ScenarioResult:
    """One scenario's accuracy verdict plus the raw selection."""

    scenario: Scenario
    score: SelectionScore
    selection: VoxelScores
    wall_seconds: float

    def metrics(self) -> dict[str, float]:
        """This scenario's metrics under its ``acc.`` prefix."""
        prefix = f"acc.{self.scenario.key}"
        out = self.score.as_metrics(f"{prefix}.")
        out[f"{prefix}.wall_seconds"] = self.wall_seconds
        return out


@dataclass(frozen=True)
class ScenarioMatrix:
    """The sweep grid: design x SNR x SF x subjects at fixed geometry."""

    designs: tuple[str, ...] = ("block", "event", "jittered")
    #: Descending SNR grid (the accuracy table's columns).
    snrs: tuple[float, ...] = (6.0, 1.0, 0.3)
    sfs: tuple[float, ...] = (1.0,)
    subjects: tuple[int, ...] = (4,)
    n_voxels: int = 96
    seed: int = 2015
    connectivity: ConnectivityConfig = field(
        default_factory=ConnectivityConfig
    )

    def __post_init__(self) -> None:
        if not self.designs or not self.snrs or not self.sfs:
            raise ValueError("designs, snrs, and sfs must be non-empty")
        if not self.subjects:
            raise ValueError("subjects must be non-empty")
        unknown = [d for d in self.designs if d not in DESIGN_PRESETS]
        if unknown:
            raise ValueError(
                f"unknown designs {unknown}; "
                f"choose from {sorted(DESIGN_PRESETS)}"
            )
        if any(n < 1 for n in self.subjects):
            raise ValueError("subject counts must be >= 1")

    def __len__(self) -> int:
        return (
            len(self.designs)
            * len(self.snrs)
            * len(self.sfs)
            * len(self.subjects)
        )

    def scaled(self, **overrides: object) -> "ScenarioMatrix":
        """Copy of this matrix with fields replaced."""
        return replace(self, **overrides)  # type: ignore[arg-type]

    def scenarios(self) -> list[Scenario]:
        """The grid flattened in design-major, SNR-descending order."""
        out: list[Scenario] = []
        for kind in self.designs:
            for snr in self.snrs:
                for sf in self.sfs:
                    for n_subjects in self.subjects:
                        config = GroundTruthConfig(
                            design=DESIGN_PRESETS[kind](),
                            connectivity=self.connectivity.scaled(
                                snr=snr, sf=sf
                            ),
                            n_voxels=self.n_voxels,
                            n_subjects=n_subjects,
                            seed=self.seed,
                            name=f"scenario-{kind}",
                        )
                        out.append(Scenario(config))
        return out


def smoke_matrix() -> ScenarioMatrix:
    """The CI smoke grid: block design at the SNR extremes (2 runs)."""
    return ScenarioMatrix(designs=("block",), snrs=(6.0, 0.3))


def default_matrix() -> ScenarioMatrix:
    """The full preset grid: every design across the SNR ladder."""
    return ScenarioMatrix()


def run_scenario(
    scenario: Scenario,
    *,
    executor: str = "serial",
    n_workers: int = 2,
    fcma: FCMAConfig | None = None,
) -> ScenarioResult:
    """Generate, select, and score one scenario end to end."""
    config = fcma if fcma is not None else scenario_fcma_config()
    dataset = generate_design_dataset(scenario.config)
    truth = design_ground_truth(scenario.config)
    t0 = time.perf_counter()
    runner = make_executor(executor, n_workers=n_workers)
    selection = runner.run(
        dataset, RunContext(config, seed=scenario.config.seed)
    )
    wall = time.perf_counter() - t0
    score = score_selection(selection, truth, top_k=scenario.top_k)
    return ScenarioResult(
        scenario=scenario,
        score=score,
        selection=selection,
        wall_seconds=wall,
    )


def run_matrix(
    matrix: ScenarioMatrix,
    *,
    executor: str = "serial",
    n_workers: int = 2,
    fcma: FCMAConfig | None = None,
    progress: Callable[[ScenarioResult], None] | None = None,
) -> list[ScenarioResult]:
    """Run every scenario of the matrix; ``progress`` sees each result."""
    results: list[ScenarioResult] = []
    for scenario in matrix.scenarios():
        result = run_scenario(
            scenario, executor=executor, n_workers=n_workers, fcma=fcma
        )
        results.append(result)
        if progress is not None:
            progress(result)
    return results


def matrix_record(
    matrix: ScenarioMatrix,
    results: list[ScenarioResult],
    *,
    executor: str = "serial",
) -> dict[str, object]:
    """Flatten a matrix run into one plain dict: every scenario's
    ``acc.*`` metrics, then the grid that produced them (the layout of
    ``BENCH_accuracy.json``)."""
    if not results:
        raise ValueError("cannot record an empty matrix run")
    record: dict[str, object] = {}
    for result in results:
        record.update(result.metrics())
    record.update({
        "suite": "scenario-accuracy",
        "executor": executor,
        "n_scenarios": len(results),
        "designs": list(matrix.designs),
        "snrs": list(matrix.snrs),
        "sfs": list(matrix.sfs),
        "subjects": list(matrix.subjects),
        "n_voxels": matrix.n_voxels,
        "seed": matrix.seed,
    })
    return record


def format_accuracy_table(results: list[ScenarioResult]) -> str:
    """Render a per-SNR ROC-AUC table (rows: design/sf/subjects).

    Cells show ``auc (hit)`` — the ROC-AUC of the planted-set ranking
    and the top-k hit rate at the planted set size.  Columns follow the
    matrix's SNR order (descending by convention), so a healthy
    generator reads as monotone decay left to right.
    """
    if not results:
        return "(no scenarios)"
    snrs: list[float] = []
    rows: dict[tuple[str, float, int], dict[float, SelectionScore]] = {}
    for result in results:
        config = result.scenario.config
        conn = config.connectivity
        if conn.snr not in snrs:
            snrs.append(conn.snr)
        row = rows.setdefault(
            (config.design.kind, conn.sf, config.n_subjects), {}
        )
        row[conn.snr] = result.score
    header = ["design", "sf", "subj"] + [f"snr={s:g}" for s in snrs]
    table = [header]
    for (kind, sf, n_subjects), cells in rows.items():
        line = [kind, f"{sf:g}", str(n_subjects)]
        for snr in snrs:
            score = cells.get(snr)
            line.append(
                "-"
                if score is None
                else f"{score.roc_auc:.3f} ({score.top_k_hit_rate:.2f})"
            )
        table.append(line)
    widths = [
        max(len(row[col]) for row in table) for col in range(len(header))
    ]
    lines = [
        "  ".join(cell.ljust(width) for cell, width in zip(row, widths))
        for row in table
    ]
    lines.insert(1, "  ".join("-" * width for width in widths))
    return "\n".join(lines)


def max_roc_auc(results: list[ScenarioResult]) -> float:
    """The best ROC-AUC across a matrix run (the CLI floor gate)."""
    if not results:
        raise ValueError("no scenarios were run")
    return max(result.score.roc_auc for result in results)
