"""Blocking plans: choosing tile sizes from cache geometry (idea #1).

The paper sizes its stage-1/2 tiles so that one thread's working set —
a ``B x B'`` correlation tile for one subject's ``E`` epochs plus the
input panels that produce it — fits its share of the 512 KB L2 cache,
with ``B'`` an integral multiple of the VPU width (ideas #1 and #3).
:func:`plan_blocks` reproduces that sizing for any
:class:`~repro.hw.spec.HardwareSpec`.

The analytic plan is a model, and models miss machine quirks (BLAS
kernel crossovers, bandwidth tiers, SMT contention).  With
``autotune=True`` the planner therefore *measures*: it times a small
menu of candidate plans — the analytic seed plus voxel-block variants —
on a sliced synthetic sub-problem through the fused stage-1/2 engine and
keeps the fastest.  Winners are persisted per ``(HardwareSpec geometry,
problem shape)`` in a JSON :class:`PlanCache`, so a warm cache returns
the stored plan without re-measuring; the analytic plan remains the seed
and the fallback when measurement is impossible.
"""

from __future__ import annotations

import contextlib
import json
import os
import tempfile
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

from ..hw.spec import HardwareSpec

__all__ = [
    "BlockingPlan",
    "PlanCache",
    "default_plan_cache",
    "plan_blocks",
    "plan_key",
]


@dataclass(frozen=True)
class BlockingPlan:
    """Tile sizes for the blocked stage-1/2 pipeline."""

    #: Assigned voxels per tile (``B`` in Fig. 5).  The tiled engine
    #: keeps all rows in a tile and scales the tile's bytes by this.
    voxel_block: int
    #: Target (brain) voxels per tile (``B'`` in Fig. 5).
    target_block: int
    #: Epochs per tile — one subject's worth for the merged pipeline.
    epoch_block: int

    def __post_init__(self) -> None:
        if min(self.voxel_block, self.target_block, self.epoch_block) < 1:
            raise ValueError("all block dimensions must be >= 1")

    def tile_bytes(self, dtype_bytes: int = 4) -> int:
        """Bytes of one output tile (B x E x B')."""
        return (
            self.voxel_block * self.epoch_block * self.target_block * dtype_bytes
        )

    def working_set_bytes(self, epoch_length: int, dtype_bytes: int = 4) -> int:
        """Tile plus the input panels needed to compute it."""
        inputs = (
            (self.voxel_block + self.target_block)
            * self.epoch_block
            * epoch_length
            * dtype_bytes
        )
        return self.tile_bytes(dtype_bytes) + inputs


def plan_key(
    spec: HardwareSpec,
    epochs_per_subject: int,
    epoch_length: int,
    n_assigned: int,
    n_voxels: int,
    dtype_bytes: int = 4,
) -> str:
    """Cache key for one (hardware, problem shape) pairing.

    Keyed on the spec's *geometry* (L2 share and VPU width — the inputs
    the analytic plan turns on) plus its name, so two specs that would
    plan identically but are different machines still tune separately.
    """
    return (
        f"v1|{spec.name}|l2={spec.l2_per_thread_bytes()}"
        f"|vpu={spec.vpu_width_sp}|eps={epochs_per_subject}"
        f"|t={epoch_length}|va={n_assigned}|n={n_voxels}|b={dtype_bytes}"
    )


class PlanCache:
    """JSON-backed store of autotuned :class:`BlockingPlan` winners.

    ``path=None`` keeps the cache in memory only (one process).  With a
    path, plans are loaded on construction — missing or corrupt files
    are treated as empty, never an error — and every :meth:`put` writes
    the file back atomically (unique temp file + ``os.replace``),
    merging with whatever another process flushed in the meantime so
    concurrent writers never corrupt the file or drop each other's
    winners.  ``hits`` / ``misses`` count :meth:`get`
    outcomes; the execution layer mirrors them into ``RunContext``
    counters.
    """

    VERSION = 1

    def __init__(self, path: str | Path | None = None) -> None:
        self.path = Path(path) if path is not None else None
        self.hits = 0
        self.misses = 0
        self._plans: dict[str, BlockingPlan] = {}
        if self.path is not None:
            self._plans.update(self._load(self.path))

    @staticmethod
    def _load(path: Path) -> dict[str, BlockingPlan]:
        try:
            raw = json.loads(path.read_text())
        except (OSError, ValueError):
            return {}
        if not isinstance(raw, dict) or raw.get("version") != PlanCache.VERSION:
            return {}
        entries = raw.get("plans")
        if not isinstance(entries, dict):
            return {}
        plans: dict[str, BlockingPlan] = {}
        for key, entry in entries.items():
            try:
                plans[str(key)] = BlockingPlan(
                    voxel_block=int(entry["voxel_block"]),
                    target_block=int(entry["target_block"]),
                    epoch_block=int(entry["epoch_block"]),
                )
            except (TypeError, KeyError, ValueError):
                continue
        return plans

    def __len__(self) -> int:
        return len(self._plans)

    def get(self, key: str) -> BlockingPlan | None:
        """Look up a plan, counting the hit or miss."""
        plan = self._plans.get(key)
        if plan is None:
            self.misses += 1
        else:
            self.hits += 1
        return plan

    def put(self, key: str, plan: BlockingPlan) -> None:
        """Store a winner and (if file-backed) persist the cache."""
        self._plans[key] = plan
        if self.path is not None:
            self._flush(self.path)

    def _flush(self, path: Path) -> None:
        # Concurrent runs (a pool worker per autotune, parallel CI jobs)
        # may flush the same cache file.  Merge with what is on disk so
        # another writer's winners survive, then write through a
        # uniquely named temp file: a fixed ".tmp" name would let two
        # writers interleave write_text/replace and publish a torn file.
        merged = self._load(path)
        merged.update(self._plans)
        self._plans = merged
        payload = {
            "version": self.VERSION,
            "plans": {
                key: {
                    "voxel_block": plan.voxel_block,
                    "target_block": plan.target_block,
                    "epoch_block": plan.epoch_block,
                }
                for key, plan in sorted(self._plans.items())
            },
        }
        path.parent.mkdir(parents=True, exist_ok=True)
        fd, tmp_name = tempfile.mkstemp(
            prefix=path.name + ".", suffix=".tmp", dir=path.parent
        )
        try:
            with os.fdopen(fd, "w") as fh:
                fh.write(json.dumps(payload, indent=2, sort_keys=True))
                fh.flush()
                os.fsync(fh.fileno())
            os.replace(tmp_name, path)
        except BaseException:
            with contextlib.suppress(OSError):
                os.unlink(tmp_name)
            raise


_DEFAULT_CACHE: PlanCache | None = None


def default_plan_cache() -> PlanCache:
    """Process-wide in-memory plan cache (the autotuner's default).

    Memory-only by design: persistence is opt-in via an explicit cache
    path (``FCMAConfig.plan_cache_path`` / ``fcma run --plan-cache``),
    so test runs and CI never leave files behind.
    """
    global _DEFAULT_CACHE
    if _DEFAULT_CACHE is None:
        _DEFAULT_CACHE = PlanCache()
    return _DEFAULT_CACHE


def _candidate_plans(seed: BlockingPlan, n_assigned: int) -> list[BlockingPlan]:
    """The autotuner's menu: the analytic seed plus voxel-block variants.

    The voxel block scales the engine's column tile
    (:class:`~repro.core.engine.DenseEmitter`), and its sweet spot sits
    on a cache-tier boundary the analytic model cannot see — so that is
    the dimension worth measuring.  Target and epoch blocks stay at the
    analytic values (the epoch block is semantically pinned to one
    subject).
    """
    candidates: list[BlockingPlan] = [seed]
    seen = {seed.voxel_block}
    for b in (1, 2, 4, 8, 16, 32):
        b = min(b, n_assigned)
        if b in seen:
            continue
        seen.add(b)
        candidates.append(
            BlockingPlan(
                voxel_block=b,
                target_block=seed.target_block,
                epoch_block=seed.epoch_block,
            )
        )
    return candidates


def _time_plan(
    plan: BlockingPlan,
    epochs_per_subject: int,
    epoch_length: int,
    n_assigned: int,
    n_voxels: int,
    repeats: int = 3,
) -> float:
    """Best-of-``repeats`` seconds for the fused engine under ``plan``.

    Runs the dense engine (:func:`~repro.core.engine.run_engine`) on
    a capped synthetic slice of the problem (deterministic inputs, at
    most 32 assigned voxels x 96 epochs x 4096 targets) so autotuning
    costs milliseconds, not a full stage-1/2 pass.  The epoch count uses
    six subject panels (capped) rather than one: a tile's column width
    is its byte budget over ``rows x epochs``, so measuring with too few
    epochs shifts the L2 knee and picks a tile too wide for the real
    problem.
    """
    import numpy as np

    from .engine import DenseEmitter, run_engine
    from .normalization import NormalizationWorkspace

    v = min(n_assigned, 32)
    e = epochs_per_subject * max(1, min(6, 96 // epochs_per_subject))
    n = min(n_voxels, 4096)
    t = min(epoch_length, 64)
    rng = np.random.default_rng(0)
    z = rng.standard_normal((e, n, t)).astype(np.float32)
    assigned = np.arange(v, dtype=np.int64)
    out = np.empty((v, e, n), dtype=np.float32)
    workspace = NormalizationWorkspace()
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        run_engine(
            z,
            assigned,
            epochs_per_subject,
            DenseEmitter(voxel_sweep=plan.voxel_block, out=out),
            workspace=workspace,
        )
        best = min(best, time.perf_counter() - start)
    return best


def plan_blocks(
    spec: HardwareSpec,
    epochs_per_subject: int,
    epoch_length: int,
    n_assigned: int,
    n_voxels: int,
    dtype_bytes: int = 4,
    cache_fraction: float = 0.8,
    *,
    autotune: bool = False,
    cache: PlanCache | None = None,
    measure: Callable[[BlockingPlan], float] | None = None,
) -> BlockingPlan:
    """Choose (B, B', E) tiles that fit a thread's L2 share.

    ``B'`` is rounded to a multiple of the VPU width and made as large as
    the budget allows (long contiguous runs maximize vectorization
    intensity); ``B`` then takes what is left, at least 1.  The epoch
    block is pinned to ``epochs_per_subject`` so each tile holds complete
    normalization populations for the merged stage 2.

    With ``autotune=True`` the analytic plan becomes the *seed* of a
    measured search over voxel-block variants (see
    :func:`_candidate_plans`): each candidate is timed by ``measure``
    (default: :func:`_time_plan` on a capped synthetic slice) and the
    fastest wins.  Winners persist in ``cache`` (default:
    :func:`default_plan_cache`) keyed by :func:`plan_key`; a warm cache
    returns its stored plan **without re-measuring**.
    """
    if not 0.0 < cache_fraction <= 1.0:
        raise ValueError("cache_fraction must be in (0, 1]")
    if epochs_per_subject < 1 or epoch_length < 1:
        raise ValueError("epochs_per_subject and epoch_length must be >= 1")
    if n_assigned < 1 or n_voxels < 1:
        raise ValueError("n_assigned and n_voxels must be >= 1")

    budget = int(spec.l2_per_thread_bytes() * cache_fraction)
    width = spec.vpu_width_sp
    e = epochs_per_subject

    # Try B from a small menu (multiples of the VPU width down to 1),
    # clamped to the task size *before* budgeting so a tiny ``n_assigned``
    # still yields a right-sized plan, and pick the largest B' that keeps
    # the working set within budget.
    best: BlockingPlan | None = None
    tried: set[int] = set()
    for b in (width, width // 2, 8, 4, 2, 1):
        b = min(b, n_assigned)
        if b < 1 or b in tried:
            continue
        tried.add(b)
        # bytes(B') for the tile + input panels:
        #   tile: B*E*B' ; inputs: (B + B') * E * T
        per_target = (b * e + e * epoch_length) * dtype_bytes
        fixed = b * e * epoch_length * dtype_bytes
        max_targets = (budget - fixed) // per_target
        if max_targets < width:
            continue
        targets = min(int(max_targets) // width * width, n_voxels)
        if targets < 1:
            continue
        plan = BlockingPlan(
            voxel_block=b,
            target_block=targets,
            epoch_block=e,
        )
        if best is None or plan.target_block * plan.voxel_block > (
            best.target_block * best.voxel_block
        ):
            best = plan
    if best is None:
        # Cache too small for even one VPU-width run: degenerate plan,
        # clamped to the task like every other candidate.
        best = BlockingPlan(
            voxel_block=min(1, n_assigned),
            target_block=min(width, n_voxels),
            epoch_block=e,
        )
    if not autotune:
        return best

    key = plan_key(
        spec, epochs_per_subject, epoch_length, n_assigned, n_voxels, dtype_bytes
    )
    if cache is None:
        cache = default_plan_cache()
    cached = cache.get(key)
    if cached is not None:
        return cached
    if measure is None:

        def measure(plan: BlockingPlan) -> float:
            return _time_plan(
                plan, epochs_per_subject, epoch_length, n_assigned, n_voxels
            )

    winner = best
    winner_time = float("inf")
    for candidate in _candidate_plans(best, n_assigned):
        try:
            elapsed = measure(candidate)
        except Exception:
            continue
        if elapsed < winner_time:
            winner, winner_time = candidate, elapsed
    cache.put(key, winner)
    return winner
