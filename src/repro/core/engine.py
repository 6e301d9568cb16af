"""The tiled stage-1/2 engine: one tile walk, pluggable materialization.

The fused correlation+normalization compute — equation-2 gemm, Fisher
transform (eq. 4), within-subject z-score (eq. 5) — is one loop.
:func:`run_engine` walks ``(voxel sweep) x (target-column block)``
tiles; each tile is gemm-ed, normalized by
:func:`~repro.core.normalization.fuse_normalize_tile` and handed to a
pluggable :class:`TileEmitter` *where it was computed* (paper ideas #1
and #2).  The emitter decides what the output *is* — per-chunk Gram
partials (:class:`GramEmitter`: the walk every ``optimized`` run takes,
which never holds a ``(V, E, N)`` block), the dense block
(:class:`DenseEmitter`: the materializing form the oracles read) or
CSR fragments.

The column tiles of one sweep are dealt to a small thread pool
(:func:`deal`; numpy releases the GIL inside matmul and the ufuncs);
a sweep of fewer tiles than threads is dealt as ``(tile, share)``
items instead, so no thread idles.
Its size is derived, never configured: :func:`thread_budget` is this
process's CPU affinity divided by the worker processes/ranks the
executor placed on the host (:func:`set_host_workers`); a budget of 1
runs the same loop inline.  The pool lives for one deal, so nothing
survives into a fork.

Bitwise contract: the gemm splits by **columns only**; the per-row
passes after it may split by rows.  A gemm restricted to a column
block returns the bits of the same columns of the whole-task gemm, the
normalizer reduces along one row's epochs, and a Gram partial is one
BLAS product per row, so every emitter's result is independent of the
tile width and of the thread budget.  Row slabs of the *gemm* are not
invariant (narrow slabs reach a different BLAS edge kernel), which is
why ``DenseEmitter`` and ``GramEmitter`` keep all assigned rows in one
sweep; a sweep with fewer tiles than threads splits each tile's gemm
into column shares and then its normalize + emit into row slabs
(:attr:`TilePlan.row_slabs`).  ``CSREmitter`` sweeps rows and is
anchored to its own tiling.  Pinned in ``tests/core/test_engine.py``,
``tests/core/test_gram_rule.py`` and the equivalence suites.
"""

from __future__ import annotations

import os
import queue
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Any, Callable, Protocol, Sequence, runtime_checkable

import numpy as np

from .normalization import NormalizationWorkspace, fuse_normalize_tile
from .tiling import block_bounds, iter_blocks

__all__ = [
    "EngineShape",
    "TilePlan",
    "TileEmitter",
    "DenseEmitter",
    "GramEmitter",
    "run_engine",
    "gemm_normalize_tile",
    "gemm_block_cols",
    "gemm_safe_block",
    "thread_budget",
    "set_host_workers",
    "deal",
    "check_stage1_inputs",
    "validate_dense_out",
]

#: Worker processes/ranks the executor placed on this host; they share
#: the affinity mask equally (see :func:`thread_budget`).
_host_workers = 1


def set_host_workers(n: int) -> int:
    """Declare how many workers share this host; returns the old value."""
    global _host_workers
    if n < 1:
        raise ValueError("host worker count must be >= 1")
    previous, _host_workers = _host_workers, n
    return previous


def thread_budget() -> int:
    """Threads one engine/Gram call may use: this process's share of
    the CPUs it is allowed to run on, at least 1.

    The BLAS thread count does not enter.  The Gram walk issues every
    gemm at most :func:`gemm_block_cols` wide, the widest block at or
    below the size at which OpenBLAS starts threads of its own, and gives
    every budgeted thread a share even of a one-chunk task, so under
    the default many-threaded BLAS the engine pool is what uses the
    cores (measured in docs/perf-models.md: dividing the budget by the
    BLAS threads ran 10 % slower than the parent, not dividing 29 %
    faster).
    """
    affinity = getattr(os, "sched_getaffinity", None)
    cpus = len(affinity(0)) if affinity else os.cpu_count() or 1
    return max(1, cpus // _host_workers)


def deal(n_items: int, threads: int, work: Callable[[int, int], Any]) -> list[Any]:
    """``[work(slot, i) for i in range(n_items)]``, the items pulled from
    one queue by up to ``threads`` slots.

    Slot 0 is the calling thread and the rest a pool that lives for this
    call only.  A process-global pool would be inherited, without its
    threads, by any ``os.fork()`` child, whose first deal would wait on
    them forever (``tests/exec/test_fork_safety.py``).  Nor would one
    save memory: a process-lifetime pool (this deal, one module-level
    ``ThreadPoolExecutor`` reset at fork) read ``online-wide``
    ``peak_rss_mb`` 141.8-153.7 MB, median 142.9, against 132.5-153.6,
    median 134.2, for this form (8 alternating runs each, 2-vCPU VM,
    while pool threads still allocated their own scratch).
    Pulling (rather than pre-assigning) shares means a slot on a slow or
    late-starting core just takes fewer items; at one slot this is the
    plain loop.  ``work`` may use ``slot`` to index per-thread scratch.
    """
    n_slots = max(1, min(threads, n_items))
    if n_slots == 1:
        return [work(0, i) for i in range(n_items)]
    results: list[Any] = [None] * n_items
    todo: queue.SimpleQueue[int] = queue.SimpleQueue()
    for i in range(n_items):
        todo.put(i)

    def drain(slot: int) -> None:
        while True:
            try:
                i = todo.get_nowait()
            except queue.Empty:
                return
            results[i] = work(slot, i)

    with ThreadPoolExecutor(n_slots - 1) as pool:
        helpers = [pool.submit(drain, slot) for slot in range(1, n_slots)]
        drain(0)
        for helper in helpers:
            helper.result()
    return results


def check_stage1_inputs(
    z: np.ndarray, assigned: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Validate the ``(E, N, T)`` normalized data and assigned rows."""
    z = np.asarray(z)
    if z.ndim != 3:
        raise ValueError(
            f"normalized data must be (epochs, voxels, time), got {z.shape}"
        )
    assigned = np.asarray(assigned, dtype=np.int64)
    if assigned.ndim != 1 or assigned.size == 0:
        raise ValueError("assigned must be a non-empty 1D index array")
    n_voxels = z.shape[1]
    if assigned.min() < 0 or assigned.max() >= n_voxels:
        raise IndexError("assigned voxel index out of range")
    return z, assigned


def validate_dense_out(
    out: np.ndarray, shape: tuple[int, int, int]
) -> np.ndarray:
    """Check a caller-provided output buffer before any BLAS touches it.

    A float64 or strided buffer used to surface as an inscrutable
    mid-loop gufunc/BLAS error; fail fast with a clear message instead.
    """
    if not isinstance(out, np.ndarray):
        raise TypeError(f"out must be a numpy array, got {type(out).__name__}")
    if out.dtype != np.float32:
        raise TypeError(f"out must be float32, got {out.dtype}")
    if not out.flags.c_contiguous:
        raise TypeError("out must be C-contiguous")
    if out.shape != shape:
        raise ValueError(f"out has shape {out.shape}, expected {shape}")
    return out


@dataclass(frozen=True)
class EngineShape:
    """Geometry of one stage-1/2 task (what an emitter plans against)."""

    n_assigned: int
    n_epochs: int
    n_voxels: int
    epoch_length: int
    epochs_per_subject: int

    @property
    def dense_shape(self) -> tuple[int, int, int]:
        """The voxel-major dense output shape ``(V, E, N)``."""
        return (self.n_assigned, self.n_epochs, self.n_voxels)


@dataclass(frozen=True)
class TilePlan:
    """Tile geometry of one task: ``voxel_sweep`` assigned rows by
    ``target_block`` target columns.  ``None`` means the whole axis;
    :meth:`resolve` turns both into clamped integers.  ``columns`` names
    the column tiles outright — ascending ``(n0, n1)`` bounds that need
    not be uniform nor cover the row — and ``target_block`` is then the
    widest gemm issued inside each."""

    voxel_sweep: int | None = None
    target_block: int | None = None
    columns: tuple[tuple[int, int], ...] | None = None
    #: ``emit`` is per row: it may see any row slab of a tile, on any
    #: thread, and returns nothing.  A sweep of fewer tiles than
    #: threads then splits each tile's gemm into column shares and its
    #: normalize + ``emit`` into row slabs (see :func:`run_engine`).
    row_slabs: bool = False

    def __post_init__(self) -> None:
        if self.voxel_sweep is not None and self.voxel_sweep < 1:
            raise ValueError("voxel_sweep must be >= 1")
        if self.target_block is not None and self.target_block < 1:
            raise ValueError("target_block must be >= 1")

    def resolve(self, shape: EngineShape) -> "TilePlan":
        """Clamp the plan to the task geometry."""
        return TilePlan(
            voxel_sweep=min(self.voxel_sweep or shape.n_assigned, shape.n_assigned),
            target_block=min(self.target_block or shape.n_voxels, shape.n_voxels),
            columns=self.columns,
            row_slabs=self.row_slabs,
        )


@runtime_checkable
class TileEmitter(Protocol):
    """What the engine computes *into*: a pluggable materialization.

    The engine drives one call sequence per run::

        plan(shape) -> begin(shape, resolved_plan)
        emit(tile, v0, v1, n0, n1) ...    # every tile of a sweep
        end_sweep(v0, v1, fragments)      # after each voxel sweep
        finalize() -> result

    Every tile reaches ``emit`` stage-2 normalized.  ``emit`` may run on
    a pool thread, concurrently with other tiles of the same sweep: it
    must touch only state owned by its tile and *return* what it keeps.
    ``end_sweep`` runs on the calling thread and receives those return
    values in ascending column order, so the engine — not thread
    arrival — fixes fragment order.  The emitted tile is scratch reused
    for a later block; copy what you keep.
    """

    def plan(self, shape: EngineShape) -> TilePlan: ...

    def begin(self, shape: EngineShape, plan: TilePlan) -> None: ...

    def emit(
        self, tile: np.ndarray, v0: int, v1: int, n0: int, n1: int
    ) -> Any: ...

    def end_sweep(self, v0: int, v1: int, fragments: Sequence[Any]) -> None: ...

    def finalize(self) -> Any: ...


def gemm_normalize_tile(
    panel: np.ndarray,
    zt_block: np.ndarray,
    tile: np.ndarray,
    epochs_per_subject: int | None,
    workspace: NormalizationWorkspace | None = None,
    gemm_cols: int | None = None,
) -> np.ndarray:
    """Fused stage 1/2 of one tile, in place in ``tile``.

    ``panel`` is the ``(E, width, T)`` copy of the assigned rows,
    ``zt_block`` the ``(E, T, cols)`` column block of ``z.swapaxes(1,
    2)`` and ``tile`` a C-contiguous ``(width, E, cols)`` float32
    buffer: the epoch-batched gemm lands voxel-major through an
    axis-swapped view, then the bitwise-exact fused normalizer runs
    over the whole tile.  ``epochs_per_subject=None`` leaves raw
    stage-1 correlations: the engine walk calls it so for each column
    share of a tile (any strided column slice of one) and normalizes
    afterwards, whole or by row slabs; :func:`repro.parallel.tiled.
    compute_tile` calls it for a whole normalized tile.

    ``gemm_cols`` issues the gemm in column blocks of that width
    (:func:`gemm_safe_block` applied) through column slices of the view
    — the bits of the whole-tile gemm (the module's column-block
    contract) and no copy — so a tile wider than one gemm should be
    (:class:`GramEmitter`'s chunk) keeps each BLAS call at or below the
    size at which OpenBLAS starts threads of its own under the engine's
    pool (:func:`gemm_block_cols`).  Default: one gemm.
    """
    width, _, cols = tile.shape
    out = tile.swapaxes(0, 1)
    step = cols if gemm_cols is None else gemm_safe_block(gemm_cols, width, cols)
    for b0, b1 in block_bounds(cols, step):
        np.matmul(panel, zt_block[:, :, b0:b1], out=out[:, :, b0:b1])
    if epochs_per_subject is not None:
        fuse_normalize_tile(tile, epochs_per_subject, workspace=workspace)
    return tile


def run_engine(
    z: np.ndarray,
    assigned: np.ndarray,
    epochs_per_subject: int,
    emitter: TileEmitter,
    *,
    workspace: NormalizationWorkspace | None = None,
    threads: int | None = None,
) -> Any:
    """Run one stage-1/2 task through ``emitter``; returns its result.

    ``z`` is equation-2-normalized data ``(E, N, T)``; ``assigned`` the
    task's voxel rows.  The emitter's plan sets the tile geometry; the
    engine owns the gemms, the fused normalizer and the thread deal.  A
    sweep's items are its tiles.  Under a ``row_slabs`` plan, a sweep of
    fewer tiles than threads is dealt twice instead: first
    ``ceil(threads / tiles)`` column shares of each tile's gemm, then
    row slabs of each tile — at least one per thread, each at most the
    1 MiB L2 tile — through the normalizer and ``emit``.  ``threads``
    overrides :func:`thread_budget` — an internal argument for tests;
    results do not depend on it.
    """
    z, assigned = check_stage1_inputs(z, assigned)
    n_epochs, n_voxels, epoch_length = z.shape
    if epochs_per_subject < 1:
        raise ValueError("epochs_per_subject must be >= 1")
    if n_epochs % epochs_per_subject != 0:
        raise ValueError(
            f"epoch count {n_epochs} not divisible by epochs_per_subject "
            f"{epochs_per_subject}"
        )
    shape = EngineShape(
        n_assigned=int(assigned.size),
        n_epochs=n_epochs,
        n_voxels=n_voxels,
        epoch_length=epoch_length,
        epochs_per_subject=epochs_per_subject,
    )
    plan = emitter.plan(shape).resolve(shape)
    assert plan.voxel_sweep is not None and plan.target_block is not None
    emitter.begin(shape, plan)
    zt = z.swapaxes(1, 2)
    blocks = (
        list(plan.columns)
        if plan.columns is not None
        else block_bounds(n_voxels, plan.target_block)
    )
    budget = thread_budget() if threads is None else threads
    # Fewer tiles than threads: each tile's gemm is ``shares`` column
    # shares, and its post-gemm passes are row slabs.
    shares = -(-budget // len(blocks)) if plan.row_slabs else 1
    if workspace is None:
        workspace = NormalizationWorkspace()
    # Per-thread scratch: one tile plus its normalizer workspace.  A
    # split tile is held across both deals, by the slot of its index.
    n_slots = max(1, min(budget, len(blocks) * shares))
    scratch = [workspace.slot(k) for k in range(n_slots)]
    holders = len(blocks) if shares > 1 else n_slots
    # Size every slot for the widest tile here, on the calling thread,
    # so a pool thread only takes views.  glibc gives each new thread a
    # malloc arena of its own; scratch a short-lived pool thread
    # allocated there stayed resident or not depending on which thread
    # took the ragged tail, and spread one workload's peak RSS over
    # 133-155 MB from one run to the next (docs/perf-models.md).
    widest = (plan.voxel_sweep, n_epochs, max(n1 - n0 for n0, n1 in blocks))
    # A split tile's slab: at least one per thread, at most the 1 MiB
    # L2 tile, so its passes run while it is cache-resident.
    slab_rows = plan.voxel_sweep
    if shares > 1:
        l2_bytes = DENSE_TILE_ROWS * DENSE_TILE_BYTES_PER_ROW
        l2_rows = l2_bytes // (4 * n_epochs * widest[2])
        slab_rows = max(1, min(-(-slab_rows // shares), l2_rows))
    for k, slot_scratch in enumerate(scratch):
        if k < holders:
            slot_scratch.tile(widest)
        slot_scratch.buffers(
            (slab_rows, n_epochs // epochs_per_subject, epochs_per_subject, widest[2])
        )
    for v0, v1 in iter_blocks(shape.n_assigned, plan.voxel_sweep):
        panel = z[:, assigned[v0:v1]]  # (E, width, T) contiguous copy
        slabs = block_bounds(v1 - v0, slab_rows)
        splits = [
            _split_columns(n1 - n0, v1 - v0, plan.target_block, shares)
            for n0, n1 in blocks
        ]

        def tile_of(slot: int, i: int) -> np.ndarray:
            n0, n1 = blocks[i]
            holder = scratch[i if shares > 1 else slot]
            return holder.tile((v1 - v0, n_epochs, n1 - n0))

        def gemm_share(slot: int, item: int) -> Any:
            i, share = divmod(item, shares)
            (n0, _), tile = blocks[i], tile_of(slot, i)
            ranges, gemm_cols = splits[i]
            for c0, c1 in ranges[share : share + 1]:
                gemm_normalize_tile(
                    panel,
                    zt[:, :, n0 + c0 : n0 + c1],
                    tile[:, :, c0:c1],
                    None,
                    gemm_cols=gemm_cols,
                )
            return emit_slab(slot, item) if shares == 1 else None

        def emit_slab(slot: int, item: int) -> Any:
            i, k = divmod(item, len(slabs))
            (n0, n1), (r0, r1) = blocks[i], slabs[k]
            slab = tile_of(slot, i)[r0:r1]
            fuse_normalize_tile(slab, epochs_per_subject, workspace=scratch[slot])
            return emitter.emit(slab, v0 + r0, v0 + r1, n0, n1)

        fragments = deal(len(blocks) * shares, n_slots, gemm_share)
        if shares > 1:
            n_slabs = len(slabs)
            fragments = deal(len(blocks) * n_slabs, n_slots, emit_slab)[::n_slabs]
        emitter.end_sweep(v0, v1, fragments)
        del fragments  # not held through the next sweep or finalize
    return emitter.finalize()


#: Bytes of L2-resident tile each budgeted voxel row buys (see
#: :class:`DenseEmitter`).  The paper's own ``B x E x B'`` tile assumes
#: a compiled kernel; numpy pays ~50 us of dispatch per tile, which only
#: amortizes from about a megabyte — :data:`DENSE_TILE_ROWS` rows.
DENSE_TILE_BYTES_PER_ROW = 128 * 1024

#: Row budget of the default dense tile: 8 x 128 KiB = 1 MiB (fewer for
#: a task of fewer rows).  8 is the AVX vector width, the ``B`` the
#: paper's planner (``core.blocking``) gives a Xeon.
DENSE_TILE_ROWS = 8

#: Tile widths are whole cache lines of float32.
_COLUMN_QUANTUM = 16

#: ``m * n * k`` up to which OpenBLAS runs a gemm on the calling
#: thread (``SMP_THRESHOLD_MIN * GEMM_MULTITHREAD_THRESHOLD``); the
#: Gram walk's gemms stay at or below it (:func:`gemm_block_cols`).
BLAS_THREADING_MNK = 2**18


def gemm_safe_block(cols: int, n_assigned: int, n_voxels: int) -> int:
    """Widen a column block until no tile of an ``n_assigned``-row walk
    over ``n_voxels`` columns is a one-row or one-column product.  BLAS
    leaves the gemm path for those, and gemv does not round like the
    same columns of a gemm — the one way a column split could change
    the bits.  The rule of every column split that promises the serial
    bits: :class:`DenseEmitter` and the 2-D tile partition."""
    cols = n_voxels if n_assigned == 1 else min(max(2, cols), n_voxels)
    while cols < n_voxels and n_voxels % cols == 1:
        cols += 1
    return cols


def gemm_block_cols(rows: int, epoch_length: int, n_voxels: int) -> int:
    """Widest gemm the Gram walk issues over ``rows`` assigned rows:
    the widest whole number of cache lines with ``rows * cols * T <=``
    :data:`BLAS_THREADING_MNK`, at least one line,
    :func:`gemm_safe_block` applied.  ``T`` is the epoch length, the
    gemm's inner dimension; the epoch count does not enter, since each
    epoch is its own BLAS call.  176 columns at 120 rows x ``T = 12``,
    592 at 36 rows: a gemm that OpenBLAS would thread oversubscribes
    the cores under the engine's own pool, and a narrower one pays
    more dispatches and strided writes for nothing."""
    cols = BLAS_THREADING_MNK // (rows * epoch_length)
    return gemm_safe_block(_whole_lines(cols), rows, n_voxels)


def _split_columns(
    cols: int, rows: int, width: int, shares: int
) -> tuple[list[tuple[int, int]], int]:
    """A tile's column ``shares`` and the gemm width inside each: at
    most ``shares`` near-equal ranges of whole gemms, each gemm at most
    ``width`` wide, in whole cache lines, :func:`gemm_safe_block`
    applied (so no range or gemm is one column wide).  One share is
    the whole tile at ``width``."""
    if shares == 1:
        return [(0, cols)], width
    per_share = -(-cols // shares)
    gemms = -(-per_share // width)
    lines = -(-per_share // (gemms * _COLUMN_QUANTUM))
    gemm = min(width, lines * _COLUMN_QUANTUM)
    span = gemm_safe_block(gemms * gemm, rows, cols)
    return block_bounds(cols, span), gemm


def _whole_lines(cols: int) -> int:
    """``cols`` rounded down to whole cache lines of float32, at least one."""
    return max(_COLUMN_QUANTUM, cols // _COLUMN_QUANTUM * _COLUMN_QUANTUM)


class DenseEmitter:
    """Materializes the full dense normalized ``(V, E, N)`` array.

    All assigned rows form one sweep (the bitwise contract, see the
    module docstring); the task is cut into column tiles instead.  A
    tile spends ``rows * DENSE_TILE_BYTES_PER_ROW`` bytes on *all*
    assigned rows, which fixes its column width; ``rows`` is a byte
    budget, not a row slice.  The default budget is
    ``min(DENSE_TILE_ROWS, n_assigned)`` — a 1 MiB tile; ``voxel_sweep``
    overrides it (the block-size ablation and the benchmark harness's
    dense drive pass the paper planner's voxel block ``B``).  The tile
    keeps this byte rule rather than :func:`gemm_block_cols`: that
    drive and the ablation scale the tile by ``B``, which the gemm
    width rule would ignore.  No run path materializes the block.
    Output lands in a caller buffer or one allocation, made and checked
    by ``begin``; ``emit`` copies each tile into it.  ``finalize``
    returns ``(out, n_tiles)``, ``n_tiles`` counting the column tiles
    walked, ``ceil(N / tile_cols)`` (the ``stage12_tiles`` counter).
    """

    def __init__(
        self,
        *,
        voxel_sweep: int | None = None,
        out: np.ndarray | None = None,
    ) -> None:
        TilePlan(voxel_sweep=voxel_sweep)  # validates
        self._rows = voxel_sweep
        self._out = out
        #: Column tiles walked by the engine, their width and the row
        #: budget that sized them (introspection/counters).
        self.n_tiles = 0
        self.tile_cols = 0
        self.tile_rows = 0

    def _row_budget(self, shape: EngineShape) -> int:
        if self._rows is not None:
            return self._rows
        return min(DENSE_TILE_ROWS, shape.n_assigned)

    def plan(self, shape: EngineShape) -> TilePlan:
        tile_bytes = self._row_budget(shape) * DENSE_TILE_BYTES_PER_ROW
        cols = tile_bytes // (shape.n_assigned * shape.n_epochs * 4)
        return TilePlan(
            target_block=gemm_safe_block(
                _whole_lines(cols), shape.n_assigned, shape.n_voxels
            )
        )

    def begin(self, shape: EngineShape, plan: TilePlan) -> None:
        assert plan.target_block is not None
        self.n_tiles, self.tile_cols = 0, plan.target_block
        self.tile_rows = self._row_budget(shape)
        if self._out is None:
            self._out = np.empty(shape.dense_shape, dtype=np.float32)
        else:
            validate_dense_out(self._out, shape.dense_shape)

    def emit(
        self, tile: np.ndarray, v0: int, v1: int, n0: int, n1: int
    ) -> None:
        assert self._out is not None
        self._out[v0:v1, :, n0:n1] = tile

    def end_sweep(self, v0: int, v1: int, fragments: Sequence[Any]) -> None:
        self.n_tiles += len(fragments)

    def finalize(self) -> tuple[np.ndarray, int]:
        assert self._out is not None
        return self._out, self.n_tiles


class GramEmitter:
    """Reduces the walk to Gram partials; materializes no block.

    The tiles are the Gram rule's own column chunks
    (:func:`repro.core.kernels.gram_chunks`) inside ``[col_start,
    col_stop)`` — the whole row by default, one column tile of it for a
    tiled worker — over all assigned rows.  ``emit`` turns the
    normalized chunk, still in its thread's held scratch, into its
    ``(V, E, E)`` float32 partial by one stacked ``chunk @ chunk^T``:
    the per-voxel BLAS product
    :func:`~repro.core.kernels.kernel_matrix_batched` makes of the same
    columns of a materialized block, so
    :func:`~repro.core.kernels.sum_gram_partials` of the result is that
    function's kernels bit for bit.  ``finalize`` returns the partials,
    ``(n_chunks, V, E, E)`` in ascending column order.

    The gemm inside a chunk is issued at most :func:`gemm_block_cols`
    columns wide (the plan's ``target_block``): a chunk-wide gemm is
    large enough for OpenBLAS to thread, which under the engine's own
    pool oversubscribes the cores.  ``emit`` is per row, so the plan
    sets :attr:`TilePlan.row_slabs`: a task of fewer chunks than
    threads (every brain of up to 2,048 voxels is one chunk) has each
    chunk's gemm dealt in column shares and its normalize + Gram in row
    slabs, and no engine thread idles.  A one-row task is one tile
    spanning all its chunks: a one-row product leaves the BLAS gemm
    path (:func:`gemm_safe_block`), so it is issued once, full width, as
    the materializing walk issues it, on one thread.
    """

    def __init__(self, col_start: int = 0, col_stop: int | None = None) -> None:
        self._start, self._stop = col_start, col_stop
        #: The chunks reduced, the widest tile walked and the widest
        #: gemm issued in it (introspection/counters).
        self.chunks: list[tuple[int, int]] = []
        self.tile_cols = 0
        self.gemm_cols = 0

    def plan(self, shape: EngineShape) -> TilePlan:
        # kernels imports this module (deal, thread_budget).
        from .kernels import gram_chunks

        self.chunks = gram_chunks(shape.n_voxels, self._start, self._stop)
        columns = tuple(self.chunks)
        if shape.n_assigned == 1:
            columns = ((columns[0][0], columns[-1][1]),)
        return TilePlan(
            target_block=gemm_block_cols(
                shape.n_assigned, shape.epoch_length, shape.n_voxels
            ),
            columns=columns,
            row_slabs=shape.n_assigned > 1,
        )

    def begin(self, shape: EngineShape, plan: TilePlan) -> None:
        assert plan.columns is not None and plan.target_block is not None
        self.tile_cols = max(n1 - n0 for n0, n1 in plan.columns)
        self.gemm_cols = min(plan.target_block, self.tile_cols)
        self._partials = np.empty(
            (len(self.chunks), shape.n_assigned, shape.n_epochs, shape.n_epochs),
            dtype=np.float32,
        )

    def emit(
        self, tile: np.ndarray, v0: int, v1: int, n0: int, n1: int
    ) -> None:
        for k, (c0, c1) in enumerate(self.chunks):
            if n0 <= c0 and c1 <= n1:
                chunk = tile[:, :, c0 - n0 : c1 - n0]
                np.matmul(
                    chunk, chunk.swapaxes(1, 2), out=self._partials[k, v0:v1]
                )

    def end_sweep(self, v0: int, v1: int, fragments: Sequence[Any]) -> None:
        pass

    def finalize(self) -> np.ndarray:
        return self._partials
