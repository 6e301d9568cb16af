"""The master/worker runtime: one pull loop over three work-item kinds.

"The master node first distributes brain data to the worker nodes and
then sends tasks to the workers to process in parallel.  A worker works
on one task at a time.  When a worker finishes a task, it will receive a
new task from the master." (paper Section 3.1.1)

:func:`master_loop` (rank 0) and :func:`worker_loop` (ranks 1..n-1)
implement that pull protocol over any :class:`~repro.parallel.comm.Comm`.
*What* is served is a :class:`WorkPlan`, one of two decompositions of
the ``(assigned × all-voxels)`` correlation matrix:

* **Rows** — the paper's 1-D decomposition: a ``"task"`` item is one
  row panel run end to end through
  :func:`~repro.exec.stage_graph.execute_task` (every variant) — walk at
  full width, then score.
* **Tiles** — the 2-D scheme that scaled all-pairs Pearson to thousands
  of cores in *Parallel Pairwise Correlation Computation on Intel Xeon
  Phi Clusters*: a ``"tile"`` item is
  :func:`~repro.exec.stage_graph.walk` over the tile's column range —
  the serial node's own call, restricted to the tile's chunks of the
  Gram rule (:func:`~repro.core.kernels.gram_chunks`), each **reduced
  where it was computed**, with the engine's thread deal when the
  rank's host budget is above 1.  The linear kernel is additive over
  column blocks, so the tile returns only each chunk's ``(rows, E, E)``
  partial Gram.  Tiles land in any order from any worker; when a
  panel's last tile lands the plan adds all its partials in ascending
  column order — the serial rule, so the kernels are the serial bits
  whatever the worker count, tile width, arrival order or retry
  schedule — and the ``(rows, E, E)`` kernels become a ``"score"`` item,
  :func:`~repro.exec.stage_graph.score`.  No correlation ever crosses
  the wire or exists on the master or the worker: a chunk ships
  ``rows·E²·4`` bytes instead of ``rows·E·cols·4``
  (``GRAM_CHUNK_COLS / E`` times less).

Task = walk ∘ score; a tile is the walk on a column range; a score item
is score — so the three item kinds are one call each, and this module
opens no timed span and types no metric.  The loops know only the protocol;
the plan knows what is ready next and what a result unlocks.

* **A rank's lifecycle is REQUEST … STOP → DONE**, closed inside the
  two loops on every transport: the worker answers TAG_STOP with its
  report (:func:`rank_report`: its telemetry export, the one way it
  goes home, and its process's peak RSS), and the master returns once
  every rank has reported or been lost.  Each message the master
  receives is one ``event`` span on the run's trace
  (``request`` / ``result`` / ``error`` / ``done`` / ``lost``, attrs
  ``worker`` and ``item``): the protocol view, and all the live plane
  knows of per-rank progress.

* **Dispatch order.**  One ready list sorted ``(priority, id)``:
  scores before tiles/tasks, ascending ids — so a re-queued tile or
  task (its id is lower than every id still pending) goes out before
  any fresh one, and scheduling is deterministic given the same event
  sequence.
* **Communication/compute overlap** is a property of tile/score items:
  the worker sends its next request *before* computing, so the
  master's reply travels (and the next tile is chosen) while the gemm
  runs.  The exposed remainder is timed under the ``comm.fetch_wait``
  stage; the hidden part accumulates in the ``overlap_hidden_seconds``
  counter.  A ``"task"`` item keeps the paper's rule — ask for the next
  task after reporting this one.
* **Fault tolerance at item granularity.**  TAG_ERROR re-queues the one
  item (up to ``max_retries`` attempts, then :class:`TaskFailedError`
  once the healthy items are done); TAG_PEER_LOST — or a report naming
  the error a rank died of outside an item — re-queues everything the
  dead worker had in flight without charging the retry budget; a
  worker that asks while all current work is in flight is *parked*, so
  it stays available to absorb those re-queues.  Because the kernels
  are bitwise deterministic, results are identical whichever worker
  re-runs an item — worker loss is invisible in the output bits.

Work-item payloads (every payload starts ``(kind, id, ...)``):

========  ====================================  ========================================
kind      TAG_TASK payload                      TAG_RESULT payload
========  ====================================  ========================================
"task"    ("task", index, rows)                 ("task", index, VoxelScores)
"tile"    ("tile", index, panel, rows, c0, c1)  ("tile", index, panel, c0, c1, partials)
"score"   ("score", panel, rows, kernels)       ("score", panel, VoxelScores)
========  ====================================  ========================================

``partials`` is float32 ``(n_chunks, rows, E, E)``, one partial Gram per
chunk of ``[c0, c1)`` in ascending column order; ``kernels`` is float32
``(rows, E, E)``.
"""

from __future__ import annotations

import bisect
import resource
import time
from collections import Counter, deque
from typing import TYPE_CHECKING, Any, Sequence

import numpy as np
from numpy.typing import NDArray

from ..core.engine import gemm_normalize_tile
from ..core.kernels import sum_gram_partials
from ..core.normalization import NormalizationWorkspace
from ..core.pipeline import preprocess_dataset
from ..core.results import VoxelScores
from ..data.dataset import FMRIDataset
from ..exec.context import RunContext
from ..exec.stage_graph import (
    execute_task,
    score,
    score_panel,  # re-exported: the dense score body the harness drives
    walk,
)
from ..obs.runtime import current_tracer
from .comm import Comm, TAG_PEER_LOST

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..exec.partition import TileTask

__all__ = [
    "TaskFailedError",
    "WorkPlan",
    "compute_tile",
    "master_loop",
    "rank_report",
    "score_panel",
    "tile_partial_grams",
    "worker_loop",
]

#: Message tags of the protocol.
TAG_REQUEST = 1  # worker -> master: "give me work" (payload: None)
TAG_TASK = 2     # master -> worker: a work item (table above)
TAG_RESULT = 3   # worker -> master: the item's result (table above)
TAG_STOP = 4     # master -> worker: no more work
TAG_ERROR = 5    # worker -> master: ((kind, id), error message)
TAG_DONE = 6     # worker -> master: the rank's report, its last message

#: Work-item key: ("task", task index), ("tile", tile index) or
#: ("score", panel id).
WorkKey = tuple[str, int]


def rank_report(ctx: RunContext, error: str | None = None) -> dict[str, Any]:
    """A rank's TAG_DONE payload: ``{"export", "error", "peak_rss_mb"}``
    — its telemetry export, the error it died of outside an item (None
    on a clean stop) and its process's peak resident set (``ru_maxrss``,
    KiB on Linux), which the master's own ``RUSAGE_CHILDREN`` cannot see
    for a rank that is not its child."""
    peak_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return {"export": ctx.export(), "error": error, "peak_rss_mb": peak_kib / 1024}


class TaskFailedError(RuntimeError):
    """A work item exhausted its retries across workers."""


def _dispatch_order(key: WorkKey) -> tuple[int, int]:
    """Sort key of the ready list: scores first, then ascending ids."""
    kind, ident = key
    return (0 if kind == "score" else 1, ident)


class WorkPlan:
    """What is ready next and what a result unlocks.

    The decomposition-specific half of the master: build it from row
    ``tasks`` (:func:`~repro.exec.partition.partition_tasks`) *or* from
    ``tiles`` (:func:`~repro.exec.partition.partition_tiles`).  Either
    way the scored parts concatenate in row-panel order.  A tiles plan
    holds, per panel, only the ``(rows, E, E)`` partial Grams its tiles
    returned, and from the last tile until the score the kernels they
    sum to.
    """

    def __init__(
        self,
        tasks: Sequence[NDArray[np.int64]] = (),
        tiles: Sequence["TileTask"] = (),
    ):
        if bool(len(tasks)) == bool(len(tiles)):
            raise ValueError("a plan serves row tasks or tiles: give exactly one")
        self._tasks = tasks
        self._tiles = tiles
        self._scores: dict[int, VoxelScores] = {}
        #: Scored parts (row panels) the result concatenates.
        self._n_parts = len(tasks)
        #: Work items the plan will serve.
        self.n_items = len(tasks)
        if tiles:
            self._rows = {t.panel: t.rows for t in tiles}
            self._n_tiles = Counter(t.panel for t in tiles)
            #: Per panel not yet summed: the partial Grams of the tiles
            #: that landed, by column start.
            self._partials: dict[int, dict[int, NDArray[np.float32]]] = {
                panel: {} for panel in self._rows
            }
            #: Summed kernels of complete panels, held until scored.
            self._kernels: dict[int, NDArray[np.float32]] = {}
            self._n_parts = len(self._rows)
            self.n_items = len(tiles) + self._n_parts  # + one score per panel

    def initial(self) -> list[WorkKey]:
        """The items ready before any result has arrived."""
        return [("task", i) for i in range(len(self._tasks))] + [
            ("tile", i) for i in range(len(self._tiles))
        ]

    def message(self, key: WorkKey) -> tuple[Any, ...]:
        """The TAG_TASK payload of one ready item."""
        kind, ident = key
        if kind == "task":
            return ("task", ident, np.asarray(self._tasks[ident]))
        if kind == "tile":
            t = self._tiles[ident]
            return ("tile", ident, t.panel, np.asarray(t.rows), t.col_start, t.col_stop)
        return ("score", ident, self._rows[ident], self._kernels[ident])

    def complete(self, payload: tuple[Any, ...]) -> list[WorkKey]:
        """Absorb one TAG_RESULT payload; returns the items it made ready.

        Duplicates are legal (a worker presumed lost can still have
        delivered): the first result of a part wins, and the bits are
        identical anyway.  A panel's last tile turns its partial Grams
        into kernels — every chunk's partial added in ascending column
        order, the serial Gram rule — and makes its score ready.
        """
        kind, ident = payload[0], payload[1]
        if kind == "tile":
            _, _, panel_id, c0, _, partials = payload
            landed = self._partials.get(panel_id)
            if landed is None or c0 in landed:
                return []
            landed[c0] = partials
            if len(landed) < self._n_tiles[panel_id]:
                return []
            del self._partials[panel_id]
            self._kernels[panel_id] = sum_gram_partials(
                chunk for start in sorted(landed) for chunk in landed[start]
            )
            return [("score", panel_id)]
        if ident not in self._scores:
            self._scores[ident] = payload[2]
            if kind == "score":
                del self._kernels[ident]
        return []

    def result(self) -> VoxelScores:
        """The sorted aggregate once every part has been scored."""
        missing = [p for p in range(self._n_parts) if p not in self._scores]
        if missing:
            raise RuntimeError(f"parts without scores: {missing}")
        parts = [self._scores[p] for p in range(self._n_parts)]
        return VoxelScores.concatenate(parts).sorted_by_accuracy()


def compute_tile(
    z: np.ndarray,
    rows: np.ndarray,
    col_start: int,
    col_stop: int,
    epochs_per_subject: int,
    workspace: NormalizationWorkspace | None = None,
    panel: np.ndarray | None = None,
    out: np.ndarray | None = None,
) -> np.ndarray:
    """Fused stage-1/2 of one 2-D tile, materialized: gemm + normalize.

    The engine's own tile body
    (:func:`repro.core.engine.gemm_normalize_tile`) on a C-contiguous
    float32 ``(rows, E, cols)`` block — a fresh one, or ``out`` — so
    "bitwise equal to serial" holds by construction, for any column
    range.  ``panel`` lets the caller reuse the ``z[:, rows]``
    contiguous copy across column tiles of one row panel.  No run path
    calls it (a ``"tile"`` item is :func:`~repro.exec.stage_graph.walk`);
    it is the block-returning form the benchmark harness drives.
    """
    if panel is None:
        panel = z[:, rows]  # (E, width, T) contiguous copy
    if out is None:
        out = np.empty(
            (rows.size, z.shape[0], col_stop - col_start), dtype=np.float32
        )
    return gemm_normalize_tile(
        panel,
        z.swapaxes(1, 2)[:, :, col_start:col_stop],
        out,
        epochs_per_subject,
        workspace,
    )


def tile_partial_grams(
    z: np.ndarray,
    rows: np.ndarray,
    col_start: int,
    col_stop: int,
    epochs_per_subject: int,
    workspace: NormalizationWorkspace,
) -> np.ndarray:
    """What a ``"tile"`` item returns, for callers that hold no run:
    :func:`~repro.exec.stage_graph.walk` on a throwaway context
    (``[col_start, col_stop)`` must be whole chunks of the full row)."""
    return walk(
        RunContext(), z, rows, epochs_per_subject, col_start, col_stop, workspace
    )


def master_loop(
    comm: Comm,
    plan: WorkPlan,
    max_retries: int = 2,
    reports: dict[int, Any] | None = None,
) -> VoxelScores:
    """Serve ``plan``'s items to workers on demand; returns the aggregate.

    Runs on rank 0.  Each worker gets the first ready item the moment
    it asks; results arrive in any order.  Even after an item has
    failed for good the master keeps serving the healthy ones, so one
    bad item yields the maximum information before the raise.

    Returns once every rank has answered its TAG_STOP with a TAG_DONE
    report (``reports[rank]``) or been lost — by TAG_PEER_LOST, or by a
    report naming the ``error`` it died of outside an item.  Each
    message received is one ``event`` span on the ambient tracer (the
    run's, inside its run span).
    """
    if comm.rank != 0:
        raise ValueError("master_loop must run on rank 0")
    if max_retries < 1:
        raise ValueError("max_retries must be >= 1")
    if comm.size - 1 < 1:
        raise ValueError("need at least one worker rank")
    if reports is None:
        reports = {}

    ready = sorted(plan.initial(), key=_dispatch_order)
    attempts: dict[WorkKey, int] = {}
    in_flight: dict[int, set[WorkKey]] = {}
    failure: tuple[WorkKey, str] | None = None
    parked: deque[int] = deque()
    active = set(range(1, comm.size))
    tracer = current_tracer()

    def heard(event: str, rank: int, key: WorkKey | None = None) -> None:
        """Record one received message on the run's trace."""
        if tracer is not None:
            attrs: dict[str, Any] = {"worker": rank}
            if key is not None:
                attrs["item"] = f"{key[0]}:{key[1]}"
            tracer.record(event, kind="event", attrs=attrs)

    def dispatch(dest: int) -> None:
        key = ready.pop(0)
        attempts[key] = attempts.get(key, 0) + 1
        in_flight.setdefault(dest, set()).add(key)
        comm.send(plan.message(key), dest, TAG_TASK)

    def work_outstanding() -> bool:
        return bool(ready or any(in_flight.values()))

    def drain_parked() -> None:
        while parked and ready:
            dispatch(parked.popleft())
        if not work_outstanding():
            while parked:
                comm.send(None, parked.popleft(), TAG_STOP)

    def lose(rank: int) -> None:
        if rank not in active:
            return
        active.discard(rank)
        if rank in parked:
            parked.remove(rank)
        for key in sorted(in_flight.pop(rank, set())):
            # A dead worker is not an item failure: give the item
            # its attempt back and re-queue in sorted order.
            attempts[key] = max(0, attempts.get(key, 1) - 1)
            bisect.insort(ready, key, key=_dispatch_order)
        if not active and work_outstanding():
            died = "".join(
                f"; rank {r} died of {report['error']}"
                for r, report in sorted(reports.items())
                if report["error"]
            )
            raise RuntimeError(
                f"all workers lost with {len(ready)} work item(s) "
                f"unfinished{died}"
            )
        drain_parked()

    while active - reports.keys():
        src, tag, payload = comm.recv()
        if tag == TAG_DONE:
            # A report naming an error is the rank's death notice.
            heard("lost" if payload["error"] else "done", src)
            reports[src] = payload
            if payload["error"]:
                lose(src)
        elif tag == TAG_REQUEST:
            heard("request", src)
            if ready:
                dispatch(src)
            elif work_outstanding():
                parked.append(src)  # may absorb a re-queue later
            else:
                comm.send(None, src, TAG_STOP)
        elif tag == TAG_RESULT:
            kind, ident = payload[0], payload[1]
            heard("result", src, (kind, ident))
            in_flight.get(src, set()).discard((kind, ident))
            for key in plan.complete(payload):
                bisect.insort(ready, key, key=_dispatch_order)
            drain_parked()
        elif tag == TAG_ERROR:
            key, message = payload
            key = (key[0], key[1])
            heard("error", src, key)
            in_flight.get(src, set()).discard(key)
            if attempts.get(key, 0) < max_retries:
                bisect.insort(ready, key, key=_dispatch_order)
            elif failure is None:
                failure = (key, message)
            drain_parked()
        elif tag == TAG_PEER_LOST:
            heard("lost", src)
            lose(src)
        else:
            raise RuntimeError(f"master got unexpected tag {tag} from {src}")

    if failure is not None:
        (kind, ident), message = failure
        raise TaskFailedError(
            f"{kind} {ident} failed after {max_retries} attempts: {message}"
        )
    return plan.result()


def worker_loop(comm: Comm, dataset: FMRIDataset, ctx: "RunContext") -> int:
    """A worker rank's lifecycle, REQUEST ... STOP -> DONE; returns
    items completed.

    A tile/score item is prefetched: the request for the *next* item
    goes out before this one computes, the exposed wait lands in the
    ``comm.fetch_wait`` stage and the hidden fraction (message arrived
    while computing) in the ``overlap_hidden_seconds`` counter.  A
    ``"task"`` item is requested only after the previous one has been
    reported, and records nothing outside its own task span.  Item
    failures are reported per item (TAG_ERROR) and the loop keeps
    serving.  TAG_STOP is answered with the rank's report,
    :func:`rank_report`, under TAG_DONE, the export carrying this end's
    ``comm.bytes_sent`` / ``bytes_recv`` as run counters.
    """
    if comm.rank == 0:
        raise ValueError("worker_loop must not run on rank 0")
    grouped, z = preprocess_dataset(dataset)
    epochs_per_subject = grouped.epochs.epochs_per_subject()
    workspace = NormalizationWorkspace()
    completed = 0
    # Whether the item in hand is a prefetching kind (tile/score); a
    # STOP is accounted like the item before it.
    overlap = False

    comm.send(None, 0, TAG_REQUEST)
    t_request = time.monotonic()
    while True:
        t_wait = time.monotonic()
        _, tag, payload, arrived = comm.recv_timed(source=0)
        exposed = time.monotonic() - t_wait
        if tag == TAG_TASK:
            overlap = payload[0] != "task"
        if overlap:
            ctx.add_time("comm.fetch_wait", exposed)
            ctx.increment(
                "overlap_hidden_seconds",
                max(0.0, (arrived - t_request) - exposed),
            )
        if tag == TAG_STOP:
            stats = comm.stats
            ctx.increment("comm.bytes_sent", stats.bytes_sent)
            ctx.increment("comm.bytes_recv", stats.bytes_recv)
            comm.send(rank_report(ctx), 0, TAG_DONE)
            return completed
        if tag == TAG_PEER_LOST:
            raise RuntimeError("master connection lost")
        if tag != TAG_TASK:
            raise RuntimeError(f"worker got unexpected tag {tag}")
        if overlap:
            # Prefetch: ask for the next item before computing this one.
            comm.send(None, 0, TAG_REQUEST)
            t_request = time.monotonic()
        kind, ident = payload[0], payload[1]
        try:
            if kind == "task":
                result: tuple[Any, ...] = (
                    "task", ident, execute_task(dataset, payload[2], ctx)
                )
            elif kind == "tile":
                _, _, panel_id, rows, c0, c1 = payload
                partials = walk(
                    ctx,
                    z,
                    np.asarray(rows, dtype=np.int64),
                    epochs_per_subject,
                    c0,
                    c1,
                    workspace,
                )
                result = ("tile", ident, panel_id, c0, c1, partials)
            elif kind == "score":
                _, _, rows, kernels = payload
                scores = score(
                    ctx,
                    grouped,
                    np.asarray(rows, dtype=np.int64),
                    np.ascontiguousarray(kernels, dtype=np.float32),
                )
                result = ("score", ident, scores)
            else:
                raise RuntimeError(f"unknown work kind {kind!r}")
        except Exception as exc:  # noqa: BLE001 - reported to master
            comm.send(((kind, ident), f"{type(exc).__name__}: {exc}"), 0, TAG_ERROR)
        else:
            comm.send(result, 0, TAG_RESULT)
            completed += 1
        if not overlap:
            comm.send(None, 0, TAG_REQUEST)
            t_request = time.monotonic()
