"""Scale-out model: bandwidth + latency terms for the 2-D tiled protocol.

The single-node models (:mod:`repro.perf.matmul_model` and friends) cost
the kernels; this module costs what scale-out adds around them — the
master-worker *communication* of the TCP transport under 2-D tile
partitioning:

* per **tile**, the master sends a small descriptor (panel id, row ids,
  column range) and receives one ``(rows, epochs, epochs)`` float32
  partial Gram per chunk of the tile
  (:func:`repro.core.kernels.gram_chunks`) — the worker keeps the
  ``(rows, epochs, cols)`` block it computed;
* per **panel**, the master ships the summed ``(rows, epochs, epochs)``
  kernels out for stage-3 scoring and receives the per-voxel
  accuracies.

Every transfer is modeled as ``latency + bytes / bandwidth`` on an
:class:`InterconnectSpec`.  The master's link is shared, so the wire
terms *serialize* there while compute scales with workers; the
strong-scaling prediction is the resulting
``max(compute / n, wire_seconds)`` envelope, which is what the worker
loop's request prefetch (communication/compute overlap) can at best
achieve.  Everything is deterministic given geometry + machine + network
specs, so predictions are comparable across machines and live next to
measured curves in ``BENCH_scaleout.json``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from ..core.kernels import gram_chunks
from ..data.presets import DatasetSpec
from ..hw.counters import PerfCounters
from ..hw.spec import HardwareSpec
from .matmul_model import model_correlation_matmul, model_kernel_syrk
from .norm_model import model_normalization
from .svm_model import model_svm_cv

__all__ = [
    "GIGABIT_ETHERNET",
    "IN_PROCESS",
    "LOOPBACK_TCP",
    "TEN_GBE_FABRIC",
    "TRANSPORT_INTERCONNECTS",
    "CommEstimate",
    "InterconnectSpec",
    "ScaleoutPoint",
    "TileCommShape",
    "model_panel_comm",
    "model_tile2d_compute",
    "model_tile_comm",
    "predict_scaleout",
]

#: Bytes of frame header + pickle framing per message (both directions).
MESSAGE_OVERHEAD_BYTES = 256
#: float32 payload elements.
_F32 = 4
#: Bytes per scored voxel in a result (int64 id + float64 accuracy).
_SCORE_BYTES = 16


@dataclass(frozen=True)
class InterconnectSpec:
    """One link of the master's star fabric."""

    name: str
    #: One-way message latency in seconds (handshake + kernel wakeup).
    latency_s: float
    #: Sustained point-to-point bandwidth in bytes/second.
    bandwidth_bytes_s: float

    def __post_init__(self) -> None:
        if self.latency_s < 0:
            raise ValueError("latency_s must be >= 0")
        if self.bandwidth_bytes_s <= 0:
            raise ValueError("bandwidth_bytes_s must be positive")

    def transfer_seconds(self, nbytes: float, messages: int = 1) -> float:
        """Wire time of ``messages`` transfers totalling ``nbytes``."""
        if nbytes < 0:
            raise ValueError("nbytes must be >= 0")
        if messages < 0:
            raise ValueError("messages must be >= 0")
        payload = nbytes + messages * MESSAGE_OVERHEAD_BYTES
        return messages * self.latency_s + payload / self.bandwidth_bytes_s


#: The thread transport: a queue hand-off, payloads move by reference.
IN_PROCESS = InterconnectSpec(
    "in-process", latency_s=2e-6, bandwidth_bytes_s=2.0e10
)
#: Localhost TCP through the loopback device (the CI smoke topology).
LOOPBACK_TCP = InterconnectSpec(
    "loopback-tcp", latency_s=25e-6, bandwidth_bytes_s=3.0e9
)
#: Commodity gigabit Ethernet between hosts.
GIGABIT_ETHERNET = InterconnectSpec(
    "gigabit-ethernet", latency_s=60e-6, bandwidth_bytes_s=117e6
)
#: The paper's testbed fabric (Arista 10 GbE), matching
#: :data:`repro.cluster.network.TEN_GBE`.
TEN_GBE_FABRIC = InterconnectSpec(
    "ten-gbe", latency_s=50e-6, bandwidth_bytes_s=1.25e9
)

#: Transport-name -> interconnect used for predicted-vs-measured hooks.
TRANSPORT_INTERCONNECTS = {
    "thread": IN_PROCESS,
    "tcp": LOOPBACK_TCP,
}


@dataclass(frozen=True)
class TileCommShape:
    """The messages one 2-D tile costs on the wire."""

    rows: int
    #: Gram-rule chunks the tile reduces (one partial Gram each).
    n_chunks: int
    n_epochs: int

    def __post_init__(self) -> None:
        if self.rows < 1 or self.n_chunks < 1 or self.n_epochs < 1:
            raise ValueError("rows, n_chunks, n_epochs must all be >= 1")

    @property
    def task_bytes(self) -> int:
        """Master -> worker descriptor: row ids + column range."""
        return self.rows * 8 + 32

    @property
    def result_bytes(self) -> int:
        """Worker -> master partial Grams: ``(n_chunks, rows, epochs,
        epochs)`` float32."""
        return self.n_chunks * self.rows * self.n_epochs**2 * _F32


@dataclass(frozen=True)
class CommEstimate:
    """Wire cost of one protocol exchange."""

    bytes_down: float  # master -> worker
    bytes_up: float    # worker -> master
    seconds: float

    @property
    def total_bytes(self) -> float:
        return self.bytes_down + self.bytes_up


def model_tile_comm(shape: TileCommShape, net: InterconnectSpec) -> CommEstimate:
    """Request/descriptor down, the tile's partial Grams up."""
    down = float(shape.task_bytes)
    up = float(shape.result_bytes)
    seconds = net.transfer_seconds(down, messages=1) + net.transfer_seconds(
        up, messages=1
    )
    return CommEstimate(bytes_down=down, bytes_up=up, seconds=seconds)


def model_panel_comm(
    rows: int, n_epochs: int, net: InterconnectSpec
) -> CommEstimate:
    """Summed kernels down for scoring, voxel accuracies up."""
    if rows < 1 or n_epochs < 1:
        raise ValueError("rows and n_epochs must be >= 1")
    down = float(rows * n_epochs**2 * _F32 + rows * 8)
    up = float(rows * _SCORE_BYTES)
    seconds = net.transfer_seconds(down, messages=1) + net.transfer_seconds(
        up, messages=1
    )
    return CommEstimate(bytes_down=down, bytes_up=up, seconds=seconds)


def model_tile2d_compute(
    spec: DatasetSpec,
    rows: int,
    cols: int,
    hw: HardwareSpec,
    syrk_impl: str = "ours",
) -> tuple[PerfCounters, float]:
    """Counters + seconds of one 2-D tile: fused correlate+normalize,
    then the Gram of what it computed.

    The tile kernel is the full-width blocked gemm + merged
    normalization + kernel syrk restricted to a ``cols``-wide column
    slab (the linear kernel is additive over columns), so its cost is
    the column fraction of the single-node models — the same
    first-principles counters, scaled by ``cols / V``.
    """
    if rows < 1 or cols < 1:
        raise ValueError("rows and cols must be >= 1")
    if cols > spec.n_voxels:
        raise ValueError("cols cannot exceed the dataset's voxel count")
    frac = cols / spec.n_voxels
    matmul = model_correlation_matmul(spec, rows, hw, "ours")
    norm = model_normalization(spec, rows, hw, "merged")
    syrk = model_kernel_syrk(spec, rows, hw, syrk_impl)
    counters = (matmul.counters + norm.counters + syrk.counters).scaled(frac)
    seconds = (matmul.seconds + norm.seconds + syrk.seconds) * frac
    return counters, seconds


@dataclass(frozen=True)
class ScaleoutPoint:
    """Predicted elapsed time of the tiled run at one worker count."""

    n_workers: int
    #: Sum of all tile + scoring compute, spread over the workers.
    compute_seconds: float
    #: Wire time serialized on the master's shared link.
    comm_seconds: float
    #: Total protocol bytes over the run (both directions).
    comm_bytes: float
    #: ``max(compute / n, comm)`` — the overlapped-envelope prediction.
    elapsed_seconds: float

    @property
    def comm_bound(self) -> bool:
        """True when the master's link, not compute, sets the time."""
        return self.comm_seconds > self.compute_seconds / self.n_workers


def predict_scaleout(
    spec: DatasetSpec,
    hw: HardwareSpec,
    net: InterconnectSpec,
    task_voxels: int,
    tile_cols: int,
    workers: Sequence[int],
    variant: str = "optimized",
) -> list[ScaleoutPoint]:
    """Strong-scaling curve of the 2-D tiled master-worker run.

    Total compute is the per-panel single-node cost (stage 1/2 + the
    Gram via the tile model summed over column slabs, the
    cross-validation via the SVM model) summed over panels; total
    communication is every tile and panel exchange serialized on the
    master link.  A tile ships one partial Gram per Gram-rule chunk that
    starts inside it (exact for the chunk-aligned tiles the runtime
    plans, at least one for a hypothetical narrower tile).  With the
    worker loop's request prefetch the best achievable elapsed time is the
    envelope ``max(compute / n, comm)`` — returned per worker count.
    Weak-scaling curves come from calling this per problem size.
    """
    if task_voxels < 1 or tile_cols < 1:
        raise ValueError("task_voxels and tile_cols must be >= 1")
    if not workers:
        raise ValueError("need at least one worker count")
    v = spec.n_voxels
    panels = [
        min(task_voxels, v - start) for start in range(0, v, task_voxels)
    ]
    chunk_starts = [c0 for c0, _ in gram_chunks(v)]
    tiles = [
        (
            min(tile_cols, v - start),
            max(1, sum(start <= c0 < start + tile_cols for c0 in chunk_starts)),
        )
        for start in range(0, v, tile_cols)
    ]

    compute = 0.0
    comm_seconds = 0.0
    comm_bytes = 0.0
    if variant == "baseline":
        syrk_impl, svm_impl = "mkl", "libsvm"
    else:
        syrk_impl, svm_impl = "ours", "phisvm"
    for rows in panels:
        for cols, n_chunks in tiles:
            _, tile_s = model_tile2d_compute(spec, rows, cols, hw, syrk_impl)
            compute += tile_s
            tile_comm = model_tile_comm(
                TileCommShape(rows=rows, n_chunks=n_chunks, n_epochs=spec.n_epochs),
                net,
            )
            comm_seconds += tile_comm.seconds
            comm_bytes += tile_comm.total_bytes
        compute += model_svm_cv(spec, rows, hw, svm_impl).seconds
        panel_comm = model_panel_comm(rows, spec.n_epochs, net)
        comm_seconds += panel_comm.seconds
        comm_bytes += panel_comm.total_bytes

    points = []
    for n in workers:
        if n < 1:
            raise ValueError("worker counts must be >= 1")
        elapsed = max(compute / n, comm_seconds)
        points.append(
            ScaleoutPoint(
                n_workers=n,
                compute_seconds=compute,
                comm_seconds=comm_seconds,
                comm_bytes=comm_bytes,
                elapsed_seconds=elapsed,
            )
        )
    return points
