"""Cluster substrate: network model, workloads, and the discrete-event
master-worker simulator that answers every scaling question — the
paper's Tables 3-4 and Fig. 8, and the tiled runtime's strong scaling."""

from .network import (
    GIGABIT_ETHERNET,
    IN_PROCESS,
    LOOPBACK_TCP,
    TEN_GBE,
    NetworkModel,
)
from .simulator import (
    ClusterConfig,
    SimulationResult,
    TaskRecord,
    simulate,
    simulate_records,
    simulate_with_failures,
    speedup_curve,
)
from .workload import (
    FoldSpec,
    TaskSpec,
    Workload,
    measured_workload,
    offline_workload,
    online_workload,
    score_task,
    tile_task,
    tiled_workload,
)

__all__ = [
    "ClusterConfig",
    "FoldSpec",
    "GIGABIT_ETHERNET",
    "IN_PROCESS",
    "LOOPBACK_TCP",
    "NetworkModel",
    "SimulationResult",
    "TEN_GBE",
    "TaskRecord",
    "TaskSpec",
    "Workload",
    "measured_workload",
    "offline_workload",
    "online_workload",
    "score_task",
    "simulate",
    "simulate_records",
    "simulate_with_failures",
    "speedup_curve",
    "tile_task",
    "tiled_workload",
]
