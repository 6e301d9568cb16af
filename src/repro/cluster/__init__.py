"""Cluster substrate: network model, workloads, and the discrete-event
master-worker simulator that regenerates the paper's scaling results."""

from .network import TEN_GBE, NetworkModel
from .simulator import (
    ClusterConfig,
    SimulationResult,
    simulate,
    simulate_with_failures,
    speedup_curve,
)
from .trace import ClusterTrace, TaskRecord, render_gantt, simulate_with_trace
from .workload import (
    FoldSpec,
    TaskSpec,
    Workload,
    measured_workload,
    offline_workload,
    online_workload,
)

__all__ = [
    "ClusterConfig",
    "ClusterTrace",
    "FoldSpec",
    "NetworkModel",
    "SimulationResult",
    "TEN_GBE",
    "TaskRecord",
    "TaskSpec",
    "Workload",
    "measured_workload",
    "offline_workload",
    "online_workload",
    "render_gantt",
    "simulate",
    "simulate_with_failures",
    "simulate_with_trace",
    "speedup_curve",
]
