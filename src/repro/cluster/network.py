"""Network model for the simulated cluster: the master's star link.

The paper's testbed interconnect is an Arista 10 GbE switch.  We model a
star around the master: a point-to-point transfer costs latency plus
bytes/bandwidth, and every byte to or from a worker crosses the
master's one link — the dataset broadcast is serialized there, and so
is each work item's bandwidth term in the simulator's loop (the traffic
pattern of the paper's master-worker framework).  One type, four
presets: the paper's fabric and the three links the repo's own runs
cross.
"""

from __future__ import annotations

from dataclasses import dataclass

__all__ = [
    "GIGABIT_ETHERNET",
    "IN_PROCESS",
    "LOOPBACK_TCP",
    "NetworkModel",
    "TEN_GBE",
]


@dataclass(frozen=True)
class NetworkModel:
    """Latency/bandwidth cost model of the cluster fabric."""

    #: One-way message latency in seconds (switch + stack).
    latency_s: float = 50e-6
    #: Sustained bandwidth of the master's link in bytes/second.
    bandwidth_bytes_per_s: float = 1.25e9  # 10 Gb/s

    def __post_init__(self) -> None:
        if self.latency_s < 0:
            raise ValueError("latency must be >= 0")
        if self.bandwidth_bytes_per_s <= 0:
            raise ValueError("bandwidth must be positive")

    def transfer_time(self, nbytes: int | float) -> float:
        """Seconds for one point-to-point message of ``nbytes``."""
        if nbytes < 0:
            raise ValueError("nbytes must be >= 0")
        return self.latency_s + nbytes / self.bandwidth_bytes_per_s

    def broadcast_time(self, nbytes: int | float, n_receivers: int) -> float:
        """Master-serialized broadcast: n sequential sends on one uplink.

        This is the paper's data-distribution step ("the master node
        first distributes brain data to the worker nodes"); with a flat
        send loop the master's link carries ``n`` copies.
        """
        if n_receivers < 0:
            raise ValueError("n_receivers must be >= 0")
        if n_receivers == 0:
            return 0.0
        return self.latency_s + n_receivers * nbytes / self.bandwidth_bytes_per_s


#: The paper's interconnect.
TEN_GBE = NetworkModel()
#: The thread transport: a queue hand-off, payloads move by reference.
IN_PROCESS = NetworkModel(latency_s=2e-6, bandwidth_bytes_per_s=2.0e10)
#: Localhost TCP through the loopback device (the CI smoke topology).
LOOPBACK_TCP = NetworkModel(latency_s=25e-6, bandwidth_bytes_per_s=3.0e9)
#: Commodity gigabit Ethernet between hosts.
GIGABIT_ETHERNET = NetworkModel(latency_s=60e-6, bandwidth_bytes_per_s=117e6)
