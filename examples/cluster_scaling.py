#!/usr/bin/env python
"""Cluster scaling study (paper Tables 3-4, Fig. 8).

Prints the claims ledger's scaling tables — per-task times from the
kernel performance models fed through the discrete-event cluster
simulator, beside the paper's numbers — then what those rows do not
show: where and why scaling bends (data distribution, master
serialization, last-wave imbalance).

Run:  python examples/cluster_scaling.py
"""

from __future__ import annotations

from repro.bench import render_table, run_experiment
from repro.bench.experiments import paper_workload
from repro.bench.paperdata import NODE_COUNTS
from repro.cluster import ClusterConfig, simulate


def main() -> None:
    for exp_id in ("table3", "table4", "fig8"):
        print(run_experiment(exp_id), end="\n\n")

    for name in ("face-scene", "attention"):
        for mode in ("offline", "online"):
            workload = paper_workload(mode, name)
            rows = []
            for n in NODE_COUNTS:
                res = simulate(workload, ClusterConfig(n_workers=n))
                rows.append([
                    str(n),
                    f"{res.elapsed_seconds:.2f}",
                    f"{res.distribution_seconds:.2f}",
                    f"{res.utilization:.0%}",
                ])
            print(render_table(
                ["#coproc", "simulated s", "data distribution s", "utilization"],
                rows,
                title=f"{name}, {mode}: {workload.n_tasks} tasks",
            ), end="\n\n")
    print("note: at high node counts online time saturates on the "
          "serialized data broadcast — the floor of Table 4's 96-node rows.")


if __name__ == "__main__":
    main()
