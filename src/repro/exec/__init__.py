"""Unified execution core: the task body, RunContext, two executors.

This package is the single seam every FCMA entry point runs through:

* :mod:`repro.exec.partition` — the one task-partitioning helper;
* :mod:`repro.exec.context` — :class:`RunContext`, the shared carrier of
  config, seeds, and per-stage instrumentation;
* :mod:`repro.exec.stage_graph` — one task's stages: the ``baseline``
  oracle, or walk ∘ score;
* :mod:`repro.exec.registry` — the fixed variant and SVM-backend tables;
* :mod:`repro.exec.executors` — the serial and master-worker executors,
  producing bitwise-identical results from one task stream.

Exports resolve lazily (PEP 562), so importing a leaf such as
``repro.exec.stage_graph`` does not load the executors.  One
package-level cycle depends on that: the master/worker runtime
(``repro.parallel.tiled``) imports ``repro.exec.stage_graph`` to run
row tasks, and ``repro.exec.executors`` imports that runtime.  No
module is in a cycle (``stage_graph`` never imports ``executors``); an
eager ``__init__`` here would put ``tiled`` in one.

Nothing here imports ``repro.hw`` / ``perf`` / ``cluster`` / ``bench``
(``tests/test_layering.py``): the models read what a run wrote, through
``repro.obs.perf`` or ``repro.cluster.measured_workload``, and
``repro.cluster`` importing ``exec.partition`` is one-way.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any

if TYPE_CHECKING:  # pragma: no cover - typing only
    from .context import RunContext, StageStats, StageTimer
    from repro.exec.executors import (
        EXECUTOR_NAMES,
        Executor,
        MasterWorkerExecutor,
        SerialExecutor,
        make_executor,
    )
    from .partition import n_tasks, partition_rows_by_nnz, partition_tasks
    from .registry import create_backend
    from .stage_graph import execute_task

_EXPORTS = {
    "RunContext": "context",
    "StageStats": "context",
    "StageTimer": "context",
    "EXECUTOR_NAMES": "executors",
    "Executor": "executors",
    "MasterWorkerExecutor": "executors",
    "SerialExecutor": "executors",
    "make_executor": "executors",
    "n_tasks": "partition",
    "partition_rows_by_nnz": "partition",
    "partition_tasks": "partition",
    "create_backend": "registry",
    "execute_task": "stage_graph",
}

__all__ = sorted(_EXPORTS)


def __getattr__(name: str) -> Any:
    try:
        module_name = _EXPORTS[name]
    except KeyError:
        raise AttributeError(
            f"module {__name__!r} has no attribute {name!r}"
        ) from None
    import importlib

    module = importlib.import_module(f".{module_name}", __name__)
    value = getattr(module, name)
    globals()[name] = value  # cache for subsequent lookups
    return value


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(_EXPORTS))
