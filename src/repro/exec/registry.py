"""The fixed dispatch tables: pipeline variant names and SVM backends.

``FCMAConfig.variant`` is the one dispatch axis.  Its names are typed
once, in :data:`VARIANTS`: config validation and the CLI's
``--variant`` choices read the tuple, and
:func:`repro.exec.stage_graph.execute_task` runs ``baseline`` (the
oracle) or, for every other name, walk ∘ score.  The SVM backend
follows from it (``baseline`` → the LibSVM-like solver, every other
variant → PhiSVM): :data:`BACKENDS` maps each name to the factory
:func:`create_backend` calls.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Callable

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..core.pipeline import FCMAConfig
    from ..svm.cross_validation import KernelBackend

__all__ = ["BACKENDS", "VARIANTS", "create_backend"]

#: Builds a (multiclass-wrapped) backend from a run's config.
BackendFactory = Callable[["FCMAConfig"], "KernelBackend"]

#: The pipeline variants: the oracle, the tiled engine (and its accepted
#: spelling ``optimized-batched``), and its CSR materialization.
VARIANTS = ("baseline", "optimized", "optimized-batched", "sparse-batched")


def _phisvm(config: "FCMAConfig") -> "KernelBackend":
    from ..svm.multiclass import as_multiclass
    from ..svm.phisvm import PhiSVM

    return as_multiclass(PhiSVM(c=config.svm_c, tol=config.svm_tol))


def _libsvm(config: "FCMAConfig") -> "KernelBackend":
    from ..svm.libsvm_like import LibSVMClassifier
    from ..svm.multiclass import as_multiclass

    return as_multiclass(LibSVMClassifier(c=config.svm_c, tol=config.svm_tol))


#: SVM backend name -> factory.
BACKENDS: dict[str, BackendFactory] = {
    "libsvm": _libsvm,
    "phisvm": _phisvm,
}


def create_backend(config: "FCMAConfig") -> "KernelBackend":
    """Instantiate the config's (variant-resolved) SVM backend."""
    return BACKENDS[config.resolved_backend()](config)
