"""Sequential Minimal Optimization (SMO) for the SVM dual problem.

This is the solver both SVM backends share.  It solves the standard
C-SVC dual

    min_a  (1/2) a^T Q a - e^T a
    s.t.   0 <= a_i <= C,   y^T a = 0,        Q_ij = y_i y_j K_ij

by repeatedly picking a *working set* of two variables (the heuristics
live in :mod:`repro.svm.heuristics`) and solving the two-variable
subproblem analytically, exactly as LibSVM does (Platt's SMO with the
Keerthi et al. / Fan et al. selection rules the paper cites).

Kernels are supplied either as a dense precomputed matrix (the paper's
optimized pipeline, where an ``ssyrk``-style stage produces the linear
kernel before cross-validation) or as any object satisfying
:class:`KernelOracle` (the LibSVM-like backend computes rows on demand
through an LRU cache, as LibSVM itself does).
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Any, Callable, Protocol, TypeVar, runtime_checkable

import numpy as np

from ..obs.runtime import kernel_span
from .. import native
from .heuristics import (
    AdaptiveSelector,
    FirstOrderSelector,
    SecondOrderSelector,
    SelectionState,
    WorkingSetSelector,
)

__all__ = [
    "KernelOracle",
    "DenseKernel",
    "SMOResult",
    "solve_smo",
    "BatchSMOResult",
    "solve_smo_batch",
]

#: Lower bound used in place of a non-positive second derivative
#: (LibSVM's TAU).
_TAU = 1e-12

#: What a solve on a NaN/Inf kernel computes silently, as the native
#: body does.
_QUIET = {"invalid": "ignore", "over": "ignore", "divide": "ignore"}

_F = TypeVar("_F", bound=Callable[..., Any])


def _traced(
    name: str, metrics: Callable[[Any], dict[str, float]]
) -> Callable[[_F], _F]:
    """Record a solve as a kernel span on the ambient tracer, if any.

    The span only exists when a :class:`~repro.obs.tracer.Tracer` is
    ambient (i.e. the solve runs under an open run/task span), so
    library callers pay nothing.
    """

    def deco(fn: _F) -> _F:
        @functools.wraps(fn)
        def wrapper(*args: Any, **kwargs: Any) -> Any:
            with kernel_span(name) as span:
                result = fn(*args, **kwargs)
                if span is not None:
                    for mname, value in metrics(result).items():
                        span.add_metric(mname, value)
                return result

        return wrapper  # type: ignore[return-value]

    return deco


@runtime_checkable
class KernelOracle(Protocol):
    """Row-wise access to a (possibly virtual) kernel matrix."""

    @property
    def shape(self) -> tuple[int, int]: ...

    @property
    def dtype(self) -> np.dtype: ...

    def row(self, i: int) -> np.ndarray:
        """Kernel row ``K[i, :]`` as a 1D array."""
        ...

    def diagonal(self) -> np.ndarray:
        """Kernel diagonal ``K[i, i]`` as a 1D array."""
        ...


class DenseKernel:
    """KernelOracle over a dense in-memory matrix."""

    def __init__(self, kernel: np.ndarray):
        kernel = np.asarray(kernel)
        if kernel.ndim != 2 or kernel.shape[0] != kernel.shape[1]:
            raise ValueError(f"kernel must be square, got shape {kernel.shape}")
        if not np.issubdtype(kernel.dtype, np.floating):
            kernel = kernel.astype(np.float64)
        self._k = kernel

    @property
    def shape(self) -> tuple[int, int]:
        return self._k.shape  # type: ignore[return-value]

    @property
    def dtype(self) -> np.dtype:
        return self._k.dtype

    def row(self, i: int) -> np.ndarray:
        return self._k[i]

    def diagonal(self) -> np.ndarray:
        return np.ascontiguousarray(np.diagonal(self._k))


@dataclass(frozen=True)
class SMOResult:
    """Output of one SMO solve."""

    #: Dual coefficients, shape (n_samples,), in the kernel dtype.
    alpha: np.ndarray
    #: Offset rho; the decision function is ``K @ (alpha * y) - rho``.
    rho: float
    #: Number of working-set iterations performed.
    iterations: int
    #: Whether the duality-gap stopping criterion was met.
    converged: bool
    #: Final dual objective value (1/2 a^T Q a - e^T a).
    objective: float
    #: Per-iteration KKT violation gaps (for convergence-rate studies).
    gap_history: np.ndarray
    #: Number of shrink passes that removed at least one variable.
    shrink_events: int = 0
    #: Smallest active-set size reached (== n without shrinking).
    min_active: int = 0


@_traced("smo.solve", lambda r: {"iterations": float(r.iterations)})
def solve_smo(
    kernel: np.ndarray | KernelOracle,
    y: np.ndarray,
    c: float = 1.0,
    tol: float = 1e-3,
    max_iter: int | None = None,
    selector: WorkingSetSelector | None = None,
    shrinking: bool = False,
    alpha0: np.ndarray | None = None,
) -> SMOResult:
    """Solve the C-SVC dual.

    The iteration follows the compiled solve's rules (``svm/_smo.c``) in
    the kernel's dtype — the gap is ``gmax - gmin``, 0 when either
    extreme is non-finite; the solve stops on ``not (gap >= tol)``; the
    adaptive probe rates are numpy logs — so a float32 problem gets the
    native body's alpha, iterations and gap, and it is the numpy body of
    :func:`solve_smo_batch`.

    Parameters
    ----------
    kernel:
        Symmetric PSD kernel: a dense ``(n, n)`` array or a
        :class:`KernelOracle`.  The solve runs in the kernel's floating
        dtype (float32 for PhiSVM, float64 for the LibSVM-like backend).
    y:
        Labels in {-1, +1}, shape ``(n,)``.
    c:
        Box constraint.
    tol:
        Stop when the maximal KKT violation ``m(a) - M(a)`` drops below
        this (LibSVM's ``eps``, default 1e-3).
    max_iter:
        Iteration cap; defaults to ``max(10_000, 100 * n)`` like LibSVM.
    selector:
        Working-set heuristic; defaults to second-order (LibSVM's WSS2).
    shrinking:
        Enable LibSVM's shrinking heuristic: variables pinned at a bound
        and violating no KKT condition are periodically removed from the
        selectors' working set (LibSVM's ``-h 1``).  When the shrunk
        problem converges, optimality is re-verified on the full set and
        solving resumes if any shrunk variable still violates — so the
        returned solution is identical to the unshrunk one.  (This
        implementation keeps the full gradient up to date each
        iteration, so shrinking here models the *algorithm*; the memory
        -traffic savings it buys native LibSVM are captured by the perf
        models, not by numpy wall time.)
    alpha0:
        Optional warm start, shape ``(n,)``: the dual variables to
        resume from (e.g. a previous solve on a superset of the same
        data, padded with zeros for new samples).  Must be feasible —
        inside ``[0, C]`` and satisfying ``y @ alpha0 == 0`` — because
        SMO's two-variable steps preserve the equality constraint rather
        than restore it.  The gradient is rebuilt from the kernel rows
        of the nonzero entries, so a warm start costs ``O(nnz(alpha0)
        * n)`` up front and typically repays it in far fewer working-set
        iterations.  The converged solution is identical either way
        (same optimum, up to the stopping tolerance).
    """
    oracle: KernelOracle
    if isinstance(kernel, np.ndarray) or not isinstance(kernel, KernelOracle):
        oracle = DenseKernel(np.asarray(kernel))
    else:
        oracle = kernel
    n = oracle.shape[0]
    y = np.asarray(y)
    if y.shape != (n,):
        raise ValueError(f"y must have shape ({n},), got {y.shape}")
    if not np.isin(y, (-1, 1)).all():
        raise ValueError("labels must be -1 or +1")
    if c <= 0:
        raise ValueError("C must be positive")
    if tol <= 0:
        raise ValueError("tol must be positive")
    dtype = np.dtype(oracle.dtype)
    if max_iter is None:
        max_iter = max(10_000, 100 * n)
    if selector is None:
        selector = SecondOrderSelector()

    yf = y.astype(dtype)
    alpha = np.zeros(n, dtype=dtype)
    grad = np.full(n, -1.0, dtype=dtype)  # G = Q alpha - e at alpha = 0
    if alpha0 is not None:
        a0 = np.asarray(alpha0, dtype=dtype)
        if a0.shape != (n,):
            raise ValueError(f"alpha0 must have shape ({n},), got {a0.shape}")
        if (a0 < 0).any() or (a0 > c).any():
            raise ValueError("alpha0 must lie in [0, C]")
        residual = float(yf @ a0)
        if abs(residual) > 1e-6 * max(1.0, float(np.abs(a0).sum())):
            raise ValueError(
                "alpha0 violates the equality constraint y @ alpha == 0 "
                f"(residual {residual:g}); pad new samples with zeros "
                "instead of dropping old ones"
            )
        alpha[:] = a0
        # Rebuild G = Q alpha - e from the rows alpha touches.
        for k in np.flatnonzero(alpha):
            grad += (yf[k] * alpha[k]) * (yf * oracle.row(k).astype(dtype))
    with np.errstate(**_QUIET):
        it, converged, gaps, shrink_events, min_active = _iterate(
            oracle, yf, c, tol, max_iter, selector, shrinking, alpha, grad
        )
        # grad = Qa - e, hence 1/2 a^T Q a - e^T a = 1/2 a^T grad - 1/2 e^T a.
        objective = float(0.5 * (alpha @ grad) - 0.5 * alpha.sum())
        rho = float(_batch_calculate_rho(yf[None], grad[None], alpha[None], c)[0])
    return SMOResult(
        alpha=alpha,
        rho=rho,
        iterations=it,
        converged=converged,
        objective=objective,
        gap_history=np.asarray(gaps, dtype=np.float64),
        shrink_events=shrink_events,
        min_active=min_active,
    )


def _iterate(
    oracle: KernelOracle,
    yf: np.ndarray,
    c: float,
    tol: float,
    max_iter: int,
    selector: WorkingSetSelector,
    shrinking: bool,
    alpha: np.ndarray,
    grad: np.ndarray,
) -> tuple[int, bool, list[np.floating], int, int]:
    """The SMO iteration, in place on ``alpha`` and ``grad``, in their
    dtype: ``_smo.c``'s ``smo_solve`` operation for operation, so a
    float32 problem ends on the native body's bits.

    Returns ``(iterations, converged, gap_history, shrink_events,
    min_active)``.
    """
    n = yf.size
    diag = oracle.diagonal().astype(alpha.dtype)
    c = alpha.dtype.type(c)
    tau = alpha.dtype.type(_TAU)
    zero = alpha.dtype.type(0)
    gaps: list[np.floating] = []
    converged = False
    it = 0

    active = np.ones(n, dtype=bool)
    state = SelectionState(
        kernel_row=oracle.row,
        y=yf,
        alpha=alpha,
        grad=grad,
        diag=diag,
        c=c,
        active=active if shrinking else None,
    )
    shrink_interval = min(n, 1000)
    shrink_events = 0
    min_active = n

    def maybe_shrink() -> None:
        """LibSVM's be_shrunk rule over the current active set."""
        nonlocal shrink_events, min_active
        i_up, i_low = state.masks()
        minus_yg = -(yf * grad)
        if not i_up.any() or not i_low.any():
            return
        gmax1 = float(np.max(np.where(i_up, minus_yg, -np.inf)))
        gmax2 = float(np.max(np.where(i_low, yf * grad, -np.inf)))
        at_upper = alpha >= c
        at_lower = alpha <= 0.0
        pos = yf > 0
        # be_shrunk: bounded variables whose gradient says they will
        # stay bounded near the optimum.
        shrunk_upper = at_upper & np.where(pos, -grad > gmax1, -grad > gmax2)
        shrunk_lower = at_lower & np.where(pos, grad > gmax2, grad > gmax1)
        removable = active & (shrunk_upper | shrunk_lower)
        if removable.any():
            active[removable] = False
            shrink_events += 1
            min_active = min(min_active, int(active.sum()))

    while it < max_iter:
        i, j, gap = selector.select(state)
        if shrinking and not (gap >= tol) and not active.all():
            # Shrunk problem converged: re-verify on the full set.
            active[:] = True
            i, j, gap = selector.select(state)
        gaps.append(gap)
        if not (gap >= tol):
            converged = True
            break
        it += 1
        if shrinking and it % shrink_interval == 0:
            maybe_shrink()

        # --- two-variable analytic update --------------------------------
        # With s = y_i y_j = +-1 every product by s is an exact sign flip,
        # so LibSVM's same-sign and different-sign formulas share one
        # form: Q_ij = s K_ij gives quad = K_ii + K_jj - 2 K_ij for both,
        # and alpha_i + s alpha_j is the quantity the step conserves.
        k_i = oracle.row(i)
        k_j = oracle.row(j)
        yi, yj = yf[i], yf[j]
        ai, aj = alpha[i], alpha[j]
        s = yi * yj
        quad = (diag[i] + diag[j]) - 2.0 * k_i[j]
        if quad <= 0.0:
            quad = tau
        delta = (s * grad[i] - grad[j]) / quad
        new_ai = ai - s * delta
        new_aj = aj + delta
        held = ai + s * aj
        if s > 0:  # same sign: clip along alpha_i + alpha_j = held
            hi, lo = held > c, held <= c
            if hi and new_ai > c:
                new_ai, new_aj = c, held - c
            if lo and new_aj < 0:
                new_ai, new_aj = held, zero
            if hi and new_aj > c:
                new_ai, new_aj = held - c, c
            if lo and new_ai < 0:
                new_ai, new_aj = zero, held
        else:  # different sign: clip along alpha_i - alpha_j = held
            hi, lo = held > 0, held <= 0
            if hi and new_aj < 0:
                new_ai, new_aj = held, zero
            if lo and new_ai < 0:
                new_ai, new_aj = zero, -held
            if hi and new_ai > c:
                new_ai, new_aj = c, c - held
            if lo and new_aj > c:
                new_ai, new_aj = c + held, c
        alpha[i] = new_ai
        alpha[j] = new_aj
        step_i = new_ai - ai
        step_j = new_aj - aj
        if step_i != 0 or step_j != 0:
            # grad += Q_i step_i + Q_j step_j with Q_ab = y_a y_b K_ab;
            # the labels are exact sign flips, so they factor out.
            grad += yf * (k_i * (yi * step_i) + k_j * (yj * step_j))

    return it, converged, gaps, shrink_events, min_active if shrinking else n


# ---------------------------------------------------------------------------
# Multi-problem (voxel-batched) SMO
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class BatchSMOResult:
    """Output of one batched SMO solve over ``B`` independent problems."""

    #: Dual coefficients, shape (B, n), in the kernel dtype.
    alpha: np.ndarray
    #: Per-problem offsets; decision function b is ``K @ (a_b y_b) - rho_b``.
    rho: np.ndarray
    #: Working-set iterations each problem performed.
    iterations: np.ndarray
    #: Whether each problem met the duality-gap stopping criterion.
    converged: np.ndarray
    #: Final dual objective per problem.
    objective: np.ndarray
    #: Final KKT violation gap per problem.
    gap: np.ndarray


def _batch_calculate_rho(
    y: np.ndarray, grad: np.ndarray, alpha: np.ndarray, c: float
) -> np.ndarray:
    """LibSVM's rho per row: the mean of y*G over free SVs, else the
    midpoint of the bounds (the one rho rule of both entry points)."""
    yg = y * grad
    free = (alpha > 0.0) & (alpha < c)
    n_free = free.sum(axis=1)
    rho_free = np.where(free, yg, 0.0).sum(axis=1) / np.maximum(n_free, 1)
    upper = ((y > 0) & (alpha <= 0.0)) | ((y < 0) & (alpha >= c))
    lower = ((y > 0) & (alpha >= c)) | ((y < 0) & (alpha <= 0.0))
    ub = np.where(upper, yg, np.inf).min(axis=1)
    lb = np.where(lower, yg, -np.inf).max(axis=1)
    # inf + -inf in unselected lanes: the callers run under _QUIET.
    rho_bound = np.where(
        np.isfinite(ub) & np.isfinite(lb),
        (ub + lb) / 2.0,
        np.where(np.isfinite(ub), ub, np.where(np.isfinite(lb), lb, 0.0)),
    )
    return np.asarray(np.where(n_free > 0, rho_free, rho_bound), dtype=np.float64)


def _batch_metrics(r: BatchSMOResult) -> dict[str, float]:
    """Span metrics of one batched solve (see :mod:`repro.obs.metrics`)."""
    problems = float(r.alpha.shape[0])
    return {
        "iterations": float(r.iterations.sum()),
        "voxels": problems,
        "problems": problems,
    }


#: ``selection`` names of :func:`solve_smo_batch` and their selectors.
_SELECTORS = {
    "first": FirstOrderSelector,
    "second": SecondOrderSelector,
    "adaptive": AdaptiveSelector,
}


def _check_batch(
    kernels: np.ndarray,
    y: np.ndarray,
    c: float,
    tol: float,
    max_iter: int | None,
    selection: str,
) -> tuple[np.ndarray, np.ndarray, float, float, int, str]:
    """Validate a batch; returns it with ``y`` as a ``(P, n)`` row per
    problem in the kernels' dtype and ``max_iter`` resolved."""
    kernels = np.asarray(kernels)
    if kernels.ndim != 3 or kernels.shape[1] != kernels.shape[2]:
        raise ValueError(
            f"kernels must be (problems, n, n), got {kernels.shape}"
        )
    if selection not in _SELECTORS:
        raise ValueError(f"unknown selection {selection!r}")
    if not np.issubdtype(kernels.dtype, np.floating):
        kernels = kernels.astype(np.float64)
    p, n = kernels.shape[0], kernels.shape[1]
    y = np.asarray(y)
    if y.shape == (n,):
        y = np.broadcast_to(y, (p, n))
    elif y.shape != (p, n):
        raise ValueError(f"y must have shape ({n},) or ({p}, {n}), got {y.shape}")
    if not np.isin(y, (-1, 1)).all():
        raise ValueError("labels must be -1 or +1")
    if c <= 0:
        raise ValueError("C must be positive")
    if tol <= 0:
        raise ValueError("tol must be positive")
    if max_iter is None:
        max_iter = max(10_000, 100 * n)
    y_all = np.ascontiguousarray(y, dtype=kernels.dtype)
    return kernels, y_all, c, tol, max_iter, selection


def _batch_result(
    alpha: np.ndarray,
    grad: np.ndarray,
    iterations: np.ndarray,
    gap: np.ndarray,
    converged: np.ndarray,
    y_all: np.ndarray,
    c: float,
) -> BatchSMOResult:
    """Assemble the result from each problem's final state."""
    with np.errstate(**_QUIET):  # NaN/Inf stacks
        objective = (
            0.5 * (alpha * grad).sum(axis=1) - 0.5 * alpha.sum(axis=1)
        ).astype(np.float64)
        rho = _batch_calculate_rho(y_all, grad, alpha, float(c))
    return BatchSMOResult(
        alpha=alpha,
        rho=rho,
        iterations=iterations,
        converged=converged,
        objective=objective,
        gap=gap,
    )


def _solve_numpy(
    kernels: np.ndarray,
    y_all: np.ndarray,
    c: float,
    tol: float,
    max_iter: int,
    selection: str,
) -> BatchSMOResult:
    """The numpy body: each problem through :func:`solve_smo`'s
    iteration with the matching selector, one after another."""
    p, n = y_all.shape
    alpha = np.zeros((p, n), dtype=kernels.dtype)
    grad = np.full_like(alpha, -1.0)  # G = Q alpha - e at alpha = 0
    iterations = np.zeros(p, dtype=np.int64)
    gap = np.zeros(p, dtype=np.float64)
    converged = np.zeros(p, dtype=bool)
    with np.errstate(**_QUIET):
        for q in range(p):
            iterations[q], converged[q], gaps, _, _ = _iterate(
                DenseKernel(kernels[q]), y_all[q], c, tol, max_iter,
                _SELECTORS[selection](), False, alpha[q], grad[q],
            )
            gap[q] = gaps[-1] if gaps else 0.0
    return _batch_result(alpha, grad, iterations, gap, converged, y_all, c)


def _solve_smo_batch_numpy(
    kernels: np.ndarray,
    y: np.ndarray,
    c: float = 1.0,
    tol: float = 1e-3,
    max_iter: int | None = None,
    selection: str = "adaptive",
) -> BatchSMOResult:
    """:func:`solve_smo_batch` through its numpy body, always: the
    fallback, and the bitwise oracle of the native body."""
    return _solve_numpy(*_check_batch(kernels, y, c, tol, max_iter, selection))


def _float32_threshold(tol: float) -> float:
    """The float32 ``t`` with ``g >= t`` exactly when the numpy body's
    ``gap >= tol`` holds for a float32 gap ``g``.

    numpy compares a Python float in float32 (``t = float32(tol)``) and
    a float64 scalar in float64 (``t`` is then ``tol`` rounded up).
    """
    with np.errstate(over="ignore"):
        t = np.float32(tol)
        if not (np.array([t]) >= tol)[0]:
            t = np.nextafter(t, np.float32(np.inf))
    return float(t)


#: ``_smo.c``'s ``LANES`` and ``SCRATCH_ROWS``: the vector block its
#: scans pad each row to, and the rows each thread needs.
_SMO_LANES = 16
_SMO_SCRATCH_ROWS = 10


def _solve_native(
    lib: Any,
    kernels: np.ndarray,
    y_all: np.ndarray,
    c: float,
    tol: float,
    max_iter: int,
    selection: str,
) -> BatchSMOResult:
    """The native body: one ``smo_solve_batch`` call (ctypes releases the
    GIL for it), which deals the problems to ``thread_budget()`` threads
    of its own."""
    # Imported here: repro.core imports repro.svm.
    from ..core.engine import thread_budget

    p, n = y_all.shape
    kernels = np.ascontiguousarray(kernels)
    alpha = np.empty((p, n), dtype=np.float32)
    grad = np.empty_like(alpha)
    iterations = np.empty(p, dtype=np.int64)
    gap = np.empty(p, dtype=np.float32)
    converged = np.empty(p, dtype=bool)
    threads = max(1, min(thread_budget(), p))
    # Each thread's scratch rows, allocated here so that no C thread
    # calls malloc: _smo.c's SCRATCH_ROWS rows of n rounded up to its
    # LANES floats, plus LANES floats to reach a 64-byte boundary.
    padded = -(-n // _SMO_LANES) * _SMO_LANES
    scratch = np.empty(
        threads * _SMO_SCRATCH_ROWS * padded + _SMO_LANES, dtype=np.float32
    )
    ran = lib.smo_solve_batch(
        p, n, kernels.ctypes.data, y_all.ctypes.data,
        float(np.float32(c)), _float32_threshold(tol),
        math.ceil(min(max_iter, 2**62)), native.SELECTIONS[selection],
        alpha.ctypes.data, grad.ctypes.data, iterations.ctypes.data,
        gap.ctypes.data, converged.ctypes.data, scratch.ctypes.data,
        scratch.size, threads,
    )
    if ran < 1:
        raise RuntimeError("smo_solve_batch was given too little scratch")
    return _batch_result(
        alpha, grad, iterations, gap.astype(np.float64), converged, y_all, c
    )


def solve_smo_batch(
    kernels: np.ndarray,
    y: np.ndarray,
    c: float = 1.0,
    tol: float = 1e-3,
    max_iter: int | None = None,
    selection: str = "adaptive",
) -> BatchSMOResult:
    """Solve ``P`` independent C-SVC duals.

    The paper's PhiSVM keeps 240+ voxel problems resident on the
    coprocessor and gives each to one thread running compiled code
    (§4.4); here a float32 stack does the same: the compiled
    ``smo_solve_batch`` (:mod:`repro.native`, built on first use)
    deals the problems to :func:`~repro.core.engine.thread_budget`
    threads, each solving one problem at a time, with the GIL released.
    Any other dtype, or a process where the library could not be built
    or loaded, runs the numpy body instead: each problem through
    :func:`solve_smo`'s iteration, one after another — the fallback
    exists for correctness, not speed.  Both bodies give every field
    bitwise the same value; the ``smo.solve_batch`` span's ``body``
    attribute says which ran (``"native"`` or ``"numpy"``).  In FCMA
    stage 3 the batch axis is voxels × cross-validation folds.

    Parameters
    ----------
    kernels:
        Stacked symmetric PSD kernels, shape ``(P, n, n)``.  The solve
        runs in the stack's floating dtype (float32 for PhiSVM).
    y:
        Labels in {-1, +1}: shape ``(n,)`` (shared by all problems) or
        ``(P, n)`` (one row per problem — the fold-stacked
        cross-validation case, where every fold trains on other epochs).
    c, tol, max_iter:
        As in :func:`solve_smo`; ``max_iter`` caps each problem's
        iterations.
    selection:
        ``"adaptive"`` (default, mirrors PhiSVM's
        :class:`~repro.svm.heuristics.AdaptiveSelector` per problem),
        ``"second"`` (WSS 2 throughout) or ``"first"`` (WSS 1).

    A problem solved in a batch follows the same iterate trajectory as
    :func:`solve_smo` on it alone with the matching selector, whatever
    else shares the batch: alpha, iterations, converged, the last gap
    and rho are bitwise that solve's.
    """
    args = _check_batch(kernels, y, c, tol, max_iter, selection)
    stack = args[0]
    # Empty problems (n = 0) keep the numpy body's error.
    lib = native.solver() if stack.dtype == np.float32 and stack.shape[1] else None
    body = "numpy" if lib is None else "native"
    with kernel_span("smo.solve_batch", {"body": body}) as span:
        result = _solve_numpy(*args) if lib is None else _solve_native(lib, *args)
        if span is not None:
            for name, value in _batch_metrics(result).items():
                span.add_metric(name, value)
        return result
