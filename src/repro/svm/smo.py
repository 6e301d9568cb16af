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
from .heuristics import SelectionState, WorkingSetSelector, SecondOrderSelector

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


def _calculate_rho(
    y: np.ndarray, grad: np.ndarray, alpha: np.ndarray, c: float
) -> float:
    """LibSVM's rho: mean of y*G over free SVs, else midpoint of bounds."""
    yg = y * grad
    free = (alpha > 0.0) & (alpha < c)
    if free.any():
        return float(yg[free].mean())
    upper = ((y > 0) & (alpha <= 0.0)) | ((y < 0) & (alpha >= c))
    lower = ((y > 0) & (alpha >= c)) | ((y < 0) & (alpha <= 0.0))
    ub = float(yg[upper].min()) if upper.any() else np.inf
    lb = float(yg[lower].max()) if lower.any() else -np.inf
    if not np.isfinite(ub) and not np.isfinite(lb):
        return 0.0
    if not np.isfinite(ub):
        return lb
    if not np.isfinite(lb):
        return ub
    return (ub + lb) / 2.0


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
    diag = oracle.diagonal().astype(dtype)
    cval = float(c)
    gaps: list[float] = []
    converged = False
    it = 0

    active = np.ones(n, dtype=bool)
    state = SelectionState(
        kernel_row=oracle.row,
        y=yf,
        alpha=alpha,
        grad=grad,
        diag=diag,
        c=cval,
        active=active if shrinking else None,
    )
    shrink_interval = min(n, 1000)
    shrink_events = 0
    min_active = n

    def maybe_shrink() -> None:
        """LibSVM''s be_shrunk rule over the current active set."""
        nonlocal shrink_events, min_active
        i_up, i_low = state.masks()
        minus_yg = -(yf * grad)
        if not i_up.any() or not i_low.any():
            return
        gmax1 = float(np.max(np.where(i_up, minus_yg, -np.inf)))
        gmax2 = float(np.max(np.where(i_low, yf * grad, -np.inf)))
        at_upper = alpha >= cval
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
        if shrinking and gap < tol and not active.all():
            # Shrunk problem converged: re-verify on the full set.
            active[:] = True
            i, j, gap = selector.select(state)
        gaps.append(gap)
        if gap < tol:
            converged = True
            break
        it += 1
        if shrinking and it % shrink_interval == 0:
            maybe_shrink()

        # Q rows needed for the update (Q_ab = y_a y_b K_ab).
        q_i = yf[i] * (yf * oracle.row(i))
        q_j = yf[j] * (yf * oracle.row(j))
        old_ai = float(alpha[i])
        old_aj = float(alpha[j])

        if yf[i] != yf[j]:
            quad = float(diag[i] + diag[j] + 2.0 * q_i[j])
            if quad <= 0:
                quad = _TAU
            delta = (-grad[i] - grad[j]) / quad
            diff = alpha[i] - alpha[j]
            alpha[i] += delta
            alpha[j] += delta
            if diff > 0:
                if alpha[j] < 0:
                    alpha[j] = 0
                    alpha[i] = diff
            else:
                if alpha[i] < 0:
                    alpha[i] = 0
                    alpha[j] = -diff
            if diff > 0:
                if alpha[i] > cval:
                    alpha[i] = cval
                    alpha[j] = cval - diff
            else:
                if alpha[j] > cval:
                    alpha[j] = cval
                    alpha[i] = cval + diff
        else:
            quad = float(diag[i] + diag[j] - 2.0 * q_i[j])
            if quad <= 0:
                quad = _TAU
            delta = (grad[i] - grad[j]) / quad
            total = alpha[i] + alpha[j]
            alpha[i] -= delta
            alpha[j] += delta
            if total > cval:
                if alpha[i] > cval:
                    alpha[i] = cval
                    alpha[j] = total - cval
            else:
                if alpha[j] < 0:
                    alpha[j] = 0
                    alpha[i] = total
            if total > cval:
                if alpha[j] > cval:
                    alpha[j] = cval
                    alpha[i] = total - cval
            else:
                if alpha[i] < 0:
                    alpha[i] = 0
                    alpha[j] = total

        d_ai = alpha[i] - old_ai
        d_aj = alpha[j] - old_aj
        if d_ai != 0.0 or d_aj != 0.0:
            grad += q_i * d_ai + q_j * d_aj

    # grad = Qa - e, hence 1/2 a^T Q a - e^T a = 1/2 a^T grad - 1/2 e^T a.
    objective = float(0.5 * (alpha @ grad) - 0.5 * alpha.sum())

    rho = _calculate_rho(yf, grad, alpha, cval)
    return SMOResult(
        alpha=alpha,
        rho=rho,
        iterations=it,
        converged=converged,
        objective=objective,
        gap_history=np.asarray(gaps, dtype=np.float64),
        shrink_events=shrink_events,
        min_active=min_active if shrinking else n,
    )


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
    #: Working-set iterations each problem performed before freezing.
    iterations: np.ndarray
    #: Whether each problem met the duality-gap stopping criterion.
    converged: np.ndarray
    #: Final dual objective per problem.
    objective: np.ndarray
    #: Final KKT violation gap per problem.
    gap: np.ndarray
    #: Batch sweeps executed (== max(iterations) unless capped).
    sweeps: int


def _batch_calculate_rho(
    y: np.ndarray, grad: np.ndarray, alpha: np.ndarray, c: float
) -> np.ndarray:
    """Vectorized :func:`_calculate_rho` over the batch axis."""
    yg = y * grad
    free = (alpha > 0.0) & (alpha < c)
    n_free = free.sum(axis=1)
    with np.errstate(invalid="ignore", divide="ignore"):
        rho_free = np.where(free, yg, 0.0).sum(axis=1) / np.maximum(n_free, 1)
    upper = ((y > 0) & (alpha <= 0.0)) | ((y < 0) & (alpha >= c))
    lower = ((y > 0) & (alpha >= c)) | ((y < 0) & (alpha <= 0.0))
    ub = np.where(upper, yg, np.inf).min(axis=1)
    lb = np.where(lower, yg, -np.inf).max(axis=1)
    with np.errstate(invalid="ignore"):  # inf + -inf in unselected lanes
        rho_bound = np.where(
            np.isfinite(ub) & np.isfinite(lb),
            (ub + lb) / 2.0,
            np.where(np.isfinite(ub), ub, np.where(np.isfinite(lb), lb, 0.0)),
        )
    return np.asarray(np.where(n_free > 0, rho_free, rho_bound), dtype=np.float64)


class _BatchAdaptivePhases:
    """Vectorized mirror of :class:`~repro.svm.heuristics.AdaptiveSelector`.

    All live problems advance one SMO iteration per batch sweep, so the
    probe/commit *timing* (probe first-order, probe second-order, commit
    the winner, re-probe) is shared scalar state, while the measured
    convergence rates — and therefore the committed heuristic — are
    per-problem arrays over the solver's *resident* rows.
    """

    def __init__(self, n_problems: int, probe_iters: int = 8, commit_iters: int = 64):
        self._probe = probe_iters
        self._commit = commit_iters
        self._phase = "probe_first"
        self._phase_left = probe_iters
        self._gap_start: np.ndarray | None = None
        self._rate_first = np.zeros(n_problems)
        #: Committed choice per problem; second-order initially (the
        #: sequential selector's default commitment).
        self.use_second = np.ones(n_problems, dtype=bool)

    def current_use_second(self) -> np.ndarray:
        if self._phase == "probe_first":
            return np.zeros_like(self.use_second)
        if self._phase == "probe_second":
            return np.ones_like(self.use_second)
        return self.use_second

    def compact(self, keep: np.ndarray) -> None:
        """Drop retired problems: keep only resident rows ``keep``."""
        assert self._gap_start is not None
        self._gap_start = self._gap_start[keep]
        self._rate_first = self._rate_first[keep]
        self.use_second = self.use_second[keep]

    def _rates(self, gap_end: np.ndarray, cost: float) -> np.ndarray:
        """Convergence per unit cost of the phase just ended, in float32:
        ``log(start / gap_end) / (probe * cost)`` (``np.log`` of the
        float32 ratio, then a float32 division), and ``inf`` where either
        gap is not positive — the rule ``_smo.c``'s ``probe_rate``
        repeats, with numpy's float32 log.
        """
        assert self._gap_start is not None
        start = self._gap_start
        with np.errstate(divide="ignore", invalid="ignore"):
            rate = np.log(start / gap_end) / (self._probe * cost)
        return np.where((start <= 0) | (gap_end <= 0), np.inf, rate)

    def step(self, gap: np.ndarray) -> None:
        """Advance one iteration; ``gap`` is this sweep's KKT violation."""
        if self._gap_start is None:
            self._gap_start = gap.copy()
        self._phase_left -= 1
        if self._phase_left > 0:
            return
        if self._phase == "probe_first":
            self._rate_first = self._rates(gap, cost=1.0)
            self._phase, self._phase_left = "probe_second", self._probe
        elif self._phase == "probe_second":
            rate_second = self._rates(gap, cost=2.0)
            # Mirrors the sequential rule: first order wins only on a
            # strictly greater per-cost rate.
            self.use_second = ~(self._rate_first > rate_second)
            self._phase, self._phase_left = "commit", self._commit
        else:
            self._phase, self._phase_left = "probe_first", self._probe
        self._gap_start = gap.copy()


def _batch_metrics(r: BatchSMOResult) -> dict[str, float]:
    """Span metrics of one lockstep solve (see :mod:`repro.obs.metrics`)."""
    problems, total = r.alpha.shape[0], float(r.iterations.sum())
    return {
        "iterations": total,
        "voxels": float(problems),
        "problems": float(problems),
        "sweeps": float(r.sweeps),
        "occupancy": total / max(1, r.sweeps * problems),
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
    if selection not in ("adaptive", "second", "first"):
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
    sweeps: int,
    y_all: np.ndarray,
    c: float,
) -> BatchSMOResult:
    """Assemble the result from each problem's final state."""
    objective = (
        0.5 * (alpha * grad).sum(axis=1) - 0.5 * alpha.sum(axis=1)
    ).astype(np.float64)
    return BatchSMOResult(
        alpha=alpha,
        rho=_batch_calculate_rho(y_all, grad, alpha, float(c)),
        iterations=iterations,
        converged=converged,
        objective=objective,
        gap=gap,
        sweeps=sweeps,
    )


def _lockstep(
    kernels: np.ndarray,
    y_all: np.ndarray,
    c: float,
    tol: float,
    max_iter: int,
    selection: str,
) -> BatchSMOResult:
    """The numpy body: every problem advances one iteration per sweep.

    Every SMO ingredient — working-set selection, the two-variable
    analytic update, gradient maintenance — is one vectorized operation
    across all resident problems, so the interpreter cost of an
    iteration is paid once per *sweep* instead of once per problem.
    Problems whose KKT gap drops below ``tol`` freeze (their variables
    stop moving); once at most half of the resident rows are still live
    the frozen ones are *retired* — their state is written to the result
    and the per-problem arrays are compacted to the live rows, so a few
    stragglers do not drag a full-width sweep behind them.  The kernel
    stack is never compacted: resident row ``r`` reads
    ``kernels[slot[r]]``.
    """
    dtype = kernels.dtype
    p, n = y_all.shape
    cval = dtype.type(c)
    tau = dtype.type(_TAU)

    # One row per problem, written when the problem retires (or at the end).
    out_alpha = np.empty((p, n), dtype=dtype)
    out_grad = np.empty((p, n), dtype=dtype)
    out_iterations = np.empty(p, dtype=np.int64)
    out_gap = np.empty(p, dtype=np.float64)
    converged = np.empty(p, dtype=bool)

    # Resident state: row r is problem slot[r].
    slot = np.arange(p)
    rows = slot
    yf = y_all
    pos = yf > 0
    neg = ~pos
    alpha = np.zeros((p, n), dtype=dtype)
    grad = np.full((p, n), -1.0, dtype=dtype)  # G = Q alpha - e at alpha = 0
    diag = np.ascontiguousarray(
        np.diagonal(kernels, axis1=1, axis2=2), dtype=dtype
    )
    iterations = np.zeros(p, dtype=np.int64)
    live = np.ones(p, dtype=bool)
    gap = np.zeros(p, dtype=dtype)
    n_live = p
    adaptive = _BatchAdaptivePhases(p) if selection == "adaptive" else None
    sweeps = 0

    def write_back() -> None:
        out_alpha[slot] = alpha
        out_grad[slot] = grad
        out_iterations[slot] = iterations
        out_gap[slot] = gap  # a frozen row recomputes the gap it froze at
        converged[slot] = ~live

    with np.errstate(invalid="ignore", over="ignore", divide="ignore"):
        while sweeps < max_iter:
            if 0 < 2 * n_live <= live.size:
                # --- retire the frozen rows -----------------------------
                write_back()
                keep = np.flatnonzero(live)
                slot, iterations = slot[keep], iterations[keep]
                yf, pos, neg = yf[keep], pos[keep], neg[keep]
                alpha, grad, diag = alpha[keep], grad[keep], diag[keep]
                if adaptive is not None:
                    adaptive.compact(keep)
                rows = np.arange(n_live)
                live = np.ones(n_live, dtype=bool)

            # --- working-set selection (all resident problems at once) ----
            minus_yg = -(yf * grad)
            at_upper = alpha >= cval
            at_lower = alpha <= 0.0
            # Complements of Keerthi's I_up / I_low (pos | neg is all).
            not_up = (pos & at_upper) | (neg & at_lower)
            not_low = (pos & at_lower) | (neg & at_upper)
            up_vals = np.where(not_up, -np.inf, minus_yg)
            low_vals = np.where(not_low, np.inf, minus_yg)
            i = np.argmax(up_vals, axis=1)
            j_first = np.argmin(low_vals, axis=1)
            gmax = up_vals[rows, i]
            gmin = low_vals[rows, j_first]
            # Degenerate problems (empty I_up or I_low) are optimal,
            # matching the sequential selector's (0, 0, 0.0) return.
            gap = np.where(np.isfinite(gmax) & np.isfinite(gmin), gmax - gmin, 0.0)
            if adaptive is not None:
                use_second = adaptive.current_use_second()
                adaptive.step(gap)
            else:
                use_second = selection == "second"

            live &= gap >= tol
            n_live = np.count_nonzero(live)
            if n_live == 0:
                break
            sweeps += 1
            iterations += live

            # Kernel rows K[p, i_p, :] / K[p, j_p, :]: needed for the
            # second-order gain and for the gradient update.
            k_i = kernels[slot, i]
            di = diag[rows, i]
            if np.any(use_second):
                a_coef = di[:, None] + diag - 2.0 * k_i
                a_coef[a_coef <= 0.0] = tau
                b_coef = gmax[:, None] - minus_yg
                # low_vals is +inf outside I_low, so this is I_low & (. < gmax).
                eligible = low_vals < gmax[:, None]
                gain = np.where(eligible, (b_coef * b_coef) / a_coef, -np.inf)
                j_second = np.where(
                    eligible.any(axis=1), np.argmax(gain, axis=1), j_first
                )
                j = np.where(use_second, j_second, j_first)
            else:
                j = j_first
            k_j = kernels[slot, j]

            # --- two-variable analytic update (vectorized) ----------------
            # With s = y_i y_j = +-1 every product by s is an exact sign
            # flip, so LibSVM's same-sign and different-sign formulas
            # share one rounding-identical form: Q_ij = s K_ij gives
            # quad = K_ii + K_jj - 2 K_ij for both, and alpha_i + s alpha_j
            # is the quantity the step conserves.
            yi = yf[rows, i]
            yj = yf[rows, j]
            gi = grad[rows, i]
            gj = grad[rows, j]
            ai = alpha[rows, i]
            aj = alpha[rows, j]
            s = yi * yj
            same = s > 0
            quad = (di + diag[rows, j]) - 2.0 * k_i[rows, j]
            quad = np.where(quad <= 0.0, tau, quad)
            delta = (s * gi - gj) / quad
            new_ai = ai - s * delta
            new_aj = aj + delta
            held = ai + s * aj

            # Different-sign branch: clip along alpha_i - alpha_j = held.
            hi = held > 0
            lo = held <= 0
            clip = hi & (new_aj < 0)
            d_aj = np.where(clip, 0.0, new_aj)
            d_ai = np.where(clip, held, new_ai)
            clip = lo & (d_ai < 0)
            d_ai = np.where(clip, 0.0, d_ai)
            d_aj = np.where(clip, -held, d_aj)
            clip = hi & (d_ai > cval)
            d_ai = np.where(clip, cval, d_ai)
            d_aj = np.where(clip, cval - held, d_aj)
            clip = lo & (d_aj > cval)
            d_aj = np.where(clip, cval, d_aj)
            d_ai = np.where(clip, cval + held, d_ai)

            # Same-sign branch: clip along alpha_i + alpha_j = held.
            hi = held > cval
            lo = held <= cval
            clip = hi & (new_ai > cval)
            s_ai = np.where(clip, cval, new_ai)
            s_aj = np.where(clip, held - cval, new_aj)
            clip = lo & (s_aj < 0)
            s_aj = np.where(clip, 0.0, s_aj)
            s_ai = np.where(clip, held, s_ai)
            clip = hi & (s_aj > cval)
            s_aj = np.where(clip, cval, s_aj)
            s_ai = np.where(clip, held - cval, s_ai)
            clip = lo & (s_ai < 0)
            s_ai = np.where(clip, 0.0, s_ai)
            s_aj = np.where(clip, held, s_aj)

            # Frozen rows keep their values.  Assign (not +=): the
            # sequential solver stores the clipped values directly, and
            # `a + (new - a)` can differ by an ulp.
            new_ai = np.where(live, np.where(same, s_ai, d_ai), ai)
            new_aj = np.where(live, np.where(same, s_aj, d_aj), aj)
            alpha[rows, i] = new_ai
            alpha[rows, j] = new_aj
            step_i = new_ai - ai
            step_j = new_aj - aj
            # Only live rows whose pair moved touch their gradient, so a
            # row's state never depends on its neighbours (a zero step
            # times an Inf kernel entry would be NaN).
            moved = live & ((step_i != 0.0) | (step_j != 0.0))
            if moved.any():
                # grad += Q_i step_i + Q_j step_j with Q_ab = y_a y_b K_ab;
                # the labels are exact sign flips, so they factor out of
                # the rounded products without changing them.
                grad += np.where(
                    moved[:, None],
                    yf * (k_i * (yi * step_i)[:, None]
                          + k_j * (yj * step_j)[:, None]),
                    0.0,
                )

    write_back()
    return _batch_result(
        out_alpha, out_grad, out_iterations, out_gap, converged, sweeps, y_all, c
    )


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
    return _lockstep(*_check_batch(kernels, y, c, tol, max_iter, selection))


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
    lib.smo_solve_batch(
        p, n, kernels.ctypes.data, y_all.ctypes.data,
        float(np.float32(c)), _float32_threshold(tol),
        math.ceil(min(max_iter, 2**62)), native.SELECTIONS[selection],
        alpha.ctypes.data, grad.ctypes.data, iterations.ctypes.data,
        gap.ctypes.data, converged.ctypes.data, thread_budget(),
    )
    return _batch_result(
        alpha, grad, iterations, gap.astype(np.float64), converged,
        int(iterations.max(initial=0)), y_all, c,
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
    or loaded, runs the numpy body instead: all problems advance in
    lockstep, one vectorized sweep per iteration, and converged ones
    retire from the sweep.  Both bodies give every field bitwise the
    same value; the ``smo.solve_batch`` span's ``body`` attribute says
    which ran (``"native"`` or ``"numpy"``).  In FCMA stage 3 the batch
    axis is voxels × cross-validation folds.

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
        iterations, and ``sweeps`` is the largest count.
    selection:
        ``"adaptive"`` (default, mirrors PhiSVM's
        :class:`~repro.svm.heuristics.AdaptiveSelector` per problem),
        ``"second"`` (WSS 2 throughout) or ``"first"`` (WSS 1).

    A problem solved in a batch follows the same iterate trajectory as
    :func:`solve_smo` on it alone with the matching selector: selection
    argmax/argmin tie-breaks, the update arithmetic, and the float32
    rounding are identical, whatever else shares the batch.  One rule
    differs: the adaptive heuristic measures its probe rates in float32
    here (:meth:`_BatchAdaptivePhases._rates`) and in float64
    ``math.log`` there, so on a near-tie of the two rates the committed
    heuristic — and from then on the trajectory — can differ.
    """
    args = _check_batch(kernels, y, c, tol, max_iter, selection)
    stack = args[0]
    # Empty problems (n = 0) keep the numpy body's error.
    lib = native.solver() if stack.dtype == np.float32 and stack.shape[1] else None
    body = "numpy" if lib is None else "native"
    with kernel_span("smo.solve_batch", {"body": body}) as span:
        result = _lockstep(*args) if lib is None else _solve_native(lib, *args)
        if span is not None:
            for name, value in _batch_metrics(result).items():
                span.add_metric(name, value)
        return result
