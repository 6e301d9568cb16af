"""Working-set selection heuristics for SMO.

The paper's PhiSVM "adaptively chooses the faster heuristic (either first
order [Keerthi et al. 2001] or second order [Fan et al. 2005]) based on
the convergence rate on the specific training data" (Section 4.4).  This
module implements all three:

* :class:`FirstOrderSelector` — maximal violating pair (WSS 1).
* :class:`SecondOrderSelector` — second-order gain rule (WSS 2, LibSVM's
  default).
* :class:`AdaptiveSelector` — PhiSVM's runtime choice between the two.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Protocol

import numpy as np

__all__ = [
    "SelectionState",
    "WorkingSetSelector",
    "FirstOrderSelector",
    "SecondOrderSelector",
    "AdaptiveSelector",
]

_TAU = 1e-12


@dataclass
class SelectionState:
    """Live solver state a selector reads (views, never copies).

    ``kernel_row(i)`` returns kernel row ``K[i, :]``; routing row access
    through a callable lets the LibSVM-like backend serve rows from its
    LRU cache while PhiSVM serves dense-matrix views.
    """

    kernel_row: Callable[[int], np.ndarray]
    y: np.ndarray
    alpha: np.ndarray
    grad: np.ndarray
    diag: np.ndarray
    c: float
    #: Optional shrinking mask: selectors only consider active variables
    #: (LibSVM's shrinking heuristic restricts the working set this way).
    active: np.ndarray | None = None

    def masks(self) -> tuple[np.ndarray, np.ndarray]:
        """(I_up, I_low) membership masks of Keerthi et al.

        Restricted to the active set when shrinking is in effect.
        """
        pos = self.y > 0
        at_upper = self.alpha >= self.c
        at_lower = self.alpha <= 0.0
        i_up = (pos & ~at_upper) | (~pos & ~at_lower)
        i_low = (pos & ~at_lower) | (~pos & ~at_upper)
        if self.active is not None:
            i_up &= self.active
            i_low &= self.active
        return i_up, i_low


class WorkingSetSelector(Protocol):
    """Strategy interface: pick the next working pair.

    ``select`` returns ``(i, j, gap)`` where ``gap = m(a) - M(a)`` is the
    maximal KKT violation used for the stopping test.  When the problem
    is already optimal the indices may be arbitrary (gap <= tol stops the
    solver before they are used).
    """

    def select(self, state: SelectionState) -> tuple[int, int, float]: ...


def _first_order_pair(state: SelectionState) -> tuple[int, int, float, float]:
    """Maximal violating pair; returns (i, j, gmax, gap) in the solve's dtype.

    The gap is ``gmax - gmin`` in that dtype, and 0 (optimal) when either
    extreme is non-finite: an empty I_up or I_low (single class, or no
    feasible direction) or a NaN/Inf gradient — ``_smo.c``'s rule.
    """
    minus_yg = -(state.y * state.grad)
    i_up, i_low = state.masks()
    up_vals = np.where(i_up, minus_yg, -np.inf)
    low_vals = np.where(i_low, minus_yg, np.inf)
    i = int(np.argmax(up_vals))
    j = int(np.argmin(low_vals))
    gmax, gmin = up_vals[i], low_vals[j]
    if not (np.isfinite(gmax) and np.isfinite(gmin)):
        return i, j, gmax, minus_yg.dtype.type(0)
    return i, j, gmax, gmax - gmin


class FirstOrderSelector:
    """WSS 1: maximal violating pair (Keerthi et al. 2001).

    Cheapest per iteration — two masked reductions — but may need many
    more iterations than the second-order rule on ill-conditioned
    problems.
    """

    #: Relative per-iteration cost (used by AdaptiveSelector's model).
    relative_cost = 1.0

    def select(self, state: SelectionState) -> tuple[int, int, float]:
        i, j, _, gap = _first_order_pair(state)
        return i, j, gap


class SecondOrderSelector:
    """WSS 2: second-order gain rule (Fan et al. 2005; LibSVM default).

    ``i`` is the maximal violator; ``j`` maximizes the guaranteed
    objective decrease ``b^2 / a`` over eligible partners, requiring one
    kernel row per iteration.
    """

    relative_cost = 2.0

    def select(self, state: SelectionState) -> tuple[int, int, float]:
        i, j_fallback, gmax, gap = _first_order_pair(state)
        if gap <= 0.0:
            return i, j_fallback, gap
        minus_yg = -(state.y * state.grad)
        _, i_low = state.masks()
        eligible = i_low & (minus_yg < gmax)
        if not eligible.any():
            return i, j_fallback, gap
        # a_it = K_ii + K_tt - 2 K_it; b_it = gmax - (-y_t G_t) > 0.
        k_row = state.kernel_row(i)
        a = state.diag[i] + state.diag - 2.0 * k_row
        a = np.where(a <= 0.0, _TAU, a)
        b = gmax - minus_yg
        gain = np.where(eligible, (b * b) / a, -np.inf)
        j = int(np.argmax(gain))
        return i, j, gap


class AdaptiveSelector:
    """PhiSVM's adaptive heuristic choice (paper Section 4.4).

    Alternates short *probe* phases of each heuristic, measures the
    per-unit-cost convergence rate (log-decrease of the KKT gap divided
    by the heuristic's relative iteration cost), then *commits* to the
    faster one for a longer phase; re-probes periodically in case the
    problem's local geometry changes.
    """

    def __init__(
        self,
        probe_iters: int = 8,
        commit_iters: int = 64,
        first: WorkingSetSelector | None = None,
        second: WorkingSetSelector | None = None,
    ):
        if probe_iters < 2:
            raise ValueError("probe_iters must be >= 2")
        if commit_iters < 1:
            raise ValueError("commit_iters must be >= 1")
        self._probe_iters = probe_iters
        self._commit_iters = commit_iters
        self._first = first if first is not None else FirstOrderSelector()
        self._second = second if second is not None else SecondOrderSelector()
        # Phase machine: probe first -> probe second -> commit winner.
        self._phase = "probe_first"
        self._phase_left = probe_iters
        self._gap_at_phase_start: float | None = None
        self._rates: dict[str, float] = {}
        self._committed: WorkingSetSelector = self._second
        #: Count of iterations delegated to each heuristic (introspection).
        self.usage = {"first": 0, "second": 0}

    def _rate(self, gap_start: float, gap_end: float, cost: float) -> float:
        """Convergence per unit cost, in the gaps' dtype: ``log(start /
        end) / (probe * cost)`` (numpy's log), and ``inf`` when either gap
        is not positive — the rule ``_smo.c``'s ``probe_rate`` repeats."""
        if gap_start <= 0 or gap_end <= 0:
            return math.inf  # converged during the phase: infinitely good
        return np.log(gap_start / gap_end) / (self._probe_iters * cost)

    def _advance_phase(self, gap: float) -> None:
        start = self._gap_at_phase_start
        if self._phase == "probe_first":
            assert start is not None
            self._rates["first"] = self._rate(start, gap, self._first.relative_cost)
            self._phase = "probe_second"
            self._phase_left = self._probe_iters
        elif self._phase == "probe_second":
            assert start is not None
            self._rates["second"] = self._rate(start, gap, self._second.relative_cost)
            if self._rates["first"] > self._rates["second"]:
                self._committed = self._first
            else:
                self._committed = self._second
            self._phase = "commit"
            self._phase_left = self._commit_iters
        else:  # commit expired: re-probe
            self._phase = "probe_first"
            self._phase_left = self._probe_iters
        self._gap_at_phase_start = gap

    def _current(self) -> WorkingSetSelector:
        if self._phase == "probe_first":
            return self._first
        if self._phase == "probe_second":
            return self._second
        return self._committed

    @property
    def committed_heuristic(self) -> str:
        """'first' or 'second': the currently committed choice."""
        return "first" if self._committed is self._first else "second"

    def select(self, state: SelectionState) -> tuple[int, int, float]:
        if self._gap_at_phase_start is None:
            # Seed with the initial gap so the first probe has a baseline.
            _, _, _, gap0 = _first_order_pair(state)
            self._gap_at_phase_start = gap0
        selector = self._current()
        i, j, gap = selector.select(state)
        self.usage["first" if selector is self._first else "second"] += 1
        self._phase_left -= 1
        if self._phase_left <= 0:
            self._advance_phase(gap)
        return i, j, gap
