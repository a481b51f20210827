"""Dense two-phase primal simplex for the oracle's flow subproblems.

The oracle fixes the install binaries, leaving a pure LP over nonnegative
flows with mixed-sense rows.  Subproblems are small (hundreds of columns),
so this favors a plain dense tableau and robustness over sparse cleverness:

* phase 1 minimizes artificial variables on every row; a residual above
  ``_PHASE1_TOL`` means infeasible,
* phase 2 runs Dantzig's most-negative-reduced-cost rule and switches to
  Bland's anti-cycling rule after ``_DEGENERATE_LIMIT`` consecutive
  degenerate pivots,
* reduced costs are recomputed from the cost vector each iteration instead
  of carrying an objective row, trading a constant factor for immunity to
  accumulated drift,
* exceeding ``max_iterations`` raises; a stuck LP must poison the oracle
  run, never masquerade as infeasible.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import SimplexIterationError

_PIVOT_TOL = 1e-10
_REDCOST_TOL = 1e-9
_DEGENERATE_STEP = 1e-12
_DEGENERATE_LIMIT = 1_000
_PHASE1_TOL = 1e-7


@dataclass
class LpResult:
    status: str  # 'optimal' | 'infeasible' | 'unbounded'
    objective: float
    x: np.ndarray | None
    iterations: int


def solve_lp(
    c: np.ndarray,
    a: np.ndarray,
    senses: list[str],
    b: np.ndarray,
    max_iterations: int = 50_000,
) -> LpResult:
    """Minimize c @ x subject to a @ x (<=|>=|==) b, x >= 0.

    `senses` holds 'L', 'G' or 'E' per row.  Returns an optimal basic
    solution, or status infeasible/unbounded.
    """
    c = np.asarray(c, dtype=np.float64)
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    m, n = a.shape
    if len(senses) != m or b.shape != (m,) or c.shape != (n,):
        raise ValueError("inconsistent LP dimensions")

    # slack (+1) for <=, surplus (-1) for >=
    slack_rows = [i for i, s in enumerate(senses) if s in ("L", "G")]
    n_slack = len(slack_rows)
    ext = np.zeros((m, n + n_slack), dtype=np.float64)
    ext[:, :n] = a
    for k, i in enumerate(slack_rows):
        ext[i, n + k] = 1.0 if senses[i] == "L" else -1.0
    rhs = b.copy()

    # make rhs nonnegative so the artificial basis is feasible
    neg = rhs < 0.0
    ext[neg] *= -1.0
    rhs[neg] *= -1.0

    n_ext = n + n_slack
    tableau = np.hstack([ext, np.eye(m)])
    basis = np.arange(n_ext, n_ext + m, dtype=np.intp)

    state = _State(tableau, rhs, basis, max_iterations)

    # phase 1: drive the artificials to zero
    cost1 = np.zeros(n_ext + m, dtype=np.float64)
    cost1[n_ext:] = 1.0
    status = _run(state, cost1, allowed=n_ext + m)
    if status == "unbounded":
        raise AssertionError("phase-1 objective is bounded below by 0")
    phase1_value = float(cost1[state.basis] @ state.rhs)
    if phase1_value > _PHASE1_TOL:
        return LpResult("infeasible", phase1_value, None, state.iterations)
    _evict_artificials(state, n_ext)

    # phase 2: original costs; artificials may not re-enter
    cost2 = np.zeros(n_ext + m, dtype=np.float64)
    cost2[:n] = c
    status = _run(state, cost2, allowed=n_ext)
    if status == "unbounded":
        return LpResult("unbounded", float("-inf"), None, state.iterations)

    x = np.zeros(n, dtype=np.float64)
    for i, bi in enumerate(state.basis):
        if bi < n:
            x[bi] = state.rhs[i]
    return LpResult("optimal", float(c @ x), x, state.iterations)


class _State:
    def __init__(self, tableau: np.ndarray, rhs: np.ndarray, basis: np.ndarray,
                 max_iterations: int) -> None:
        self.tableau = tableau
        self.rhs = rhs
        self.basis = basis
        self.in_basis = np.zeros(tableau.shape[1], dtype=bool)
        self.in_basis[basis] = True
        self.max_iterations = max_iterations
        self.iterations = 0
        self.degenerate_run = 0
        self.bland = False


def _run(state: _State, cost: np.ndarray, allowed: int) -> str:
    """Pivot until optimal or unbounded; columns >= `allowed` may not enter."""
    tableau, rhs = state.tableau, state.rhs
    while True:
        if state.iterations >= state.max_iterations:
            raise SimplexIterationError(
                f"simplex exceeded {state.max_iterations} iterations"
            )
        reduced = cost - cost[state.basis] @ tableau
        candidates = np.flatnonzero(
            (reduced[:allowed] < -_REDCOST_TOL) & ~state.in_basis[:allowed])
        if candidates.size == 0:
            return "optimal"
        if state.bland:
            enter = candidates[0]
        else:
            # argmin takes the first of equal minima: the least index wins ties
            enter = candidates[np.argmin(reduced[candidates])]
        col = tableau[:, enter]
        eligible = np.flatnonzero(col > _PIVOT_TOL)
        if eligible.size == 0:
            return "unbounded"
        ratios = rhs[eligible] / col[eligible]
        best = ratios.min()
        # leaving tie-break by least basis index resists cycling on its own
        ties = eligible[ratios <= best]
        leave_row = ties[np.argmin(state.basis[ties])]
        _pivot(state, leave_row, enter)
        if best <= _DEGENERATE_STEP:
            state.degenerate_run += 1
            if state.degenerate_run >= _DEGENERATE_LIMIT:
                state.bland = True
        else:
            state.degenerate_run = 0
        state.iterations += 1


def _pivot(state: _State, row: int, col: int) -> None:
    tableau, rhs = state.tableau, state.rhs
    pivot = tableau[row, col]
    tableau[row] /= pivot
    rhs[row] /= pivot
    factors = tableau[:, col].copy()
    factors[row] = 0.0
    tableau -= factors[:, None] * tableau[row]
    rhs -= factors * rhs[row]
    rhs[np.abs(rhs) < 1e-11] = 0.0
    state.in_basis[state.basis[row]] = False
    state.in_basis[col] = True
    state.basis[row] = col


def _evict_artificials(state: _State, n_ext: int) -> None:
    """Pivot leftover zero-valued artificials out; rows that cannot release
    one are redundant and stay inert (their structural entries are all 0)."""
    for i in range(len(state.basis)):
        if state.basis[i] < n_ext:
            continue
        row = state.tableau[i, :n_ext]
        nz = np.flatnonzero(np.abs(row) > _PIVOT_TOL)
        if nz.size:
            _pivot(state, i, int(nz[0]))
