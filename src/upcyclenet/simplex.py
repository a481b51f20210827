"""Dense two-phase primal simplex for the oracle's flow subproblems.

The oracle fixes the install binaries, leaving a pure LP over nonnegative
flows with mixed-sense rows.  Subproblems are small (hundreds of columns),
so this favors a plain dense tableau and robustness over sparse cleverness:

* the starting basis is the slack basis where it is feasible (Bixby,
  ORSA J. Computing 1992): a <= row with rhs >= 0 and a >= row with
  rhs <= 0, flipped so its surplus reads +1, start on their slack; only
  the other rows (== rows, >= rows with rhs > 0, <= rows with rhs < 0)
  get an artificial variable,
* phase 1 minimizes those artificials and is skipped when there are none;
  a residual above ``_PHASE1_TOL`` means infeasible,
* phase 2 runs Dantzig's most-negative-reduced-cost rule and switches to
  Bland's anti-cycling rule after ``_DEGENERATE_LIMIT`` consecutive
  degenerate pivots, and back after the next non-degenerate one,
* reduced costs are recomputed from the cost vector each iteration instead
  of carrying an objective row, trading a constant factor for immunity to
  accumulated drift,
* exceeding ``_MAX_ITERATIONS`` pivots in one solve raises; a stuck LP
  must poison the oracle run, never masquerade as infeasible.

Each row's starting-basis column (its slack or its artificial) starts as
a unit column, so after any pivot these columns hold the current B^-1:
row i's starting column is column i of B^-1, negated where row i was
flipped.

The subproblems are tiny (tens of rows), so a pivot's cost is the number
of numpy calls it makes, not its arithmetic.  Two things keep that
number down without changing a single bit of any result:

* each LP is built in one working array whose last column is the rhs,
  so its rows flip once and one rank-1 update moves matrix and rhs;
* basic columns need no mask in pricing.  A pivot turns the entering
  column into an exact unit vector (``p / p == 1.0`` and
  ``a - a * 1.0 == 0.0``) and leaves every other basic column one (its
  pivot-row entry is ``0 / p``), so a basic column's reduced cost is
  exactly 0 and it can never enter.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import SimplexIterationError

_PIVOT_TOL = 1e-10
_REDCOST_TOL = 1e-9
_DEGENERATE_STEP = 1e-12
_DEGENERATE_LIMIT = 50
_PHASE1_TOL = 1e-7
_MAX_ITERATIONS = 50_000


@dataclass
class LpResult:
    status: str  # 'optimal' | 'infeasible' | 'unbounded'
    objective: float
    x: np.ndarray | None
    iterations: int


def solve_lp(
    c: np.ndarray,
    a: np.ndarray,
    senses: list[str] | np.ndarray,
    b: np.ndarray,
) -> LpResult:
    """Minimize c @ x subject to a @ x (<=|>=|==) b, x >= 0.

    `senses` holds 'L', 'G' or 'E' per row.  Returns an optimal basic
    solution, or status infeasible/unbounded.  Raises `ValueError` on
    inconsistent dimensions, any other sense, or a NaN or infinite entry
    in `c`, `a` or `b`.
    """
    c = np.asarray(c, dtype=np.float64)
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    senses = np.asarray(senses)
    m, n = a.shape
    if senses.shape != (m,) or b.shape != (m,) or c.shape != (n,):
        raise ValueError("inconsistent LP dimensions")
    is_l = senses == "L"
    is_g = senses == "G"
    unknown = (~(is_l | is_g | (senses == "E"))).nonzero()[0]
    if unknown.size:
        raise ValueError(f"row {unknown[0]} has sense {str(senses[unknown[0]])!r}; "
                         "expected 'L', 'G' or 'E'")
    if not (np.isfinite(c).all() and np.isfinite(a).all() and np.isfinite(b).all()):
        raise ValueError("LP data must be finite: c, a or b holds a NaN or an infinity")

    slack_rows = (is_l | is_g).nonzero()[0]
    # starting basis: a <= row with rhs >= 0 and a >= row with rhs <= 0 start
    # on their slack; every other row starts on an artificial
    needs = (~((is_l & (b >= 0.0)) | (is_g & (b <= 0.0)))).nonzero()[0]
    n_ext = n + slack_rows.size
    width = n_ext + needs.size
    # structurals, slacks, artificials, then the rhs as the last column
    full = np.zeros((m, width + 1), dtype=np.float64)
    full[:, :n] = a
    # slack (+1) for <=, surplus (-1) for >=
    slack_cols = n + np.arange(slack_rows.size)
    full[slack_rows, slack_cols] = np.where(is_l[slack_rows], 1.0, -1.0)
    full[:, -1] = b

    # make rhs nonnegative; a >= row with rhs 0 flips too, so that every
    # starting slack reads +1
    full[(b < 0.0) | (is_g & (b == 0.0))] *= -1.0

    basis = np.empty(m, dtype=np.intp)
    basis[slack_rows] = slack_cols
    basis[needs] = n_ext + np.arange(needs.size)
    full[needs, basis[needs]] = 1.0
    state = _State(full, basis)

    if needs.size:
        # phase 1: drive the artificials to zero
        cost1 = np.zeros(width, dtype=np.float64)
        cost1[n_ext:] = 1.0
        status = _run(state, cost1, allowed=width)
        if status == "unbounded":
            raise AssertionError("phase-1 objective is bounded below by 0")
        # a contiguous copy: BLAS may sum a strided vector in another order
        phase1_value = float(cost1[state.basis] @ state.rhs.copy())
        if phase1_value > _PHASE1_TOL:
            return LpResult("infeasible", phase1_value, None, state.iterations)
        _evict_artificials(state, n_ext)

    # phase 2: original costs; artificials may not re-enter
    cost2 = np.zeros(width, dtype=np.float64)
    cost2[:n] = c
    status = _run(state, cost2, allowed=n_ext)
    if status == "unbounded":
        return LpResult("unbounded", float("-inf"), None, state.iterations)

    x = np.zeros(n, dtype=np.float64)
    structural = state.basis < n
    x[state.basis[structural]] = state.rhs[structural]
    return LpResult("optimal", float(c @ x), x, state.iterations)


class _State:
    """`solve_lp`'s one working array, used in place: its last column is
    the rhs, and `tableau` and `rhs` are views of it."""

    def __init__(self, full: np.ndarray, basis: np.ndarray) -> None:
        self.full = full
        self.tableau = full[:, :-1]
        self.rhs = full[:, -1]
        self.basis = basis
        self.iterations = 0
        self.degenerate_run = 0
        self.bland = False


def _run(state: _State, cost: np.ndarray, allowed: int) -> str:
    """Pivot until optimal or unbounded; columns >= `allowed` may not enter."""
    tableau, rhs, basis = state.tableau, state.rhs, state.basis
    if allowed == 0:  # no column may enter, and argmin needs one
        return "optimal"
    ratios = np.empty(len(basis), dtype=np.float64)
    while True:
        if state.iterations >= _MAX_ITERATIONS:
            raise SimplexIterationError(f"simplex exceeded {_MAX_ITERATIONS} iterations")
        reduced = (cost - cost[basis] @ tableau)[:allowed]
        if state.bland:
            below = (reduced < -_REDCOST_TOL).nonzero()[0]
            if below.size == 0:
                return "optimal"
            enter = below[0]
        else:
            # argmin takes the first of equal minima: the least index wins ties
            enter = reduced.argmin()
            if not reduced[enter] < -_REDCOST_TOL:
                return "optimal"
        col = tableau[:, enter]
        # rows with no positive entry keep an infinite ratio
        ratios.fill(np.inf)
        np.divide(rhs, col, out=ratios, where=col > _PIVOT_TOL)
        best = ratios.min(initial=np.inf)  # an LP without rows has no ratio
        if best == np.inf:
            return "unbounded"
        # leaving tie-break by least basis index; alone it does not stop Beale's LP cycling
        ties = (ratios <= best).nonzero()[0]
        leave_row = ties[0] if ties.size == 1 else ties[basis[ties].argmin()]
        _pivot(state, leave_row, enter)
        if best <= _DEGENERATE_STEP:
            state.degenerate_run += 1
            if state.degenerate_run >= _DEGENERATE_LIMIT:
                state.bland = True
        else:
            state.degenerate_run = 0
            state.bland = False
        state.iterations += 1


def _pivot(state: _State, row: int, col: int) -> None:
    full, rhs = state.full, state.rhs
    pivot_row = full[row]
    pivot_row /= pivot_row[col]
    factors = full[:, col].copy()
    factors[row] = 0.0
    full -= factors[:, None] * pivot_row
    rhs[np.abs(rhs) < 1e-11] = 0.0
    state.basis[row] = col


def _evict_artificials(state: _State, n_ext: int) -> None:
    """Pivot leftover zero-valued artificials out; rows that cannot release
    one are redundant and stay inert (their structural entries are all 0)."""
    for i in (state.basis >= n_ext).nonzero()[0]:
        row = state.tableau[i, :n_ext]
        nz = np.flatnonzero(np.abs(row) > _PIVOT_TOL)
        if nz.size:
            _pivot(state, i, int(nz[0]))
