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

An optimal cold solve keeps its final working array in `LpResult.warm`,
and `solve_lp(..., start=that_result, held=mask)` re-optimises the same
`c`, `a` and `senses` at another rhs with some columns held at 0, by the
dual simplex (Lemke, Naval Res. Logist. Q. 1954) from that basis:

* the rhs column is recomputed as B^-1 b, with B^-1 read off the
  starting-basis columns as below; the basis keeps its reduced costs, so
  it stays dual feasible, and holding columns only removes candidates,
* a held column and every artificial may not enter, and a held column
  that is basic must come back to 0 (a variable bounded by 0 above),
* each pivot leaves the row with the largest violation, a basic value
  below ``-_FEASIBILITY_TOL`` or a held one further than that from 0, and
  enters the column with the least ratio of reduced cost to pivot entry
  among the entries above ``_PIVOT_TOL`` in the direction that repairs
  the row, the least index on ties,
* a leaving row with no such entry proves the LP infeasible,
* after ``_DEGENERATE_LIMIT`` consecutive pivots whose ratio is at most
  ``_DEGENERATE_STEP``, the least basis index among the violated rows
  leaves instead (Bland's rule for the dual), until the next
  non-degenerate pivot,
* once the basic values are feasible, held basic values are set to 0 and
  the cold path's phase 2 runs over the columns that may enter, with a
  held basic column blocking any step that would move it; it returns at
  once when no reduced cost is below ``-_REDCOST_TOL``, which is the usual
  case,
* ``_MAX_ITERATIONS`` counts the warm pivots and raises as above.

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

from dataclasses import dataclass, field

import numpy as np

from .errors import SimplexIterationError

_PIVOT_TOL = 1e-10
_REDCOST_TOL = 1e-9
_DEGENERATE_STEP = 1e-12
_DEGENERATE_LIMIT = 50
_PHASE1_TOL = 1e-7
_FEASIBILITY_TOL = 1e-9
_ZERO_RHS = 1e-11
_MAX_ITERATIONS = 50_000


@dataclass(frozen=True)
class _WarmStart:
    """An optimal cold solve's final working array, for `solve_lp(start=...)`."""

    full: np.ndarray
    basis: np.ndarray
    starts: np.ndarray  # each row's starting-basis column
    signs: np.ndarray  # -1.0 where the row was flipped, else 1.0
    n: int  # structurals
    n_ext: int  # structurals and slacks; the artificials follow


@dataclass
class LpResult:
    status: str  # 'optimal' | 'infeasible' | 'unbounded'
    objective: float  # infeasible: the phase-1 residual, or warm the largest violation left
    x: np.ndarray | None
    iterations: int
    warm: _WarmStart | None = field(default=None, repr=False, compare=False)


@np.errstate(over="raise", divide="raise", invalid="raise")
def solve_lp(
    c: np.ndarray,
    a: np.ndarray,
    senses: list[str] | np.ndarray,
    b: np.ndarray,
    start: LpResult | None = None,
    held: np.ndarray | None = None,
) -> LpResult:
    """Minimize c @ x subject to a @ x (<=|>=|==) b, x >= 0.

    `senses` holds 'L', 'G' or 'E' per row.  Returns an optimal basic
    solution, or status infeasible/unbounded.  Raises `ValueError` on
    inconsistent dimensions, any other sense, or a NaN or infinite entry
    in `c`, `a` or `b`, and `FloatingPointError` when a pivot, a ratio or
    the objective leaves the float range.

    With `start`, the optimal result of a cold solve of the same `c`, `a`
    and `senses`, the LP is re-optimised from that basis by the dual
    simplex, with x held at 0 where the boolean mask `held` is set; `a`
    is then checked but not read, as the start's array holds B^-1 a.  Raises `ValueError` on a `start`
    that carries no basis or does not fit, and on `held` without `start`.
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
    if start is not None:
        return _solve_warm(c, b, start, held)
    if held is not None:
        raise ValueError("held columns need a start basis")

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
    starts = basis.copy()
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
    flipped = (b < 0.0) | (is_g & (b == 0.0))
    warm = _WarmStart(state.full, state.basis, starts, np.where(flipped, -1.0, 1.0), n, n_ext)
    return _optimal(state, c, warm)


def _optimal(state: _State, c: np.ndarray, warm: _WarmStart | None = None) -> LpResult:
    x = np.zeros(c.size, dtype=np.float64)
    structural = state.basis < c.size
    x[state.basis[structural]] = state.rhs[structural]
    return LpResult("optimal", float(c @ x), x, state.iterations, warm)


def _solve_warm(c: np.ndarray, b: np.ndarray, start: LpResult,
                held: np.ndarray | None) -> LpResult:
    """`solve_lp` from `start`'s optimal basis, as the module docstring says."""
    warm = start.warm
    if warm is None:
        raise ValueError("start must be the optimal result of a cold solve_lp")
    n = c.size
    m, width = warm.full.shape[0], warm.full.shape[1] - 1
    if b.shape != (m,) or n != warm.n:
        raise ValueError("start does not fit the LP")
    blocked = np.zeros(width, dtype=bool)
    blocked[warm.n_ext:] = True  # artificials
    if held is not None:
        held = np.asarray(held)
        if held.shape != (n,) or held.dtype != bool:
            raise ValueError("held must be a boolean mask over the LP's columns")
        blocked[:n] = held
    # rhs = B^-1 b, row i's starting column being column i of B^-1 times
    # its sign; recomputed rather than moved by B^-1 (b - b_start), which
    # would cancel a huge start rhs against a huge change
    full = warm.full.copy()
    full[:, -1] = full[:, warm.starts] @ (warm.signs * b)
    rhs = full[:, -1]
    rhs[np.abs(rhs) < _ZERO_RHS] = 0.0
    state = _State(full, warm.basis.copy())
    cost = np.zeros(width, dtype=np.float64)
    cost[:n] = c
    if _run_dual(state, cost, blocked) == "infeasible":
        return LpResult("infeasible", float(_violation(state, blocked).max()), None,
                        state.iterations)
    state.rhs[blocked[state.basis]] = 0.0
    if _run(state, cost, width, blocked) == "unbounded":
        return LpResult("unbounded", float("-inf"), None, state.iterations)
    return _optimal(state, c)


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


def _run(state: _State, cost: np.ndarray, allowed: int,
         blocked: np.ndarray | None = None) -> str:
    """Pivot until optimal or unbounded; columns >= `allowed` may not enter,
    nor those `blocked` marks, and a blocked basic column stays where it is."""
    tableau, rhs, basis = state.tableau, state.rhs, state.basis
    if allowed == 0:  # no column may enter, and argmin needs one
        return "optimal"
    ratios = np.empty(len(basis), dtype=np.float64)
    while True:
        if state.iterations >= _MAX_ITERATIONS:
            raise SimplexIterationError(f"simplex exceeded {_MAX_ITERATIONS} iterations")
        reduced = (cost - cost[basis] @ tableau)[:allowed]
        if blocked is not None:
            reduced[blocked] = np.inf
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
        if blocked is not None:  # a blocked basic column, at 0, may not move either way
            ratios[blocked[basis] & (col < -_PIVOT_TOL)] = 0.0
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


def _violation(state: _State, blocked: np.ndarray) -> np.ndarray:
    """How far each basic value lies outside its bounds: below 0, or off 0
    for a blocked column."""
    return np.where(blocked[state.basis], np.abs(state.rhs), -state.rhs)


def _run_dual(state: _State, cost: np.ndarray, blocked: np.ndarray) -> str:
    """Dual pivots until the basic values are feasible ('optimal') or a
    leaving row has no entering column ('infeasible'); `blocked` columns
    may not enter.  The basis must be dual feasible over the others."""
    tableau, rhs, basis = state.tableau, state.rhs, state.basis
    free = ~blocked
    ratios = np.empty(tableau.shape[1], dtype=np.float64)
    while True:
        if state.iterations >= _MAX_ITERATIONS:
            raise SimplexIterationError(f"simplex exceeded {_MAX_ITERATIONS} iterations")
        off = _violation(state, blocked)
        rows = (off > _FEASIBILITY_TOL).nonzero()[0]
        if rows.size == 0:
            return "optimal"
        if state.bland:
            leave_row = rows[basis[rows].argmin()]
        else:
            # argmax takes the first of equal maxima: the least row wins ties
            leave_row = rows[off[rows].argmax()]
        # the leaving value moves toward its bound as a column with a
        # positive `toward` entry rises from 0
        toward = tableau[leave_row] if rhs[leave_row] > 0.0 else -tableau[leave_row]
        reduced = cost - cost[basis] @ tableau
        ratios.fill(np.inf)
        np.divide(reduced, toward, out=ratios, where=free & (toward > _PIVOT_TOL))
        enter = ratios.argmin()  # the least index wins ties
        step = ratios[enter]
        if step == np.inf:
            return "infeasible"
        _pivot(state, leave_row, enter)
        if step <= _DEGENERATE_STEP:
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
    rhs[np.abs(rhs) < _ZERO_RHS] = 0.0
    state.basis[row] = col


def _evict_artificials(state: _State, n_ext: int) -> None:
    """Pivot leftover zero-valued artificials out; rows that cannot release
    one are redundant and stay inert (their structural entries are all 0)."""
    for i in (state.basis >= n_ext).nonzero()[0]:
        row = state.tableau[i, :n_ext]
        nz = np.flatnonzero(np.abs(row) > _PIVOT_TOL)
        if nz.size:
            _pivot(state, i, int(nz[0]))
