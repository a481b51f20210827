"""Dense dual-then-primal simplex for the oracle's flow subproblems.

The oracle fixes the install binaries, leaving a pure LP over nonnegative
flows with mixed-sense rows.  Subproblems are small (hundreds of columns),
so this favors a plain dense tableau and robustness over sparse cleverness.

Every cold LP starts from the slack basis, whatever its rhs: a <= row on
its slack, a >= row, flipped so that its surplus reads +1, on its surplus,
and an == row on an artificial column held at 0.  Every starting column
costs 0, so this basis is dual feasible for the costs max(c, 0); the dual
simplex (Lemke, Naval Res. Logist. Q. 1954) at those costs makes it
primal feasible, and phase 2 then finishes at the true costs c.  This is
the cost-modification dual phase 1 (Koberstein, PhD thesis, Paderborn
2005): there is no phase-1 objective.

Every optimal solve, cold or warm, keeps its final working array in
`LpResult.warm`, read-only, and `solve_lp(..., start=that_result,
held=mask)` re-optimises the same `c`, `a` and `senses` at another rhs
with some columns held at 0.  The start's basis is optimal at c over the
columns it did not hold, so a column it held and this LP frees may price
below 0.  The same cost modification makes it dual feasible: each cost
is raised to its price at the start's basis, max(c, c_B B^-1 a), which
clips every reduced cost at exactly 0 and leaves the basic costs as they
are (the cold rule is the case c_B = 0).  Holding columns only removes
candidates.

`solve_lp` is the one entry path.  It checks the input, lays out the
columns that may not enter (the artificials, and the held ones) and the
costs padded with zeros once, then sets up the working array: cold, from
`a` and `b` at the slack basis; warm, as a copy of the start's array
whose rhs column is recomputed as B^-1 b, with B^-1 read off the
starting-basis columns as below.  `c`, `a` and `senses` are checked once:
a start keeps the ones it was solved with when all three are read-only,
and a warm LP given those very arrays, still read-only, checks only `b`
and `held`; any other array is checked in full.  Every LP then takes one
path, the dual loop (at the clipped costs) followed by phase 2:

* a held column and every artificial may not enter, and a held column
  that is basic must come back to 0 (a variable bounded by 0 above),
* each dual pivot leaves the row with the largest violation (one argmax,
  the least row on ties), a basic value below ``-_FEASIBILITY_TOL`` or a
  held one further than that from 0, and enters the column with the
  least ratio of reduced cost to pivot entry among the entries above
  ``_PIVOT_TOL`` in the direction that repairs the row, the least index
  on ties,
* a leaving row with no such entry proves the LP infeasible,
* once the basic values are feasible, held basic values are set to 0 and
  phase 2 runs Dantzig's most-negative-reduced-cost rule over the columns
  that may enter, with a held basic column blocking any step that would
  move it; it returns at once when no reduced cost is below
  ``-_REDCOST_TOL``, the usual case when c >= 0,
* both loops pivot through `_step`, which holds the rest: it raises
  before a pivot past ``_MAX_ITERATIONS`` in one solve, so only an LP
  that needs more raises (a stuck LP must poison the oracle run, never
  masquerade as infeasible); and after ``_DEGENERATE_LIMIT`` consecutive
  degenerate pivots (a primal step or a dual ratio of at most
  ``_DEGENERATE_STEP``) it switches either loop to Bland's anti-cycling
  rule, the least basis index leaving the dual and the least column index
  entering the primal, until the next non-degenerate pivot,
* reduced costs are recomputed from the cost vector each iteration instead
  of carrying an objective row, trading a constant factor for immunity to
  accumulated drift.

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
_FEASIBILITY_TOL = 1e-9
_ZERO_RHS = 1e-11
_MAX_ITERATIONS = 50_000


@dataclass(frozen=True)
class _WarmStart:
    """An optimal solve's final working array, for `solve_lp(start=...)`.
    Its arrays are read-only, so no warm LP can change the start of the
    next.  `lp` is the `c`, `a` and `senses` the solve checked, kept only
    when all three were read-only, so an LP that passes the same arrays
    again needs no second check."""

    full: np.ndarray
    basis: np.ndarray
    starts: np.ndarray  # each row's starting-basis column
    signs: np.ndarray  # -1.0 where the row was flipped, else 1.0
    lp: tuple[np.ndarray, np.ndarray, np.ndarray] | None

    def __post_init__(self) -> None:
        for arr in (self.full, self.basis, self.starts, self.signs):
            arr.flags.writeable = False


@dataclass
class LpResult:
    status: str  # 'optimal' | 'infeasible' | 'unbounded'
    objective: float  # infeasible: the largest violation left
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

    With `start`, an optimal result of `solve_lp` for the same `c`, `a`
    and `senses`, the LP is re-optimised from that basis, with x held at
    0 where the boolean mask `held` is set; `a` is not read, as the
    start's array holds B^-1 a.  When `c`, `a` and `senses` are the very
    read-only arrays the start was solved with, they were checked then
    and only `b` and `held` are checked now.  Raises `ValueError` on a
    `start` that carries no basis or does not fit, and on `held` without
    `start`.
    """
    c = np.asarray(c, dtype=np.float64)
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    senses = np.asarray(senses)
    if start is None and held is not None:
        raise ValueError("held columns need a start basis")
    if start is not None and start.warm is None:
        raise ValueError("start must be an optimal result of solve_lp")
    lp = (c, a, senses)
    m, n = a.shape
    if b.shape != (m,):
        raise ValueError("inconsistent LP dimensions")
    if start is None or not _checked(start.warm.lp, lp):
        if senses.shape != (m,) or c.shape != (n,):
            raise ValueError("inconsistent LP dimensions")
        unknown = ((senses != "L") & (senses != "G") & (senses != "E")).nonzero()[0]
        if unknown.size:
            raise ValueError(f"row {unknown[0]} has sense {str(senses[unknown[0]])!r}; "
                             "expected 'L', 'G' or 'E'")
        if not (np.isfinite(c).all() and np.isfinite(a).all()):
            raise ValueError("LP data must be finite: c, a or b holds a NaN or an infinity")
        if start is not None and start.warm.full.shape != (m, n + m + 1):
            raise ValueError("start does not fit the LP")
    if not np.isfinite(b).all():
        raise ValueError("LP data must be finite: c, a or b holds a NaN or an infinity")

    is_e = senses == "E"
    width = n + m
    n_ext = width - np.count_nonzero(is_e)  # structurals and slacks; the artificials follow
    blocked = np.zeros(width, dtype=bool)
    blocked[n_ext:] = True  # artificials
    if held is not None:
        held = np.asarray(held)
        if held.shape != (n,) or held.dtype != bool:
            raise ValueError("held must be a boolean mask over the LP's columns")
        blocked[:n] = held
    cost = np.zeros(width, dtype=np.float64)
    cost[:n] = c
    if start is None:
        is_g = senses == "G"
        # structurals, slacks, artificials, then the rhs as the last column
        full = np.zeros((m, width + 1), dtype=np.float64)
        full[:, :n] = a
        full[:, -1] = b
        full[is_g] *= -1.0  # a >= row's surplus then reads +1, like every starting column
        # the slack basis: a slack per <= or >= row, an artificial per == row
        basis = np.empty(m, dtype=np.intp)
        basis[~is_e] = np.arange(n, n_ext)
        basis[is_e] = np.arange(n_ext, width)
        full[np.arange(m), basis] = 1.0
        starts, signs = basis.copy(), np.where(is_g, -1.0, 1.0)
        # every starting column costs 0, so the basis is dual feasible for c clipped at 0
        dual_cost = np.maximum(cost, 0.0)
    else:
        starts, signs = start.warm.starts, start.warm.signs
        # rhs = B^-1 b, row i's starting column being column i of B^-1 times
        # its sign; recomputed rather than moved by B^-1 (b - b_start), which
        # would cancel a huge start rhs against a huge change
        full = start.warm.full.copy()
        full[:, -1] = full[:, starts] @ (signs * b)
        rhs = full[:, -1]
        rhs[np.abs(rhs) < _ZERO_RHS] = 0.0
        basis = start.warm.basis.copy()
        # the start's basis is optimal at c over its own held columns, so a
        # column it held may price below 0 here; raising each cost to its
        # price at the basis clips every reduced cost at exactly 0, which
        # keeps the basic costs and makes the basis dual feasible
        dual_cost = np.maximum(cost, cost[basis] @ full[:, :-1])

    state = _State(full, basis)
    if _run_dual(state, dual_cost, blocked) == "infeasible":
        return LpResult("infeasible", float(_violation(state, blocked).max()), None,
                        state.iterations)
    state.rhs[blocked[basis]] = 0.0
    if _run(state, cost, blocked) == "unbounded":
        return LpResult("unbounded", float("-inf"), None, state.iterations)
    x = np.zeros(n, dtype=np.float64)
    structural = basis < n
    x[basis[structural]] = state.rhs[structural]
    warm = _WarmStart(full, basis, starts, signs, lp if _read_only(lp) else None)
    return LpResult("optimal", float(c @ x), x, state.iterations, warm)


def _read_only(arrays: tuple[np.ndarray, ...]) -> bool:
    return not any(arr.flags.writeable for arr in arrays)


def _checked(done: tuple[np.ndarray, ...] | None, lp: tuple[np.ndarray, ...]) -> bool:
    """Whether `lp` is `done`, arrays that a solve has checked, and still
    read-only, so unchanged since."""
    return (done is not None and all(x is y for x, y in zip(done, lp))
            and _read_only(lp))


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


def _run(state: _State, cost: np.ndarray, blocked: np.ndarray) -> str:
    """Phase 2: pivot until optimal or unbounded; `blocked` columns may
    not enter, and a blocked basic column stays where it is."""
    tableau, rhs, basis = state.tableau, state.rhs, state.basis
    if blocked.all():  # no column may enter, and argmin needs one
        return "optimal"
    ratios = np.empty(len(basis), dtype=np.float64)
    while True:
        reduced = cost - cost[basis] @ tableau
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
        # a blocked basic column, at 0, may not move either way
        ratios[blocked[basis] & (col < -_PIVOT_TOL)] = 0.0
        best = ratios.min(initial=np.inf)  # an LP without rows has no ratio
        if best == np.inf:
            return "unbounded"
        # leaving tie-break by least basis index; alone it does not stop Beale's LP cycling
        ties = (ratios <= best).nonzero()[0]
        leave_row = ties[0] if ties.size == 1 else ties[basis[ties].argmin()]
        _step(state, leave_row, enter, best)


def _violation(state: _State, blocked: np.ndarray) -> np.ndarray:
    """How far each basic value lies outside its bounds: below 0, or off 0
    for a blocked column."""
    return np.where(blocked[state.basis], np.abs(state.rhs), -state.rhs)


def _run_dual(state: _State, cost: np.ndarray, blocked: np.ndarray) -> str:
    """Dual pivots until the basic values are feasible ('optimal') or a
    leaving row has no entering column ('infeasible'); `blocked` columns
    may not enter.  The basis must be dual feasible over the others."""
    tableau, rhs, basis = state.tableau, state.rhs, state.basis
    if not len(basis):  # an LP without rows is feasible, and argmax needs a row
        return "optimal"
    free = ~blocked
    ratios = np.empty(tableau.shape[1], dtype=np.float64)
    while True:
        off = _violation(state, blocked)
        # argmax takes the first of equal maxima: the least row wins ties
        leave_row = off.argmax()
        if not off[leave_row] > _FEASIBILITY_TOL:
            return "optimal"
        if state.bland:
            rows = (off > _FEASIBILITY_TOL).nonzero()[0]
            leave_row = rows[basis[rows].argmin()]
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
        _step(state, leave_row, enter, step)


def _step(state: _State, row: int, col: int, step: float) -> None:
    """Either loop's pivot, `step` being its primal step or dual ratio:
    refuse a pivot past `_MAX_ITERATIONS`, pivot under the rule chosen so
    far, then count a degenerate step toward the switch to Bland's rule,
    or end the degenerate run and, with it, Bland's rule."""
    if state.iterations >= _MAX_ITERATIONS:
        raise SimplexIterationError(f"simplex exceeded {_MAX_ITERATIONS} iterations")
    _pivot(state, row, col)
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
