"""Model interchange and solution handling.

Three jobs live here:

* turning a model into text, the only module that does: free-format MPS
  (`write_mps`, the bit-exact interchange artifact) and the listing for
  human eyes (`dump_model`), both gathered from byte tables in batches
  (`_gather`), which `upcyclenet build` and `run_external_solver` stream,
* parsing and verifying solution files in a neutral ``name value`` line
  format,
* driving an external MPS-capable solver as a subprocess through a command
  template.

Solution file format (UTF-8, one item per line, ``#`` starts a comment):

    =obj= 540.0          optional reported objective
    =status= optimal     optional declared status (optimal, feasible,
                         infeasible, unbounded, unknown)
    =bound= 523.1        optional best proven bound (enables gap reporting)
    xsrccf_t1_w_s1_f1_c1 10.0
    bcf_f1_c1 1

Unlisted columns default to 0.  Unknown names, duplicate assignments and
unparsable or non-finite numbers are hard errors: a silently misread
solution is worse than no solution.  ``=status=`` and ``=bound=`` are
extensions of the plain ``name value`` contract; adapters for common
solvers live in ``docs/solver_adapters.md``.
"""

from __future__ import annotations

import math
import shlex
import subprocess
import tempfile
import time
from collections.abc import Iterator
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

from .errors import NamingError, SolutionError, SolverRunError
from .model import ROW_FAMILIES, Model, RowBlock, SizeProjection, first_duplicate, project_sizes

SOLUTION_STATUSES = ("optimal", "feasible", "infeasible", "unbounded", "unknown")


@dataclass
class Solution:
    """A (claimed) assignment of the model's columns, from any producer."""

    values: dict[str, float]
    objective_reported: float
    status: str = "unknown"
    source: str = "external"  # 'oracle' | 'external'
    bound: float | None = None
    gap: float | None = None
    diagnostics: str = ""

    def value(self, name: str) -> float:
        return self.values.get(name, 0.0)


def compute_gap(objective: float, bound: float) -> float | None:
    """Relative optimality gap (objective - bound) / objective; None at 0/0."""
    if objective != 0.0:
        return (objective - bound) / objective
    return 0.0 if bound == 0.0 else None


# ---------------------------------------------------------------------------
# text: the MPS file and the listing


def _fmt(x: float) -> str:
    """Shortest exact decimal for a float; keeps files byte-deterministic."""
    return repr(float(x))


_MPS_CHUNK = 1 << 16  # records (COLUMNS lines, listing entries) assembled per batch


def _value_ids(values: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(distinct values, int32 index of each value among them) of a float64
    array, told apart by their bits: -0.0 and 0.0 get two indices.

    Each run of equal neighbours is sorted once, by its first value: the
    coefficients come in runs (a row's +1 entries, a flow's per-ton cost over
    its sizes), so at the default shape 1.8M values make 60k runs.  One argsort
    of those, a mark where the sorted values change and its cumulative sum
    scattered back give each run's index, repeated over the run.
    """
    bits = values.view(np.int64)
    starts = np.flatnonzero(_changes(bits))
    heads = bits[starts]
    order = np.argsort(heads, kind="stable")
    ordered = heads[order]
    new = _changes(ordered)
    ids = np.empty(len(ordered), dtype=np.int32)
    ids[order] = np.cumsum(new, dtype=np.int32) - 1
    return ordered[new].view(np.float64), np.repeat(ids, np.diff(starts, append=len(values)))


def _changes(values: np.ndarray) -> np.ndarray:
    """True where a value differs from the one before it, and at the first."""
    new = np.empty(len(values), dtype=bool)
    new[:1] = True
    np.not_equal(values[1:], values[:-1], out=new[1:])
    return new


def _mps_batches(names: np.ndarray, block: RowBlock, objective: np.ndarray,
                 n_continuous: int) -> Iterator[bytes | np.ndarray]:
    """The MPS text of a matrix, encoded as UTF-8, in consecutive batches,
    each `bytes` or a 1-D uint8 array: the sections before COLUMNS, each
    batch of up to `_MPS_CHUNK` COLUMNS lines, each marker line and the
    sections after COLUMNS.  `names` is the NUL-padded column name table,
    and the columns from `n_continuous` on are the binaries.  Row names
    are checked before the first batch is made.  `write_mps` passes the
    model's parts, `run_external_solver` those of its projection."""
    n_columns = len(objective)
    duplicate = first_duplicate(block.names)
    if duplicate is not None:
        raise NamingError(f"row name collision after sanitization: '{duplicate}'")
    head = ["NAME UPCYCLENET", "ROWS", " N COST"]
    head += [f" {sense} {row}" for sense, row in zip(block.sense.tolist(), block.names)]
    head.append("COLUMNS\n")
    yield "\n".join(head).encode()

    n_rows = block.n_rows
    row_of = np.repeat(np.arange(n_rows, dtype=np.int32), np.diff(block.indptr))
    keep = block.data != 0.0
    obj_cols = np.flatnonzero(objective != 0.0).astype(np.int32)
    entries_per_col = np.bincount(block.indices[keep], minlength=n_columns)
    entries_per_col[obj_cols] += 1
    empty_cols = np.flatnonzero(entries_per_col == 0).astype(np.int32)
    values, value_ids = _value_ids(np.concatenate((objective[obj_cols], block.data[keep])))
    # entry k: column, row (n_rows is COST) and value (len(values) is the
    # `0` of empty columns)
    cols = np.concatenate((obj_cols, empty_cols, block.indices[keep].astype(np.int32)))
    rows = np.concatenate((np.full(len(obj_cols) + len(empty_cols), n_rows, dtype=np.int32),
                           row_of[keep]))
    texts = np.concatenate((value_ids[:len(obj_cols)],
                            np.full(len(empty_cols), len(values), dtype=np.int32),
                            value_ids[len(obj_cols):]))
    del row_of, keep, obj_cols, entries_per_col, empty_cols, value_ids
    order = np.argsort(cols, kind="stable")
    ids = (np.broadcast_to(np.int32(0), cols.shape), cols[order], rows[order], texts[order])
    del cols, rows, texts, order
    # a line is a space, then its column's, row's and value's tokens
    tables = [_tokens([" "]), _records(names),
              _tokens([f" {row} " for row in block.names] + [" COST "]),
              _tokens([f"{_fmt(v)}\n" for v in values.tolist()] + ["0\n"])]
    split = int(np.searchsorted(ids[1], n_continuous))
    yield from _gather(tables, [field[:split] for field in ids], _MPS_CHUNK)
    if n_columns > n_continuous:
        yield b" MARKER 'MARKER' 'INTORG'\n"
        yield from _gather(tables, [field[split:] for field in ids], _MPS_CHUNK)
        yield b" MARKER 'MARKER' 'INTEND'\n"
    del ids, tables
    tail = ["RHS"]
    tail += [f" RHS {row} {_fmt(b)}" for row, b in zip(block.names, block.rhs.tolist()) if b != 0.0]
    tail.append("BOUNDS\n")
    yield "\n".join(tail).encode()
    # the install rows of the name table, each between ` BV BND ` and a newline
    bounds = np.zeros((n_columns - n_continuous, 8 + names.shape[1] + 1), dtype=np.uint8)
    bounds[:, :8] = np.frombuffer(b" BV BND ", dtype=np.uint8)
    bounds[:, 8:-1] = names[n_continuous:]
    bounds[:, -1] = ord("\n")
    yield bounds[bounds != 0]
    yield b"ENDATA\n"


def _gather(tables: list[np.ndarray], ids: list[np.ndarray], chunk: int) -> Iterator[np.ndarray]:
    """Records encoded in batches of up to `chunk`: field k of record e is
    token `ids[k][e]` of the `_records` table `tables[k]`.  A batch is one
    `np.take` per field into one buffer, less every NUL (no token holds one)."""
    n_records, record = len(ids[0]), [(f"f{k}", table.dtype) for k, table in enumerate(tables)]
    # no more records than there are: every page is written here, where a field
    # of one token (MPS's leading space) is written once
    buffer = np.full(max(1, min(chunk, n_records)), np.array(tuple(t[0] for t in tables), record))
    for start in range(0, n_records, len(buffer)):
        n = min(start + len(buffer), n_records) - start
        for k, (table, field_ids) in enumerate(zip(tables, ids)):
            if len(table) > 1:  # ids are in range; "raise" would take into a temporary
                np.take(table, field_ids[start:start + n], out=buffer[f"f{k}"][:n], mode="clip")
        text = buffer[:n].view(np.uint8)
        yield text[text != 0]


def _tokens(texts: list[str]) -> np.ndarray:
    """`_records` of `texts` in UTF-8; none holds a NUL (a `repr` escapes one)."""
    return _records(np.array([t.encode() for t in texts], dtype=np.bytes_))


def _records(table: np.ndarray) -> np.ndarray:
    """A NUL-padded `S` array or 2-D uint8 table as one void item per row."""
    rows = table.view(np.uint8).reshape(len(table), -1)
    return rows.view(f"V{rows.shape[1]}").reshape(len(table))


def write_mps(model: Model) -> str:
    """Free-format MPS text for the model.

    Sections NAME, ROWS, COLUMNS, RHS, BOUNDS, ENDATA; binaries sit inside a
    single INTORG/INTEND marker block and get BV bound lines.  Output is a
    pure function of the model, byte for byte.

    COLUMNS walks a stable column-sorted permutation of the CSR entries
    with the objective in front, so each column lists COST first and then
    its rows in emission order; a column with no entry at all is written
    as `COST 0` so that readers still see it.

    COLUMNS is made by `_gather` from a space, `VariableIndex.name_table`,
    every ` row ` (plus ` COST `) and every distinct coefficient's `repr`
    plus a newline (plus `0` for empty columns); BV lines from the table.
    """
    return _decode(_model_batches(model))


def _decode(batches: Iterator[bytes | np.ndarray]) -> str:
    """The batches appended to one buffer as they come and decoded once."""
    text = bytearray()
    for batch in batches:
        # a memoryview: `bytearray += array` would be numpy's elementwise add
        text += memoryview(batch)
    return str(text, "utf-8")


def _model_batches(model: Model) -> Iterator[bytes | np.ndarray]:
    """`write_mps(model)` encoded, in `_mps_batches`' batches; column names
    are checked here, row names before the first batch."""
    return _mps_batches(model.index.name_table(), model.constraints, model.objective,
                        model.index.n_continuous)


def _projection_batches(model: Model, projection: SizeProjection) -> Iterator[bytes | np.ndarray]:
    """The MPS of `projection`, a projection of `model`, in `_mps_batches`'
    batches; each column is named after the model column it stands for."""
    return _mps_batches(model.index.name_table()[projection.columns], projection.constraints,
                        projection.objective, projection.n_continuous)


def dump_model(model: Model) -> str:
    """Human-auditable listing: two header lines, the objective's nonzero
    `name:coefficient` pairs, then one line per row in emission order,
    `name [family(key)] sense rhs :: name:coefficient ...` over every entry
    of the row, zeros included; made by `_gather` like COLUMNS."""
    return _decode(_dump_batches(model))


def _dump_batches(model: Model) -> Iterator[bytes | np.ndarray]:
    """`dump_model(model)` encoded; column names are checked before the first batch."""
    index, block = model.index, model.constraints
    names = index.name_table()
    obj_cols = np.flatnonzero(model.objective != 0.0)
    values, value_ids = _value_ids(np.concatenate((model.objective[obj_cols], block.data)))
    # line 0 is the objective, line r + 1 row r; a record is the line's start
    # (on its first entry) or a space, a name and a `:value`, or the start alone
    counts = np.concatenate(([len(obj_cols)], np.diff(block.indptr)))
    slots = np.maximum(counts, 1)
    first = np.cumsum(slots) - slots
    at = np.repeat(first - np.cumsum(counts) + counts, counts) + np.arange(len(value_ids))
    ids = [np.full(slots.sum(), k, dtype=np.int32) for k in (len(counts), len(names), len(values))]
    ids[0][first] = np.arange(len(counts))
    ids[1][at] = np.concatenate((obj_cols, block.indices))
    ids[2][at] = value_ids
    sense = {"L": "<=", "G": ">=", "E": "=="}
    families = np.repeat(ROW_FAMILIES, np.diff(block.family_offsets)).tolist()
    starts = [f"\n{name} [{family}{key!r}] {sense[s]} {rhs!r} :: " for name, family, key, s, rhs
              in zip(block.names, families, block.keys, block.sense.tolist(), block.rhs.tolist())]
    tables = [_tokens(["objective "] + starts + [" "]),
              _records(np.concatenate((names, np.zeros((1, names.shape[1]), dtype=np.uint8)))),
              _tokens([f":{_fmt(v)}" for v in values.tolist()] + [""])]
    del names, starts, obj_cols, value_ids, at
    yield (f"model fingerprint={model.fingerprint} prune={'on' if model.prune else 'off'} "
           f"install_cost_mode=annualized_times_horizon\ncolumns={model.n_columns} "
           f"continuous={index.n_continuous} binary={index.n_binary} rows={block.n_rows}\n").encode()
    yield from _gather(tables, ids, _MPS_CHUNK)
    yield b"\n"


def _write_batches(batches: Iterator[bytes | np.ndarray], path: Path) -> None:
    head = next(batches)  # names are checked before the file exists
    with open(path, "wb") as f:
        f.write(head)
        f.writelines(batches)


# ---------------------------------------------------------------------------
# solution parsing and formatting


def parse_solution(text: str, model: Model) -> Solution:
    """Parse a neutral solution file against the model's column names.

    Values, `=obj=` and `=bound=` must be finite numbers.
    """
    return _parse_solution(text, model)[0]


def _parse_solution(text: str, model: Model) -> tuple[Solution, bool]:
    """`parse_solution`'s result, and whether the file declared `=status=`."""
    values: dict[str, float] = {}
    declared_obj: float | None = None
    declared_status: str | None = None
    declared_bound: float | None = None

    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        tokens = line.split()
        if len(tokens) != 2:
            raise SolutionError(f"line {lineno}: expected 'name value', got {raw!r}")
        key, val = tokens

        def number(what: str) -> float:
            try:
                x = float(val)
            except ValueError:
                raise SolutionError(f"line {lineno}: unparsable {what} {val!r}") from None
            if not math.isfinite(x):
                raise SolutionError(f"line {lineno}: non-finite {what} {val!r}")
            return x

        if key == "=obj=":
            if declared_obj is not None:
                raise SolutionError(f"line {lineno}: duplicate =obj= directive")
            declared_obj = number("objective")
        elif key == "=bound=":
            if declared_bound is not None:
                raise SolutionError(f"line {lineno}: duplicate =bound= directive")
            declared_bound = number("bound")
        elif key == "=status=":
            if declared_status is not None:
                raise SolutionError(f"line {lineno}: duplicate =status= directive")
            if val not in SOLUTION_STATUSES:
                raise SolutionError(f"line {lineno}: unknown status {val!r}")
            declared_status = val
        elif key.startswith("="):
            raise SolutionError(f"line {lineno}: unknown directive {key!r}")
        else:
            if model.index.column(key) is None:
                raise SolutionError(f"line {lineno}: unknown column name {key!r}")
            if key in values:
                raise SolutionError(f"line {lineno}: duplicate assignment to {key!r}")
            values[key] = number("value")

    if declared_status is not None:
        status = declared_status
    elif values or declared_obj is not None:
        status = "feasible"
    else:
        status = "unknown"

    objective = declared_obj if declared_obj is not None else recompute_objective(values, model)
    gap = compute_gap(objective, declared_bound) if declared_bound is not None else None
    sol = Solution(values=values, objective_reported=objective, status=status,
                   bound=declared_bound, gap=gap)
    return sol, declared_status is not None


def format_solution(sol: Solution) -> str:
    """Inverse of parse_solution for the fields the format carries."""
    lines = [f"=obj= {_fmt(sol.objective_reported)}", f"=status= {sol.status}"]
    if sol.bound is not None:
        lines.append(f"=bound= {_fmt(sol.bound)}")
    for name, v in sol.values.items():
        if v != 0.0:
            lines.append(f"{name} {_fmt(v)}")
    return "\n".join(lines) + "\n"


def solution_vector(sol: Solution, model: Model) -> np.ndarray:
    """Dense column-ordered value vector; unknown names are a hard error."""
    cols = np.fromiter((_column(model, name) for name in sol.values), dtype=np.int64,
                       count=len(sol.values))
    x = np.zeros(model.n_columns, dtype=np.float64)
    x[cols] = np.fromiter(sol.values.values(), dtype=np.float64, count=len(sol.values))
    return x


def _column(model: Model, name: str) -> int:
    col = model.index.column(name)
    if col is None:
        raise SolutionError(f"solution names column {name!r} not in model")
    return col


def recompute_objective(values: dict[str, float], model: Model) -> float:
    objective = model.objective
    total = 0.0
    for name, v in values.items():
        total += float(objective[_column(model, name)]) * v
    return total


# ---------------------------------------------------------------------------
# verification


@dataclass
class VerificationReport:
    """Row-by-row recheck of a solution against every constraint family."""

    passed: bool
    tol: float
    violations_by_family: dict[str, int]
    worst_violation: float
    worst_row: str | None
    integrality_violations: int
    worst_integrality: float
    negative_value_violations: int
    objective_recomputed: float
    messages: list[str] = field(default_factory=list)

    def summary(self) -> str:
        verdict = "PASS" if self.passed else "FAIL"
        fams = ", ".join(f"{k}={v}" for k, v in self.violations_by_family.items() if v)
        lines = [
            f"verification {verdict} (tol {self.tol:g})",
            f"  worst row violation {self.worst_violation:.3e}"
            + (f" at {self.worst_row}" if self.worst_row else ""),
            f"  integrality violations {self.integrality_violations}"
            f" (worst {self.worst_integrality:.3e})",
            f"  negative flow values {self.negative_value_violations}",
            f"  objective recomputed {self.objective_recomputed!r}",
        ]
        if fams:
            lines.insert(1, f"  violations by family: {fams}")
        lines.extend("  " + m for m in self.messages)
        return "\n".join(lines)


INTEGRALITY_TOL = 1e-6


def _row_violations(block: RowBlock, activity: np.ndarray) -> np.ndarray:
    """How far each row's activity lies outside its sense; 0 where it is met."""
    return np.where(block.sense == "E", np.abs(activity - block.rhs),
                    np.maximum(0.0, np.where(block.sense == "L", activity - block.rhs,
                                             block.rhs - activity)))


def verify_solution(sol: Solution, model: Model, tol: float = 1e-6) -> VerificationReport:
    """Recheck every row, sign bound and binary against the raw model data.

    PASS means all row activities land within `tol` (absolute) of their
    sense, every binary is within 1e-6 of 0 or 1, no flow is below -tol and
    every value is finite.  A row whose activity is not finite counts as
    infinitely violated.  The first row in emission order wins a tie for
    the worst violation.  The report never raises on violations; it
    carries them.  A `tol` that is not finite or is below 0 raises
    `ValueError`.
    """
    if not (math.isfinite(tol) and tol >= 0.0):
        raise ValueError(f"tol must be finite and >= 0, got {tol}")
    x = solution_vector(sol, model)
    block = model.constraints
    activity = block.activities(x)
    violation = _row_violations(block, activity)
    violation[~np.isfinite(activity)] = np.inf
    over = violation > tol
    violations = {fam: int(np.count_nonzero(over[block.family_slice(fam)])) for fam in ROW_FAMILIES}
    worst = 0.0
    worst_row: str | None = None
    if block.n_rows:
        k = int(np.argmax(violation))
        if violation[k] > 0.0:
            worst, worst_row = float(violation[k]), block.names[k]
    binaries = x[model.index.n_continuous:]
    distance = np.minimum(np.abs(binaries), np.abs(binaries - 1.0))
    distance[np.isnan(distance)] = np.inf
    n_int = int(np.count_nonzero(distance > INTEGRALITY_TOL))
    worst_int = float(distance.max()) if len(distance) else 0.0
    neg = int(np.sum(x[: model.index.n_continuous] < -tol))
    messages = []
    nonfinite = np.flatnonzero(~np.isfinite(x))
    if len(nonfinite):
        messages.append(f"{len(nonfinite)} non-finite solution values, first at "
                        f"{model.index.column_name(int(nonfinite[0]))}")
    recomputed = float(model.objective @ x)
    if sol.objective_reported != 0.0 or recomputed != 0.0:
        denom = max(1.0, abs(recomputed))
        if abs(recomputed - sol.objective_reported) > 1e-6 * denom:
            messages.append(
                f"reported objective {sol.objective_reported!r} differs from "
                f"recomputed {recomputed!r}"
            )
    passed = worst <= tol and n_int == 0 and neg == 0 and len(nonfinite) == 0
    return VerificationReport(
        passed=passed,
        tol=tol,
        violations_by_family=violations,
        worst_violation=worst,
        worst_row=worst_row,
        integrality_violations=n_int,
        worst_integrality=worst_int,
        negative_value_violations=neg,
        objective_recomputed=recomputed,
        messages=messages,
    )


# ---------------------------------------------------------------------------
# external solver subprocess

_REFINE_PASSES = 50  # cap on correction passes


def _least_squares(a: np.ndarray, r: np.ndarray) -> np.ndarray:
    """Minimum-norm d minimising |a d - r|: conjugate gradients on the
    normal equations from d = 0 (CGLS, Hestenes & Stiefel 1952).

    Mat-vecs only.  A LAPACK solve would page 1-2 MB of library code and
    workspace into the process on first use, and a multithreaded SVD of a
    60 x 60 matrix took 0.1 s on a 2-core host; these systems are small
    and well conditioned.
    """
    d = np.zeros(a.shape[1])
    s = r.copy()
    g = a.T @ s
    p = g
    gamma = float(g @ g)
    stop = 1e-28 * gamma  # |a^T s| down to 1e-14 of its start
    for _ in range(2 * a.shape[1]):
        if gamma <= stop:
            break
        q = a @ p
        alpha = gamma / float(q @ q)
        d += alpha * p
        s -= alpha * q
        g = a.T @ s
        gamma, previous = float(g @ g), gamma
        p = g + (gamma / previous) * p
    return d


def _worst_residual(model: Model, x: np.ndarray) -> tuple[float, str | None]:
    """Largest violation of any row, flow sign or binary value, and its name."""
    n_continuous = model.index.n_continuous
    binaries = x[n_continuous:]
    violation = np.concatenate((
        _row_violations(model.constraints, model.constraints.activities(x)),
        np.maximum(0.0, -x[:n_continuous]),
        np.minimum(np.abs(binaries), np.abs(binaries - 1.0)),
    ))
    if violation.max(initial=0.0) == 0.0:
        return 0.0, None
    k = int(np.argmax(violation))
    n_rows = model.n_rows
    return float(violation[k]), (model.constraints.names[k] if k < n_rows
                                 else model.index.column_name(k - n_rows))


def _refine_onto_active_set(sol: Solution, model: Model) -> Solution:
    """Move a solver's point onto its active set (iterative refinement after
    Gleixner, Steffy & Wolter, INFORMS J. Computing 2016).

    MILP solvers accept rows violated by their own feasibility tolerance,
    about 1e-6, and a solver may spend that slack on a lower objective.
    Only a solution with status optimal or feasible that passes
    `verify_solution` at its default tolerance is touched; any other one
    is returned as it came.  Binaries are set to exact 0 or 1 and flows at
    or below 0 are held at 0.  The active set is every equality row and
    every inequality row that is violated or within that tolerance of its
    bound, restricted to the positive flows.  A minimum-norm least-squares
    correction over a dense matrix of those rows and columns only is
    applied repeatedly; each pass counts only the violated side of an
    inequality row as residual, solves over the equality rows and the rows
    with a nonzero residual, and clips the flows at 0, and the passes stop
    when the largest residual no longer drops.

    The refined values replace the solver's only if the worst violation of
    any row, flow sign or binary value strictly drops and the refined
    solution still verifies; the objective is then recomputed from the
    values and the gap from the objective and the solver's bound.
    Otherwise values, objective and gap stay exactly as parsed.  Either way
    one diagnostics line records the worst residual before and after.
    """
    if sol.status not in ("optimal", "feasible"):
        return sol
    report = verify_solution(sol, model)
    if not report.passed:
        return sol
    tol = report.tol
    block = model.constraints
    n_continuous = model.index.n_continuous
    x0 = solution_vector(sol, model)
    x = x0.copy()
    x[n_continuous:] = np.round(x[n_continuous:])
    flows = x[:n_continuous]
    flows[flows <= 0.0] = 0.0
    free = np.flatnonzero(flows > 0.0)

    activity = block.activities(x)
    slack = np.where(block.sense == "L", block.rhs - activity, activity - block.rhs)
    active = (block.sense == "E") | (slack <= tol)
    local = np.full(model.n_columns, -1, dtype=np.int64)
    local[free] = np.arange(len(free))
    row_of = np.repeat(np.arange(block.n_rows, dtype=np.int64), np.diff(block.indptr))
    col = local[block.indices]
    entry = active[row_of] & (col >= 0)
    rows, row_pos = np.unique(row_of[entry], return_inverse=True)
    a = np.zeros((len(rows), len(free)), dtype=np.float64)
    np.add.at(a, (row_pos, col[entry]), block.data[entry])
    values = x[free]
    x[free] = 0.0
    base = block.activities(x)[rows]  # what the fixed columns contribute
    sense, rhs = block.sense[rows], block.rhs[rows]
    best = np.inf
    for _ in range(_REFINE_PASSES):
        residual = rhs - base - a @ values
        residual = np.where(sense == "L", np.minimum(residual, 0.0),
                            np.where(sense == "G", np.maximum(residual, 0.0), residual))
        size = float(np.abs(residual).max(initial=0.0))
        if size == 0.0 or size >= best:
            break
        best = size
        # a met inequality row would hold its activity still and resist the
        # correction, so only equalities and violated rows constrain it
        target = (sense == "E") | (residual != 0.0)
        values = np.maximum(values + _least_squares(a[target], residual[target]), 0.0)
    x[free] = values

    before, before_at = _worst_residual(model, x0)
    after, after_at = _worst_residual(model, x)
    objective = float(model.objective @ x)
    refined = replace(
        sol,
        values={name: float(x[_column(model, name)]) for name in sol.values},
        objective_reported=objective,
        gap=compute_gap(objective, sol.bound) if sol.bound is not None else None,
    )
    improved = after < before and verify_solution(refined, model).passed
    result = refined if improved else sol

    def where(name: str | None) -> str:
        return f" at {name}" if name else ""

    result.diagnostics += (
        f"\nrefinement: worst residual {before:.3e}{where(before_at)} before, "
        f"{after:.3e}{where(after_at)} after; "
        + ("refined values kept" if improved else "solver's values kept"))
    return result


def _lift_sizes(sol: Solution, model: Model) -> tuple[Solution, int]:
    """`sol` with each site's inflow summed over sizes and put at the site's
    chosen size, the size whose install binary is largest (the first of
    equals), and the number of sites whose flows moved.

    This takes a solution of `project_sizes(model)`, whose flows carry
    their first size's names, back to the model.  A solution whose flows
    all sit at their site's chosen size comes back as the same object.
    The objective stays as reported: merged columns cost the same.  Nothing
    is checked here; a site with two sizes installed, flow at a closed
    site or a fractional binary is left for `verify_solution` to fail.
    """
    index = model.index
    x = solution_vector(sol, model)
    lifted = x.copy()
    sites = 0
    for leg in index.legs:
        if not leg.sizes:
            continue
        grid = leg.grid()  # (t, p, origin, site, size)
        chosen = np.argmax(x[index.install(leg.dest_role).grid()], axis=1)
        off_size = np.arange(len(leg.sizes)) != chosen[:, None]
        stray = np.flatnonzero(((x[grid] != 0.0) & off_size).any(axis=(0, 1, 2, 4)))
        if not len(stray):
            continue
        moved = grid[:, :, :, stray]
        at = np.take_along_axis(moved, chosen[stray][None, None, None, :, None], axis=4)
        lifted[moved] = 0.0
        lifted[at[..., 0]] = x[moved].sum(axis=4)
        sites += len(stray)
    if not sites:
        return sol, 0
    changed = lifted != x
    values = {name: v for name, v in sol.values.items() if not changed[_column(model, name)]}
    values.update((index.column_name(int(c)), float(lifted[c]))
                  for c in np.flatnonzero(changed & (lifted != 0.0)))
    return replace(sol, values=values), sites


def run_external_solver(model: Model, solver_cmd: str,
                        time_limit: float | None = None) -> Solution:
    """Write the model's size projection as MPS, run the user's solver
    command, parse back its solution and lift it onto the model.

    `solver_cmd` is a shell-less command template; every occurrence of
    `{mps}` and `{sol}` in its tokens is replaced by the MPS path and the
    expected solution path.  The MPS is `project_sizes(model)`, written by
    the same writer as `write_mps`: flows merged over their destination's
    size axis under their first size's name, capacity rows summed over
    sizes.  A model where every echelon has one size projects onto itself,
    so its file is `write_mps(model)`.  The solution file is parsed against
    the model, and `_lift_sizes` moves each site's flows onto its chosen
    size; one diagnostics line gives both column and row counts and the
    number of sites lifted.  The child runs in a fresh temp directory with
    the caller's environment.  A declared `=status=` in the solution file
    wins; otherwise a nonzero exit means status unknown (diagnostics
    captured), and a timeout with an incumbent file present means feasible.

    An optimal or feasible solution that passes `verify_solution` is then
    refined onto its active set (`_refine_onto_active_set`): exact
    binaries, no negative flows, and equality rows met far inside the
    solver's own feasibility tolerance.  The refined values
    replace the solver's only when that strictly lowers the worst
    violation and the result still verifies; the objective and gap then
    follow the refined values.  A solution that fails verification comes
    back exactly as parsed.  `Solution.diagnostics` ends with the worst
    residual before and after refinement whenever it ran.

    A `time_limit` that is not finite or not above 0 raises
    `SolverRunError` before anything is written or run.
    """
    if "{mps}" not in solver_cmd or "{sol}" not in solver_cmd:
        raise SolverRunError("solver command template must use both {mps} and {sol}")
    if time_limit is not None and not (math.isfinite(time_limit) and time_limit > 0.0):
        raise SolverRunError(f"time_limit must be finite and above 0 seconds, got {time_limit}")
    tokens = shlex.split(solver_cmd)
    projection = project_sizes(model)
    shape = (f"projection: {model.n_columns} -> {projection.n_columns} columns, "
             f"{model.n_rows} -> {projection.n_rows} rows")
    with tempfile.TemporaryDirectory(prefix="upcyclenet-") as tmp:
        mps_path = Path(tmp) / "model.mps"
        sol_path = Path(tmp) / "model.sol"
        _write_batches(_projection_batches(model, projection), mps_path)
        cmd = [t.replace("{mps}", str(mps_path)).replace("{sol}", str(sol_path)) for t in tokens]
        t0 = time.monotonic()
        timed_out = False
        try:
            proc = subprocess.run(cmd, capture_output=True, text=True, timeout=time_limit)
            exit_code: int | None = proc.returncode
            stdout, stderr = proc.stdout, proc.stderr
        except subprocess.TimeoutExpired as exc:
            timed_out = True
            exit_code = None
            stdout = exc.stdout.decode(errors="replace") if exc.stdout else ""
            stderr = exc.stderr.decode(errors="replace") if exc.stderr else ""
        except FileNotFoundError as exc:
            raise SolverRunError(f"cannot spawn solver: {exc}") from exc
        elapsed = time.monotonic() - t0

        diag = (
            f"cmd={' '.join(cmd)}\nexit={'timeout' if timed_out else exit_code} "
            f"elapsed={elapsed:.2f}s\nstdout: {stdout[-2000:]}\nstderr: {stderr[-2000:]}"
        )

        def diagnostics(lifted: int) -> str:
            return f"{diag}\n{shape}; {lifted} sites lifted"

        if not sol_path.exists():
            return Solution(values={}, objective_reported=0.0, status="unknown",
                            source="external", diagnostics=diagnostics(0))
        try:
            sol, declared = _parse_solution(sol_path.read_text(), model)
        except SolutionError as exc:
            return Solution(values={}, objective_reported=0.0, status="unknown",
                            source="external",
                            diagnostics=f"{diagnostics(0)}\nparse error: {exc}")
        if not declared:
            if timed_out:
                sol.status = "feasible"
            elif exit_code != 0:
                sol.status = "unknown"
        sol, lifted = _lift_sizes(sol, model)
        sol.diagnostics = diagnostics(lifted)
        return _refine_onto_active_set(sol, model)
