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
from collections.abc import Collection, Iterator
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .errors import NamingError, SolutionError, SolverRunError, read_text
from .model import (
    ROW_FAMILIES,
    Model,
    RowBlock,
    first_duplicate,
    lift_sizes,
    project_sizes,
    solver_rows,
)

SOLUTION_STATUSES = ("optimal", "feasible", "infeasible", "unbounded", "unknown")


@dataclass
class Solution:
    """A (claimed) assignment of the model's columns, from any producer."""

    values: dict[str, float]
    objective_reported: float
    status: str = "unknown"
    source: str = "external"  # 'oracle' | 'external'
    bound: float | None = None
    diagnostics: str = ""

    @property
    def gap(self) -> float | None:
        """`compute_gap(objective_reported, bound)`, None without a bound."""
        return None if self.bound is None else compute_gap(self.objective_reported, self.bound)

    def value(self, name: str) -> float:
        return self.values.get(name, 0.0)


def compute_gap(objective: float, bound: float) -> float | None:
    """Relative optimality gap (objective - bound) / |objective|, not negative
    for a lower bound whatever the objective's sign; 0 at 0/0, None at 0/x."""
    if objective != 0.0:
        return (objective - bound) / abs(objective)
    return 0.0 if bound == 0.0 else None


# ---------------------------------------------------------------------------
# text: the MPS file and the listing


def _fmt(x: float) -> str:
    """Shortest exact decimal for a float; keeps files byte-deterministic."""
    return repr(float(x))


_MPS_CHUNK = 1 << 14  # records (COLUMNS lines, listing entries) assembled per batch


def _value_ids(values: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(distinct values, int32 index of each value among them) of a float64
    array, told apart by their bits: -0.0 and 0.0 get two indices."""
    distinct, ids = _run_ids(values.view(np.int64))
    return distinct.view(np.float64), ids


def _run_ids(keys: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(distinct keys in ascending order, int32 index of each key among
    them) of an int64 array.

    Each run of equal neighbours is sorted once, by its first key: the keys
    come in runs (a row's +1 entries, a flow's per-ton cost over its sizes),
    so at the default shape 1.8M coefficients make 60k runs.  One argsort of
    those, a mark where the sorted keys change and its cumulative sum
    scattered back give each run's index, repeated over the run.
    """
    starts = np.flatnonzero(_changes(keys))
    heads = keys[starts]
    order = np.argsort(heads, kind="stable")
    ordered = heads[order]
    new = _changes(ordered)
    ids = np.empty(len(ordered), dtype=np.int32)
    ids[order] = np.cumsum(new, dtype=np.int32) - 1
    return ordered[new], np.repeat(ids, np.diff(starts, append=len(keys)))


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
    model's parts, `run_external_solver` its projection's columns and
    `solver_rows`.

    A COLUMNS line is a space, its column's name and its tail, one token
    per (row, coefficient) pair with the coefficient told apart by its
    bits.  Pairs are few (7,311 for the 1.45M matrix entries of the default
    shape), so the tail table is small and a batch takes two fields; the
    pair ids come from the entries' runs (`_run_ids`)."""
    n_columns = len(objective)
    duplicate = first_duplicate(block.names)
    if duplicate is not None:
        raise NamingError(f"row name collision after sanitization: '{duplicate}'")
    head = ["NAME UPCYCLENET", "ROWS", " N COST"]
    head += [f" {sense} {row}" for sense, row in zip(block.sense.tolist(), block.names)]
    head.append("COLUMNS\n")
    yield "\n".join(head).encode()

    n_rows = block.n_rows
    keep = block.data != 0.0
    row_of = np.repeat(np.arange(n_rows, dtype=np.int64), np.diff(block.indptr))[keep]
    obj_cols = np.flatnonzero(objective != 0.0).astype(np.int32)
    entries_per_col = np.bincount(block.indices[keep], minlength=n_columns)
    entries_per_col[obj_cols] += 1
    empty_cols = np.flatnonzero(entries_per_col == 0).astype(np.int32)
    values, value_ids = _value_ids(np.concatenate((objective[obj_cols], block.data[keep])))
    # entry k: column and pair, row * n_texts + value, where row n_rows is
    # COST and value len(values) the `0` of empty columns
    n_texts = len(values) + 1
    row_of *= n_texts
    row_of += value_ids[len(obj_cols):]
    pairs, pair_ids = _run_ids(np.concatenate((
        n_rows * n_texts + value_ids[:len(obj_cols)].astype(np.int64),
        np.full(len(empty_cols), n_rows * n_texts + len(values), dtype=np.int64),
        row_of)))
    cols = np.concatenate((obj_cols, empty_cols, block.indices[keep].astype(np.int32)))
    del row_of, keep, obj_cols, entries_per_col, empty_cols, value_ids
    order = np.argsort(cols, kind="stable")
    ids = (np.broadcast_to(np.int32(0), cols.shape), cols[order], pair_ids[order])
    del cols, pair_ids, order
    row_names = [*block.names, "COST"]
    texts = [_fmt(v) for v in values.tolist()] + ["0"]
    tables = [_tokens([" "]), _records(names),
              _tokens([f" {row_names[pair // n_texts]} {texts[pair % n_texts]}\n"
                       for pair in pairs.tolist()])]
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

    COLUMNS is made by `_gather` from a space, `VariableIndex.name_table`
    and one tail per distinct (row, coefficient) pair: ` row `, the
    coefficient's `repr` and a newline, with row `COST` for the objective
    and ` COST 0` for empty columns; BV lines from the name table.  The
    batches are decoded into one `str` (`_decode`).
    """
    return _decode(_model_batches(model))


def _decode(batches: Iterator[bytes | np.ndarray]) -> str:
    """The batches decoded one by one and appended to one `str`; a batch
    is whole records or lines, so none splits a character."""
    text = ""
    for batch in batches:
        # CPython grows a str in place when `+=` holds its only reference,
        # as here, once the loop is specialised (after a few passes; 3.11
        # not under a profiler or tracer): the text is held once and never
        # as bytes.  Otherwise `+=` copies: the same text, in time that
        # grows with the square of the batch count.
        text += str(memoryview(batch), "utf-8")
    return text


def _model_batches(model: Model) -> Iterator[bytes | np.ndarray]:
    """`write_mps(model)` encoded, in `_mps_batches`' batches; column names
    are checked here, row names before the first batch."""
    return _mps_batches(model.index.name_table(), model.constraints, model.objective,
                        model.index.n_continuous)


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


# each directive of the solution format, and what its value is called in errors
_DIRECTIVES = {"=obj=": "objective", "=bound=": "bound", "=status=": "status"}


def parse_solution(text: str, model: Model) -> Solution:
    """Parse a neutral solution file against the model's column names.

    Values, `=obj=` and `=bound=` must be finite numbers.
    """
    return _parse_solution(text, model)[0]


@np.errstate(over="ignore", invalid="ignore")  # an objective past the float range never verifies
def _parse_solution(text: str, model: Model) -> tuple[Solution, bool, np.ndarray, list[int]]:
    """`parse_solution`'s result, whether the file declared `=status=`,
    the dense column vector of its values and the column of each value, in
    the order of `Solution.values`; each name is parsed once."""
    values: dict[str, float] = {}
    columns: list[int] = []
    declared: dict[str, float | str] = {}  # directive -> its number or status
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

        if key.startswith("="):
            if key not in _DIRECTIVES:
                raise SolutionError(f"line {lineno}: unknown directive {key!r}")
            if key in declared:
                raise SolutionError(f"line {lineno}: duplicate {key} directive")
            if key == "=status=" and val not in SOLUTION_STATUSES:
                raise SolutionError(f"line {lineno}: unknown status {val!r}")
            declared[key] = val if key == "=status=" else number(_DIRECTIVES[key])
        else:
            col = model.index.column(key)
            if col is None:
                raise SolutionError(f"line {lineno}: unknown column name {key!r}")
            if key in values:
                raise SolutionError(f"line {lineno}: duplicate assignment to {key!r}")
            values[key] = number("value")
            columns.append(col)

    objective, bound = declared.get("=obj="), declared.get("=bound=")
    status = declared.get("=status=", "feasible" if values or objective is not None else "unknown")
    x = _dense(model, columns, values.values())
    if objective is None:
        objective = float(model.objective @ x)
    sol = Solution(values=values, objective_reported=objective, status=status, bound=bound)
    return sol, "=status=" in declared, x, columns


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
    return _dense(model, [_column(model, name) for name in sol.values], sol.values.values())


def _dense(model: Model, columns: list[int], values: Collection[float]) -> np.ndarray:
    x = np.zeros(model.n_columns, dtype=np.float64)
    x[np.array(columns, dtype=np.int64)] = np.fromiter(values, dtype=np.float64, count=len(values))
    return x


def _column(model: Model, name: str) -> int:
    col = model.index.column(name)
    if col is None:
        raise SolutionError(f"solution names column {name!r} not in model")
    return col


def recompute_objective(values: dict[str, float], model: Model) -> float:
    return float(model.objective @ _dense(model, [_column(model, name) for name in values],
                                          values.values()))


OBJECTIVE_TOL = 1e-6  # relative; `verify_solution`, external `breakdown_costs`
VERIFY_TOL = 1e-6  # absolute; default row and sign tolerance of `verify_solution`, CLI


def objective_agrees(value: float, reference: float, rel: float) -> bool:
    """|value - reference| <= rel * max(1, |reference|), with both finite."""
    return (math.isfinite(value) and math.isfinite(reference)
            and abs(value - reference) <= rel * max(1.0, abs(reference)))


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
    # the largest of every row violation, negative flow and binary's
    # distance from 0 or 1, and the row or column it is at (None at 0.0)
    worst_residual: float
    worst_residual_at: str | None
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


def verify_solution(sol: Solution, model: Model, tol: float = VERIFY_TOL) -> VerificationReport:
    """Recheck every row, sign bound and binary against the raw model data.

    PASS means all row activities land within `tol` (absolute) of their
    sense, every binary is within 1e-6 of 0 or 1, no flow is below -tol,
    every value is finite and the reported objective agrees with the one
    recomputed from the values (`objective_agrees` at `OBJECTIVE_TOL`; a
    non-finite one never does); a mismatch also adds a message.  A row
    whose activity is not finite counts as infinitely violated.  The first
    row in emission order wins a tie for the worst violation.  The report
    never raises on violations; it carries them, and also the worst
    residual over rows, flow signs and binaries and where it is.  A `tol`
    that is not finite or is below 0 raises `ValueError`.
    """
    if not (math.isfinite(tol) and tol >= 0.0):
        raise ValueError(f"tol must be finite and >= 0, got {tol}")
    report = _verify_vector(solution_vector(sol, model), model, tol)
    recomputed = report.objective_recomputed
    if not objective_agrees(sol.objective_reported, recomputed, OBJECTIVE_TOL):
        report.passed = False
        report.messages.append(f"reported objective {sol.objective_reported!r} differs from "
                               f"recomputed {recomputed!r}")
    return report


@np.errstate(over="ignore", invalid="ignore")  # a non-finite activity or objective fails below
def _verify_vector(x: np.ndarray, model: Model, tol: float = VERIFY_TOL) -> VerificationReport:
    """`verify_solution` of the dense column vector `x`, without the
    reported objective's message."""
    block = model.constraints
    n_continuous = model.index.n_continuous
    activity = block.activities(x)
    violation = _row_violations(block, activity)
    violation[~np.isfinite(activity)] = np.inf
    over = violation > tol
    violations = {fam: int(np.count_nonzero(over[block.family_slice(fam)])) for fam in ROW_FAMILIES}
    worst, worst_row = 0.0, None
    if violation.any():  # the first row wins a tie
        k = int(np.argmax(violation))
        worst, worst_row = float(violation[k]), block.names[k]
    binaries = x[n_continuous:]
    distance = np.minimum(np.abs(binaries), np.abs(binaries - 1.0))
    distance[np.isnan(distance)] = np.inf
    n_int = int(np.count_nonzero(distance > INTEGRALITY_TOL))
    worst_int = float(distance.max()) if len(distance) else 0.0
    flows = x[:n_continuous]
    neg = int(np.sum(flows < -tol))
    residual = np.concatenate((violation, np.maximum(0.0, -flows), distance))
    residual[np.isnan(residual)] = np.inf  # a NaN flow
    worst_residual, worst_at = 0.0, None
    if residual.any():
        k = int(np.argmax(residual))
        worst_residual = float(residual[k])
        worst_at = block.names[k] if k < block.n_rows else model.index.column_name(k - block.n_rows)
    messages = []
    nonfinite = np.flatnonzero(~np.isfinite(x))
    if len(nonfinite):
        messages.append(f"{len(nonfinite)} non-finite solution values, first at "
                        f"{model.index.column_name(int(nonfinite[0]))}")
    return VerificationReport(
        passed=worst <= tol and n_int == 0 and neg == 0 and len(nonfinite) == 0,
        tol=tol,
        violations_by_family=violations,
        worst_violation=worst,
        worst_row=worst_row,
        integrality_violations=n_int,
        worst_integrality=worst_int,
        negative_value_violations=neg,
        objective_recomputed=float(model.objective @ x),
        worst_residual=worst_residual,
        worst_residual_at=worst_at,
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


def _refine_onto_active_set(x: np.ndarray, model: Model) -> tuple[np.ndarray, str]:
    """Move a solver's point onto its active set (iterative refinement after
    Gleixner, Steffy & Wolter, INFORMS J. Computing 2016).

    MILP solvers accept rows violated by their own feasibility tolerance,
    about 1e-6, and a solver may spend that slack on a lower objective.
    Only a column vector `x` that passes `verify_solution`'s check at its
    default tolerance is touched; any other one comes back as it came,
    with an empty diagnostics line.  Binaries are set to exact 0 or 1 and
    flows at or below 0 are held at 0.  The active set is every equality
    row and every inequality row that is violated or within that tolerance
    of its bound, restricted to the positive flows.  A minimum-norm
    least-squares correction over a dense matrix of those rows and columns
    only is applied repeatedly; each pass counts only the violated side of
    an inequality row as residual, solves over the equality rows and the
    rows with a nonzero residual, and clips the flows at 0, and the passes
    stop when the largest residual no longer drops.

    The refined vector comes back in place of `x` only if it verifies and
    its `worst_residual` (any row, flow sign or binary value) is strictly
    below that of `x`; either way the diagnostics line gives both.
    """
    before = _verify_vector(x, model)
    if not before.passed:
        return x, ""
    block = model.constraints
    n_continuous = model.index.n_continuous
    refined = x.copy()
    refined[n_continuous:] = np.round(refined[n_continuous:])
    flows = refined[:n_continuous]
    flows[flows <= 0.0] = 0.0
    free = np.flatnonzero(flows > 0.0)

    activity = block.activities(refined)
    slack = np.where(block.sense == "L", block.rhs - activity, activity - block.rhs)
    active = (block.sense == "E") | (slack <= before.tol)
    local = np.full(model.n_columns, -1, dtype=np.int64)
    local[free] = np.arange(len(free))
    row_of = np.repeat(np.arange(block.n_rows, dtype=np.int64), np.diff(block.indptr))
    col = local[block.indices]
    entry = active[row_of] & (col >= 0)
    rows, row_pos = np.unique(row_of[entry], return_inverse=True)
    a = np.zeros((len(rows), len(free)), dtype=np.float64)
    np.add.at(a, (row_pos, col[entry]), block.data[entry])
    values = refined[free]
    refined[free] = 0.0
    base = block.activities(refined)[rows]  # what the fixed columns contribute
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
    refined[free] = values

    after = _verify_vector(refined, model)
    improved = after.worst_residual < before.worst_residual and after.passed

    at = [f" at {report.worst_residual_at}" if report.worst_residual_at else ""
          for report in (before, after)]
    line = (f"\nrefinement: worst residual {before.worst_residual:.3e}{at[0]} before, "
            f"{after.worst_residual:.3e}{at[1]} after; "
            + ("refined values kept" if improved else "solver's values kept"))
    return (refined if improved else x), line


def run_external_solver(model: Model, solver_cmd: str,
                        time_limit: float | None = None) -> Solution:
    """Write the model's size projection and its capacity-cover rows as
    MPS, run the user's solver command, parse back its solution and lift
    it onto the model.

    `solver_cmd` is a shell-less command template; every occurrence of
    `{mps}` and `{sol}` in its tokens is replaced by the MPS path and the
    expected solution path.  `model` decides what the solver reads: the
    columns of `project_sizes(model)` (flows merged over their
    destination's size axis under their first size's name) and the rows
    of `solver_rows` (the projection's, then one capacity-cover row per
    (echelon, period) with forced tons), written by the same writer as
    `write_mps`.  A model where every echelon has one size projects onto
    itself, so its file is `write_mps(model)` plus the cover rows.  The
    child runs in a fresh temp directory with the caller's environment,
    and its output is decoded as UTF-8 with undecodable bytes replaced.
    A declared `=status=` in the solution file wins; otherwise a nonzero
    exit means status unknown (diagnostics captured), and a timeout with
    an incumbent file present means feasible.  A solution file that is not
    UTF-8 or does not parse means status unknown and a `parse error`
    diagnostics line.

    From the parse on, the solution is one column vector and each name is
    parsed once.  `model.lift_sizes` moves each site's flows onto its
    chosen size; one diagnostics line gives both column and row counts, the
    number of sites lifted and the number of cover rows.  An optimal or
    feasible solution that passes `verify_solution` is then refined onto
    its active set (`_refine_onto_active_set`), whose line on the worst
    residual before and after ends `Solution.diagnostics`; when the refined
    values are kept, the objective and gap follow them.  The values are
    the parsed names the lift left in place, then the columns it filled,
    in column order.

    A `time_limit` that is not finite or not above 0 raises
    `SolverRunError` before anything is written or run.
    """
    if "{mps}" not in solver_cmd or "{sol}" not in solver_cmd:
        raise SolverRunError("solver command template must use both {mps} and {sol}")
    if time_limit is not None and not (math.isfinite(time_limit) and time_limit > 0.0):
        raise SolverRunError(f"time_limit must be finite and above 0 seconds, got {time_limit}")
    tokens = shlex.split(solver_cmd)
    projection = project_sizes(model)
    rows = solver_rows(model, projection)
    with tempfile.TemporaryDirectory(prefix="upcyclenet-") as tmp:
        mps_path = Path(tmp) / "model.mps"
        sol_path = Path(tmp) / "model.sol"
        _write_batches(_mps_batches(model.index.name_table()[projection.columns], rows,
                                    projection.objective, projection.n_continuous), mps_path)
        cmd = [t.replace("{mps}", str(mps_path)).replace("{sol}", str(sol_path)) for t in tokens]
        t0 = time.monotonic()
        try:
            run = subprocess.run(cmd, capture_output=True, timeout=time_limit)
        except subprocess.TimeoutExpired as exc:  # holds the output so far
            run = exc
        except FileNotFoundError as exc:
            raise SolverRunError(f"cannot spawn solver: {exc}") from exc
        elapsed = time.monotonic() - t0
        exit_code = run.returncode if isinstance(run, subprocess.CompletedProcess) else None
        stdout, stderr = (b.decode(errors="replace") if b else "" for b in (run.stdout, run.stderr))
        diag = (
            f"cmd={' '.join(cmd)}\nexit={'timeout' if exit_code is None else exit_code} "
            f"elapsed={elapsed:.2f}s\nstdout: {stdout[-2000:]}\nstderr: {stderr[-2000:]}"
            f"\nprojection: {model.n_columns} -> {projection.n_columns} columns, "
            f"{model.n_rows} -> {projection.n_rows} rows; "
        )

        def diagnostics(lifted: int) -> str:
            return f"{diag}{lifted} sites lifted; {rows.n_rows - projection.n_rows} cover rows"

        unknown = Solution(values={}, objective_reported=0.0, diagnostics=diagnostics(0))
        if not sol_path.exists():
            return unknown
        try:
            sol, declared, parsed, columns = _parse_solution(read_text(sol_path, SolutionError),
                                                             model)
        except SolutionError as exc:
            unknown.diagnostics += f"\nparse error: {exc}"
            return unknown
    if not declared:
        if exit_code is None:
            sol.status = "feasible"
        elif exit_code != 0:
            sol.status = "unknown"
    x, lifted = lift_sizes(parsed, model)
    changed = x != parsed  # the parsed names the lift left, then the columns it filled
    named = [(name, col) for name, col in zip(sol.values, columns) if not changed[col]]
    named += [(model.index.column_name(col), col)
              for col in np.flatnonzero(changed & (x != 0.0)).tolist()]
    sol.diagnostics = diagnostics(lifted)
    if sol.status in ("optimal", "feasible"):
        refined, line = _refine_onto_active_set(x, model)
        if refined is not x:
            x = refined
            sol.objective_reported = float(model.objective @ x)
        sol.diagnostics += line
    sol.values = {name: float(x[col]) for name, col in named}
    return sol
