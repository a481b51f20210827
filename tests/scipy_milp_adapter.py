"""Stand-alone MILP adapter used by the tests as an external solver.

Reads a free-format MPS file with its own parser (deliberately sharing no
code with the package under test), solves it with scipy's HiGHS wrapper,
and writes a solution file in the package's text format:

    =obj= <objective>
    =status= optimal|feasible|infeasible|unknown
    =bound= <best dual bound>        (when the solver provides one)
    <column> <value>                 (nonzero values only)

Usage: python3 scipy_milp_adapter.py MPS_PATH SOL_PATH [TIME_LIMIT] [MIP_REL_GAP]
       python3 scipy_milp_adapter.py DIR

The second form solves every DIR/NAME.mps into DIR/NAME.sol in one
process, so that scipy is imported once for many files.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass, field
from pathlib import Path


@dataclass
class MpsData:
    name: str = ""
    objective_row: str = ""
    row_order: list[str] = field(default_factory=list)
    row_sense: dict[str, str] = field(default_factory=dict)  # row -> N|L|G|E
    column_order: list[str] = field(default_factory=list)
    integer_columns: set[str] = field(default_factory=set)
    entries: list[tuple[str, str, float]] = field(default_factory=list)  # (col, row, coef)
    rhs: dict[str, float] = field(default_factory=dict)
    bounds: list[tuple[str, str, float | None]] = field(default_factory=list)  # (type, col, value)


def read_free_mps(text: str) -> MpsData:
    data = MpsData()
    section = None
    in_integer = False
    seen_columns: set[str] = set()
    for raw in text.splitlines():
        if not raw.strip() or raw.lstrip().startswith("*"):
            continue
        if not raw[0].isspace():
            tokens = raw.split()
            keyword = tokens[0].upper()
            if keyword == "NAME":
                data.name = tokens[1] if len(tokens) > 1 else ""
                continue
            if keyword == "ENDATA":
                break
            if keyword in ("ROWS", "COLUMNS", "RHS", "RANGES", "BOUNDS"):
                section = keyword
                continue
            raise ValueError(f"unknown MPS section header: {raw!r}")
        tokens = raw.split()
        if section == "ROWS":
            sense, row = tokens[0].upper(), tokens[1]
            if sense not in ("N", "L", "G", "E"):
                raise ValueError(f"unknown row sense {sense!r}")
            data.row_order.append(row)
            data.row_sense[row] = sense
            if sense == "N" and not data.objective_row:
                data.objective_row = row
        elif section == "COLUMNS":
            if len(tokens) >= 3 and tokens[1] == "'MARKER'":
                marker = tokens[2].strip("'").upper()
                if marker == "INTORG":
                    in_integer = True
                elif marker == "INTEND":
                    in_integer = False
                else:
                    raise ValueError(f"unknown marker {marker!r}")
                continue
            col = tokens[0]
            if col not in seen_columns:
                seen_columns.add(col)
                data.column_order.append(col)
                if in_integer:
                    data.integer_columns.add(col)
            pairs = tokens[1:]
            if len(pairs) % 2:
                raise ValueError(f"odd entry count in COLUMNS line: {raw!r}")
            for k in range(0, len(pairs), 2):
                data.entries.append((col, pairs[k], float(pairs[k + 1])))
        elif section == "RHS":
            pairs = tokens[1:]  # tokens[0] is the rhs set name
            if len(pairs) % 2:
                raise ValueError(f"odd entry count in RHS line: {raw!r}")
            for k in range(0, len(pairs), 2):
                data.rhs[pairs[k]] = float(pairs[k + 1])
        elif section == "RANGES":
            raise ValueError("RANGES sections are not supported")
        elif section == "BOUNDS":
            btype = tokens[0].upper()
            if btype in ("BV", "FR", "MI", "PL"):
                data.bounds.append((btype, tokens[2], None))
            elif btype in ("UP", "LO", "FX"):
                data.bounds.append((btype, tokens[2], float(tokens[3])))
            else:
                raise ValueError(f"unsupported bound type {btype!r}")
        else:
            raise ValueError(f"data line outside any section: {raw!r}")
    if not data.objective_row:
        raise ValueError("MPS file declares no objective (N) row")
    return data


def solve_mps(data: MpsData, time_limit: float | None = None,
              mip_rel_gap: float | None = None):
    import numpy as np
    from scipy.optimize import Bounds, LinearConstraint, milp
    from scipy.sparse import coo_matrix

    cols = {c: j for j, c in enumerate(data.column_order)}
    con_rows = [r for r in data.row_order if data.row_sense[r] != "N"]
    rows = {r: i for i, r in enumerate(con_rows)}
    n, m = len(data.column_order), len(con_rows)

    c = np.zeros(n)
    ai, aj, av = [], [], []
    for col, row, coef in data.entries:
        if row == data.objective_row:
            c[cols[col]] += coef
        else:
            ai.append(rows[row])
            aj.append(cols[col])
            av.append(coef)
    a = coo_matrix((av, (ai, aj)), shape=(m, n))

    lower = np.full(m, -np.inf)
    upper = np.full(m, np.inf)
    for r in con_rows:
        i = rows[r]
        b = data.rhs.get(r, 0.0)
        sense = data.row_sense[r]
        if sense in ("L", "E"):
            upper[i] = b
        if sense in ("G", "E"):
            lower[i] = b

    lb = np.zeros(n)
    ub = np.full(n, np.inf)
    integrality = np.zeros(n)
    for col in data.integer_columns:
        integrality[cols[col]] = 1
    for btype, col, value in data.bounds:
        j = cols[col]
        if btype == "BV":
            lb[j], ub[j] = 0.0, 1.0
            integrality[j] = 1
        elif btype == "UP":
            ub[j] = value
        elif btype == "LO":
            lb[j] = value
        elif btype == "FX":
            lb[j] = ub[j] = value
        elif btype == "FR":
            lb[j], ub[j] = -np.inf, np.inf
        elif btype == "MI":
            lb[j] = -np.inf

    options = {}
    if time_limit is not None:
        options["time_limit"] = time_limit
    if mip_rel_gap is not None:
        options["mip_rel_gap"] = mip_rel_gap
    constraints = [LinearConstraint(a, lower, upper)] if m else []
    res = milp(c=c, constraints=constraints, integrality=integrality,
               bounds=Bounds(lb, ub), options=options)
    return res


def write_solution_file(path: str, data: MpsData, res) -> None:
    if res.status == 0:
        status = "optimal"
    elif res.status == 1 and res.x is not None:
        status = "feasible"
    elif res.status == 2:
        status = "infeasible"
    else:
        status = "unknown"
    lines = ["# scipy/HiGHS adapter solution"]
    if res.x is not None:
        lines.append(f"=obj= {res.fun!r}")
    lines.append(f"=status= {status}")
    bound = getattr(res, "mip_dual_bound", None)
    # a solver with an incumbent but no finite bound yet (HiGHS reports -inf
    # on an early time limit) leaves the line out: solution files carry
    # finite numbers only
    if bound is not None and math.isfinite(bound) and res.x is not None:
        lines.append(f"=bound= {bound!r}")
    if res.x is not None:
        for j, col in enumerate(data.column_order):
            v = float(res.x[j])
            if data.integer_columns and col in data.integer_columns:
                v = float(round(v))
            if v != 0.0:
                lines.append(f"{col} {v!r}")
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")


def solve_file(mps_path: str, sol_path: str, time_limit: float | None = None,
               mip_rel_gap: float | None = None) -> None:
    with open(mps_path) as fh:
        data = read_free_mps(fh.read())
    res = solve_mps(data, time_limit, mip_rel_gap)
    write_solution_file(sol_path, data, res)


def main(argv: list[str]) -> int:
    if len(argv) == 2 and Path(argv[1]).is_dir():
        for mps_path in sorted(Path(argv[1]).glob("*.mps")):
            solve_file(str(mps_path), str(mps_path.with_suffix(".sol")))
        return 0
    if len(argv) < 3:
        print(__doc__, file=sys.stderr)
        return 2
    time_limit = float(argv[3]) if len(argv) > 3 else None
    mip_rel_gap = float(argv[4]) if len(argv) > 4 else None
    solve_file(argv[1], argv[2], time_limit, mip_rel_gap)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
