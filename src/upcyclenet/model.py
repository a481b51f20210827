"""Canonical MILP assembly: variable space, objective, constraint rows.

Decision variables
    x[t, p, i, j, c]   tons of material p moved in period t from origin i to
                       facility j at size option c, for the four legs ending
                       at a facility echelon (the size index belongs to the
                       destination, which lets capacity rows couple flow to
                       the install binaries without big-M constants)
    x[t, p, m, n]      tons from DPF m to sink n (sinks have no size option)
    b[site, c]         1 iff the site is installed at size option c

Objective (minimized, one number for the whole horizon)
    sum over install binaries of installation cost
    + sum_t dt_t * (operating cost per ton on every facility's inflow)
    + sum_t dt_t * 2 * (distance * per-ton-km rate on every leg, the factor
      2 paying the empty return trip)

Installation cost enters once for the horizon, not per period: the
annualized figure times the horizon length in years, so a one-year horizon
charges it exactly once.

Constraint rows, in emission order:
    demand        per (t, p, sink): inflow <= demand capacity (a ceiling,
                  not an obligation; collection quota is what forces flow)
    quota         per (t, p) with quota > 0: collected tons >= quota share
                  of total generated supply
    source_cap    per (t, p, source): shipped tons <= supply
    flow_balance  per (t, output material, facility): yield * admissible
                  inflow == outflow, an equality
    facility_cap  per (t, facility, size): inflow booked at that size
                  <= capacity * install binary
    one_size      per facility: at most one size installed

Each echelon's legs in and out are `instance.LEG_INTO`/`LEG_OUT_OF`.
Which demand and source_cap rows exist is `_demand_row_keys` and
`_source_row_keys`, read by `build_rows` and `count_rows` alike.

Column order is deterministic: the five legs in chain order, each
lexicographic by (t, p, origin, dest, c) in instance declaration order,
then the install binaries grouped by echelon.  Material pruning (`prune`)
drops flow columns for materials a leg cannot carry (not producible at the
origin or not accepted at the destination).  It does not change the
optimal objective, only the column count, except on an instance that
`validate_instance` warns about with `quota-uncollectable` or
`orphan-output`: there the unpruned model lets the material vanish at a
facility that does not accept it, so it can be feasible where the pruned
model is infeasible.

Representation.  Columns have one layout: each leg (`LegSpace`) and each
echelon's installs (`InstallSpace`) is a `_Block`, the product of its id
axes in mixed radix, last axis fastest, and `VariableIndex` lays the nine
blocks end to end.  `_Block` alone turns positions into columns and
columns back into ids.  Names have one format, `prefix_token_token...` of
sanitized ids, checked against MAX_NAME_LEN.  Every name at once is one
NUL-padded byte table (`VariableIndex.name_table`), broadcast block by
block from the prefix and one token table per axis, so no string is made
per column.  `column_name`, `flow_column_name` and `install_column_name`
format single names from ids; the oracle names its values that way.
`column` inverts the format (prefix -> block, token -> position per axis
-> `offset`), so no name -> column map is kept; `name_key` reads a name's
key off the same parse.  The rows are one
read-only CSR block (`RowBlock`: `indptr`, `indices`, `data`,
`sense`/`rhs` arrays, per-row names and keys, family offsets), built from
whole column ranges of the blocks.  `Model.rows` offers the same rows as
`Row` objects for tests and the benchmark's workloads, each reading its
entries in place through read-only views of the CSR arrays.  This module
holds the representation; `model_io` alone turns a model into text.

Size projection.  The size index on flows costs columns, not LP
strength: per-ton costs do not depend on the size, and `one_size` installs
at most one size per site.  `project_sizes` merges each flow over its
destination's size axis into its first size's column and sums each
site's `facility_cap` rows over sizes, an exact projection with the same
LP bound (3,802 -> 598 columns at the 10% default shape).  It is derived
from the model's blocks and row keys alone and checks that every merged
column agrees with its first size's in cost and in every summed row.
Only `model_io.run_external_solver` uses it, to hand the solver the
smaller problem; `write_mps` and the listing keep the canonical model.

Capacity cover.  `Model.forced_tons` holds the tons the quota forces
through each echelon in each period (`instance.forced_inflow_tons`, the
array the oracle's capacity screen reads too).  `capacity_cover` states
that screen as one pure-binary `G` row per (echelon, period) over the
projection's columns: installed capacity covers the forced tons.  The
other rows imply it, so the optimum and the LP bound stay; the solver
gets a knapsack row to cut on (12 rows at the 10% default shape, where
HiGHS then closes at the root).  The solver's file holds these rows
after the projection's; the canonical model has no such row.
"""

from __future__ import annotations

import bisect
import hashlib
import math
from dataclasses import dataclass
from typing import Iterator

import numpy as np

from .errors import ModelError, NamingError
from .geo import build_leg_matrices
from .instance import (
    ECHELON_TAGS,
    FORCED_TONS_TOL,
    LEG_INTO,
    LEG_OUT_OF,
    LEG_ROLES,
    LEGS,
    Instance,
    flow_costs,
    forced_inflow_tons,
    install_costs,
    require_chain,
    sanitize_id,
    serialize_instance,
)

FLOW_PREFIXES = {
    "src_cf": "xsrccf",
    "cf_rtf": "xcfrtf",
    "rtf_cpf": "xrtfcpf",
    "cpf_dpf": "xcpfdpf",
    "dpf_sink": "xdpfsnk",
}

ROW_FAMILIES = ("demand", "quota", "source_cap", "flow_balance", "facility_cap", "one_size")

MAX_NAME_LEN = 64


def flow_column_name(leg: str, t: str, p: str, origin: str, dest: str,
                     size: str | None) -> str:
    ids = (t, p, origin, dest) if size is None else (t, p, origin, dest, size)
    return _name("column", FLOW_PREFIXES[leg], ids)


def install_column_name(echelon: str, site: str, size: str) -> str:
    return _name("column", f"b{echelon}", (site, size))


def _name(kind: str, prefix: str, ids: tuple[str, ...]) -> str:
    """'prefix_a_b_...' from sanitized ids: the one format of a single column
    or row name, NamingError if it is longer than MAX_NAME_LEN."""
    name = "_".join((prefix,) + tuple(sanitize_id(x) for x in ids))
    if len(name) > MAX_NAME_LEN:
        raise NamingError(f"{kind} name '{name}' exceeds {MAX_NAME_LEN} characters")
    return name


class _Block:
    """One column per combination of axis ids, last axis fastest, numbered
    from `start`: the model's only mixed-radix arithmetic."""

    def __init__(self, prefix: str, axes: tuple[tuple[str, ...], ...], start: int) -> None:
        self.prefix = prefix
        self.axes = axes
        self.start = start
        self.shape = tuple(len(ids) for ids in axes)
        self.count = math.prod(self.shape)

    def offset(self, *positions: int) -> int:
        """The column at one position per axis.  Positions past the last
        axis are ignored, so the sink leg takes the same (t, p, i, j, c)
        as the other legs and drops c."""
        off = 0
        for n, k in zip(self.shape, positions):
            off = off * n + k
        return self.start + off

    def grid(self) -> np.ndarray:
        """Every column number, shaped like the block: the column at one
        position per axis is `grid()[positions]`."""
        return self.start + np.arange(self.count, dtype=np.int64).reshape(self.shape)

    def ids(self, col: int) -> tuple[str, ...]:
        """The axis ids of column `col`, which must lie in this block."""
        off = col - self.start
        ids = []
        for axis in reversed(self.axes):
            off, k = divmod(off, len(axis))
            ids.append(axis[k])
        return tuple(reversed(ids))


class LegSpace(_Block):
    """One leg's flow columns x[t, p, origin, dest, size]; the sink leg has
    no size axis and `sizes == ()`."""

    def __init__(self, leg: str, axes: tuple[tuple[str, ...], ...], start: int) -> None:
        super().__init__(FLOW_PREFIXES[leg], axes, start)
        self.leg = leg
        self.origin_role, self.dest_role = LEG_ROLES[leg]
        self.periods, self.materials, self.origins, self.dests = axes[:4]
        self.sizes = axes[4] if len(axes) > 4 else ()

    def key(self, ids: tuple[str, ...]) -> tuple:
        """('flow', leg, t, p, origin, dest, size-or-None) of the column at `ids`."""
        if not self.sizes:
            ids += (None,)
        return ("flow", self.leg) + ids


class InstallSpace(_Block):
    """One echelon's install binaries b[site, size]."""

    def __init__(self, echelon: str, axes: tuple[tuple[str, ...], ...], start: int) -> None:
        super().__init__(f"b{echelon}", axes, start)
        self.echelon = echelon
        self.sites, self.sizes = axes

    def key(self, ids: tuple[str, ...]) -> tuple:
        """('install', echelon, site, size) of the column at `ids`."""
        return ("install", self.echelon) + ids


def _token_table(ids: tuple[str, ...]) -> np.ndarray:
    """'_' + sanitized id per id as a NUL-padded uint8 (len(ids), width) table."""
    tokens = np.array([b"_" + sanitize_id(x).encode() for x in ids], dtype=np.bytes_)
    return tokens.view(np.uint8).reshape(len(ids), tokens.itemsize)


class VariableIndex:
    """Arithmetic bijection between variable keys and column numbers, plus
    the model's one column-naming path: the five leg blocks in chain order,
    then the four install blocks, end to end.  `name_table` gives every
    name as bytes and `column_name` one name; `column` inverts a name
    through one {sanitized id: position} map per axis, so no per-column
    map exists."""

    def __init__(self, inst: Instance, prune: bool) -> None:
        require_chain(inst)
        periods = tuple(t.id for t in inst.periods)
        blocks: list[_Block] = []
        at = 0
        for leg, origin_role, dest_role in LEGS:
            axes = (periods, inst.leg_materials(leg, prune),
                    tuple(n.id for n in inst.role_nodes(origin_role)),
                    tuple(n.id for n in inst.role_nodes(dest_role)))
            if dest_role in ECHELON_TAGS:
                axes += (tuple(o.id for o in inst.echelon(dest_role).size_options),)
            blocks.append(LegSpace(leg, axes, at))
            at += blocks[-1].count
        self.n_continuous = at
        for tag in ECHELON_TAGS:
            spec = inst.echelon(tag)
            axes = (tuple(n.id for n in spec.sites), tuple(o.id for o in spec.size_options))
            blocks.append(InstallSpace(tag, axes, at))
            at += blocks[-1].count
        self.n_columns = at
        self.n_binary = at - self.n_continuous
        self._blocks = tuple(blocks)
        self.legs: tuple[LegSpace, ...] = self._blocks[:len(LEGS)]
        self.installs: tuple[InstallSpace, ...] = self._blocks[len(LEGS):]
        self._starts = [block.start for block in self._blocks]
        self._leg_by_id = {s.leg: s for s in self.legs}
        self._install_by_tag = {s.echelon: s for s in self.installs}
        self._by_prefix = {
            block.prefix: (block, tuple(_token_positions(ids) for ids in block.axes))
            for block in self._blocks
        }

    def leg(self, leg_id: str) -> LegSpace:
        return self._leg_by_id[leg_id]

    def install(self, tag: str) -> InstallSpace:
        return self._install_by_tag[tag]

    def _block_of(self, col: int) -> _Block:
        if not 0 <= col < self.n_columns:
            raise IndexError(col)
        # the last block starting at or before `col`: an empty block starts
        # where the next one does, so it is never the one found
        return self._blocks[bisect.bisect_right(self._starts, col) - 1]

    def column_key(self, col: int) -> tuple:
        """('flow', leg, t, p, origin, dest, size-or-None) or ('install', echelon, site, size)."""
        block = self._block_of(col)
        return block.key(block.ids(col))

    def _parse(self, name: str) -> tuple[_Block, list[int]] | None:
        """(block, position per axis) of the column called `name`, or None:
        the prefix picks the block, each token's position on its axis comes
        from the axis' map.  Exact because sanitized ids contain no '_'."""
        prefix, *tokens = name.split("_")
        entry = self._by_prefix.get(prefix)
        if entry is None:
            return None
        block, axes = entry
        if len(tokens) != len(axes):
            return None
        try:
            return block, [axis[token] for token, axis in zip(tokens, axes)]
        except KeyError:
            return None

    def column(self, name: str) -> int | None:
        """The column called `name`, or None if no column has that name."""
        parsed = self._parse(name)
        return None if parsed is None else parsed[0].offset(*parsed[1])

    def name_key(self, name: str) -> tuple | None:
        """`column_key` of the column called `name`, or None if no column
        has that name; one parse of the name, no column arithmetic."""
        parsed = self._parse(name)
        if parsed is None:
            return None
        block, positions = parsed
        return block.key(tuple(ids[k] for ids, k in zip(block.axes, positions)))

    def column_name(self, col: int) -> str:
        """The name of column `col`, formatted on its own from its ids."""
        block = self._block_of(col)
        return _name("column", block.prefix, block.ids(col))

    def name_table(self) -> np.ndarray:
        """Every column name in column order as one uint8 (n_columns, width)
        table, NUL-padded: the nonzero bytes of row c are `column_name(c)`.

        Each block's rows are its prefix and one `_token_table` per axis,
        broadcast over the block's shape side by side, so a name may hold
        NULs between its tokens as well as after them.  A block's longest
        name joins the longest token of every axis, so the length check is
        arithmetic; NamingError names the first over-long column in column
        order.  Not cached: each writer drops it after its file.
        """
        blocks = [(block, [_token_table(ids) for ids in block.axes])
                  for block in self._blocks if block.count]
        width = 0
        for block, tokens in blocks:
            longest = len(block.prefix) + sum(tok.shape[1] for tok in tokens)
            if longest > MAX_NAME_LEN:
                # some name in this block is over-long, none before it is:
                # column_name raises on the first of them
                for col in range(block.start, block.start + block.count):
                    self.column_name(col)
            width = max(width, longest)
        table = np.zeros((self.n_columns, width), dtype=np.uint8)
        for block, tokens in blocks:
            rows = table[block.start:block.start + block.count].reshape(block.shape + (width,))
            at = len(block.prefix)
            rows[..., :at] = np.frombuffer(block.prefix.encode(), dtype=np.uint8)
            for axis, tok in enumerate(tokens):
                rows[..., at:at + tok.shape[1]] = _along(block, axis, tok)
                at += tok.shape[1]
        return table


def _along(block: _Block, axis: int, tokens: np.ndarray) -> np.ndarray:
    """A (len(ids), width) token table of one axis, shaped to broadcast over
    the block's shape along that axis."""
    shape = [1] * len(block.shape) + [tokens.shape[1]]
    shape[axis] = len(tokens)
    return tokens.reshape(shape)


def _token_positions(ids: tuple[str, ...]) -> dict[str, int]:
    """{sanitized id: position} along one axis.  Two ids with one token
    would give two columns one name, so that is a NamingError."""
    positions: dict[str, int] = {}
    for k, raw in enumerate(ids):
        token = sanitize_id(raw)
        if positions.setdefault(token, k) != k:
            raise NamingError(f"column name collision after sanitization: ids "
                              f"'{ids[positions[token]]}' and '{raw}' both become '{token}'")
    return positions


def first_duplicate(names: list[str]) -> str | None:
    """The first name that repeats an earlier one, in list order."""
    seen: set[str] = set()
    for n in names:
        if n in seen:
            return n
        seen.add(n)
    return None


def count_columns(inst: Instance, prune: bool = True) -> tuple[int, int]:
    """(continuous, binary) column counts without building anything heavy."""
    vindex = VariableIndex(inst, prune)
    return vindex.n_continuous, vindex.n_binary


@dataclass(frozen=True)
class Row:
    """One constraint row, for per-row reference checks.  `cols` and
    `coefs` are read-only memoryviews of its slice of the block's
    `indices` and `data`, not copies: iterating them gives Python ints and
    floats, and an empty row's views are falsy.  Rows compare equal by
    value; a memoryview of int64 or float64 cannot be hashed, so neither
    can a `Row`.  `family` is "" for a row that belongs to no family."""

    name: str
    family: str
    key: tuple
    sense: str  # 'L' <=, 'G' >=, 'E' ==
    rhs: float
    cols: memoryview  # int64 column numbers
    coefs: memoryview  # float64 coefficients, one per column

    def activity(self, values: np.ndarray) -> float:
        return float(sum(v * values[c] for c, v in zip(self.cols, self.coefs)))


@dataclass(frozen=True)
class RowBlock:
    """Every constraint row as one read-only CSR matrix plus per-row labels.

    Row r has columns `indices[indptr[r]:indptr[r + 1]]` with coefficients
    `data[...]` in the same slice.  Families occupy contiguous row ranges
    in ROW_FAMILIES order: family k is rows
    `family_offsets[k]:family_offsets[k + 1]`.  Rows past the last offset
    belong to no family (`Row.family` is ""); only `capacity_cover`'s
    rows do that.
    """

    indptr: np.ndarray  # int64, n_rows + 1
    indices: np.ndarray  # int64, one per nonzero
    data: np.ndarray  # float64, one per nonzero
    sense: np.ndarray  # '<U1': 'L', 'G' or 'E' per row
    rhs: np.ndarray  # float64 per row
    names: tuple[str, ...]
    keys: tuple[tuple, ...]
    family_offsets: tuple[int, ...]

    def __post_init__(self) -> None:
        for arr in (self.indptr, self.indices, self.data, self.sense, self.rhs):
            arr.flags.writeable = False

    @property
    def n_rows(self) -> int:
        return len(self.names)

    def family_slice(self, family: str) -> slice:
        k = ROW_FAMILIES.index(family)
        return slice(self.family_offsets[k], self.family_offsets[k + 1])

    def activities(self, x: np.ndarray) -> np.ndarray:
        """A @ x: one gather over the nonzeros, summed per row; 0 on empty rows."""
        products = self.data * x[self.indices]
        act = np.zeros(self.n_rows, dtype=np.float64)
        starts = self.indptr[:-1]
        nonempty = starts < self.indptr[1:]
        if nonempty.any():
            act[nonempty] = np.add.reduceat(products, starts[nonempty])
        return act

    def row(self, r: int) -> Row:
        """Row r as a `Row`, for tests and the benchmark's workloads only."""
        lo, hi = self.indptr[r], self.indptr[r + 1]
        # the last family starting at or before r: an empty family starts
        # where the next one does, so it is never the one found; a row past
        # the last offset finds the end of ROW_FAMILIES and has family ""
        k = bisect.bisect_right(self.family_offsets, r) - 1
        return Row(
            name=self.names[r],
            family=ROW_FAMILIES[k] if k < len(ROW_FAMILIES) else "",
            key=self.keys[r],
            sense=str(self.sense[r]),
            rhs=float(self.rhs[r]),
            cols=memoryview(self.indices)[lo:hi],
            coefs=memoryview(self.data)[lo:hi],
        )


@dataclass(frozen=True)
class Model:
    """Solver-independent MILP: columns, objective, rows, plus build context."""

    prune: bool
    index: VariableIndex
    objective: np.ndarray
    constraints: RowBlock
    # `forced_inflow_tons(inst)`: read-only (echelon, period), the tons the
    # quota forces through each echelon (ECHELON_TAGS order) in each period
    forced_tons: np.ndarray
    fingerprint: str

    @property
    def n_columns(self) -> int:
        return self.index.n_columns

    @property
    def n_rows(self) -> int:
        return self.constraints.n_rows

    @property
    def binary_columns(self) -> range:
        return range(self.index.n_continuous, self.index.n_columns)

    @property
    def rows(self) -> tuple[Row, ...]:
        """The rows as `Row` objects, one per row, built from `constraints`
        on each access and not kept.  Each reads its entries through views
        of the CSR arrays, so the matrix is never copied.  Only tests and
        the benchmark's workloads read it; the package's writers, readers
        and verification use `constraints`."""
        return tuple(self.constraints.row(r) for r in range(self.n_rows))


def _demand_row_keys(inst: Instance, materials: tuple[str, ...]) -> Iterator[tuple[int, str, int]]:
    """(period position, material, sink position) of each demand row: every
    defined demand entry, plus every (t, p, sink) with p in `materials`,
    the sink leg's.  Absent entries cap at 0; without the row, an
    undeclared demand would silently become unlimited."""
    for t_pos, t in enumerate(inst.periods):
        for p in inst.materials:
            for j, s in enumerate(inst.sinks):
                if p in materials or (t.id, p) in s.demand:
                    yield t_pos, p, j


def _source_row_keys(inst: Instance, materials: tuple[str, ...]) -> Iterator[tuple[int, str, int]]:
    """(period position, material, source position) of each source_cap row:
    every positive supply entry, plus every (t, p, source) with p in
    `materials`, the source leg's."""
    for t_pos, t in enumerate(inst.periods):
        for p in inst.materials:
            for i, s in enumerate(inst.sources):
                if p in materials or s.supply.get((t.id, p), 0.0) > 0.0:
                    yield t_pos, p, i


def count_rows(inst: Instance, prune: bool = True) -> dict[str, int]:
    """Row counts per family by closed-form counting, no row objects built."""
    shipped = inst.leg_materials(LEG_OUT_OF["sources"], prune)
    delivered = inst.leg_materials(LEG_INTO["sinks"], prune)
    counts = {
        "demand": sum(1 for _ in _demand_row_keys(inst, delivered)),
        "quota": sum(1 for v in inst.quota.values() if v > 0.0),
        "source_cap": sum(1 for _ in _source_row_keys(inst, shipped)),
        "flow_balance": len(inst.periods)
        * sum(len(spec.outputs) * len(spec.sites) for _, spec in inst.echelons()),
        "facility_cap": len(inst.periods)
        * sum(len(spec.sites) * len(spec.size_options) for _, spec in inst.echelons()),
        "one_size": sum(len(spec.sites) for _, spec in inst.echelons()),
    }
    counts["total"] = sum(counts[f] for f in ROW_FAMILIES)
    return counts


def build_objective(inst: Instance, vindex: VariableIndex,
                    dists: tuple[np.ndarray, ...]) -> np.ndarray:
    """Objective coefficient vector over the full column space: each flow
    column costs `instance.flow_costs` of its leg, with D from
    `build_leg_matrices`, at every size option of its destination; each
    install column costs `instance.install_costs` of its size option."""
    obj = np.zeros(vindex.n_columns, dtype=np.float64)
    for space, km in zip(vindex.legs, dists):
        if space.count:
            # one per-ton cost for every size option of the destination
            per_ton = flow_costs(inst, space.leg, space.materials, km).ravel()
            obj[space.start : space.start + space.count] = np.repeat(per_ton, len(space.sizes) or 1)
    for space in vindex.installs:
        cost = install_costs(inst, space.echelon)
        obj[space.start : space.start + space.count] = np.tile(cost, len(space.sites))
    return obj


def _row_name(prefix: str, *parts: str) -> str:
    return _name("row", prefix, parts)


def build_rows(inst: Instance, vindex: VariableIndex) -> RowBlock:
    """All constraint rows in canonical family order as one CSR block; see
    module docstring.  Each row's columns are a slice of its block's column
    grid, not one offset call per column."""
    names: list[str] = []
    keys: list[tuple] = []
    senses: list[str] = []
    rhs: list[float] = []
    row_nnz: list[int] = []
    family_offsets = [0]
    # nonzeros as segments of columns sharing one coefficient
    seg_cols: list[np.ndarray] = []
    seg_coef: list[float] = []

    def emit(name: str, key: tuple, sense: str, b: float,
             *segments: tuple[np.ndarray, float]) -> None:
        names.append(name)
        keys.append(key)
        senses.append(sense)
        rhs.append(b)
        for cols, coef in segments:
            seg_cols.append(cols)
            seg_coef.append(coef)
        row_nnz.append(sum(len(cols) for cols, _ in segments))

    source_leg, sink_leg = vindex.leg(LEG_OUT_OF["sources"]), vindex.leg(LEG_INTO["sinks"])
    no_cols = np.zeros(0, dtype=np.int64)
    # local to this build: kept on the blocks, the grids would hold about
    # 3 MB in every default-shape model
    grid = {block: block.grid() for block in vindex.legs + vindex.installs}

    def leg_cols(space: LegSpace, t: int, p_id: str, i: int | slice = slice(None),
                 j: int | slice = slice(None)) -> np.ndarray:
        """Columns of one leg for fixed (t, material) and optional origin/dest, all sizes."""
        if p_id not in space.materials:
            return no_cols
        return grid[space][t, space.materials.index(p_id), i, j].ravel()

    # demand: inflow at a sink capped by declared demand (0 when undeclared)
    for t_idx, p, j_idx in _demand_row_keys(inst, sink_leg.materials):
        t, s = inst.periods[t_idx].id, inst.sinks[j_idx]
        emit(_row_name("dem", t, p, s.node.id), (t, p, s.node.id),
             "L", s.demand.get((t, p), 0.0), (leg_cols(sink_leg, t_idx, p, j=j_idx), 1.0))
    family_offsets.append(len(names))

    # quota: collected tons of p must reach the mandated share of total supply
    for t_idx, t in enumerate(inst.periods):
        for p in inst.materials:
            eta = inst.quota_at(t.id, p)
            if eta <= 0.0:
                continue
            emit(_row_name("quo", t.id, p), (t.id, p), "G",
                 eta * inst.supply_total(t.id, p), (leg_cols(source_leg, t_idx, p), 1.0))
    family_offsets.append(len(names))

    # source_cap: shipments out of a source capped by its supply
    for t_idx, p, i_idx in _source_row_keys(inst, source_leg.materials):
        t, s = inst.periods[t_idx].id, inst.sources[i_idx]
        emit(_row_name("src", t, p, s.node.id), (t, p, s.node.id),
             "L", s.supply.get((t, p), 0.0), (leg_cols(source_leg, t_idx, p, i=i_idx), 1.0))
    family_offsets.append(len(names))

    # flow_balance: yield * admissible inflow == outflow, per output material
    for tag in ECHELON_TAGS:
        spec = inst.echelon(tag)
        lin, lout = vindex.leg(LEG_INTO[tag]), vindex.leg(LEG_OUT_OF[tag])
        admissible_in = tuple(p for p in lin.materials if p in spec.inputs)
        for t_idx, t in enumerate(inst.periods):
            for p_out in spec.outputs:
                gamma = spec.yields[p_out]
                for j_idx, site in enumerate(spec.sites):
                    inflow = [(leg_cols(lin, t_idx, p_in, j=j_idx), gamma)
                              for p_in in admissible_in] if gamma != 0.0 else []
                    emit(_row_name(f"bal{tag}", t.id, p_out, site.id),
                         (tag, t.id, p_out, site.id), "E", 0.0,
                         *inflow, (leg_cols(lout, t_idx, p_out, i=j_idx), -1.0))
    family_offsets.append(len(names))

    # facility_cap: inflow booked at size c at a site, against capacity * install
    for tag in ECHELON_TAGS:
        spec = inst.echelon(tag)
        lin = vindex.leg(LEG_INTO[tag])
        ispace = vindex.install(tag)
        for t_idx, t in enumerate(inst.periods):
            for j_idx, site in enumerate(spec.sites):
                for c_idx, opt in enumerate(spec.size_options):
                    emit(_row_name(f"cap{tag}", t.id, site.id, opt.id),
                         (tag, t.id, site.id, opt.id), "L", 0.0,
                         (grid[lin][t_idx, :, :, j_idx, c_idx].ravel(), 1.0),
                         (grid[ispace][j_idx, c_idx:c_idx + 1], -opt.max_capacity_tons))
    family_offsets.append(len(names))

    # one_size: at most one size option installed per site
    for tag in ECHELON_TAGS:
        spec = inst.echelon(tag)
        ispace = vindex.install(tag)
        for j_idx, site in enumerate(spec.sites):
            emit(_row_name(f"one{tag}", site.id), (tag, site.id), "L", 1.0,
                 (grid[ispace][j_idx], 1.0))
    family_offsets.append(len(names))

    return RowBlock(
        indptr=np.concatenate(([0], np.cumsum(row_nnz, dtype=np.int64))),
        indices=np.concatenate(seg_cols) if seg_cols else no_cols,
        data=np.repeat(np.array(seg_coef, dtype=np.float64), [len(c) for c in seg_cols]),
        sense=np.array(senses, dtype="<U1"),
        rhs=np.array(rhs, dtype=np.float64),
        names=tuple(names),
        keys=tuple(keys),
        family_offsets=tuple(family_offsets),
    )


def build_milp(inst: Instance, prune: bool = True) -> Model:
    """Assemble the complete model; deterministic for identical inputs."""
    vindex = VariableIndex(inst, prune)
    objective = build_objective(inst, vindex, build_leg_matrices(inst))
    constraints = build_rows(inst, vindex)
    counts = count_rows(inst, prune)
    assert constraints.n_rows == counts["total"], "row generation disagrees with closed-form count"
    fingerprint = hashlib.sha256(serialize_instance(inst).encode()).hexdigest()
    return Model(
        prune=prune,
        index=vindex,
        objective=objective,
        constraints=constraints,
        forced_tons=forced_inflow_tons(inst),
        fingerprint=fingerprint,
    )


@dataclass(frozen=True)
class SizeProjection:
    """A model with every flow merged over its destination's size axis and
    each site's `facility_cap` rows summed over sizes (`project_sizes`).

    Projected column k stands for canonical column `columns[k]`: a merged
    flow is its first size's column and keeps that column's name, so the
    model's `VariableIndex` resolves every name of the projection.  Each
    summed row keeps the name and key of its first member.
    """

    columns: np.ndarray  # int64, ascending: the canonical column of each projected one
    objective: np.ndarray
    constraints: RowBlock
    n_continuous: int

    @property
    def n_columns(self) -> int:
        return len(self.columns)

    @property
    def n_rows(self) -> int:
        return self.constraints.n_rows


def project_sizes(model: Model) -> SizeProjection:
    """The size-aggregated projection of `model`.

    Each flow x[t, p, i, j, c] into a facility merges over c into its first
    size's column, and the `facility_cap` rows of one (echelon, t, site)
    are summed: sum over p, i, c of x <= sum over c of cap_c * b[j, c].
    Per-ton costs do not depend on the size and `one_size` installs at most
    one size per site, so this is exact, with the same LP bound: the
    parallel-column reduction of Achterberg et al., INFORMS J. Computing
    32(2), 2020.  A solution of the projection becomes one of the model
    once each site's summed flows sit at its installed size
    (`model_io._lift_sizes`).  A model where every echelon has one size
    projects onto itself.

    Built from the model alone, the leg blocks' axes and the rows' keys.
    ModelError if two merged columns differ in cost or in any row of the
    summed matrix.
    """
    index, block = model.index, model.constraints
    n, n_rows = index.n_columns, block.n_rows
    # every column -> the first-size column of its (leg, t, p, origin, dest)
    head = np.arange(n, dtype=np.int64)
    for leg in index.legs:
        if leg.sizes:
            grid = leg.grid()
            head[grid] = grid[..., :1]
    # every row -> the first facility_cap row of its (echelon, t, site)
    row_head = np.arange(n_rows, dtype=np.int64)
    first: dict[tuple, int] = {}
    cap = block.family_slice("facility_cap")
    for r in range(cap.start, cap.stop):
        row_head[r] = first.setdefault(block.keys[r][:3], r)
    columns = np.flatnonzero(head == np.arange(n))
    kept_rows = np.flatnonzero(row_head == np.arange(n_rows))
    row_to = np.searchsorted(kept_rows, row_head)
    n_kept = len(kept_rows)

    # the summed matrix's (row, column, value) entries in row order, then in
    # column order: `row_to` does not decrease, so a stable sort leaves each
    # column's rows ascending; a built model has one entry per (column, row)
    nonzero = block.data != 0.0
    entries = (row_to[np.repeat(np.arange(n_rows, dtype=np.int64), np.diff(block.indptr))[nonzero]],
               block.indices[nonzero], block.data[nonzero])
    order = np.argsort(entries[1], kind="stable")
    rows, cols, data = (field[order] for field in entries)
    repeated = np.flatnonzero((cols[1:] == cols[:-1]) & (rows[1:] <= rows[:-1]))
    if len(repeated):
        raise ModelError(f"column {index.column_name(int(cols[repeated[0]]))} has more than one "
                         "entry in a summed row; the size projection is not exact")

    # merged columns agree entry by entry with their head column
    count = np.bincount(cols, minlength=n)
    start = np.cumsum(count) - count
    differs = (count != count[head]) | (model.objective != model.objective[head])
    partner = np.where(differs[cols], np.arange(len(cols)),
                       start[head[cols]] + np.arange(len(cols)) - start[cols])
    differs[cols[(rows != rows[partner]) | (data != data[partner])]] = True
    if differs.any():
        c = int(np.argmax(differs))
        raise ModelError(f"columns {index.column_name(int(head[c]))} and {index.column_name(c)} "
                         "differ in cost or in a summed row; the size projection is not exact")

    # the head columns' entries, already in row order in a built model
    keep = head[entries[1]] == entries[1]
    order = np.argsort(entries[0][keep], kind="stable")
    rows, cols, data = (field[keep][order] for field in entries)
    constraints = RowBlock(
        indptr=np.concatenate(([0], np.cumsum(np.bincount(rows, minlength=n_kept)))),
        indices=np.searchsorted(columns, cols),
        data=data,
        sense=block.sense[kept_rows],
        rhs=np.bincount(row_to, weights=block.rhs, minlength=n_kept),
        names=tuple(block.names[r] for r in kept_rows),
        keys=tuple(block.keys[r] for r in kept_rows),
        family_offsets=tuple(int(k) for k in np.searchsorted(kept_rows, block.family_offsets)),
    )
    return SizeProjection(
        columns=columns,
        objective=model.objective[columns],
        constraints=constraints,
        n_continuous=int(np.searchsorted(columns, index.n_continuous)),
    )


def capacity_cover(model: Model, projection: SizeProjection) -> RowBlock:
    """The oracle's capacity screen as rows over the columns of
    `projection`, a projection of `model`: one `G` row per (echelon,
    period) whose forced tons (`Model.forced_tons`) are above 0,

        sum over sites j and sizes c of cap_c * b[j, c] >= forced
                                     - FORCED_TONS_TOL * max(1, forced),

    named `cov<echelon>_<period>` with key (echelon, period), echelons in
    chain order, then periods.  Each coefficient is a binary entry of the
    projection's summed `facility_cap` rows, negated.

    The quota, balance and summed capacity rows imply every cover row, so
    it removes no feasible point and leaves the LP bound where it is.  It
    is the total-capacity inequality of capacitated facility location
    (Aardal, Pochet & Wolsey, Math. Oper. Res. 20(3), 1995): a pure-binary
    knapsack row that a MILP solver separates cover cuts from (Crowder,
    Johnson & Padberg, Oper. Res. 31(5), 1983).  The rows belong to no
    family: every family slice of the block is empty.
    """
    block, forced = projection.constraints, model.forced_tons
    periods = model.index.legs[0].periods
    positive = forced > 0.0
    covered = np.argwhere(positive)  # (echelon, period) of each cover row
    # each (echelon, period)'s cover row, -1 where nothing is forced
    row_of = np.full(forced.shape, -1, dtype=np.int64)
    row_of[positive] = np.arange(len(covered))
    echelon_of = {tag: e for e, tag in enumerate(ECHELON_TAGS)}
    period_of = {t: k for k, t in enumerate(periods)}
    cap = block.family_slice("facility_cap")
    target = np.array([row_of[echelon_of[key[0]], period_of[key[1]]] for key in block.keys[cap]],
                      dtype=np.int64)
    # the summed rows run echelon by echelon, then period by period, so
    # their entries are already in cover-row order
    lo, hi = block.indptr[cap.start], block.indptr[cap.stop]
    rows = np.repeat(target, np.diff(block.indptr[cap.start:cap.stop + 1]))
    cols, data = block.indices[lo:hi], block.data[lo:hi]
    keep = (rows >= 0) & (cols >= projection.n_continuous)
    rows, cols, data = rows[keep], cols[keep], -data[keep]
    tons = forced[positive]
    return RowBlock(
        indptr=np.concatenate(([0], np.cumsum(np.bincount(rows, minlength=len(covered))))),
        indices=cols,
        data=data,
        sense=np.full(len(covered), "G", dtype="<U1"),
        rhs=tons - FORCED_TONS_TOL * np.maximum(1.0, tons),
        names=tuple(_row_name(f"cov{ECHELON_TAGS[e]}", periods[k]) for e, k in covered),
        keys=tuple((ECHELON_TAGS[e], periods[k]) for e, k in covered),
        family_offsets=(0,) * (len(ROW_FAMILIES) + 1),
    )
