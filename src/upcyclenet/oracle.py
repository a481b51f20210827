"""Exact desk-scale solver by exhaustive configuration enumeration.

A configuration fixes every install binary: per candidate site, either
closed or one chosen size option.  For each configuration the remaining
problem is a pure LP over flows, solved with the built-in two-phase
simplex; the minimum over all configurations is the exact MILP optimum,
certified by exhaustion.

This module deliberately assembles its LPs straight from the instance
rather than reusing the canonical model builder, so the two routes check
each other: a bug would have to appear in both, in matching form, to slip
through the equivalence tests.

It assembles one LP per instance, the all-open LP: every site open, its
capacity rows at the widest size.  Each configuration's LP is a
restriction of it: the columns whose origin and destination are both open,
the rows that still have an entry (quota rows always stay), and the
capacity rows at the chosen sizes.  The rows it drops hold at zero flow,
and its capacity rows are only tighter, so its feasible flows, padded with
zeros, are feasible in the all-open LP at the same per-ton costs.

Enumeration order is lexicographic over the flat site tuple (echelons in
chain order, sites in declaration order; 0 means closed, k means the k-th
size option), and ties in objective are resolved toward the earliest, i.e.
lexicographically smallest, configuration.

Two exact pruning rules skip configurations without solving their LP, and
neither changes the reported optimum, configuration or flows:

* the capacity screen drops a configuration whose open capacity cannot
  carry the quota-mandated tonnage;
* the bound prune (always on) solves the all-open LP before the loop.  Its
  flow cost bounds every configuration's flow cost from below, so once an
  incumbent exists a configuration is skipped when its install cost plus
  the bound exceeds the incumbent by more than `TIE_TOL`, i.e. when it
  could never replace the incumbent (Land & Doig, Econometrica 1960).  If
  the all-open LP is infeasible, so is every configuration, and none is
  solved.

Both count towards `pruned`, so `pruned + infeasible + solved ==
enumerated` holds; `bound_pruned` is the bound prune's share.
"""

from __future__ import annotations

import itertools
import math
import time
from collections.abc import Callable, Iterator
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import ModelError, OracleError
from .geo import build_leg_matrices
from .instance import ECHELON_TAGS, LEGS, Instance, forced_inflow_tons
from .model import flow_column_name, install_column_name
from .model_io import Solution
from .simplex import LpResult, solve_lp

Configuration = tuple[int, ...]

# relative: a configuration replaces the incumbent only if cheaper by more
# than this, so ties go to the lexicographically smallest
TIE_TOL = 1e-9
# default enumeration limit: larger instances are refused, not solved
MAX_CONFIGS = 2**20

_LEG_INTO = {"cf": "src_cf", "rtf": "cf_rtf", "cpf": "rtf_cpf", "dpf": "cpf_dpf"}
_LEG_OUT_OF = {"cf": "cf_rtf", "rtf": "rtf_cpf", "cpf": "cpf_dpf", "dpf": "dpf_sink"}


@dataclass(frozen=True)
class OracleCertificate:
    """Proof-by-exhaustion bookkeeping for one solve_exact run."""

    enumerated: int
    pruned: int  # capacity screen and bound prune together
    bound_pruned: int
    infeasible: int
    solved: int
    best_objective: float | None
    best_configuration: Configuration | None
    wall_time_s: float

    def summary(self) -> str:
        best = "none" if self.best_objective is None else repr(self.best_objective)
        return (
            f"configurations enumerated={self.enumerated} pruned={self.pruned} "
            f"bound_pruned={self.bound_pruned} infeasible={self.infeasible} "
            f"solved={self.solved}\n"
            f"best objective={best} configuration={self.best_configuration}\n"
            f"wall time {self.wall_time_s:.3f}s"
        )


class _Slot(NamedTuple):
    """One site's entry in a configuration: 0 closed, k its k-th size option."""

    tag: str
    echelon: int  # position of `tag` in ECHELON_TAGS
    site: int  # position among the echelon's sites
    site_id: str
    sizes: tuple[str, ...]  # size option ids
    caps: tuple[float, ...]  # capacity per size option
    costs: tuple[float, ...]  # install cost per size option, for the horizon


class _SlotTable:
    """The instance's site slots in configuration order, the forced tonnage
    per echelon, and `widest`; the only code that turns a configuration
    into open sites."""

    def __init__(self, inst: Instance) -> None:
        horizon = inst.horizon_years()
        slots = []
        for e, tag in enumerate(ECHELON_TAGS):
            spec = inst.echelon(tag)
            caps = tuple(o.max_capacity_tons for o in spec.size_options)
            costs = tuple(o.install_cost_annual * horizon for o in spec.size_options)
            sizes = tuple(o.id for o in spec.size_options)
            slots += [_Slot(tag, e, j, site.id, sizes, caps, costs)
                      for j, site in enumerate(spec.sites)]
        self.slots = tuple(slots)
        self.count = math.prod(len(s.sizes) + 1 for s in slots)
        # every site open at the size with the largest capacity, first on a tie
        self.widest: Configuration = tuple(1 + s.caps.index(max(s.caps)) for s in slots)
        # per echelon: the largest tonnage the quota forces through it
        per_period = forced_inflow_tons(inst).values()
        self.forced = tuple(max([0.0] + [f[tag] for f in per_period]) for tag in ECHELON_TAGS)

    def configurations(self, max_configs: int) -> Iterator[Configuration]:
        """Every configuration, lexicographic; refuses more than `max_configs`."""
        if self.count > max_configs:
            raise OracleError(
                f"{self.count} configurations exceed the enumeration limit {max_configs}"
            )
        return itertools.product(*(range(len(s.sizes) + 1) for s in self.slots))

    def open_sites(self, config: Configuration) -> list[tuple[_Slot, int]]:
        """(slot, size position) for each open site, in slot order."""
        if len(config) != len(self.slots):
            raise OracleError(f"configuration length {len(config)} != {len(self.slots)} sites")
        opened = []
        for choice, slot in zip(config, self.slots):
            if not 0 <= choice <= len(slot.sizes):
                raise OracleError(f"size choice {choice} out of range at {slot.tag} site {slot.site}")
            if choice:
                opened.append((slot, choice - 1))
        return opened

    def scan(self, config: Configuration) -> tuple[bool, float]:
        """(open capacity covers the forced tonnage, install cost) of a
        configuration from `configurations`, unchecked: the oracle's
        capacity screen, run on every configuration it enumerates."""
        open_capacity = [0.0] * len(ECHELON_TAGS)
        install = 0.0
        for choice, slot in zip(config, self.slots):
            if choice:
                open_capacity[slot.echelon] += slot.caps[choice - 1]
                install += slot.costs[choice - 1]
        fits = all(forced <= cap + 1e-9 * max(1.0, forced)
                   for forced, cap in zip(self.forced, open_capacity))
        return fits, install

    def install_values(self, config: Configuration) -> dict[str, float]:
        """Install column name -> 1.0 for each open site."""
        return {install_column_name(slot.tag, slot.site_id, slot.sizes[c]): 1.0
                for slot, c in self.open_sites(config)}


def count_configurations(inst: Instance) -> int:
    return _SlotTable(inst).count


def enumerate_configurations(inst: Instance, max_configs: int = MAX_CONFIGS):
    """Complete lexicographic stream of all configurations; refuses when the
    product of per-site choices exceeds `max_configs`."""
    return _SlotTable(inst).configurations(max_configs)


def describe_configuration(inst: Instance, config: Configuration) -> dict[str, dict[str, str | None]]:
    """Human view: echelon -> site id -> chosen size id or None when closed."""
    table = _SlotTable(inst)
    desc: dict[str, dict[str, str | None]] = {tag: {} for tag in ECHELON_TAGS}
    for slot in table.slots:
        desc[slot.tag][slot.site_id] = None
    for slot, c in table.open_sites(config):
        desc[slot.tag][slot.site_id] = slot.sizes[c]
    return desc


@dataclass
class FlowLpResult:
    status: str  # 'optimal' | 'infeasible'
    objective: float  # includes the configuration's installation cost
    flows: dict[str, float]  # column name -> tons, nonzero entries only
    iterations: int


class _LpFactory:
    """The instance's all-open flow LP, and its restriction to each
    configuration as the module docstring describes."""

    def __init__(self, inst: Instance, prune: bool, slots: _SlotTable) -> None:
        self.inst = inst
        self.slots = slots
        self.leg_mats = {leg: inst.leg_materials(leg, prune) for leg, _, _ in LEGS}
        dt = np.array([t.duration_years for t in inst.periods], dtype=np.float64)
        # columns in leg chain order, (t, p, origin, dest) lexicographic;
        # ids[leg][t, p, i, j] is the column of that flow
        self.ids: dict[str, np.ndarray] = {}
        costs = []
        n = 0
        for (leg, _, dest_role), dist in zip(LEGS, build_leg_matrices(inst)):
            mats = self.leg_mats[leg]
            for p in mats:
                if p not in inst.transport_cost:
                    raise ModelError(
                        f"material '{p}' rides leg '{leg}' but has no transport_cost entry"
                    )
            rate = np.array([inst.transport_cost[p] for p in mats], dtype=np.float64)
            km = dist.km
            op = inst.echelon(dest_role).op_cost_per_ton if dest_role in ECHELON_TAGS else 0.0
            # (T, P, O, D) per-ton coefficient
            cost = dt[:, None, None, None] * (
                op + 2.0 * km[None, None, :, :] * rate[None, :, None, None]
            )
            self.ids[leg] = n + np.arange(cost.size).reshape(cost.shape)
            n += cost.size
            costs.append(cost.ravel())
        self.obj = np.concatenate(costs)

        rows: list[np.ndarray] = []
        self.senses: list[str] = []
        rhs: list[float] = []

        def add_row(sense: str, value: float, *entries: tuple[np.ndarray, float]) -> int:
            row = np.zeros(n, dtype=np.float64)
            for cols, coef in entries:
                row[cols] = coef
            rows.append(row)
            self.senses.append(sense)
            rhs.append(value)
            return len(rows) - 1

        ids = self.ids
        mat_pos = {leg: {p: k for k, p in enumerate(mats)} for leg, mats in self.leg_mats.items()}

        # demand: inflow at a sink capped by its declared demand (0 if absent)
        for t_pos, t in enumerate(inst.periods):
            for p_pos, p in enumerate(self.leg_mats["dpf_sink"]):
                for n_pos, sink in enumerate(inst.sinks):
                    add_row("L", sink.demand.get((t.id, p), 0.0),
                            (ids["dpf_sink"][t_pos, p_pos, :, n_pos], 1.0))

        # quota: collected tons reach the mandated share even if no CF is open
        quota_rows = []
        for t_pos, t in enumerate(inst.periods):
            for p in inst.materials:
                eta = inst.quota_at(t.id, p)
                if eta <= 0.0:
                    continue
                entries = []
                if p in mat_pos["src_cf"]:
                    entries.append((ids["src_cf"][t_pos, mat_pos["src_cf"][p]], 1.0))
                quota_rows.append(add_row("G", eta * inst.supply_total(t.id, p), *entries))

        # source_cap: shipments out of a source limited by its supply
        for t_pos, t in enumerate(inst.periods):
            for p_pos, p in enumerate(self.leg_mats["src_cf"]):
                for i_pos, src in enumerate(inst.sources):
                    add_row("L", src.supply.get((t.id, p), 0.0),
                            (ids["src_cf"][t_pos, p_pos, i_pos, :], 1.0))

        # flow_balance at every site: yield * admissible inflow == outflow
        for tag in ECHELON_TAGS:
            spec = inst.echelon(tag)
            lin, lout = _LEG_INTO[tag], _LEG_OUT_OF[tag]
            admissible = [k for k, p in enumerate(self.leg_mats[lin]) if p in spec.inputs]
            for t_pos in range(len(inst.periods)):
                for p_out in spec.outputs:
                    gamma = spec.yields[p_out]
                    for j in range(len(spec.sites)):
                        entries = []
                        if gamma != 0.0:
                            entries.append((ids[lin][t_pos, admissible, :, j], gamma))
                        if p_out in mat_pos[lout]:
                            entries.append((ids[lout][t_pos, mat_pos[lout][p_out], j, :], -1.0))
                        add_row("E", 0.0, *entries)

        # facility_cap at the widest size: total inflow within capacity;
        # cap_rows[tag][t, j] is the row of site j in period t
        self.cap_rows: dict[str, np.ndarray] = {}
        for tag in ECHELON_TAGS:
            spec = inst.echelon(tag)
            widest = max(o.max_capacity_tons for o in spec.size_options)
            self.cap_rows[tag] = np.array([
                [add_row("L", widest, (ids[_LEG_INTO[tag]][t_pos, :, :, j], 1.0))
                 for j in range(len(spec.sites))]
                for t_pos in range(len(inst.periods))
            ], dtype=np.intp)

        self.a = np.array(rows, dtype=np.float64).reshape(len(rows), n)
        self.rhs = np.array(rhs, dtype=np.float64)
        self.quota = np.zeros(len(rows), dtype=bool)
        self.quota[quota_rows] = True

    def solve(self, config: Configuration, permute_seed: int | None = None) -> LpResult:
        """Solve the configuration's restriction of the all-open LP.  `x` is
        padded with zeros to the all-open columns, and the objective is the
        flow cost only; callers add the installation cost."""
        is_open = {role: np.ones(len(self.inst.role_nodes(role)), dtype=bool)
                   for role in ("sources", "sinks")}
        is_open.update((tag, np.zeros(len(self.inst.echelon(tag).sites), dtype=bool))
                       for tag in ECHELON_TAGS)
        rhs = self.rhs.copy()
        for slot, c in self.slots.open_sites(config):
            is_open[slot.tag][slot.site] = True
            rhs[self.cap_rows[slot.tag][:, slot.site]] = slot.caps[c]
        cols = np.concatenate([self.ids[leg][:, :, is_open[o]][..., is_open[d]].ravel()
                               for leg, o, d in LEGS])
        rows = np.flatnonzero(self.quota | (self.a[:, cols] != 0.0).any(axis=1))
        order = cols
        if permute_seed is not None:
            order = cols[np.random.default_rng(permute_seed).permutation(cols.size)]
        result = solve_lp(self.obj[order], self.a[np.ix_(rows, order)],
                          [self.senses[r] for r in rows], rhs[rows])
        if result.status == "infeasible":
            return LpResult("infeasible", 0.0, None, result.iterations)
        if result.status == "unbounded":
            raise OracleError("flow subproblem unbounded; objective data must be nonnegative")
        x = np.zeros(self.obj.size, dtype=np.float64)
        x[order] = result.x
        return LpResult("optimal", float(self.obj[cols] @ x[cols]), x, result.iterations)

    def flows(self, config: Configuration, x: np.ndarray) -> dict[str, float]:
        """Column name -> tons for the nonzero entries of a padded `x`."""
        inst = self.inst
        size_ids = {(slot.tag, slot.site): slot.sizes[c]
                    for slot, c in self.slots.open_sites(config)}
        flows: dict[str, float] = {}
        for leg, origin_role, dest_role in LEGS:
            block = x[self.ids[leg]]
            mats = self.leg_mats[leg]
            origins, dests = inst.role_nodes(origin_role), inst.role_nodes(dest_role)
            for t_pos, p_pos, i, j in zip(*np.nonzero(block)):
                size_id = size_ids[dest_role, j] if dest_role in ECHELON_TAGS else None
                name = flow_column_name(leg, inst.periods[t_pos].id, mats[p_pos],
                                        origins[i].id, dests[j].id, size_id)
                flows[name] = float(block[t_pos, p_pos, i, j])
        return flows

    def flow_bound(self, permute_seed: int | None = None) -> float | None:
        """Flow cost (objective minus install cost) of `slots.widest`, every
        site open at its largest size: a lower bound on every
        configuration's flow cost.  None when even that LP is infeasible."""
        result = self.solve(self.slots.widest, permute_seed)
        return None if result.status == "infeasible" else result.objective


def solve_flow_lp(inst: Instance, config: Configuration, prune: bool = True,
                  permute_seed: int | None = None) -> FlowLpResult:
    """Solve the flow LP for one fixed configuration; objective includes the
    configuration's installation cost."""
    return _solve_flow_lp(_LpFactory(inst, prune, _SlotTable(inst)), config, permute_seed)


def _solve_flow_lp(factory: _LpFactory, config: Configuration,
                   permute_seed: int | None = None) -> FlowLpResult:
    """`solve_flow_lp` on an assembled factory, which a caller solving many
    configurations of one instance builds once."""
    result = factory.solve(config, permute_seed)
    if result.x is None:
        return FlowLpResult(result.status, result.objective, {}, result.iterations)
    return FlowLpResult(result.status, result.objective + factory.slots.scan(config)[1],
                        factory.flows(config, result.x), result.iterations)


def solve_exact(inst: Instance, max_configs: int = MAX_CONFIGS, prune: bool = True,
                permute_seed: int | None = None,
                progress: Callable[[int, int], None] | None = None,
                ) -> tuple[Solution, OracleCertificate]:
    """Global optimum by exhaustion.  Any simplex abort poisons the whole
    run, the bound LP's included; it is never converted into an
    infeasibility claim.

    An instance with more than `max_configs` configurations is refused
    with `OracleError` before any LP is assembled or solved.  `progress`,
    if given, is called every 512 configurations with (configurations
    examined, total count).
    """
    t0 = time.monotonic()
    slots = _SlotTable(inst)
    # refuse before the all-open LP is assembled
    configurations = slots.configurations(max_configs)
    factory = _LpFactory(inst, prune, slots)
    flow_bound = factory.flow_bound(permute_seed)
    enumerated = pruned = bound_pruned = infeasible = solved = 0
    best_obj: float | None = None
    best_config: Configuration | None = None
    best_x: np.ndarray | None = None
    for config in configurations:
        enumerated += 1
        if progress is not None and enumerated % 512 == 0:
            progress(enumerated, slots.count)
        fits, install = slots.scan(config)
        if not fits:
            pruned += 1
            continue
        if flow_bound is None:
            infeasible += 1
            continue
        # the margin sits on the incumbent's side, so a pruned configuration
        # could not have replaced the incumbent under the rule below
        if best_obj is not None and (
                install + flow_bound > best_obj + TIE_TOL * max(1.0, abs(best_obj))):
            pruned += 1
            bound_pruned += 1
            continue
        result = factory.solve(config, permute_seed)
        if result.status == "infeasible":
            infeasible += 1
            continue
        solved += 1
        objective = result.objective + install
        if best_obj is None or objective < best_obj - TIE_TOL * max(1.0, abs(best_obj)):
            best_obj = objective
            best_config = config
            best_x = result.x
    wall = time.monotonic() - t0
    cert = OracleCertificate(
        enumerated=enumerated,
        pruned=pruned,
        bound_pruned=bound_pruned,
        infeasible=infeasible,
        solved=solved,
        best_objective=best_obj,
        best_configuration=best_config,
        wall_time_s=wall,
    )
    if best_obj is None:
        sol = Solution(values={}, objective_reported=0.0, status="infeasible", source="oracle")
        return sol, cert
    values = factory.flows(best_config, best_x)
    values.update(slots.install_values(best_config))
    sol = Solution(
        values=values,
        objective_reported=best_obj,
        status="optimal",
        source="oracle",
        bound=best_obj,
        gap=0.0,
    )
    return sol, cert
