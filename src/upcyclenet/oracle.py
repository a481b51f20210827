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

Enumeration order is lexicographic over the flat site tuple (echelons in
chain order, sites in declaration order; 0 means closed, k means the k-th
size option), and ties in objective are resolved toward the earliest, i.e.
lexicographically smallest, configuration.

Two exact pruning rules skip configurations without solving their LP, and
neither changes the reported optimum, configuration or flows:

* the capacity screen (optional, `OracleLimits.capacity_pruning`) drops a
  configuration whose open capacity cannot carry the quota-mandated
  tonnage;
* the bound prune (always on) solves one LP per instance before the loop,
  with every site open at its widest size.  Any configuration's feasible
  flows, padded with zeros, are feasible there: closed-site rows involve
  only closed-site columns, capacity rows only get looser, and per-ton
  costs do not depend on size.  So that LP's flow cost bounds every
  configuration's flow cost from below, and once an incumbent exists a
  configuration is skipped when its install cost plus the bound exceeds
  the incumbent by more than `tie_tol`, i.e. when it could never replace
  the incumbent (Land & Doig, Econometrica 1960).  If the widest LP is
  infeasible, so is every configuration, and none is solved.

Both count towards `pruned`, so `pruned + infeasible + solved ==
enumerated` holds; `bound_pruned` is the bound prune's share.
"""

from __future__ import annotations

import itertools
import math
import time
from collections.abc import Callable
from dataclasses import dataclass

import numpy as np

from .errors import ModelError, OracleError
from .geo import build_leg_matrices
from .instance import (
    ECHELON_TAGS,
    LEGS,
    Instance,
    chain_inflow_factors,
    quota_mandated_tons,
)
from .model import flow_column_name, install_column_name
from .model_io import Solution
from .simplex import solve_lp

Configuration = tuple[int, ...]

_LEG_INTO = {"cf": "src_cf", "rtf": "cf_rtf", "cpf": "rtf_cpf", "dpf": "cpf_dpf"}
_LEG_OUT_OF = {"cf": "cf_rtf", "rtf": "rtf_cpf", "cpf": "cpf_dpf", "dpf": "dpf_sink"}
_IN_ROLE = {"cf": "sources", "rtf": "cf", "cpf": "rtf", "dpf": "cpf"}
_OUT_ROLE = {"cf": "rtf", "rtf": "cpf", "cpf": "dpf", "dpf": "sinks"}


@dataclass(frozen=True)
class OracleLimits:
    max_configs: int = 2**20
    max_iterations: int = 50_000
    degenerate_limit: int = 1_000
    phase1_tol: float = 1e-7
    capacity_pruning: bool = True
    tie_tol: float = 1e-9


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


def site_slots(inst: Instance) -> tuple[tuple[str, int, int], ...]:
    """Flat (echelon, site position, size count) in configuration order."""
    slots = []
    for tag in ECHELON_TAGS:
        spec = inst.echelon(tag)
        for j in range(len(spec.sites)):
            slots.append((tag, j, len(spec.size_options)))
    return tuple(slots)


def count_configurations(inst: Instance) -> int:
    return math.prod(n + 1 for _, _, n in site_slots(inst))


def enumerate_configurations(inst: Instance, limits: OracleLimits | None = None):
    """Complete lexicographic stream of all configurations; refuses when the
    product of per-site choices exceeds the configured ceiling."""
    limits = limits or OracleLimits()
    total = count_configurations(inst)
    if total > limits.max_configs:
        raise OracleError(
            f"{total} configurations exceed the enumeration limit {limits.max_configs}"
        )
    ranges = [range(n + 1) for _, _, n in site_slots(inst)]
    return itertools.product(*ranges)


def config_choices(inst: Instance, config: Configuration) -> dict[str, list[tuple[int, int]]]:
    """Open sites per echelon as (site position, size position) pairs."""
    slots = site_slots(inst)
    if len(config) != len(slots):
        raise OracleError(f"configuration length {len(config)} != {len(slots)} sites")
    out: dict[str, list[tuple[int, int]]] = {tag: [] for tag in ECHELON_TAGS}
    for choice, (tag, j, n_sizes) in zip(config, slots):
        if not 0 <= choice <= n_sizes:
            raise OracleError(f"size choice {choice} out of range at {tag} site {j}")
        if choice:
            out[tag].append((j, choice - 1))
    return out


def describe_configuration(inst: Instance, config: Configuration) -> dict[str, dict[str, str | None]]:
    """Human view: echelon -> site id -> chosen size id or None when closed."""
    choices = config_choices(inst, config)
    desc: dict[str, dict[str, str | None]] = {}
    for tag in ECHELON_TAGS:
        spec = inst.echelon(tag)
        chosen = dict(choices[tag])
        desc[tag] = {
            site.id: (spec.size_options[chosen[j]].id if j in chosen else None)
            for j, site in enumerate(spec.sites)
        }
    return desc


class _CapacityScreen:
    """Per-slot capacity and install-cost tables, reused per run: one pass
    over a configuration gives the capacity screen and the install cost."""

    def __init__(self, inst: Instance, install_multiplier: float = 1.0) -> None:
        factors = chain_inflow_factors(inst)
        # per echelon: the largest tonnage the quota forces through it
        forced = {tag: 0.0 for tag in ECHELON_TAGS}
        for t in inst.periods:
            mandated_all, mandated_collectable = quota_mandated_tons(inst, t.id)
            for tag in ECHELON_TAGS:
                base = mandated_all if tag == "cf" else mandated_collectable
                forced[tag] = max(forced[tag], factors[tag] * base)
        self.forced = tuple(forced[tag] for tag in ECHELON_TAGS)
        # per slot: (echelon position, capacity per size, install cost per size)
        self.tables: list[tuple[int, tuple[float, ...], tuple[float, ...]]] = []
        widest = []
        for e, tag in enumerate(ECHELON_TAGS):
            opts = inst.echelon(tag).size_options
            caps = tuple(o.max_capacity_tons for o in opts)
            costs = tuple(o.install_cost_annual * install_multiplier for o in opts)
            for _ in inst.echelon(tag).sites:
                self.tables.append((e, caps, costs))
                widest.append(1 + caps.index(max(caps)))
        # every site open at the size with the largest capacity, first on a tie
        self.widest: Configuration = tuple(widest)

    def scan(self, config: Configuration) -> tuple[bool, float]:
        """(open capacity covers the forced tonnage, install cost)."""
        open_capacity = [0.0] * len(ECHELON_TAGS)
        install = 0.0
        for choice, (e, caps, costs) in zip(config, self.tables):
            if choice:
                open_capacity[e] += caps[choice - 1]
                install += costs[choice - 1]
        fits = all(forced <= cap + 1e-9 * max(1.0, forced)
                   for forced, cap in zip(self.forced, open_capacity))
        return fits, install


def config_capacity_feasible(inst: Instance, config: Configuration) -> bool:
    """Necessary condition: open capacity per echelon covers the tonnage the
    quota provably forces through it.  False means the configuration cannot
    be feasible; True promises nothing."""
    screen = _CapacityScreen(inst)
    if len(config) != len(screen.tables):
        raise OracleError(f"configuration length {len(config)} != {len(screen.tables)} sites")
    return screen.scan(config)[0]


@dataclass
class FlowLpResult:
    status: str  # 'optimal' | 'infeasible'
    objective: float  # includes the configuration's installation cost
    flows: dict[str, float]  # column name -> tons, nonzero entries only
    iterations: int


class _LpFactory:
    """Per-instance precomputation shared across all configuration LPs."""

    def __init__(self, inst: Instance, prune: bool, install_cost_mode: str) -> None:
        self.inst = inst
        self.prune = prune
        dists = {d.leg: d for d in build_leg_matrices(inst)}
        self.leg_mats = {leg: inst.leg_materials(leg, prune) for leg, _, _ in LEGS}
        horizon = inst.horizon_years()
        install_multiplier = horizon if install_cost_mode == "annualized_times_horizon" else 1.0
        self.screen = _CapacityScreen(inst, install_multiplier)
        dt = np.array([t.duration_years for t in inst.periods], dtype=np.float64)
        self.cost: dict[str, np.ndarray] = {}
        for leg, _, dest_role in LEGS:
            mats = self.leg_mats[leg]
            for p in mats:
                if p not in inst.transport_cost:
                    raise ModelError(
                        f"material '{p}' rides leg '{leg}' but has no transport_cost entry"
                    )
            rate = np.array([inst.transport_cost[p] for p in mats], dtype=np.float64)
            km = dists[leg].km
            op = inst.echelon(dest_role).op_cost_per_ton if dest_role in ECHELON_TAGS else 0.0
            # (T, P, O, D) per-ton coefficient
            self.cost[leg] = dt[:, None, None, None] * (
                op + 2.0 * km[None, None, :, :] * rate[None, :, None, None]
            )

    def solve(self, config: Configuration, limits: OracleLimits,
              permute_seed: int | None = None) -> FlowLpResult:
        inst = self.inst
        choices = config_choices(inst, config)
        open_sites = {tag: [j for j, _ in choices[tag]] for tag in ECHELON_TAGS}
        chosen_size = {tag: dict(choices[tag]) for tag in ECHELON_TAGS}

        role_members: dict[str, list[int]] = {
            "sources": list(range(len(inst.sources))),
            "sinks": list(range(len(inst.sinks))),
        }
        for tag in ECHELON_TAGS:
            role_members[tag] = open_sites[tag]

        # columns in leg chain order, (t, p, origin, dest) lexicographic
        cols: list[tuple[str, int, str, int, int]] = []
        col_id: dict[tuple[str, int, str, int, int], int] = {}
        obj: list[float] = []
        for leg, origin_role, dest_role in LEGS:
            mats = self.leg_mats[leg]
            cost = self.cost[leg]
            for t_idx in range(len(inst.periods)):
                for p_idx, p in enumerate(mats):
                    for i in role_members[origin_role]:
                        for j in role_members[dest_role]:
                            key = (leg, t_idx, p, i, j)
                            col_id[key] = len(cols)
                            cols.append(key)
                            obj.append(float(cost[t_idx, p_idx, i, j]))

        rows: list[tuple[str, float, list[tuple[int, float]]]] = []  # (sense, rhs, entries)

        # demand: inflow at a sink capped by its declared demand (0 if absent)
        for t_pos, t in enumerate(inst.periods):
            for p in self.leg_mats["dpf_sink"]:
                for n_pos, sink in enumerate(inst.sinks):
                    entries = [
                        (col_id[("dpf_sink", t_pos, p, m, n_pos)], 1.0)
                        for m in role_members["dpf"]
                    ]
                    if entries:
                        rows.append(("L", sink.demand.get((t.id, p), 0.0), entries))

        # quota: collected tons reach the mandated share even if no CF is open
        for t_pos, t in enumerate(inst.periods):
            for p in inst.materials:
                eta = inst.quota_at(t.id, p)
                if eta <= 0.0:
                    continue
                entries = []
                if p in set(self.leg_mats["src_cf"]):
                    entries = [
                        (col_id[("src_cf", t_pos, p, i, j)], 1.0)
                        for i in role_members["sources"]
                        for j in role_members["cf"]
                    ]
                rows.append(("G", eta * inst.supply_total(t.id, p), entries))

        # source_cap: shipments out of a source limited by its supply
        for t_pos, t in enumerate(inst.periods):
            for p in self.leg_mats["src_cf"]:
                for i_pos, src in enumerate(inst.sources):
                    entries = [
                        (col_id[("src_cf", t_pos, p, i_pos, j)], 1.0)
                        for j in role_members["cf"]
                    ]
                    if entries:
                        rows.append(("L", src.supply.get((t.id, p), 0.0), entries))

        # flow_balance at open facilities: yield * admissible inflow == outflow
        for tag in ECHELON_TAGS:
            spec = inst.echelon(tag)
            lin, lout = _LEG_INTO[tag], _LEG_OUT_OF[tag]
            in_role, out_role = _IN_ROLE[tag], _OUT_ROLE[tag]
            admissible = [p for p in self.leg_mats[lin] if p in spec.inputs]
            out_mats = set(self.leg_mats[lout])
            for t_pos in range(len(inst.periods)):
                for p_out in spec.outputs:
                    gamma = spec.yields[p_out]
                    for j in role_members[tag]:
                        entries = []
                        if gamma != 0.0:
                            for p_in in admissible:
                                entries.extend(
                                    (col_id[(lin, t_pos, p_in, i, j)], gamma)
                                    for i in role_members[in_role]
                                )
                        if p_out in out_mats:
                            entries.extend(
                                (col_id[(lout, t_pos, p_out, j, k)], -1.0)
                                for k in role_members[out_role]
                            )
                        if entries:
                            rows.append(("E", 0.0, entries))

        # facility_cap at the chosen size: total inflow within capacity
        for tag in ECHELON_TAGS:
            spec = inst.echelon(tag)
            lin = _LEG_INTO[tag]
            in_role = _IN_ROLE[tag]
            for t_pos in range(len(inst.periods)):
                for j in role_members[tag]:
                    theta = spec.size_options[chosen_size[tag][j]].max_capacity_tons
                    entries = [
                        (col_id[(lin, t_pos, p, i, j)], 1.0)
                        for p in self.leg_mats[lin]
                        for i in role_members[in_role]
                    ]
                    if entries:
                        rows.append(("L", theta, entries))

        install_cost = self.screen.scan(config)[1]

        n = len(cols)
        m = len(rows)
        a = np.zeros((m, n), dtype=np.float64)
        b = np.zeros(m, dtype=np.float64)
        senses = []
        for r, (sense, rhs, entries) in enumerate(rows):
            senses.append(sense)
            b[r] = rhs
            for c, v in entries:
                a[r, c] += v
        obj_vec = np.array(obj, dtype=np.float64)

        if permute_seed is not None and n > 1:
            perm = np.random.default_rng(permute_seed).permutation(n)
            inv = np.argsort(perm)
            result = solve_lp(obj_vec[perm], a[:, perm], senses, b,
                              max_iterations=limits.max_iterations,
                              degenerate_limit=limits.degenerate_limit,
                              phase1_tol=limits.phase1_tol)
            x = result.x[inv] if result.x is not None else None
        else:
            result = solve_lp(obj_vec, a, senses, b,
                              max_iterations=limits.max_iterations,
                              degenerate_limit=limits.degenerate_limit,
                              phase1_tol=limits.phase1_tol)
            x = result.x

        if result.status == "infeasible":
            return FlowLpResult("infeasible", 0.0, {}, result.iterations)
        if result.status == "unbounded":
            raise OracleError("flow subproblem unbounded; objective data must be nonnegative")

        flows: dict[str, float] = {}
        for key, v in zip(cols, x):
            if v == 0.0:
                continue
            leg, t_pos, p, i, j = key
            origin_role, dest_role = next((o, d) for lg, o, d in LEGS if lg == leg)
            origin_id = inst.role_nodes(origin_role)[i].id
            dest_id = inst.role_nodes(dest_role)[j].id
            size_id = None
            if dest_role in ECHELON_TAGS:
                spec = inst.echelon(dest_role)
                size_id = spec.size_options[chosen_size[dest_role][j]].id
            name = flow_column_name(leg, inst.periods[t_pos].id, p, origin_id, dest_id, size_id)
            flows[name] = float(v)
        return FlowLpResult("optimal", float(obj_vec @ x) + install_cost, flows,
                            result.iterations)


def solve_flow_lp(inst: Instance, config: Configuration, prune: bool = True,
                  install_cost_mode: str = "annualized_times_horizon",
                  limits: OracleLimits | None = None,
                  permute_seed: int | None = None) -> FlowLpResult:
    """Solve the flow LP for one fixed configuration; objective includes the
    configuration's installation cost."""
    limits = limits or OracleLimits()
    return _LpFactory(inst, prune, install_cost_mode).solve(config, limits, permute_seed)


def _install_values(inst: Instance, config: Configuration) -> dict[str, float]:
    values: dict[str, float] = {}
    for tag, pairs in config_choices(inst, config).items():
        spec = inst.echelon(tag)
        for j, c in pairs:
            values[install_column_name(tag, spec.sites[j].id, spec.size_options[c].id)] = 1.0
    return values


def flow_cost_bound(inst: Instance, prune: bool = True,
                    install_cost_mode: str = "annualized_times_horizon",
                    limits: OracleLimits | None = None) -> float | None:
    """Flow cost (objective minus install cost) of the widest configuration,
    every site open at its largest size: a lower bound on every
    configuration's flow cost.  None when even that LP is infeasible."""
    return _flow_cost_bound(_LpFactory(inst, prune, install_cost_mode),
                            limits or OracleLimits(), None)


def _flow_cost_bound(factory: _LpFactory, limits: OracleLimits,
                     permute_seed: int | None) -> float | None:
    widest = factory.screen.widest
    result = factory.solve(widest, limits, permute_seed)
    if result.status == "infeasible":
        return None
    return result.objective - factory.screen.scan(widest)[1]


def solve_exact(inst: Instance, limits: OracleLimits | None = None, prune: bool = True,
                install_cost_mode: str = "annualized_times_horizon",
                permute_seed: int | None = None,
                progress: Callable[[int, int], None] | None = None,
                ) -> tuple[Solution, OracleCertificate]:
    """Global optimum by exhaustion.  Any simplex abort poisons the whole
    run, the bound LP's included; it is never converted into an
    infeasibility claim.

    `progress`, if given, is called every 512 configurations with
    (configurations examined, total count).
    """
    limits = limits or OracleLimits()
    t0 = time.monotonic()
    configurations = enumerate_configurations(inst, limits)
    factory = _LpFactory(inst, prune, install_cost_mode)
    screen = factory.screen
    flow_bound = _flow_cost_bound(factory, limits, permute_seed)
    total = count_configurations(inst)
    enumerated = pruned = bound_pruned = infeasible = solved = 0
    best_obj: float | None = None
    best_config: Configuration | None = None
    best_flows: dict[str, float] = {}
    for config in configurations:
        enumerated += 1
        if progress is not None and enumerated % 512 == 0:
            progress(enumerated, total)
        fits, install = screen.scan(config)
        if limits.capacity_pruning and not fits:
            pruned += 1
            continue
        if flow_bound is None:
            infeasible += 1
            continue
        # the margin sits on the incumbent's side, so a pruned configuration
        # could not have replaced the incumbent under the rule below
        if best_obj is not None and (
                install + flow_bound > best_obj + limits.tie_tol * max(1.0, abs(best_obj))):
            pruned += 1
            bound_pruned += 1
            continue
        result = factory.solve(config, limits, permute_seed)
        if result.status == "infeasible":
            infeasible += 1
            continue
        solved += 1
        if best_obj is None or result.objective < best_obj - limits.tie_tol * max(1.0, abs(best_obj)):
            best_obj = result.objective
            best_config = config
            best_flows = result.flows
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
    values = dict(best_flows)
    values.update(_install_values(inst, best_config))
    sol = Solution(
        values=values,
        objective_reported=best_obj,
        status="optimal",
        source="oracle",
        bound=best_obj,
        gap=0.0,
    )
    return sol, cert
