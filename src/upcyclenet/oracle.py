"""Exact desk-scale solver by exhaustive configuration enumeration.

A configuration fixes every install binary: per candidate site, either
closed or one chosen size option.  For each configuration the remaining
problem is a pure LP over flows, solved with the built-in simplex; the
minimum over all configurations is the exact MILP optimum, certified by
exhaustion.

This module deliberately assembles its LPs straight from the instance
rather than reusing the canonical model builder, so the two routes check
each other: a bug would have to appear in both, in matching form, to slip
through the equivalence tests.  The LP rows are its own; it shares with
the model the chain's shape and its refusals (`require_buildable`), the
distances and rates, the cost model (`flow_costs`, `install_costs`), the
forced tonnage and the screen rule (`capacity_covers`), and the
column-name format.  Only
`reporting.breakdown_costs` recomputes the costs from the raw parameters.

It assembles one LP per instance, the all-open LP: every site open, its
capacity rows at the widest size, and every row of each row family, one
without an entry too (it holds at zero flow, or makes every configuration
infeasible if it is a quota row).  It is solved cold, and each
configuration's LP is re-optimised (`simplex.solve_lp(start=...)`) from
the optimal basis of the last configuration LP the walk solved to
optimality, or of the all-open LP until there is one; consecutive
configurations differ mostly in their trailing slots, so the neighbour's
basis is the closer start.  Every LP has the same rows and columns, the
capacity rows at the chosen sizes (0 at a closed site), and every column
with a closed origin or destination held at 0.  Its feasible flows are
exactly those of the all-open LP's restriction to the columns between
open sites, and they are feasible in the all-open LP at the same per-ton
costs, whose capacity rows are only looser.  The LP's costs, matrix and
senses are read-only, so the simplex checks them once, in the all-open
LP.

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

`_SlotTable.blocks` is the only enumeration: it lists the configurations
in numpy blocks, each one choice for each leading slot followed by every
choice of the trailing slots, at most `_BLOCK` configurations, so memory
stays bounded whatever `max_configs` allows.  Each block's per-echelon
open capacities and install costs are summed slot by slot in slot order,
so a configuration's floats do not depend on how the walk was split into
blocks.  Within a block the walk jumps from one screen-passing
configuration the bound prune keeps to the next, and every screen-passing
one it jumps over is bound-pruned.  The bound threshold moves only when
the incumbent does, so the walk solves the same LPs in the same order as
a loop over every configuration in lexicographic order, with the same
certificate counts.
"""

from __future__ import annotations

import itertools
import math
import time
from collections.abc import Callable, Iterator
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import OracleError
from .geo import build_leg_matrices
from .instance import (CHAIN_ROLES, ECHELON_TAGS, LEG_INTO, LEG_OUT_OF, LEGS, Instance,
                       capacity_covers, flow_costs, forced_inflow_tons, install_costs,
                       require_buildable)
from .model import flow_column_name, install_column_name
from .model_io import Solution
from .simplex import LpResult, solve_lp

Configuration = tuple[int, ...]

# relative: a configuration replaces the incumbent only if cheaper by more
# than this, so ties go to the lexicographically smallest
TIE_TOL = 1e-9
# default enumeration limit: larger instances are refused, not solved
MAX_CONFIGS = 2**20
# most configurations screened in one numpy block; bounds the walk's memory
_BLOCK = 1 << 14


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


class _Block(NamedTuple):
    """The configurations `prefix` followed by each choice of the trailing
    slots, lexicographic, with the capacity screen's verdict and the
    install cost of each."""

    prefix: Configuration
    shape: tuple[int, ...]  # choices per trailing slot
    fits: np.ndarray  # open capacity covers the forced tonnage
    install: np.ndarray  # install cost

    def configuration(self, k: int) -> Configuration:
        return self.prefix + tuple(int(d) for d in np.unravel_index(k, self.shape))


class _SlotTable:
    """The instance's site slots in configuration order, each chain node's
    slot, each slot's capacity per choice, the forced tonnage per echelon
    and `widest`; the only code that checks a configuration and names its
    open sites."""

    def __init__(self, inst: Instance) -> None:
        slots = []
        for e, tag in enumerate(ECHELON_TAGS):
            spec = inst.echelon(tag)
            caps = tuple(o.max_capacity_tons for o in spec.size_options)
            costs = tuple(install_costs(inst, tag).tolist())
            sizes = tuple(o.id for o in spec.size_options)
            slots += [_Slot(tag, e, j, site.id, sizes, caps, costs)
                      for j, site in enumerate(spec.sites)]
        self.slots = tuple(slots)
        self.count = math.prod(len(s.sizes) + 1 for s in slots)
        self._options = np.array([len(s.sizes) for s in slots], dtype=np.intp)
        # every site open at the size with the largest capacity, first on a tie
        self.widest: Configuration = tuple(1 + s.caps.index(max(s.caps)) for s in slots)
        # per echelon: the largest tonnage the quota forces through it
        self.forced = forced_inflow_tons(inst).max(axis=1, initial=0.0)
        # of[role][j]: the slot of the role's j-th node, -1 for a source or a sink
        self.of = {role: np.full(len(inst.role_nodes(role)), -1, dtype=np.intp)
                   for role in CHAIN_ROLES}
        # cap[s, k]: slot s's capacity at choice k, 0 when closed or past its options
        self.cap = np.zeros((len(slots), 1 + self._options.max(initial=0)))
        # per slot, what each choice adds: rows are the echelons' open
        # capacity, then the install cost; column 0 (closed) adds nothing
        self._adds = []
        for s, slot in enumerate(slots):
            self.of[slot.tag][slot.site] = s
            self.cap[s, 1:len(slot.caps) + 1] = slot.caps
            add = np.zeros((len(ECHELON_TAGS) + 1, len(slot.sizes) + 1))
            add[slot.echelon] = self.cap[s, :len(slot.sizes) + 1]
            add[-1, 1:] = slot.costs
            self._adds.append(add)

    def blocks(self, max_configs: int) -> Iterator[_Block]:
        """Every configuration, lexicographic, with its capacity screen
        verdict and install cost, in blocks of at most `_BLOCK` over the
        trailing slots; refuses more than `max_configs` when called,
        before the first block."""
        if self.count > max_configs:
            raise OracleError(
                f"{self.count} configurations exceed the enumeration limit {max_configs}"
            )
        radices = [len(s.sizes) + 1 for s in self.slots]
        split = len(radices)
        while split and math.prod(radices[split - 1:]) <= _BLOCK:
            split -= 1
        shape = tuple(radices[split:])

        def walk():
            for prefix in itertools.product(*(range(r) for r in radices[:split])):
                sums = self._sums(prefix, len(shape))
                fits = capacity_covers(sums[:-1], self.forced[:, None]).all(axis=0)
                yield _Block(prefix, shape, fits, sums[-1])

        return walk()

    @np.errstate(over="ignore")  # capacity past the float range is inf, which covers any tonnage
    def _sums(self, head: Configuration, tail: int) -> np.ndarray:
        """Open capacity per echelon and install cost (rows) of each
        configuration that starts with `head` and then runs through every
        choice of the next `tail` slots, lexicographic (columns).  The sums
        run slot by slot in slot order, so a configuration's floats do not
        depend on how it was split into blocks."""
        sums = np.zeros((len(self.forced) + 1, 1))
        chosen = [add[:, c:c + 1] for add, c in zip(self._adds, head)]
        for add in chosen + self._adds[len(head):len(head) + tail]:
            sums = (sums[:, :, None] + add[:, None, :]).reshape(len(sums), -1)
        return sums

    def choices(self, config: Configuration) -> np.ndarray:
        """`config` as an array of size choices, checked slot by slot."""
        if len(config) != len(self.slots):
            raise OracleError(f"configuration length {len(config)} != {len(self.slots)} sites")
        for c, slot in zip(config, self.slots):
            if isinstance(c, bool) or not isinstance(c, (int, np.integer)):
                raise OracleError(f"size choice {c!r} is not an integer at {slot.tag} site {slot.site}")
        choice = np.array(config, dtype=np.intp)
        bad = ((choice < 0) | (choice > self._options)).nonzero()[0]
        if bad.size:
            slot = self.slots[bad[0]]
            raise OracleError(f"size choice {choice[bad[0]]} out of range at {slot.tag} site {slot.site}")
        return choice

    def open_sites(self, config: Configuration) -> list[tuple[_Slot, int]]:
        """(slot, size position) for each open site, in slot order."""
        return [(slot, int(c) - 1) for slot, c in zip(self.slots, self.choices(config)) if c]

    def install_values(self, config: Configuration) -> dict[str, float]:
        """Install column name -> 1.0 for each open site."""
        return {install_column_name(slot.tag, slot.site_id, slot.sizes[c]): 1.0
                for slot, c in self.open_sites(config)}


def count_configurations(inst: Instance) -> int:
    return _SlotTable(inst).count


def describe_configuration(inst: Instance, config: Configuration) -> dict[str, dict[str, str | None]]:
    """Human view: echelon -> site id -> chosen size id or None when closed."""
    table = _SlotTable(inst)
    desc: dict[str, dict[str, str | None]] = {tag: {} for tag in ECHELON_TAGS}
    for slot in table.slots:
        desc[slot.tag][slot.site_id] = None
    for slot, c in table.open_sites(config):
        desc[slot.tag][slot.site_id] = slot.sizes[c]
    return desc


class _LpFactory:
    """The instance's all-open flow LP, solved cold once, and each
    configuration's LP re-optimised from it or from another configuration
    LP, as the module docstring describes.  Every LP has the same `obj`,
    `a` and `senses`, all read-only; a configuration sets the capacity
    rows' rhs and holds the columns whose origin or destination slot is
    closed.  The rows are the families demand, quota, source_cap,
    flow_balance and facility_cap, in that order, each with all its rows;
    the capacity rows are the last block, in (echelon, period, site)
    order."""

    def __init__(self, inst: Instance, prune: bool, slots: _SlotTable) -> None:
        self.inst = inst
        self.slots = slots
        self.leg_mats = {leg: inst.leg_materials(leg, prune) for leg, _, _ in LEGS}
        # columns in leg chain order, (t, p, origin, dest) lexicographic;
        # ids[leg][t, p, i, j] is the column of that flow
        self.ids: dict[str, np.ndarray] = {}
        costs = []
        n = 0
        for (leg, _, _), km in zip(LEGS, build_leg_matrices(inst)):
            cost = flow_costs(inst, leg, self.leg_mats[leg], km)
            self.ids[leg] = n + np.arange(cost.size).reshape(cost.shape)
            n += cost.size
            costs.append(cost.ravel())
        self.obj = np.concatenate(costs)

        family_rows: list[np.ndarray] = []
        senses: list[str] = []
        rhs: list[np.ndarray] = []

        def family(sense: str, values, *terms: tuple[np.ndarray, float]) -> None:
            """Append one row per entry of `values` (its rhs), in C order;
            in each (grid, coef) term the grid's leading axes run over the
            rows like `values`' and its trailing axes over the row's
            columns, each set to `coef`."""
            values = np.asarray(values, dtype=np.float64)
            block = np.zeros((values.size, n))
            for grid, coef in terms:
                cols = grid.reshape(values.size, math.prod(grid.shape[values.ndim:]))
                block[np.arange(values.size)[:, None], cols] = coef
            family_rows.append(block)
            senses.append(sense * values.size)
            rhs.append(values.ravel())

        ids, mats = self.ids, self.leg_mats
        shipped, delivered = LEG_OUT_OF["sources"], LEG_INTO["sinks"]
        periods = [t.id for t in inst.periods]

        # demand: inflow at a sink capped by its declared demand (0 if absent)
        family("L", [[[sink.demand.get((t, p), 0.0) for sink in inst.sinks]
                      for p in mats[delivered]] for t in periods],
               (ids[delivered].transpose(0, 1, 3, 2), 1.0))

        # quota: collected tons reach the mandated share even if no CF is
        # open; the only "G" rows, and one without an entry when the source
        # leg does not ship the material
        for t_pos, t in enumerate(periods):
            for p in inst.materials:
                eta = inst.quota_at(t, p)
                if eta > 0.0:
                    entries = ([(ids[shipped][t_pos, mats[shipped].index(p)], 1.0)]
                               if p in mats[shipped] else [])
                    family("G", eta * inst.supply_total(t, p), *entries)

        # source_cap: shipments out of a source limited by its supply
        family("L", [[[src.supply.get((t, p), 0.0) for src in inst.sources]
                      for p in mats[shipped]] for t in periods],
               (ids[shipped], 1.0))

        # flow_balance at every site: yield * admissible inflow == outflow
        for tag in ECHELON_TAGS:
            spec = inst.echelon(tag)
            lin, lout = LEG_INTO[tag], LEG_OUT_OF[tag]
            admissible = [k for k, p in enumerate(mats[lin]) if p in spec.inputs]
            for t_pos in range(len(periods)):
                for p_out in spec.outputs:
                    gamma = spec.yields[p_out]
                    entries = []
                    if gamma != 0.0:
                        entries.append((ids[lin][t_pos, admissible].transpose(2, 0, 1), gamma))
                    if p_out in mats[lout]:
                        entries.append((ids[lout][t_pos, mats[lout].index(p_out)], -1.0))
                    family("E", np.zeros(len(spec.sites)), *entries)

        # facility_cap, the last rows: total inflow within the chosen size's
        # capacity, which `rhs` writes in; cap_slots[k] is the slot of
        # capacity row cap_rows[k], in (echelon, period, site) order
        for tag in ECHELON_TAGS:
            family("L", np.zeros((len(periods), len(slots.of[tag]))),
                   (ids[LEG_INTO[tag]].transpose(0, 3, 1, 2), 1.0))
        self.a = np.concatenate(family_rows)
        self.cap_slots = np.concatenate([slots.of[tag] for tag in ECHELON_TAGS for _ in periods])
        self.cap_rows = np.arange(len(self.a) - len(self.cap_slots), len(self.a))
        self.closed_rhs = np.concatenate(rhs)  # capacity rows at 0
        self.senses = np.array(list("".join(senses)), dtype="<U1")
        # read-only, so `solve_lp` checks them once, in the bound LP
        for arr in (self.obj, self.a, self.senses):
            arr.flags.writeable = False
        self._bound: LpResult | None = None
        # per column, the slots of its origin and destination; -1 for a
        # source or a sink, which indexes the always-open last entry of
        # `solve`'s open mask
        self.origin = np.empty(n, dtype=np.intp)
        self.dest = np.empty(n, dtype=np.intp)
        for leg, origin_role, dest_role in LEGS:
            self.origin[ids[leg]] = slots.of[origin_role][:, None]
            self.dest[ids[leg]] = slots.of[dest_role]

    def rhs(self, choice: np.ndarray) -> np.ndarray:
        """The LP's rhs with each capacity row at the chosen size's
        capacity, 0 at a closed site."""
        rhs = self.closed_rhs.copy()
        rhs[self.cap_rows] = self.slots.cap[self.cap_slots, choice[self.cap_slots]]
        return rhs

    def bound_lp(self) -> LpResult:
        """The all-open LP at `slots.widest`, solved cold once; its optimal
        basis is where a configuration's LP starts by default."""
        if self._bound is None:
            widest = np.asarray(self.slots.widest, dtype=np.intp)
            self._bound = self._solve_lp(self.rhs(widest))
        return self._bound

    def solve(self, config: Configuration, start: LpResult | None = None) -> LpResult:
        """Solve the configuration's LP, re-optimised from the optimal basis
        of `start`, the bound LP or another of this factory's LPs; the
        bound LP when None.  `x` lies over the all-open columns, 0 on every
        column with a closed end, and the objective is the flow cost only;
        callers add the installation cost.  `config` is not checked: the
        walk and `widest` only yield valid configurations."""
        bound = self.bound_lp()
        if bound.status == "infeasible":  # the configuration's flows are the bound LP's too
            return bound
        choice = np.asarray(config, dtype=np.intp)
        is_open = np.append(choice > 0, True)
        held = ~(is_open[self.origin] & is_open[self.dest])
        return self._solve_lp(self.rhs(choice), start=bound if start is None else start,
                              held=held)

    def _solve_lp(self, b: np.ndarray, **warm) -> LpResult:
        try:
            result = solve_lp(self.obj, self.a, self.senses, b, **warm)
        except FloatingPointError as exc:
            raise OracleError(f"flow subproblem left the float range: {exc}") from None
        if result.status == "unbounded":
            raise OracleError("flow subproblem unbounded; objective data must be nonnegative")
        return result

    def flows(self, config: Configuration, x: np.ndarray) -> dict[str, float]:
        """Column name -> tons for the nonzero entries of `x`."""
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


def solve_exact(inst: Instance, max_configs: int = MAX_CONFIGS, prune: bool = True,
                progress: Callable[[int, int], None] | None = None,
                ) -> tuple[Solution, OracleCertificate]:
    """Global optimum by exhaustion.  Any simplex abort poisons the whole
    run, the bound LP's included; it is never converted into an
    infeasibility claim.

    An instance with an empty chain position or a cost model that can
    overflow is refused with `ModelError` (`require_buildable`), and one
    with more than `max_configs` configurations with `OracleError`, before
    any LP is assembled or solved.  An LP whose arithmetic leaves the float
    range is an `OracleError` too.  `progress`, if given, is called every
    512 configurations with (configurations examined, total count).
    """
    t0 = time.monotonic()
    require_buildable(inst)
    slots = _SlotTable(inst)
    # refuse before the all-open LP is assembled
    blocks = slots.blocks(max_configs)
    factory = _LpFactory(inst, prune, slots)
    # the flow cost of every site open at its largest size bounds every
    # configuration's flow cost from below; None when even that LP is infeasible
    bound = factory.bound_lp()
    flow_bound = None if bound.status == "infeasible" else bound.objective
    enumerated = pruned = bound_pruned = infeasible = solved = 0
    best_obj: float | None = None
    best_config: Configuration | None = None
    best_x: np.ndarray | None = None
    # the last optimal configuration LP, where the next one starts; the
    # bound LP's basis until one exists
    last: LpResult | None = None
    for block in blocks:
        passing = np.flatnonzero(block.fits)
        pruned += block.fits.size - passing.size
        if flow_bound is None:
            infeasible += passing.size
            passing = passing[:0]
        at = 0
        while at < passing.size:
            if best_obj is not None:
                # skip to the next configuration the bound prune keeps; the
                # margin sits on the incumbent's side, so a skipped one could
                # not have replaced the incumbent under the rule below
                kept = np.flatnonzero(block.install[passing[at:]] + flow_bound
                                      <= best_obj + TIE_TOL * max(1.0, abs(best_obj)))
                skip = int(kept[0]) if kept.size else passing.size - at
                pruned += skip
                bound_pruned += skip
                at += skip
                if at == passing.size:
                    break
            k = int(passing[at])
            at += 1
            config = block.configuration(k)
            result = factory.solve(config, last)
            if result.status == "infeasible":
                infeasible += 1
                continue
            solved += 1
            last = result
            objective = result.objective + float(block.install[k])
            if best_obj is None or objective < best_obj - TIE_TOL * max(1.0, abs(best_obj)):
                best_obj = objective
                best_config = config
                best_x = result.x
        if progress is not None:
            for done in range(enumerated - enumerated % 512 + 512,
                              enumerated + block.fits.size + 1, 512):
                progress(done, slots.count)
        enumerated += block.fits.size
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
    )
    return sol, cert
