"""Analysis layer: cost breakdowns, flow tables, layout and utilization.

Everything here is derived from (instance, model, solution) alone; solver
logs are never consulted.  Costs are recomputed from raw flows and the
instance parameters, not by reading objective coefficients, and then
reconciled against the solution's objective; a mismatch is a hard error
because it means the model and the reports have drifted apart.

Capacity basis: a size option's capacity is the maximum inflow per period
(the capacity rows are written per period without duration scaling).  The
utilization table also shows an annualized display capacity, capacity
scaled by 1 year / period duration, matching the convention of annotating
facilities with annual throughput.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

from .errors import ReportError
from .geo import node_distance_km
from .instance import (CHAIN_ROLES, ECHELON_TAGS, LEG_ROLES, LEGS, Instance, SizeOption,
                       transport_rates)
from .model import Model, VariableIndex
from .model_io import OBJECTIVE_TOL, Solution, objective_agrees

_OPEN_THRESHOLD = 0.5


@dataclass(frozen=True)
class DecodedFlow:
    leg: str
    period: str
    material: str
    origin: str
    dest: str
    size: str | None
    tons: float


@dataclass(frozen=True)
class DecodedInstall:
    echelon: str
    site: str
    size: str
    value: float


def decode_solution(sol: Solution, inst: Instance) -> tuple[list[DecodedFlow], list[DecodedInstall]]:
    """Nonzero solution entries as structured flows and installs.

    Names resolve through the unpruned column index, so a flow on a material
    that pruning drops from its leg still decodes.  A NaN or infinite value
    raises `ReportError` naming its column.
    """
    index = VariableIndex(inst, prune=False)
    flows: list[DecodedFlow] = []
    installs: list[DecodedInstall] = []
    for name, value in sol.values.items():
        if value == 0.0:
            continue
        if not math.isfinite(value):
            raise ReportError(f"solution column '{name}' has non-finite value {value!r}")
        key = index.name_key(name)
        if key is None:
            raise ReportError(f"solution column '{name}' does not match any naming scheme")
        kind, *key = key
        if kind == "flow":
            flows.append(DecodedFlow(*key, value))
        else:
            installs.append(DecodedInstall(*key, value))
    return flows, installs


def _open_sites(installs: list[DecodedInstall], inst: Instance) -> list[tuple[str, str, SizeOption]]:
    """(echelon, site, chosen size option) per open site, echelons in chain
    order and sites in declaration order; two chosen sizes at one site are
    an error."""
    chosen: dict[tuple[str, str], SizeOption] = {}
    for b in installs:
        if b.value >= _OPEN_THRESHOLD:
            if (b.echelon, b.site) in chosen:
                raise ReportError(f"site {b.site} has two chosen sizes in the solution")
            options = inst.echelon(b.echelon).size_options
            chosen[(b.echelon, b.site)] = next(o for o in options if o.id == b.size)
    return [
        (tag, site.id, chosen[(tag, site.id)])
        for tag in ECHELON_TAGS
        for site in inst.echelon(tag).sites
        if (tag, site.id) in chosen
    ]


def _fmt6(x: float) -> str:
    return f"{x:.6f}"


# ---------------------------------------------------------------------------
# cost breakdown


@dataclass(frozen=True)
class CostBreakdown:
    """Installation, per-(period, echelon) operating and per-(period, leg)
    transport totals, reconciled against the solution objective."""

    installation: float
    operating: dict[tuple[str, str], float]
    transport: dict[tuple[str, str], float]
    total: float
    currency: str

    @property
    def operating_total(self) -> float:
        return sum(self.operating.values())

    @property
    def transport_total(self) -> float:
        return sum(self.transport.values())

    def to_csv(self) -> str:
        lines = ["component,period,detail,cost"]
        lines.append(f"installation,,,{_fmt6(self.installation)}")
        for (t, tag), v in self.operating.items():
            lines.append(f"operating,{t},{tag},{_fmt6(v)}")
        for (t, leg), v in self.transport.items():
            lines.append(f"transport,{t},{leg},{_fmt6(v)}")
        lines.append(f"total,,,{_fmt6(self.total)}")
        return "\n".join(lines) + "\n"


def breakdown_costs(sol: Solution, model: Model, inst: Instance) -> CostBreakdown:
    """Recompute cost components from flows and parameters, then insist they
    agree with the reported objective (`objective_agrees`: 1e-9 relative for
    oracle solutions, `OBJECTIVE_TOL` for external ones).  Everything comes
    from `sol` and `inst`; `model` is not read and stays for its callers."""
    flows, installs = decode_solution(sol, inst)
    duration = {t.id: t.duration_years for t in inst.periods}
    node_of = {role: {n.id: n for n in inst.role_nodes(role)} for role in CHAIN_ROLES}
    riding = {leg: tuple(dict.fromkeys(f.material for f in flows if f.leg == leg)) for leg in LEG_ROLES}
    rate = {leg: dict(zip(mats, transport_rates(inst, leg, mats).tolist()))
            for leg, mats in riding.items()}

    horizon = inst.horizon_years()
    installation = 0.0
    for _, _, option in _open_sites(installs, inst):
        installation += option.install_cost_annual * horizon

    operating: dict[tuple[str, str], float] = {}
    transport: dict[tuple[str, str], float] = {}
    for t in inst.periods:
        for tag in ECHELON_TAGS:
            operating[(t.id, tag)] = 0.0
        for leg, _, _ in LEGS:
            transport[(t.id, leg)] = 0.0
    for f in flows:
        origin_role, dest_role = LEG_ROLES[f.leg]
        dt = duration[f.period]
        if dest_role in ECHELON_TAGS:
            operating[(f.period, dest_role)] += dt * inst.echelon(dest_role).op_cost_per_ton * f.tons
        km = node_distance_km(
            node_of[origin_role][f.origin], node_of[dest_role][f.dest], inst.circuity_factor
        )
        transport[(f.period, f.leg)] += 2.0 * dt * km * rate[f.leg][f.material] * f.tons

    total = installation + sum(operating.values()) + sum(transport.values())
    rel_tol = 1e-9 if sol.source == "oracle" else OBJECTIVE_TOL
    if not objective_agrees(total, sol.objective_reported, rel_tol):
        raise ReportError(
            f"cost breakdown {total!r} does not reconcile with reported objective "
            f"{sol.objective_reported!r} (tolerance {rel_tol:g} relative)"
        )
    return CostBreakdown(
        installation=installation,
        operating=operating,
        transport=transport,
        total=total,
        currency=inst.currency_unit,
    )


# ---------------------------------------------------------------------------
# flow table


@dataclass(frozen=True)
class FlowRow:
    period: str
    leg: str
    origin: str
    destination: str
    material: str
    tons: float


@dataclass(frozen=True)
class FacilityAnnotation:
    echelon: str
    site: str
    size: str
    max_capacity_tons: float


@dataclass(frozen=True)
class FlowTable:
    rows: tuple[FlowRow, ...]
    facilities: tuple[FacilityAnnotation, ...]

    def to_csv(self) -> str:
        lines = ["period,leg,origin,destination,material,tons"]
        for r in self.rows:
            lines.append(
                f"{r.period},{r.leg},{r.origin},{r.destination},{r.material},{_fmt6(r.tons)}"
            )
        return "\n".join(lines) + "\n"

    def facilities_csv(self) -> str:
        lines = ["echelon,site,size,max_capacity_tons"]
        for f in self.facilities:
            lines.append(f"{f.echelon},{f.site},{f.size},{_fmt6(f.max_capacity_tons)}")
        return "\n".join(lines) + "\n"


_ZERO_FLOW = 1e-9


def export_flows(sol: Solution, inst: Instance) -> FlowTable:
    """Sankey-ready rows: flows aggregated over size options, zero rows
    dropped, sorted by (period, leg, origin, destination, material) in
    instance declaration order."""
    flows, installs = decode_solution(sol, inst)
    agg: dict[tuple[str, str, str, str, str], float] = {}
    for f in flows:
        key = (f.period, f.leg, f.origin, f.dest, f.material)
        agg[key] = agg.get(key, 0.0) + f.tons

    period_pos = {t.id: k for k, t in enumerate(inst.periods)}
    leg_pos = {leg: k for k, (leg, _, _) in enumerate(LEGS)}
    material_pos = {p: k for k, p in enumerate(inst.materials)}
    node_pos: dict[tuple[str, str], int] = {}
    for role in CHAIN_ROLES:
        for k, n in enumerate(inst.role_nodes(role)):
            node_pos[(role, n.id)] = k

    def sort_key(item):
        (t, leg, origin, dest, p), _ = item
        origin_role, dest_role = LEG_ROLES[leg]
        return (
            period_pos[t],
            leg_pos[leg],
            node_pos[(origin_role, origin)],
            node_pos[(dest_role, dest)],
            material_pos[p],
        )

    rows = tuple(
        FlowRow(t, leg, origin, dest, p, tons)
        for (t, leg, origin, dest, p), tons in sorted(agg.items(), key=sort_key)
        if tons > _ZERO_FLOW
    )

    annotations = tuple(
        FacilityAnnotation(tag, site, option.id, option.max_capacity_tons)
        for tag, site, option in _open_sites(installs, inst)
    )
    return FlowTable(rows=rows, facilities=annotations)


# ---------------------------------------------------------------------------
# layout


@dataclass(frozen=True)
class SiteLayout:
    role: str
    site: str
    lat: float
    lon: float
    open: bool | None  # None for sources and sinks (no install decision)
    size: str | None


@dataclass(frozen=True)
class LayoutExport:
    sites: tuple[SiteLayout, ...]

    def open_count(self, role: str) -> int:
        return sum(1 for s in self.sites if s.role == role and s.open)

    def to_csv(self) -> str:
        lines = ["role,site,lat,lon,open,size"]
        for s in self.sites:
            open_txt = "" if s.open is None else ("1" if s.open else "0")
            lines.append(
                f"{s.role},{s.site},{_fmt6(s.lat)},{_fmt6(s.lon)},{open_txt},{s.size or ''}"
            )
        return "\n".join(lines) + "\n"

    def to_geojson(self) -> str:
        features = []
        for s in self.sites:
            properties = {"role": s.role, "site": s.site}
            if s.open is not None:
                properties["open"] = s.open
                properties["size"] = s.size
            features.append(
                {
                    "type": "Feature",
                    "geometry": {"type": "Point", "coordinates": [s.lon, s.lat]},
                    "properties": properties,
                }
            )
        return json.dumps({"type": "FeatureCollection", "features": features}, indent=2) + "\n"


def export_layout(sol: Solution, inst: Instance) -> LayoutExport:
    """Every network node with its open/size decision where one exists."""
    _, installs = decode_solution(sol, inst)
    chosen = {(tag, site): option.id for tag, site, option in _open_sites(installs, inst)}
    sites: list[SiteLayout] = []
    for n in inst.role_nodes("sources"):
        sites.append(SiteLayout("source", n.id, n.lat, n.lon, None, None))
    for tag in ECHELON_TAGS:
        for n in inst.echelon(tag).sites:
            size = chosen.get((tag, n.id))
            sites.append(SiteLayout(tag, n.id, n.lat, n.lon, size is not None, size))
    for n in inst.role_nodes("sinks"):
        sites.append(SiteLayout("sink", n.id, n.lat, n.lon, None, None))
    return LayoutExport(sites=tuple(sites))


# ---------------------------------------------------------------------------
# utilization


@dataclass(frozen=True)
class UtilizationRow:
    echelon: str
    site: str
    size: str
    period: str
    inflow_tons: float
    capacity_tons: float
    utilization: float
    annual_capacity_tons: float


def compute_utilization(sol: Solution, inst: Instance) -> list[UtilizationRow]:
    """Per open facility and period: inflow against the chosen capacity.

    Capacity is per period; the annualized column rescales it by
    1 year / period duration for display.
    """
    flows, installs = decode_solution(sol, inst)
    inflow: dict[tuple[str, str, str], float] = {}
    for f in flows:
        dest_role = LEG_ROLES[f.leg][1]
        if dest_role in ECHELON_TAGS:
            key = (dest_role, f.dest, f.period)
            inflow[key] = inflow.get(key, 0.0) + f.tons
    rows: list[UtilizationRow] = []
    for tag, site, option in _open_sites(installs, inst):
        for t in inst.periods:
            tons = inflow.get((tag, site, t.id), 0.0)
            cap = option.max_capacity_tons
            rows.append(
                UtilizationRow(
                    echelon=tag,
                    site=site,
                    size=option.id,
                    period=t.id,
                    inflow_tons=tons,
                    capacity_tons=cap,
                    utilization=tons / cap if cap > 0.0 else 0.0,
                    annual_capacity_tons=cap / t.duration_years,
                )
            )
    return rows


def utilization_csv(rows: list[UtilizationRow]) -> str:
    lines = ["echelon,site,size,period,inflow_tons,capacity_tons,utilization,annual_capacity_tons"]
    for r in rows:
        lines.append(
            f"{r.echelon},{r.site},{r.size},{r.period},{_fmt6(r.inflow_tons)},"
            f"{_fmt6(r.capacity_tons)},{_fmt6(r.utilization)},{_fmt6(r.annual_capacity_tons)}"
        )
    return "\n".join(lines) + "\n"
