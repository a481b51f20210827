"""Problem instance: sets, parameters, document I/O and feasibility screening.

An instance describes a five-leg reverse supply chain

    sources -> CF -> RTF -> CPF -> DPF -> sinks

(CF = collection, RTF = recovery and treatment, CPF = chemical processing,
DPF = downstream processing facilities).  Sources carry a per-period,
per-material waste supply; sinks carry a per-period, per-material demand
capacity; each facility echelon has candidate sites, discrete size options,
an operating cost per ton of inflow, admissible input materials and output
materials with mass-yield factors.  A collection quota per period and
material mandates a minimum fraction of the total generated supply to be
collected.

The on-disk format is a single JSON document (see ``docs/instance_format.md``).
Tonnages are metric tons, coordinates decimal degrees, distances are always
derived from coordinates and never supplied.  Currency is an uninterpreted
label carried through to reports.
"""

from __future__ import annotations

import json
import math
import re
from collections import Counter
from dataclasses import dataclass, field
from typing import Any, Iterator

import numpy as np

from .errors import InstanceError, ModelError

ECHELON_TAGS = ("cf", "rtf", "cpf", "dpf")

# the chain: (leg id, origin role, destination role); roles 'sources'/'sinks' or an echelon tag
LEGS = (
    ("src_cf", "sources", "cf"),
    ("cf_rtf", "cf", "rtf"),
    ("rtf_cpf", "rtf", "cpf"),
    ("cpf_dpf", "cpf", "dpf"),
    ("dpf_sink", "dpf", "sinks"),
)
LEG_ROLES = {leg: (origin, dest) for leg, origin, dest in LEGS}
LEG_INTO = {dest: leg for leg, _, dest in LEGS}  # role -> the leg ending there
LEG_OUT_OF = {origin: leg for leg, origin, _ in LEGS}  # role -> the leg leaving it
CHAIN_ROLES = tuple(LEG_OUT_OF) + (LEGS[-1][2],)  # sources, the echelons, sinks
_SANITIZE_RE = re.compile(r"[^A-Za-z0-9-]")


def sanitize_id(raw: str) -> str:
    """Map an id to the naming alphabet: non-alphanumeric chars become '-'."""
    return _SANITIZE_RE.sub("-", raw)


@dataclass(frozen=True)
class Node:
    id: str
    lat: float
    lon: float


@dataclass(frozen=True)
class TimePeriod:
    id: str
    duration_years: float


@dataclass(frozen=True)
class SizeOption:
    id: str
    max_capacity_tons: float  # total inflow per period, all materials
    install_cost_annual: float


@dataclass(frozen=True)
class EchelonSpec:
    sites: tuple[Node, ...]
    size_options: tuple[SizeOption, ...]
    op_cost_per_ton: float
    inputs: tuple[str, ...]
    outputs: tuple[str, ...]
    yields: dict[str, float]  # output material -> tons produced per ton of admissible inflow


@dataclass(frozen=True)
class Source:
    node: Node
    supply: dict[tuple[str, str], float] = field(default_factory=dict)  # (period, material) -> t


@dataclass(frozen=True)
class Sink:
    node: Node
    demand: dict[tuple[str, str], float] = field(default_factory=dict)  # (period, material) -> t


@dataclass(frozen=True)
class Instance:
    """Immutable problem datum.  Do not mutate the dict fields after construction."""

    name: str
    materials: tuple[str, ...]
    periods: tuple[TimePeriod, ...]
    sources: tuple[Source, ...]
    sinks: tuple[Sink, ...]
    cf: EchelonSpec
    rtf: EchelonSpec
    cpf: EchelonSpec
    dpf: EchelonSpec
    quota: dict[tuple[str, str], float] = field(default_factory=dict)  # (period, material) -> [0,1]
    transport_cost: dict[str, float] = field(default_factory=dict)  # material -> cost/(t*km)
    circuity_factor: float = 1.0
    currency_unit: str = ""

    def echelon(self, tag: str) -> EchelonSpec:
        """The spec of echelon `tag`; KeyError if it is not in ECHELON_TAGS."""
        if tag not in ECHELON_TAGS:
            raise KeyError(tag)
        return getattr(self, tag)

    def echelons(self) -> Iterator[tuple[str, EchelonSpec]]:
        for tag in ECHELON_TAGS:
            yield tag, self.echelon(tag)

    def role_nodes(self, role: str) -> tuple[Node, ...]:
        if role == "sources":
            return tuple(s.node for s in self.sources)
        if role == "sinks":
            return tuple(s.node for s in self.sinks)
        return self.echelon(role).sites

    def horizon_years(self) -> float:
        return sum(p.duration_years for p in self.periods)

    def supply_total(self, period: str, material: str) -> float:
        return sum(s.supply.get((period, material), 0.0) for s in self.sources)

    def demand_total(self, period: str, material: str) -> float:
        return sum(s.demand.get((period, material), 0.0) for s in self.sinks)

    def quota_at(self, period: str, material: str) -> float:
        return self.quota.get((period, material), 0.0)

    def leg_materials(self, leg: str, prune: bool) -> tuple[str, ...]:
        """Materials admitted on a leg, in declaration order.

        With pruning, a leg admits only materials acceptable to the
        destination facility and producible by the origin facility
        (sources supply anything, sinks accept anything).  Without
        pruning every declared material rides every leg.
        """
        if not prune:
            return self.materials
        origin, dest = LEG_ROLES[leg]
        return tuple(p for p in self.materials
                     if (origin not in ECHELON_TAGS or p in self.echelon(origin).outputs)
                     and (dest not in ECHELON_TAGS or p in self.echelon(dest).inputs))


def empty_chain_positions(inst: Instance) -> tuple[str, ...]:
    """The chain positions without a node, in chain order; see `require_chain`."""
    return tuple(role for role in CHAIN_ROLES if not inst.role_nodes(role))


def require_chain(inst: Instance) -> None:
    """ModelError naming the first chain position without a node: both routes refuse it."""
    empty = empty_chain_positions(inst)
    if empty:
        raise ModelError(f"echelon chain position '{empty[0]}' has no nodes")


# ---------------------------------------------------------------------------
# document parsing


def _load_object(text: str, what: str) -> dict:
    """The JSON object `text` holds.  Invalid JSON, an integer literal past
    Python's digit limit, nesting too deep to decode, a root that is not an
    object and a key repeated within one object are InstanceErrors that
    start with `what`."""

    def unique(pairs: list[tuple[str, Any]]) -> dict:
        obj = dict(pairs)
        if len(obj) < len(pairs):
            key = next(k for k, n in Counter(k for k, _ in pairs).items() if n > 1)
            raise InstanceError(f"{what}: duplicate key '{key}'")
        return obj

    try:
        doc = json.loads(text, object_pairs_hook=unique)
    except json.JSONDecodeError as exc:
        raise InstanceError(f"{what} is not valid JSON: {exc}") from exc
    except ValueError as exc:  # an integer literal longer than int() reads
        raise InstanceError(f"{what} holds an integer too long to read") from exc
    except RecursionError:
        raise InstanceError(f"{what} is nested too deeply to read") from None
    if not isinstance(doc, dict):
        raise InstanceError(f"{what} root must be an object")
    return doc


def _require(mapping: dict, key: str, where: str) -> Any:
    if key not in mapping:
        raise InstanceError(f"{where}: missing required field '{key}'")
    return mapping[key]


def _reject_unknown(mapping: dict, allowed: set[str], where: str) -> None:
    unknown = [k for k in mapping if k not in allowed]
    if unknown:
        raise InstanceError(f"{where}: unknown field '{unknown[0]}'")


def _as_number(value: Any, where: str) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise InstanceError(f"{where}: expected a number, got {value!r}")
    try:
        out = float(value)
    except OverflowError:  # an integer beyond the float range
        out = math.inf
    if not math.isfinite(out):
        raise InstanceError(f"{where}: value must be finite")
    return out


def _as_string(value: Any, where: str) -> str:
    if not isinstance(value, str) or not value:
        raise InstanceError(f"{where}: expected a non-empty string, got {value!r}")
    return value


def _parse_node(obj: Any, where: str, role_fields: tuple[str, ...] = ()) -> Node:
    """A node's id and coordinates.  Any other field is an error unless
    `role_fields` names it: 'supply' on a source, 'demand' on a sink."""
    if not isinstance(obj, dict):
        raise InstanceError(f"{where}: expected an object")
    _reject_unknown(obj, {"id", "lat", "lon", *role_fields}, where)
    node_id = _as_string(_require(obj, "id", where), f"{where}.id")
    lat = _as_number(_require(obj, "lat", where), f"{where}.lat")
    lon = _as_number(_require(obj, "lon", where), f"{where}.lon")
    if not -90.0 <= lat <= 90.0:
        raise InstanceError(f"{where}: node '{node_id}' latitude {lat} outside [-90, 90]")
    if not -180.0 <= lon <= 180.0:
        raise InstanceError(f"{where}: node '{node_id}' longitude {lon} outside [-180, 180]")
    return Node(node_id, lat, lon)


def _parse_tp_map(
    obj: Any, periods: tuple[TimePeriod, ...], materials: tuple[str, ...], where: str
) -> dict[tuple[str, str], float]:
    """Parse {period: {material: tons}} into a flat (period, material) map."""
    if obj is None:
        return {}
    if not isinstance(obj, dict):
        raise InstanceError(f"{where}: expected an object keyed by period id")
    period_ids = {p.id for p in periods}
    out: dict[tuple[str, str], float] = {}
    for t, inner in obj.items():
        if t not in period_ids:
            raise InstanceError(f"{where}: unknown period id '{t}'")
        if not isinstance(inner, dict):
            raise InstanceError(f"{where}.{t}: expected an object keyed by material id")
        for p, v in inner.items():
            if p not in materials:
                raise InstanceError(f"{where}.{t}: unknown material id '{p}'")
            val = _as_number(v, f"{where}.{t}.{p}")
            if val < 0.0:
                raise InstanceError(f"{where}.{t}.{p}: negative tonnage {val}")
            out[(t, p)] = val
    return out


def _parse_echelon(obj: Any, materials: tuple[str, ...], where: str) -> EchelonSpec:
    if not isinstance(obj, dict):
        raise InstanceError(f"{where}: expected an object")
    _reject_unknown(
        obj, {"sites", "size_options", "op_cost_per_ton", "inputs", "outputs", "yields"}, where
    )
    sites_raw = _require(obj, "sites", where)
    if not isinstance(sites_raw, list):
        raise InstanceError(f"{where}.sites: expected an array")
    sites = tuple(_parse_node(s, f"{where}.sites[{i}]") for i, s in enumerate(sites_raw))

    opts_raw = _require(obj, "size_options", where)
    if not isinstance(opts_raw, list) or not opts_raw:
        raise InstanceError(f"{where}.size_options: expected a non-empty array")
    options = []
    for i, o in enumerate(opts_raw):
        w = f"{where}.size_options[{i}]"
        if not isinstance(o, dict):
            raise InstanceError(f"{w}: expected an object")
        _reject_unknown(o, {"id", "max_capacity_tons", "install_cost_annual"}, w)
        oid = _as_string(_require(o, "id", w), f"{w}.id")
        cap = _as_number(_require(o, "max_capacity_tons", w), f"{w}.max_capacity_tons")
        cost = _as_number(_require(o, "install_cost_annual", w), f"{w}.install_cost_annual")
        if cap < 0.0:
            raise InstanceError(f"{w}: max_capacity_tons must be >= 0")
        if cost < 0.0:
            raise InstanceError(f"{w}: install_cost_annual must be >= 0")
        options.append(SizeOption(oid, cap, cost))

    op_cost = _as_number(_require(obj, "op_cost_per_ton", where), f"{where}.op_cost_per_ton")
    if op_cost < 0.0:
        raise InstanceError(f"{where}.op_cost_per_ton: must be >= 0")

    def material_list(key: str) -> tuple[str, ...]:
        raw = _require(obj, key, where)
        if not isinstance(raw, list) or not raw:
            raise InstanceError(f"{where}.{key}: expected a non-empty array of material ids")
        seen: list[str] = []
        for m in raw:
            mid = _as_string(m, f"{where}.{key}")
            if mid not in materials:
                raise InstanceError(f"{where}.{key}: unknown material id '{mid}'")
            if mid in seen:
                raise InstanceError(f"{where}.{key}: duplicate material id '{mid}'")
            seen.append(mid)
        return tuple(seen)

    inputs = material_list("inputs")
    outputs = material_list("outputs")

    yields_raw = _require(obj, "yields", where)
    if not isinstance(yields_raw, dict):
        raise InstanceError(f"{where}.yields: expected an object keyed by output material")
    if set(yields_raw) != set(outputs):
        raise InstanceError(
            f"{where}.yields: keys must exactly match outputs {sorted(outputs)}, "
            f"got {sorted(yields_raw)}"
        )
    yields: dict[str, float] = {}
    for p in outputs:  # declaration order
        val = _as_number(yields_raw[p], f"{where}.yields.{p}")
        if val < 0.0:
            raise InstanceError(f"{where}.yields.{p}: negative yield factor {val}")
        yields[p] = val

    return EchelonSpec(sites, tuple(options), op_cost, inputs, outputs, yields)


def _check_unique_ids(ids: list[str], what: str) -> None:
    seen: dict[str, str] = {}
    for raw in ids:
        key = sanitize_id(raw)
        if key in seen:
            if seen[key] == raw:
                raise InstanceError(f"duplicate {what} id '{raw}'")
            raise InstanceError(
                f"{what} ids '{seen[key]}' and '{raw}' collide after sanitization ('{key}')"
            )
        seen[key] = raw


def parse_instance(text: str) -> Instance:
    """Parse a JSON instance document; raises InstanceError naming the bad field."""
    doc = _load_object(text, "document")
    _reject_unknown(
        doc,
        {
            "name",
            "options",
            "materials",
            "periods",
            "sources",
            "sinks",
            "echelons",
            "quota",
            "transport_cost",
        },
        "document",
    )

    name = doc.get("name", "")
    if not isinstance(name, str):
        raise InstanceError("name: expected a string")

    materials_raw = _require(doc, "materials", "document")
    if not isinstance(materials_raw, list) or not materials_raw:
        raise InstanceError("materials: expected a non-empty array")
    materials = tuple(_as_string(m, "materials") for m in materials_raw)
    _check_unique_ids(list(materials), "material")

    periods_raw = _require(doc, "periods", "document")
    if not isinstance(periods_raw, list) or not periods_raw:
        raise InstanceError("periods: expected a non-empty array")
    periods = []
    for i, o in enumerate(periods_raw):
        w = f"periods[{i}]"
        if not isinstance(o, dict):
            raise InstanceError(f"{w}: expected an object")
        _reject_unknown(o, {"id", "duration_years"}, w)
        pid = _as_string(_require(o, "id", w), f"{w}.id")
        dur = _as_number(_require(o, "duration_years", w), f"{w}.duration_years")
        if dur <= 0.0:
            raise InstanceError(f"{w}: duration_years must be > 0")
        periods.append(TimePeriod(pid, dur))
    periods = tuple(periods)
    _check_unique_ids([p.id for p in periods], "period")

    def parse_terminals(key: str, tp_key: str) -> list[tuple[Node, dict]]:
        raw = _require(doc, key, "document")
        if not isinstance(raw, list):
            raise InstanceError(f"{key}: expected an array")
        out = []
        for i, o in enumerate(raw):
            w = f"{key}[{i}]"
            node = _parse_node(o, w, (tp_key,))
            tp = _parse_tp_map(o.get(tp_key), periods, materials, f"{w}.{tp_key}")
            out.append((node, tp))
        _check_unique_ids([n.id for n, _ in out], key[:-1])
        return out

    sources = tuple(Source(n, tp) for n, tp in parse_terminals("sources", "supply"))
    sinks = tuple(Sink(n, tp) for n, tp in parse_terminals("sinks", "demand"))

    ech_raw = _require(doc, "echelons", "document")
    if not isinstance(ech_raw, dict):
        raise InstanceError("echelons: expected an object")
    _reject_unknown(ech_raw, set(ECHELON_TAGS), "echelons")
    specs = {}
    for tag in ECHELON_TAGS:
        specs[tag] = _parse_echelon(_require(ech_raw, tag, "echelons"), materials, f"echelons.{tag}")
        _check_unique_ids([s.id for s in specs[tag].sites], f"{tag} site")
        _check_unique_ids([o.id for o in specs[tag].size_options], f"{tag} size option")

    quota = _parse_tp_map(doc.get("quota"), periods, materials, "quota")
    for (t, p), v in quota.items():
        if not 0.0 <= v <= 1.0:
            raise InstanceError(f"quota.{t}.{p}: value {v} outside [0, 1]")

    tc_raw = doc.get("transport_cost", {})
    if not isinstance(tc_raw, dict):
        raise InstanceError("transport_cost: expected an object keyed by material id")
    transport_cost: dict[str, float] = {}
    for p, v in tc_raw.items():
        if p not in materials:
            raise InstanceError(f"transport_cost: unknown material id '{p}'")
        val = _as_number(v, f"transport_cost.{p}")
        if val < 0.0:
            raise InstanceError(f"transport_cost.{p}: must be >= 0")
        transport_cost[p] = val

    options = doc.get("options", {})
    if not isinstance(options, dict):
        raise InstanceError("options: expected an object")
    _reject_unknown(options, {"circuity_factor", "currency_unit"}, "options")
    circuity = _as_number(options.get("circuity_factor", 1.0), "options.circuity_factor")
    if circuity < 1.0:
        raise InstanceError("options.circuity_factor: must be >= 1")
    currency = options.get("currency_unit", "")
    if not isinstance(currency, str):
        raise InstanceError("options.currency_unit: expected a string")

    return Instance(
        name=name,
        materials=materials,
        periods=periods,
        sources=sources,
        sinks=sinks,
        cf=specs["cf"],
        rtf=specs["rtf"],
        cpf=specs["cpf"],
        dpf=specs["dpf"],
        quota=quota,
        transport_cost=transport_cost,
        circuity_factor=circuity,
        currency_unit=currency,
    )


def _tp_map_to_doc(
    data: dict[tuple[str, str], float],
    periods: tuple[TimePeriod, ...],
    materials: tuple[str, ...],
) -> dict[str, dict[str, float]]:
    out: dict[str, dict[str, float]] = {}
    for t in periods:
        inner = {p: data[(t.id, p)] for p in materials if (t.id, p) in data}
        if inner:
            out[t.id] = inner
    return out


def serialize_instance(inst: Instance) -> str:
    """Emit the canonical JSON document; parse_instance round-trips it exactly."""

    def node_doc(node: Node, extra_key: str | None = None, extra: dict | None = None) -> dict:
        d: dict[str, Any] = {"id": node.id, "lat": node.lat, "lon": node.lon}
        if extra_key is not None and extra:
            d[extra_key] = extra
        return d

    def ech_doc(spec: EchelonSpec) -> dict:
        return {
            "sites": [node_doc(s) for s in spec.sites],
            "size_options": [
                {
                    "id": o.id,
                    "max_capacity_tons": o.max_capacity_tons,
                    "install_cost_annual": o.install_cost_annual,
                }
                for o in spec.size_options
            ],
            "op_cost_per_ton": spec.op_cost_per_ton,
            "inputs": list(spec.inputs),
            "outputs": list(spec.outputs),
            "yields": {p: spec.yields[p] for p in spec.outputs},
        }

    doc = {
        "name": inst.name,
        "options": {
            "circuity_factor": inst.circuity_factor,
            "currency_unit": inst.currency_unit,
        },
        "materials": list(inst.materials),
        "periods": [{"id": p.id, "duration_years": p.duration_years} for p in inst.periods],
        "sources": [
            node_doc(s.node, "supply", _tp_map_to_doc(s.supply, inst.periods, inst.materials))
            for s in inst.sources
        ],
        "sinks": [
            node_doc(s.node, "demand", _tp_map_to_doc(s.demand, inst.periods, inst.materials))
            for s in inst.sinks
        ],
        "echelons": {tag: ech_doc(spec) for tag, spec in inst.echelons()},
        "quota": _tp_map_to_doc(inst.quota, inst.periods, inst.materials),
        "transport_cost": {p: inst.transport_cost[p] for p in inst.materials if p in inst.transport_cost},
    }
    return json.dumps(doc, indent=2) + "\n"


# ---------------------------------------------------------------------------
# pre-solve feasibility screening


@dataclass(frozen=True)
class Finding:
    severity: str  # 'ERROR' | 'WARNING'
    code: str
    message: str

    def __str__(self) -> str:
        return f"{self.severity} [{self.code}] {self.message}"


def errors_only(findings: list[Finding]) -> list[Finding]:
    return [f for f in findings if f.severity == "ERROR"]


# margin on forced tons, relative to max(1 t, forced): open capacity this far
# short of the forced tons still carries them, in `capacity_covers` and in
# the cover rows of `model.solver_rows`, which an external solver reads
FORCED_TONS_TOL = 1e-9


def capacity_covers(capacity, forced):
    """Capacity carries the forced tonnage, elementwise over scalars or
    arrays: the one rule of the oracle's capacity screen and of
    `validate_instance`'s capacity and demand errors."""
    return forced <= capacity + FORCED_TONS_TOL * np.maximum(1.0, forced)


def forced_inflow_tons(inst: Instance) -> np.ndarray:
    """Read-only (echelon, period) array, echelons in ECHELON_TAGS order:
    the tons the quota provably forces into each echelon in each period, a
    lower bound on its inflow in either pruning mode.  The CF takes every
    mandated ton; each later echelon the collectable ones (of materials the
    CF accepts) times its chain inflow factor, the product of the upstream
    yields of outputs that the next echelon accepts."""
    factors = [1.0]
    for up, down in zip(ECHELON_TAGS, ECHELON_TAGS[1:]):
        spec_up, accepted = inst.echelon(up), set(inst.echelon(down).inputs)
        factors.append(factors[-1] * sum(spec_up.yields[p] for p in spec_up.outputs if p in accepted))
    cf_inputs = set(inst.cf.inputs)
    mandated = []  # per period: (every mandated ton, the collectable ones)
    for t in inst.periods:
        every = collectable = 0.0
        for p in inst.materials:
            eta = inst.quota_at(t.id, p)
            if eta > 0.0:
                need = eta * inst.supply_total(t.id, p)
                every += need
                if p in cf_inputs:
                    collectable += need
        mandated.append((every, collectable))
    every, collectable = np.array(mandated).T
    forced = np.outer(factors, collectable)
    forced[0] = every
    forced.flags.writeable = False
    return forced


def transport_rates(inst: Instance, leg: str, materials: tuple[str, ...]) -> np.ndarray:
    """Cost per ton-km of each of `materials` riding `leg`, in their order;
    a material without a `transport_cost` entry is a ModelError."""
    for p in materials:
        if p not in inst.transport_cost:
            raise ModelError(f"material '{p}' rides leg '{leg}' but has no transport_cost entry")
    return np.array([inst.transport_cost[p] for p in materials], dtype=np.float64)


def flow_costs(inst: Instance, leg: str, materials: tuple[str, ...], km: np.ndarray) -> np.ndarray:
    """Cost per ton of each flow of `materials` on `leg`, shaped (period,
    material, origin, destination): dt * (op + 2 * km * rate), the
    destination's operating cost (none at a sink) and the round trip."""
    dest = LEG_ROLES[leg][1]
    op = inst.echelon(dest).op_cost_per_ton if dest in ECHELON_TAGS else 0.0
    dt = np.array([t.duration_years for t in inst.periods], dtype=np.float64)
    rate = transport_rates(inst, leg, materials)
    return dt[:, None, None, None] * (op + 2.0 * km[None, None, :, :] * rate[None, :, None, None])


def install_costs(inst: Instance, tag: str) -> np.ndarray:
    """Install cost of each of echelon `tag`'s size options for the whole
    horizon: the annualized figure times the horizon in years."""
    options = inst.echelon(tag).size_options
    return np.array([o.install_cost_annual for o in options], dtype=np.float64) * inst.horizon_years()


def validate_instance(inst: Instance) -> list[Finding]:
    """Aggregate feasibility screen; pure, returns ERROR/WARNING findings.

    ERROR findings mean no assignment can satisfy the model (necessary
    conditions on aggregate capacity and demand are violated) or, for
    `empty-chain-position`, that neither route builds the model.  WARNING
    findings flag suspicious data that is still solvable.
    """
    findings = [Finding("ERROR", "empty-chain-position", f"echelon chain position '{role}' has no nodes")
                for role in empty_chain_positions(inst)]
    forced = forced_inflow_tons(inst)
    # per echelon, the capacity of every site open at its largest size
    widest = [sum(max(o.max_capacity_tons for o in spec.size_options) for _ in spec.sites)
              for _, spec in inst.echelons()]

    used: set[str] = set()
    for _, spec in inst.echelons():
        used.update(spec.inputs)
        used.update(spec.outputs)
    for p in inst.materials:
        if p not in used:
            findings.append(
                Finding("WARNING", "unused-material", f"material '{p}' is in no inputs and no outputs")
            )

    cf_inputs = set(inst.cf.inputs)
    quota_triggers = sorted({p for (t, p), v in inst.quota.items() if v > 0.0})
    for p in quota_triggers:
        if p not in cf_inputs:
            findings.append(
                Finding(
                    "WARNING",
                    "quota-uncollectable",
                    f"quota targets material '{p}' which collection facilities do not accept; "
                    "the pruned model is infeasible for it",
                )
            )

    for up, down in zip(ECHELON_TAGS, ECHELON_TAGS[1:]):
        spec_up = inst.echelon(up)
        accepted = set(inst.echelon(down).inputs)
        for p in spec_up.outputs:
            if spec_up.yields[p] > 0.0 and p not in accepted:
                findings.append(
                    Finding(
                        "WARNING",
                        "orphan-output",
                        f"{up} output '{p}' (yield {spec_up.yields[p]}) is not accepted by {down}; "
                        "the pruned model cannot move it",
                    )
                )

    for k, t in enumerate(inst.periods):
        for p in inst.materials:
            eta = inst.quota_at(t.id, p)
            if eta > 0.0 and inst.supply_total(t.id, p) == 0.0:
                findings.append(
                    Finding(
                        "WARNING",
                        "quota-zero-supply",
                        f"quota {eta} on ('{t.id}', '{p}') has zero total supply; the row is vacuous",
                    )
                )

        if forced[0, k] <= 0.0:
            continue

        for e, tag in enumerate(ECHELON_TAGS):
            if not capacity_covers(widest[e], forced[e, k]):
                findings.append(
                    Finding(
                        "ERROR",
                        f"aggregate-{tag}-capacity-short",
                        f"period '{t.id}': quota forces {forced[e, k]:.6g} t into {tag.upper()} "
                        f"but aggregate capacity over all sites is only {widest[e]:.6g} t",
                    )
                )

        # everything leaving the DPF must fit inside sink demand, material by material
        for p in inst.dpf.outputs:
            forced_out = inst.dpf.yields[p] * forced[-1, k]
            cap = inst.demand_total(t.id, p)
            if not capacity_covers(cap, forced_out):
                findings.append(
                    Finding(
                        "ERROR",
                        "sink-demand-short",
                        f"period '{t.id}': quota forces {forced_out:.6g} t of '{p}' into sinks "
                        f"but total demand is {cap:.6g} t",
                    )
                )

    return findings
