"""Seeded synthetic instance generation.

Two producers live here:

* `generate(spec)`: a case-study-shaped instance ("pur-de" defaults): a
  Germany-like bounding box, a five-material polyurethane upcycling chain
  (raw waste, shredded waste, briquette, pyrolysis oil, feedstock), size
  ladders with economies of scale, three equal periods with seasonal supply
  variation, and a collection quota on the raw waste.  All numeric defaults
  are synthetic: they imitate the published study's *shape* (lightweight
  raw waste that is expensive to haul, densified intermediates that are
  cheap to haul, concave install-cost ladders), not its unpublished data.

* `make_tiny_suite(seed)`: 50+ instances small enough for the exhaustive
  oracle, spanning the corner cases the test suite leans on (zero and full
  quota, forced infeasibility, co-located nodes, single-material chains).

Randomness comes from numpy's Philox counter-based bit generator keyed
directly with the user seed.  Only raw 64-bit draws are used, mapped to
floats as (u >> 11) / 2**53; no Generator distribution methods, so the
byte stream, and therefore every generated document, is reproducible for a
seed independent of numpy's distribution implementations.  Draw order is
fixed: source coordinates, source base supplies, per-period variation,
facility coordinates echelon by echelon, sink coordinates.
"""

from __future__ import annotations

import json
import math
from collections.abc import Callable
from dataclasses import dataclass, field

import numpy as np

from .errors import InstanceError
from .instance import (
    ECHELON_TAGS,
    Instance,
    _as_number,
    _load_object,
    _reject_unknown,
    _require,
    parse_instance,
    serialize_instance,
)

GERMANY_BBOX = (47.27, 55.06, 5.87, 15.04)  # lat min, lat max, lon min, lon max

PUR_MATERIALS = ("pur-waste", "pur-shred", "briquette", "pyro-oil", "feedstock")

# per t*km; raw PUR waste is bulky and light, ~10x the briquette rate and
# ~30x the pyrolysis-oil rate, which is what pushes collection outward and
# chemical processing inward
PUR_TRANSPORT = {
    "pur-waste": 0.30,
    "pur-shred": 0.15,
    "briquette": 0.03,
    "pyro-oil": 0.01,
    "feedstock": 0.012,
}

PUR_YIELDS = {"cf": 0.95, "rtf": 0.90, "cpf": 0.75, "dpf": 0.85}
PUR_OP_COST = {"cf": 25.0, "rtf": 60.0, "cpf": 120.0, "dpf": 90.0}


@dataclass(frozen=True)
class SizeLadder:
    """Geometric capacity ladder with a concave install-cost curve:
    cost(s) = base_cost * (capacity_s / base_capacity) ** exponent."""

    count: int
    base_capacity: float
    growth_ratio: float
    base_cost: float
    exponent: float

    def capacities(self) -> list[float]:
        return [self.base_capacity * self.growth_ratio**k for k in range(self.count)]

    def costs(self) -> list[float]:
        return [
            self.base_cost * (cap / self.base_capacity) ** self.exponent
            for cap in self.capacities()
        ]


DEFAULT_LADDERS = {
    "cf": SizeLadder(8, 250.0, 1.6, 150_000.0, 0.6),
    "rtf": SizeLadder(5, 800.0, 2.0, 400_000.0, 0.6),
    "cpf": SizeLadder(5, 1500.0, 2.0, 1_200_000.0, 0.6),
    "dpf": SizeLadder(5, 1500.0, 2.0, 1_000_000.0, 0.6),
}


@dataclass(frozen=True)
class GenSpec:
    seed: int = 0
    n_sources: int = 220
    n_cf: int = 60
    n_rtf: int = 40
    n_cpf: int = 25
    n_dpf: int = 25
    n_sinks: int = 6
    ladders: dict[str, SizeLadder] = field(default_factory=lambda: dict(DEFAULT_LADDERS))
    n_periods: int = 3
    period_years: float = 1.0 / 3.0
    supply_variation_pct: tuple[float, float] = (10.0, 30.0)
    bbox: tuple[float, float, float, float] = GERMANY_BBOX
    quota_level: float = 0.6
    supply_range_tons: tuple[float, float] = (100.0, 1000.0)
    demand_margin: float = 1.5

    def validate(self) -> None:
        counts = (self.n_sources, self.n_cf, self.n_rtf, self.n_cpf, self.n_dpf,
                  self.n_sinks, self.n_periods)
        if any(n < 1 for n in counts):
            raise InstanceError("generator counts must all be >= 1")
        lo, hi = self.supply_variation_pct
        if not (0.0 <= lo <= hi <= 100.0):
            raise InstanceError("supply variation range must lie within [0, 100]")
        for tag in ECHELON_TAGS:
            if tag not in self.ladders:
                raise InstanceError(f"missing size ladder for {tag}")
            ladder = self.ladders[tag]
            if ladder.count < 1 or ladder.base_capacity <= 0.0 or ladder.base_cost < 0.0:
                raise InstanceError(f"invalid size ladder for {tag}")
            if ladder.growth_ratio <= 1.0:
                raise InstanceError(f"size ladder growth ratio must be > 1 for {tag}")
        if not 0.0 <= self.quota_level <= 1.0:
            raise InstanceError("quota level must lie within [0, 1]")
        if self.period_years <= 0.0:
            raise InstanceError("period duration must be positive")
        s_lo, s_hi = self.supply_range_tons
        if not 0.0 < s_lo <= s_hi:
            raise InstanceError("supply range must be positive and ordered")
        if self.demand_margin < 1.0:
            raise InstanceError("demand margin must be >= 1")

    @staticmethod
    def from_json(text: str, seed: int | None = None) -> "GenSpec":
        """A spec from a JSON object of field overrides; every field's type
        and shape is checked, and a bad one is an InstanceError naming it."""
        doc = _load_object(text, "generator spec")
        kwargs: dict = {}
        for key, value in doc.items():
            where = f"generator spec: {key}"
            if key in _SPEC_INTEGERS:
                kwargs[key] = _spec_integer(value, where)
            elif key in _SPEC_NUMBERS:
                kwargs[key] = _as_number(value, where)
            elif key in _SPEC_ARRAYS:
                kwargs[key] = _spec_numbers(value, _SPEC_ARRAYS[key], where)
            elif key == "ladders":
                kwargs[key] = _spec_ladders(value, where)
            else:
                raise InstanceError(f"generator spec: unknown field '{key}'")
        if seed is not None:
            kwargs["seed"] = seed
        spec = GenSpec(**kwargs)
        spec.validate()
        return spec


_SPEC_INTEGERS = ("seed", "n_sources", "n_cf", "n_rtf", "n_cpf", "n_dpf", "n_sinks", "n_periods")
_SPEC_NUMBERS = ("period_years", "quota_level", "demand_margin")
_SPEC_ARRAYS = {"supply_variation_pct": 2, "supply_range_tons": 2, "bbox": 4}  # field: length
_LADDER_FIELDS = ("count", "base_capacity", "growth_ratio", "base_cost", "exponent")


def _spec_integer(value: object, where: str) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise InstanceError(f"{where}: expected an integer, got {value!r}")
    return value


def _spec_numbers(value: object, length: int, where: str) -> tuple[float, ...]:
    if not isinstance(value, list) or len(value) != length:
        raise InstanceError(f"{where}: expected an array of {length} numbers, got {value!r}")
    return tuple(_as_number(v, f"{where}[{k}]") for k, v in enumerate(value))


def _spec_ladders(value: object, where: str) -> dict[str, SizeLadder]:
    """The default ladders with the given echelons' ladders replaced; a
    given ladder sets all five fields."""
    if not isinstance(value, dict):
        raise InstanceError(f"{where}: expected an object keyed by echelon")
    ladders = dict(DEFAULT_LADDERS)
    for tag, lad in value.items():
        if tag not in ECHELON_TAGS:
            raise InstanceError(f"generator spec: unknown echelon '{tag}'")
        at = f"{where}.{tag}"
        if not isinstance(lad, dict):
            raise InstanceError(f"{at}: expected an object")
        _reject_unknown(lad, set(_LADDER_FIELDS), at)
        fields = {f: _require(lad, f, at) for f in _LADDER_FIELDS}
        ladders[tag] = SizeLadder(
            count=_spec_integer(fields.pop("count"), f"{at}.count"),
            **{f: _as_number(v, f"{at}.{f}") for f, v in fields.items()},
        )
    return ladders


class _Rand:
    """Sequential floats from raw Philox output; stable across numpy versions."""

    def __init__(self, seed: int) -> None:
        self._bg = np.random.Philox(key=np.uint64(seed & (2**64 - 1)))
        self._buf: np.ndarray = np.empty(0, dtype=np.uint64)
        self._at = 0

    def _raw(self) -> int:
        if self._at >= self._buf.size:
            self._buf = self._bg.random_raw(1024)
            self._at = 0
        v = int(self._buf[self._at])
        self._at += 1
        return v

    def unit(self) -> float:
        return (self._raw() >> 11) / float(2**53)

    def uniform(self, lo: float, hi: float) -> float:
        return lo + (hi - lo) * self.unit()

    def loguniform(self, lo: float, hi: float) -> float:
        return math.exp(self.uniform(math.log(lo), math.log(hi)))

    def sign(self) -> float:
        return 1.0 if self._raw() & 1 else -1.0

    def choice(self, items):
        return items[self._raw() % len(items)]


def _round6(x: float) -> float:
    return round(x, 6)


def generate(spec: GenSpec) -> Instance:
    """Deterministic instance for a spec; see module docstring for the pack."""
    spec.validate()
    rng = _Rand(spec.seed)
    lat_lo, lat_hi, lon_lo, lon_hi = spec.bbox

    def coords() -> tuple[float, float]:
        return _round6(rng.uniform(lat_lo, lat_hi)), _round6(rng.uniform(lon_lo, lon_hi))

    def ids(prefix: str, n: int) -> list[str]:
        width = len(str(n))
        return [f"{prefix}{k + 1:0{width}d}" for k in range(n)]

    periods = [
        {"id": f"t{k + 1}", "duration_years": spec.period_years}
        for k in range(spec.n_periods)
    ]

    source_ids = ids("src", spec.n_sources)
    source_pts = [coords() for _ in source_ids]
    bases = [rng.loguniform(*spec.supply_range_tons) for _ in source_ids]
    lo_pct, hi_pct = spec.supply_variation_pct
    variation = [rng.sign() * rng.uniform(lo_pct, hi_pct) / 100.0 for _ in periods]

    raw = PUR_MATERIALS[0]
    sources = []
    for sid, (lat, lon), base in zip(source_ids, source_pts, bases):
        supply = {
            p["id"]: {raw: _round6(base * (1.0 + u))}
            for p, u in zip(periods, variation)
        }
        sources.append({"id": sid, "lat": lat, "lon": lon, "supply": supply})

    counts = {"cf": spec.n_cf, "rtf": spec.n_rtf, "cpf": spec.n_cpf, "dpf": spec.n_dpf}
    chain = list(PUR_MATERIALS)
    echelons = {}
    for pos, tag in enumerate(ECHELON_TAGS):
        ladder = spec.ladders[tag]
        sites = []
        for sid in ids(tag, counts[tag]):
            lat, lon = coords()
            sites.append({"id": sid, "lat": lat, "lon": lon})
        size_options = [
            {
                "id": f"s{k + 1}",
                "max_capacity_tons": _round6(cap),
                "install_cost_annual": _round6(cost),
            }
            for k, (cap, cost) in enumerate(zip(ladder.capacities(), ladder.costs()))
        ]
        echelons[tag] = {
            "sites": sites,
            "size_options": size_options,
            "op_cost_per_ton": PUR_OP_COST[tag],
            "inputs": [chain[pos]],
            "outputs": [chain[pos + 1]],
            "yields": {chain[pos + 1]: PUR_YIELDS[tag]},
        }

    # demand sized so even full collection of every period's supply fits the
    # sinks with margin; keeps generated instances validator-clean
    chain_to_sink = 1.0
    for tag in ECHELON_TAGS:
        chain_to_sink *= PUR_YIELDS[tag]
    sink_ids = ids("snk", spec.n_sinks)
    sinks = []
    sink_pts = [coords() for _ in sink_ids]
    product = PUR_MATERIALS[-1]
    totals = {
        p["id"]: sum(s["supply"][p["id"]][raw] for s in sources) for p in periods
    }
    for sid, (lat, lon) in zip(sink_ids, sink_pts):
        demand = {
            p["id"]: {
                product: _round6(
                    spec.demand_margin * chain_to_sink * totals[p["id"]] / spec.n_sinks
                )
            }
            for p in periods
        }
        sinks.append({"id": sid, "lat": lat, "lon": lon, "demand": demand})

    doc = {
        "name": f"pur-de-{spec.seed}",
        "options": {"circuity_factor": 1.0, "currency_unit": "EUR"},
        "materials": list(PUR_MATERIALS),
        "periods": periods,
        "sources": sources,
        "sinks": sinks,
        "echelons": echelons,
        "quota": {p["id"]: {raw: spec.quota_level} for p in periods},
        "transport_cost": dict(PUR_TRANSPORT),
    }
    return parse_instance(json.dumps(doc))


# ---------------------------------------------------------------------------
# hand-checkable and desk-scale instances


def single_chain_instance() -> Instance:
    """One node per role in a straight 10 km chain; every parameter chosen so
    the optimum is computable by hand.

    Nodes sit on the prime meridian with consecutive latitudes one
    10-km-arc apart, so each leg's great-circle distance is 10 km to within
    float rounding.  With 10 t supply, full quota, unit yields, 0.1 per
    t*km transport on every material, unit operating costs, 100 install
    per facility and a one-year single period, the optimum ships 10 t down
    the whole chain: install 4*100, operating 4*10*1, transport
    2*(5 legs * 10 km * 0.1 * 10 t), total 540.
    """
    step_deg = math.degrees(10.0 / 6371.0088)

    def node(i: int, nid: str) -> dict:
        return {"id": nid, "lat": i * step_deg, "lon": 0.0}

    def echelon(tag: str, pos: int) -> dict:
        return {
            "sites": [node(pos, f"{tag}1")],
            "size_options": [{"id": "s1", "max_capacity_tons": 15.0, "install_cost_annual": 100.0}],
            "op_cost_per_ton": 1.0,
            "inputs": ["w"],
            "outputs": ["w"],
            "yields": {"w": 1.0},
        }

    doc = {
        "name": "single-chain",
        "options": {"circuity_factor": 1.0, "currency_unit": "EUR"},
        "materials": ["w"],
        "periods": [{"id": "t1", "duration_years": 1.0}],
        "sources": [dict(node(0, "src1"), supply={"t1": {"w": 10.0}})],
        "sinks": [dict(node(5, "snk1"), demand={"t1": {"w": 10.0}})],
        "echelons": {tag: echelon(tag, pos + 1) for pos, tag in enumerate(ECHELON_TAGS)},
        "quota": {"t1": {"w": 1.0}},
        "transport_cost": {"w": 0.1},
    }
    return parse_instance(json.dumps(doc))


def _tiny_random(seed: int, index: int) -> Instance:
    """One randomized oracle-scale instance; shapes are kept small enough
    that exhaustive enumeration stays fast."""
    rng = _Rand((seed << 16) ^ (index * 2654435761 % 2**31))
    two_materials = index % 7 != 3
    materials = ["w", "g"] if two_materials else ["w"]
    product = materials[-1]
    n_periods = 1 + (index % 2)
    durations = [rng.choice([0.5, 1.0]) for _ in range(n_periods)]
    periods = [{"id": f"t{k + 1}", "duration_years": durations[k]} for k in range(n_periods)]

    # per-echelon shape drawn, then downgraded from the back until the
    # configuration count stays enumerable in a few hundred milliseconds
    budget = 6561 if index % 10 == 0 else 1024
    shapes = [rng.choice([(1, 1), (1, 2), (2, 1), (2, 2), (3, 1)]) for _ in ECHELON_TAGS]
    k = len(shapes) - 1
    while math.prod((sz + 1) ** st for st, sz in shapes) > budget:
        shapes[k] = (1, 1)
        k -= 1

    n_sources = 1 + (index % 3)
    n_sinks = 1 + (index % 2)

    def coords() -> tuple[float, float]:
        return _round6(rng.uniform(50.0, 51.0)), _round6(rng.uniform(8.0, 9.0))

    eta = rng.choice([0.0, 0.3, 0.6, 1.0])
    sources = []
    for k in range(n_sources):
        lat, lon = coords()
        supply = {}
        if not (k == n_sources - 1 and index % 6 == 0):  # sometimes a dry source
            supply = {
                p["id"]: {"w": _round6(rng.uniform(5.0, 20.0))} for p in periods
            }
        sources.append({"id": f"src{k + 1}", "lat": lat, "lon": lon, "supply": supply})

    total_supply = {
        p["id"]: sum(s["supply"].get(p["id"], {}).get("w", 0.0) for s in sources)
        for p in periods
    }
    peak_mandated = max((eta * total_supply[p["id"]] for p in periods), default=0.0)

    gammas = {}
    for tag in ECHELON_TAGS:
        gammas[tag] = 1.0 if index % 4 == 0 else _round6(rng.uniform(0.5, 1.0))
    if index % 17 == 0:
        gammas["cpf"] = 0.0  # nothing survives chemical processing; still feasible

    echelons = {}
    forced = peak_mandated
    split_sites = index % 5 == 0
    for pos, tag in enumerate(ECHELON_TAGS):
        n_sites, n_sizes = shapes[pos]
        sites = []
        for k in range(n_sites):
            lat, lon = coords()
            sites.append({"id": f"{tag}{k + 1}", "lat": lat, "lon": lon})
        if forced > 0.0:
            # biggest option covers the forced tonnage with margin; when
            # splitting, one site alone cannot carry it all
            need = forced / n_sites if (split_sites and n_sites > 1) else forced
            big = _round6(max(1.0, 1.3 * need))
        else:
            big = _round6(rng.uniform(5.0, 30.0))
        caps = [big] if n_sizes == 1 else [_round6(0.5 * big), big]
        size_options = []
        for k, cap in enumerate(caps):
            cost = _round6(rng.uniform(20.0, 200.0) * (cap / caps[-1]) ** 0.7)
            size_options.append(
                {"id": f"s{k + 1}", "max_capacity_tons": cap, "install_cost_annual": cost}
            )
        inputs = ["w"] if pos == 0 else [product]
        outputs = [product]
        echelons[tag] = {
            "sites": sites,
            "size_options": size_options,
            "op_cost_per_ton": _round6(rng.uniform(0.5, 3.0)),
            "inputs": inputs,
            "outputs": outputs,
            "yields": {product: gammas[tag]},
        }
        forced *= gammas[tag]

    sinks = []
    for k in range(n_sinks):
        lat, lon = coords()
        demand = {
            p["id"]: {
                product: _round6(
                    max(1.0, 1.5 * total_supply[p["id"]] / n_sinks)
                )
            }
            for p in periods
        }
        if index % 9 == 0 and two_materials:
            for p in periods:
                demand[p["id"]]["w"] = 2.0  # capacity for a material sinks never see
        sinks.append({"id": f"snk{k + 1}", "lat": lat, "lon": lon, "demand": demand})

    transport = {"w": _round6(rng.uniform(0.05, 0.3))}
    if two_materials:
        transport["g"] = _round6(rng.uniform(0.005, 0.05))

    doc = {
        "name": f"tiny-{seed}-{index}",
        "options": {"circuity_factor": rng.choice([1.0, 1.0, 1.2]), "currency_unit": "EUR"},
        "materials": materials,
        "periods": periods,
        "sources": sources,
        "sinks": sinks,
        "echelons": echelons,
        "quota": {p["id"]: {"w": eta} for p in periods} if eta > 0.0 else {},
        "transport_cost": transport,
    }
    return parse_instance(json.dumps(doc))


def _derived(inst: Instance, name: str, edit: Callable[[dict], object]) -> Instance:
    """`inst` through its document: renamed `name`, changed by `edit`, parsed."""
    doc = json.loads(serialize_instance(inst))
    doc["name"] = name
    edit(doc)
    return parse_instance(json.dumps(doc))


def _eta_zero_instance() -> Instance:
    return _derived(_tiny_random(7, 1), "eta-zero", lambda doc: doc.update(quota={}))


def _infeasible_quota_instance() -> Instance:
    """Full quota against a collection echelon that cannot hold it."""
    small = [{"id": "s1", "max_capacity_tons": 5.0, "install_cost_annual": 100.0}]
    return _derived(single_chain_instance(), "quota-over-capacity",
                    lambda doc: doc["echelons"]["cf"].update(size_options=small))


def _colocated_instance() -> Instance:
    """Two CF candidates on one spot, CPF and DPF candidates on another."""
    def edit(doc: dict) -> None:
        cf, cpf = doc["echelons"]["cf"]["sites"][0], doc["echelons"]["cpf"]["sites"][0]
        doc["echelons"]["cf"]["sites"] = [cf, dict(cf, id="cf2")]
        doc["echelons"]["dpf"]["sites"][0].update(lat=cpf["lat"], lon=cpf["lon"])

    return _derived(single_chain_instance(), "colocated", edit)


def _zero_distance_instance() -> Instance:
    """Source and collection site share coordinates: a zero-length leg."""
    def edit(doc: dict) -> None:
        source = doc["sources"][0]
        doc["echelons"]["cf"]["sites"][0].update(lat=source["lat"], lon=source["lon"])

    return _derived(single_chain_instance(), "zero-distance", edit)


def make_tiny_suite(seed: int, size: int = 55) -> list[Instance]:
    """Oracle-scale suite: four constructed corner cases, the hand-checkable
    chain, and seeded random fill up to `size` members."""
    if size < 5:
        raise InstanceError("tiny suite needs at least 5 members")
    suite = [
        single_chain_instance(),
        _eta_zero_instance(),
        _infeasible_quota_instance(),
        _colocated_instance(),
        _zero_distance_instance(),
    ]
    for index in range(size - len(suite)):
        suite.append(_tiny_random(seed, index))
    return suite
