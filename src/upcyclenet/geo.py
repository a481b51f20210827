"""Great-circle distances between network nodes.

All distances in the model derive from node coordinates via the haversine
formula on a sphere of radius 6371.0088 km, optionally stretched by a
road-circuity factor.  Distances feed transport cost only; they are never
read from the instance document.  `build_leg_matrices` gives one read-only
km array per leg in `LEGS` order; `build_milp` and `solve_exact` each
build them once per call.  Every distance comes from one kernel,
`_haversine`, on each node's radians and latitude cosine (`_node_trig`),
so a leg's array holds exactly the floats of `node_distance_km`.
"""

from __future__ import annotations

import math

import numpy as np

from .instance import LEGS, Instance, Node

EARTH_RADIUS_KM = 6371.0088


def _node_trig(lat: float, lon: float) -> tuple[float, float, float]:
    """Latitude and longitude in radians, and the cosine of the latitude."""
    if math.isnan(lat) or math.isnan(lon):
        raise ValueError("node coordinates must not be NaN")
    phi = math.radians(lat)
    return phi, math.radians(lon), math.cos(phi)


def _haversine(p: tuple[float, float, float], q: tuple[float, float, float]) -> float:
    """Great-circle km between two `_node_trig` points.

    Symmetric bit for bit: the two endpoints enter an argument-order
    insensitive expression, so swapping them cannot change the result.
    """
    # |x - y| is the same float in either argument order, unlike sin(x - y)
    dphi = abs(q[0] - p[0])
    dlam = abs(q[1] - p[1])
    a = math.sin(dphi / 2.0) ** 2 + p[2] * q[2] * math.sin(dlam / 2.0) ** 2
    # guard rounding just past 1.0 on antipodal pairs
    a = min(1.0, max(0.0, a))
    return 2.0 * EARTH_RADIUS_KM * math.asin(math.sqrt(a))


def _circuity(factor: float) -> float:
    if not factor >= 1.0:  # NaN fails this
        raise ValueError(f"circuity_factor must be >= 1, got {factor}")
    return factor


def haversine_km(lat1: float, lon1: float, lat2: float, lon2: float) -> float:
    """Great-circle distance in km between two WGS-ish decimal-degree
    points; ValueError on a NaN coordinate."""
    return _haversine(_node_trig(lat1, lon1), _node_trig(lat2, lon2))


def node_distance_km(a: Node, b: Node, circuity_factor: float = 1.0) -> float:
    """Leg length in km between two nodes, scaled by the circuity factor."""
    factor = _circuity(circuity_factor)
    return factor * _haversine(_node_trig(a.lat, a.lon), _node_trig(b.lat, b.lon))


def build_leg_matrices(inst: Instance) -> tuple[np.ndarray, ...]:
    """One read-only km array per leg in `LEGS` order, shaped (origins,
    destinations) in the instance's declaration order; entry [i, j] is
    `node_distance_km(origin i, destination j, inst.circuity_factor)`."""
    factor = _circuity(inst.circuity_factor)
    out = []
    for _, origin_role, dest_role in LEGS:
        origins = [_node_trig(n.lat, n.lon) for n in inst.role_nodes(origin_role)]
        dests = [_node_trig(n.lat, n.lon) for n in inst.role_nodes(dest_role)]
        km = np.array([factor * _haversine(p, q) for p in origins for q in dests],
                      dtype=np.float64).reshape(len(origins), len(dests))
        km.flags.writeable = False
        out.append(km)
    return tuple(out)
