"""Great-circle distances between network nodes.

All distances in the model derive from node coordinates via the haversine
formula on a sphere of radius 6371.0088 km, optionally stretched by a
road-circuity factor.  Distances feed transport cost only; they are never
read from the instance document.  One dense matrix is built per leg of the
chain (sources->CF, CF->RTF, RTF->CPF, CPF->DPF, DPF->sinks); `build_milp`
and `solve_exact` each build them once per call.
"""

from __future__ import annotations

import io
import math
from dataclasses import dataclass

import numpy as np

from .instance import LEGS, Instance, Node

EARTH_RADIUS_KM = 6371.0088


def haversine_km(lat1: float, lon1: float, lat2: float, lon2: float) -> float:
    """Great-circle distance in km between two WGS-ish decimal-degree points.

    Symmetric bit for bit: the two endpoints enter an argument-order
    insensitive expression, so swapping them cannot change the result.
    """
    phi1 = math.radians(lat1)
    phi2 = math.radians(lat2)
    # |x - y| is the same float in either argument order, unlike sin(x - y)
    dphi = abs(math.radians(lat2) - math.radians(lat1))
    dlam = abs(math.radians(lon2) - math.radians(lon1))
    a = math.sin(dphi / 2.0) ** 2 + math.cos(phi1) * math.cos(phi2) * math.sin(dlam / 2.0) ** 2
    # guard rounding just past 1.0 on antipodal pairs
    a = min(1.0, max(0.0, a))
    return 2.0 * EARTH_RADIUS_KM * math.asin(math.sqrt(a))


def node_distance_km(a: Node, b: Node, circuity_factor: float = 1.0) -> float:
    """Leg length in km between two nodes, scaled by the circuity factor."""
    if circuity_factor < 1.0:
        raise ValueError(f"circuity_factor must be >= 1, got {circuity_factor}")
    if math.isnan(a.lat) or math.isnan(a.lon) or math.isnan(b.lat) or math.isnan(b.lon):
        raise ValueError("node coordinates must not be NaN")
    return circuity_factor * haversine_km(a.lat, a.lon, b.lat, b.lon)


@dataclass(frozen=True)
class DistanceMatrix:
    """Dense km matrix for one transport leg, row-major origins x destinations."""

    leg: str
    origin_ids: tuple[str, ...]
    dest_ids: tuple[str, ...]
    km: np.ndarray  # shape (len(origin_ids), len(dest_ids)), read-only

    def to_csv(self) -> str:
        """Audit dump: one line per ordered pair, km at 3 decimal places."""
        buf = io.StringIO()
        buf.write("origin,destination,km\n")
        for i, o in enumerate(self.origin_ids):
            for j, d in enumerate(self.dest_ids):
                buf.write(f"{o},{d},{self.km[i, j]:.3f}\n")
        return buf.getvalue()


def build_leg_matrices(inst: Instance) -> tuple[DistanceMatrix, ...]:
    """One distance matrix per leg, in chain order.

    Entries are filled in a fixed sequential order so repeated builds are
    bit-identical.
    """
    out = []
    for leg, origin_role, dest_role in LEGS:
        origins = inst.role_nodes(origin_role)
        dests = inst.role_nodes(dest_role)
        km = np.zeros((len(origins), len(dests)), dtype=np.float64)
        for i, a in enumerate(origins):
            for j, b in enumerate(dests):
                km[i, j] = node_distance_km(a, b, inst.circuity_factor)
        km.setflags(write=False)
        out.append(
            DistanceMatrix(
                leg=leg,
                origin_ids=tuple(n.id for n in origins),
                dest_ids=tuple(n.id for n in dests),
                km=km,
            )
        )
    return tuple(out)
