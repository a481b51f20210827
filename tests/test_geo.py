import dataclasses
import hashlib
import json
import math

import numpy as np
import pytest

from conftest import scaled_default_shape
from test_milp_core import random_shape_doc
from upcyclenet.geo import (
    EARTH_RADIUS_KM,
    build_leg_matrices,
    haversine_km,
    node_distance_km,
)
from upcyclenet.instance import LEGS, Node, parse_instance
from upcyclenet.scenario import make_tiny_suite, single_chain_instance


def greatcircle_oracle_km(lat1, lon1, lat2, lon2):
    """Independent reference: angle between unit vectors on the sphere."""
    def unit(lat, lon):
        phi, lam = math.radians(lat), math.radians(lon)
        return np.array([
            math.cos(phi) * math.cos(lam),
            math.cos(phi) * math.sin(lam),
            math.sin(phi),
        ])

    u, v = unit(lat1, lon1), unit(lat2, lon2)
    # atan2 form is numerically stable for both small and large angles
    angle = math.atan2(np.linalg.norm(np.cross(u, v)), float(np.dot(u, v)))
    return EARTH_RADIUS_KM * angle


def random_latlon(rng, n):
    lats = rng.uniform(-89.9, 89.9, size=n)
    lons = rng.uniform(-180.0, 180.0, size=n)
    return list(zip(lats.tolist(), lons.tolist()))


def test_known_city_pair_berlin_munich():
    d = haversine_km(52.5200, 13.4050, 48.1351, 11.5820)
    assert abs(d - 504.2) < 1.5


def test_matches_vector_geometry_oracle():
    rng = np.random.default_rng(11)
    pts = random_latlon(rng, 40)
    for (lat1, lon1), (lat2, lon2) in zip(pts[:-1], pts[1:]):
        got = haversine_km(lat1, lon1, lat2, lon2)
        want = greatcircle_oracle_km(lat1, lon1, lat2, lon2)
        assert got == pytest.approx(want, rel=1e-9, abs=1e-6)


def test_zero_and_antipodal():
    assert haversine_km(37.0, -5.0, 37.0, -5.0) == 0.0
    half = math.pi * EARTH_RADIUS_KM
    assert haversine_km(0.0, 0.0, 0.0, 180.0) == pytest.approx(half, rel=1e-12)


def test_bitwise_symmetry():
    rng = np.random.default_rng(12)
    pts = random_latlon(rng, 60)
    for (lat1, lon1), (lat2, lon2) in zip(pts[::2], pts[1::2]):
        assert haversine_km(lat1, lon1, lat2, lon2) == haversine_km(lat2, lon2, lat1, lon1)


def test_triangle_inequality():
    rng = np.random.default_rng(13)
    pts = random_latlon(rng, 30)
    for a, b, c in zip(pts[::3], pts[1::3], pts[2::3]):
        ab = haversine_km(*a, *b)
        bc = haversine_km(*b, *c)
        ac = haversine_km(*a, *c)
        assert ac <= ab + bc + 1e-9


def test_node_distance_applies_circuity():
    a = Node("a", 50.0, 8.0)
    b = Node("b", 51.0, 9.0)
    base = node_distance_km(a, b, 1.0)
    assert node_distance_km(a, b, 1.4) == pytest.approx(1.4 * base, rel=1e-15)
    for factor in (0.9, float("nan")):
        with pytest.raises(ValueError):
            node_distance_km(a, b, factor)


def test_node_distance_rejects_nan():
    a = Node("a", float("nan"), 8.0)
    b = Node("b", 51.0, 9.0)
    with pytest.raises(ValueError):
        node_distance_km(a, b, 1.0)
    with pytest.raises(ValueError):
        haversine_km(51.0, 9.0, 50.0, float("nan"))


def test_leg_matrices_shapes_and_values():
    inst = single_chain_instance()
    mats = build_leg_matrices(inst)
    assert isinstance(mats, tuple) and len(mats) == len(LEGS)
    for km, (_, origin_role, dest_role) in zip(mats, LEGS):
        assert km.shape == (len(inst.role_nodes(origin_role)), len(inst.role_nodes(dest_role)))
        assert not km.flags.writeable
        assert np.all(np.isfinite(km))
        # each hand-instance leg spans 10 km by construction
        assert km[0, 0] == pytest.approx(10.0, rel=1e-9)


# sha256 over every leg array of the 78 instances in `distance_instances`
# (each array's shape repr, then its bytes), recorded from the per-pair
# build that computed each pair's trigonometry on its own
LEG_MATRICES_SHA256 = "be7a85846567ac29ba86a507b913e5fe7d195896492574f65f450ed7659c4d05"


def distance_instances():
    """The tiny suite, `random_shape_doc` seeds 0-19 and the default
    generator shape at 10%, 25% and 100%."""
    insts = list(make_tiny_suite(2026))
    insts += [parse_instance(json.dumps(random_shape_doc(np.random.default_rng(seed))))
              for seed in range(20)]
    insts += [scaled_default_shape(fraction) for fraction in (0.10, 0.25, 1.0)]
    return insts


def test_leg_matrices_are_node_distances_bit_for_bit():
    insts = distance_instances()
    assert len(insts) == 78
    digest = hashlib.sha256()
    for inst in insts:
        mats = build_leg_matrices(inst)
        for km, (_, origin_role, dest_role) in zip(mats, LEGS, strict=True):
            pairs = [node_distance_km(a, b, inst.circuity_factor)
                     for a in inst.role_nodes(origin_role) for b in inst.role_nodes(dest_role)]
            assert km.tobytes() == np.array(pairs, dtype=np.float64).tobytes(), inst.name
            digest.update(repr(km.shape).encode())
            digest.update(km.tobytes())
    assert digest.hexdigest() == LEG_MATRICES_SHA256


def test_leg_matrices_reject_nan_coordinates_and_low_circuity():
    inst = single_chain_instance()
    site = inst.rtf.sites[0]
    for lat, lon in ((float("nan"), site.lon), (site.lat, float("nan"))):
        bad = dataclasses.replace(inst, rtf=dataclasses.replace(
            inst.rtf, sites=(Node(site.id, lat, lon),)))
        with pytest.raises(ValueError, match="NaN"):
            build_leg_matrices(bad)
    for factor in (0.9, float("nan")):
        with pytest.raises(ValueError, match="circuity_factor"):
            build_leg_matrices(dataclasses.replace(inst, circuity_factor=factor))
