import json

import pytest

from test_instance import GARBAGE_LITERALS
from upcyclenet.errors import InstanceError
from upcyclenet.instance import (
    errors_only,
    parse_instance,
    serialize_instance,
    validate_instance,
)
from upcyclenet.model import count_columns
from upcyclenet.oracle import count_configurations
from upcyclenet.scenario import (
    DEFAULT_LADDERS,
    GERMANY_BBOX,
    PUR_MATERIALS,
    GenSpec,
    SizeLadder,
    generate,
    make_tiny_suite,
    single_chain_instance,
)


# ---------------------------------------------------------------------------
# size ladders


def test_ladder_capacities_grow_geometrically():
    ladder = SizeLadder(4, 100.0, 2.0, 1000.0, 0.6)
    assert ladder.capacities() == [100.0, 200.0, 400.0, 800.0]


def test_ladder_cost_exponent_one_is_proportional():
    ladder = SizeLadder(4, 100.0, 2.0, 1000.0, 1.0)
    caps, costs = ladder.capacities(), ladder.costs()
    for cap, cost in zip(caps, costs):
        assert cost == pytest.approx(1000.0 * cap / 100.0)


def test_ladder_concave_exponent_gives_scale_economies():
    ladder = SizeLadder(5, 100.0, 2.0, 1000.0, 0.6)
    per_ton = [cost / cap for cap, cost in zip(ladder.capacities(), ladder.costs())]
    assert all(a > b for a, b in zip(per_ton, per_ton[1:]))


# ---------------------------------------------------------------------------
# generator spec


def test_genspec_defaults_validate():
    GenSpec().validate()


def test_genspec_from_json_overrides_and_seed():
    spec = GenSpec.from_json('{"n_sources": 10, "quota_level": 0.4}', seed=9)
    assert spec.n_sources == 10
    assert spec.quota_level == 0.4
    assert spec.seed == 9
    assert spec.ladders == DEFAULT_LADDERS


def test_genspec_from_json_rejects_unknown_fields():
    with pytest.raises(InstanceError, match="mystery"):
        GenSpec.from_json('{"mystery": 1}')


# spec documents that once escaped from_json as raw Python exceptions,
# with the field each error must name
BAD_SPECS = [
    ({"ladders": {"cf": {}}}, "ladders.cf: missing required field 'count'"),
    ({"n_sources": "abc"}, "n_sources: expected an integer"),
    ({"n_sources": 2.5}, "n_sources: expected an integer"),
    ({"bbox": [1, 2]}, "bbox: expected an array of 4 numbers"),
    ({"supply_range_tons": 5}, "supply_range_tons: expected an array of 2 numbers"),
    ({"ladders": []}, "ladders: expected an object"),
]


@pytest.mark.parametrize("doc, message", BAD_SPECS)
def test_genspec_from_json_rejects_bad_field_types(doc, message):
    with pytest.raises(InstanceError) as err:
        GenSpec.from_json(json.dumps(doc))
    assert message in str(err.value)


def test_genspec_from_json_rejects_a_repeated_key():
    with pytest.raises(InstanceError, match="^generator spec: duplicate key 'n_sources'$"):
        GenSpec.from_json('{"n_sources": 3, "n_sources": 500}')


def garbage_spec(case):
    """A generator spec whose quota level is a GARBAGE_LITERALS literal."""
    return f'{{"quota_level": {GARBAGE_LITERALS[case][0]}}}'


@pytest.mark.parametrize("case", GARBAGE_LITERALS)
def test_genspec_from_json_turns_garbage_json_into_instance_errors(case):
    with pytest.raises(InstanceError, match=GARBAGE_LITERALS[case][1]):
        GenSpec.from_json(garbage_spec(case))


def test_genspec_names_a_missing_size_ladder():
    ladders = {"cf": DEFAULT_LADDERS["cf"]}
    with pytest.raises(InstanceError, match="^missing size ladder for rtf$"):
        GenSpec(ladders=ladders).validate()
    with pytest.raises(InstanceError, match="^missing size ladder for rtf$"):
        generate(GenSpec(ladders=ladders))


def test_genspec_from_json_counts_are_integers_not_bools():
    for field in ("n_cf", "n_periods", "seed"):
        with pytest.raises(InstanceError, match=field):
            GenSpec.from_json(json.dumps({field: True}))
    ladder = {"count": 2.0, "base_capacity": 10, "growth_ratio": 2, "base_cost": 1, "exponent": 0.7}
    with pytest.raises(InstanceError, match="ladders.rtf.count"):
        GenSpec.from_json(json.dumps({"ladders": {"rtf": ladder}}))
    ladder["count"] = 2
    spec = GenSpec.from_json(json.dumps({"ladders": {"rtf": ladder}}))
    assert spec.ladders["rtf"] == SizeLadder(2, 10.0, 2.0, 1.0, 0.7)
    assert spec.ladders["cf"] == DEFAULT_LADDERS["cf"]


def test_genspec_rejects_bad_values():
    with pytest.raises(InstanceError):
        GenSpec(n_sources=0).validate()
    with pytest.raises(InstanceError):
        GenSpec(quota_level=1.5).validate()
    with pytest.raises(InstanceError):
        GenSpec(supply_variation_pct=(30.0, 10.0)).validate()


# ---------------------------------------------------------------------------
# generated instances


def small_spec(seed=0):
    return GenSpec(
        seed=seed,
        n_sources=6,
        n_cf=3,
        n_rtf=2,
        n_cpf=2,
        n_dpf=2,
        n_sinks=2,
        supply_range_tons=(20.0, 100.0),
        ladders={
            "cf": SizeLadder(2, 250.0, 1.6, 150_000.0, 0.6),
            "rtf": SizeLadder(2, 800.0, 2.0, 400_000.0, 0.6),
            "cpf": SizeLadder(2, 1500.0, 2.0, 1_200_000.0, 0.6),
            "dpf": SizeLadder(2, 1500.0, 2.0, 1_000_000.0, 0.6),
        },
    )


def test_generate_is_deterministic_per_seed():
    a = serialize_instance(generate(small_spec(seed=5)))
    b = serialize_instance(generate(small_spec(seed=5)))
    c = serialize_instance(generate(small_spec(seed=6)))
    assert a == b
    assert a != c


def test_generated_instance_structure():
    inst = generate(small_spec(seed=3))
    assert inst.name == "pur-de-3"
    assert inst.materials == PUR_MATERIALS
    assert len(inst.sources) == 6
    assert len(inst.cf.sites) == 3
    assert len(inst.sinks) == 2
    lat_min, lat_max, lon_min, lon_max = GERMANY_BBOX
    for node in (
        list(inst.role_nodes("sources"))
        + list(inst.role_nodes("cf"))
        + list(inst.role_nodes("sinks"))
    ):
        assert lat_min <= node.lat <= lat_max
        assert lon_min <= node.lon <= lon_max
    assert inst.cf.inputs == ("pur-waste",)
    assert inst.dpf.outputs == ("feedstock",)
    # quota applies to the raw waste stream in every period
    for t in inst.periods:
        assert inst.quota_at(t.id, "pur-waste") == 0.6


@pytest.mark.parametrize("seed", [0, 1, 2, 42])
def test_generated_instances_pass_validation(seed):
    inst = generate(small_spec(seed=seed))
    assert errors_only(validate_instance(inst)) == []


def test_default_scale_matches_published_order_of_magnitude():
    inst = generate(GenSpec(seed=1))
    ncont, nbin = count_columns(inst, prune=False)
    assert 10 ** 6 <= ncont < 10 ** 7
    assert 10 ** 2 <= nbin < 10 ** 4
    assert nbin == 930
    assert ncont == 1_888_125


def test_generated_round_trips_through_the_parser():
    inst = generate(small_spec(seed=8))
    text = serialize_instance(inst)
    assert serialize_instance(parse_instance(text)) == text


# ---------------------------------------------------------------------------
# hand instance


def test_single_chain_instance_parameters():
    inst = single_chain_instance()
    assert inst.materials == ("w",)
    assert [t.duration_years for t in inst.periods] == [1.0]
    assert inst.supply_total("t1", "w") == 10.0
    assert inst.demand_total("t1", "w") == 10.0
    assert inst.quota_at("t1", "w") == 1.0
    assert inst.transport_cost["w"] == 0.1
    for tag in ("cf", "rtf", "cpf", "dpf"):
        spec = inst.echelon(tag)
        assert spec.op_cost_per_ton == 1.0
        assert [o.max_capacity_tons for o in spec.size_options] == [15.0]
        assert [o.install_cost_annual for o in spec.size_options] == [100.0]
        assert spec.yields == {"w": 1.0}


# ---------------------------------------------------------------------------
# tiny suite


def test_tiny_suite_shape_and_determinism():
    suite = make_tiny_suite(2026)
    again = make_tiny_suite(2026)
    assert len(suite) == 55
    assert [serialize_instance(i) for i in suite] == [serialize_instance(i) for i in again]
    names = [i.name for i in suite]
    assert len(set(names)) == len(names)


def test_tiny_suite_members_stay_enumerable():
    for inst in make_tiny_suite(2026):
        assert count_configurations(inst) <= 6561


def test_tiny_suite_contains_designed_corner_cases():
    suite = make_tiny_suite(2026)
    names = [i.name for i in suite[:5]]
    assert names == [
        "single-chain",
        "eta-zero",
        "quota-over-capacity",
        "colocated",
        "zero-distance",
    ]
    # the over-quota member is the one the validator must catch
    errs = errors_only(validate_instance(suite[2]))
    assert errs and errs[0].code == "aggregate-cf-capacity-short"
    assert errors_only(validate_instance(suite[0])) == []


def test_tiny_suite_requires_room_for_corner_cases():
    with pytest.raises(InstanceError):
        make_tiny_suite(1, size=3)


def test_eta_zero_member_has_no_quota():
    suite = make_tiny_suite(2026)
    inst = suite[1]
    assert inst.quota == {}
