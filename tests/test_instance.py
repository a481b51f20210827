import json

import pytest

from upcyclenet.errors import InstanceError
from upcyclenet.instance import (
    ECHELON_TAGS,
    errors_only,
    forced_inflow_tons,
    parse_instance,
    sanitize_id,
    serialize_instance,
    validate_instance,
)


def minimal_doc(**overrides):
    """A small valid document: two materials, pass-through chain."""
    def ech(prefix, lat, inputs, outputs, yields, cap=100.0):
        return {
            "sites": [{"id": f"{prefix}1", "lat": lat, "lon": 0.0}],
            "size_options": [
                {"id": "s1", "max_capacity_tons": cap, "install_cost_annual": 10.0}
            ],
            "op_cost_per_ton": 1.0,
            "inputs": inputs,
            "outputs": outputs,
            "yields": yields,
        }

    doc = {
        "name": "minimal",
        "options": {"circuity_factor": 1.0, "currency_unit": "EUR"},
        "materials": ["w", "g"],
        "periods": [{"id": "t1", "duration_years": 1.0}],
        "sources": [
            {"id": "src1", "lat": 0.0, "lon": 0.0, "supply": {"t1": {"w": 20.0}}}
        ],
        "sinks": [
            {"id": "snk1", "lat": 0.5, "lon": 0.0, "demand": {"t1": {"g": 50.0}}}
        ],
        "echelons": {
            "cf": ech("cf", 0.1, ["w"], ["w"], {"w": 1.0}),
            "rtf": ech("rtf", 0.2, ["w"], ["g"], {"g": 0.5}),
            "cpf": ech("cpf", 0.3, ["g"], ["g"], {"g": 1.0}),
            "dpf": ech("dpf", 0.4, ["g"], ["g"], {"g": 1.0}),
        },
        "quota": {"t1": {"w": 0.5}},
        "transport_cost": {"w": 0.3, "g": 0.05},
    }
    doc.update(overrides)
    return doc


def parse_doc(doc):
    return parse_instance(json.dumps(doc))


def test_sanitize_id_replaces_non_alphanumerics():
    assert sanitize_id("a b_c.d") == "a-b-c-d"
    assert sanitize_id("plain09") == "plain09"


def test_parse_minimal_roundtrip_is_canonical():
    inst = parse_doc(minimal_doc())
    text = serialize_instance(inst)
    again = serialize_instance(parse_instance(text))
    assert text == again
    assert text.endswith("\n")


def test_parse_reads_all_fields():
    inst = parse_doc(minimal_doc())
    assert inst.name == "minimal"
    assert inst.materials == ("w", "g")
    assert inst.periods[0].duration_years == 1.0
    assert inst.sources[0].supply[("t1", "w")] == 20.0
    assert inst.sinks[0].demand[("t1", "g")] == 50.0
    assert inst.cf.op_cost_per_ton == 1.0
    assert inst.rtf.yields["g"] == 0.5
    assert inst.quota[("t1", "w")] == 0.5
    assert inst.transport_cost["g"] == 0.05
    assert inst.circuity_factor == 1.0
    assert inst.currency_unit == "EUR"


@pytest.mark.parametrize(
    "mutate, fragment",
    [
        (lambda d: d.pop("materials"), "materials"),
        (lambda d: d.pop("periods"), "periods"),
        (lambda d: d["echelons"].pop("cf"), "cf"),
        (lambda d: d.update(bogus=1), "bogus"),
        (lambda d: d["periods"].__setitem__(0, {"id": "t1", "duration_years": 0.0}), "duration"),
        (lambda d: d["quota"]["t1"].__setitem__("w", 1.5), "quota"),
        (lambda d: d["options"].__setitem__("circuity_factor", 0.8), "circuity"),
        (lambda d: d["transport_cost"].__setitem__("nope", 1.0), "nope"),
        (lambda d: d["echelons"]["cf"].__setitem__("yields", {"w": -1.0}), "yield"),
        (lambda d: d["echelons"]["cf"].__setitem__("inputs", ["w", "w"]), "duplicate"),
    ],
)
def test_parse_rejects_bad_documents(mutate, fragment):
    doc = minimal_doc()
    mutate(doc)
    with pytest.raises(InstanceError) as err:
        parse_doc(doc)
    assert fragment in str(err.value)


@pytest.mark.parametrize(
    "role, field, where",
    [
        ("sinks", "supply", "sinks[0]"),
        ("sources", "demand", "sources[0]"),
        ("cf", "supply", "echelons.cf.sites[0]"),
        ("dpf", "demand", "echelons.dpf.sites[0]"),
    ],
)
def test_parse_rejects_role_fields_on_the_wrong_node(role, field, where):
    # a misplaced supply or demand used to parse and then vanish
    doc = minimal_doc()
    node = doc[role][0] if role in ("sources", "sinks") else doc["echelons"][role]["sites"][0]
    node[field] = {"t1": {"w": 5.0}}
    with pytest.raises(InstanceError) as err:
        parse_doc(doc)
    assert str(err.value) == f"{where}: unknown field '{field}'"


def test_parse_rejects_duplicate_and_colliding_ids():
    doc = minimal_doc()
    doc["sources"].append(dict(doc["sources"][0]))
    with pytest.raises(InstanceError, match="src1"):
        parse_doc(doc)

    doc = minimal_doc()
    doc["sources"].append(dict(doc["sources"][0], id="src.1"))
    # 'src1' vs 'src.1' sanitize apart, but 'src 1' and 'src.1' collide
    doc["sources"].append(dict(doc["sources"][0], id="src 1"))
    with pytest.raises(InstanceError):
        parse_doc(doc)


def test_parse_rejects_non_json_and_non_object():
    with pytest.raises(InstanceError):
        parse_instance("{not json")
    with pytest.raises(InstanceError):
        parse_instance("[1, 2]")


def test_echelon_is_the_field_of_its_tag():
    inst = parse_doc(minimal_doc())
    for tag in ECHELON_TAGS:
        assert inst.echelon(tag) is getattr(inst, tag)
    # "name" is a field of the instance, but not an echelon
    for tag in ("sources", "sinks", "name", "CF", ""):
        with pytest.raises(KeyError):
            inst.echelon(tag)


def test_leg_materials_pruning_matches_set_arithmetic():
    inst = parse_doc(minimal_doc())
    # oracle by hand: leg admits origin outputs intersected with dest inputs
    assert inst.leg_materials("src_cf", prune=True) == ("w",)
    assert inst.leg_materials("cf_rtf", prune=True) == ("w",)
    assert inst.leg_materials("rtf_cpf", prune=True) == ("g",)
    assert inst.leg_materials("cpf_dpf", prune=True) == ("g",)
    assert inst.leg_materials("dpf_sink", prune=True) == ("g",)
    for leg in ("src_cf", "cf_rtf", "rtf_cpf", "cpf_dpf", "dpf_sink"):
        assert inst.leg_materials(leg, prune=False) == ("w", "g")


def test_chain_inflow_factors_hand_oracle():
    inst = parse_doc(minimal_doc())
    # cf passes w at 1.0, rtf turns w into g at 0.5, cpf and dpf pass g at 1.0:
    # factors 1, 1, 0.5, 0.5 on the 10 t the quota mandates
    assert forced_inflow_tons(inst).tolist() == [[10.0], [10.0], [5.0], [5.0]]


def test_chain_inflow_factors_drop_unaccepted_outputs():
    doc = minimal_doc()
    # rtf also produces 'w', which cpf does not accept: it must not propagate
    doc["echelons"]["rtf"]["outputs"] = ["g", "w"]
    doc["echelons"]["rtf"]["yields"] = {"g": 0.5, "w": 0.3}
    forced = forced_inflow_tons(parse_doc(doc))
    assert forced[ECHELON_TAGS.index("cpf"), 0] == pytest.approx(0.5 * 10.0)


def test_quota_mandated_tons_hand_oracle():
    inst = parse_doc(minimal_doc())
    # eta 0.5 on 20 t of w, and w is collectable
    assert forced_inflow_tons(inst)[:2, 0].tolist() == [10.0, 10.0]

    doc = minimal_doc(quota={"t1": {"g": 1.0}})
    doc["sources"][0]["supply"]["t1"]["g"] = 8.0
    inst2 = parse_doc(doc)
    # g is under quota but not a cf input: mandated yes, collectable no
    assert forced_inflow_tons(inst2).tolist() == [[8.0], [0.0], [0.0], [0.0]]


@pytest.mark.parametrize("edit, key", [
    (lambda text: text.replace('"w": 20.0', '"w": 10.0, "w": 99.0'), "w"),
    (lambda text: text.replace('"name": "minimal"', '"name": "minimal", "name": "other"'), "name"),
])
def test_parse_rejects_a_repeated_key(edit, key):
    text = edit(json.dumps(minimal_doc()))
    with pytest.raises(InstanceError, match=f"^document: duplicate key '{key}'$"):
        parse_instance(text)


# JSON values that Python's decoder or `float` cannot take, each with the
# InstanceError it must give: an integer too large for a float, one past
# int()'s 4,300-digit limit, and an array nested 100,000 deep
GARBAGE_LITERALS = {
    "huge": ("1" + "0" * 400, "value must be finite"),
    "long": ("1" + "0" * 5000, "holds an integer too long to read"),
    "deep": ("[" * 100_000 + "]" * 100_000, "is nested too deeply to read"),
}


def garbage_document(case):
    """`minimal_doc` as text with a GARBAGE_LITERALS literal for its duration."""
    literal = GARBAGE_LITERALS[case][0]
    return json.dumps(minimal_doc()).replace('"duration_years": 1.0',
                                             f'"duration_years": {literal}')


@pytest.mark.parametrize("case", GARBAGE_LITERALS)
def test_parse_turns_garbage_json_into_instance_errors(case):
    with pytest.raises(InstanceError, match=GARBAGE_LITERALS[case][1]):
        parse_instance(garbage_document(case))


def test_validator_clean_on_consistent_instance():
    assert validate_instance(parse_doc(minimal_doc())) == []


def test_validator_unused_material_warning():
    doc = minimal_doc(materials=["w", "g", "x"])
    findings = validate_instance(parse_doc(doc))
    assert [f.code for f in findings] == ["unused-material"]
    assert findings[0].severity == "WARNING"


def test_validator_quota_uncollectable_warning():
    doc = minimal_doc(quota={"t1": {"g": 0.2}})
    doc["sources"][0]["supply"]["t1"]["g"] = 5.0
    codes = {f.code for f in validate_instance(parse_doc(doc))}
    assert "quota-uncollectable" in codes


def test_validator_orphan_output_warning():
    doc = minimal_doc()
    doc["echelons"]["cf"]["outputs"] = ["w", "g"]
    doc["echelons"]["cf"]["yields"] = {"w": 1.0, "g": 0.2}
    doc["echelons"]["rtf"]["inputs"] = ["w"]
    codes = {f.code for f in validate_instance(parse_doc(doc))}
    assert "orphan-output" in codes


def test_validator_quota_zero_supply_warning():
    doc = minimal_doc()
    doc["sources"][0]["supply"] = {}
    codes = {f.code for f in validate_instance(parse_doc(doc))}
    assert "quota-zero-supply" in codes


def test_validator_capacity_short_error():
    doc = minimal_doc()
    doc["echelons"]["cf"]["size_options"] = [
        {"id": "s1", "max_capacity_tons": 4.0, "install_cost_annual": 10.0}
    ]
    findings = validate_instance(parse_doc(doc))
    errs = errors_only(findings)
    assert [f.code for f in errs] == ["aggregate-cf-capacity-short"]


def test_validator_downstream_capacity_uses_inflow_factors():
    doc = minimal_doc()
    # forced cpf inflow is 0.5 * 10 = 5 t; capacity 4 is short
    doc["echelons"]["cpf"]["size_options"] = [
        {"id": "s1", "max_capacity_tons": 4.0, "install_cost_annual": 10.0}
    ]
    errs = errors_only(validate_instance(parse_doc(doc)))
    assert [f.code for f in errs] == ["aggregate-cpf-capacity-short"]


def test_validator_sink_demand_short_error():
    doc = minimal_doc()
    doc["sinks"][0]["demand"] = {"t1": {"g": 1.0}}
    # 5 t of g leave the dpf but sinks only take 1 t
    errs = errors_only(validate_instance(parse_doc(doc)))
    assert len(errs) == 1
    assert "sink" in errs[0].code


def test_validator_no_errors_without_quota():
    doc = minimal_doc(quota={})
    doc["echelons"]["cf"]["size_options"] = [
        {"id": "s1", "max_capacity_tons": 0.0, "install_cost_annual": 10.0}
    ]
    doc["sinks"][0]["demand"] = {}
    assert errors_only(validate_instance(parse_doc(doc))) == []


def test_finding_str_format():
    doc = minimal_doc(materials=["w", "g", "x"])
    f = validate_instance(parse_doc(doc))[0]
    assert str(f).startswith("WARNING [unused-material]")
