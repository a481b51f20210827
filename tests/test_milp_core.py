import dataclasses
import json
import math
import tracemalloc

import numpy as np
import pytest

from conftest import scaled_default_shape
from scipy_milp_adapter import read_free_mps
from test_instance import minimal_doc, parse_doc
from upcyclenet import model_io
from upcyclenet.errors import ModelError, NamingError
from upcyclenet.geo import haversine_km
from upcyclenet.instance import Node, parse_instance, serialize_instance
from upcyclenet.model import (
    ROW_FAMILIES,
    VariableIndex,
    build_milp,
    count_columns,
    count_rows,
    flow_column_name,
    install_column_name,
    project_sizes,
)
from upcyclenet.model_io import dump_model, write_mps
from upcyclenet.scenario import _eta_zero_instance, make_tiny_suite, single_chain_instance

ECH = ("cf", "rtf", "cpf", "dpf")
LEG_ENDPOINTS = (
    ("src_cf", "sources", "cf"),
    ("cf_rtf", "cf", "rtf"),
    ("rtf_cpf", "rtf", "cpf"),
    ("cpf_dpf", "cpf", "dpf"),
    ("dpf_sink", "dpf", "sinks"),
)


# ---------------------------------------------------------------------------
# independent counting oracles, working on the raw document


def leg_materials_oracle(doc, leg, prune):
    if not prune:
        return list(doc["materials"])
    ech = doc["echelons"]
    allowed = {
        "src_cf": set(ech["cf"]["inputs"]),
        "cf_rtf": set(ech["cf"]["outputs"]) & set(ech["rtf"]["inputs"]),
        "rtf_cpf": set(ech["rtf"]["outputs"]) & set(ech["cpf"]["inputs"]),
        "cpf_dpf": set(ech["cpf"]["outputs"]) & set(ech["dpf"]["inputs"]),
        "dpf_sink": set(ech["dpf"]["outputs"]),
    }[leg]
    return [p for p in doc["materials"] if p in allowed]


def count_columns_oracle(doc, prune):
    ech = doc["echelons"]
    nT = len(doc["periods"])
    n_nodes = {
        "sources": len(doc["sources"]),
        "sinks": len(doc["sinks"]),
        **{tag: len(ech[tag]["sites"]) for tag in ECH},
    }
    n_sizes = {tag: len(ech[tag]["size_options"]) for tag in ECH}
    ncont = 0
    for leg, origin, dest in LEG_ENDPOINTS:
        block = nT * len(leg_materials_oracle(doc, leg, prune)) * n_nodes[origin] * n_nodes[dest]
        if dest in ECH:
            block *= n_sizes[dest]
        ncont += block
    nbin = sum(n_nodes[tag] * n_sizes[tag] for tag in ECH)
    return ncont, nbin


def count_rows_oracle(doc, prune):
    ech = doc["echelons"]
    nT = len(doc["periods"])
    leg0 = set(leg_materials_oracle(doc, "src_cf", prune))
    leg4 = set(leg_materials_oracle(doc, "dpf_sink", prune))

    demand = 0
    for t in doc["periods"]:
        for p in doc["materials"]:
            for s in doc["sinks"]:
                if p in leg4 or p in s.get("demand", {}).get(t["id"], {}):
                    demand += 1
    quota = sum(
        1 for tmap in doc.get("quota", {}).values() for v in tmap.values() if v > 0.0
    )
    source_cap = 0
    for t in doc["periods"]:
        for p in doc["materials"]:
            for s in doc["sources"]:
                if p in leg0 or s.get("supply", {}).get(t["id"], {}).get(p, 0.0) > 0.0:
                    source_cap += 1
    balance = nT * sum(len(ech[tag]["outputs"]) * len(ech[tag]["sites"]) for tag in ECH)
    cap = nT * sum(len(ech[tag]["sites"]) * len(ech[tag]["size_options"]) for tag in ECH)
    one = sum(len(ech[tag]["sites"]) for tag in ECH)
    return {
        "demand": demand,
        "quota": quota,
        "source_cap": source_cap,
        "flow_balance": balance,
        "facility_cap": cap,
        "one_size": one,
        "total": demand + quota + source_cap + balance + cap + one,
    }


def random_shape_doc(rng):
    nP = int(rng.integers(1, 4))
    materials = [f"m{k}" for k in range(nP)]
    nT = int(rng.integers(1, 4))
    periods = [
        {"id": f"t{k}", "duration_years": float(rng.choice([0.5, 1.0, 2.0]))}
        for k in range(nT)
    ]

    def coords():
        return float(rng.uniform(45, 55)), float(rng.uniform(5, 15))

    def pick_materials():
        n = int(rng.integers(1, nP + 1))
        return list(rng.choice(materials, size=n, replace=False))

    sources = []
    for k in range(int(rng.integers(1, 4))):
        lat, lon = coords()
        supply = {
            t["id"]: {p: round(float(rng.uniform(1, 20)), 3) for p in pick_materials()}
            for t in periods
        }
        sources.append({"id": f"s{k}", "lat": lat, "lon": lon, "supply": supply})
    sinks = []
    for k in range(int(rng.integers(1, 4))):
        lat, lon = coords()
        demand = {
            t["id"]: {p: round(float(rng.uniform(1, 50)), 3) for p in pick_materials()}
            for t in periods
        }
        sinks.append({"id": f"k{k}", "lat": lat, "lon": lon, "demand": demand})

    echelons = {}
    for tag in ECH:
        sites = []
        for k in range(int(rng.integers(1, 4))):
            lat, lon = coords()
            sites.append({"id": f"{tag}{k}", "lat": lat, "lon": lon})
        outs = pick_materials()
        echelons[tag] = {
            "sites": sites,
            "size_options": [
                {
                    "id": f"c{k}",
                    "max_capacity_tons": round(float(rng.uniform(10, 200)), 3),
                    "install_cost_annual": round(float(rng.uniform(1, 50)), 3),
                }
                for k in range(int(rng.integers(1, 4)))
            ],
            "op_cost_per_ton": round(float(rng.uniform(0, 5)), 3),
            "inputs": pick_materials(),
            "outputs": outs,
            "yields": {p: round(float(rng.uniform(0, 1)), 3) for p in outs},
        }

    quota = {}
    if rng.random() < 0.7:
        quota = {
            periods[0]["id"]: {materials[0]: round(float(rng.uniform(0, 1)), 3)}
        }
    return {
        "name": "shape",
        "materials": materials,
        "periods": periods,
        "sources": sources,
        "sinks": sinks,
        "echelons": echelons,
        "quota": quota,
        "transport_cost": {p: round(float(rng.uniform(0.01, 1)), 3) for p in materials},
    }


# ---------------------------------------------------------------------------
# counting


@pytest.mark.parametrize("case", range(10))
def test_counts_match_independent_loops(case):
    rng = np.random.default_rng(100 + case)
    doc = random_shape_doc(rng)
    inst = parse_instance(json.dumps(doc))
    for prune in (True, False):
        assert count_columns(inst, prune) == count_columns_oracle(doc, prune)
        want_rows = count_rows_oracle(doc, prune)
        assert count_rows(inst, prune) == want_rows
        model = build_milp(inst, prune=prune)
        assert model.index.n_continuous == want_columns_cont(doc, prune)
        by_family = {f: 0 for f in ROW_FAMILIES}
        for row in model.rows:
            by_family[row.family] += 1
        assert by_family == {f: want_rows[f] for f in ROW_FAMILIES}
        assert len(model.rows) == want_rows["total"]


def want_columns_cont(doc, prune):
    return count_columns_oracle(doc, prune)[0]


def table_names(index):
    """Every column name, decoded row by row from `index.name_table()`."""
    return [bytes(row[row != 0]).decode() for row in index.name_table()]


def test_single_chain_shape_forces_five_plus_four():
    inst = single_chain_instance()
    assert count_columns(inst, prune=True) == (5, 4)
    assert count_columns(inst, prune=False) == (5, 4)


def test_pruning_removes_unacceptable_source_columns():
    inst = parse_doc(minimal_doc())
    names = table_names(VariableIndex(inst, prune=True))
    src_cols = [n for n in names if n.startswith("xsrccf_")]
    assert src_cols == ["xsrccf_t1_w_src1_cf1_s1"]
    names_off = table_names(VariableIndex(inst, prune=False))
    src_cols_off = [n for n in names_off if n.startswith("xsrccf_")]
    assert "xsrccf_t1_g_src1_cf1_s1" in src_cols_off


# ---------------------------------------------------------------------------
# index structure


def test_column_key_offset_bijection():
    rng = np.random.default_rng(7)
    doc = random_shape_doc(rng)
    inst = parse_instance(json.dumps(doc))
    vindex = VariableIndex(inst, prune=True)
    names = table_names(vindex)
    assert len(set(names)) == vindex.n_columns
    for col in range(vindex.n_columns):
        key = vindex.column_key(col)
        if key[0] == "flow":
            _, leg, t, p, i, j, c = key
            space = vindex.leg(leg)
            back = space.offset(
                space.periods.index(t),
                space.materials.index(p),
                space.origins.index(i),
                space.dests.index(j),
                space.sizes.index(c) if c is not None else 0,
            )
        else:
            _, tag, site, size = key
            space = vindex.install(tag)
            back = space.offset(space.sites.index(site), space.sizes.index(size))
        assert back == col
    with pytest.raises(IndexError):
        vindex.column_key(vindex.n_columns)

    # `column` inverts the name formatter on every column
    for seed in (3, 4, 5):
        inst = parse_instance(json.dumps(random_shape_doc(np.random.default_rng(seed))))
        for prune in (True, False):
            vindex = VariableIndex(inst, prune=prune)
            assert [vindex.column(name) for name in table_names(vindex)] == list(range(vindex.n_columns))

    inst = parse_doc(minimal_doc())
    pruned, unpruned = VariableIndex(inst, prune=True), VariableIndex(inst, prune=False)
    assert pruned.column("xsrccf_t1_w_src1_cf1_s1") == 0
    assert pruned.column("xdpfsnk_t1_g_dpf1_snk1") is not None
    for name in ("xsrccf_t1_w_src1_cf1",  # too few tokens
                 "xsrccf_t1_w_src1_cf1_s1_s1",  # too many tokens
                 "zz_t1_w_src1_cf1_s1", "bxx_cf1_s1", "",  # unknown prefix
                 "xdpfsnk_t1_g_dpf1_snk1_s1",  # the sink leg has no size axis
                 "xsrccf_t1_w_src1_cf1_s1_", "bcf_cf1_s1_",  # trailing '_'
                 "xsrccf_t1_w_src1_cf9_s1",  # unknown id
                 "xsrccf_t1_g_src1_cf1_s1"):  # 'g' is pruned from the source leg
        assert pruned.column(name) is None, name
    col = unpruned.column("xsrccf_t1_g_src1_cf1_s1")
    assert unpruned.column_name(col) == "xsrccf_t1_g_src1_cf1_s1"

    # two ids with one sanitized token would give two columns one name; the
    # parser rejects such documents, so forge the instance
    sites = (Node("cf.1", 0.1, 0.0), Node("cf 1", 0.2, 0.0))
    forged = dataclasses.replace(inst, cf=dataclasses.replace(inst.cf, sites=sites))
    with pytest.raises(NamingError, match="'cf.1' and 'cf 1' both become 'cf-1'"):
        VariableIndex(forged, prune=True)


def test_name_key_is_the_column_key_of_the_named_column():
    for seed in (3, 4, 5):
        inst = parse_instance(json.dumps(random_shape_doc(np.random.default_rng(seed))))
        for prune in (True, False):
            vindex = VariableIndex(inst, prune=prune)
            assert ([vindex.name_key(name) for name in table_names(vindex)]
                    == [vindex.column_key(col) for col in range(vindex.n_columns)])
    pruned = VariableIndex(parse_doc(minimal_doc()), prune=True)
    for name in ("xsrccf_t1_w_src1_cf1", "zz_t1_w_src1_cf1_s1", "", "xsrccf_t1_w_src1_cf1_s1_",
                 "xsrccf_t1_w_src1_cf9_s1", "xsrccf_t1_g_src1_cf1_s1"):
        assert pruned.name_key(name) is None, name


def test_single_column_names_match_the_cached_block_names():
    # the oracle names its values one column at a time; those names must be
    # the model's own, or its solutions stop parsing against the model
    doc = random_shape_doc(np.random.default_rng(7))
    vindex = VariableIndex(parse_instance(json.dumps(doc)), prune=True)
    for col, name in enumerate(table_names(vindex)):
        key = vindex.column_key(col)
        single = flow_column_name(*key[1:]) if key[0] == "flow" else install_column_name(*key[1:])
        assert single == name
    assert flow_column_name("dpf_sink", "t 1", "p.x", "a", "b", None) == "xdpfsnk_t-1_p-x_a_b"
    assert install_column_name("cf", "site 1", "s.1") == "bcf_site-1_s-1"
    with pytest.raises(NamingError, match="exceeds 64"):
        install_column_name("cf", "x" * 70, "s1")


def test_empty_leg_block_at_the_bisect_boundary():
    # a second material 'g' that only the CF makes and the RTF does not
    # accept: with pruning on, cf_rtf has no columns and starts where
    # rtf_cpf starts, so a column lookup by block start must skip it
    doc = json.loads(serialize_instance(single_chain_instance()))
    doc["materials"].append("g")
    doc["transport_cost"]["g"] = 0.1
    doc["echelons"]["cf"].update(outputs=["g"], yields={"g": 1.0})
    inst = parse_instance(json.dumps(doc))
    for prune, counts in ((True, [1, 0, 1, 1, 1]), (False, [2, 2, 2, 2, 2])):
        model = build_milp(inst, prune=prune)
        vindex = model.index
        assert [space.count for space in vindex.legs] == counts
        names = table_names(vindex)
        assert [vindex.column(name) for name in names] == list(range(vindex.n_columns))
        keys = [vindex.column_key(col) for col in range(vindex.n_columns)]
        assert len(set(keys)) == len(keys)
        for key, name in zip(keys, names):
            assert key[1] != "cf_rtf" or not prune
            single = flow_column_name(*key[1:]) if key[0] == "flow" else install_column_name(*key[1:])
            assert single == name
        assert read_free_mps(write_mps(model)).column_order == list(names)


def test_flow_columns_precede_installs_in_chain_order():
    inst = parse_doc(minimal_doc())
    names = table_names(VariableIndex(inst, prune=False))
    prefixes = []
    for n in names:
        head = n.split("_")[0]
        if not prefixes or prefixes[-1] != head:
            prefixes.append(head)
    assert prefixes == [
        "xsrccf", "xcfrtf", "xrtfcpf", "xcpfdpf", "xdpfsnk",
        "bcf", "brtf", "bcpf", "bdpf",
    ]


def test_empty_chain_role_rejected():
    doc = minimal_doc()
    doc["echelons"]["rtf"]["sites"] = []
    inst = parse_doc(doc)
    with pytest.raises(ModelError, match="rtf"):
        VariableIndex(inst, prune=True)


# ---------------------------------------------------------------------------
# objective coefficients


def test_hand_instance_objective_coefficients():
    inst = single_chain_instance()
    model = build_milp(inst)
    names = table_names(model.index)
    coef = dict(zip(names, model.objective.tolist()))
    # per ton: 1.0 operating + 2 * 10 km * 0.1 transport = 3.0 on facility legs
    for name in ("xsrccf_t1_w_src1_cf1_s1", "xcfrtf_t1_w_cf1_rtf1_s1",
                 "xrtfcpf_t1_w_rtf1_cpf1_s1", "xcpfdpf_t1_w_cpf1_dpf1_s1"):
        assert coef[name] == pytest.approx(3.0, abs=1e-9)
    assert coef["xdpfsnk_t1_w_dpf1_snk1"] == pytest.approx(2.0, abs=1e-9)
    for name in ("bcf_cf1_s1", "brtf_rtf1_s1", "bcpf_cpf1_s1", "bdpf_dpf1_s1"):
        assert coef[name] == 100.0


def test_objective_dual_route_on_random_instance():
    rng = np.random.default_rng(55)
    doc = random_shape_doc(rng)
    inst = parse_instance(json.dumps(doc))
    model = build_milp(inst, prune=True)
    vindex = model.index
    dur = {t["id"]: t["duration_years"] for t in doc["periods"]}
    coords = {}
    for s in doc["sources"] + doc["sinks"]:
        coords[s["id"]] = (s["lat"], s["lon"])
    for tag in ECH:
        for s in doc["echelons"][tag]["sites"]:
            coords[s["id"]] = (s["lat"], s["lon"])
    dest_op = {tag: doc["echelons"][tag]["op_cost_per_ton"] for tag in ECH}

    cols = rng.choice(vindex.n_columns, size=min(40, vindex.n_columns), replace=False)
    horizon = sum(dur.values())
    for col in cols.tolist():
        key = vindex.column_key(col)
        if key[0] == "install":
            _, tag, site, size = key
            opts = {o["id"]: o for o in doc["echelons"][tag]["size_options"]}
            want = opts[size]["install_cost_annual"] * horizon
        else:
            _, leg, t, p, i, j, _ = key
            km = haversine_km(*coords[i], *coords[j])
            want = 2.0 * dur[t] * km * doc["transport_cost"][p]
            dest = dict((x[0], x[2]) for x in LEG_ENDPOINTS)[leg]
            if dest in ECH:
                want += dur[t] * dest_op[dest]
        assert model.objective[col] == pytest.approx(want, rel=1e-12)


def test_install_cost_is_annual_times_horizon():
    doc = minimal_doc(periods=[
        {"id": "t1", "duration_years": 2.0},
        {"id": "t2", "duration_years": 3.0},
    ])
    doc["sources"][0]["supply"]["t2"] = {"w": 20.0}
    doc["sinks"][0]["demand"]["t2"] = {"g": 50.0}
    doc["quota"]["t2"] = {"w": 0.5}
    inst = parse_doc(doc)
    model = build_milp(inst)
    b0 = model.index.n_continuous
    assert model.objective[b0] == pytest.approx(10.0 * 5.0)


def test_missing_transport_cost_is_an_error_only_when_material_flows():
    doc = minimal_doc(materials=["w", "g", "x"])
    doc["transport_cost"] = {"w": 0.3, "g": 0.05}
    inst = parse_doc(doc)
    build_milp(inst, prune=True)  # x rides no leg
    with pytest.raises(ModelError, match="x"):
        build_milp(inst, prune=False)


# ---------------------------------------------------------------------------
# rows


def test_hand_instance_row_names_golden():
    model = build_milp(single_chain_instance())
    assert [r.name for r in model.rows] == [
        "dem_t1_w_snk1",
        "quo_t1_w",
        "src_t1_w_src1",
        "balcf_t1_w_cf1",
        "balrtf_t1_w_rtf1",
        "balcpf_t1_w_cpf1",
        "baldpf_t1_w_dpf1",
        "capcf_t1_cf1_s1",
        "caprtf_t1_rtf1_s1",
        "capcpf_t1_cpf1_s1",
        "capdpf_t1_dpf1_s1",
        "onecf_cf1",
        "onertf_rtf1",
        "onecpf_cpf1",
        "onedpf_dpf1",
    ]


def test_balance_row_applies_yield_to_inbound():
    doc = minimal_doc()
    inst = parse_doc(doc)
    model = build_milp(inst, prune=True)
    row = next(r for r in model.rows if r.name == "balrtf_t1_g_rtf1")
    assert row.sense == "E" and row.rhs == 0.0
    coefs = {model.index.column_name(c): v for c, v in zip(row.cols, row.coefs)}
    assert coefs["xcfrtf_t1_w_cf1_rtf1_s1"] == pytest.approx(0.5)
    assert coefs["xrtfcpf_t1_g_rtf1_cpf1_s1"] == -1.0


def test_zero_yield_coefficients_are_skipped():
    doc = minimal_doc()
    doc["echelons"]["rtf"]["yields"] = {"g": 0.0}
    model = build_milp(parse_doc(doc), prune=True)
    row = next(r for r in model.rows if r.name == "balrtf_t1_g_rtf1")
    coefs = {model.index.column_name(c): v for c, v in zip(row.cols, row.coefs)}
    # only the outbound -1 remains; the 0-yield inbound is not stored
    assert all(v == -1.0 for v in coefs.values())
    assert all(n.startswith("xrtfcpf_") for n in coefs)


def test_facility_cap_links_inflow_to_chosen_size():
    inst = single_chain_instance()
    model = build_milp(inst)
    row = next(r for r in model.rows if r.name == "capcf_t1_cf1_s1")
    coefs = {model.index.column_name(c): v for c, v in zip(row.cols, row.coefs)}
    assert coefs == {"xsrccf_t1_w_src1_cf1_s1": 1.0, "bcf_cf1_s1": -15.0}
    assert row.sense == "L" and row.rhs == 0.0


def test_one_size_rows_even_with_single_option():
    inst = single_chain_instance()
    model = build_milp(inst)
    ones = [r for r in model.rows if r.family == "one_size"]
    assert len(ones) == 4
    for r in ones:
        assert r.sense == "L" and r.rhs == 1.0
        assert all(v == 1.0 for v in r.coefs)


def test_rows_are_read_only_views_of_the_constraint_arrays():
    """`Model.rows` copies no entry, at the 50% default shape: each row's
    `cols` and `coefs` are read-only views of its slice of
    `constraints.indices` and `.data` that iterate as Python ints and
    floats.  Two memoryviews and a `Row` cost about 0.7 KB, whatever the
    row's length, so one `Model.rows` stays under 1 KiB per row, while
    the entries take over 2 KiB per row and a copy of them cannot fit."""
    model = build_milp(scaled_default_shape(0.5))
    block = model.constraints
    entry_bytes = block.indices.nbytes + block.data.nbytes
    assert entry_bytes > 2 * 1024 * block.n_rows
    rows = model.rows
    assert len(rows) == block.n_rows
    for r, row in enumerate(rows):
        lo, hi = block.indptr[r], block.indptr[r + 1]
        for view, array, kind in ((row.cols, block.indices, int), (row.coefs, block.data, float)):
            assert view.readonly and len(view) == hi - lo
            assert all(type(v) is kind for v in view)
            if hi > lo:
                assert np.shares_memory(np.asarray(view), array)
                assert np.asarray(view).ctypes.data == array[lo:hi].ctypes.data
    del rows
    tracemalloc.start()
    try:
        rows = model.rows
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1024 * block.n_rows, (peak, entry_bytes)


def test_row_activity_keeps_the_tuple_formula_bits():
    """`Row.activity` over the views gives the bits of the formula over the
    tuples the rows once held, and a row read twice compares equal."""
    model = build_milp(scaled_default_shape(0.25))
    block = model.constraints
    x = np.random.default_rng(26).uniform(-1e3, 1e3, model.n_columns)
    for r, row in enumerate(model.rows):
        lo, hi = block.indptr[r], block.indptr[r + 1]
        cols, coefs = tuple(block.indices[lo:hi].tolist()), tuple(block.data[lo:hi].tolist())
        want = float(sum(v * x[c] for c, v in zip(cols, coefs)))
        assert row.activity(x).hex() == want.hex(), row.name
        assert row == block.row(r)
    assert block.row(0) != block.row(1)


def test_long_identifier_overflows_name_limit():
    doc = minimal_doc()
    doc["echelons"]["cf"]["sites"][0]["id"] = "x" * 70
    inst = parse_doc(doc)
    with pytest.raises(NamingError):
        build_milp(inst, prune=True)


GOLDEN_HAND_DUMP = """\
model fingerprint=657a8d47d7a4662c3574dc8c76eb649b5b3698e4075707b641b906806ee4e672 prune=on install_cost_mode=annualized_times_horizon
columns=9 continuous=5 binary=4 rows=15
objective xsrccf_t1_w_src1_cf1_s1:3.0 xcfrtf_t1_w_cf1_rtf1_s1:3.0 xrtfcpf_t1_w_rtf1_cpf1_s1:3.0 xcpfdpf_t1_w_cpf1_dpf1_s1:3.0 xdpfsnk_t1_w_dpf1_snk1:1.9999999999999991 bcf_cf1_s1:100.0 brtf_rtf1_s1:100.0 bcpf_cpf1_s1:100.0 bdpf_dpf1_s1:100.0
dem_t1_w_snk1 [demand('t1', 'w', 'snk1')] <= 10.0 :: xdpfsnk_t1_w_dpf1_snk1:1.0
quo_t1_w [quota('t1', 'w')] >= 10.0 :: xsrccf_t1_w_src1_cf1_s1:1.0
src_t1_w_src1 [source_cap('t1', 'w', 'src1')] <= 10.0 :: xsrccf_t1_w_src1_cf1_s1:1.0
balcf_t1_w_cf1 [flow_balance('cf', 't1', 'w', 'cf1')] == 0.0 :: xsrccf_t1_w_src1_cf1_s1:1.0 xcfrtf_t1_w_cf1_rtf1_s1:-1.0
balrtf_t1_w_rtf1 [flow_balance('rtf', 't1', 'w', 'rtf1')] == 0.0 :: xcfrtf_t1_w_cf1_rtf1_s1:1.0 xrtfcpf_t1_w_rtf1_cpf1_s1:-1.0
balcpf_t1_w_cpf1 [flow_balance('cpf', 't1', 'w', 'cpf1')] == 0.0 :: xrtfcpf_t1_w_rtf1_cpf1_s1:1.0 xcpfdpf_t1_w_cpf1_dpf1_s1:-1.0
baldpf_t1_w_dpf1 [flow_balance('dpf', 't1', 'w', 'dpf1')] == 0.0 :: xcpfdpf_t1_w_cpf1_dpf1_s1:1.0 xdpfsnk_t1_w_dpf1_snk1:-1.0
capcf_t1_cf1_s1 [facility_cap('cf', 't1', 'cf1', 's1')] <= 0.0 :: xsrccf_t1_w_src1_cf1_s1:1.0 bcf_cf1_s1:-15.0
caprtf_t1_rtf1_s1 [facility_cap('rtf', 't1', 'rtf1', 's1')] <= 0.0 :: xcfrtf_t1_w_cf1_rtf1_s1:1.0 brtf_rtf1_s1:-15.0
capcpf_t1_cpf1_s1 [facility_cap('cpf', 't1', 'cpf1', 's1')] <= 0.0 :: xrtfcpf_t1_w_rtf1_cpf1_s1:1.0 bcpf_cpf1_s1:-15.0
capdpf_t1_dpf1_s1 [facility_cap('dpf', 't1', 'dpf1', 's1')] <= 0.0 :: xcpfdpf_t1_w_cpf1_dpf1_s1:1.0 bdpf_dpf1_s1:-15.0
onecf_cf1 [one_size('cf', 'cf1')] <= 1.0 :: bcf_cf1_s1:1.0
onertf_rtf1 [one_size('rtf', 'rtf1')] <= 1.0 :: brtf_rtf1_s1:1.0
onecpf_cpf1 [one_size('cpf', 'cpf1')] <= 1.0 :: bcpf_cpf1_s1:1.0
onedpf_dpf1 [one_size('dpf', 'dpf1')] <= 1.0 :: bdpf_dpf1_s1:1.0
"""


def test_dump_model_matches_golden_text():
    assert dump_model(build_milp(single_chain_instance())) == GOLDEN_HAND_DUMP


def test_dump_model_mentions_every_row_family():
    text = dump_model(build_milp(single_chain_instance()))
    for fragment in ("objective", "demand", "quota", "source_cap", "flow_balance",
                     "facility_cap", "one_size"):
        assert fragment in text
    assert "np.float64" not in text


def reference_dump(model):
    """The listing formatted one f-string per entry over `Model.rows`."""
    names = table_names(model.index)
    sense_txt = {"L": "<=", "G": ">=", "E": "=="}
    lines = [
        f"model fingerprint={model.fingerprint} prune={'on' if model.prune else 'off'} "
        "install_cost_mode=annualized_times_horizon",
        f"columns={model.n_columns} continuous={model.index.n_continuous} "
        f"binary={model.index.n_binary} rows={model.n_rows}",
        "objective " + " ".join(
            f"{names[c]}:{float(model.objective[c])!r}"
            for c in range(model.n_columns)
            if model.objective[c] != 0.0
        ),
    ]
    for row in model.rows:
        body = " ".join(f"{names[c]}:{float(v)!r}" for c, v in zip(row.cols, row.coefs))
        lines.append(f"{row.name} [{row.family}{row.key!r}] {sense_txt[row.sense]} {row.rhs!r} :: {body}")
    return "\n".join(lines) + "\n"


def zero_capacity_model():
    """Two size options of 0.0 and -0.0 tons at the CF, so its capacity rows
    hold -0.0 and 0.0 coefficients, and a non-ASCII site id in the row keys."""
    doc = minimal_doc()
    doc["echelons"]["cf"]["sites"][0]["id"] = "cf-ü1"
    doc["echelons"]["cf"]["size_options"] = [
        {"id": "z0", "max_capacity_tons": 0.0, "install_cost_annual": 10.0},
        {"id": "z1", "max_capacity_tons": -0.0, "install_cost_annual": 10.0},
    ]
    return build_milp(parse_doc(doc))


def test_dump_model_matches_the_per_entry_reference(monkeypatch):
    models = [build_milp(single_chain_instance()), zero_capacity_model()]
    for inst in make_tiny_suite(2026):
        models += [build_milp(inst, prune=True), build_milp(inst, prune=False)]
    for seed in range(3, 9):
        inst = parse_instance(json.dumps(random_shape_doc(np.random.default_rng(seed))))
        models += [build_milp(inst, prune=True), build_milp(inst, prune=False)]
    for model in models:
        assert dump_model(model) == reference_dump(model)
    assert sum(1 for model in models for row in model.rows if not row.cols) > 0
    zeros = [v for v in models[1].constraints.data if v == 0.0]
    assert {math.copysign(1.0, v) for v in zeros} == {1.0, -1.0}
    text = dump_model(models[1])
    assert ":-0.0" in text and ":0.0" in text and "'cf-ü1'" in text
    # without objective entries the `objective ` line stays
    model = dataclasses.replace(models[0], objective=np.zeros(models[0].n_columns))
    assert "\nobjective \n" in dump_model(model)
    assert dump_model(model) == reference_dump(model)
    # the text does not depend on how many records make a batch
    for chunk in (1, 7):
        monkeypatch.setattr(model_io, "_MPS_CHUNK", chunk)
        for model in models[:2] + models[-2:]:
            assert dump_model(model) == reference_dump(model)


def test_size_projection_refuses_two_entries_in_one_summed_row():
    # the s2 flow into the CF also booked in the s1 capacity row: once the
    # rows are summed over sizes, that column meets the summed row twice
    doc = minimal_doc()
    doc["echelons"]["cf"]["size_options"].append(
        {"id": "s2", "max_capacity_tons": 200.0, "install_cost_annual": 20.0})
    model = build_milp(parse_doc(doc))
    project_sizes(model)
    block, index = model.constraints, model.index
    r = block.names.index("capcf_t1_cf1_s1")
    flow = index.column("xsrccf_t1_w_src1_cf1_s2")
    indices = block.indices.copy()
    indices[block.indptr[r]] = flow
    forged = dataclasses.replace(model, constraints=dataclasses.replace(block, indices=indices))
    with pytest.raises(ModelError, match="xsrccf_t1_w_src1_cf1_s2 has more than one entry"):
        project_sizes(forged)


@pytest.mark.parametrize("make", [single_chain_instance, _eta_zero_instance])
def test_row_family_is_the_family_slice_holding_it(make):
    block = build_milp(make()).constraints
    for family in ROW_FAMILIES:
        rows = range(block.n_rows)[block.family_slice(family)]
        assert all(block.row(r).family == family for r in rows)


def test_model_fingerprint_tracks_instance_identity():
    a = build_milp(parse_doc(minimal_doc()))
    b = build_milp(parse_doc(minimal_doc()))
    c = build_milp(parse_doc(minimal_doc(name="other")))
    assert a.fingerprint == b.fingerprint
    assert a.fingerprint != c.fingerprint


def test_count_examples_order_of_magnitude_formula():
    # spot check the closed form with plain arithmetic on one fixed shape
    doc = minimal_doc()
    inst = parse_doc(doc)
    ncont, nbin = count_columns(inst, prune=False)
    # 5 legs x 1 period x 2 materials x 1 origin x 1 dest (x 1 size)
    assert ncont == 5 * 1 * 2 * 1 * 1
    assert nbin == 4
    assert math.isclose(ncont + nbin, 14)
