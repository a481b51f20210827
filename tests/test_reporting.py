import csv
import hashlib
import io
import json

import pytest

from test_instance import minimal_doc, parse_doc
from upcyclenet.errors import ReportError, SolutionError
from upcyclenet.instance import parse_instance, serialize_instance
from upcyclenet.model import VariableIndex, build_milp
from upcyclenet.model_io import Solution, parse_solution
from upcyclenet.oracle import solve_exact
from upcyclenet.reporting import (
    DecodedFlow,
    DecodedInstall,
    breakdown_costs,
    compute_utilization,
    decode_solution,
    export_flows,
    export_layout,
    utilization_csv,
)
from upcyclenet.scenario import make_tiny_suite, single_chain_instance


@pytest.fixture(scope="module")
def hand_case():
    inst = single_chain_instance()
    model = build_milp(inst)
    sol, _ = solve_exact(inst)
    return inst, model, sol


# ---------------------------------------------------------------------------
# decoding


def test_decode_roundtrips_flows_and_installs(hand_case):
    inst, _, sol = hand_case
    flows, installs = decode_solution(sol, inst)
    assert {(f.leg, f.origin, f.dest) for f in flows} == {
        ("src_cf", "src1", "cf1"),
        ("cf_rtf", "cf1", "rtf1"),
        ("rtf_cpf", "rtf1", "cpf1"),
        ("cpf_dpf", "cpf1", "dpf1"),
        ("dpf_sink", "dpf1", "snk1"),
    }
    assert all(f.period == "t1" and f.material == "w" for f in flows)
    assert sorted((b.echelon, b.site, b.size) for b in installs) == [
        ("cf", "cf1", "s1"),
        ("cpf", "cpf1", "s1"),
        ("dpf", "dpf1", "s1"),
        ("rtf", "rtf1", "s1"),
    ]


def test_decode_rejects_foreign_names(hand_case):
    inst, _, _ = hand_case
    bad = Solution(values={"xsrccf_t1_w_src1_cf9_s1": 1.0}, objective_reported=0.0)
    with pytest.raises(ReportError, match="cf9"):
        decode_solution(bad, inst)
    bad = Solution(values={"zz_t1": 1.0}, objective_reported=0.0)
    with pytest.raises(ReportError, match="naming scheme"):
        decode_solution(bad, inst)


# sha256 over repr((flows, installs)) of every 2026 tiny-suite member's
# oracle solution, pruning on then off, re-recorded when every oracle LP
# came to start from the slack basis with the dual simplex (the same flows
# as before, some values moved in their last bits)
TINY_SUITE_DECODE_SHA256 = "b5c7b785710f61b56be823b907d711eab846ffd1a39f2686662ce42f37674996"


def test_decoding_the_tiny_suite_keeps_its_lists():
    digest = hashlib.sha256()
    for inst in make_tiny_suite(2026):
        index = VariableIndex(inst, prune=False)
        for prune in (True, False):
            sol, _ = solve_exact(inst, prune=prune)
            flows, installs = decode_solution(sol, inst)
            keyed = [(index.column_key(index.column(name)), value)
                     for name, value in sol.values.items() if value != 0.0]
            assert flows == [DecodedFlow(*key[1:], value) for key, value in keyed
                             if key[0] == "flow"]
            assert installs == [DecodedInstall(*key[1:], value) for key, value in keyed
                                if key[0] == "install"]
            digest.update(repr((flows, installs)).encode())
    assert digest.hexdigest() == TINY_SUITE_DECODE_SHA256


def test_decode_reads_materials_that_pruning_drops():
    # 'g' is not accepted at the collection facility, so the pruned model
    # has no column for it on the source leg; the reports still read it
    inst = parse_doc(minimal_doc())
    name = "xsrccf_t1_g_src1_cf1_s1"
    flows, installs = decode_solution(Solution(values={name: 2.0}, objective_reported=0.0), inst)
    assert [(f.leg, f.period, f.material, f.origin, f.dest, f.size, f.tons) for f in flows] == [
        ("src_cf", "t1", "g", "src1", "cf1", "s1", 2.0)]
    assert installs == []
    with pytest.raises(SolutionError, match="unknown column name"):
        parse_solution(f"{name} 2.0\n", build_milp(inst, prune=True))


# ---------------------------------------------------------------------------
# cost breakdown


def test_breakdown_hand_values(hand_case):
    inst, model, sol = hand_case
    bd = breakdown_costs(sol, model, inst)
    assert bd.installation == pytest.approx(400.0, abs=1e-9)
    assert bd.operating_total == pytest.approx(40.0, abs=1e-9)
    assert bd.transport_total == pytest.approx(100.0, abs=1e-9)
    assert bd.total == pytest.approx(540.0, abs=1e-9)
    assert bd.currency == "EUR"
    assert bd.operating[("t1", "cf")] == pytest.approx(10.0, abs=1e-9)
    assert bd.transport[("t1", "dpf_sink")] == pytest.approx(20.0, abs=1e-9)


def test_breakdown_reconciliation_failure_is_hard_error(hand_case):
    inst, model, sol = hand_case
    tampered = Solution(
        values=dict(sol.values),
        objective_reported=sol.objective_reported + 1.0,
        status=sol.status,
        source=sol.source,
    )
    with pytest.raises(ReportError, match="reconcile"):
        breakdown_costs(tampered, model, inst)
    for source in ("oracle", "external"):
        nan = Solution(values=dict(sol.values), objective_reported=float("nan"), source=source)
        with pytest.raises(ReportError, match="does not reconcile with reported objective nan"):
            breakdown_costs(nan, model, inst)


def test_breakdown_external_tolerance_is_looser(hand_case):
    inst, model, sol = hand_case
    nudged = Solution(
        values=dict(sol.values),
        objective_reported=sol.objective_reported * (1.0 + 2e-8),
        status="optimal",
        source="external",
    )
    bd = breakdown_costs(nudged, model, inst)  # inside 1e-6 relative
    assert bd.total == pytest.approx(540.0, abs=1e-6)
    with pytest.raises(ReportError):
        breakdown_costs(
            Solution(values=dict(sol.values),
                     objective_reported=sol.objective_reported * (1.0 + 2e-8),
                     status="optimal", source="oracle"),
            model, inst,
        )


def test_breakdown_csv_shape(hand_case):
    inst, model, sol = hand_case
    lines = breakdown_costs(sol, model, inst).to_csv().strip().splitlines()
    assert lines[0] == "component,period,detail,cost"
    assert lines[1] == "installation,,,400.000000"
    assert lines[-1] == "total,,,540.000000"
    assert "operating,t1,cf,10.000000" in lines
    assert "transport,t1,src_cf,20.000000" in lines


def test_csv_tables_quote_an_id_with_a_comma_a_quote_and_a_newline():
    doc = json.loads(serialize_instance(single_chain_instance()))
    site_id = 'Koeln, "Nord"\nWest'
    doc["echelons"]["cf"]["sites"][0]["id"] = site_id
    inst = parse_instance(json.dumps(doc))
    sol, _ = solve_exact(inst)
    flows = export_flows(sol, inst)
    tables = {
        "breakdown": breakdown_costs(sol, build_milp(inst), inst).to_csv(),
        "flows": flows.to_csv(),
        "facilities": flows.facilities_csv(),
        "layout": export_layout(sol, inst).to_csv(),
        "utilization": utilization_csv(compute_utilization(sol, inst)),
    }
    for name, text in tables.items():
        header, *rows = csv.reader(io.StringIO(text))
        assert rows and all(len(row) == len(header) for row in rows), name
        if name != "breakdown":  # the only table without a site column
            assert any(site_id in row for row in rows), name


def test_breakdown_installation_matches_oracle_horizon():
    doc = minimal_doc(periods=[
        {"id": "t1", "duration_years": 2.0},
        {"id": "t2", "duration_years": 3.0},
    ])
    doc["sources"][0]["supply"]["t2"] = {"w": 20.0}
    doc["sinks"][0]["demand"]["t2"] = {"g": 50.0}
    doc["quota"]["t2"] = {"w": 0.5}
    inst = parse_doc(doc)
    sol, _ = solve_exact(inst)
    bd = breakdown_costs(sol, build_milp(inst), inst)
    # all four echelons open one 10-cost size each, over a 5-year horizon
    assert bd.installation == pytest.approx(4 * 10.0 * 5.0, abs=1e-9)


# ---------------------------------------------------------------------------
# flow table


def test_flow_table_hand_golden(hand_case):
    inst, _, sol = hand_case
    table = export_flows(sol, inst)
    assert [
        (r.period, r.leg, r.origin, r.destination, r.material, r.tons) for r in table.rows
    ] == [
        ("t1", "src_cf", "src1", "cf1", "w", 10.0),
        ("t1", "cf_rtf", "cf1", "rtf1", "w", 10.0),
        ("t1", "rtf_cpf", "rtf1", "cpf1", "w", 10.0),
        ("t1", "cpf_dpf", "cpf1", "dpf1", "w", 10.0),
        ("t1", "dpf_sink", "dpf1", "snk1", "w", 10.0),
    ]
    assert [(f.echelon, f.site, f.size, f.max_capacity_tons) for f in table.facilities] == [
        ("cf", "cf1", "s1", 15.0),
        ("rtf", "rtf1", "s1", 15.0),
        ("cpf", "cpf1", "s1", 15.0),
        ("dpf", "dpf1", "s1", 15.0),
    ]
    csv = table.to_csv()
    assert csv.splitlines()[0] == "period,leg,origin,destination,material,tons"
    assert "src1,cf1,w,10.000000" in csv


def test_flow_table_sorts_and_aggregates_sizes(hand_case):
    inst, _, _ = hand_case
    # same lane at two size options, listed out of order, one zero row
    sol = Solution(
        values={
            "xdpfsnk_t1_w_dpf1_snk1": 3.0,
            "xsrccf_t1_w_src1_cf1_s1": 2.0,
            "xcfrtf_t1_w_cf1_rtf1_s1": 0.0,
        },
        objective_reported=0.0,
    )
    table = export_flows(sol, inst)
    assert [(r.leg, r.tons) for r in table.rows] == [
        ("src_cf", 2.0),
        ("dpf_sink", 3.0),
    ]


def test_flow_table_insertion_order_does_not_matter(hand_case):
    inst, _, sol = hand_case
    reversed_values = dict(reversed(list(sol.values.items())))
    a = export_flows(sol, inst).to_csv()
    b = export_flows(
        Solution(values=reversed_values, objective_reported=sol.objective_reported),
        inst,
    ).to_csv()
    assert a == b


def test_flow_aggregation_over_size_options():
    doc = minimal_doc()
    doc["echelons"]["cf"]["size_options"].append(
        {"id": "s2", "max_capacity_tons": 200.0, "install_cost_annual": 20.0}
    )
    inst = parse_doc(doc)
    sol = Solution(
        values={
            "xsrccf_t1_w_src1_cf1_s1": 1.5,
            "xsrccf_t1_w_src1_cf1_s2": 2.5,
        },
        objective_reported=0.0,
    )
    table = export_flows(sol, inst)
    assert len(table.rows) == 1
    assert table.rows[0].tons == pytest.approx(4.0)


# ---------------------------------------------------------------------------
# layout


def test_layout_matches_install_choices(hand_case):
    inst, _, sol = hand_case
    layout = export_layout(sol, inst)
    assert len(layout.sites) == 6  # 1 source + 4 facilities + 1 sink
    for tag in ("cf", "rtf", "cpf", "dpf"):
        assert layout.open_count(tag) == 1
    by_site = {s.site: s for s in layout.sites}
    assert by_site["src1"].open is None
    assert by_site["cf1"].open is True and by_site["cf1"].size == "s1"
    csv = layout.to_csv()
    assert csv.splitlines()[0] == "role,site,lat,lon,open,size"
    assert any(line.startswith("cf,cf1,") and line.endswith(",1,s1") for line in csv.splitlines())


def test_layout_counts_closed_sites():
    from upcyclenet.scenario import _colocated_instance

    inst = _colocated_instance()
    sol, cert = solve_exact(inst)
    layout = export_layout(sol, inst)
    assert layout.open_count("cf") == 1
    assert sum(1 for s in layout.sites if s.role == "cf") == 2
    closed = [s for s in layout.sites if s.role == "cf" and not s.open]
    assert len(closed) == 1 and closed[0].size is None


def test_layout_geojson_is_valid(hand_case):
    inst, _, sol = hand_case
    doc = json.loads(export_layout(sol, inst).to_geojson())
    assert doc["type"] == "FeatureCollection"
    assert len(doc["features"]) == 6
    cf = next(f for f in doc["features"] if f["properties"]["site"] == "cf1")
    assert cf["geometry"]["type"] == "Point"
    lon, lat = cf["geometry"]["coordinates"]
    assert lat == pytest.approx(inst.cf.sites[0].lat)
    assert lon == pytest.approx(inst.cf.sites[0].lon)
    assert cf["properties"]["open"] is True


@pytest.mark.parametrize("report", [
    lambda sol, inst: breakdown_costs(sol, build_milp(inst), inst),
    export_flows,
    export_layout,
    compute_utilization,
], ids=["breakdown_costs", "export_flows", "export_layout", "compute_utilization"])
def test_layout_rejects_double_size_claims(hand_case, report):
    from upcyclenet.instance import parse_instance, serialize_instance

    inst, _, _ = hand_case
    doc = json.loads(serialize_instance(inst))
    doc["echelons"]["cf"]["size_options"].append(
        {"id": "s2", "max_capacity_tons": 30.0, "install_cost_annual": 150.0}
    )
    inst2 = parse_instance(json.dumps(doc))
    # the objective does not reconcile either: the size check must come first
    sol = Solution(values={"bcf_cf1_s1": 1.0, "bcf_cf1_s2": 1.0}, objective_reported=0.0)
    with pytest.raises(ReportError, match="two chosen sizes"):
        report(sol, inst2)


@pytest.mark.parametrize("report", [
    lambda sol, inst: breakdown_costs(sol, build_milp(inst), inst),
    export_flows,
    export_layout,
    compute_utilization,
], ids=["breakdown_costs", "export_flows", "export_layout", "compute_utilization"])
@pytest.mark.parametrize("column", ["xcfrtf_t1_w_cf1_rtf1_s1", "bcpf_cpf1_s1"])
@pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf")])
def test_reports_reject_non_finite_values(hand_case, report, column, value):
    inst, _, sol = hand_case
    bad = Solution(values={**sol.values, column: value}, objective_reported=sol.objective_reported,
                   source=sol.source)
    with pytest.raises(ReportError, match=f"'{column}' has non-finite value {value!r}"):
        report(bad, inst)


# ---------------------------------------------------------------------------
# utilization


def test_utilization_hand_values(hand_case):
    inst, _, sol = hand_case
    rows = compute_utilization(sol, inst)
    assert len(rows) == 4  # one open facility per echelon, one period
    for r in rows:
        assert r.inflow_tons == pytest.approx(10.0, abs=1e-9)
        assert r.capacity_tons == 15.0
        assert r.utilization == pytest.approx(10.0 / 15.0, abs=1e-9)
        assert r.annual_capacity_tons == pytest.approx(15.0)  # 1-year periods
    csv = utilization_csv(rows)
    head = csv.splitlines()[0]
    assert head == (
        "echelon,site,size,period,inflow_tons,capacity_tons,utilization,annual_capacity_tons"
    )


def test_utilization_annualizes_sub_year_periods():
    doc = minimal_doc(periods=[{"id": "h1", "duration_years": 0.5}])
    doc["sources"][0]["supply"] = {"h1": {"w": 20.0}}
    doc["sinks"][0]["demand"] = {"h1": {"g": 50.0}}
    doc["quota"] = {"h1": {"w": 0.5}}
    inst = parse_doc(doc)
    sol, _ = solve_exact(inst)
    rows = compute_utilization(sol, inst)
    cf = next(r for r in rows if r.echelon == "cf")
    assert cf.capacity_tons == 100.0
    assert cf.annual_capacity_tons == pytest.approx(200.0)
    assert cf.inflow_tons == pytest.approx(10.0, abs=1e-9)
