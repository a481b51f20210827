"""End-to-end acceptance checks, one test per criterion.

Each test name carries the criterion number; the verbose pytest line for it
is the pass/fail record for that criterion.  Tolerances and budgets are
pinned as module constants so a change to them is visible in review.
"""

import json
import math
import os
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

import upcyclenet
from conftest import COST_SCALE, adapter_template, have_scipy_milp
from test_milp_core import count_columns_oracle, count_rows_oracle, random_shape_doc
from upcyclenet.instance import ECHELON_TAGS, LEGS, parse_instance, serialize_instance
from upcyclenet.model import build_milp, count_columns, count_rows
from upcyclenet.model_io import (
    run_external_solver,
    solution_vector,
    verify_solution,
    write_mps,
)
from upcyclenet.oracle import count_configurations, describe_configuration, solve_exact
from upcyclenet.reporting import breakdown_costs, decode_solution
from upcyclenet.scenario import GenSpec, generate, single_chain_instance

TOL_EQUIVALENCE = 1e-6  # external vs oracle objective, and verification
TOL_SELF = 1e-9  # oracle self-consistency across reformulations
TOL_HAND = 1e-9  # hand-computed instance
TOL_CONSERVATION = 1e-7  # balance and quota rows on optimal solutions
TOL_GAP_FORMAT = 1e-12  # reported gap vs recomputed (objective-bound)/objective

SUITE_BUDGET_S = 300.0
HAND_BUDGET_S = 1.0
DECENTRAL_BUDGET_S = 60.0

PUBLISHED_COUNTS = (1284, 2_789_388)  # binaries, continuous; not reproducible


# ---------------------------------------------------------------------------
# criterion 1: the exhaustive oracle and an external MILP solver agree on a
# suite of at least 50 tiny instances; without an external solver the oracle
# must at least be self-consistent across reformulations


def test_criterion_1_oracle_external_equivalence(suite_run):
    records = suite_run.records
    assert len(records) >= 50

    for rec in records:
        # self-consistency: pruning, enumeration order and cost scaling must
        # not change the outcome
        assert rec.sol_off.status == rec.sol_on.status
        assert rec.sol_perm.status == rec.sol_on.status
        assert rec.sol_scaled.status == rec.sol_on.status
        if rec.sol_on.status == "optimal":
            obj = rec.sol_on.objective_reported
            scale = max(1.0, abs(obj))
            assert abs(rec.sol_off.objective_reported - obj) <= TOL_SELF * scale
            assert abs(rec.sol_perm.objective_reported - obj) <= TOL_SELF * scale
            assert abs(
                rec.sol_scaled.objective_reported - COST_SCALE * obj
            ) <= TOL_SELF * COST_SCALE * scale
            assert rec.cert_scaled.best_configuration == rec.cert_on.best_configuration

        if rec.external is None:
            continue
        # agreement with the independent solver stack
        if rec.sol_on.status == "optimal":
            obj = rec.sol_on.objective_reported
            assert rec.external.status == "optimal", rec.inst.name
            assert abs(
                rec.external.objective_reported - obj
            ) <= TOL_EQUIVALENCE * max(1.0, abs(obj)), rec.inst.name
            assert verify_solution(rec.sol_on, rec.model, tol=TOL_EQUIVALENCE).passed
            assert verify_solution(rec.external, rec.model, tol=TOL_EQUIVALENCE).passed
        else:
            assert rec.external.status == "infeasible", rec.inst.name

    assert suite_run.wall_seconds < SUITE_BUDGET_S


# ---------------------------------------------------------------------------
# criterion 2: the hand-computable chain lands exactly on the precomputed
# cost split


def test_criterion_2_hand_instance_exact_costs():
    started = time.perf_counter()
    inst = single_chain_instance()
    model = build_milp(inst)
    sol, cert = solve_exact(inst)
    breakdown = breakdown_costs(sol, model, inst)
    elapsed = time.perf_counter() - started

    assert sol.status == "optimal"
    assert abs(sol.objective_reported - 540.0) <= TOL_HAND
    assert abs(breakdown.installation - 400.0) <= TOL_HAND
    assert abs(breakdown.operating_total - 40.0) <= TOL_HAND
    assert abs(breakdown.transport_total - 100.0) <= TOL_HAND
    assert cert.enumerated == count_configurations(inst)
    assert elapsed < HAND_BUDGET_S


# ---------------------------------------------------------------------------
# criterion 3: variable and row counts match a closed form computed by
# independent loops, and the documented published counts are shown to be
# unreachable while the generator's default shape lands on the documented
# orders of magnitude


def test_criterion_3_size_accounting():
    for case in range(10):
        rng = np.random.default_rng(900 + case)
        doc = random_shape_doc(rng)
        inst = parse_instance(json.dumps(doc))
        for prune in (True, False):
            assert count_columns(inst, prune) == count_columns_oracle(doc, prune)
            want = count_rows_oracle(doc, prune)
            got = count_rows(inst, prune)
            assert got == want

    inst = generate(GenSpec(seed=1))
    n_cont, n_bin = count_columns(inst, prune=False)
    doc = json.loads(serialize_instance(inst))
    assert count_columns_oracle(doc, prune=False) == (n_cont, n_bin)
    assert (n_bin, n_cont) == (930, 1_888_125)
    assert (n_bin, n_cont) != PUBLISHED_COUNTS
    assert round(math.log10(n_bin)) == 3
    assert round(math.log10(n_cont)) == 6


# ---------------------------------------------------------------------------
# criterion 4: with raw haulage at least ten times the densified rate and
# concave install costs (exponent <= 0.7), the optimum opens strictly more
# collection sites than central processing sites


def _decentralization_instance():
    def node(nid, lat, lon):
        return {"id": nid, "lat": lat, "lon": lon}

    def ech(sites, caps_costs, inputs, outputs):
        return {
            "sites": sites,
            "size_options": [
                {"id": f"s{k}", "max_capacity_tons": cap, "install_cost_annual": cost}
                for k, (cap, cost) in enumerate(caps_costs, start=1)
            ],
            "op_cost_per_ton": 1.0,
            "inputs": inputs,
            "outputs": outputs,
            "yields": {p: 1.0 for p in outputs},
        }

    doc = {
        "name": "decentralization",
        "materials": ["raw", "dense"],
        "periods": [{"id": "t1", "duration_years": 1.0}],
        "sources": [
            {"id": "a", "lat": 50.0, "lon": 6.0, "supply": {"t1": {"raw": 50.0}}},
            {"id": "b", "lat": 50.0, "lon": 12.0, "supply": {"t1": {"raw": 50.0}}},
        ],
        "sinks": [{"id": "k", "lat": 50.0, "lon": 9.0, "demand": {"t1": {"dense": 200.0}}}],
        "echelons": {
            "cf": ech(
                [node("cfa", 50.0, 6.0), node("cfb", 50.0, 12.0)],
                [(50.0, 10.0), (100.0, 15.0)],
                ["raw"], ["dense"],
            ),
            "rtf": ech([node("r", 50.0, 9.0)], [(200.0, 5.0)], ["dense"], ["dense"]),
            "cpf": ech([node("c", 50.0, 9.0)], [(200.0, 5.0)], ["dense"], ["dense"]),
            "dpf": ech([node("d", 50.0, 9.0)], [(200.0, 5.0)], ["dense"], ["dense"]),
        },
        "quota": {"t1": {"raw": 1.0}},
        "transport_cost": {"raw": 1.0, "dense": 0.05},
    }
    return parse_instance(json.dumps(doc))


def test_criterion_4_decentralization_with_expensive_raw_haulage():
    started = time.perf_counter()
    inst = _decentralization_instance()

    # the driving conditions hold in the data itself
    assert inst.transport_cost["raw"] >= 10.0 * inst.transport_cost["dense"]
    options = inst.cf.size_options
    for small, big in zip(options, options[1:]):
        exponent = math.log(big.install_cost_annual / small.install_cost_annual) / math.log(
            big.max_capacity_tons / small.max_capacity_tons
        )
        assert exponent <= 0.7

    sol, cert = solve_exact(inst)
    elapsed = time.perf_counter() - started
    assert sol.status == "optimal"
    assert cert.enumerated == count_configurations(inst)
    assert cert.pruned + cert.infeasible + cert.solved == cert.enumerated

    layout = describe_configuration(inst, cert.best_configuration)
    n_cf = sum(1 for size in layout["cf"].values() if size is not None)
    n_cpf = sum(1 for size in layout["cpf"].values() if size is not None)
    assert n_cf > n_cpf
    assert elapsed < DECENTRAL_BUDGET_S


# ---------------------------------------------------------------------------
# criterion 5: builds and the generator are deterministic


def test_criterion_5_determinism():
    texts = [
        serialize_instance(single_chain_instance()),
        serialize_instance(
            generate(GenSpec(seed=11, n_sources=6, n_cf=3, n_rtf=2, n_cpf=2,
                             n_dpf=2, n_sinks=2, supply_range_tons=(20.0, 100.0)))
        ),
    ]
    for text in texts:
        for prune in (True, False):
            first = write_mps(build_milp(parse_instance(text), prune=prune))
            second = write_mps(build_milp(parse_instance(text), prune=prune))
            assert first == second

    again = serialize_instance(
        generate(GenSpec(seed=11, n_sources=6, n_cf=3, n_rtf=2, n_cpf=2,
                         n_dpf=2, n_sinks=2, supply_range_tons=(20.0, 100.0)))
    )
    assert again == texts[1]
    other_seed = serialize_instance(
        generate(GenSpec(seed=12, n_sources=6, n_cf=3, n_rtf=2, n_cpf=2,
                         n_dpf=2, n_sinks=2, supply_range_tons=(20.0, 100.0)))
    )
    assert other_seed != texts[1]


# ---------------------------------------------------------------------------
# criterion 6: every optimal solution from the suite conserves material at
# the facilities, keeps closed facilities empty, and meets the quota rows


def _conservation_violations(sol, model, inst):
    x = solution_vector(sol, model)
    worst_balance = 0.0
    worst_quota = 0.0
    for row in model.rows:
        if row.family == "flow_balance":
            worst_balance = max(worst_balance, abs(row.activity(x)))
        elif row.family == "quota":
            worst_quota = max(worst_quota, row.rhs - row.activity(x))

    flows, installs = decode_solution(sol, inst)
    open_sites = {(b.echelon, b.site) for b in installs if b.value >= 0.5}
    leg_dest = {leg: dest for leg, _, dest in LEGS}
    worst_closed_inflow = 0.0
    for f in flows:
        dest_role = leg_dest[f.leg]
        if dest_role in ECHELON_TAGS and (dest_role, f.dest) not in open_sites:
            worst_closed_inflow = max(worst_closed_inflow, f.tons)
    return worst_balance, worst_quota, worst_closed_inflow


def test_criterion_6_conservation_on_optimal_solutions(suite_run):
    checked = 0
    for rec in suite_run.records:
        solutions = []
        if rec.sol_on.status == "optimal":
            solutions.append(rec.sol_on)
        if rec.external is not None and rec.external.status == "optimal":
            solutions.append(rec.external)
        for sol in solutions:
            balance, quota, closed_inflow = _conservation_violations(
                sol, rec.model, rec.inst
            )
            assert balance <= TOL_CONSERVATION, rec.inst.name
            assert quota <= TOL_CONSERVATION, rec.inst.name
            assert closed_inflow <= TOL_CONSERVATION, rec.inst.name
            checked += 1
    assert checked >= 50


# ---------------------------------------------------------------------------
# criterion 7: the gap reported for bounded external runs equals
# (objective - bound) / objective


@pytest.mark.skipif(not have_scipy_milp(), reason="scipy.optimize.milp unavailable")
def test_criterion_7_gap_plumbing_on_time_limited_run():
    inst = generate(
        GenSpec(seed=7, n_sources=6, n_cf=3, n_rtf=2, n_cpf=2, n_dpf=2,
                n_sinks=2, supply_range_tons=(20.0, 100.0))
    )
    model = build_milp(inst)
    sol = run_external_solver(
        model, adapter_template("60", "0.9"), time_limit=120.0
    )
    assert sol.status in ("optimal", "feasible")
    assert sol.bound is not None
    assert sol.gap is not None
    expected = (sol.objective_reported - sol.bound) / sol.objective_reported
    assert abs(sol.gap - expected) <= TOL_GAP_FORMAT


# ---------------------------------------------------------------------------
# the package runs on numpy alone: pyproject.toml declares no other
# dependency, and only the tests' adapter imports scipy

NUMPY_ONLY_PIPELINE = """
import sys
from upcyclenet import (breakdown_costs, build_milp, compute_utilization, dump_model, export_flows,
                        export_layout, format_solution, parse_solution, single_chain_instance,
                        solve_exact, verify_solution, write_mps)
inst = single_chain_instance()
model = build_milp(inst)
write_mps(model)
dump_model(model)
sol, _ = solve_exact(inst)
assert verify_solution(sol, model).passed
sol = parse_solution(format_solution(sol), model)
breakdown_costs(sol, model, inst)
export_flows(sol, inst)
export_layout(sol, inst)
compute_utilization(sol, inst)
print(sorted(name for name in sys.modules if name.partition(".")[0] == "scipy"))
"""


def test_the_whole_pipeline_imports_no_scipy():
    # a fresh interpreter, so that no scipy module imported by another test counts
    paths = [str(Path(upcyclenet.__file__).parents[1]), os.environ.get("PYTHONPATH", "")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(p for p in paths if p))
    run = subprocess.run([sys.executable, "-c", NUMPY_ONLY_PIPELINE], capture_output=True,
                         text=True, env=env, timeout=120.0)
    assert run.returncode == 0, run.stderr
    assert run.stdout == "[]\n"
