import json

import numpy as np
import pytest

from scipy_milp_adapter import read_free_mps, solve_mps
from test_acceptance import _decentralization_instance
from test_instance import minimal_doc, parse_doc
from test_milp_core import random_shape_doc
from upcyclenet import oracle, simplex
from upcyclenet.errors import OracleError, SimplexIterationError
from upcyclenet.instance import parse_instance, serialize_instance, validate_instance
from upcyclenet.model import build_milp, install_column_name
from upcyclenet.model_io import verify_solution, write_mps
from upcyclenet.oracle import (
    count_configurations,
    describe_configuration,
    enumerate_configurations,
    solve_exact,
    solve_flow_lp,
)
from upcyclenet.scenario import _colocated_instance, make_tiny_suite, single_chain_instance
from upcyclenet.simplex import solve_lp

scipy_opt = pytest.importorskip("scipy.optimize")


# ---------------------------------------------------------------------------
# simplex, checked against scipy's HiGHS LP solver


def linprog_reference(c, a, senses, b):
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    a_ub, b_ub, a_eq, b_eq = [], [], [], []
    for row, sense, rhs in zip(a, senses, b):
        if sense == "L":
            a_ub.append(row)
            b_ub.append(rhs)
        elif sense == "G":
            a_ub.append(-row)
            b_ub.append(-rhs)
        else:
            a_eq.append(row)
            b_eq.append(rhs)
    return scipy_opt.linprog(
        c,
        A_ub=np.array(a_ub) if a_ub else None,
        b_ub=np.array(b_ub) if b_ub else None,
        A_eq=np.array(a_eq) if a_eq else None,
        b_eq=np.array(b_eq) if b_eq else None,
        bounds=(0, None),
        method="highs",
    )


def test_simplex_hand_lp_vertex_optimum():
    res = solve_lp(
        np.array([-1.0, -1.0]),
        np.array([[1.0, 1.0], [1.0, -1.0]]),
        ["L", "L"],
        np.array([4.0, 2.0]),
    )
    assert res.status == "optimal"
    assert res.objective == pytest.approx(-4.0)
    assert res.x @ np.array([1.0, 1.0]) == pytest.approx(4.0)


def test_simplex_equality_and_negative_rhs():
    res = solve_lp(
        np.array([2.0, 3.0]),
        np.array([[1.0, 1.0], [-1.0, 0.0]]),
        ["E", "L"],
        np.array([5.0, -1.0]),  # second row: x0 >= 1
    )
    assert res.status == "optimal"
    assert res.objective == pytest.approx(2.0 * 5.0)  # all mass on the cheap variable
    assert res.x[0] == pytest.approx(5.0)


def test_simplex_detects_infeasible():
    res = solve_lp(
        np.array([1.0]),
        np.array([[1.0]]),
        ["L"],
        np.array([-2.0]),  # x <= -2 with x >= 0
    )
    assert res.status == "infeasible"


def test_simplex_detects_unbounded():
    res = solve_lp(
        np.array([-1.0]),
        np.array([[-1.0]]),
        ["L"],
        np.array([1.0]),
    )
    assert res.status == "unbounded"


def test_simplex_survives_beale_cycling_example():
    # the classic cycling instance for Dantzig's rule
    c = np.array([-0.75, 150.0, -0.02, 6.0])
    a = np.array([
        [0.25, -60.0, -0.04, 9.0],
        [0.5, -90.0, -0.02, 3.0],
        [0.0, 0.0, 1.0, 0.0],
    ])
    senses = ["L", "L", "L"]
    b = np.array([0.0, 0.0, 1.0])
    res = solve_lp(c, a, senses, b)
    ref = linprog_reference(c, a, senses, b)
    assert res.status == "optimal"
    assert res.objective == pytest.approx(ref.fun, abs=1e-9)


def test_simplex_iteration_cap_raises(monkeypatch):
    monkeypatch.setattr(simplex, "_MAX_ITERATIONS", 0)
    with pytest.raises(SimplexIterationError):
        solve_lp(
            np.array([-1.0, -1.0]),
            np.array([[1.0, 1.0]]),
            ["L"],
            np.array([4.0]),
        )


@pytest.mark.parametrize("seed", range(20))
def test_simplex_agrees_with_scipy_on_random_lps(seed):
    rng = np.random.default_rng(300 + seed)
    m = int(rng.integers(1, 6))
    n = int(rng.integers(1, 6))
    a = rng.uniform(-2, 2, size=(m, n)).round(2)
    b = rng.uniform(-3, 5, size=m).round(2)
    c = rng.uniform(-2, 2, size=n).round(2)
    senses = [str(rng.choice(["L", "G", "E"])) for _ in range(m)]
    res = solve_lp(c, a, senses, b)
    ref = linprog_reference(c, a, senses, b)
    if ref.status == 0:
        assert res.status == "optimal"
        assert res.objective == pytest.approx(ref.fun, abs=1e-7)
        slack = a @ res.x - b
        for s, v in zip(senses, slack):
            if s == "L":
                assert v <= 1e-7
            elif s == "G":
                assert v >= -1e-7
            else:
                assert abs(v) <= 1e-7
    elif ref.status == 2:
        assert res.status == "infeasible"
    elif ref.status == 3:
        assert res.status == "unbounded"


# ---------------------------------------------------------------------------
# configuration enumeration


def test_site_slots_and_count_on_hand_instance():
    inst = single_chain_instance()
    slots = oracle._SlotTable(inst).slots
    assert [(s.tag, len(s.sizes)) for s in slots] == [("cf", 1), ("rtf", 1), ("cpf", 1), ("dpf", 1)]
    assert count_configurations(inst) == 16


def test_enumeration_is_lexicographic_and_complete():
    inst = single_chain_instance()
    configs = list(enumerate_configurations(inst))
    assert len(configs) == 16
    assert configs[0] == (0, 0, 0, 0)
    assert configs[-1] == (1, 1, 1, 1)
    assert configs == sorted(configs)


def test_enumeration_refuses_over_limit():
    inst = single_chain_instance()
    with pytest.raises(OracleError, match="16"):
        enumerate_configurations(inst, max_configs=8)
    with pytest.raises(OracleError):
        solve_exact(inst, max_configs=8)


def test_refusal_comes_before_any_lp_work(monkeypatch):
    solved = []

    def no_factory(*args, **kwargs):
        raise AssertionError("the all-open LP was assembled before the refusal")

    monkeypatch.setattr(oracle, "_LpFactory", no_factory)
    monkeypatch.setattr(oracle, "solve_lp", lambda *args, **kwargs: solved.append(1))
    with pytest.raises(OracleError, match="16"):
        solve_exact(single_chain_instance(), max_configs=8)
    assert solved == []


def test_describe_configuration_names_sizes():
    inst = single_chain_instance()
    desc = describe_configuration(inst, (1, 0, 1, 1))
    assert desc["cf"] == {"cf1": "s1"}
    assert desc["rtf"] == {"rtf1": None}


def test_capacity_screen_hand_cases():
    inst = single_chain_instance()
    table = oracle._SlotTable(inst)
    assert not table.scan((0, 0, 0, 0))[0]  # quota needs 10 t collected
    assert table.scan((1, 1, 1, 1))[0]
    with pytest.raises(OracleError):
        table.open_sites((1, 1, 1))


# ---------------------------------------------------------------------------
# flow LP and exact solve


def test_flow_lp_on_hand_configuration():
    inst = single_chain_instance()
    res = solve_flow_lp(inst, (1, 1, 1, 1))
    assert res.status == "optimal"
    assert res.objective == pytest.approx(540.0, abs=1e-9)
    assert set(res.flows) == {
        "xsrccf_t1_w_src1_cf1_s1",
        "xcfrtf_t1_w_cf1_rtf1_s1",
        "xrtfcpf_t1_w_rtf1_cpf1_s1",
        "xcpfdpf_t1_w_cpf1_dpf1_s1",
        "xdpfsnk_t1_w_dpf1_snk1",
    }
    for v in res.flows.values():
        assert v == pytest.approx(10.0, abs=1e-9)


def test_flow_lp_all_closed_is_infeasible_under_quota():
    inst = single_chain_instance()
    assert solve_flow_lp(inst, (0, 0, 0, 0)).status == "infeasible"


def test_solve_exact_hand_instance_exact_540():
    sol, cert = solve_exact(single_chain_instance())
    assert sol.status == "optimal"
    assert abs(sol.objective_reported - 540.0) <= 1e-9
    assert sol.bound == sol.objective_reported
    assert sol.gap == 0.0
    assert sol.source == "oracle"
    assert cert.enumerated == 16
    assert cert.pruned + cert.infeasible + cert.solved == cert.enumerated
    assert cert.best_configuration == (1, 1, 1, 1)
    assert sol.values["bcf_cf1_s1"] == 1.0


def test_solve_exact_infeasible_instance():
    doc = json.loads(serialize_instance(single_chain_instance()))
    doc["echelons"]["cf"]["size_options"][0]["max_capacity_tons"] = 5.0
    sol, cert = solve_exact(parse_instance(json.dumps(doc)))
    assert sol.status == "infeasible"
    assert sol.values == {}
    assert cert.best_configuration is None
    assert cert.solved == 0  # every configuration dies at the capacity screen


def test_material_pruning_modes_agree_on_hand_instance():
    inst = single_chain_instance()
    a, _ = solve_exact(inst, prune=True)
    b, _ = solve_exact(inst, prune=False)
    assert a.objective_reported == pytest.approx(b.objective_reported, abs=1e-9)


@pytest.mark.parametrize("code, unpruned_objective", [
    ("quota-uncollectable", 546.0), ("orphan-output", 260.0),
])
def test_material_pruning_changes_the_optimum_on_warned_instances(code, unpruned_objective):
    # a second material 'g': the source supplies 4 t of it under a 0.5
    # quota that the CF does not accept, or the CF makes it and the RTF
    # does not accept it.  Unpruned, 'g' may vanish at that facility.
    doc = json.loads(serialize_instance(single_chain_instance()))
    doc["materials"] = ["w", "g"]
    doc["transport_cost"]["g"] = 0.1
    if code == "quota-uncollectable":
        doc["sources"][0]["supply"]["t1"]["g"] = 4.0
        doc["quota"]["t1"]["g"] = 0.5
    else:
        doc["echelons"]["cf"]["outputs"] = ["g"]
        doc["echelons"]["cf"]["yields"] = {"g": 1.0}
    inst = parse_instance(json.dumps(doc))
    assert code in {f.code for f in validate_instance(inst)}
    pruned, _ = solve_exact(inst, prune=True)
    assert pruned.status == "infeasible"
    assert solve_mps(read_free_mps(write_mps(build_milp(inst, prune=True)))).status == 2
    unpruned, _ = solve_exact(inst, prune=False)
    assert unpruned.status == "optimal"
    assert unpruned.objective_reported == pytest.approx(unpruned_objective, abs=1e-9)
    assert verify_solution(unpruned, build_milp(inst, prune=False)).passed


def test_column_permutation_does_not_change_the_winner():
    inst = single_chain_instance()
    base, cert_base = solve_exact(inst)
    for seed in (1, 2, 3):
        perm, cert_perm = solve_exact(inst, permute_seed=seed)
        assert perm.objective_reported == pytest.approx(
            base.objective_reported, rel=1e-9
        )
        assert cert_perm.best_configuration == cert_base.best_configuration
        assert perm.values.keys() == base.values.keys()


def test_cost_scaling_scales_objective_and_keeps_argmin():
    from conftest import scale_costs

    inst = single_chain_instance()
    base, cert_base = solve_exact(inst)
    scaled, cert_scaled = solve_exact(scale_costs(inst, 7.0))
    assert scaled.objective_reported == pytest.approx(7.0 * base.objective_reported, rel=1e-9)
    assert cert_scaled.best_configuration == cert_base.best_configuration


def test_tie_break_keeps_first_configuration():
    inst = _colocated_instance()
    sol, cert = solve_exact(inst)
    assert sol.status == "optimal"
    # two identical CF candidates tie; enumeration order keeps the
    # lexicographically smallest configuration, which closes the first slot
    assert cert.best_configuration == (0, 1, 1, 1, 1)


def test_progress_callback_reports_totals():
    doc = minimal_doc()
    for tag in ("cf", "rtf", "cpf", "dpf"):
        site = dict(doc["echelons"][tag]["sites"][0])
        site["id"] = f"{tag}b"
        doc["echelons"][tag]["sites"].append(site)
        doc["echelons"][tag]["size_options"].append(
            {"id": "s2", "max_capacity_tons": 150.0, "install_cost_annual": 15.0}
        )
    inst = parse_doc(doc)
    assert count_configurations(inst) == 3 ** 8
    seen = []
    sol, cert = solve_exact(inst, progress=lambda done, total: seen.append((done, total)))
    assert sol.status == "optimal"
    assert seen
    assert all(total == 3 ** 8 for _, total in seen)
    assert [done for done, _ in seen] == sorted(done for done, _ in seen)


def test_iteration_poisoning_propagates(monkeypatch):
    inst = single_chain_instance()
    monkeypatch.setattr(simplex, "_MAX_ITERATIONS", 1)
    with pytest.raises(SimplexIterationError):
        solve_exact(inst)


def test_decentralized_collection_emerges_with_expensive_raw_transport():
    """Two far-apart sources, raw waste 20x costlier to haul than product:
    the optimum opens a collection site at each source but a single
    downstream chain."""
    def node(nid, lat, lon):
        return {"id": nid, "lat": lat, "lon": lon}

    def ech(sites, caps_costs, op, inp, out, y):
        return {
            "sites": sites,
            "size_options": [
                {"id": f"s{k}", "max_capacity_tons": cap, "install_cost_annual": cost}
                for k, (cap, cost) in enumerate(caps_costs, start=1)
            ],
            "op_cost_per_ton": op,
            "inputs": inp,
            "outputs": out,
            "yields": y,
        }

    doc = {
        "name": "decentral",
        "materials": ["raw", "dense"],
        "periods": [{"id": "t1", "duration_years": 1.0}],
        "sources": [
            {"id": "a", "lat": 50.0, "lon": 6.0, "supply": {"t1": {"raw": 50.0}}},
            {"id": "b", "lat": 50.0, "lon": 12.0, "supply": {"t1": {"raw": 50.0}}},
        ],
        "sinks": [
            {"id": "k", "lat": 50.0, "lon": 9.0, "demand": {"t1": {"dense": 200.0}}}
        ],
        "echelons": {
            "cf": ech(
                [node("cfa", 50.0, 6.0), node("cfb", 50.0, 12.0)],
                [(50.0, 10.0), (100.0, 15.0)],
                1.0, ["raw"], ["dense"], {"dense": 1.0},
            ),
            "rtf": ech([node("r", 50.0, 9.0)], [(200.0, 5.0)],
                       1.0, ["dense"], ["dense"], {"dense": 1.0}),
            "cpf": ech([node("c", 50.0, 9.0)], [(200.0, 5.0)],
                       1.0, ["dense"], ["dense"], {"dense": 1.0}),
            "dpf": ech([node("d", 50.0, 9.0)], [(200.0, 5.0)],
                       1.0, ["dense"], ["dense"], {"dense": 1.0}),
        },
        "quota": {"t1": {"raw": 1.0}},
        "transport_cost": {"raw": 1.0, "dense": 0.05},
    }
    inst = parse_instance(json.dumps(doc))
    sol, cert = solve_exact(inst)
    assert sol.status == "optimal"
    desc = describe_configuration(inst, cert.best_configuration)
    open_cf = [s for s, size in desc["cf"].items() if size is not None]
    open_cpf = [s for s, size in desc["cpf"].items() if size is not None]
    assert len(open_cf) == 2
    assert len(open_cpf) == 1


# ---------------------------------------------------------------------------
# bound prune, checked against plain enumeration


def brute_force(inst, prune, permute_seed, tie_tol=oracle.TIE_TOL):
    """Every configuration through solve_flow_lp's body on one factory,
    keeping the lexicographically first minimum under the oracle's tie rule."""
    factory = all_open_factory(inst, prune)
    best = None
    for config in enumerate_configurations(inst):
        res = oracle._solve_flow_lp(factory, config, permute_seed)
        if res.status != "optimal":
            continue
        if best is None or res.objective < best[0] - tie_tol * max(1.0, abs(best[0])):
            best = (res.objective, config, res.flows)
    return best


def all_open_factory(inst, prune=True):
    """The all-open LP that solve_flow_lp assembles on each call, built once."""
    return oracle._LpFactory(inst, prune, oracle._SlotTable(inst))


def install_cost(inst, config):
    cost = 0.0
    for tag, sites in describe_configuration(inst, config).items():
        options = {o.id: o for o in inst.echelon(tag).size_options}
        cost += sum(options[size].install_cost_annual for size in sites.values() if size)
    return cost * inst.horizon_years()


@pytest.fixture(scope="module")
def bound_pruning_members():
    """Tiny-suite members where the bound prunes, up to 250 configurations."""
    return [
        inst for inst in make_tiny_suite(2026)
        if count_configurations(inst) <= 250 and solve_exact(inst)[1].bound_pruned > 0
    ]


# the ids keep a middle field that once switched the capacity screen,
# which is always on now, so each case's history stays under one name
@pytest.mark.parametrize("prune, permute_seed", [(True, None), (False, None), (True, 1)],
                         ids=["True-True-None", "False-True-None", "True-True-1"])
def test_solve_exact_matches_brute_force(bound_pruning_members, prune, permute_seed):
    assert len(bound_pruning_members) >= 8
    cases = [single_chain_instance(), _colocated_instance(), _decentralization_instance()]
    for inst in cases + bound_pruning_members:
        sol, cert = solve_exact(inst, prune=prune, permute_seed=permute_seed)
        ref_obj, ref_config, ref_flows = brute_force(inst, prune, permute_seed)
        assert sol.status == "optimal"
        assert cert.best_objective == pytest.approx(ref_obj, rel=1e-9)
        assert cert.best_configuration == ref_config
        installs = {
            install_column_name(tag, site, size)
            for tag, sites in describe_configuration(inst, ref_config).items()
            for site, size in sites.items() if size
        }
        assert sol.values.keys() == set(ref_flows) | installs
        assert cert.pruned + cert.infeasible + cert.solved == cert.enumerated
        assert 0 <= cert.bound_pruned <= cert.pruned


def test_flow_cost_bound_is_below_every_configuration():
    checked = 0
    for seed in range(400, 460):
        inst = parse_instance(json.dumps(random_shape_doc(np.random.default_rng(seed))))
        if count_configurations(inst) > 400:
            continue
        checked += 1
        factory = all_open_factory(inst)
        bound = factory.flow_bound()
        for config in enumerate_configurations(inst):
            res = oracle._solve_flow_lp(factory, config)
            if bound is None:
                assert res.status == "infeasible"
            elif res.status == "optimal":
                flow_cost = res.objective - install_cost(inst, config)
                assert bound <= flow_cost + 1e-9 * max(1.0, abs(flow_cost))
        sol, cert = solve_exact(inst)
        assert cert.pruned + cert.infeasible + cert.solved == cert.enumerated
        assert 0 <= cert.bound_pruned <= cert.pruned
    assert checked >= 5


def test_infeasible_widest_lp_proves_infeasibility_with_one_solve(monkeypatch):
    # the quota forces 10 t through the chain, but no sink takes the product:
    # the capacity screen passes configurations that no flow can satisfy
    doc = json.loads(serialize_instance(single_chain_instance()))
    for sink in doc["sinks"]:
        sink["demand"] = {t: {p: 0.0 for p in d} for t, d in sink["demand"].items()}
    inst = parse_instance(json.dumps(doc))
    calls = []
    real_solve_lp = oracle.solve_lp

    def counting_solve_lp(*args, **kwargs):
        calls.append(1)
        return real_solve_lp(*args, **kwargs)

    monkeypatch.setattr(oracle, "solve_lp", counting_solve_lp)
    sol, cert = solve_exact(inst)
    assert sol.status == "infeasible"
    assert cert.solved == 0
    assert cert.enumerated > cert.pruned
    assert cert.infeasible == cert.enumerated - cert.pruned
    assert cert.bound_pruned == 0
    assert len(calls) == 1


def test_tiny_suite_lp_sequence_is_golden(monkeypatch):
    """The tiny suite's LP count, pivot total and certificate totals are
    pinned, so a change to how the configuration LPs are assembled cannot
    silently change which LPs run or how the simplex walks them."""
    pivots = []
    real_solve_lp = oracle.solve_lp

    def counting_solve_lp(*args, **kwargs):
        result = real_solve_lp(*args, **kwargs)
        pivots.append(result.iterations)
        return result

    monkeypatch.setattr(oracle, "solve_lp", counting_solve_lp)
    certs = [solve_exact(inst)[1] for inst in make_tiny_suite(2026)]
    assert len(pivots) == 287
    assert sum(pivots) == 7_649
    assert sum(c.enumerated for c in certs) == 19_497
    assert sum(c.pruned for c in certs) == 19_265
    assert sum(c.infeasible for c in certs) == 0
    assert sum(c.solved for c in certs) == 232
