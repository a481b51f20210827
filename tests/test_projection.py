"""The size-aggregated projection that `run_external_solver` hands the
solver (`model.project_sizes`) and the lift of its solutions back onto the
model (`model.lift_sizes`)."""

import dataclasses
import json

import numpy as np
import pytest

from conftest import have_scipy_milp
from test_milp_core import random_shape_doc
from test_model_io import fake_solver_writing
from upcyclenet.errors import ModelError
from upcyclenet.instance import parse_instance, serialize_instance
from upcyclenet.model import (
    VariableIndex,
    build_milp,
    flow_column_name,
    lift_sizes,
    project_sizes,
)
from upcyclenet.model_io import (
    Solution,
    _verify_vector,
    recompute_objective,
    run_external_solver,
    solution_vector,
    verify_solution,
)
from upcyclenet.oracle import solve_exact
from upcyclenet.scenario import single_chain_instance

SHAPE_SEEDS = (3, 4, 5, 6, 7, 8, 9, 10, 11)


def multi_size(inst):
    return any(len(spec.size_options) > 1 for _, spec in inst.echelons())


def shape_instance(seed):
    return parse_instance(json.dumps(random_shape_doc(np.random.default_rng(seed))))


def dense(block, n_columns):
    a = np.zeros((block.n_rows, n_columns))
    rows = np.repeat(np.arange(block.n_rows), np.diff(block.indptr))
    np.add.at(a, (rows, block.indices), block.data)
    return a


def head_column(model, inst, col):
    """The canonical column a flow merges into: the same flow at its
    destination's first size."""
    key = model.index.column_key(col)
    if key[0] != "flow" or key[-1] is None:
        return col
    leg, t, p, origin, dest, _ = key[1:]
    dest_role = model.index.leg(leg).dest_role
    first = inst.echelon(dest_role).size_options[0].id
    return model.index.column(flow_column_name(leg, t, p, origin, dest, first))


def summing(model):
    """(R', R) 0/1 matrix adding each (echelon, t, site)'s facility_cap rows
    into the row of their first member, and every other row to itself."""
    block = model.constraints
    cap = block.family_slice("facility_cap")
    group = [block.keys[r][:3] if cap.start <= r < cap.stop else r
             for r in range(block.n_rows)]
    firsts = list(dict.fromkeys(group))
    s = np.zeros((len(firsts), block.n_rows))
    s[[firsts.index(g) for g in group], np.arange(block.n_rows)] = 1.0
    return s, [block.names[group.index(g)] for g in firsts]


def check_exact(inst):
    model = build_milp(inst)
    proj = project_sizes(model)
    a = dense(model.constraints, model.n_columns)
    s, names = summing(model)
    summed = s @ a
    heads = np.array([head_column(model, inst, c) for c in range(model.n_columns)])
    # merged columns: the same cost and the same entry in every summed row
    assert np.array_equal(model.objective, model.objective[heads])
    assert np.array_equal(summed, summed[:, heads])
    # the projection is the summed matrix over the head columns
    assert np.array_equal(proj.columns, np.unique(heads))
    assert np.array_equal(proj.objective, model.objective[proj.columns])
    assert np.array_equal(dense(proj.constraints, proj.n_columns), summed[:, proj.columns])
    assert list(proj.constraints.names) == names
    assert np.array_equal(proj.constraints.rhs, s @ model.constraints.rhs)
    assert proj.n_continuous == np.count_nonzero(proj.columns < model.index.n_continuous)
    # each summed capacity row: sum of inflows - sum_c cap_c * b[j, c] <= 0
    ap = dense(proj.constraints, proj.n_columns)
    position = {int(c): k for k, c in enumerate(proj.columns)}
    for tag, spec in inst.echelons():
        lin = next(leg for leg in model.index.legs if leg.dest_role == tag)
        install = model.index.install(tag)
        first = spec.size_options[0].id
        for t_idx, t in enumerate(inst.periods):
            for j, site in enumerate(spec.sites):
                r = proj.constraints.names.index(f"cap{tag}_{t.id}_{site.id}_{first}")
                expected = np.zeros(proj.n_columns)
                expected[[position[int(c)] for c in lin.grid()[t_idx, :, :, j, 0].ravel()]] = 1.0
                for c, opt in enumerate(spec.size_options):
                    expected[position[install.offset(j, c)]] = -opt.max_capacity_tons
                assert np.array_equal(ap[r], expected)
                assert proj.constraints.sense[r] == "L" and proj.constraints.rhs[r] == 0.0
    return model, proj


def lp_relaxation(objective, block, n_continuous):
    from scipy.optimize import linprog

    a = dense(block, len(objective))
    sign = np.where(block.sense == "G", -1.0, 1.0)
    ub, eq = block.sense != "E", block.sense == "E"
    bounds = [(0, None)] * n_continuous + [(0, 1)] * (len(objective) - n_continuous)
    res = linprog(objective, A_ub=(a * sign[:, None])[ub], b_ub=(block.rhs * sign)[ub],
                  A_eq=a[eq], b_eq=block.rhs[eq], bounds=bounds, method="highs")
    return res.status, res.fun


def check_same_lp_bound(model, proj):
    canonical = lp_relaxation(model.objective, model.constraints, model.index.n_continuous)
    projected = lp_relaxation(proj.objective, proj.constraints, proj.n_continuous)
    assert canonical[0] == projected[0]
    if canonical[0] == 0:
        assert abs(canonical[1] - projected[1]) <= 1e-9 * max(1.0, abs(canonical[1]))


@pytest.fixture(scope="module")
def multi_size_members(tiny_suite):
    return [inst for inst in tiny_suite if multi_size(inst)]


def test_tiny_suite_multi_size_members_are_counted(tiny_suite, multi_size_members):
    assert len(tiny_suite) == 55
    assert len(multi_size_members) == 45


def test_projection_is_exact_on_hand_instance():
    model, proj = check_exact(single_chain_instance())
    # one size everywhere: the projection is the model
    assert proj.n_columns == model.n_columns and proj.n_rows == model.n_rows


def test_projection_is_exact_on_multi_size_tiny_members(multi_size_members):
    for inst in multi_size_members:
        model, proj = check_exact(inst)
        assert proj.n_columns < model.n_columns, inst.name


@pytest.mark.parametrize("seed", SHAPE_SEEDS)
def test_projection_is_exact_on_random_shapes(seed):
    check_exact(shape_instance(seed))


@pytest.mark.skipif(not have_scipy_milp(), reason="scipy.optimize.milp unavailable")
def test_projection_keeps_the_lp_bound(multi_size_members):
    for inst in [single_chain_instance(), *multi_size_members,
                 *(shape_instance(seed) for seed in SHAPE_SEEDS)]:
        model = build_milp(inst)
        check_same_lp_bound(model, project_sizes(model))


def second_size_flow(model):
    """A flow column at the second size of its destination."""
    for leg in model.index.legs:
        if len(leg.sizes) > 1 and leg.count:
            return int(leg.grid()[(0,) * 4 + (1,)])
    raise AssertionError("no multi-size leg")


def test_forged_cost_difference_raises():
    model = build_milp(shape_instance(3))
    objective = model.objective.copy()
    objective[second_size_flow(model)] *= 1.5
    with pytest.raises(ModelError, match="differ in cost or in a summed row"):
        project_sizes(dataclasses.replace(model, objective=objective))


def test_forged_row_difference_raises():
    model = build_milp(shape_instance(3))
    block = model.constraints
    data = block.data.copy()
    entry = np.flatnonzero(block.indices == second_size_flow(model))[0]
    data[entry] *= 2.0
    with pytest.raises(ModelError, match="differ in cost or in a summed row"):
        project_sizes(dataclasses.replace(model, constraints=dataclasses.replace(block, data=data)))


# ---------------------------------------------------------------------------
# lifting a solution of the projection back onto the model


def two_size_hand_model():
    """The hand instance with a 5 t size s1 before its 15 t collection size,
    now s2: the 10 t of supply must go through cf1 at s2."""
    doc = json.loads(serialize_instance(single_chain_instance()))
    cf = doc["echelons"]["cf"]
    cf["size_options"] = [{"id": "s1", "max_capacity_tons": 5.0, "install_cost_annual": 50.0},
                          dict(cf["size_options"][0], id="s2")]
    return build_milp(parse_instance(json.dumps(doc)))


def projected_form(values, model, inst_sizes):
    """`values` with every flow renamed to its destination's first size."""
    out = {}
    for name, v in values.items():
        key = model.index.column_key(model.index.column(name))
        if key[0] == "flow" and key[-1] is not None:
            leg, t, p, origin, dest, _ = key[1:]
            name = flow_column_name(leg, t, p, origin, dest,
                                    inst_sizes[model.index.leg(leg).dest_role])
        out[name] = out.get(name, 0.0) + v
    return out


def first_sizes(inst):
    return {tag: spec.size_options[0].id for tag, spec in inst.echelons()}


def test_canonical_solutions_come_back_as_parsed(multi_size_members):
    for inst in multi_size_members:
        sol, _ = solve_exact(inst)
        if sol.status != "optimal":
            continue
        model = build_milp(inst)
        x = solution_vector(sol, model)
        lifted, sites = lift_sizes(x, model)
        assert lifted is x and sites == 0, inst.name


def test_first_size_flows_land_on_the_chosen_size(multi_size_members):
    lifted_any = 0
    for inst in multi_size_members:
        sol, _ = solve_exact(inst)
        if sol.status != "optimal":
            continue
        model = build_milp(inst)
        values = projected_form(sol.values, model, first_sizes(inst))
        reported = Solution(values=values, objective_reported=sol.objective_reported,
                            status="optimal")
        lifted, sites = lift_sizes(solution_vector(reported, model), model)
        assert np.allclose(lifted, solution_vector(sol, model), rtol=1e-12, atol=0.0), inst.name
        assert _verify_vector(lifted, model).passed, inst.name
        assert (sites == 0) == (values == sol.values), inst.name
        lifted_any += sites > 0
    assert lifted_any >= 20


def test_adapter_result_is_lifted_and_verified(tmp_path):
    model = two_size_hand_model()
    values = {"xsrccf_t1_w_src1_cf1_s1": 10.0, "xcfrtf_t1_w_cf1_rtf1_s1": 10.0,
              "xrtfcpf_t1_w_rtf1_cpf1_s1": 10.0, "xcpfdpf_t1_w_cpf1_dpf1_s1": 10.0,
              "xdpfsnk_t1_w_dpf1_snk1": 10.0, "bcf_cf1_s2": 1.0, "brtf_rtf1_s1": 1.0,
              "bcpf_cpf1_s1": 1.0, "bdpf_dpf1_s1": 1.0}
    objective = recompute_objective(values, model)
    assert objective == 540.0
    # in the model's own terms 10 t at s1 overflows its 5 t
    assert not verify_solution(Solution(values=values, objective_reported=objective),
                               model).passed
    sol = run_external_solver(model, fake_solver_writing(tmp_path, values, objective))
    assert sol.status == "optimal"
    assert sol.values["xsrccf_t1_w_src1_cf1_s2"] == 10.0
    assert "xsrccf_t1_w_src1_cf1_s1" not in sol.values
    assert verify_solution(sol, model).passed
    assert sol.objective_reported == 540.0
    assert "projection: 11 -> 10 columns, 16 -> 15 rows; 1 sites lifted" in sol.diagnostics


FLOWS = {"xsrccf_t1_w_src1_cf1_s1": 10.0, "xcfrtf_t1_w_cf1_rtf1_s1": 10.0,
         "xrtfcpf_t1_w_rtf1_cpf1_s1": 10.0, "xcpfdpf_t1_w_cpf1_dpf1_s1": 10.0,
         "xdpfsnk_t1_w_dpf1_snk1": 10.0, "brtf_rtf1_s1": 1.0, "bcpf_cpf1_s1": 1.0,
         "bdpf_dpf1_s1": 1.0}


@pytest.mark.parametrize("installs, failure", [
    ({"bcf_cf1_s1": 1.0, "bcf_cf1_s2": 1.0}, "one_size"),
    ({}, "facility_cap"),
    ({"bcf_cf1_s2": 0.5}, "integrality"),
], ids=["two-sizes-installed", "flow-at-closed-site", "fractional-binary"])
def test_bad_solver_output_never_verifies(tmp_path, installs, failure):
    model = two_size_hand_model()
    values = {**FLOWS, **installs}
    objective = recompute_objective(values, model)
    sol = run_external_solver(model, fake_solver_writing(tmp_path, values, objective))
    report = verify_solution(sol, model)
    assert not report.passed
    if failure == "integrality":
        assert report.integrality_violations == 1
    else:
        assert report.violations_by_family[failure] >= 1
    assert "worst residual" not in sol.diagnostics


def test_each_solution_name_is_parsed_once(tmp_path, monkeypatch):
    # parse, lift, refinement and verification share one column vector
    model = two_size_hand_model()
    values = {**FLOWS, "bcf_cf1_s2": 1.0}
    parsed = []
    parse = VariableIndex._parse
    monkeypatch.setattr(VariableIndex, "_parse",
                        lambda index, name: parsed.append(name) or parse(index, name))
    sol = run_external_solver(model, fake_solver_writing(tmp_path, values, 540.0))
    assert "1 sites lifted" in sol.diagnostics and "refinement: worst residual" in sol.diagnostics
    assert parsed == list(values)
