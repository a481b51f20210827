import contextlib
import hashlib
import importlib
import itertools
import json
import re
from pathlib import Path

import numpy as np
import pytest

from conftest import (have_scipy_milp, permuted_columns, restricted_lp, scaled_default_shape,
                      warned_instance)
from scipy_milp_adapter import read_free_mps, solve_mps
from test_acceptance import TOL_EQUIVALENCE, _decentralization_instance
from test_capacity_cover import screened
from test_instance import minimal_doc, parse_doc
from test_milp_core import random_shape_doc
from upcyclenet import oracle, simplex
from upcyclenet.errors import OracleError, SimplexIterationError
from upcyclenet.instance import (ECHELON_TAGS, LEG_INTO, LEG_OUT_OF, parse_instance,
                                 serialize_instance, validate_instance)
from upcyclenet.model import build_milp, install_column_name
from upcyclenet.model_io import verify_solution, write_mps
from upcyclenet.oracle import count_configurations, describe_configuration, solve_exact
from upcyclenet.scenario import _colocated_instance, make_tiny_suite, single_chain_instance
from upcyclenet.simplex import solve_lp

# ---------------------------------------------------------------------------
# simplex, on hand LPs and checked against scipy's HiGHS LP solver

needs_scipy = pytest.mark.skipif(not have_scipy_milp(), reason="scipy.optimize unavailable")


def linprog_reference(c, a, senses, b):
    from scipy.optimize import linprog

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
    return linprog(
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


@pytest.mark.parametrize("cost, status, objective", [(-1.0, "unbounded", float("-inf")),
                                                     (1.0, "optimal", 0.0)])
def test_simplex_lp_without_rows(cost, status, objective):
    res = solve_lp(np.array([cost, 0.0]), np.zeros((0, 2)), [], np.zeros(0))
    assert (res.status, res.objective, res.iterations) == (status, objective, 0)
    assert res.x is None if status == "unbounded" else res.x.tolist() == [0.0, 0.0]


# the classic cycling instance for Dantzig's rule: (c, a, senses, b)
BEALE_LP = (
    np.array([-0.75, 150.0, -0.02, 6.0]),
    np.array([
        [0.25, -60.0, -0.04, 9.0],
        [0.5, -90.0, -0.02, 3.0],
        [0.0, 0.0, 1.0, 0.0],
    ]),
    ["L", "L", "L"],
    np.array([0.0, 0.0, 1.0]),
)


def test_simplex_survives_beale_cycling_example():
    res = solve_lp(*BEALE_LP)
    assert res.status == "optimal"
    assert res.objective == pytest.approx(-0.05, abs=1e-9)  # at x = (0.04, 0, 1, 0)


@pytest.mark.parametrize("limit, pivots", [(1, 6), (simplex._DEGENERATE_LIMIT, 54)])
def test_simplex_switches_to_blands_rule_after_the_degenerate_limit(monkeypatch, limit, pivots):
    # Beale's LP starts with a degenerate pivot (its first two rows have rhs
    # 0).  Under Dantzig's rule it cycles, the leaving tie-break
    # notwithstanding, so the pivot after `limit` degenerate ones is the
    # first under Bland's rule
    rules = []
    real_pivot = simplex._pivot

    def recording_pivot(state, row, col):
        rules.append(state.bland)
        real_pivot(state, row, col)

    monkeypatch.setattr(simplex, "_pivot", recording_pivot)
    monkeypatch.setattr(simplex, "_DEGENERATE_LIMIT", limit)
    res = solve_lp(*BEALE_LP)
    assert res.status == "optimal"
    assert res.objective == pytest.approx(-0.05, abs=1e-9)
    assert rules.index(True) == limit
    assert res.iterations == pivots


def test_ratio_tie_leaves_the_row_with_the_smaller_basis_index():
    # column 0 enters; both rows give it the ratio 1, and row 1's basic
    # column (1) is below row 0's (2), so row 1 leaves though row 0 comes first
    full = np.array([[1.0, 0.0, 1.0, 1.0],
                     [1.0, 1.0, 0.0, 1.0]])
    state = simplex._State(full, np.array([2, 1]))
    assert simplex._run(state, np.array([-1.0, 0.0, 0.0]), np.zeros(3, dtype=bool)) == "optimal"
    assert state.basis.tolist() == [2, 0]
    assert state.iterations == 1
    assert state.full.tolist() == [[0.0, -1.0, 1.0, 0.0], [1.0, 1.0, 0.0, 1.0]]


def test_simplex_iteration_cap_raises(monkeypatch):
    monkeypatch.setattr(simplex, "_MAX_ITERATIONS", 0)
    with pytest.raises(SimplexIterationError):
        solve_lp(
            np.array([-1.0, -1.0]),
            np.array([[1.0, 1.0]]),
            ["L"],
            np.array([4.0]),
        )


@pytest.mark.parametrize("lp", [
    (np.array([-1.0, -1.0]), np.array([[1.0, 1.0]]), ["L"], np.array([4.0])),
    (np.array([1.0, 1.0]), np.array([[1.0, 1.0]]), ["L"], np.array([4.0])),
    (np.array([1.0, 2.0]), np.array([[1.0, 1.0], [1.0, -1.0]]), ["G", "E"], np.array([2.0, 0.0])),
    BEALE_LP,
], ids=["one-pivot", "no-pivot", "dual-pivots", "beale"])
def test_simplex_iteration_cap_is_the_pivot_count_an_lp_may_make(monkeypatch, lp):
    """An LP solves with the cap at exactly the pivots it needs, and raises
    only with the cap one below them."""
    pivots = solve_lp(*lp).iterations
    monkeypatch.setattr(simplex, "_MAX_ITERATIONS", pivots)
    res = solve_lp(*lp)
    assert res.status == "optimal" and res.iterations == pivots
    if pivots:
        monkeypatch.setattr(simplex, "_MAX_ITERATIONS", pivots - 1)
        with pytest.raises(SimplexIterationError, match=f"exceeded {pivots - 1} iterations"):
            solve_lp(*lp)


@needs_scipy
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


def test_simplex_rejects_an_unknown_sense():
    with pytest.raises(ValueError, match="sense 'X'"):
        solve_lp(np.array([1.0]), np.array([[1.0]]), ["X"], np.array([2.0]))


@pytest.mark.parametrize("where, value", [
    ("b", float("nan")), ("b", float("-inf")), ("c", float("inf")), ("a", float("nan")),
])
def test_simplex_rejects_non_finite_data(where, value):
    lp = {"c": np.array([1.0, 2.0]), "a": np.array([[1.0, 1.0], [1.0, 0.0]]),
          "b": np.array([4.0, 1.0])}
    lp[where][(0,) * lp[where].ndim] = value
    with pytest.raises(ValueError, match="finite"):
        solve_lp(lp["c"], lp["a"], ["G", "L"], lp["b"])


def sparse_lp(rng):
    """20-80 rows at under 10% density, all three senses and rhs of both
    signs; built around a nonnegative point, with a last row capping half
    of the columns, so that most are feasible and some bounded."""
    m = int(rng.integers(20, 81))
    n = int(rng.integers(20, 61))
    a = np.where(rng.random((m, n)) < 0.06, rng.uniform(-2, 2, (m, n)).round(2), 0.0)
    a[-1] = rng.random(n) < 0.5
    x0 = np.where(rng.random(n) < 0.3, rng.uniform(0, 5, n), 0.0)
    senses = rng.choice(["L", "G", "E"], size=m, p=[0.5, 0.3, 0.2])
    senses[-1] = "L"
    gap = rng.uniform(0, 2, m).round(2)
    b = (a @ x0).round(2) + np.where(senses == "L", gap, np.where(senses == "G", -gap, 0.0))
    c = rng.uniform(-0.3, 2, n).round(2)
    return c, a, senses, b


@needs_scipy
def test_simplex_agrees_with_scipy_on_sparse_lps():
    """Larger and sparser LPs than the dense random ones above."""
    statuses = set()
    for seed in range(12):
        c, a, senses, b = sparse_lp(np.random.default_rng(900 + seed))
        assert np.count_nonzero(a) <= 0.1 * a.size
        assert (b < 0).any() and (b > 0).any()
        res = solve_lp(c, a, senses, b)
        ref = linprog_reference(c, a, senses, b)
        assert res.status == {0: "optimal", 2: "infeasible", 3: "unbounded"}[ref.status]
        statuses.add(res.status)
        if res.status == "optimal":
            assert res.objective == pytest.approx(ref.fun, rel=1e-9, abs=1e-7)
            lhs = a @ res.x
            for sense, v, rhs in zip(senses, lhs, b):
                assert {"L": v <= rhs + 1e-7, "G": v >= rhs - 1e-7, "E": abs(v - rhs) <= 1e-7}[sense]
    assert "optimal" in statuses


def record_phases(monkeypatch):
    """Start basis of each solve_lp call, and each pivoting run in order:
    ('dual' or 'primal', the pivots made before it, the blocked columns,
    the costs it prices with)."""
    starts, runs = [], []

    class RecordingState(simplex._State):
        def __init__(self, full, basis):
            starts.append((full[:, :-1].copy(), basis.copy()))
            super().__init__(full, basis)

    def recording(name, real):
        def run(state, cost, blocked):
            runs.append((name, state.iterations, blocked.nonzero()[0].tolist(), cost.tolist()))
            return real(state, cost, blocked)
        return run

    monkeypatch.setattr(simplex, "_State", RecordingState)
    monkeypatch.setattr(simplex, "_run_dual", recording("dual", simplex._run_dual))
    monkeypatch.setattr(simplex, "_run", recording("primal", simplex._run))
    return starts, runs


def test_all_le_lp_with_nonnegative_rhs_needs_no_dual_pivot(monkeypatch):
    starts, runs = record_phases(monkeypatch)
    c = np.array([-1.0, -2.0, 0.5])
    a = np.array([[1.0, 1.0, 1.0], [1.0, -1.0, 0.0], [0.0, 1.0, 2.0]])
    b = np.array([4.0, 0.0, 3.0])
    res = solve_lp(c, a, ["L", "L", "L"], b)
    assert res.status == "optimal"
    assert res.objective == pytest.approx(-7.0, abs=1e-9)  # at x = (1, 3, 0)
    # the slack basis is feasible, so the dual loop, at the costs clipped
    # at 0, ends without a pivot and phase 2 makes them all; no artificial
    # exists
    tableau, basis = starts[0]
    assert tableau.shape == (3, 6)
    assert list(basis) == [3, 4, 5]
    assert runs == [("dual", 0, [], [0.0, 0.0, 0.5, 0.0, 0.0, 0.0]),
                    ("primal", 0, [], [-1.0, -2.0, 0.5, 0.0, 0.0, 0.0])]
    assert res.iterations > 0


def test_ge_rows_start_on_their_flipped_surplus_and_eq_rows_on_held_artificials(monkeypatch):
    starts, runs = record_phases(monkeypatch)
    # x0 + x1 >= -3, x0 - x1 >= 0, x0 + 2 x1 == 2, x0 >= 1
    c = np.array([1.0, 1.0])
    a = np.array([[1.0, 1.0], [1.0, -1.0], [1.0, 2.0], [1.0, 0.0]])
    b = np.array([-3.0, 0.0, 2.0, 1.0])
    res = solve_lp(c, a, ["G", "G", "E", "G"], b)
    assert res.status == "optimal"
    assert res.objective == pytest.approx(1.5)  # at x = (1, 0.5)
    tableau, basis = starts[0]
    # every >= row is flipped onto its surplus (columns 2, 3 and 4), whatever
    # its rhs; the == row starts on artificial 5, which is held
    assert list(basis) == [2, 3, 5, 4]
    assert list(tableau[0]) == [-1.0, -1.0, 1.0, 0.0, 0.0, 0.0]
    assert list(tableau[1]) == [-1.0, 1.0, 0.0, 1.0, 0.0, 0.0]
    assert list(tableau[2]) == [1.0, 2.0, 0.0, 0.0, 0.0, 1.0]
    assert list(tableau[3]) == [-1.0, 0.0, 0.0, 0.0, 1.0, 0.0]
    # one dual run repairs the held artificial and the last surplus, then
    # phase 2 finds nothing to price at the nonnegative costs
    costs = [1.0, 1.0, 0.0, 0.0, 0.0, 0.0]
    assert runs == [("dual", 0, [5], costs), ("primal", res.iterations, [5], costs)]
    assert res.iterations > 0


@needs_scipy
def test_simplex_agrees_with_scipy_with_negative_costs_and_positive_ge_rows(monkeypatch):
    """Random LPs with costs of both signs and >= rows with rhs > 0, so the
    slack basis is neither primal feasible nor dual feasible at the true
    costs: across the family the dual loop at the costs clipped at 0 and
    phase 2 at the true costs both pivot, and every status, optimum and
    row agrees with scipy."""
    _, runs = record_phases(monkeypatch)
    dual_pivots = primal_pivots = 0
    statuses = set()
    for seed in range(30):
        rng = np.random.default_rng(1500 + seed)
        m, n = int(rng.integers(2, 7)), int(rng.integers(2, 7))
        a = rng.uniform(-0.5, 2, size=(m, n)).round(2)
        senses = rng.choice(["L", "G", "E"], size=m, p=[0.3, 0.5, 0.2])
        b = rng.uniform(-1, 4, size=m).round(2)
        senses[0], b[0] = "G", abs(b[0]) + 0.5
        # a last row caps the columns' sum, so the negative costs stay bounded
        a, senses, b = np.vstack([a, np.ones(n)]), np.append(senses, "L"), np.append(b, 10.0)
        c = rng.uniform(-2, 1, size=n).round(2)
        runs.clear()
        res = solve_lp(c, a, senses, b)
        phase_two_from = runs[1][1] if len(runs) > 1 else res.iterations
        dual_pivots += phase_two_from
        primal_pivots += res.iterations - phase_two_from
        ref = linprog_reference(c, a, senses, b)
        assert res.status == {0: "optimal", 2: "infeasible", 3: "unbounded"}[ref.status]
        statuses.add(res.status)
        if res.status == "optimal":
            assert res.objective == pytest.approx(ref.fun, rel=1e-9, abs=1e-7)
            assert (res.x >= 0.0).all()
            for sense, v, rhs in zip(senses, a @ res.x, b):
                assert {"L": v <= rhs + 1e-9, "G": v >= rhs - 1e-9, "E": abs(v - rhs) <= 1e-9}[sense]
    assert statuses == {"optimal", "infeasible"}
    assert dual_pivots > 0 and primal_pivots > 0


@needs_scipy
@pytest.mark.parametrize("seed", range(20))
def test_simplex_agrees_with_scipy_with_zero_and_negative_rhs(seed):
    """Random LPs whose rows mix rhs 0, rhs < 0 and rhs > 0 over all three
    senses, so every starting-basis case meets every other."""
    rng = np.random.default_rng(700 + seed)
    m = int(rng.integers(1, 7))
    n = int(rng.integers(1, 6))
    a = rng.uniform(-2, 2, size=(m, n)).round(2)
    b = rng.choice([0.0, -1.0, 1.0], size=m) * rng.uniform(0.5, 4, size=m).round(2)
    c = rng.uniform(-1, 2, size=n).round(2)
    senses = [str(rng.choice(["L", "G", "E"])) for _ in range(m)]
    res = solve_lp(c, a, senses, b)
    ref = linprog_reference(c, a, senses, b)
    assert ref.status in (0, 2, 3)
    assert res.status == {0: "optimal", 2: "infeasible", 3: "unbounded"}[ref.status]
    if ref.status == 0:
        assert res.objective == pytest.approx(ref.fun, abs=1e-7)
        assert (res.x >= 0.0).all()
        lhs = a @ res.x
        for sense, v, rhs in zip(senses, lhs, b):
            assert {"L": v <= rhs + 1e-7, "G": v >= rhs - 1e-7, "E": abs(v - rhs) <= 1e-7}[sense]


def test_readme_tolerance_table_matches_the_simplex_constants():
    """README's Tolerances table names every numeric module constant of
    the package, `simplex`'s among them; every `module.name` in its Where
    column exists, and so does every constant a row names, in one of the
    modules of its Where column.  `instance.EARTH_RADIUS_KM` is exempt: it
    is a model parameter (the sphere of the great-circle distances), not a
    tolerance or a limit."""
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    table = readme.split("## Tolerances and limits", 1)[1].split("\n## ", 1)[0]
    modules = {path.stem: importlib.import_module(f"upcyclenet.{path.stem}")
               for path in sorted(Path(simplex.__file__).parent.glob("*.py"))}
    named, referenced, misplaced = set(), set(), set()
    for line in table.splitlines():
        cells = line.split("|")
        if len(cells) < 5:
            continue
        names = set(re.findall(r"`(\w+)`", cells[1]))
        where = re.findall(r"`(\w+)(?:\.(\w+))?", cells[3])
        homes = [modules[module] for module, _ in where if module in modules]
        named |= names
        referenced.update((module, name) for module, name in where if name)
        if homes:
            misplaced.update(name for name in names
                             if not any(hasattr(home, name) for home in homes))
    constants = {name for module in modules.values() for name, value in vars(module).items()
                 if re.fullmatch(r"_?[A-Z][A-Z0-9_]*", name)
                 and isinstance(value, (int, float)) and not isinstance(value, bool)}
    constants.discard("EARTH_RADIUS_KM")
    assert {"_MAX_ITERATIONS", "MAX_NAME_LEN"} <= constants and referenced
    assert constants <= named, "missing from the table: " + ", ".join(sorted(constants - named))
    stale = sorted(f"{module}.{name}" for module, name in referenced
                   if module not in modules or not hasattr(modules[module], name))
    assert not stale, "not in the package: " + ", ".join(stale)
    assert not misplaced, "not in their Where modules: " + ", ".join(sorted(misplaced))


# ---------------------------------------------------------------------------
# warm start: a cold solve's optimal basis re-optimised by the dual simplex

# min -x0 - 2 x1 + 0.5 x2  s.t.  x0 + x1 + x2 <= 4,  x1 <= 3,  x0 + x2 >= 1;
# optimal at x = (1, 3, 0) with both <= rows tight
WARM_LP = (np.array([-1.0, -2.0, 0.5]),
           np.array([[1.0, 1.0, 1.0], [0.0, 1.0, 0.0], [1.0, 0.0, 1.0]]),
           ["L", "L", "G"])


def warm_base():
    c, a, senses = WARM_LP
    base = solve_lp(c, a, senses, np.array([4.0, 3.0, 1.0]))
    assert base.status == "optimal" and base.objective == pytest.approx(-7.0)
    return base


def test_warm_start_reoptimises_at_a_new_rhs():
    c, a, senses = WARM_LP
    b = np.array([6.0, 2.0, 1.0])
    res = solve_lp(c, a, senses, b, start=warm_base())
    assert res.status == "optimal"
    assert res.objective == pytest.approx(-8.0)
    np.testing.assert_allclose(res.x, [4.0, 2.0, 0.0], atol=1e-12)
    assert res.objective == pytest.approx(solve_lp(c, a, senses, b).objective)
    assert res.warm is not None  # any optimal result is a start


def test_warm_start_keeps_held_columns_at_zero():
    # x1 is basic at 3 in the start; held, it must leave
    c, a, senses = WARM_LP
    res = solve_lp(c, a, senses, np.array([4.0, 3.0, 1.0]), start=warm_base(),
                   held=np.array([False, True, False]))
    assert res.status == "optimal"
    assert res.objective == pytest.approx(-4.0)
    assert res.x[1] == 0.0
    np.testing.assert_allclose(res.x, [4.0, 0.0, 0.0], atol=1e-12)


def test_warm_start_finds_an_infeasible_rhs():
    c, a, senses = WARM_LP
    res = solve_lp(c, a, senses, np.array([4.0, 3.0, 5.0]), start=warm_base())
    assert res.status == "infeasible"
    assert res.x is None
    assert res.objective > 0.0  # the violation of the row that could not be repaired


@pytest.mark.parametrize("start, held, match", [
    ("infeasible", None, "optimal result of solve_lp"),
    (None, np.array([False, True, False]), "held columns need a start basis"),
    ("base", np.array([0, 1, 0]), "boolean mask"),
    ("base", np.array([False, True]), "boolean mask"),
    ("other", None, "does not fit"),
])
def test_warm_start_rejects_what_does_not_fit(start, held, match):
    c, a, senses = WARM_LP
    start = {"base": warm_base(), None: None,
             "infeasible": solve_lp(c, a, senses, np.array([4.0, 3.0, 5.0])),
             "other": solve_lp(c[:2], a[:, :2], senses, np.array([4.0, 3.0, 1.0]))}[start]
    with pytest.raises(ValueError, match=match):
        solve_lp(c, a, senses, np.array([4.0, 3.0, 1.0]), start=start, held=held)


def test_warm_start_iteration_cap_raises(monkeypatch):
    c, a, senses = WARM_LP
    base = warm_base()
    monkeypatch.setattr(simplex, "_MAX_ITERATIONS", 0)
    with pytest.raises(SimplexIterationError):
        solve_lp(c, a, senses, np.array([6.0, 2.0, 1.0]), start=base)


def test_warm_start_is_read_only():
    """A cold solve's warm start refuses every write, so a warm LP that
    forgot to copy it raises instead of changing the next one's start."""
    warm = warm_base().warm
    for arr in (warm.full, warm.basis, warm.starts, warm.signs):
        assert not arr.flags.writeable
        with pytest.raises(ValueError, match="read-only"):
            arr[0] = arr[0]


def test_warm_solves_leave_their_start_unchanged():
    """Warm solves from one start, optimal and infeasible, held columns or
    none, leave every byte of its arrays, the basis among them, as it was."""
    c, a, senses = WARM_LP
    base = warm_base()
    before = [(arr.tobytes(), arr.dtype, arr.shape)
              for arr in (base.warm.full, base.warm.basis, base.warm.starts, base.warm.signs)]
    results = []
    for b, held in [((6.0, 2.0, 1.0), None), ((4.0, 3.0, 1.0), [False, True, False]),
                    ((4.0, 3.0, 5.0), None), ((1.0, 0.5, 2.0), [True, False, False])]:
        held = None if held is None else np.array(held)
        results.append(solve_lp(c, a, senses, np.array(b), start=base, held=held))
    assert {res.status for res in results} == {"optimal", "infeasible"}
    assert all(res.iterations > 0 for res in results if res.status == "optimal")
    assert [(arr.tobytes(), arr.dtype, arr.shape)
            for arr in (base.warm.full, base.warm.basis, base.warm.starts, base.warm.signs)] == before


def test_phase_two_does_not_move_a_held_basic_column():
    # basis: the slack of x0 + x1 + s0 = 4, and held x2 at 0 in x2 - x0 = 0;
    # x0 prices out, and entering it would raise x2 with it
    full = np.array([[1.0, 1.0, 0.0, 1.0, 4.0],
                     [-1.0, 0.0, 1.0, 0.0, 0.0]])
    state = simplex._State(full, np.array([3, 2]))
    blocked = np.array([False, False, True, False])
    assert simplex._run(state, np.array([-1.0, 0.0, 0.0, 0.0]), blocked) == "optimal"
    values = dict(zip(state.basis.tolist(), state.rhs.tolist()))
    assert values.get(2, 0.0) == 0.0 and values.get(0, 0.0) == 0.0


def test_warm_start_agrees_with_a_cold_solve_on_random_lps():
    """Random LPs solved cold, then re-optimised at moved rhs values (some
    changing sign) and random held columns: the same status and optimum as
    a cold solve without the held columns, and a feasible `x` that is
    exactly 0 where held."""
    statuses = []
    for seed in range(40):
        rng = np.random.default_rng(1200 + seed)
        m = int(rng.integers(2, 7))
        n = int(rng.integers(3, 9))
        a = rng.uniform(-2, 2, size=(m, n)).round(2)
        c = rng.uniform(0, 2, size=n).round(2)
        senses = [str(rng.choice(["L", "G", "E"])) for _ in range(m)]
        b = rng.uniform(-2, 4, size=m).round(2)
        base = solve_lp(c, a, senses, b)
        if base.status != "optimal":
            continue
        for _ in range(8):
            moved = b + rng.choice([0.0, 0.0, 1.0], size=m) * rng.uniform(-3, 3, size=m).round(2)
            held = rng.random(n) < 0.3
            warm = solve_lp(c, a, senses, moved, start=base, held=held)
            cold = solve_lp(c[~held], a[:, ~held], senses, moved)
            assert warm.status == cold.status, (seed, moved, held)
            statuses.append(warm.status)
            if warm.status == "optimal":
                assert warm.objective == pytest.approx(cold.objective, rel=1e-9, abs=1e-9)
                assert (warm.x[held] == 0.0).all() and (warm.x >= -1e-9).all()
                lhs = a @ warm.x
                for sense, v, rhs in zip(senses, lhs, moved):
                    assert {"L": v <= rhs + 1e-9, "G": v >= rhs - 1e-9,
                            "E": abs(v - rhs) <= 1e-9}[sense]
    assert statuses.count("optimal") >= 100 and statuses.count("infeasible") >= 50


def test_a_warm_result_starts_the_next_lp_on_random_lps(monkeypatch):
    """Chains of warm solves on random LPs, each started from the last
    optimal result, warm ones too, at a moved rhs and a new held set that
    frees some of the columns its start held: the same status and optimum
    as a cold solve without the held columns, and a feasible `x` that is
    exactly 0 where held.  Some freed columns price below 0 at their
    start's basis, yet every dual loop starts dual feasible: at its costs
    no column that may enter prices below 0."""
    statuses = []
    priced_below = 0
    lowest = []
    real_run_dual = simplex._run_dual

    def checking_run_dual(state, cost, blocked):
        reduced = cost - cost[state.basis] @ state.tableau
        lowest.append(reduced[~blocked].min(initial=0.0))
        return real_run_dual(state, cost, blocked)

    monkeypatch.setattr(simplex, "_run_dual", checking_run_dual)
    for seed in range(80):
        rng = np.random.default_rng(1700 + seed)
        m = int(rng.integers(2, 7))
        n = int(rng.integers(3, 9))
        a = rng.uniform(-2, 2, size=(m, n)).round(2)
        c = rng.uniform(-1, 2, size=n).round(2)
        senses = [str(rng.choice(["L", "G", "E"])) for _ in range(m)]
        b = rng.uniform(-2, 4, size=m).round(2)
        start, start_held = solve_lp(c, a, senses, b), np.zeros(n, dtype=bool)
        if start.status != "optimal":
            continue
        for _ in range(8):
            moved = b + rng.choice([0.0, 0.0, 1.0], size=m) * rng.uniform(-3, 3, size=m).round(2)
            held = rng.random(n) < 0.3
            held[start_held] = rng.random(np.count_nonzero(start_held)) < 0.3
            warm = solve_lp(c, a, senses, moved, start=start, held=held)
            cold = solve_lp(c[~held], a[:, ~held], senses, moved)
            assert warm.status == cold.status, (seed, moved, held)
            statuses.append(warm.status)
            if warm.status != "optimal":
                continue
            assert warm.objective == pytest.approx(cold.objective, rel=1e-9, abs=1e-9)
            assert (warm.x[held] == 0.0).all() and (warm.x >= -1e-9).all()
            lhs = a @ warm.x
            for sense, v, rhs in zip(senses, lhs, moved):
                assert {"L": v <= rhs + 1e-9, "G": v >= rhs - 1e-9,
                        "E": abs(v - rhs) <= 1e-9}[sense]
            tableau, basis = start.warm.full[:, :n], start.warm.basis
            reduced = c - np.append(c, np.zeros(m))[basis] @ tableau
            priced_below += bool((reduced[start_held & ~held] < -1e-9).any())
            start, start_held = warm, held
    assert statuses.count("optimal") >= 100 and statuses.count("infeasible") >= 50
    assert priced_below >= 20 and min(lowest) >= 0.0


def test_a_freed_column_that_prices_below_zero_enters():
    """x1 held gives the optimum x = (4, 0, 0); freed from there, x1
    prices at -1 (-2 against the first row's dual -1), so the start's
    basis is not dual feasible at c.  The warm solve still reaches the
    cold optimum x = (1, 3, 0)."""
    c, a, senses = WARM_LP
    b = np.array([4.0, 3.0, 1.0])
    held = solve_lp(c, a, senses, b, start=warm_base(), held=np.array([False, True, False]))
    assert held.status == "optimal" and held.warm is not None
    basis = held.warm.basis
    reduced = c - np.append(c, np.zeros(3))[basis] @ held.warm.full[:, :3]
    assert reduced[1] == pytest.approx(-1.0)
    res = solve_lp(c, a, senses, b, start=held)
    assert res.status == "optimal" and res.objective == pytest.approx(-7.0)
    np.testing.assert_allclose(res.x, [1.0, 3.0, 0.0], atol=1e-12)


def test_a_warm_solve_checks_what_its_start_did_not():
    """A start solved with read-only `c`, `a` and `senses` spares a warm
    solve given the same arrays their check; any other array is checked
    as before: a writeable copy of `a` holding a NaN, a read-only one,
    and the start's own `a` made writeable again and changed."""
    c, a, senses = (np.array(v) for v in WARM_LP)
    for arr in (c, a, senses):
        arr.flags.writeable = False
    b = np.array([4.0, 3.0, 1.0])
    base = solve_lp(c, a, senses, b)
    assert base.warm.lp is not None
    assert solve_lp(c, a, senses, b, start=base).objective == pytest.approx(-7.0)
    with_nan = a.copy()
    with_nan[1, 1] = np.nan
    with pytest.raises(ValueError, match="finite"):
        solve_lp(c, with_nan, senses, b, start=base)
    with_nan.flags.writeable = False
    with pytest.raises(ValueError, match="finite"):
        solve_lp(c, with_nan, senses, b, start=base)
    a.flags.writeable = True
    a[1, 1] = np.inf
    with pytest.raises(ValueError, match="finite"):
        solve_lp(c, a, senses, b, start=base)
    with pytest.raises(ValueError, match="finite"):
        solve_lp(c, a, senses, np.array([4.0, np.nan, 1.0]), start=base)


def test_dual_loop_switches_to_blands_rule_on_degenerate_pivots(monkeypatch):
    """Zero costs make every dual pivot degenerate, so with the limit at 1
    the dual loop picks its leaving rows by Bland's rule from its second
    pivot on; it still agrees with a cold solve on every status and ends
    on a feasible `x`."""
    monkeypatch.setattr(simplex, "_DEGENERATE_LIMIT", 1)
    modes = []
    real_pivot = simplex._pivot

    def recording_pivot(state, row, col):
        modes.append(state.bland)
        real_pivot(state, row, col)

    statuses = []
    for seed in range(40):
        rng = np.random.default_rng(1300 + seed)
        m, n = int(rng.integers(3, 7)), int(rng.integers(4, 9))
        a = rng.uniform(-2, 2, size=(m, n)).round(2)
        senses = [str(rng.choice(["L", "G", "E"])) for _ in range(m)]
        b = rng.uniform(-2, 4, size=m).round(2)
        c = np.zeros(n)
        base = solve_lp(c, a, senses, b)
        if base.status != "optimal":
            continue
        for _ in range(6):
            moved = b + rng.uniform(-3, 3, size=m).round(2)
            held = rng.random(n) < 0.2
            with monkeypatch.context() as mp:
                mp.setattr(simplex, "_pivot", recording_pivot)
                warm = solve_lp(c, a, senses, moved, start=base, held=held)
            statuses.append(warm.status)
            assert warm.status == solve_lp(c[~held], a[:, ~held], senses, moved).status
            if warm.status == "optimal":
                assert (warm.x[held] == 0.0).all() and (warm.x >= -1e-9).all()
                lhs = a @ warm.x
                for sense, v, rhs in zip(senses, lhs, moved):
                    assert {"L": v <= rhs + 1e-9, "G": v >= rhs - 1e-9,
                            "E": abs(v - rhs) <= 1e-9}[sense]
    assert modes.count(True) >= 20
    assert statuses.count("optimal") >= 20 and statuses.count("infeasible") >= 20


# ---------------------------------------------------------------------------
# configuration enumeration


def test_site_slots_and_count_on_hand_instance():
    inst = single_chain_instance()
    slots = oracle._SlotTable(inst).slots
    assert [(s.tag, len(s.sizes)) for s in slots] == [("cf", 1), ("rtf", 1), ("cpf", 1), ("dpf", 1)]
    assert count_configurations(inst) == 16


def test_enumeration_is_lexicographic_and_complete():
    table = oracle._SlotTable(single_chain_instance())
    configs = [config for config, _, _ in screened(table)]
    assert len(configs) == 16
    assert configs[0] == (0, 0, 0, 0)
    assert configs[-1] == (1, 1, 1, 1)
    assert configs == sorted(configs)


def test_enumeration_refuses_over_limit():
    inst = single_chain_instance()
    with pytest.raises(OracleError, match="16"):
        oracle._SlotTable(inst).blocks(8)
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


@pytest.mark.parametrize("config, match", [
    ((1, 2, 1, 1), "size choice 2 out of range at rtf site 0"),
    ((1, -1, 1, 1), "size choice -1 out of range"),
    ((1, 1.5, 1, 1), "size choice 1.5 is not an integer at rtf site 0"),
    ((1, "1", 1, 1), "is not an integer"),
    # a bool is an int to Python, but no size choice, as numpy's is not
    ((True, True, False, True), "size choice True is not an integer at cf site 0"),
    ((1, np.True_, 1, 1), "size choice np.True_ is not an integer at rtf site 0"),
])
def test_describe_configuration_rejects_bad_choices(config, match):
    with pytest.raises(OracleError, match=match):
        describe_configuration(single_chain_instance(), config)


def test_capacity_screen_hand_cases():
    inst = single_chain_instance()
    table = oracle._SlotTable(inst)
    fits = {config: fit for config, fit, _ in screened(table)}
    assert not fits[0, 0, 0, 0]  # quota needs 10 t collected
    assert fits[1, 1, 1, 1]
    with pytest.raises(OracleError):
        table.open_sites((1, 1, 1))


# ---------------------------------------------------------------------------
# flow LP and exact solve


def test_flow_lp_on_hand_configuration():
    factory = all_open_factory(single_chain_instance())
    res = factory.solve((1, 1, 1, 1))
    assert res.status == "optimal"
    # flow cost only: the optimum 540 less four sites' install cost of 100
    assert res.objective == pytest.approx(140.0, abs=1e-9)
    flows = factory.flows((1, 1, 1, 1), res.x)
    assert set(flows) == {
        "xsrccf_t1_w_src1_cf1_s1",
        "xcfrtf_t1_w_cf1_rtf1_s1",
        "xrtfcpf_t1_w_rtf1_cpf1_s1",
        "xcpfdpf_t1_w_cpf1_dpf1_s1",
        "xdpfsnk_t1_w_dpf1_snk1",
    }
    for v in flows.values():
        assert v == pytest.approx(10.0, abs=1e-9)


def test_flow_lp_all_closed_is_infeasible_under_quota():
    assert all_open_factory(single_chain_instance()).solve((0, 0, 0, 0)).status == "infeasible"


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
    inst = warned_instance(code)
    assert code in {f.code for f in validate_instance(inst)}
    pruned, _ = solve_exact(inst, prune=True)
    assert pruned.status == "infeasible"
    unpruned, _ = solve_exact(inst, prune=False)
    assert unpruned.status == "optimal"
    assert unpruned.objective_reported == pytest.approx(unpruned_objective, abs=1e-9)
    assert verify_solution(unpruned, build_milp(inst, prune=False)).passed


@pytest.mark.skipif(not have_scipy_milp(), reason="scipy.optimize.milp unavailable")
@pytest.mark.parametrize("code", ["quota-uncollectable", "orphan-output"])
def test_warned_instances_pruned_mps_is_infeasible_for_highs(code):
    model = build_milp(warned_instance(code), prune=True)
    assert solve_mps(read_free_mps(write_mps(model))).status == 2


def test_column_permutation_does_not_change_the_winner():
    inst = single_chain_instance()
    base, cert_base = solve_exact(inst)
    for seed in (1, 2, 3):
        with permuted_columns(seed):
            perm, cert_perm = solve_exact(inst)
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


@pytest.mark.skipif(not have_scipy_milp(), reason="scipy.optimize.milp unavailable")
def test_oracle_matches_the_external_route_at_five_percent(adapter_solves):
    """Far past the tiny suite: 944,784 configurations over three periods."""
    inst = scaled_default_shape(0.05)
    assert count_configurations(inst) == 944_784
    sol, cert = solve_exact(inst)
    model, external = adapter_solves[0.05]
    assert sol.status == external.status == "optimal"
    assert cert.pruned + cert.infeasible + cert.solved == cert.enumerated
    assert abs(sol.objective_reported - external.objective_reported) <= \
        TOL_EQUIVALENCE * max(1.0, abs(external.objective_reported))
    assert sol.objective_reported == pytest.approx(4_435_097.5998, abs=1e-4)
    assert verify_solution(sol, model, tol=TOL_EQUIVALENCE).passed


# ---------------------------------------------------------------------------
# bound prune, checked against plain enumeration


def every_configuration(table):
    """Every configuration, lexicographic, without the oracle's blocks."""
    return itertools.product(*(range(len(s.sizes) + 1) for s in table.slots))


def brute_force(inst, prune, tie_tol=oracle.TIE_TOL):
    """Every configuration's flow LP, solved cold (`restricted_lp`), plus
    its install cost, keeping the lexicographically first minimum under
    the oracle's tie rule."""
    factory = all_open_factory(inst, prune)
    best = None
    for config in every_configuration(factory.slots):
        res = restricted_lp(factory, config)
        if res.status != "optimal":
            continue
        objective = res.objective + scan_loop(factory.slots, config)[1]
        if best is None or objective < best[0] - tie_tol * max(1.0, abs(best[0])):
            best = (objective, config, factory.flows(config, res.x))
    return best


def all_open_factory(inst, prune=True):
    """The instance's all-open LP, from whose optimum each configuration's
    is re-optimised."""
    return oracle._LpFactory(inst, prune, oracle._SlotTable(inst))


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
        with permuted_columns(permute_seed) if permute_seed else contextlib.nullcontext():
            sol, cert = solve_exact(inst, prune=prune)
            ref_obj, ref_config, ref_flows = brute_force(inst, prune)
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


def random_shape_instance(seed):
    return parse_instance(json.dumps(random_shape_doc(np.random.default_rng(seed))))


def walk_outcome(inst):
    sol, cert = solve_exact(inst)
    counts = (cert.enumerated, cert.pruned, cert.bound_pruned, cert.infeasible, cert.solved)
    best = None if cert.best_objective is None else cert.best_objective.hex()
    return counts, best, cert.best_configuration, sol.values


def test_small_blocks_walk_like_the_default(bound_pruning_members, monkeypatch):
    """A block size that cuts every instance into many blocks solves the
    same LPs: the counts, the optimum's bits, the configuration and the
    flows all match the default block size's."""
    cases = bound_pruning_members + [random_shape_instance(411)]
    default = [walk_outcome(inst) for inst in cases]
    monkeypatch.setattr(oracle, "_BLOCK", 7)
    assert all(count_configurations(inst) > 7 for inst in cases)
    assert [walk_outcome(inst) for inst in cases] == default


def scan_loop(table, config):
    """The capacity screen and install cost of one configuration as a plain
    loop in slot order: the reference for the blocks."""
    capacity = [0.0] * len(table.forced)
    install = 0.0
    for choice, slot in zip(config, table.slots):
        if choice:
            capacity[slot.echelon] += slot.caps[choice - 1]
            install += slot.costs[choice - 1]
    fits = all(f <= cap + 1e-9 * max(1.0, f) for f, cap in zip(table.forced, capacity))
    return fits, install


@pytest.mark.parametrize("block", [1, 7, oracle._BLOCK])
def test_blocks_list_every_configuration_with_its_scan(monkeypatch, block):
    monkeypatch.setattr(oracle, "_BLOCK", block)
    for inst in (parse_doc(minimal_doc()), random_shape_instance(400), random_shape_instance(411)):
        table = oracle._SlotTable(inst)
        listed = []
        for b in table.blocks(oracle.MAX_CONFIGS):
            assert b.fits.size <= block
            for k in range(b.fits.size):
                config = b.configuration(k)
                expected = scan_loop(table, config)
                assert (bool(b.fits[k]), float(b.install[k])) == expected
                listed.append(config)
        assert listed == list(every_configuration(table))


def test_flow_cost_bound_is_below_every_configuration():
    checked = 0
    for seed in range(400, 460):
        inst = parse_instance(json.dumps(random_shape_doc(np.random.default_rng(seed))))
        if count_configurations(inst) > 400:
            continue
        checked += 1
        factory = all_open_factory(inst)
        bound_lp = factory.bound_lp()
        bound = None if bound_lp.status == "infeasible" else bound_lp.objective
        for config in every_configuration(factory.slots):
            res = factory.solve(config)
            if bound is None:
                assert res.status == "infeasible"
            elif res.status == "optimal":
                assert bound <= res.objective + 1e-9 * max(1.0, abs(res.objective))
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


def test_demand_at_the_float_range_solves_like_the_base_instance():
    # a demand ceiling near the float range: its row's slack starts basic at
    # 1e308, and no ratio divides it, since no pivot needs that row to leave
    base = make_tiny_suite(2026)[7]
    doc = json.loads(serialize_instance(base))
    doc["sinks"][0]["demand"]["t1"]["g"] = 1e308
    inst = parse_instance(json.dumps(doc))
    sol, cert = solve_exact(inst)
    assert cert.best_objective == solve_exact(base)[1].best_objective
    assert cert.best_objective == pytest.approx(1775.7138369713027, rel=1e-12)
    assert cert.best_configuration == (0, 1, 0, 1, 2, 1, 0, 0)
    assert verify_solution(sol, build_milp(inst)).passed


def test_simplex_overflow_raises_floating_point_error():
    # the >= row's surplus starts at -1e305, and the dual pivot on x's
    # entry 1e-5 sets x to 1e310
    with pytest.raises(FloatingPointError, match="overflow"):
        solve_lp([1.0], [[1e-5]], ["G"], [1e305])


def test_simplex_overflow_is_an_oracle_error(monkeypatch):
    def overflowing_solve_lp(*args, **kwargs):
        raise FloatingPointError("overflow encountered in divide")

    monkeypatch.setattr(oracle, "solve_lp", overflowing_solve_lp)
    with pytest.raises(OracleError, match="^flow subproblem left the float range: overflow"):
        solve_exact(make_tiny_suite(2026)[7])


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
    assert sum(pivots) == 858
    assert sum(c.enumerated for c in certs) == 19_497
    assert sum(c.pruned for c in certs) == 19_265
    assert sum(c.bound_pruned for c in certs) == 8_856
    assert sum(c.infeasible for c in certs) == 0
    assert sum(c.solved for c in certs) == 232


# sha256 over the tiny suite's LPs and optima, re-recorded when each
# configuration LP came to start from the last optimal one; see the test
# below
TINY_SUITE_LP_DIGEST = "0ae2084a6da9f8f6903b3f91fa5a8aa7a1a2c2025f25fd58b7141769799cbe52"


def test_tiny_suite_lp_bits_are_pinned(monkeypatch):
    """Every tiny-suite LP's status, pivot count, objective and `x`, and
    each member's optimum, to the bit: a change to the simplex or to how
    the configuration LPs are assembled must leave them all alone.  The digest
    is tied to this numpy and BLAS build, whose dot products set the last
    bits; on another build it may differ where the program does not."""
    digest = hashlib.sha256()
    real_solve_lp = oracle.solve_lp

    def hashing_solve_lp(*args, **kwargs):
        result = real_solve_lp(*args, **kwargs)
        digest.update(f"{result.status} {result.iterations} {result.objective.hex()}\n".encode())
        if result.x is not None:
            digest.update(result.x.tobytes())
        return result

    monkeypatch.setattr(oracle, "solve_lp", hashing_solve_lp)
    for inst in make_tiny_suite(2026):
        best = solve_exact(inst)[1].best_objective
        digest.update(f"{inst.name} {None if best is None else best.hex()}\n".encode())
    assert digest.hexdigest() == TINY_SUITE_LP_DIGEST


# sha256 over the 5% default shape's LPs and its optimum, re-recorded when
# each configuration LP came to start from the last optimal one; see the
# test below
FIVE_PERCENT_LP_DIGEST = "c60df049673a9d662e7425b29e66321041b2d16608d882eeca4e5fab27ba6f3a"


def test_five_percent_shape_lp_bits_are_pinned(monkeypatch):
    """The 5% default shape's LPs, larger than any tiny-suite member's,
    pinned as `test_tiny_suite_lp_bits_are_pinned` and the LP-sequence
    test pin the tiny suite's: the LP count (the bound LP and 138
    configurations), the pivot total, the certificate totals, and every
    LP's status, pivots, objective and `x` with the optimum, to the bit on
    this numpy and BLAS build."""
    digest = hashlib.sha256()
    pivots = []
    real_solve_lp = oracle.solve_lp

    def hashing_solve_lp(*args, **kwargs):
        result = real_solve_lp(*args, **kwargs)
        pivots.append(result.iterations)
        digest.update(f"{result.status} {result.iterations} {result.objective.hex()}\n".encode())
        if result.x is not None:
            digest.update(result.x.tobytes())
        return result

    monkeypatch.setattr(oracle, "solve_lp", hashing_solve_lp)
    cert = solve_exact(scaled_default_shape(0.05))[1]
    digest.update(f"optimum {cert.best_objective.hex()}\n".encode())
    assert (len(pivots), sum(pivots)) == (139, 982)
    assert (cert.enumerated, cert.pruned, cert.bound_pruned, cert.infeasible, cert.solved) == (
        944_784, 944_646, 474_612, 0, 138)
    assert digest.hexdigest() == FIVE_PERCENT_LP_DIGEST


# sha256 over the bound LP of every tiny-suite member and of the 5% default
# shape, re-recorded when every LP came to start from the slack basis with
# the dual simplex; see the test below
COLD_LP_DIGEST = "d29325ba370736cfab2654c1a3af2dcdfe8feeb9f67c2116f90839e600cbcae0"


def test_cold_lp_bits_are_pinned(monkeypatch):
    """The first LP of each `solve_exact` run is the bound LP, solved cold
    from the slack basis: its status, pivots, objective and `x` stay the
    same to the bit whatever happens to the configuration LPs after it, on
    this numpy and BLAS build."""
    digest = hashlib.sha256()
    calls = []
    real_solve_lp = oracle.solve_lp

    def hashing_solve_lp(*args, **kwargs):
        result = real_solve_lp(*args, **kwargs)
        if not calls:
            assert kwargs.get("start") is None
            digest.update(f"{result.status} {result.iterations} {result.objective.hex()}\n".encode())
            if result.x is not None:
                digest.update(result.x.tobytes())
        calls.append(result)
        return result

    monkeypatch.setattr(oracle, "solve_lp", hashing_solve_lp)
    for inst in make_tiny_suite(2026) + [scaled_default_shape(0.05)]:
        calls.clear()
        solve_exact(inst)
        assert calls
    assert digest.hexdigest() == COLD_LP_DIGEST


def walk_lps(monkeypatch, cases):
    """(factory, configuration, result) of every configuration LP the walk
    solves over `cases`, (instance, prune) pairs."""
    solved = []
    real_solve = oracle._LpFactory.solve

    def recording_solve(factory, config, start=None):
        result = real_solve(factory, config, start)
        solved.append((factory, config, result))
        return result

    monkeypatch.setattr(oracle._LpFactory, "solve", recording_solve)
    for inst, prune in cases:
        solve_exact(inst, prune=prune)
    return solved


def test_warm_configuration_lps_match_the_cold_restriction(monkeypatch):
    """Every configuration LP the walk solves, re-optimised from the bound
    LP's basis, against the same LP solved cold as the restriction of the
    all-open LP (`restricted_lp`): the same status, the optimum within
    `TIE_TOL`, `x` within 1e-9 and exactly 0 on every column with a closed
    end."""
    cases = [(inst, prune) for seed in (2026, 2030) for prune in (True, False)
             for inst in make_tiny_suite(seed)]
    solved = walk_lps(monkeypatch, cases + [(scaled_default_shape(0.05), True)])
    assert len(solved) > 1000
    for factory, config, warm in solved:
        cold = restricted_lp(factory, config)
        assert warm.status == cold.status
        if warm.status != "optimal":
            continue
        assert abs(warm.objective - cold.objective) <= oracle.TIE_TOL * max(1.0, abs(cold.objective))
        np.testing.assert_allclose(warm.x, cold.x, rtol=1e-9, atol=1e-9)
        is_open = np.append(np.asarray(config) > 0, True)
        closed_end = ~(is_open[factory.origin] & is_open[factory.dest])
        assert (warm.x[closed_end] == 0.0).all()


def test_closed_sites_carry_no_flow_at_any_costs():
    """Unpruned, a site's outflow of a material it does not make is in no
    row of its own, so a closed site's such columns are zero only because
    they are held.  With random costs of either sign (every column is
    bounded by a capacity or demand row) some of them pay, and every
    configuration LP still matches the cold restriction."""
    rng = np.random.default_rng(33)
    held_paid = 0
    for inst in make_tiny_suite(2026)[:20]:
        factory = all_open_factory(inst, prune=False)
        factory.obj = rng.uniform(-1.0, 1.0, size=factory.obj.size).round(3)
        configs = list(every_configuration(factory.slots))
        for k in rng.permutation(len(configs))[:25]:
            config = configs[k]
            warm, cold = factory.solve(config), restricted_lp(factory, config)
            assert warm.status == cold.status
            if warm.status != "optimal":
                continue
            assert abs(warm.objective - cold.objective) <= oracle.TIE_TOL * max(1.0, abs(cold.objective))
            is_open = np.append(np.asarray(config) > 0, True)
            closed_end = ~(is_open[factory.origin] & is_open[factory.dest])
            assert (warm.x[closed_end] == 0.0).all()
            held_paid += bool((factory.bound_lp().x[closed_end] > 0.0).any())
    assert held_paid


def test_all_open_lp_data_is_read_only():
    """The factory's `obj`, `a` and `senses` refuse writes, so `solve_lp`
    checks them once, in the bound LP, and every LP started from it sees
    them unchanged."""
    factory = all_open_factory(make_tiny_suite(2026)[7])
    for arr in (factory.obj, factory.a, factory.senses):
        assert not arr.flags.writeable
        with pytest.raises(ValueError, match="read-only"):
            arr[0] = arr[0]
    assert factory.bound_lp().warm.lp == (factory.obj, factory.a, factory.senses)


def test_all_open_lp_keeps_every_row_with_the_capacity_rows_last():
    """The all-open LP has the closed-form number of rows of each family,
    in the order demand, quota, source_cap, flow_balance, facility_cap, an
    empty row too (the pruned `orphan-output` instance has one).  The
    capacity rows are its last rows in (echelon, period, site) order, and
    `rhs(choice)` writes each chosen size's capacity there and nothing
    else."""
    cases = [(inst, prune) for seed in (2026, 2030) for prune in (True, False)
             for inst in make_tiny_suite(seed)]
    cases += [(warned_instance(code), prune) for code in ("quota-uncollectable", "orphan-output")
              for prune in (True, False)]
    rng = np.random.default_rng(36)
    shipped, delivered = LEG_OUT_OF["sources"], LEG_INTO["sinks"]
    for inst, prune in cases:
        factory = all_open_factory(inst, prune)
        mats, ids, periods = factory.leg_mats, factory.ids, range(len(inst.periods))
        specs = [inst.echelon(tag) for tag in ECHELON_TAGS]
        demand = len(periods) * len(mats[delivered]) * len(inst.sinks)
        quota = sum(inst.quota_at(t.id, p) > 0.0 for t in inst.periods for p in inst.materials)
        source_cap = len(periods) * len(mats[shipped]) * len(inst.sources)
        balance = sum(len(periods) * len(spec.outputs) * len(spec.sites) for spec in specs)
        cap = sum(len(periods) * len(spec.sites) for spec in specs)
        m = demand + quota + source_cap + balance + cap
        assert factory.a.shape == (m, factory.obj.size)
        assert "".join(factory.senses) == (
            "L" * demand + "G" * quota + "L" * source_cap + "E" * balance + "L" * cap)
        # demand rows reach only the delivered leg, source_cap rows the shipped one
        for rows, leg in ((range(demand), delivered),
                          (range(demand + quota, demand + quota + source_cap), shipped)):
            assert np.isin(factory.a[rows].nonzero()[1], ids[leg]).all()
        assert factory.cap_rows.tolist() == list(range(m - cap, m))
        cap_keys = [(tag, t, j) for tag, spec in zip(ECHELON_TAGS, specs)
                    for t in periods for j in range(len(spec.sites))]
        for row, (tag, t, j) in zip(factory.cap_rows, cap_keys):
            inflow = ids[LEG_INTO[tag]][t, :, :, j]
            assert np.flatnonzero(factory.a[row]).tolist() == sorted(inflow.ravel().tolist())
        cap_slots = [factory.slots.of[tag][j] for tag, _, j in cap_keys]
        assert factory.cap_slots.tolist() == cap_slots
        random_choice = [rng.integers(len(s.sizes) + 1) for s in factory.slots.slots]
        for choice in (np.asarray(factory.slots.widest), np.asarray(random_choice)):
            rhs = factory.rhs(choice)
            assert rhs[m - cap:].tolist() == factory.slots.cap[cap_slots, choice[cap_slots]].tolist()
            assert rhs[:m - cap].tolist() == factory.closed_rhs[:m - cap].tolist()


def tiny_suite_outcomes():
    return [(cert.enumerated, cert.pruned, cert.bound_pruned, cert.infeasible, cert.solved,
             cert.best_configuration, cert.best_objective)
            for cert in (solve_exact(inst)[1] for inst in make_tiny_suite(2026))]


def test_blands_rule_from_the_first_degenerate_pivot_keeps_the_tiny_suite(monkeypatch):
    """With the switch to Bland's rule after every degenerate pivot, in the
    cold and the warm loops alike, the tiny suite keeps its certificates
    and configurations, and its optima within `TIE_TOL`."""
    default = tiny_suite_outcomes()
    monkeypatch.setattr(simplex, "_DEGENERATE_LIMIT", 1)
    for got, want in zip(tiny_suite_outcomes(), default):
        assert got[:6] == want[:6]
        if want[6] is not None:
            assert abs(got[6] - want[6]) <= oracle.TIE_TOL * max(1.0, abs(want[6]))


def test_walk_lp_iteration_poisoning_propagates(monkeypatch):
    """A configuration LP past `_MAX_ITERATIONS` aborts the run: the
    error leaves `solve_exact`, and nothing is counted infeasible."""
    warm_calls = []
    real_solve_lp = oracle.solve_lp

    def capping_solve_lp(*args, **kwargs):
        if kwargs.get("start") is not None:
            warm_calls.append(1)
            monkeypatch.setattr(simplex, "_MAX_ITERATIONS", 1)
        return real_solve_lp(*args, **kwargs)

    monkeypatch.setattr(oracle, "solve_lp", capping_solve_lp)
    with pytest.raises(SimplexIterationError):
        solve_exact(scaled_default_shape(0.05))
    assert warm_calls
