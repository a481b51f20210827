"""The capacity-cover rows that `run_external_solver` hands the solver after
the size projection (`model.capacity_cover`): the oracle's capacity screen
(`oracle._SlotTable.blocks`) stated as one row per echelon and period.
`validate_instance` reads the screen's rule too."""

import hashlib
import json

import numpy as np
import pytest

from conftest import cf_capacity_short_by, have_scipy_milp, scaled_default_shape, warned_instance
from test_acceptance import TOL_EQUIVALENCE
from upcyclenet.instance import (
    ECHELON_TAGS,
    FORCED_TONS_TOL,
    forced_inflow_tons,
    parse_instance,
    serialize_instance,
    validate_instance,
)
from upcyclenet.model import (
    ROW_FAMILIES,
    build_milp,
    capacity_cover,
    install_column_name,
    project_sizes,
)
from upcyclenet.model_io import verify_solution
from upcyclenet.oracle import MAX_CONFIGS, _SlotTable, solve_exact
from upcyclenet.scenario import GenSpec, _eta_zero_instance, generate, single_chain_instance

SCREENED_CONFIGS = 512  # members with at most this many configurations are checked in full
TEN_PERCENT_OPTIMUM = 9_259_682.4398896  # the 10% default shape, generator seed 1


def screened(table, max_configs=MAX_CONFIGS):
    """(configuration, kept by the capacity screen, install cost) of every
    configuration, lexicographic, from the oracle's block walk."""
    for block in table.blocks(max_configs):
        for k in range(block.fits.size):
            yield block.configuration(k), bool(block.fits[k]), float(block.install[k])


def cover_of(inst, prune):
    model = build_milp(inst, prune=prune)
    projection = project_sizes(model)
    return model, projection, capacity_cover(model, projection)


def screen_agreement(inst, prune):
    """(configurations the screen keeps, configurations it drops), after
    checking on every configuration that the cover rows hold exactly when
    the oracle's capacity screen keeps it."""
    model, projection, cover = cover_of(inst, prune)
    table = _SlotTable(inst)
    # per slot and choice, the projected install column it opens (-1: closed)
    opens = []
    for slot in table.slots:
        cols = [model.index.column(install_column_name(slot.tag, slot.site_id, size))
                for size in slot.sizes]
        opens.append([-1] + np.searchsorted(projection.columns, cols).tolist())
    kept = dropped = 0
    for config, fits, _ in screened(table, SCREENED_CONFIGS):
        x = np.zeros(projection.n_columns)
        x[[opens[k][c] for k, c in enumerate(config) if c]] = 1.0
        meets = bool((cover.activities(x) >= cover.rhs).all())
        assert meets == fits, (inst.name, prune, config)
        kept += fits
        dropped += not fits
    return kept, dropped


@pytest.mark.parametrize("prune", [True, False])
def test_cover_rows_keep_exactly_what_the_capacity_screen_keeps(tiny_suite, prune):
    members = [inst for inst in tiny_suite if _SlotTable(inst).count <= SCREENED_CONFIGS]
    assert len(members) == 43
    totals = np.sum([screen_agreement(inst, prune) for inst in members], axis=0)
    assert totals.min() > 0  # both sides of the screen are exercised


@pytest.mark.parametrize("code", ["quota-uncollectable", "orphan-output"])
@pytest.mark.parametrize("prune", [True, False])
def test_cover_rows_keep_what_the_screen_keeps_on_warned_instances(code, prune):
    kept, dropped = screen_agreement(warned_instance(code), prune)
    assert kept and dropped


def widest_is_kept(inst):
    """The capacity screen keeps the configuration with every site open at
    its largest size."""
    table = _SlotTable(inst)
    return next(fits for config, fits, _ in screened(table) if config == table.widest)


def validation_errors(inst):
    return [f.code for f in validate_instance(inst) if f.severity == "ERROR"]


@pytest.mark.parametrize("short, kept", [(5e-9, True), (2e-8, False)])
def test_validation_and_the_screen_share_the_forced_tons_margin(short, kept):
    inst = cf_capacity_short_by(short)
    assert widest_is_kept(inst) == kept
    assert validation_errors(inst) == ([] if kept else ["aggregate-cf-capacity-short"])
    if not kept:
        assert solve_exact(inst)[1].solved == 0


def test_validation_errs_exactly_when_the_screen_drops_the_widest_configuration(tiny_suite):
    cases = tiny_suite + [warned_instance(code) for code in ("quota-uncollectable", "orphan-output")]
    for inst in cases:
        assert bool(validation_errors(inst)) == (not widest_is_kept(inst)), inst.name


def test_cover_rows_on_the_hand_instance():
    inst = single_chain_instance()
    model, projection, cover = cover_of(inst, prune=True)
    forced = forced_inflow_tons(inst)[:, 0].tolist()
    assert cover.names == ("covcf_t1", "covrtf_t1", "covcpf_t1", "covdpf_t1")
    assert cover.keys == tuple((tag, "t1") for tag in ECHELON_TAGS)
    assert cover.sense.tolist() == ["G"] * 4
    assert cover.rhs.tolist() == [tons - FORCED_TONS_TOL * max(1.0, tons) for tons in forced]
    # one install binary per echelon, at its capacity
    for r, tag in enumerate(ECHELON_TAGS):
        cols = cover.indices[cover.indptr[r]:cover.indptr[r + 1]]
        assert [model.index.column_key(int(c)) for c in projection.columns[cols]] == [
            ("install", tag, inst.echelon(tag).sites[0].id, "s1")]
        assert cover.data[cover.indptr[r]:cover.indptr[r + 1]].tolist() == [
            inst.echelon(tag).size_options[0].max_capacity_tons]
    assert all(cover.family_slice(family) == slice(0, 0) for family in ROW_FAMILIES)


def test_no_quota_no_cover_rows():
    model, _, cover = cover_of(_eta_zero_instance(), prune=True)
    assert not model.forced_tons.any()
    assert cover.n_rows == 0
    assert len(cover.indices) == 0


def test_cover_rows_read_the_forced_tons_of_every_period():
    inst = generate(GenSpec(seed=3, n_sources=4, n_cf=2, n_rtf=2, n_cpf=1, n_dpf=1, n_sinks=1))
    model, _, cover = cover_of(inst, prune=True)
    forced = forced_inflow_tons(inst)
    periods = [t.id for t in inst.periods]
    assert model.forced_tons.shape == (len(ECHELON_TAGS), len(periods))
    assert not model.forced_tons.flags.writeable
    expected = [(tag, t) for e, tag in enumerate(ECHELON_TAGS) for k, t in enumerate(periods)
                if forced[e, k] > 0.0]
    assert cover.keys == tuple(expected)
    assert cover.names == tuple(f"cov{tag}_{t}" for tag, t in expected)



def starved(inst, k):
    """`inst` with every size option's capacity and every sink's demand
    times `k`."""
    doc = json.loads(serialize_instance(inst))
    for ech in doc["echelons"].values():
        for option in ech["size_options"]:
            option["max_capacity_tons"] *= k
    for sink in doc["sinks"]:
        for tons in sink.get("demand", {}).values():
            for p in tons:
                tons[p] *= k
    return parse_instance(json.dumps(doc))


# recorded from `build_milp(inst).forced_tons` and `validate_instance` when
# the forced tons were a dict per period, before they became one array
FORCED_TONS_SHA256 = "74f983b60a715f592a3c2f9026bcf2b3b3dfe09348d8ad9bb98ed3ef21aa4fbc"
FINDINGS_SHA256 = "9cd461df131a32f21f82d1bdd06e5dc613ea682f8ce870be46b9c4d7b5e32a84"


def test_forced_tons_and_findings_are_pinned(tiny_suite):
    """Every forced ton keeps its bits and every finding its text and
    place, on the tiny suite, the warned instances and two default shapes,
    and on each of them starved to 30% capacity and demand, where every
    capacity and demand error fires."""
    cases = tiny_suite + [warned_instance(code) for code in ("quota-uncollectable", "orphan-output")]
    cases += [scaled_default_shape(fraction) for fraction in (0.05, 0.10)]
    cases += [starved(inst, 0.3) for inst in cases]
    tons, findings = hashlib.sha256(), hashlib.sha256()
    for inst in cases:
        tons.update(forced_inflow_tons(inst).tobytes())
        findings.update("".join(f"{f}\n" for f in validate_instance(inst)).encode() + b"\n")
    assert tons.hexdigest() == FORCED_TONS_SHA256
    assert findings.hexdigest() == FINDINGS_SHA256


def test_every_row_block_is_read_only():
    inst = generate(GenSpec(seed=3, n_sources=4, n_cf=2, n_rtf=2, n_cpf=1, n_dpf=1, n_sinks=1))
    model, projection, cover = cover_of(inst, prune=True)
    assert projection.n_rows < model.n_rows and cover.n_rows > 0
    for block in (model.constraints, projection.constraints, cover):
        for field in ("indptr", "indices", "data", "sense", "rhs"):
            array = getattr(block, field)
            assert not array.flags.writeable, field
            with pytest.raises(ValueError, match="read-only"):
                array[:1] = array[:1]


def test_cover_rows_read_as_rows_of_no_family():
    """`RowBlock.row` on every row of the 10% default shape's cover block:
    each belongs to no family, and its views hold its CSR slice."""
    _, _, cover = cover_of(scaled_default_shape(0.10), prune=True)
    assert cover.n_rows == 12
    for r in range(cover.n_rows):
        row = cover.row(r)
        lo, hi = cover.indptr[r], cover.indptr[r + 1]
        assert (row.name, row.family, row.key) == (cover.names[r], "", cover.keys[r])
        assert (row.sense, row.rhs) == ("G", cover.rhs[r])
        assert row.cols.tolist() == cover.indices[lo:hi].tolist()
        assert row.coefs.tolist() == cover.data[lo:hi].tolist()
        assert np.shares_memory(np.asarray(row.cols), cover.indices)
        assert np.shares_memory(np.asarray(row.coefs), cover.data)


# ---------------------------------------------------------------------------
# through the tests' scipy/HiGHS adapter, solved once per session in one
# adapter child (`conftest.adapter_solves`)


@pytest.mark.skipif(not have_scipy_milp(), reason="scipy.optimize.milp unavailable")
def test_capacity_short_instance_is_infeasible_through_the_adapter(adapter_solves):
    _, sol = adapter_solves["capacity-short"]
    assert sol.status == "infeasible"
    assert "; 4 cover rows" in sol.diagnostics


@pytest.mark.skipif(not have_scipy_milp(), reason="scipy.optimize.milp unavailable")
def test_unpruned_external_optima_equal_the_oracle(suite_run):
    for rec in suite_run.records:
        if rec.sol_off.status == "optimal":
            obj = rec.sol_off.objective_reported
            assert rec.external_off.status == "optimal", rec.inst.name
            assert abs(rec.external_off.objective_reported - obj) <= (
                TOL_EQUIVALENCE * max(1.0, abs(obj))), rec.inst.name
            assert verify_solution(rec.external_off, rec.model_off, tol=TOL_EQUIVALENCE).passed
        else:
            assert rec.external_off.status == "infeasible", rec.inst.name


@pytest.mark.parametrize("code, unpruned_objective", [
    ("quota-uncollectable", 546.0), ("orphan-output", 260.0),
])
@pytest.mark.skipif(not have_scipy_milp(), reason="scipy.optimize.milp unavailable")
def test_warned_instances_through_the_adapter(adapter_solves, code, unpruned_objective):
    _, pruned = adapter_solves[code, True]
    assert pruned.status == "infeasible"
    model, unpruned = adapter_solves[code, False]
    assert unpruned.status == "optimal"
    assert unpruned.objective_reported == pytest.approx(unpruned_objective, rel=TOL_EQUIVALENCE)
    assert verify_solution(unpruned, model).passed


@pytest.mark.skipif(not have_scipy_milp(), reason="scipy.optimize.milp unavailable")
def test_ten_percent_default_shape_through_the_adapter(adapter_solves):
    model, sol = adapter_solves[0.10]
    assert sol.status == "optimal"
    assert verify_solution(sol, model).passed
    assert abs(sol.objective_reported - TEN_PERCENT_OPTIMUM) <= 1e-6 * TEN_PERCENT_OPTIMUM
    assert "projection: 3802 -> 598 columns, 392 -> 170 rows; 4 sites lifted; 12 cover rows" in sol.diagnostics
