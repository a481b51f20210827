import contextlib
import hashlib
import json
import os
import platform
import shlex
import signal
import sys
import textwrap
import tracemalloc
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

import conftest
from scipy_milp_adapter import read_free_mps, write_solution_file
from test_instance import minimal_doc, parse_doc
from test_milp_core import GOLDEN_HAND_DUMP, random_shape_doc, table_names
from upcyclenet import model_io
from upcyclenet.errors import NamingError, SolutionError, SolverRunError
from upcyclenet.instance import parse_instance, serialize_instance
from upcyclenet.model import ROW_FAMILIES, Model, build_milp, project_sizes, solver_rows
from upcyclenet.model_io import (
    Solution,
    _least_squares,
    compute_gap,
    dump_model,
    format_solution,
    parse_solution,
    recompute_objective,
    run_external_solver,
    solution_vector,
    verify_solution,
    write_mps,
)
from upcyclenet.oracle import solve_exact
from upcyclenet.scenario import single_chain_instance

GOLDEN_HAND_MPS = """\
NAME UPCYCLENET
ROWS
 N COST
 L dem_t1_w_snk1
 G quo_t1_w
 L src_t1_w_src1
 E balcf_t1_w_cf1
 E balrtf_t1_w_rtf1
 E balcpf_t1_w_cpf1
 E baldpf_t1_w_dpf1
 L capcf_t1_cf1_s1
 L caprtf_t1_rtf1_s1
 L capcpf_t1_cpf1_s1
 L capdpf_t1_dpf1_s1
 L onecf_cf1
 L onertf_rtf1
 L onecpf_cpf1
 L onedpf_dpf1
COLUMNS
 xsrccf_t1_w_src1_cf1_s1 COST 3.0
 xsrccf_t1_w_src1_cf1_s1 quo_t1_w 1.0
 xsrccf_t1_w_src1_cf1_s1 src_t1_w_src1 1.0
 xsrccf_t1_w_src1_cf1_s1 balcf_t1_w_cf1 1.0
 xsrccf_t1_w_src1_cf1_s1 capcf_t1_cf1_s1 1.0
 xcfrtf_t1_w_cf1_rtf1_s1 COST 3.0
 xcfrtf_t1_w_cf1_rtf1_s1 balcf_t1_w_cf1 -1.0
 xcfrtf_t1_w_cf1_rtf1_s1 balrtf_t1_w_rtf1 1.0
 xcfrtf_t1_w_cf1_rtf1_s1 caprtf_t1_rtf1_s1 1.0
 xrtfcpf_t1_w_rtf1_cpf1_s1 COST 3.0
 xrtfcpf_t1_w_rtf1_cpf1_s1 balrtf_t1_w_rtf1 -1.0
 xrtfcpf_t1_w_rtf1_cpf1_s1 balcpf_t1_w_cpf1 1.0
 xrtfcpf_t1_w_rtf1_cpf1_s1 capcpf_t1_cpf1_s1 1.0
 xcpfdpf_t1_w_cpf1_dpf1_s1 COST 3.0
 xcpfdpf_t1_w_cpf1_dpf1_s1 balcpf_t1_w_cpf1 -1.0
 xcpfdpf_t1_w_cpf1_dpf1_s1 baldpf_t1_w_dpf1 1.0
 xcpfdpf_t1_w_cpf1_dpf1_s1 capdpf_t1_dpf1_s1 1.0
 xdpfsnk_t1_w_dpf1_snk1 COST 1.9999999999999991
 xdpfsnk_t1_w_dpf1_snk1 dem_t1_w_snk1 1.0
 xdpfsnk_t1_w_dpf1_snk1 baldpf_t1_w_dpf1 -1.0
 MARKER 'MARKER' 'INTORG'
 bcf_cf1_s1 COST 100.0
 bcf_cf1_s1 capcf_t1_cf1_s1 -15.0
 bcf_cf1_s1 onecf_cf1 1.0
 brtf_rtf1_s1 COST 100.0
 brtf_rtf1_s1 caprtf_t1_rtf1_s1 -15.0
 brtf_rtf1_s1 onertf_rtf1 1.0
 bcpf_cpf1_s1 COST 100.0
 bcpf_cpf1_s1 capcpf_t1_cpf1_s1 -15.0
 bcpf_cpf1_s1 onecpf_cpf1 1.0
 bdpf_dpf1_s1 COST 100.0
 bdpf_dpf1_s1 capdpf_t1_dpf1_s1 -15.0
 bdpf_dpf1_s1 onedpf_dpf1 1.0
 MARKER 'MARKER' 'INTEND'
RHS
 RHS dem_t1_w_snk1 10.0
 RHS quo_t1_w 10.0
 RHS src_t1_w_src1 10.0
 RHS onecf_cf1 1.0
 RHS onertf_rtf1 1.0
 RHS onecpf_cpf1 1.0
 RHS onedpf_dpf1 1.0
BOUNDS
 BV BND bcf_cf1_s1
 BV BND brtf_rtf1_s1
 BV BND bcpf_cpf1_s1
 BV BND bdpf_dpf1_s1
ENDATA
"""


@pytest.fixture(scope="module")
def hand_model():
    return build_milp(single_chain_instance())


def hand_solution(model):
    values = {
        "xsrccf_t1_w_src1_cf1_s1": 10.0,
        "xcfrtf_t1_w_cf1_rtf1_s1": 10.0,
        "xrtfcpf_t1_w_rtf1_cpf1_s1": 10.0,
        "xcpfdpf_t1_w_cpf1_dpf1_s1": 10.0,
        "xdpfsnk_t1_w_dpf1_snk1": 10.0,
        "bcf_cf1_s1": 1.0,
        "brtf_rtf1_s1": 1.0,
        "bcpf_cpf1_s1": 1.0,
        "bdpf_dpf1_s1": 1.0,
    }
    return Solution(
        values=values,
        objective_reported=recompute_objective(values, model),
        status="optimal",
        source="oracle",
    )


# ---------------------------------------------------------------------------
# MPS writing


def test_hand_instance_mps_matches_golden_bytes(hand_model):
    assert write_mps(hand_model) == GOLDEN_HAND_MPS


def test_mps_is_deterministic_across_fresh_builds():
    a = write_mps(build_milp(single_chain_instance()))
    b = write_mps(build_milp(single_chain_instance()))
    assert a == b


@pytest.mark.parametrize("seed", [3, 4, 5])
@pytest.mark.parametrize("prune", [True, False])
def test_independent_reader_recovers_model_exactly(seed, prune):
    rng = np.random.default_rng(seed)
    inst = parse_instance(json.dumps(random_shape_doc(rng)))
    model = build_milp(inst, prune=prune)
    data = read_free_mps(write_mps(model))

    names = table_names(model.index)
    assert data.column_order == names
    assert data.integer_columns == {names[c] for c in model.binary_columns}
    assert data.objective_row == "COST"
    assert data.row_order[1:] == [r.name for r in model.rows]
    assert {r.name: r.sense for r in model.rows} == {
        n: s for n, s in data.row_sense.items() if n != "COST"
    }
    for row in model.rows:
        assert data.rhs.get(row.name, 0.0) == row.rhs

    # rebuild the dense matrix and compare coefficient by coefficient
    col_pos = {n: j for j, n in enumerate(names)}
    row_pos = {r.name: i for i, r in enumerate(model.rows)}
    got = np.zeros((len(model.rows), len(names)))
    got_obj = np.zeros(len(names))
    for col, row, coef in data.entries:
        if row == "COST":
            got_obj[col_pos[col]] += coef
        else:
            got[row_pos[row], col_pos[col]] += coef
    want = np.zeros_like(got)
    for i, row in enumerate(model.rows):
        for c, v in zip(row.cols, row.coefs):
            want[i, c] = v
    assert np.array_equal(got, want)
    assert np.array_equal(got_obj, model.objective)
    assert all(btype == "BV" for btype, _, _ in data.bounds)
    assert [col for _, col, _ in data.bounds] == [names[c] for c in model.binary_columns]


# sha256 of write_mps(build_milp(random_shape_doc(default_rng(seed)), prune));
# a changed digest is a changed file format
GOLDEN_MPS_SHA256 = {
    (3, True): "8b475c86d80a5cf5204239e6edc898d3cc419cdc4cf7581c7a94927b5ae497e5",
    (3, False): "ce080037ff755031736bf18235ab78270121231f58392cf84703b62bdb6c5c79",
    (4, True): "806c4393c8b27980edb028de9c2cc90504fa6abbaf9b38d9668e26eb5d08f5df",
    (4, False): "1f0fc02b4c440e3e8129df4d3c0ae72f61c37d1345f58dd385eeb7552a413a64",
    (5, True): "772710daabeef93fa3d8c9a850fb27af1f95fa020922c448bbb5080bf80bbc76",
    (5, False): "2c7c777d0d85264711b01a4cba64a8417a425e507c4e94b438f467cd92b641db",
}


@pytest.mark.parametrize("seed, prune", sorted(GOLDEN_MPS_SHA256))
def test_mps_bytes_match_golden_digest(seed, prune):
    inst = parse_instance(json.dumps(random_shape_doc(np.random.default_rng(seed))))
    text = write_mps(build_milp(inst, prune=prune))
    assert hashlib.sha256(text.encode()).hexdigest() == GOLDEN_MPS_SHA256[(seed, prune)]


def test_column_name_cache_survives_caller_edits(hand_model):
    assert write_mps(hand_model) == GOLDEN_HAND_MPS
    with pytest.raises(ValueError):
        hand_model.constraints.data[0] = 2.0


def test_package_exports_resolve():
    import upcyclenet

    assert len(set(upcyclenet.__all__)) == len(upcyclenet.__all__)
    for name in upcyclenet.__all__:
        assert getattr(upcyclenet, name) is not None, name


def test_column_name_collision_aborts_write():
    import dataclasses

    from upcyclenet.instance import Node

    doc = minimal_doc()
    inst = parse_doc(doc)
    # 'cf.1' and 'cf 1' sanitize to the same token; the parser rejects such
    # documents, so forge the instance directly to reach the writer's guard
    forged_cf = dataclasses.replace(
        inst.cf, sites=(Node("cf.1", 0.1, 0.0), Node("cf 1", 0.2, 0.0))
    )
    forged = dataclasses.replace(inst, cf=forged_cf)
    with pytest.raises(NamingError, match="collision"):
        write_mps(build_milp(forged))


def test_over_long_column_name_aborts_write(hand_model, tmp_path):
    import dataclasses

    from upcyclenet.instance import Node
    from upcyclenet.model import VariableIndex

    # a 70-character site id makes over-long row names too, so build_milp
    # would refuse it; swap in an index over a forged instance of the same
    # shape to reach the writer's own guard
    inst = single_chain_instance()
    long_id = "r" * 70
    site = inst.rtf.sites[0]
    forged = dataclasses.replace(inst, rtf=dataclasses.replace(
        inst.rtf, sites=(Node(long_id, site.lat, site.lon),) + inst.rtf.sites[1:]))
    model = dataclasses.replace(hand_model, index=VariableIndex(forged, hand_model.prune))
    # the first of its columns in column order: brtf_... and xrtfcpf_... come later
    name = f"xcfrtf_t1_w_cf1_{long_id}_s1"
    assert len(name) > 64
    message = f"column name '{name}' exceeds 64 characters"
    with pytest.raises(NamingError) as excinfo:
        write_mps(model)
    assert str(excinfo.value) == message
    path = tmp_path / "model.mps"
    with pytest.raises(NamingError) as excinfo:
        model_io._write_batches(model_io._model_batches(model), path)
    assert str(excinfo.value) == message
    assert not path.exists()
    # the listing checks the names before its file exists, too
    path = tmp_path / "model.dump.txt"
    with pytest.raises(NamingError) as excinfo:
        model_io._write_batches(model_io._dump_batches(model), path)
    assert str(excinfo.value) == message
    assert not path.exists()


def test_writers_never_read_model_rows(monkeypatch, hand_model, tmp_path):
    def refuse(self):
        raise AssertionError("a writer read Model.rows")

    monkeypatch.setattr(Model, "rows", property(refuse))
    assert write_mps(hand_model) == GOLDEN_HAND_MPS
    assert dump_model(hand_model) == GOLDEN_HAND_DUMP
    path = tmp_path / "model.mps"
    model_io._write_batches(model_io._model_batches(hand_model), path)
    assert path.read_text() == GOLDEN_HAND_MPS
    for (seed, prune), digest in GOLDEN_MPS_SHA256.items():
        inst = parse_instance(json.dumps(random_shape_doc(np.random.default_rng(seed))))
        text = write_mps(build_milp(inst, prune=prune))
        assert hashlib.sha256(text.encode()).hexdigest() == digest, (seed, prune)
    # nor do the two diagnostics that name one column
    values = {**hand_solution(hand_model).values, "bcf_cf1_s1": float("inf")}
    report = verify_solution(Solution(values=values, objective_reported=540.0), hand_model)
    assert any(m.endswith("first at bcf_cf1_s1") for m in report.messages)
    model = two_sink_model(20.0)
    values = dict(hand_solution(model).values,
                  xdpfsnk_t1_w_dpf1_snk1=10.0 + 3e-7, xdpfsnk_t1_w_dpf1_snk2=-3e-7)
    report = verify_solution(Solution(values=values, objective_reported=0.0), model)
    assert (report.worst_residual, report.worst_residual_at) == (3e-7, "xdpfsnk_t1_w_dpf1_snk2")


@pytest.mark.parametrize("seed", [3, 4, 5])
@pytest.mark.parametrize("prune", [True, False])
def test_column_name_and_name_table_match_names(seed, prune):
    from upcyclenet.model import VariableIndex

    inst = parse_instance(json.dumps(random_shape_doc(np.random.default_rng(seed))))
    index = VariableIndex(inst, prune)
    names = [index.column_name(c) for c in range(index.n_columns)]
    table = index.name_table()
    assert [bytes(row[row != 0]).decode() for row in table] == names


@pytest.mark.parametrize("chunk", [1, 7])
def test_mps_bytes_do_not_depend_on_batch_size(monkeypatch, hand_model, chunk):
    monkeypatch.setattr(model_io, "_MPS_CHUNK", chunk)
    assert write_mps(hand_model) == GOLDEN_HAND_MPS
    for (seed, prune), digest in GOLDEN_MPS_SHA256.items():
        inst = parse_instance(json.dumps(random_shape_doc(np.random.default_rng(seed))))
        text = write_mps(build_milp(inst, prune=prune))
        assert hashlib.sha256(text.encode()).hexdigest() == digest, (seed, prune)


def reference_mps(model):
    """The MPS formatted one f-string per line over `Model.rows`."""
    names = table_names(model.index)
    rows = model.rows
    entries = [[("COST", v)] if v != 0.0 else [] for v in model.objective.tolist()]
    for row in rows:
        for c, v in zip(row.cols, row.coefs):
            if v != 0.0:
                entries[c].append((row.name, v))
    lines = ["NAME UPCYCLENET", "ROWS", " N COST"]
    lines += [f" {row.sense} {row.name}" for row in rows]
    lines.append("COLUMNS")
    n_continuous = model.index.n_continuous
    for c, name in enumerate(names):
        if c == n_continuous:
            lines.append(" MARKER 'MARKER' 'INTORG'")
        if not entries[c]:
            lines.append(f" {name} COST 0")
        lines += [f" {name} {row} {float(v)!r}" for row, v in entries[c]]
    if model.n_columns > n_continuous:
        lines.append(" MARKER 'MARKER' 'INTEND'")
    lines.append("RHS")
    lines += [f" RHS {row.name} {float(row.rhs)!r}" for row in rows if row.rhs != 0.0]
    lines.append("BOUNDS")
    lines += [f" BV BND {names[c]}" for c in model.binary_columns]
    lines.append("ENDATA")
    return "\n".join(lines) + "\n"


def scattered_coefficient_model():
    """The hand model with 2.5 in two runs of the demand row, split by a
    1.0, and 2.5 and its next float up in the quota row: tokens must tell
    pairs apart by row and by every bit of the coefficient."""
    model = build_milp(single_chain_instance())
    block = model.constraints
    entries = {0: ([0, 1, 2, 3, 4], [2.5, 1.0, 2.5, 2.5, 1.0]),
               1: ([0, 4], [2.5, np.nextafter(2.5, 3.0)])}
    cols, coefs = [], []
    for r in range(block.n_rows):
        lo, hi = block.indptr[r], block.indptr[r + 1]
        row_cols, row_coefs = entries.get(r, (block.indices[lo:hi], block.data[lo:hi]))
        cols.append(np.asarray(row_cols, dtype=np.int64))
        coefs.append(np.asarray(row_coefs, dtype=np.float64))
    indptr = np.concatenate(([0], np.cumsum([len(c) for c in cols])))
    return replace(model, constraints=replace(block, indptr=indptr, indices=np.concatenate(cols),
                                              data=np.concatenate(coefs)))


def test_mps_matches_the_per_line_reference(monkeypatch, tiny_suite):
    from test_milp_core import zero_capacity_model

    models = [build_milp(single_chain_instance()), zero_capacity_model(),
              scattered_coefficient_model()]
    for inst in tiny_suite:
        models += [build_milp(inst, prune=True), build_milp(inst, prune=False)]
    for seed in range(3, 9):
        inst = parse_instance(json.dumps(random_shape_doc(np.random.default_rng(seed))))
        models += [build_milp(inst, prune=True), build_milp(inst, prune=False)]
    for model in models:
        assert write_mps(model) == reference_mps(model)
    assert " xsrccf_t1_w_src1_cf1_s1 quo_t1_w 2.5\n" in write_mps(models[2])
    assert " xdpfsnk_t1_w_dpf1_snk1 quo_t1_w 2.5000000000000004\n" in write_mps(models[2])
    # the text does not depend on how many records make a batch
    for chunk in (1, 7):
        monkeypatch.setattr(model_io, "_MPS_CHUNK", chunk)
        for model in models[:3] + models[-2:]:
            assert write_mps(model) == reference_mps(model)


@pytest.mark.skipif(platform.python_implementation() != "CPython"
                    or sys.gettrace() is not None or sys.getprofile() is not None,
                    reason="the text is grown in place by CPython's specialised str +=")
def test_text_is_held_once(hand_model):
    """The default shape at 25%: 6.85 MB of MPS and a 4.79 MB listing.  A
    second copy of the text, encoded or decoded, would break either bound."""
    from conftest import scaled_default_shape

    model = build_milp(scaled_default_shape(0.25))
    # CPython specialises `_decode`'s `+=` after its first few passes, so
    # warm it on the hand model
    write_mps(hand_model)
    for write, bound in ((write_mps, 2.25), (dump_model, 3.0)):
        tracemalloc.start()
        try:
            text = write(model)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(text) > 4_000_000
        assert peak < bound * len(text), (write.__name__, peak / len(text))
        del text


def test_column_without_entries_is_written_as_cost_zero(hand_model):
    import dataclasses

    col = hand_model.index.column("bcf_cf1_s1")
    objective = hand_model.objective.copy()
    objective[col] = 0.0
    block = hand_model.constraints
    data = np.where(block.indices == col, 0.0, block.data)
    model = dataclasses.replace(hand_model, objective=objective,
                                constraints=dataclasses.replace(block, data=data))
    golden = GOLDEN_HAND_MPS.splitlines(keepends=True)
    first = golden.index(" bcf_cf1_s1 COST 100.0\n")
    assert golden[first + 1:first + 3] == [" bcf_cf1_s1 capcf_t1_cf1_s1 -15.0\n",
                                           " bcf_cf1_s1 onecf_cf1 1.0\n"]
    golden[first:first + 3] = [" bcf_cf1_s1 COST 0\n"]
    assert write_mps(model) == "".join(golden)


def test_duplicate_row_names_abort_before_any_output(hand_model, tmp_path):
    import dataclasses

    block = hand_model.constraints
    names = (block.names[0],) + block.names[:-1]
    model = dataclasses.replace(hand_model,
                                constraints=dataclasses.replace(block, names=names))
    batches = model_io._model_batches(model)
    with pytest.raises(NamingError, match=f"row name collision.*'{block.names[0]}'"):
        next(batches)
    with pytest.raises(NamingError, match="row name collision"):
        write_mps(model)
    path = tmp_path / "model.mps"
    with pytest.raises(NamingError, match="row name collision"):
        model_io._write_batches(model_io._model_batches(model), path)
    assert not path.exists()


# ---------------------------------------------------------------------------
# solution files


def test_parse_solution_full_roundtrip(hand_model):
    sol = hand_solution(hand_model)
    sol.bound = 540.0
    text = format_solution(sol)
    back = parse_solution(text, hand_model)
    assert back.values == sol.values
    assert back.objective_reported == sol.objective_reported
    assert back.status == "optimal"
    assert back.bound == 540.0
    assert back.gap == 0.0


def test_parse_solution_accepts_comments_and_defaults(hand_model):
    text = textwrap.dedent("""\
        # produced by hand
        xsrccf_t1_w_src1_cf1_s1 4.0   # partial collection
        bcf_cf1_s1 1
    """)
    sol = parse_solution(text, hand_model)
    assert sol.values == {"xsrccf_t1_w_src1_cf1_s1": 4.0, "bcf_cf1_s1": 1.0}
    assert sol.status == "feasible"  # values present, nothing declared
    assert sol.value("xcfrtf_t1_w_cf1_rtf1_s1") == 0.0  # unlisted means zero
    # declared objective absent: recomputed from values
    assert sol.objective_reported == pytest.approx(4.0 * 3.0 + 100.0)


def test_parse_solution_empty_file_is_unknown(hand_model):
    sol = parse_solution("# nothing here\n", hand_model)
    assert sol.status == "unknown"
    assert sol.values == {}
    assert sol.objective_reported == 0.0


@pytest.mark.parametrize(
    "text, fragment",
    [
        ("nosuchcolumn 1.0\n", "unknown column"),
        ("bcf_cf1_s1 1\nbcf_cf1_s1 1\n", "duplicate"),
        ("bcf_cf1_s1 one\n", "unparsable"),
        ("bcf_cf1_s1\n", "expected"),
        ("=obj= 1\n=obj= 2\n", "duplicate =obj="),
        ("=status= great\n", "unknown status"),
        ("=magic= 1\n", "unknown directive"),
        ("bcf_cf1_s1 nan\n", "non-finite value"),
        ("bcf_cf1_s1 inf\n", "non-finite value"),
        ("xsrccf_t1_w_src1_cf1_s1 -Infinity\n", "non-finite value"),
        ("=obj= nan\n", "non-finite objective"),
        ("=obj= -inf\n", "non-finite objective"),
        ("=bound= NaN\n", "non-finite bound"),
        ("=bound= inf\n", "non-finite bound"),
    ],
)
def test_parse_solution_rejects_malformed_input(hand_model, text, fragment):
    with pytest.raises(SolutionError, match=fragment):
        parse_solution(text, hand_model)


def test_declared_status_wins_over_heuristics(hand_model):
    sol = parse_solution("=status= infeasible\nbcf_cf1_s1 1\n", hand_model)
    assert sol.status == "infeasible"


def test_solution_vector_and_recompute(hand_model):
    sol = hand_solution(hand_model)
    x = solution_vector(sol, hand_model)
    assert x.shape == (hand_model.n_columns,)
    assert x.sum() == pytest.approx(54.0)
    assert recompute_objective(sol.values, hand_model) == pytest.approx(540.0, abs=1e-9)
    with pytest.raises(SolutionError):
        recompute_objective({"ghost": 1.0}, hand_model)


def test_compute_gap_semantics():
    assert compute_gap(100.0, 90.0) == pytest.approx(0.1)
    # the denominator is |objective|: a negative optimum's gap is positive too
    assert compute_gap(-100.0, -110.0) == pytest.approx(0.1)
    assert compute_gap(0.0, 0.0) == 0.0
    assert compute_gap(0.0, -5.0) is None


def test_gap_follows_the_objective_and_the_bound(hand_model):
    sol = parse_solution("=obj= 550.0\n=bound= 540.0\n", hand_model)
    assert sol.gap == compute_gap(550.0, 540.0)
    sol.objective_reported = 600.0
    assert sol.gap == compute_gap(600.0, 540.0)
    sol.bound = None
    assert sol.gap is None
    with pytest.raises(TypeError):
        Solution(values={}, objective_reported=0.0, gap=0.0)


# ---------------------------------------------------------------------------
# verification


def test_verify_passes_on_exact_solution(hand_model):
    report = verify_solution(hand_solution(hand_model), hand_model)
    assert report.passed
    assert report.worst_violation == 0.0
    assert report.integrality_violations == 0
    assert "PASS" in report.summary()


def test_verify_fails_when_install_is_dropped(hand_model):
    sol = hand_solution(hand_model)
    sol.values["bcf_cf1_s1"] = 0.0
    report = verify_solution(sol, hand_model)
    assert not report.passed
    assert report.violations_by_family["facility_cap"] == 1
    assert report.worst_row == "capcf_t1_cf1_s1"
    assert "FAIL" in report.summary()


def test_verify_counts_one_size_violation():
    doc = minimal_doc()
    doc["echelons"]["cf"]["size_options"].append(
        {"id": "s2", "max_capacity_tons": 200.0, "install_cost_annual": 20.0}
    )
    model = build_milp(parse_doc(doc))
    sol = Solution(values={"bcf_cf1_s1": 1.0, "bcf_cf1_s2": 1.0},
                   objective_reported=0.0)
    report = verify_solution(sol, model)
    assert report.violations_by_family["one_size"] == 1


def test_verify_flags_fractional_binary(hand_model):
    sol = hand_solution(hand_model)
    sol.values["bcf_cf1_s1"] = 0.4
    report = verify_solution(sol, hand_model)
    assert not report.passed
    assert report.integrality_violations == 1
    assert report.worst_integrality == pytest.approx(0.4)


def test_verify_flags_negative_flow(hand_model):
    sol = hand_solution(hand_model)
    sol.values["xdpfsnk_t1_w_dpf1_snk1"] = -1.0
    report = verify_solution(sol, hand_model)
    assert not report.passed
    assert report.negative_value_violations == 1


def test_verify_quota_shortfall_detected(hand_model):
    sol = Solution(values={}, objective_reported=0.0, status="feasible")
    report = verify_solution(sol, hand_model)
    assert not report.passed
    assert report.violations_by_family["quota"] == 1


def test_verify_fails_on_non_finite_values(hand_model):
    nan_flows = {name: float("nan") for name in table_names(hand_model.index)
                 if name.startswith("x")}
    for values in (nan_flows, {**hand_solution(hand_model).values, "bcf_cf1_s1": float("inf")},
                   {"xdpfsnk_t1_w_dpf1_snk1": float("-inf")}):
        sol = Solution(values=values, objective_reported=540.0, status="optimal")
        report = verify_solution(sol, hand_model)
        assert not report.passed
        assert report.worst_violation == float("inf")
        assert any("non-finite" in m for m in report.messages)
        assert "FAIL" in report.summary()


def test_verify_fails_finite_values_whose_sums_overflow(hand_model):
    # every value is finite, but the objective and the rows they feed are
    # not: a verdict, not a numpy warning
    text = "".join(f"{name} 1e308\n" for name in hand_solution(hand_model).values)
    sol = parse_solution(text, hand_model)
    assert sol.objective_reported == float("inf")
    report = verify_solution(sol, hand_model)
    assert not report.passed
    assert report.objective_recomputed == float("inf")
    assert report.worst_violation == float("inf")
    assert report.messages == ["reported objective inf differs from recomputed inf"]


def test_verify_rejects_a_tolerance_that_passes_anything(hand_model):
    sol = hand_solution(hand_model)
    sol.values["xsrccf_t1_w_src1_cf1_s1"] = -5.0
    for tol in (float("inf"), float("nan"), -1e-6):
        with pytest.raises(ValueError, match="tol"):
            verify_solution(sol, hand_model, tol=tol)


def reference_verification(model, x, tol):
    """Per-row loop over `Row.activity`: violations by family, worst row."""
    by_family = {f: 0 for f in ROW_FAMILIES}
    worst, worst_row = 0.0, None
    for row in model.rows:
        a = row.activity(x)
        if row.sense == "L":
            v = max(0.0, a - row.rhs)
        elif row.sense == "G":
            v = max(0.0, row.rhs - a)
        else:
            v = abs(a - row.rhs)
        if v > tol:
            by_family[row.family] += 1
        if v > worst:
            worst, worst_row = v, row.name
    return by_family, worst, worst_row


def assert_verify_matches_reference(model, x):
    """Rows are summed in another order than the reference's, so activities
    may differ in the last bits; worst violations agree to 1e-12 relative."""
    sol = Solution(values=dict(zip(table_names(model.index), x.tolist())), objective_reported=0.0)
    report = verify_solution(sol, model)
    by_family, worst, worst_row = reference_verification(model, x, report.tol)
    assert report.violations_by_family == by_family
    assert report.worst_violation == pytest.approx(worst, rel=1e-12, abs=0.0)
    assert report.worst_row == worst_row


def test_vectorised_verify_matches_per_row_reference(tiny_suite):
    rng = np.random.default_rng(2026)
    empty_rows = 0
    for seed in range(3, 13):
        inst = parse_instance(json.dumps(random_shape_doc(np.random.default_rng(seed))))
        for prune in (True, False):
            model = build_milp(inst, prune=prune)
            empty_rows += sum(1 for row in model.rows if not row.cols)
            for _ in range(3):
                x = rng.uniform(0.0, 40.0, model.n_columns) * (rng.random(model.n_columns) < 0.6)
                x[model.index.n_continuous:] = rng.integers(0, 2, model.index.n_binary)
                assert_verify_matches_reference(model, x)
    assert empty_rows > 0
    # optimal solutions perturbed by about the tolerance, so rows land on
    # both sides of it
    for inst in tiny_suite[:6]:
        model = build_milp(inst)
        sol, _ = solve_exact(inst)
        x = solution_vector(sol, model)
        for _ in range(3):
            noise = rng.uniform(-3e-6, 3e-6, model.n_columns) * (x != 0.0)
            assert_verify_matches_reference(model, x + noise)


def test_verify_worst_row_ties_and_clean_solutions(hand_model):
    # every binary at 2 breaks the four one_size rows by exactly 1.0 each
    values = {**hand_solution(hand_model).values,
              **{name: 2.0 for name in table_names(hand_model.index) if name.startswith("b")}}
    sol = Solution(values=values, objective_reported=0.0)
    report = verify_solution(sol, hand_model)
    assert report.violations_by_family["one_size"] == 4
    assert report.worst_violation == 1.0
    assert report.worst_row == "onecf_cf1"  # the first of four equal violations
    assert reference_verification(hand_model, solution_vector(sol, hand_model), report.tol) == (
        report.violations_by_family, report.worst_violation, report.worst_row)
    clean = verify_solution(hand_solution(hand_model), hand_model)
    assert clean.worst_row is None and clean.worst_violation == 0.0


def test_objective_mismatch_fails_verification(hand_model):
    sol = hand_solution(hand_model)
    sol.objective_reported = 1.0
    report = verify_solution(sol, hand_model)
    assert not report.passed
    assert report.summary().startswith("verification FAIL")
    assert "reported objective 1.0 differs from recomputed 540.0" in report.messages
    # the rule is 1e-6 relative to max(1, |recomputed|)
    sol.objective_reported = 540.0 * (1.0 + 0.9e-6)
    assert verify_solution(sol, hand_model).passed
    sol.objective_reported = 540.0 * (1.0 + 1.1e-6)
    assert not verify_solution(sol, hand_model).passed
    # a non-finite objective never agrees
    for reported in (float("nan"), float("inf"), float("-inf")):
        sol.objective_reported = reported
        report = verify_solution(sol, hand_model)
        assert not report.passed
        assert report.messages == [f"reported objective {reported!r} differs from recomputed 540.0"]


def test_objective_agrees_is_relative_to_the_reference_and_never_non_finite():
    agrees = model_io.objective_agrees
    assert agrees(0.0, 0.0, 0.0) and agrees(0.5, 0.0, 0.5) and not agrees(0.5, 0.0, 0.49)
    r = 0.9995e-3  # between 1/1001 and 1/1000: the reference sets the scale
    assert agrees(1000.0, 1001.0, r) and not agrees(1001.0, 1000.0, r)
    for bad in (float("nan"), float("inf"), float("-inf")):
        assert not agrees(bad, 540.0, 1e-6) and not agrees(540.0, bad, 1e-6)
        assert not agrees(bad, bad, float("inf"))


def test_absent_objective_parses_to_the_recomputed_one_bit_for_bit(hand_model):
    # summed one term at a time in this order, these values give
    # 551.1999999999999; the dot product gives 551.2
    text = textwrap.dedent("""\
        bdpf_dpf1_s1 1.0
        bcpf_cpf1_s1 1.0
        brtf_rtf1_s1 1.0
        bcf_cf1_s1 1.0
        xdpfsnk_t1_w_dpf1_snk1 10.2
        xcpfdpf_t1_w_cpf1_dpf1_s1 11.5
        xrtfcpf_t1_w_rtf1_cpf1_s1 11.1
        xcfrtf_t1_w_cf1_rtf1_s1 10.7
        xsrccf_t1_w_src1_cf1_s1 10.3
    """)
    sol = parse_solution(text, hand_model)
    recomputed = verify_solution(sol, hand_model).objective_recomputed
    assert sol.objective_reported == recomputed == 551.2
    assert recompute_objective(sol.values, hand_model) == recomputed


# ---------------------------------------------------------------------------
# external solver plumbing


def write_script(tmp_path, body):
    path = tmp_path / "solver.py"
    path.write_text("import sys, time\n" + textwrap.dedent(body))
    return f"python3 {path} {{mps}} {{sol}}"


def test_template_must_mention_both_paths(hand_model):
    with pytest.raises(SolverRunError, match="mps"):
        run_external_solver(hand_model, "mysolver --in {mps}")


def test_missing_binary_raises(hand_model):
    with pytest.raises(SolverRunError, match="spawn"):
        run_external_solver(hand_model, "no-such-solver-zz {mps} {sol}")


def test_time_limit_must_be_finite_and_positive(hand_model, tmp_path):
    cmd = write_script(tmp_path, "sys.exit(0)\n")
    for limit in (0.0, -1.0, float("inf"), float("nan")):
        with pytest.raises(SolverRunError, match="time_limit"):
            run_external_solver(hand_model, cmd, time_limit=limit)


def test_solver_writing_nothing_is_unknown(hand_model, tmp_path):
    cmd = write_script(tmp_path, "sys.exit(0)\n")
    sol = run_external_solver(hand_model, cmd)
    assert sol.status == "unknown"
    assert "exit=0" in sol.diagnostics


def test_solver_nonzero_exit_without_status_is_unknown(hand_model, tmp_path):
    cmd = write_script(
        tmp_path,
        """
        open(sys.argv[2], "w").write("bcf_cf1_s1 1.0\\n")
        sys.exit(3)
        """,
    )
    sol = run_external_solver(hand_model, cmd)
    assert sol.status == "unknown"
    assert sol.values == {"bcf_cf1_s1": 1.0}


def test_solver_status_in_a_comment_is_not_declared(hand_model, tmp_path):
    cmd = write_script(
        tmp_path,
        """
        open(sys.argv[2], "w").write("# =status= optimal\\nbcf_cf1_s1 1.0\\n")
        sys.exit(3)
        """,
    )
    sol = run_external_solver(hand_model, cmd)
    assert sol.status == "unknown"
    assert sol.values == {"bcf_cf1_s1": 1.0}


def test_solver_declared_status_wins(hand_model, tmp_path):
    cmd = write_script(
        tmp_path,
        """
        open(sys.argv[2], "w").write("=status= optimal\\n=obj= 540.0\\nbcf_cf1_s1 1.0\\n")
        sys.exit(5)
        """,
    )
    sol = run_external_solver(hand_model, cmd)
    assert sol.status == "optimal"
    assert sol.objective_reported == 540.0


def test_timeout_without_incumbent_is_unknown(hand_model, tmp_path):
    cmd = write_script(tmp_path, "time.sleep(30)\n")
    sol = run_external_solver(hand_model, cmd, time_limit=0.4)
    assert sol.status == "unknown"
    assert "timeout" in sol.diagnostics


def test_timeout_with_incumbent_is_feasible(hand_model, tmp_path):
    cmd = write_script(
        tmp_path,
        """
        open(sys.argv[2], "w").write("bcf_cf1_s1 1.0\\n")
        time.sleep(30)
        """,
    )
    sol = run_external_solver(hand_model, cmd, time_limit=0.6)
    assert sol.status == "feasible"
    assert sol.values == {"bcf_cf1_s1": 1.0}


@pytest.fixture
def pid_file(tmp_path):
    """A path a command writes a pid to; that process is killed at
    teardown if it is still there."""
    path = tmp_path / "pid"
    yield path
    if path.exists():
        with contextlib.suppress(ProcessLookupError):
            os.kill(int(path.read_text()), signal.SIGKILL)


def assert_killed(pid_file) -> None:
    """The process whose pid `pid_file` holds is gone, a zombie or dying
    (SIGKILL pending)."""
    try:
        status = Path(f"/proc/{int(pid_file.read_text())}/status").read_text()
    except FileNotFoundError:
        return
    fields = dict(line.split(":", 1) for line in status.splitlines())
    pending = int(fields["SigPnd"], 16) | int(fields["ShdPnd"], 16)
    assert fields["State"].strip()[0] in "ZX" or pending >> (signal.SIGKILL - 1) & 1


def test_timeout_kills_what_the_solver_started(hand_model, pid_file):
    """A timed-out command's whole process group is killed, so a process
    it started in the background is gone when `run_external_solver`
    returns."""
    cmd = f"sh -c 'sleep 30 & echo $! > {pid_file}; wait' {{mps}} {{sol}}"
    sol = run_external_solver(hand_model, cmd, time_limit=0.5)
    assert "exit=timeout" in sol.diagnostics
    assert_killed(pid_file)


def test_exit_kills_what_the_solver_left_running(hand_model, pid_file):
    """A command that exits at once, leaving a background process with
    its output redirected, does not wait for it; its process group is
    killed after the exit too, so that process is gone when
    `run_external_solver` returns."""
    cmd = (f"sh -c 'sleep 30 > /dev/null 2>&1 & echo $! > {pid_file}; exit 0' "
           "{mps} {sol}")
    sol = run_external_solver(hand_model, cmd, time_limit=10)
    assert "exit=0" in sol.diagnostics and sol.status == "unknown"
    assert_killed(pid_file)


def test_incumbent_without_bound_stays_feasible(hand_model, tmp_path):
    cmd = write_script(
        tmp_path,
        """
        open(sys.argv[2], "w").write("=status= feasible\\n=obj= 540.0\\nbcf_cf1_s1 1.0\\n")
        """,
    )
    sol = run_external_solver(hand_model, cmd)
    assert sol.status == "feasible"
    assert sol.values == {"bcf_cf1_s1": 1.0}
    assert sol.bound is None and sol.gap is None


@pytest.mark.parametrize("bound", [float("-inf"), float("inf"), float("nan")])
def test_reference_adapter_omits_non_finite_bound(hand_model, tmp_path, bound):
    # HiGHS reports a dual bound of -inf when a time limit hits after the
    # first incumbent but before any bound; the incumbent must survive
    class Result:
        status = 1
        x = np.zeros(hand_model.n_columns)
        fun = 0.0
        mip_dual_bound = bound

    data = read_free_mps(write_mps(hand_model))
    path = tmp_path / "out.sol"
    write_solution_file(str(path), data, Result())
    text = path.read_text()
    assert "=bound=" not in text
    sol = parse_solution(text, hand_model)
    assert sol.status == "feasible" and sol.bound is None


def test_unparsable_solver_output_is_unknown_with_diagnostics(hand_model, tmp_path):
    cmd = write_script(
        tmp_path,
        """
        open(sys.argv[2], "w").write("REALLY NOT A SOLUTION LINE\\n")
        """,
    )
    sol = run_external_solver(hand_model, cmd)
    assert sol.status == "unknown"
    assert "parse error" in sol.diagnostics


def test_solver_output_that_is_not_utf8_is_kept_in_diagnostics(hand_model, tmp_path):
    expected = hand_solution(hand_model)
    answer = tmp_path / "answer.sol"
    answer.write_text(format_solution(expected))
    cmd = write_script(
        tmp_path,
        f"""
        sys.stdout.buffer.write(b"gap \\xff\\n")
        sys.stderr.buffer.write(b"\\xfe warning\\n")
        open(sys.argv[2], "w").write(open({str(answer)!r}).read())
        """,
    )
    sol = run_external_solver(hand_model, cmd)
    assert sol.status == expected.status
    assert sol.values == expected.values
    assert "stdout: gap \ufffd\n" in sol.diagnostics
    assert "stderr: \ufffd warning\n" in sol.diagnostics


def test_solution_file_that_is_not_utf8_is_unknown_with_diagnostics(hand_model, tmp_path):
    cmd = write_script(tmp_path, """open(sys.argv[2], "wb").write(b"bcf_cf1_s1 1.0 \\xff\\n")\n""")
    sol = run_external_solver(hand_model, cmd)
    assert sol.status == "unknown" and sol.values == {}
    assert "\nparse error: " in sol.diagnostics and "is not UTF-8 text" in sol.diagnostics


# ---------------------------------------------------------------------------
# refinement of external solutions onto their active set


@pytest.mark.parametrize("m, n, rank", [(12, 8, 8), (12, 8, 5), (5, 9, 5), (30, 20, 12),
                                         (0, 3, 0), (4, 0, 0)])
def test_least_squares_is_the_minimum_norm_solution(m, n, rank):
    # LAPACK's SVD-based lstsq is the reference; the systems are
    # rank-deficient and, with m > rank, inconsistent
    rng = np.random.default_rng(m * 100 + n)
    a = rng.standard_normal((m, rank)) @ rng.standard_normal((rank, n))
    r = rng.standard_normal(m)
    expected = np.linalg.lstsq(a, r, rcond=None)[0]
    assert np.allclose(_least_squares(a, r), expected, rtol=0.0, atol=1e-9)


def fake_solver_writing(tmp_path, values, objective, bound=None):
    """Command template of a solver that writes `values` as an optimal solution."""
    lines = [f"=obj= {objective!r}", "=status= optimal"]
    if bound is not None:
        lines.append(f"=bound= {bound!r}")
    lines += [f"{name} {value!r}" for name, value in values.items()]
    text = "\n".join(lines) + "\n"
    return write_script(tmp_path, f"open(sys.argv[2], 'w').write({text!r})\n")


# the refinement converges far below the 1e-7 conservation tolerance of
# acceptance criterion 6
REFINED_TOL = 1e-9


def worst_balance(sol, model):
    x = solution_vector(sol, model)
    return max(abs(row.activity(x)) for row in model.rows if row.family == "flow_balance")


def two_sink_model(first_demand):
    """The hand instance with a second sink one step beyond the first."""
    doc = json.loads(serialize_instance(single_chain_instance()))
    doc["sinks"][0]["demand"]["t1"]["w"] = first_demand
    second = dict(doc["sinks"][0], id="snk2")
    second["lat"] = 2 * doc["sinks"][0]["lat"] - doc["echelons"]["dpf"]["sites"][0]["lat"]
    doc["sinks"].append(second)
    return build_milp(parse_instance(json.dumps(doc)))


def test_refinement_restores_balance_of_a_nudged_outflow(hand_model, tmp_path):
    # the solver spends its feasibility slack: 5e-7 t less leaves the DPF
    # than its inflow requires, and the objective drops with it
    values = dict(hand_solution(hand_model).values, xdpfsnk_t1_w_dpf1_snk1=10.0 - 5e-7)
    objective = recompute_objective(values, hand_model)
    before = Solution(values=values, objective_reported=objective)
    assert verify_solution(before, hand_model).passed
    assert worst_balance(before, hand_model) > 1e-7
    cmd = fake_solver_writing(tmp_path, values, objective, bound=540.0)

    sol = run_external_solver(hand_model, cmd)
    assert sol.status == "optimal"
    assert worst_balance(sol, hand_model) <= REFINED_TOL
    assert sol.values.keys() == values.keys()
    assert sol.objective_reported == float(hand_model.objective @ solution_vector(sol, hand_model))
    assert abs(sol.objective_reported - 540.0) <= 1e-9 * 540.0
    assert sol.gap == compute_gap(sol.objective_reported, 540.0)
    assert verify_solution(sol, hand_model).passed
    # the nudge leaves the demand row slack by 5e-7, inside the active set;
    # a met row must not hold the correction back
    assert verify_solution(sol, hand_model).worst_residual <= 1e-12
    assert "refinement: worst residual 5.000e-07 at baldpf_t1_w_dpf1 before" in sol.diagnostics
    assert "refined values kept" in sol.diagnostics


# the first sink's demand row has slack: plenty, or less than the
# verification tolerance, which puts it in the active set without making
# it a target
@pytest.mark.parametrize("first_demand", [20.0, 10.0 + 5e-7])
def test_refinement_clips_a_small_negative_flow_and_keeps_balance(tmp_path, first_demand):
    # the tiny-suite pattern: a flow of -3e-7 whose balance rows are met,
    # because another flow out of the same DPF carries the difference
    model = two_sink_model(first_demand)
    values = dict(hand_solution(model).values,
                  xdpfsnk_t1_w_dpf1_snk1=10.0 + 3e-7, xdpfsnk_t1_w_dpf1_snk2=-3e-7)
    objective = recompute_objective(values, model)
    before = Solution(values=values, objective_reported=objective)
    report = verify_solution(before, model)
    assert report.passed and report.worst_violation <= 1e-12
    cmd = fake_solver_writing(tmp_path, values, objective)

    sol = run_external_solver(model, cmd)
    x = solution_vector(sol, model)
    assert x.min() >= 0.0
    assert sol.values["xdpfsnk_t1_w_dpf1_snk2"] == 0.0
    assert worst_balance(sol, model) <= REFINED_TOL
    assert sol.objective_reported == float(model.objective @ x)
    assert sol.bound is None and sol.gap is None
    report = verify_solution(sol, model)
    assert report.passed and report.worst_violation <= REFINED_TOL
    assert "at xdpfsnk_t1_w_dpf1_snk2 before" in sol.diagnostics


def test_refinement_never_drives_a_flow_negative(tmp_path):
    # 5e-7 t too much leaves the DPF; the least-squares correction takes
    # part of it from the 1e-7 t flow to the second sink, more than it has
    model = two_sink_model(20.0)
    values = dict(hand_solution(model).values,
                  xdpfsnk_t1_w_dpf1_snk1=10.0 + 4e-7, xdpfsnk_t1_w_dpf1_snk2=1e-7)
    objective = recompute_objective(values, model)
    assert verify_solution(Solution(values=values, objective_reported=objective), model).passed
    cmd = fake_solver_writing(tmp_path, values, objective)

    sol = run_external_solver(model, cmd)
    x = solution_vector(sol, model)
    assert x.min() >= 0.0
    assert worst_balance(sol, model) <= REFINED_TOL
    assert verify_solution(sol, model).passed
    assert "refined values kept" in sol.diagnostics


def test_refinement_leaves_an_unverified_solution_as_parsed(hand_model, tmp_path):
    values = dict(hand_solution(hand_model).values, xdpfsnk_t1_w_dpf1_snk1=10.0 - 1e-3)
    cmd = fake_solver_writing(tmp_path, values, 539.5, bound=530.0)
    sol = run_external_solver(hand_model, cmd)
    assert not verify_solution(sol, hand_model).passed
    assert sol.values == values
    assert sol.objective_reported == 539.5
    assert sol.status == "optimal"
    assert sol.gap == compute_gap(539.5, 530.0)
    assert "worst residual" not in sol.diagnostics


def test_refinement_leaves_an_exact_solution_untouched(hand_model, tmp_path):
    values = hand_solution(hand_model).values
    cmd = fake_solver_writing(tmp_path, values, 540.0, bound=540.0)
    sol = run_external_solver(hand_model, cmd)
    assert sol.values == values
    assert sol.objective_reported == 540.0
    assert sol.gap == 0.0
    assert "refinement: worst residual 0.000e+00 before" in sol.diagnostics
    assert "solver's values kept" in sol.diagnostics


def copying_solver(tmp_path):
    """(command template of a solver that copies its MPS file, the copy's path)."""
    copy = tmp_path / "copy.mps"
    cmd = write_script(tmp_path, f"""
        import shutil
        shutil.copyfile(sys.argv[1], {str(copy)!r})
        """)
    return cmd, copy


# sha256 of the projection's MPS, cover rows included, for
# random_shape_doc(default_rng(3)), prune on
PROJECTION_MPS_SHA256 = "edcf7a75e9c18316fa6bf4061b28ffed938ff1af5d21328f79b07b08487792d5"
# sha256 of the solver's file for the 10% default shape, prune on
TEN_PERCENT_SOLVER_MPS_SHA256 = "6103c05baab117680321ed17fef966876c6eef8221e8501c65260b6d3b509751"
# sha256 of the tiny suite's solver files, one after another in suite
# order, each member's with pruning on and then off
TINY_SUITE_SOLVER_MPS_SHA256 = "80f8b517434ec20c45f80a8a3127e62067ede8e1e46847a12fc3fa9ebd858e3f"


def test_solver_reads_the_bytes_of_write_mps(monkeypatch, tmp_path):
    # the solver gets the size projection, through the same writer
    monkeypatch.setattr(model_io, "_MPS_CHUNK", 7)  # the file is written in many batches
    inst = parse_instance(json.dumps(random_shape_doc(np.random.default_rng(3))))
    model = build_milp(inst)
    projection = project_sizes(model)
    rows = solver_rows(model, projection)
    assert projection.n_columns < model.n_columns
    cmd, copy = copying_solver(tmp_path)
    assert run_external_solver(model, cmd).status == "unknown"
    text = bytearray()
    for batch in model_io._mps_batches(model.index.name_table()[projection.columns], rows,
                                       projection.objective, projection.n_continuous):
        text += memoryview(batch)
    assert copy.read_bytes() == text
    assert hashlib.sha256(text).hexdigest() == PROJECTION_MPS_SHA256
    data = read_free_mps(text.decode())
    assert data.column_order == [model.index.column_name(c) for c in projection.columns]
    assert rows.names[:projection.n_rows] == projection.constraints.names
    assert data.row_order[1:] == list(rows.names)


def solver_file(model, path):
    """The bytes `run_external_solver` hands the solver for `model`, copied to `path`."""
    run_external_solver(model, conftest.copying_solver('"$0"', shlex.quote(str(path))))
    return path.read_bytes()


def test_solver_file_of_the_ten_percent_shape_is_pinned(tmp_path):
    text = solver_file(build_milp(conftest.scaled_default_shape(0.10)), tmp_path / "copy.mps")
    assert hashlib.sha256(text).hexdigest() == TEN_PERCENT_SOLVER_MPS_SHA256


def test_solver_files_of_the_tiny_suite_are_pinned(tiny_suite, tmp_path):
    digest = hashlib.sha256()
    for inst in tiny_suite:
        for prune in (True, False):
            digest.update(solver_file(build_milp(inst, prune=prune), tmp_path / "copy.mps"))
    assert digest.hexdigest() == TINY_SUITE_SOLVER_MPS_SHA256


def test_solver_reads_write_mps_of_a_single_size_model(monkeypatch, tmp_path):
    monkeypatch.setattr(model_io, "_MPS_CHUNK", 7)
    model = two_sink_model(20.0)
    cmd, copy = copying_solver(tmp_path)
    sol = run_external_solver(model, cmd)
    assert sol.status == "unknown"
    read = read_free_mps(copy.read_text())
    assert [r for r in read.row_order if r.startswith("cov")] == ["covcf_t1", "covrtf_t1",
                                                                  "covcpf_t1", "covdpf_t1"]
    assert without_cover_rows(read) == read_free_mps(write_mps(model))
    assert sol.diagnostics.endswith(
        "projection: 10 -> 10 columns, 16 -> 16 rows; 0 sites lifted; 4 cover rows")


def without_cover_rows(data):
    """`data` less every `cov*` row and its entries."""
    def kept(row):
        return not row.startswith("cov")

    return replace(data, row_order=[r for r in data.row_order if kept(r)],
                   row_sense={r: s for r, s in data.row_sense.items() if kept(r)},
                   entries=[e for e in data.entries if kept(e[1])],
                   rhs={r: b for r, b in data.rhs.items() if kept(r)})
