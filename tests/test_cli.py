import json
import shlex

import pytest

from conftest import SUITE_SEED, adapter_template, copying_solver, have_scipy_milp
from test_instance import GARBAGE_LITERALS, garbage_document
from test_scenario import BAD_SPECS, garbage_spec
from upcyclenet import cli, model_io, oracle
from upcyclenet.errors import ModelError
from upcyclenet.instance import (
    Finding,
    errors_only,
    parse_instance,
    serialize_instance,
    validate_instance,
)
from upcyclenet.model import build_milp
from upcyclenet.oracle import solve_exact
from upcyclenet.scenario import make_tiny_suite, single_chain_instance


@pytest.fixture(scope="module")
def hand_file(tmp_path_factory):
    path = tmp_path_factory.mktemp("cli-hand") / "hand.json"
    path.write_text(serialize_instance(single_chain_instance()))
    return path


@pytest.fixture(scope="module")
def broken_file(tmp_path_factory):
    # suite member 2: the quota forces more tonnage into collection than the
    # candidate facilities can hold, so validation reports an ERROR and the
    # oracle proves infeasibility
    inst = make_tiny_suite(0, size=5)[2]
    path = tmp_path_factory.mktemp("cli-broken") / "broken.json"
    path.write_text(serialize_instance(inst))
    return path


@pytest.fixture()
def solved_dir(tmp_path, hand_file):
    rc = cli.main(
        ["solve", "--instance", str(hand_file), "--out", str(tmp_path / "run"), "--oracle"]
    )
    assert rc == 0
    return tmp_path / "run"


# ---------------------------------------------------------------------------
# argument handling


def test_no_command_is_a_usage_error(capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main([])
    assert exc.value.code == 2


def test_unknown_flag_is_a_usage_error(hand_file):
    with pytest.raises(SystemExit) as exc:
        cli.main(["validate", "--instance", str(hand_file), "--frobnicate"])
    assert exc.value.code == 2


@pytest.mark.parametrize("flag, value", [
    ("--time-limit", "-1"), ("--time-limit", "0"), ("--time-limit", "inf"),
    ("--time-limit", "nan"), ("--max-configs", "0"), ("--max-configs", "-3"),
])
def test_solve_rejects_out_of_range_numeric_flags(tmp_path, hand_file, capsys, flag, value):
    with pytest.raises(SystemExit) as exc:
        cli.main(["solve", "--instance", str(hand_file), "--out", str(tmp_path),
                  "--solver-cmd", "no-such-solver-zz {mps} {sol}", flag, value])
    assert exc.value.code == 2
    assert flag in capsys.readouterr().err


def test_missing_file_is_an_operational_error(tmp_path, capsys):
    rc = cli.main(["validate", "--instance", str(tmp_path / "nope.json")])
    assert rc == 1
    assert "error:" in capsys.readouterr().err


def test_malformed_instance_reports_error(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{\"name\": 3}")
    rc = cli.main(["validate", "--instance", str(bad)])
    assert rc == 1
    assert "error:" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    ["validate", "--instance", "{bad}"],
    ["verify", "--instance", "{hand}", "--solution", "{bad}"],
    ["report", "--instance", "{hand}", "--solution", "{bad}", "--out", "{out}"],
    ["gen", "--out", "{out}", "--spec", "{bad}"],
], ids=["instance", "verify-solution", "report-solution", "spec"])
def test_a_file_that_is_not_utf8_is_an_error_not_a_traceback(tmp_path, hand_file, capsys, argv):
    bad = tmp_path / "bad.txt"
    bad.write_bytes(b'{"name": "\xff"}\n')
    paths = {"bad": bad, "hand": hand_file, "out": tmp_path / "out"}
    rc = cli.main([arg.format(**paths) for arg in argv])
    err = capsys.readouterr().err
    assert rc == 1
    assert err.startswith("error: ") and "is not UTF-8 text" in err
    assert "Traceback" not in err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("case", GARBAGE_LITERALS)
@pytest.mark.parametrize("argv, text", [
    (["validate", "--instance", "{bad}"], garbage_document),
    (["gen", "--out", "{out}", "--spec", "{bad}"], garbage_spec),
], ids=["instance", "spec"])
def test_garbage_json_is_an_error_not_a_traceback(tmp_path, capsys, argv, text, case):
    bad = tmp_path / "bad.json"
    bad.write_text(text(case))
    rc = cli.main([arg.format(bad=bad, out=tmp_path / "out") for arg in argv])
    err = capsys.readouterr().err
    assert rc == 1
    assert err.startswith("error: ") and GARBAGE_LITERALS[case][1] in err
    assert "Traceback" not in err
    assert not (tmp_path / "out").exists()


# ---------------------------------------------------------------------------
# validate


def test_validate_clean_instance(hand_file, capsys):
    rc = cli.main(["validate", "--instance", str(hand_file)])
    out = capsys.readouterr().out
    assert rc == 0
    assert "0 error(s)" in out


def test_validate_broken_instance(broken_file, capsys):
    rc = cli.main(["validate", "--instance", str(broken_file)])
    out = capsys.readouterr().out
    assert rc == 1
    assert "aggregate-cf-capacity-short" in out
    assert "ERROR" in out


# ---------------------------------------------------------------------------
# build


def test_build_writes_model_and_dump(tmp_path, hand_file, capsys):
    out = tmp_path / "m1"
    rc = cli.main(["build", "--instance", str(hand_file), "--out", str(out)])
    assert rc == 0
    assert (out / "model.mps").is_file()
    assert (out / "model.dump.txt").is_file()
    assert "columns: 5 continuous + 4 binary, rows: 15" in capsys.readouterr().out

    out2 = tmp_path / "m2"
    assert cli.main(["build", "--instance", str(hand_file), "--out", str(out2)]) == 0
    assert (out / "model.mps").read_bytes() == (out2 / "model.mps").read_bytes()
    model = build_milp(parse_instance(hand_file.read_text()))
    assert (out / "model.dump.txt").read_bytes() == model_io.dump_model(model).encode()


def test_build_streams_the_bytes_of_write_mps(monkeypatch, tmp_path, hand_file):
    monkeypatch.setattr(model_io, "_MPS_CHUNK", 2)  # the file is written in many batches
    assert cli.main(["build", "--instance", str(hand_file), "--out", str(tmp_path)]) == 0
    model = build_milp(parse_instance(hand_file.read_text()))
    assert (tmp_path / "model.mps").read_bytes() == model_io.write_mps(model).encode()


# ---------------------------------------------------------------------------
# solve


def test_solve_oracle_writes_solution(tmp_path, hand_file, capsys):
    rc = cli.main(
        ["solve", "--instance", str(hand_file), "--out", str(tmp_path), "--oracle"]
    )
    assert rc == 0
    text = (tmp_path / "solution.sol").read_text()
    assert "=obj= 540.0" in text
    assert "=status= optimal" in text
    captured = capsys.readouterr()
    assert "status: optimal, objective: 540.0" in captured.out
    assert "bound_pruned" not in captured.out
    assert "enumerated=16" in captured.err
    assert "bound_pruned=0" in captured.err


def test_solve_oracle_reports_progress_on_stderr_only(tmp_path, capsys):
    # 576 configurations: one progress line, at 512
    inst = next(i for i in make_tiny_suite(SUITE_SEED) if i.name == "tiny-2026-11")
    path = tmp_path / "tiny.json"
    path.write_text(serialize_instance(inst))
    out = tmp_path / "run"
    assert cli.main(["solve", "--instance", str(path), "--out", str(out), "--oracle"]) == 0
    captured = capsys.readouterr()
    assert [line for line in captured.err.splitlines() if line.startswith("oracle:")] == [
        "oracle: 512/576 configurations"]
    sol, _ = solve_exact(inst)
    assert captured.out == (f"wrote {out / 'solution.sol'}\n"
                            f"status: optimal, objective: {sol.objective_reported!r}\n"
                            "relative gap: 0.0\n")


def test_solve_respects_config_budget(tmp_path, hand_file, capsys):
    rc = cli.main(
        ["solve", "--instance", str(hand_file), "--out", str(tmp_path),
         "--oracle", "--max-configs", "8"]
    )
    assert rc == 1
    err = capsys.readouterr().err
    assert "error:" in err and "16" in err
    assert not (tmp_path / "solution.sol").exists()


def test_solve_gate_blocks_invalid_instance(tmp_path, broken_file, capsys):
    rc = cli.main(
        ["solve", "--instance", str(broken_file), "--out", str(tmp_path), "--oracle"]
    )
    assert rc == 1
    err = capsys.readouterr().err
    assert "rerun with --override-validation" in err
    assert not (tmp_path / "solution.sol").exists()


def test_solve_gate_override_reaches_infeasibility_proof(tmp_path, broken_file, capsys):
    rc = cli.main(
        ["solve", "--instance", str(broken_file), "--out", str(tmp_path),
         "--oracle", "--override-validation"]
    )
    assert rc == 1
    err = capsys.readouterr().err
    assert "status: infeasible; no solution written" in err
    assert not (tmp_path / "solution.sol").exists()


@pytest.mark.parametrize("quota", [1.0, 0.0])
@pytest.mark.parametrize("role", ["sources", "sinks", "cf"])
def test_both_routes_refuse_an_empty_chain_position(tmp_path, capsys, role, quota):
    # neither route can carry a ton through a chain with a gap: validation
    # says so, and both refuse it with one message even past the gate,
    # however the quota reads
    doc = json.loads(serialize_instance(single_chain_instance()))
    if role == "cf":
        doc["echelons"]["cf"]["sites"] = []
    else:
        doc[role] = []
    doc["quota"]["t1"]["w"] = quota
    inst = parse_instance(json.dumps(doc))
    message = f"echelon chain position '{role}' has no nodes"
    assert Finding("ERROR", "empty-chain-position", message) in validate_instance(inst)
    for route in (build_milp, solve_exact):
        with pytest.raises(ModelError) as exc:
            route(inst)
        assert str(exc.value) == message
    path = tmp_path / "gap.json"
    path.write_text(serialize_instance(inst))
    assert cli.main(["validate", "--instance", str(path)]) == 1
    for engine in (["--oracle"], ["--solver-cmd", "false {mps} {sol}"]):
        out = tmp_path / engine[0].strip("-")
        assert cli.main(["solve", "--instance", str(path), "--out", str(out),
                         "--override-validation", *engine]) == 1
        assert f"error: {message}\n" in capsys.readouterr().err
        assert not (out / "solution.sol").exists()


def overflowing(edit):
    """The hand instance changed by `edit` on its document."""
    doc = json.loads(serialize_instance(single_chain_instance()))
    edit(doc)
    return parse_instance(json.dumps(doc))


def dear_operation(doc):
    # every per-ton cost is finite, but ten tons of them are not
    doc["echelons"]["cf"]["op_cost_per_ton"] = 1e308


def dear_install_over_two_years(doc):
    doc["echelons"]["cf"]["size_options"][0]["install_cost_annual"] = 1e308
    doc["periods"][0]["duration_years"] = 2.0


@pytest.mark.parametrize("edit", [dear_operation, dear_install_over_two_years])
def test_both_routes_refuse_a_cost_model_that_can_overflow(tmp_path, capsys, monkeypatch, edit):
    # the objective of such a model leaves the float range; validation says
    # so, and both routes refuse it with one message before any LP, even
    # past the gate
    inst = overflowing(edit)
    message = "the cost model can overflow: an upper bound on the objective is inf"
    assert errors_only(validate_instance(inst)) == [Finding("ERROR", "cost-overflow", message)]
    monkeypatch.setattr(oracle, "solve_lp", None)  # any LP would fail here with a TypeError
    for route in (build_milp, solve_exact):
        with pytest.raises(ModelError) as exc:
            route(inst)
        assert str(exc.value) == message
    path = tmp_path / "dear.json"
    path.write_text(serialize_instance(inst))
    assert cli.main(["validate", "--instance", str(path)]) == 1
    assert f"ERROR [cost-overflow] {message}\n" in capsys.readouterr().out
    for engine in (["--oracle"], ["--solver-cmd", "false {mps} {sol}"]):
        out = tmp_path / engine[0].strip("-")
        assert cli.main(["solve", "--instance", str(path), "--out", str(out),
                         "--override-validation", *engine]) == 1
        assert capsys.readouterr().err.endswith(f"error: {message}\n")
        assert not (out / "solution.sol").exists()


@pytest.mark.skipif(not have_scipy_milp(), reason="scipy.optimize.milp unavailable")
def test_solve_external_adapter(tmp_path, hand_file, capsys):
    rc = cli.main(
        ["solve", "--instance", str(hand_file), "--out", str(tmp_path),
         "--solver-cmd", adapter_template(), "--time-limit", "60"]
    )
    assert rc == 0
    captured = capsys.readouterr()
    assert "running external solver on 9 columns" in captured.err
    assert "projection: 9 -> 9 columns, 15 -> 15 rows; 0 sites lifted; 4 cover rows\n" in captured.err
    assert "status: optimal, objective: 540.0" in captured.out
    assert (tmp_path / "solution.sol").is_file()


def test_solve_writes_no_solution_that_fails_verification(tmp_path, hand_file, capsys):
    # a solver that claims the optimum but sets no column
    claim = tmp_path / "claim.sol"
    claim.write_text("=status= optimal\n=obj= 540.0\n")
    out = tmp_path / "run"
    rc = cli.main(["solve", "--instance", str(hand_file), "--out", str(out),
                   "--solver-cmd", copying_solver(shlex.quote(str(claim)), '"$1"')])
    assert rc == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "verification FAIL" in captured.err
    assert "error: solution failed verification; no solution written" in captured.err
    assert not (out / "solution.sol").exists()


def test_solve_oracle_writes_no_solution_that_fails_verification(
        monkeypatch, tmp_path, hand_file, capsys):
    # the oracle route passes the same verification gate as the external one
    def misreporting_oracle(inst, **kwargs):
        sol, cert = solve_exact(inst, **kwargs)
        sol.objective_reported += 1.0
        return sol, cert

    monkeypatch.setattr(cli, "solve_exact", misreporting_oracle)
    out = tmp_path / "run"
    rc = cli.main(["solve", "--instance", str(hand_file), "--out", str(out), "--oracle"])
    assert rc == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "verification FAIL" in captured.err
    assert "error: solution failed verification; no solution written" in captured.err
    assert not (out / "solution.sol").exists()


# ---------------------------------------------------------------------------
# verify


def test_verify_accepts_oracle_solution(solved_dir, hand_file, capsys):
    rc = cli.main(
        ["verify", "--instance", str(hand_file),
         "--solution", str(solved_dir / "solution.sol"), "--tol", "1e-5"]
    )
    assert rc == 0
    assert "verification PASS (tol 1e-05)" in capsys.readouterr().out


def test_verify_flags_tampered_solution(solved_dir, hand_file, capsys):
    sol_path = solved_dir / "solution.sol"
    text = sol_path.read_text()
    assert "bcf_cf1_s1 1.0" in text
    sol_path.write_text(text.replace("bcf_cf1_s1 1.0", "bcf_cf1_s1 0.0"))
    rc = cli.main(
        ["verify", "--instance", str(hand_file), "--solution", str(sol_path)]
    )
    assert rc == 1
    assert "verification FAIL" in capsys.readouterr().out


def test_verify_fails_a_wrong_reported_objective(solved_dir, hand_file, capsys):
    sol_path = solved_dir / "solution.sol"
    text = sol_path.read_text()
    assert "=obj= 540.0\n" in text
    sol_path.write_text(text.replace("=obj= 540.0\n", "=obj= 1.0\n"))
    rc = cli.main(["verify", "--instance", str(hand_file), "--solution", str(sol_path)])
    assert rc == 1
    stdout = capsys.readouterr().out
    assert "verification FAIL" in stdout
    assert "reported objective 1.0 differs from recomputed 540.0" in stdout


def test_verify_and_report_reject_a_tolerance_that_passes_anything(
        tmp_path, solved_dir, hand_file, capsys):
    sol_path = solved_dir / "solution.sol"
    sol_path.write_text(sol_path.read_text().replace("bcf_cf1_s1 1.0", "bcf_cf1_s1 0.0"))
    out = tmp_path / "tables"
    for tol in ("inf", "nan", "-0.5"):
        for command in (["verify"], ["report", "--out", str(out)]):
            with pytest.raises(SystemExit) as exc:
                cli.main([*command, "--instance", str(hand_file),
                          "--solution", str(sol_path), "--tol", tol])
            assert exc.value.code == 2
            assert "--tol" in capsys.readouterr().err
    assert not out.exists()


# ---------------------------------------------------------------------------
# report


def test_report_writes_all_tables(tmp_path, solved_dir, hand_file, capsys):
    out = tmp_path / "tables"
    rc = cli.main(
        ["report", "--instance", str(hand_file),
         "--solution", str(solved_dir / "solution.sol"), "--out", str(out), "--tol", "1e-5"]
    )
    assert rc == 0
    for name in ("breakdown.csv", "flows.csv", "facilities.csv",
                 "layout.csv", "layout.geojson", "utilization.csv"):
        assert (out / name).is_file(), name
    stdout = capsys.readouterr().out
    assert "total cost: 540.0 EUR" in stdout
    assert "open facilities: cf=1, rtf=1, cpf=1, dpf=1" in stdout
    json.loads((out / "layout.geojson").read_text())


def test_report_refuses_failing_solution(tmp_path, solved_dir, hand_file, capsys):
    sol_path = solved_dir / "solution.sol"
    sol_path.write_text(sol_path.read_text().replace("bcf_cf1_s1 1.0", "bcf_cf1_s1 0.0"))
    out = tmp_path / "tables"
    rc = cli.main(
        ["report", "--instance", str(hand_file),
         "--solution", str(sol_path), "--out", str(out)]
    )
    assert rc == 1
    assert "no reports written" in capsys.readouterr().err
    assert not (out / "breakdown.csv").exists()


# ---------------------------------------------------------------------------
# gen


def test_gen_is_deterministic_per_seed(tmp_path, capsys):
    spec = tmp_path / "spec.json"
    spec.write_text(json.dumps({
        "n_sources": 6, "n_cf": 3, "n_rtf": 2, "n_cpf": 2, "n_dpf": 2,
        "n_sinks": 2, "supply_range_tons": [20.0, 100.0],
    }))
    a, b, c = tmp_path / "a.json", tmp_path / "b.json", tmp_path / "c.json"
    assert cli.main(["gen", "--out", str(a), "--seed", "5", "--spec", str(spec)]) == 0
    assert cli.main(["gen", "--out", str(b), "--seed", "5", "--spec", str(spec)]) == 0
    assert cli.main(["gen", "--out", str(c), "--seed", "6", "--spec", str(spec)]) == 0
    assert a.read_bytes() == b.read_bytes()
    assert a.read_bytes() != c.read_bytes()
    assert "binary variables unpruned" in capsys.readouterr().out


@pytest.mark.parametrize("doc, message", BAD_SPECS)
def test_gen_reports_bad_spec_fields_without_a_traceback(tmp_path, capsys, doc, message):
    spec = tmp_path / "spec.json"
    spec.write_text(json.dumps(doc))
    rc = cli.main(["gen", "--out", str(tmp_path / "x.json"), "--spec", str(spec)])
    err = capsys.readouterr().err
    assert rc == 1
    assert err.startswith("error: generator spec: ") and message in err
    assert "Traceback" not in err
    assert not (tmp_path / "x.json").exists()


def test_gen_writes_no_instance_whose_cost_model_can_overflow(tmp_path, capsys):
    spec = tmp_path / "spec.json"
    spec.write_text(json.dumps({"n_sources": 3, "n_cf": 2, "n_rtf": 1, "n_cpf": 1, "n_dpf": 1,
                                "n_sinks": 1, "period_years": 1e308}))
    rc = cli.main(["gen", "--out", str(tmp_path / "x.json"), "--spec", str(spec)])
    assert rc == 1
    assert capsys.readouterr().err == (
        "error: the cost model can overflow: an upper bound on the objective is inf\n")
    assert not (tmp_path / "x.json").exists()


def test_gen_rejects_bad_spec(tmp_path, capsys):
    spec = tmp_path / "spec.json"
    spec.write_text(json.dumps({"mystery": 1}))
    rc = cli.main(["gen", "--out", str(tmp_path / "x.json"), "--spec", str(spec)])
    assert rc == 1
    assert "error:" in capsys.readouterr().err
