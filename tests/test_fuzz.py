"""Seeded mutation fuzz over the package's input boundaries.

Instance documents of the tiny suite, a generator spec and oracle
solution files are mutated token by token and line by line, then run
through everything that reads them: parse, validate, build, the MPS file
and the listing, the oracle, verification and the four reports.  Solution
files also come back through `run_external_solver`, from a stand-in for
`subprocess.run` that writes them and exits, fails or times out without
starting a child, so the lift and the refinement read them too.  Only an
`UpcycleNetError` may escape, and no warning may be raised (pytest's
`filterwarnings = ["error"]` turns a numpy overflow warning into an
exception that would escape here).  The random source is the standard
library's, seeded, so every run takes the same cases.
"""

from __future__ import annotations

import json
import random
import re
import signal
import subprocess
from pathlib import Path

import pytest

from conftest import SUITE_SEED
from upcyclenet import (
    UpcycleNetError,
    breakdown_costs,
    build_milp,
    compute_utilization,
    dump_model,
    export_flows,
    export_layout,
    format_solution,
    model_io,
    parse_instance,
    parse_solution,
    run_external_solver,
    serialize_instance,
    solve_exact,
    validate_instance,
    verify_solution,
    write_mps,
)
from upcyclenet.scenario import GenSpec, generate, make_tiny_suite

FUZZ_SEED = 31
CASES = {"instance": 400, "spec": 100, "solution": 200, "external": 300}

# the tokens a swap replaces: numbers, or numbers and JSON strings
NUMBER = re.compile(r"-?\d+(?:\.\d+)?(?:[eE][-+]?\d+)?")
TOKEN = re.compile(r'"[^"\n]*"|' + NUMBER.pattern)
# numbers that overflow, vanish or are no number, then other garbage
NUMBERS = ("1e308", "-1e308", "1e300", "1e-320", "0", "nan", "NaN", "inf", "Infinity", "1e400")
GARBAGE = NUMBERS + ("garbage", '"x"', "null", "[]")


# every field its own line, so a deleted or repeated line is one field
SPEC = "{\n" + ",\n".join(f'"{k}": {json.dumps(v)}' for k, v in {
    "seed": 3, "n_sources": 3, "n_cf": 2, "n_rtf": 1, "n_cpf": 1, "n_dpf": 1, "n_sinks": 1,
    "n_periods": 2, "period_years": 0.5, "quota_level": 0.6, "demand_margin": 1.5,
    "supply_range_tons": [20.0, 100.0], "supply_variation_pct": [10.0, 30.0],
    "bbox": [50.0, 51.0, 8.0, 9.0],
    "ladders": {tag: {"count": 2, "base_capacity": 250.0, "growth_ratio": 2.0,
                      "base_cost": 1000.0, "exponent": 0.6} for tag in ("cf", "rtf", "cpf", "dpf")},
}.items()) + "\n}\n"


def mutate(text: str, rng: random.Random) -> str:
    """`text` with one or two mutations: mostly a number swapped for one of
    NUMBERS, else any token swapped for GARBAGE or a line repeated,
    deleted or cut short."""
    for _ in range(rng.choice((1, 1, 2))):
        kind = rng.choice("nnnnsdrt")
        pattern, swaps = (NUMBER, NUMBERS) if kind == "n" else (TOKEN, GARBAGE)
        tokens = list(pattern.finditer(text))
        lines = text.splitlines(keepends=True)
        if kind in "ns" and tokens:
            tok = rng.choice(tokens)
            text = text[:tok.start()] + rng.choice(swaps) + text[tok.end():]
        elif kind in "drt" and lines:
            k = rng.randrange(len(lines))
            line = lines[k]
            lines[k] = {"d": "", "r": line + line, "t": line[:rng.randrange(len(line))] + "\n"}[kind]
            text = "".join(lines)
    return text


def nudge(text: str, rng: random.Random) -> str:
    """`text` with a few values moved by at most 1e-7 relative, so the
    point often still verifies and goes on to the refinement."""
    lines = text.splitlines(keepends=True)
    for k in rng.sample(range(len(lines)), min(3, len(lines))):
        head, _, value = lines[k].rstrip("\n").rpartition(" ")
        if head and NUMBER.fullmatch(value):
            moved = float(value) * (1.0 + rng.choice((1e-9, 1e-8, 1e-7)) * rng.uniform(-1.0, 1.0))
            lines[k] = f"{head} {moved!r}\n"
    return "".join(lines)


def solver_reply(text: str, rng: random.Random) -> str | bytes | None:
    """What a solver leaves at the {sol} path for the solution `text`:
    mutated, nudged, with another status, not UTF-8, or nothing."""
    kind = rng.choice("mmnnsbx")
    if kind == "m":
        return mutate(text, rng)
    if kind == "n":
        return nudge(text, rng)
    if kind == "s":
        status = rng.choice(model_io.SOLUTION_STATUSES + ("garbage", ""))
        return re.sub(r"(?m)^=status= .*$", f"=status= {status}", text)
    if kind == "b":
        return text.encode()[:rng.randrange(len(text))] + b"\xff\xfe"
    return None


class SolverStandIn:
    """`subprocess.Popen` as `run_external_solver` calls it, and the child
    it returns, without a child: writes `reply` to the command's last
    token, the {sol} path (nothing when None), then exits with `exit_code`
    or, when None, times out.  `killpg` stands in for `os.killpg` and
    accepts only the stand-in's process group."""

    reply: str | bytes | None = None
    exit_code: int | None = 0
    pid = -1  # no process group: `os.killpg` itself refuses it

    def __call__(self, cmd, stdout, stderr, start_new_session):
        assert start_new_session
        self.cmd = cmd
        if isinstance(self.reply, bytes):
            Path(cmd[-1]).write_bytes(self.reply)
        elif self.reply is not None:
            Path(cmd[-1]).write_text(self.reply)
        return self

    def __enter__(self):
        return self

    def __exit__(self, *exc_info):
        return None

    def communicate(self, timeout):
        if self.exit_code is None:
            raise subprocess.TimeoutExpired(self.cmd, timeout, output=b"partial", stderr=b"")
        self.returncode = self.exit_code
        return b"", b""

    def killpg(self, pgid, sig):
        assert (pgid, sig) == (self.pid, signal.SIGKILL)


def run_external(model, inst, sol, rng: random.Random, solver: SolverStandIn):
    """`run_external_solver` on a reply made from the oracle's `sol`, then
    everything that reads its result."""
    solver.reply = solver_reply(format_solution(sol), rng)
    solver.exit_code = rng.choice((0, 0, 0, 1, None))
    limit = 5.0 if solver.exit_code is None else None
    result = run_external_solver(model, "solver {mps} {sol}", time_limit=limit)
    assert result.status in model_io.SOLUTION_STATUSES
    run_solution(result, model, inst)
    return result


def run_instance(inst) -> None:
    """Everything downstream of a parsed instance."""
    validate_instance(inst)
    model = build_milp(inst)
    write_mps(model)
    dump_model(model)
    sol, _ = solve_exact(inst)
    run_solution(sol, model, inst)


def run_solution(sol, model, inst) -> None:
    verify_solution(sol, model)
    breakdown_costs(sol, model, inst)
    export_flows(sol, inst)
    export_layout(sol, inst)
    compute_utilization(sol, inst)


def fuzz_case(kind: str, k: int, suite, solved, solver):
    """Runs case `k` of `kind`; returns the external route's result, or
    None for the other kinds and for a typed error."""
    rng = random.Random(f"{FUZZ_SEED}-{kind}-{k}")
    try:
        if kind == "instance":
            run_instance(parse_instance(mutate(serialize_instance(rng.choice(suite)), rng)))
        elif kind == "spec":
            inst = generate(GenSpec.from_json(mutate(SPEC, rng)))
            run_instance(parse_instance(serialize_instance(inst)))
        elif kind == "solution":
            inst, model, sol = rng.choice(solved)
            run_solution(parse_solution(mutate(format_solution(sol), rng), model), model, inst)
        else:
            inst, model, sol = rng.choice(solved)
            return run_external(model, inst, sol, rng, solver)
    except UpcycleNetError:
        pass
    return None


@pytest.fixture(scope="module")
def fuzz_inputs():
    suite = make_tiny_suite(SUITE_SEED)[:12]
    solved = [(inst, build_milp(inst), solve_exact(inst)[0]) for inst in suite]
    return suite, solved


@pytest.mark.parametrize("kind", CASES)
def test_mutated_inputs_end_in_typed_errors(kind, fuzz_inputs, monkeypatch):
    solver = SolverStandIn()
    monkeypatch.setattr(model_io.subprocess, "Popen", solver)
    monkeypatch.setattr(model_io.os, "killpg", solver.killpg)
    results = []
    for k in range(CASES[kind]):
        try:
            results.append(fuzz_case(kind, k, *fuzz_inputs, solver))
        except Exception as exc:  # a warning is raised as one too
            raise AssertionError(f"{kind} case {k}: {type(exc).__name__}: {exc}") from exc
    if kind == "external":
        # the replies reach every stage: the parse, the lift and the refinement
        diagnostics = [r.diagnostics for r in results if r is not None]
        assert sum("parse error" in d for d in diagnostics) >= 20
        assert sum("refined values kept" in d for d in diagnostics) >= 20
        assert sum("solver's values kept" in d for d in diagnostics) >= 20
