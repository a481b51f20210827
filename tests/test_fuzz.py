"""Seeded mutation fuzz over the package's input boundaries.

Instance documents of the tiny suite, a generator spec and oracle
solution files are mutated token by token and line by line, then run
through everything that reads them: parse, validate, build, the MPS file
and the listing, the oracle, verification and the four reports.  Only an
`UpcycleNetError` may escape, and no warning may be raised (pytest's
`filterwarnings = ["error"]` turns a numpy overflow warning into an
exception that would escape here).  The random source is the standard
library's, seeded, so every run takes the same cases.
"""

from __future__ import annotations

import json
import random
import re

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
    parse_instance,
    parse_solution,
    serialize_instance,
    solve_exact,
    validate_instance,
    verify_solution,
    write_mps,
)
from upcyclenet.scenario import GenSpec, generate, make_tiny_suite

FUZZ_SEED = 31
CASES = {"instance": 400, "spec": 100, "solution": 200}

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


def fuzz_case(kind: str, k: int, suite, solved) -> None:
    rng = random.Random(f"{FUZZ_SEED}-{kind}-{k}")
    try:
        if kind == "instance":
            run_instance(parse_instance(mutate(serialize_instance(rng.choice(suite)), rng)))
        elif kind == "spec":
            inst = generate(GenSpec.from_json(mutate(SPEC, rng)))
            run_instance(parse_instance(serialize_instance(inst)))
        else:
            inst, model, sol = rng.choice(solved)
            run_solution(parse_solution(mutate(format_solution(sol), rng), model), model, inst)
    except UpcycleNetError:
        pass


@pytest.fixture(scope="module")
def fuzz_inputs():
    suite = make_tiny_suite(SUITE_SEED)[:12]
    solved = [(inst, build_milp(inst), solve_exact(inst)[0]) for inst in suite]
    return suite, solved


@pytest.mark.parametrize("kind", CASES)
def test_mutated_inputs_end_in_typed_errors(kind, fuzz_inputs):
    for k in range(CASES[kind]):
        try:
            fuzz_case(kind, k, *fuzz_inputs)
        except Exception as exc:  # a warning is raised as one too
            raise AssertionError(f"{kind} case {k}: {type(exc).__name__}: {exc}") from exc
