"""Shared fixtures.

The expensive work (oracle passes and external solves over the whole tiny
suite, with pruning on and off) happens once per session in `suite_run`;
the equivalence and the conservation acceptance checks both read from it.
The other external solves that only need the adapter's answer happen once
per session too, in one adapter child (`adapter_solves`).
"""

from __future__ import annotations

import dataclasses
import json
import shlex
import shutil
import subprocess
import tempfile
import time
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path

import numpy as np
import pytest

from upcyclenet import (
    Instance,
    LpResult,
    Model,
    OracleCertificate,
    Solution,
    build_milp,
    oracle,
    parse_instance,
    run_external_solver,
    serialize_instance,
    simplex,
    solve_exact,
)
from upcyclenet.scenario import GenSpec, generate, make_tiny_suite, single_chain_instance

SUITE_SEED = 2026
COST_SCALE = 7.0

ADAPTER_PATH = Path(__file__).parent / "scipy_milp_adapter.py"


def _python3() -> str:
    return shutil.which("python3") or "python3"


def adapter_template(*extra: str) -> str:
    parts = [_python3(), str(ADAPTER_PATH), "{mps}", "{sol}", *extra]
    return " ".join(parts)


def have_scipy_milp() -> bool:
    try:
        from scipy.optimize import milp  # noqa: F401
    except ImportError:
        return False
    return True


def scale_costs(inst: Instance, k: float) -> Instance:
    """Same instance with every cost parameter multiplied by k.

    Rebuilt through the document form so the result is a fully independent
    object.
    """
    doc = json.loads(serialize_instance(inst))
    for ech in doc["echelons"].values():
        ech["op_cost_per_ton"] *= k
        for option in ech["size_options"]:
            option["install_cost_annual"] *= k
    doc["transport_cost"] = {p: v * k for p, v in doc["transport_cost"].items()}
    return parse_instance(json.dumps(doc))


def scaled_default_shape(fraction):
    """The default generator shape at seed 1 with every node count scaled,
    at least one of each."""
    base = GenSpec()
    counts = {field: max(1, round(getattr(base, field) * fraction))
              for field in ("n_sources", "n_cf", "n_rtf", "n_cpf", "n_dpf", "n_sinks")}
    return generate(dataclasses.replace(base, seed=1, **counts))


def cf_capacity_short_by(tons):
    """The hand instance with its CF size `tons` short of the 10 t quota."""
    doc = json.loads(serialize_instance(single_chain_instance()))
    doc["echelons"]["cf"]["size_options"][0]["max_capacity_tons"] = 10.0 - tons
    return parse_instance(json.dumps(doc))


def warned_instance(code):
    """The hand instance with a second material 'g' that the pruned model
    cannot move: the source supplies 4 t of it under a 0.5 quota that the
    CF does not accept (`quota-uncollectable`), or the CF makes it and the
    RTF does not accept it (`orphan-output`).  Unpruned, 'g' may vanish at
    that facility."""
    doc = json.loads(serialize_instance(single_chain_instance()))
    doc["materials"] = ["w", "g"]
    doc["transport_cost"]["g"] = 0.1
    if code == "quota-uncollectable":
        doc["sources"][0]["supply"]["t1"]["g"] = 4.0
        doc["quota"]["t1"]["g"] = 0.5
    else:
        doc["echelons"]["cf"]["outputs"] = ["g"]
        doc["echelons"]["cf"]["yields"] = {"g": 1.0}
    return parse_instance(json.dumps(doc))


@contextmanager
def permuted_columns(seed: int):
    """Inside the block the oracle's simplex sees every LP with its columns
    permuted by `np.random.default_rng(seed).permutation(len(c))`, and a
    warm start's held columns with them (its start basis was solved
    permuted the same way, as every LP of one instance has the same
    columns); each solution comes back in the LP's own column order."""
    real_solve_lp = oracle.solve_lp

    def permuted_solve_lp(c, a, senses, b, start=None, held=None):
        order = np.random.default_rng(seed).permutation(len(c))
        result = real_solve_lp(c[order], a[:, order], senses, b, start=start,
                               held=None if held is None else held[order])
        if result.x is None:
            return result
        x = np.empty_like(result.x)
        x[order] = result.x
        return dataclasses.replace(result, x=x)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(oracle, "solve_lp", permuted_solve_lp)
        yield


def restricted_lp(factory, config) -> LpResult:
    """A configuration's flow LP solved cold, the reference for the
    oracle's warm start: the factory's all-open LP cut to the columns
    whose origin and destination are both open, then to the rows that
    still have an entry plus the quota rows, with each capacity row at
    the chosen size (0 when closed).  `x` is padded with zeros to the
    all-open columns."""
    choice = np.asarray(config, dtype=np.intp)
    is_open = np.append(choice > 0, True)
    cols = (is_open[factory.origin] & is_open[factory.dest]).nonzero()[0]
    sub = factory.a[:, cols]
    rows = ((factory.senses == "G") | sub.any(axis=1)).nonzero()[0]
    rhs = factory.closed_rhs.copy()
    rhs[factory.cap_rows] = factory.slots.cap[factory.cap_slots, choice[factory.cap_slots]]
    result = simplex.solve_lp(factory.obj[cols], sub[rows], factory.senses[rows], rhs[rows])
    if result.x is None:
        return result
    x = np.zeros(factory.obj.size, dtype=np.float64)
    x[cols] = result.x
    return dataclasses.replace(result, x=x, warm=None)


@dataclass
class SuiteRecord:
    inst: Instance
    model: Model  # prune on
    model_off: Model
    sol_on: Solution
    cert_on: OracleCertificate
    sol_off: Solution
    sol_perm: Solution
    cert_perm: OracleCertificate
    sol_scaled: Solution
    cert_scaled: OracleCertificate
    external: Solution | None
    external_off: Solution | None  # of `model_off`; one solve with `external` if their files match


@dataclass
class SuiteRun:
    records: list[SuiteRecord]
    wall_seconds: float


@pytest.fixture(scope="session")
def hand_instance() -> Instance:
    return single_chain_instance()


@pytest.fixture(scope="session")
def tiny_suite() -> list[Instance]:
    return make_tiny_suite(SUITE_SEED)


def copying_solver(source: str, target: str) -> str:
    """A solver command template that copies `source` to `target`, where
    `"$0"` stands for the `{mps}` path and `"$1"` for the `{sol}` path."""
    return f"sh -c {shlex.quote(f'cp {source} {target}')} {{mps}} {{sol}}"


def solve_in_one_child(models: list[Model]) -> list[Solution]:
    """`run_external_solver(model, adapter_template())` of each model, with
    every distinct solver file solved once and all of them in one adapter
    child: each model's file is written by `run_external_solver` copying it
    out, the adapter solves the directory, and `run_external_solver` runs
    again per model copying the solution in, so that parse, lift,
    refinement and verification still go through the command path."""
    with tempfile.TemporaryDirectory(prefix="suite-") as tmp:
        stems: dict[bytes, int] = {}  # solver file -> the stem it is solved under
        stem_of = []
        for k, model in enumerate(models):
            mps = Path(tmp) / f"{k}.mps"
            run_external_solver(model, copying_solver('"$0"', shlex.quote(str(mps))))
            stem_of.append(stems.setdefault(mps.read_bytes(), k))
            if stem_of[-1] != k:
                mps.unlink()
        subprocess.run([_python3(), str(ADAPTER_PATH), tmp], check=True, timeout=120.0)
        return [run_external_solver(model, copying_solver(shlex.quote(f"{tmp}/{stem}.sol"), '"$1"'))
                for model, stem in zip(models, stem_of)]


@pytest.fixture(scope="session")
def adapter_solves() -> dict:
    """(model, its `run_external_solver(model, adapter_template())`) by
    case, all solved in one adapter child: "capacity-short"
    (`cf_capacity_short_by(5.0)`), (code, prune) for each
    `warned_instance`, and the `scaled_default_shape` fractions 0.05 and
    0.10."""
    models = {"capacity-short": build_milp(cf_capacity_short_by(5.0))}
    for code in ("quota-uncollectable", "orphan-output"):
        for prune in (True, False):
            models[code, prune] = build_milp(warned_instance(code), prune=prune)
    for fraction in (0.05, 0.10):
        models[fraction] = build_milp(scaled_default_shape(fraction))
    solutions = solve_in_one_child(list(models.values()))
    return {case: (model, sol) for (case, model), sol in zip(models.items(), solutions)}


@pytest.fixture(scope="session")
def suite_run(tiny_suite) -> SuiteRun:
    started = time.perf_counter()
    models = [build_milp(inst, prune=True) for inst in tiny_suite]
    models_off = [build_milp(inst, prune=False) for inst in tiny_suite]
    n = len(models)
    externals = solve_in_one_child(models + models_off) if have_scipy_milp() else [None] * (2 * n)
    records = []
    for inst, model, model_off, external, external_off in zip(
            tiny_suite, models, models_off, externals[:n], externals[n:]):
        sol_on, cert_on = solve_exact(inst, prune=True)
        sol_off, _ = solve_exact(inst, prune=False)
        with permuted_columns(1):
            sol_perm, cert_perm = solve_exact(inst, prune=True)
        sol_scaled, cert_scaled = solve_exact(scale_costs(inst, COST_SCALE), prune=True)
        records.append(
            SuiteRecord(
                inst=inst,
                model=model,
                model_off=model_off,
                sol_on=sol_on,
                cert_on=cert_on,
                sol_off=sol_off,
                sol_perm=sol_perm,
                cert_perm=cert_perm,
                sol_scaled=sol_scaled,
                cert_scaled=cert_scaled,
                external=external,
                external_off=external_off,
            )
        )
    return SuiteRun(records=records, wall_seconds=time.perf_counter() - started)
