"""Shared fixtures.

The expensive work (oracle passes and external solves over the whole tiny
suite, with pruning on and off) happens once per session in `suite_run`;
the equivalence and the conservation acceptance checks both read from it.
"""

from __future__ import annotations

import dataclasses
import json
import os
import shutil
import time
from concurrent.futures import ThreadPoolExecutor
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path

import numpy as np
import pytest

from upcyclenet import (
    Instance,
    Model,
    OracleCertificate,
    Solution,
    build_milp,
    oracle,
    parse_instance,
    run_external_solver,
    serialize_instance,
    solve_exact,
    write_mps,
)
from upcyclenet.scenario import make_tiny_suite, single_chain_instance

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


@contextmanager
def permuted_columns(seed: int):
    """Inside the block the oracle's simplex sees every LP with its columns
    permuted by `np.random.default_rng(seed).permutation(len(c))`; each
    solution comes back in the LP's own column order."""
    real_solve_lp = oracle.solve_lp

    def permuted_solve_lp(c, a, senses, b):
        order = np.random.default_rng(seed).permutation(len(c))
        result = real_solve_lp(c[order], a[:, order], senses, b)
        if result.x is None:
            return result
        x = np.empty_like(result.x)
        x[order] = result.x
        return dataclasses.replace(result, x=x)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(oracle, "solve_lp", permuted_solve_lp)
        yield


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
    external_off: Solution | None  # of `model_off`; `external` when their MPS is the same


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


@pytest.fixture(scope="session")
def suite_run(tiny_suite) -> SuiteRun:
    started = time.perf_counter()
    cmd = adapter_template() if have_scipy_milp() else None
    models = [build_milp(inst, prune=True) for inst in tiny_suite]
    models_off = [build_milp(inst, prune=False) for inst in tiny_suite]
    records = []
    # each external solve waits on its own child process, so the solves
    # overlap with each other and with the oracle passes below; a member
    # whose two models write the same MPS is solved once
    with ThreadPoolExecutor(max_workers=min(2, os.cpu_count() or 1)) as pool:
        def solve(model):
            return pool.submit(run_external_solver, model, cmd, time_limit=120.0) if cmd else None

        externals = []
        for model, model_off in zip(models, models_off):
            on = solve(model)
            same = write_mps(model) == write_mps(model_off)
            externals.append((on, on if same else solve(model_off)))
        for inst, model, model_off, pending in zip(tiny_suite, models, models_off, externals):
            sol_on, cert_on = solve_exact(inst, prune=True)
            sol_off, _ = solve_exact(inst, prune=False)
            with permuted_columns(1):
                sol_perm, cert_perm = solve_exact(inst, prune=True)
            sol_scaled, cert_scaled = solve_exact(scale_costs(inst, COST_SCALE), prune=True)
            external, external_off = (p.result() if p else None for p in pending)
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
