"""The three benchmark workloads: set-up, one timed pass, and the checks.

Each workload is one closed loop with a single caller: the benchmark waits
for every result before it asks for the next.  Package functions are called
through their module attributes (`un.model.build_milp`, ...) so that the
traced run can wrap them; see tracing.py.

`--seed` renames the nodes within each role (the source declared third
gets another source's id, and so on) and changes nothing else.  Every seed
therefore solves the same network in the same declaration order, so the
guard counts repeat exactly and the recorded optima hold on every seed.
Seed 1 keeps the generator's own ids, which is the labelling the recorded
MPS digest belongs to.  Varying the network itself is no option for a
bounded benchmark: HiGHS takes 8.8-27.8 s on the 10% shape over generator
seeds 1-6, and 5.9-10.7 s over six node orders of seed 1.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import random
import shlex
import sys
import time
from pathlib import Path

import numpy as np

import upcyclenet as un

RECORDED = json.loads((Path(__file__).parent / "recorded.json").read_text())

CANONICAL_SEED = 1  # the --seed that keeps the generator's node ids
GEN_SEED = 1  # generator seed of both model workloads
COUNT_FIELDS = ("n_sources", "n_cf", "n_rtf", "n_cpf", "n_dpf", "n_sinks")
REL_TOL = 1e-6  # verify_solution's own default, used for every objective match
ORACLE_TOL = 1e-9  # the oracle's tie tolerance, for recorded oracle optima


def relabel(inst: un.Instance, seed: int) -> un.Instance:
    """The same instance with node ids permuted within each role."""
    doc = json.loads(un.instance.serialize_instance(inst))
    if seed != CANONICAL_SEED:
        rng = random.Random(seed)
        groups = [doc["sources"], doc["sinks"]]
        groups += [echelon["sites"] for echelon in doc["echelons"].values()]
        for nodes in groups:
            ids = [node["id"] for node in nodes]
            rng.shuffle(ids)
            for node, new_id in zip(nodes, ids):
                node["id"] = new_id
    return un.instance.parse_instance(json.dumps(doc))


def scaled_spec(fraction: float) -> un.GenSpec:
    """The default generator shape at seed 1, every node count scaled, minimum 1."""
    base = un.GenSpec()
    counts = {f: max(1, round(getattr(base, f) * fraction)) for f in COUNT_FIELDS}
    return dataclasses.replace(base, seed=GEN_SEED, **counts)


def model_shape(model: un.Model) -> dict[str, int]:
    return {
        "columns": model.n_columns,
        "binaries": model.index.n_binary,
        "rows": len(model.rows),
        "nonzeros": sum(len(row.cols) for row in model.rows),
    }


def mps_digest(text: str) -> tuple[int, str]:
    """Byte count and sha256 of MPS text, encoded piece by piece so that no
    second copy of a 111 MB file raises the process's peak memory."""
    digest = hashlib.sha256()
    size = 0
    for start in range(0, len(text), 1 << 20):
        chunk = text[start:start + (1 << 20)].encode()
        size += len(chunk)
        digest.update(chunk)
    return size, digest.hexdigest()


def close(a: float, b: float, rel: float) -> bool:
    return abs(a - b) <= rel * max(1.0, abs(b))


def report_problems(out: dict) -> list[str]:
    """Verification PASS and a cost breakdown that reconciles with the objective."""
    problems = []
    if not out["report"].passed:
        problems.append(out["report"].summary())
    total, objective = out["costs"].total, out["sol"].objective_reported
    if not close(total, objective, REL_TOL):
        problems.append(f"breakdown total {total!r} != objective {objective!r}")
    return problems


class Workload:
    """What bench.measure needs from a workload.

    `setup(seed)` makes the inputs, `run_pass(state)` is the timed work,
    `check(state, out)` returns (operations attempted, failure messages),
    `counts(out)` the values that must repeat exactly from pass to pass,
    `item_times(out)` per-item latencies, and `shape(state, out)` the
    input's size for the run record.
    """

    name = ""

    def item_times(self, out) -> list[float]:
        return []


class OracleTiny(Workload):
    """The tiny suite through `solve_exact`, pruning on, default limits."""

    name = "oracle-tiny"

    def __init__(self, size: int = 55) -> None:
        self.size = size
        self.recorded = RECORDED[self.name]
        self._models: dict[str, un.Model] = {}

    def setup(self, seed: int) -> list[un.Instance]:
        suite = un.scenario.make_tiny_suite(self.recorded["suite_seed"], size=self.size)
        self._models = {}
        return [relabel(inst, seed) for inst in suite]

    def run_pass(self, suite: list[un.Instance]) -> list:
        out = []
        for inst in suite:
            t0 = time.perf_counter()
            sol, cert = un.oracle.solve_exact(inst)
            out.append((sol, cert, time.perf_counter() - t0))
        return out

    def model(self, inst: un.Instance) -> un.Model:
        if inst.name not in self._models:
            self._models[inst.name] = un.build_milp(inst)
        return self._models[inst.name]

    def check(self, suite: list[un.Instance], out: list) -> tuple[int, list[str]]:
        failures = []
        for inst, (sol, cert, _) in zip(suite, out):
            problems = []
            if cert.pruned + cert.infeasible + cert.solved != cert.enumerated:
                problems.append(f"certificate does not add up: {cert.summary()}")
            if sol.status == "optimal":
                report = un.verify_solution(sol, self.model(inst))
                if not report.passed:
                    problems.append(report.summary())
            expected = self.recorded["members"].get(inst.name)
            if expected is not None:
                if expected["best_objective"] is None:
                    if cert.best_objective is not None:
                        problems.append(f"expected infeasible, got {cert.best_objective!r}")
                elif cert.best_objective is None or not close(
                        cert.best_objective, expected["best_objective"], ORACLE_TOL):
                    problems.append(f"objective {cert.best_objective!r}, "
                                    f"recorded {expected['best_objective']!r}")
                configuration = cert.best_configuration
                if (list(configuration) if configuration else None) != expected["best_configuration"]:
                    problems.append(f"configuration {configuration}, "
                                    f"recorded {expected['best_configuration']}")
            if inst.name == "single-chain" and (
                    sol.status != "optimal" or not close(sol.objective_reported, 540.0, ORACLE_TOL)):
                problems.append(f"single-chain gives {sol.status} {sol.objective_reported!r}, not 540")
            if inst.name == "quota-over-capacity" and sol.status != "infeasible":
                problems.append(f"quota-over-capacity is {sol.status}, not infeasible")
            if problems:
                failures.append(f"{inst.name}: " + "; ".join(problems))
        return len(out), failures

    def counts(self, out: list) -> dict[str, int]:
        return {
            "oracle.configs_enumerated": sum(c.enumerated for _, c, _ in out),
            "oracle.configs_pruned": sum(c.pruned for _, c, _ in out),
            "oracle.configs_infeasible": sum(c.infeasible for _, c, _ in out),
            "oracle.configs_solved": sum(c.solved for _, c, _ in out),
        }

    def item_times(self, out: list) -> list[float]:
        return [dt for _, _, dt in out]

    def shape(self, suite: list[un.Instance], out: list) -> dict:
        shape = {"instances": len(suite), "columns": 0, "binaries": 0, "rows": 0,
                 "nonzeros": 0, "mps_bytes": 0, "configurations": 0}
        for inst in suite:
            model = self.model(inst)
            for key, value in model_shape(model).items():
                shape[key] += value
            shape["mps_bytes"] += mps_digest(un.write_mps(model))[0]
            shape["configurations"] += un.count_configurations(inst)
        return shape


class ModelFull(Workload):
    """The case-study path at the default shape against a reference solution."""

    name = "model-full"

    def __init__(self, fraction: float = 1.0) -> None:
        self.fraction = fraction
        self.recorded = RECORDED[self.name]

    def setup(self, seed: int) -> dict:
        inst = relabel(un.scenario.generate(scaled_spec(self.fraction)), seed)
        recorded = self.recorded
        at_shape = self.fraction == recorded["fraction"]
        return {"inst": inst, "solution_text": reference_solution(inst),
                "mps_bytes": recorded["mps_bytes"] if at_shape else None,
                "mps_sha256": recorded["mps_sha256"] if at_shape and seed == recorded["seed"] else None}

    def run_pass(self, state: dict) -> dict:
        text = un.instance.serialize_instance(state["inst"])
        inst = un.instance.parse_instance(text)
        findings = un.instance.validate_instance(inst)
        model = un.model.build_milp(inst)
        mps = un.model_io.write_mps(model)
        sol = un.model_io.parse_solution(state["solution_text"], model)
        report = un.model_io.verify_solution(sol, model)
        costs = un.reporting.breakdown_costs(sol, model, inst)
        un.reporting.export_flows(sol, inst)
        un.reporting.export_layout(sol, inst)
        un.reporting.compute_utilization(sol, inst)
        return {"inst": inst, "findings": findings, "model": model, "mps": mps,
                "sol": sol, "report": report, "costs": costs}

    def check(self, state: dict, out: dict) -> tuple[int, list[str]]:
        problems = [str(f) for f in un.errors_only(out["findings"])] + report_problems(out)
        size, digest = mps_digest(out["mps"])
        if state["mps_bytes"] is not None and size != state["mps_bytes"]:
            problems.append(f"MPS has {size} bytes, recorded {state['mps_bytes']}")
        if state["mps_sha256"] is not None:
            if digest != state["mps_sha256"]:
                problems.append(f"MPS sha256 {digest} != recorded {state['mps_sha256']}")
        return 1, ["model-full: " + "; ".join(problems)] if problems else []

    def counts(self, out: dict) -> dict[str, int]:
        return {f"model.{k}": v for k, v in model_shape(out["model"]).items()}

    def shape(self, state: dict, out: dict) -> dict:
        return dict(model_shape(out["model"]), mps_bytes=mps_digest(out["mps"])[0],
                    configurations=un.count_configurations(out["inst"]))


def reference_solution(inst: un.Instance) -> str:
    """A feasible solution with every site open at its largest size.

    With the install binaries fixed, what is left is an LP over the flow
    columns at those sizes; scipy's HiGHS solves it from the model's own
    rows.  Flow columns at any other size are held at 0 by their capacity
    rows, so they are left out.  Returned in the solution file format, which
    each pass parses back.
    """
    from scipy.optimize import linprog
    from scipy.sparse import csr_matrix

    model = un.build_milp(inst)
    rows = model.rows
    n = model.n_columns
    fixed = np.zeros(n)
    free = np.ones(n, dtype=bool)
    for space in model.index.installs:
        caps = [o.max_capacity_tons for o in inst.echelon(space.echelon).size_options]
        largest = int(np.argmax(caps))
        for site in range(len(space.sites)):
            fixed[space.offset(site, largest)] = 1.0
    free[model.index.n_continuous:] = False
    for space in model.index.legs:
        if space.sizes:
            caps = [o.max_capacity_tons for o in inst.echelon(space.dest_role).size_options]
            size_of = np.arange(space.count) % len(space.sizes)
            free[space.start:space.start + space.count] = size_of == int(np.argmax(caps))

    lengths = [len(row.cols) for row in rows]
    indptr = np.concatenate(([0], np.cumsum(lengths)))
    indices = np.fromiter((c for row in rows for c in row.cols), dtype=np.int64, count=indptr[-1])
    data = np.fromiter((v for row in rows for v in row.coefs), dtype=np.float64, count=indptr[-1])
    a = csr_matrix((data, indices, indptr), shape=(len(rows), n))
    rhs = np.array([row.rhs for row in rows]) - a @ fixed
    sense = np.array([row.sense for row in rows])
    a = a[:, np.flatnonzero(free)].tocsr()
    sign = np.where(sense == "G", -1.0, 1.0)
    ub, eq = sense != "E", sense == "E"
    res = linprog(model.objective[free],
                  A_ub=a[ub].multiply(sign[ub][:, None]).tocsr(), b_ub=(rhs * sign)[ub],
                  A_eq=a[eq], b_eq=rhs[eq], bounds=(0, None), method="highs")
    if res.status != 0:
        raise RuntimeError(f"reference LP failed: {res.message}")
    x = fixed.copy()
    x[free] = res.x
    values = {model.index.column_name(c): float(x[c]) for c in np.flatnonzero(x)}
    sol = un.Solution(values=values, objective_reported=float(model.objective @ x),
                      status="feasible")
    return un.format_solution(sol)


class External(Workload):
    """A scaled default shape handed to the tests' scipy/HiGHS adapter."""

    name = "external-10pct"

    def __init__(self, fraction: float = 0.1) -> None:
        self.fraction = fraction
        self.recorded = RECORDED[self.name]
        adapter = Path(__file__).resolve().parents[1] / "tests" / "scipy_milp_adapter.py"
        self.solver_cmd = f"{shlex.quote(sys.executable)} {shlex.quote(str(adapter))} {{mps}} {{sol}}"

    def setup(self, seed: int) -> dict:
        inst = relabel(un.scenario.generate(scaled_spec(self.fraction)), seed)
        objective = self.recorded["objective"] if self.fraction == self.recorded["fraction"] else None
        return {"inst": inst, "objective": objective}

    def run_pass(self, state: dict) -> dict:
        inst = state["inst"]
        model = un.model.build_milp(inst)
        sol = un.model_io.run_external_solver(model, self.solver_cmd)
        report = un.model_io.verify_solution(sol, model)
        costs = un.reporting.breakdown_costs(sol, model, inst)
        return {"model": model, "sol": sol, "report": report, "costs": costs}

    def check(self, state: dict, out: dict) -> tuple[int, list[str]]:
        sol = out["sol"]
        problems = report_problems(out)
        if sol.status != "optimal":
            problems.append(f"status {sol.status}: {sol.diagnostics[-500:]}")
        if state["objective"] is not None and not close(
                sol.objective_reported, state["objective"], REL_TOL):
            problems.append(f"objective {sol.objective_reported!r}, recorded {state['objective']!r}")
        return 1, ["external-10pct: " + "; ".join(problems)] if problems else []

    def counts(self, out: dict) -> dict[str, float]:
        counts = {f"model.{k}": v for k, v in model_shape(out["model"]).items()}
        counts["model_io.solver_gap"] = out["sol"].gap or 0.0
        return counts

    def shape(self, state: dict, out: dict) -> dict:
        model = out["model"]
        return dict(model_shape(model), mps_bytes=mps_digest(un.write_mps(model))[0],
                    configurations=un.count_configurations(state["inst"]))


WORKLOADS = {w.name: w for w in (OracleTiny, ModelFull, External)}
