"""Command line interface.

Exit codes: 0 on success (for `validate`, no ERROR findings; for `verify`,
a passing report), 1 on operational failures or a failing outcome, 2 on
usage errors (argparse's own convention).

Long-running solves report progress on standard error; standard output
carries only results.
"""

from __future__ import annotations

import argparse
import math
import sys
from pathlib import Path

from .errors import InstanceError, SolutionError, UpcycleNetError, read_text
from .instance import (
    ECHELON_TAGS,
    errors_only,
    parse_instance,
    serialize_instance,
    validate_instance,
)
from .model import build_milp, count_columns
from .model_io import (
    _dump_batches,
    _model_batches,
    _write_batches,
    format_solution,
    parse_solution,
    run_external_solver,
    verify_solution,
)
from .oracle import MAX_CONFIGS, solve_exact
from .reporting import (
    breakdown_costs,
    compute_utilization,
    export_flows,
    export_layout,
    utilization_csv,
)
from .scenario import GenSpec, generate


def _read_instance(path: str):
    return parse_instance(read_text(path, InstanceError))


def _print_findings(findings, stream) -> None:
    for f in findings:
        print(str(f), file=stream)


def _cmd_validate(args) -> int:
    inst = _read_instance(args.instance)
    findings = validate_instance(inst)
    _print_findings(findings, sys.stdout)
    errors = errors_only(findings)
    print(f"{len(errors)} error(s), {len(findings) - len(errors)} warning(s)")
    return 0 if not errors else 1


def _cmd_build(args) -> int:
    inst = _read_instance(args.instance)
    model = build_milp(inst, prune=args.prune == "on")
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    mps_path = out / "model.mps"
    dump_path = out / "model.dump.txt"
    _write_batches(_model_batches(model), mps_path)
    _write_batches(_dump_batches(model), dump_path)
    print(f"wrote {mps_path}")
    print(f"wrote {dump_path}")
    print(f"columns: {model.index.n_continuous} continuous + {model.index.n_binary} binary, "
          f"rows: {model.n_rows}")
    return 0


def _validation_gate(inst, override: bool) -> int | None:
    findings = validate_instance(inst)
    errors = errors_only(findings)
    _print_findings(findings, sys.stderr)
    if errors and not override:
        print(
            "error: instance fails validation; rerun with --override-validation to force",
            file=sys.stderr,
        )
        return 1
    return None


def _cmd_solve(args) -> int:
    inst = _read_instance(args.instance)
    gate = _validation_gate(inst, args.override_validation)
    if gate is not None:
        return gate
    prune = args.prune == "on"
    if args.oracle:
        def progress(done: int, total: int) -> None:
            print(f"oracle: {done}/{total} configurations", file=sys.stderr)

        sol, cert = solve_exact(inst, max_configs=args.max_configs, prune=prune,
                                progress=progress)
        print(cert.summary(), file=sys.stderr)
        # built after the oracle, which refuses a large instance before any LP work
        model = build_milp(inst, prune=prune)
    else:
        model = build_milp(inst, prune=prune)
        print(
            f"running external solver on {model.index.n_columns} columns",
            file=sys.stderr,
        )
        sol = run_external_solver(model, args.solver_cmd, time_limit=args.time_limit)
    if sol.diagnostics:
        print(sol.diagnostics, file=sys.stderr)
    if sol.status in ("infeasible", "unknown"):
        print(f"status: {sol.status}; no solution written", file=sys.stderr)
        return 1
    report = verify_solution(sol, model)
    if not report.passed:
        print(report.summary(), file=sys.stderr)
        print("error: solution failed verification; no solution written", file=sys.stderr)
        return 1
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    sol_path = out / "solution.sol"
    sol_path.write_text(format_solution(sol))
    print(f"wrote {sol_path}")
    print(f"status: {sol.status}, objective: {sol.objective_reported!r}")
    if sol.gap is not None:
        print(f"relative gap: {sol.gap!r}")
    return 0


def _verify_file(args):
    """The instance, its model, the parsed solution file and its verification."""
    inst = _read_instance(args.instance)
    model = build_milp(inst, prune=args.prune == "on")
    sol = parse_solution(read_text(args.solution, SolutionError), model)
    return inst, model, sol, verify_solution(sol, model, tol=args.tol)


def _cmd_verify(args) -> int:
    report = _verify_file(args)[3]
    print(report.summary())
    return 0 if report.passed else 1


def _cmd_report(args) -> int:
    inst, model, sol, report = _verify_file(args)
    if not report.passed:
        print(report.summary(), file=sys.stderr)
        print("error: solution failed verification; no reports written", file=sys.stderr)
        return 1
    breakdown = breakdown_costs(sol, model, inst)
    flows = export_flows(sol, inst)
    layout = export_layout(sol, inst)
    util = compute_utilization(sol, inst)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    outputs = {
        "breakdown.csv": breakdown.to_csv(),
        "flows.csv": flows.to_csv(),
        "facilities.csv": flows.facilities_csv(),
        "layout.csv": layout.to_csv(),
        "layout.geojson": layout.to_geojson(),
        "utilization.csv": utilization_csv(util),
    }
    for name, text in outputs.items():
        (out / name).write_text(text)
        print(f"wrote {out / name}")
    open_counts = ", ".join(f"{tag}={layout.open_count(tag)}" for tag in ECHELON_TAGS)
    print(f"total cost: {breakdown.total!r} {breakdown.currency}".rstrip())
    print(f"open facilities: {open_counts}")
    return 0


def _cmd_gen(args) -> int:
    if args.spec:
        spec = GenSpec.from_json(read_text(args.spec, InstanceError), seed=args.seed)
    else:
        spec = GenSpec(seed=args.seed if args.seed is not None else 0)
    inst = generate(spec)
    Path(args.out).write_text(serialize_instance(inst))
    n_cont, n_bin = count_columns(inst, prune=False)
    print(f"wrote {args.out}")
    print(f"instance '{inst.name}': {n_cont} continuous + {n_bin} binary variables unpruned")
    return 0


def _positive_seconds(text: str) -> float:
    value = float(text)
    if not (math.isfinite(value) and value > 0.0):
        raise argparse.ArgumentTypeError(f"must be a finite number of seconds above 0, got {text}")
    return value


def _config_count(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {text}")
    return value


def _tolerance(text: str) -> float:
    value = float(text)
    if not (math.isfinite(value) and value >= 0.0):
        raise argparse.ArgumentTypeError(f"must be finite and at least 0, got {text}")
    return value


def _add_instance(p) -> None:
    p.add_argument("--instance", required=True, help="instance JSON file")


def _add_prune(p) -> None:
    p.add_argument("--prune", choices=["on", "off"], default="on",
                   help="material admissibility pruning (default on)")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="upcyclenet",
        description="Reverse supply chain network design for plastic upcycling",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("validate", help="check an instance for structural problems")
    _add_instance(p)
    p.set_defaults(func=_cmd_validate)

    p = sub.add_parser("build", help="write the MPS model and a readable dump")
    _add_instance(p)
    p.add_argument("--out", required=True, help="output directory")
    _add_prune(p)
    p.set_defaults(func=_cmd_build)

    p = sub.add_parser("solve", help="optimize and write a solution file")
    _add_instance(p)
    p.add_argument("--out", required=True, help="output directory")
    _add_prune(p)
    engine = p.add_mutually_exclusive_group(required=True)
    engine.add_argument("--oracle", action="store_true",
                        help="exhaustive built-in solver (small instances only)")
    engine.add_argument("--solver-cmd", metavar="TEMPLATE",
                        help="external solver command with {mps} and {sol} placeholders")
    p.add_argument("--time-limit", type=_positive_seconds, default=None,
                   help="seconds before the external solver is cut off")
    p.add_argument("--max-configs", type=_config_count, default=MAX_CONFIGS,
                   help="oracle refuses instances with more configurations than this")
    p.add_argument("--override-validation", action="store_true",
                   help="solve even when validation reports errors")
    p.set_defaults(func=_cmd_solve)

    p = sub.add_parser("verify", help="check a solution file against the model")
    _add_instance(p)
    p.add_argument("--solution", required=True, help="solution file")
    _add_prune(p)
    p.add_argument("--tol", type=_tolerance, default=1e-6, help="row violation tolerance")
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("report", help="write cost, flow, layout and utilization tables")
    _add_instance(p)
    p.add_argument("--solution", required=True, help="solution file")
    p.add_argument("--out", required=True, help="output directory")
    _add_prune(p)
    p.add_argument("--tol", type=_tolerance, default=1e-6, help="verification tolerance")
    p.set_defaults(func=_cmd_report)

    p = sub.add_parser("gen", help="generate a synthetic instance")
    p.add_argument("--out", required=True, help="instance file to write")
    p.add_argument("--seed", type=int, default=None, help="random seed")
    p.add_argument("--spec", default=None, help="generator settings JSON file")
    p.set_defaults(func=_cmd_gen)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except UpcycleNetError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
