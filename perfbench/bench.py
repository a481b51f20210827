"""Measurement loop and metrics for one benchmark run; see run.py."""

from __future__ import annotations

import gc
import json
import os
import platform
import resource
import statistics
import tempfile
import time
from contextlib import nullcontext
from importlib import metadata
from pathlib import Path

import tracing
from probe import SpeedProbe
from upcyclenet import UpcycleNetError

ROOT = Path(__file__).resolve().parents[1]
OUT_DIR = ROOT / ".bench_out"
SETUP_REPEATS = 3


def keep_temp_files_in_checkout() -> None:
    """Point this process and its children at a temp directory in the checkout,
    so the external solver's model and solution files stay inside it."""
    tmp = OUT_DIR / "tmp"
    tmp.mkdir(parents=True, exist_ok=True)
    os.environ["TMPDIR"] = str(tmp)
    tempfile.tempdir = str(tmp)


def percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    return ordered[max(0, -(-len(ordered) * q // 100) - 1)]


def machine() -> dict:
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as f:
            cpu = next((line.split(":", 1)[1].strip() for line in f
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    versions = {}
    for dist in ("numpy", "scipy"):
        try:
            versions[dist] = metadata.version(dist)
        except metadata.PackageNotFoundError:
            versions[dist] = None
    return {"python": platform.python_version(), **versions,
            "nproc": len(os.sched_getaffinity(0)), "cpu": cpu}


def layer_metrics(tracer, pass_ids: list[str], setup_ids: list[str],
                  counts: dict[str, int], item_times: list[float]) -> dict[str, float]:
    """Per-layer metrics: medians over passes of per-pass span totals."""
    totals = tracer.totals()

    def med(fn, ids=pass_ids) -> float:
        return statistics.median(fn(totals[i], tracer.counters[i]) for i in ids)

    def span_time(*names, field="time"):
        return lambda t, c: sum(t[n][field] for n in names if n in t)

    oracle_s = med(span_time("oracle.solve_exact"))
    lp_s = med(span_time("simplex.solve_lp"))
    metrics = {
        "scenario.generate_s": med(span_time("scenario.generate", "scenario.make_tiny_suite"),
                                   setup_ids),
        "instance.serialize_s": med(span_time("instance.serialize_instance")),
        "instance.parse_s": med(span_time("instance.parse_instance")),
        "instance.validate_s": med(span_time("instance.validate_instance")),
        "model.build_s": med(span_time("model.build_milp")),
        "model_io.write_mps_s": med(span_time("model_io.write_mps")),
        "model_io.mps_bytes": med(lambda t, c: c["model_io.mps_bytes"]),
        "model_io.parse_solution_s": med(span_time("model_io.parse_solution")),
        "model_io.verify_s": med(span_time("model_io.verify_solution")),
        "model_io.solver_wait_s": med(span_time("model_io.run_external_solver", field="self")),
        "oracle.solve_exact_s": oracle_s,
        "oracle.self_s": med(span_time("oracle.solve_exact", field="self")),
        "simplex.solve_lp_s": lp_s,
        "simplex.calls": med(span_time("simplex.solve_lp", field="calls")),
        "simplex.pivots": med(lambda t, c: c["simplex.pivots"]),
        "reporting.breakdown_s": med(span_time("reporting.breakdown_costs")),
        "reporting.flows_s": med(span_time("reporting.export_flows")),
        "reporting.layout_s": med(span_time("reporting.export_layout")),
        "reporting.utilization_s": med(span_time("reporting.compute_utilization")),
        "bench.self_s": med(span_time(tracing.PASS_SPAN, field="self")),
        "trace.pass_s": med(span_time(tracing.PASS_SPAN)),
    }
    for name in ("oracle.configs_enumerated", "oracle.configs_pruned",
                 "oracle.configs_infeasible", "oracle.configs_solved",
                 "model.columns", "model.binaries", "model.rows", "model.nonzeros",
                 "model_io.solver_gap"):
        metrics[name] = counts.get(name, 0)
    enumerated = metrics["oracle.configs_enumerated"]
    metrics["oracle.solved_ratio"] = metrics["oracle.configs_solved"] / enumerated if enumerated else 0.0
    metrics["oracle.configs_per_s"] = enumerated / oracle_s if oracle_s else 0.0
    metrics["simplex.pivots_per_s"] = metrics["simplex.pivots"] / lp_s if lp_s else 0.0
    metrics["oracle.item_p50_s"] = statistics.median(item_times) if item_times else 0.0
    metrics["oracle.item_p80_s"] = percentile(item_times, 80) if item_times else 0.0
    return metrics


def measure(workload, seed: int, seconds: float, trace: bool,
            import_s: float = 0.0) -> tuple[dict, dict]:
    """Set up, run passes and check each; returns the run record and the result."""
    tracer, probe = tracing.Tracer(), SpeedProbe()
    # a traced run records spans and does not probe; an untraced run probes
    if trace:
        recording, sampling, normalise = tracer.recording, nullcontext, float
    else:
        recording, sampling, normalise = (lambda *_: nullcontext()), probe.sampling, probe.normalise
    with tracing.traced_package(tracer) if trace else nullcontext():
        setup_times, setup_ids = [], []
        for k in range(SETUP_REPEATS):
            gc.collect()
            setup_ids.append(f"setup-{k}")
            with sampling():
                t0 = time.perf_counter()
                with recording(setup_ids[-1]):
                    state = workload.setup(seed)
                wall = time.perf_counter() - t0
            setup_times.append(normalise(wall))

        pass_times, wall_times, pass_ids, item_times, failures = [], [], [], [], []
        attempted = enumerated = 0
        first_counts = shape = None
        while not wall_times or sum(wall_times) < seconds:
            gc.collect()
            pass_ids.append(f"pass-{len(pass_ids)}")
            out = None
            with sampling():
                t0 = time.perf_counter()
                try:
                    with recording(pass_ids[-1], tracing.PASS_SPAN):
                        out = workload.run_pass(state)
                except UpcycleNetError as exc:
                    failures.append(f"{workload.name}: pass raised {exc!r}")
                wall_times.append(time.perf_counter() - t0)
            pass_times.append(normalise(wall_times[-1]))
            if out is None:
                attempted += 1
                continue
            n, failed = workload.check(state, out)
            attempted += n
            failures += failed
            counts = workload.counts(out)
            if trace:
                counts.update(tracer.counters[pass_ids[-1]])
            if first_counts is None:
                first_counts = counts
            elif counts != first_counts:
                failures.append(f"{workload.name}: counts {counts} differ from first pass {first_counts}")
            item_times += workload.item_times(out)
            enumerated += counts.get("oracle.configs_enumerated", 0)
            if shape is None:
                shape = workload.shape(state, out)
            del out  # a pass's outputs must not stay alive through the next pass

    record = {
        "workload": workload.name, "seed": seed, "trace": int(trace),
        "shape": shape, "machine": machine(),
        "import_s": import_s, "setup_s_samples": setup_times,
        "pass_s_samples": pass_times, "pass_wall_s_samples": wall_times,
        "attempted": attempted, "failed": len(failures),
        "fail_ratio": len(failures) / attempted if attempted else 1.0,
        "failures": failures[:20],
    }
    if item_times:
        oracle_time = sum(item_times)
        record["items"] = {
            "samples": len(item_times),
            "item_p50_s": statistics.median(item_times),
            "item_p80_s": percentile(item_times, 80),
            "configs_per_s": enumerated / oracle_time,
        }
    if trace:
        metrics = layer_metrics(tracer, pass_ids, setup_ids, first_counts or {}, item_times)
        OUT_DIR.mkdir(exist_ok=True)
        tracer.dump(OUT_DIR / f"trace-{workload.name}-seed{seed}.json")
    else:
        metrics = {
            "setup_s": import_s + statistics.median(setup_times),
            "pass_s": statistics.median(pass_times),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
    return record, {"correct": not failures, "attempted": attempted,
                    "failed": len(failures), "metrics": with_units(metrics, trace)}


def with_units(metrics: dict[str, float], trace: bool) -> dict:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    listed = spec["per_layer" if trace else "end_to_end"]
    return {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]} for m in listed}
