"""Smoke-scale self-test of the benchmark.

    python3 perfbench/selftest.py

Runs every workload once at a small scale (a 5-member tiny suite, the 5%
shape for both model workloads), untraced and traced, and checks that each
run passes its checks and emits every metric of BENCHMARK.json with its
unit.  Then it corrupts one solution on each route and checks that the
failure is counted.  Takes about 15 s.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))

import bench  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def small_workloads() -> list:
    return [workloads.OracleTiny(size=5), workloads.ModelFull(fraction=0.05),
            workloads.External(fraction=0.05)]


class Corrupted:
    """A workload whose set-up state or pass output is damaged on purpose."""

    def __init__(self, inner, on_setup=None, on_pass=None) -> None:
        self.inner = inner
        self.on_setup = on_setup or (lambda state: state)
        self.on_pass = on_pass or (lambda out: out)

    def __getattr__(self, attr):
        return getattr(self.inner, attr)

    def setup(self, seed):
        return self.on_setup(self.inner.setup(seed))

    def run_pass(self, state):
        return self.on_pass(self.inner.run_pass(state))


def double_first_flow(text: str) -> str:
    lines = text.splitlines()
    k = next(i for i, line in enumerate(lines) if line.startswith("x"))
    name, value = lines[k].split()
    lines[k] = f"{name} {2.0 * float(value) + 1.0!r}"
    return "\n".join(lines) + "\n"


def corrupt_model_state(state: dict) -> dict:
    return dict(state, solution_text=double_first_flow(state["solution_text"]))


def corrupt_oracle_out(out: list) -> list:
    sol = next(sol for sol, _, _ in out if sol.status == "optimal")
    name = next(n for n in sol.values if n.startswith("x"))
    sol.values[name] = 2.0 * sol.values[name] + 1.0
    return out


def expect(condition: bool, what: str, problems: list[str]) -> None:
    print(("ok   " if condition else "FAIL ") + what)
    if not condition:
        problems.append(what)


def main() -> int:
    bench.keep_temp_files_in_checkout()
    problems: list[str] = []
    for workload in small_workloads():
        for trace, listed in ((False, SPEC["end_to_end"]), (True, SPEC["per_layer"])):
            record, result = bench.measure(workload, seed=2, seconds=0, trace=trace)
            mode = "traced" if trace else "untraced"
            expect(result["correct"] and result["failed"] == 0,
                   f"{workload.name} {mode}: checks pass {record['failures']}", problems)
            expected = {m["name"]: m["unit"] for m in listed}
            emitted = {k: v["unit"] for k, v in result["metrics"].items()}
            expect(emitted == expected, f"{workload.name} {mode}: every metric with its unit",
                   problems)
            expect(all(isinstance(v["value"], (int, float)) for v in result["metrics"].values()),
                   f"{workload.name} {mode}: numeric values", problems)

    oracle, model_full = small_workloads()[:2]
    for workload in (Corrupted(oracle, on_pass=corrupt_oracle_out),
                     Corrupted(model_full, on_setup=corrupt_model_state)):
        record, result = bench.measure(workload, seed=1, seconds=0, trace=False)
        expect(record["fail_ratio"] > 0 and not result["correct"],
               f"{workload.name}: corrupted solution counted, fail_ratio "
               f"{record['fail_ratio']:.3f}", problems)
    print("selftest " + ("FAILED: " + "; ".join(problems) if problems else "passed"))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
