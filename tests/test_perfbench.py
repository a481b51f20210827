"""The benchmark's view of the package.

`perfbench/workloads.py` reads package attributes that no other test
touches: `index.legs[*].sizes/dest_role/start/count`,
`index.installs[*].offset/sites/echelon`, `model.rows` and
`index.column_name`; the external workload alone goes through
`run_external_solver` and the HiGHS adapter child.  One set-up, pass and
check of each workload at a small size makes a rename of any of them fail
here, not first in the benchmark.
"""

import importlib.util
from pathlib import Path

import pytest

pytest.importorskip("scipy")  # the model workload's reference solution is a scipy LP

WORKLOADS_PY = Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"


@pytest.fixture(scope="module")
def workloads():
    spec = importlib.util.spec_from_file_location("perfbench_workloads", WORKLOADS_PY)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("name, kwargs", [
    ("ModelFull", {"fraction": 0.05}),
    ("OracleTiny", {"size": 5}),
    ("External", {"fraction": 0.02}),
])
def test_benchmark_workload_runs_clean(workloads, name, kwargs):
    workload = getattr(workloads, name)(**kwargs)
    state = workload.setup(workloads.CANONICAL_SEED)
    out = workload.run_pass(state)
    attempted, failures = workload.check(state, out)
    assert attempted >= 1
    assert failures == []
    assert all(value >= 0 for value in workload.counts(out).values())
    assert workload.shape(state, out)["columns"] > 0
