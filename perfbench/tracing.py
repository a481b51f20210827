"""Spans around calls into upcyclenet, recorded only in the traced run.

The traced run replaces public functions on their modules with wrappers
(`traced_package`).  Calls made inside the package find the wrapper through
the same module attribute: `solve_exact` looks up `oracle.solve_lp`, and
`run_external_solver` looks up `model_io.write_mps` and
`model_io.parse_solution`.  The benchmark's own pass code calls every
function through its module attribute for the same reason.

Spans stay in memory as [name, start, end, parent index, pass id] and are
written out once the run ends.  A span's self time is its duration minus
the durations of its children; calls are sequential, so children never
overlap.
"""

from __future__ import annotations

import json
import time
from collections import defaultdict
from contextlib import contextmanager

import upcyclenet

# (module, attribute, span name, hook run on the result outside the span)
TRACED = (
    ("scenario", "generate", "scenario.generate", None),
    ("scenario", "make_tiny_suite", "scenario.make_tiny_suite", None),
    ("instance", "serialize_instance", "instance.serialize_instance", None),
    ("instance", "parse_instance", "instance.parse_instance", None),
    ("instance", "validate_instance", "instance.validate_instance", None),
    ("model", "build_milp", "model.build_milp", None),
    ("model_io", "write_mps", "model_io.write_mps",
     lambda tracer, text: tracer.add("model_io.mps_bytes",
                                     len(text) if text.isascii() else len(text.encode()))),
    ("model_io", "parse_solution", "model_io.parse_solution", None),
    ("model_io", "verify_solution", "model_io.verify_solution", None),
    ("model_io", "run_external_solver", "model_io.run_external_solver", None),
    ("oracle", "solve_exact", "oracle.solve_exact", None),
    ("oracle", "solve_lp", "simplex.solve_lp",
     lambda tracer, result: tracer.add("simplex.pivots", result.iterations)),
    ("reporting", "breakdown_costs", "reporting.breakdown_costs", None),
    ("reporting", "export_flows", "reporting.export_flows", None),
    ("reporting", "export_layout", "reporting.export_layout", None),
    ("reporting", "compute_utilization", "reporting.compute_utilization", None),
)

PASS_SPAN = "bench.pass"


class Tracer:
    """In-memory span recorder; records only while a pass id is set."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.counters: dict[str, dict[str, int]] = defaultdict(lambda: defaultdict(int))
        self.pass_id: str | None = None
        self._open: list[int] = []

    def _begin(self, name: str) -> list:
        span = [name, 0.0, 0.0, self._open[-1] if self._open else None, self.pass_id]
        self._open.append(len(self.spans))
        self.spans.append(span)
        span[1] = time.perf_counter()
        return span

    def _end(self, span: list) -> None:
        span[2] = time.perf_counter()
        self._open.pop()

    def add(self, counter: str, amount: int) -> None:
        if self.pass_id is not None:
            self.counters[self.pass_id][counter] += amount

    @contextmanager
    def recording(self, pass_id: str, root: str | None = None):
        """Record spans under `pass_id`, optionally inside a root span."""
        self.pass_id = pass_id
        span = self._begin(root) if root else None
        try:
            yield
        finally:
            if span is not None:
                self._end(span)
            self.pass_id = None

    def wrap(self, name: str, fn, hook=None):
        def traced(*args, **kwargs):
            if self.pass_id is None:
                return fn(*args, **kwargs)
            span = self._begin(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._end(span)
            if hook is not None:
                hook(self, result)
            return result

        return traced

    def totals(self) -> dict[str, dict[str, dict[str, float]]]:
        """pass id -> span name -> {'time', 'self', 'calls'}."""
        child_time = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent is not None:
                child_time[parent] += end - start
        out: dict = defaultdict(lambda: defaultdict(lambda: {"time": 0.0, "self": 0.0, "calls": 0}))
        for k, (name, start, end, _, pass_id) in enumerate(self.spans):
            entry = out[pass_id][name]
            entry["time"] += end - start
            entry["self"] += end - start - child_time[k]
            entry["calls"] += 1
        return out

    def dump(self, path) -> None:
        keys = ("name", "start", "end", "parent", "pass")
        doc = {
            "spans": [dict(zip(keys, span)) for span in self.spans],
            "counters": {p: dict(c) for p, c in self.counters.items()},
        }
        path.write_text(json.dumps(doc))


@contextmanager
def traced_package(tracer: Tracer):
    """Swap every function in TRACED for a recording wrapper, then restore."""
    saved = []
    try:
        for module_name, attr, span_name, hook in TRACED:
            module = getattr(upcyclenet, module_name)
            original = getattr(module, attr)
            saved.append((module, attr, original))
            setattr(module, attr, tracer.wrap(span_name, original, hook))
        yield
    finally:
        for module, attr, original in reversed(saved):
            setattr(module, attr, original)
