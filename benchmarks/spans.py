"""Timing spans around the package's layer functions, installed from outside.

``Tracer.install`` replaces each listed function or method with a wrapper
that records a span (name, start, end, parent span, op id) and the layer's
counters.  A module-level function is replaced under every name that binds
it in any ``cptinvest`` module, since modules import each other's functions
by name (``oracle`` binds ``prospect_value``, ``cli`` binds ``verify``).
Span times are the process's CPU time in nanoseconds, like the op times of
the untraced runs.  Spans stay in memory until ``write`` dumps them at the
end of the run.
"""

from __future__ import annotations

import functools
import gzip
import json
import sys
from collections import defaultdict
from time import process_time_ns

import numpy as np

from cptinvest import binomial, choquet, cli, config, continuous, distributions, oracle
from cptinvest import preferences

FAMILIES = {"Lognormal": "lognormal", "Normal": "normal", "StudentT": "student-t",
            "Binomial": "two-state", "Empirical": "empirical"}

# Layers whose `per_op` stat counts calls per solve pipeline: per `cli.solve_once`
# call when the op runs through the CLI, otherwise per op.
PIPELINE_COUNTED = ("continuous.prepare_inputs", "binomial.prepare_binomial_inputs")

OP = "op"


def _size(a) -> int:
    return int(np.size(a))


def _quad_neval(result) -> int:
    # choquet calls quad with full_output=1: (value, abserr, infodict[, message])
    if isinstance(result, tuple) and len(result) >= 3 and isinstance(result[2], dict):
        return int(result[2].get("neval", 0))
    return 0


def _grid_counts(tracer, args, result, dur_ns):
    family = FAMILIES.get(type(args[1].returns).__name__, "other")
    rows = len(args[3])
    tracer.add("oracle.evaluate_objective_grid.rows", rows)
    tracer.add(f"rows.{family}", rows)
    tracer.add(f"grid_ns.{family}", dur_ns)


# (owner, attribute, span name, counter(tracer, args, result, duration_ns) or None)
TARGETS = [
    (distributions.ContinuousLaw, "ppf_array", "distributions.quantile_array",
     lambda t, a, r, d: t.add("distributions.quantile_array.elems", _size(a[1]))),
    (distributions.ContinuousLaw, "isf_array", "distributions.quantile_array",
     lambda t, a, r, d: t.add("distributions.quantile_array.elems", _size(a[1]))),
    *((cls, "derivative_array", "preferences.derivative_array",
       lambda t, a, r, d: t.add("preferences.derivative_array.elems", _size(a[2])))
      for cls in (preferences.TverskyKahnemanWeighting, preferences.PrelecWeighting,
                  preferences.IdentityWeighting)),
    (oracle, "evaluate_objective_grid", "oracle.evaluate_objective_grid", _grid_counts),
    (oracle, "grid_search", "oracle.grid_search",
     lambda t, a, r, d: t.add("oracle.grid_search.evaluations", r.n_evaluations)),
    (oracle, "verify", "oracle.verify",
     lambda t, a, r, d: t.add("oracle.mismatch", r.agreement == "mismatch")),
    (oracle, "evaluate_objective", "oracle.evaluate_objective", None),
    (choquet, "rank_dependent_sum", "choquet.rank_dependent_sum",
     lambda t, a, r, d: t.add("choquet.rank_dependent_sum.atoms", len(a[2]))),
    (choquet, "prospect_value", "choquet.prospect_value", None),
    (choquet, "distorted_tail_integral", "choquet.distorted_tail_integral", None),
    (choquet, "quad", "choquet.quad",
     lambda t, a, r, d: t.add("choquet.quad.neval", _quad_neval(r))),
    (continuous, "prepare_inputs", "continuous.prepare_inputs", None),
    (continuous, "prepare_zero_initial_inputs", "continuous.prepare_inputs", None),
    (continuous, "classify", "continuous.classify", None),
    (continuous, "classify_zero_initial", "continuous.classify", None),
    (binomial, "solve_binomial", "binomial.solve_binomial", None),
    (binomial, "prepare_binomial_inputs", "binomial.prepare_binomial_inputs", None),
    (config.RunConfig, "from_file", "config.from_file", None),
    (cli, "main", "cli.main", None),
    (cli, "solve_once", "cli.solve_once", None),
]


class Tracer:
    """In-memory span recorder with per-layer self time and counters."""

    def __init__(self):
        self.spans: list = []      # (name, start_ns, end_ns, parent index, op id)
        self.stack: list = []      # open spans: [index, child_ns, parent index]
        self.op_id = -1
        self.ops = 0
        self.self_ns: dict = defaultdict(int)
        self.counts: dict = defaultdict(float)
        self.calls: dict = defaultdict(int)
        self.pipelines = 0         # solve pipelines begun (ops, or cli.solve_once calls)
        self.solve_once_depth = 0
        # keyed by (layer, called inside cli.solve_once)
        self.pipeline_calls: dict = defaultdict(int)
        self.pipelines_calling: dict = defaultdict(set)
        self._undo: list = []

    def add(self, key: str, value) -> None:
        self.counts[key] += value

    def _enter(self, name: str) -> list:
        index = len(self.spans)
        self.spans.append(None)
        frame = [index, 0, self.stack[-1][0] if self.stack else -1]
        self.stack.append(frame)
        if name in PIPELINE_COUNTED:
            key = (name, self.solve_once_depth > 0)
            self.pipeline_calls[key] += 1
            self.pipelines_calling[key].add(self.pipelines)
        elif name == "cli.solve_once":
            self.pipelines += 1
            self.solve_once_depth += 1
        return frame

    def _exit(self, name: str, frame: list, start: int, end: int) -> int:
        self.stack.pop()
        if name == "cli.solve_once":
            self.solve_once_depth -= 1
        duration = end - start
        if self.stack:
            self.stack[-1][1] += duration
        self.spans[frame[0]] = (name, start, end, frame[2], self.op_id)
        self.self_ns[name] += duration - frame[1]
        self.calls[name] += 1
        return duration

    def run_op(self, op_id: int, fn, *args):
        """Run one op under a root span, so unattributed op time stays visible."""
        self.op_id = op_id
        self.ops += 1
        self.pipelines += 1
        frame = self._enter(OP)
        start = process_time_ns()
        try:
            return fn(*args)
        finally:
            self._exit(OP, frame, start, process_time_ns())

    def _wrapper(self, name: str, fn, counter):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            frame = tracer._enter(name)
            start = process_time_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                duration = tracer._exit(name, frame, start, process_time_ns())
            if counter is not None:
                counter(tracer, args, result, duration)
            return result

        return traced

    def install(self) -> None:
        """Wrap every target; ``uninstall`` puts the originals back."""
        modules = [m for n, m in sys.modules.items()
                   if (n == "cptinvest" or n.startswith("cptinvest.")) and m is not None]
        for owner, attr, name, counter in TARGETS:
            if isinstance(owner, type):
                raw = owner.__dict__[attr]
                if isinstance(raw, classmethod):
                    wrapped = classmethod(self._wrapper(name, raw.__func__, counter))
                else:
                    wrapped = self._wrapper(name, raw, counter)
                self._undo.append((owner, attr, raw))
                setattr(owner, attr, wrapped)
                continue
            original = getattr(owner, attr)
            wrapped = self._wrapper(name, original, counter)
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        self._undo.append((module, key, original))
                        setattr(module, key, wrapped)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._undo):
            setattr(owner, attr, original)
        self._undo.clear()

    def metrics(self, names: list) -> dict:
        """The per-layer metrics ``names`` (see the benchmark's README), per op
        over the traced ops, plus ``trace.op_ms`` and ``trace.attributed_frac``;
        ``import.*`` and ``trace.*`` names are left to the caller."""
        ops = max(self.ops, 1)
        out = {}
        for metric in names:
            layer, _, stat = metric.rpartition(".")
            if stat == "ms":
                out[metric] = self.self_ns.get(layer, 0) / 1e6 / ops
            elif stat == "calls":
                out[metric] = self.calls.get(layer, 0) / ops
            elif stat == "per_op":
                key = (layer, (layer, True) in self.pipeline_calls)
                pipelines = len(self.pipelines_calling.get(key, ()))
                out[metric] = self.pipeline_calls.get(key, 0) / pipelines if pipelines else 0.0
            elif layer.endswith(".us_per_row"):
                rows = self.counts.get(f"rows.{stat}", 0)
                out[metric] = self.counts.get(f"grid_ns.{stat}", 0) / 1e3 / rows if rows else 0.0
            elif metric.startswith(("import.", "trace.")):
                continue
            else:
                out[metric] = self.counts.get(metric, 0) / ops
        op_ns = sum(end - start for name, start, end, _, _ in self.spans if name == OP)
        out["trace.op_ms"] = op_ns / 1e6 / ops
        out["trace.attributed_frac"] = 1.0 - self.self_ns.get(OP, 0) / op_ns if op_ns else 0.0
        return out

    def write(self, path: str) -> None:
        """Dump every span as [name, start_ns, end_ns, parent, op] rows, gzipped."""
        with gzip.open(path, "wt") as handle:
            json.dump({"fields": ["name", "start_ns", "end_ns", "parent", "op"],
                       "spans": self.spans}, handle, separators=(",", ":"))
