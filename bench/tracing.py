"""Spans around calls into galpha's public functions, and the per-layer metrics.

The tracer replaces public names of the already imported galpha modules
with wrappers that record (name, start, end, parent, work) in memory; it
changes nothing under src/. Only traced runs install it, so untraced runs
make plain calls. ``work`` is the count a per-unit metric divides by: theta
values of a sweep, nodes of a map, steps of a march, factorizations of a
workspace.
"""

from __future__ import annotations

import json
import sys
from time import perf_counter

from workloads import CLI_COMMANDS


class Tracer:
    """Spans of one process, kept in memory until ``dump``."""

    def __init__(self):
        self.spans = []
        self._stack = []

    def wrap(self, fn, name, work=None, after=None):
        """fn with a span around every call; after(result) may wrap the result."""
        spans, stack = self.spans, self._stack

        def traced(*args, **kwargs):
            sid = len(spans)
            spans.append([name, None, None, stack[-1] if stack else None, 0])
            stack.append(sid)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                stack.pop()
                spans[sid][1] = t0
                spans[sid][2] = t1
            if work is not None:
                spans[sid][4] = work(result)
            if after is not None:
                after(result)
            return result

        return traced

    def dump(self, path):
        with open(path, "w") as fh:
            json.dump({"spans": self.spans}, fh)


def install(tracer):
    """Wrap galpha's public functions in every imported module that names them."""
    import galpha
    import galpha.integrator as integrator
    import galpha.problems as problems

    def trace_forcing(system):
        system.forcing = tracer.wrap(system.forcing, "problems.load")

    namespaces = [galpha]
    if "galpha.cli" in sys.modules:
        namespaces.append(sys.modules["galpha.cli"])
    public = {
        "integrate": ("integrator.integrate", lambda r: len(r) - 1, None),
        "l2_error": ("problems.l2_error", None, None),
        "scalar_mode": ("problems.scalar_mode", None, trace_forcing),
        "sweep_spectral_radius": ("spectral.sweep", lambda r: r.theta.size, None),
        "stability_region": ("spectral.map", lambda r: r.rho.size, None),
        "amplification_matrix": ("spectral.amplification", None, None),
        "recurrence_residual": ("cayley.residual", None, None),
        "charpoly_coeffs": ("cayley.charpoly", None, None),
    }
    for ns in namespaces:
        for attr, (name, work, after) in public.items():
            if hasattr(ns, attr):
                setattr(ns, attr, tracer.wrap(getattr(ns, attr), name, work, after))
    # names integrate and the CLI reach through their own module globals
    integrator.init_state = tracer.wrap(integrator.init_state, "integrator.init_state")
    integrator.StepWorkspace.build = staticmethod(tracer.wrap(
        integrator.StepWorkspace.build, "integrator.build", lambda ws: ws.n_factorizations))
    problems.ManufacturedCase.assemble = tracer.wrap(
        problems.ManufacturedCase.assemble, "problems.assemble", after=trace_forcing)


# ---------------------------------------------------------------------------
# per-layer metrics from span files

# metric -> (unit, how it is computed, span name)
LAYER_METRICS = {
    "problems.assemble_s": ("s", "median", "problems.assemble"),
    "problems.load_us": ("us", "median", "problems.load"),
    "problems.load_calls": ("count", "per_round", "problems.load"),
    "problems.l2_error_ms": ("ms", "median", "problems.l2_error"),
    "integrator.init_state_ms": ("ms", "median", "integrator.init_state"),
    "integrator.factor_ms": ("ms", "median", "integrator.build"),
    "integrator.factorizations": ("count", "work_per_round", "integrator.build"),
    "integrator.step_us": ("us", "self_per_work", "integrator.integrate"),
    "spectral.sweep_us_per_theta": ("us", "per_work", "spectral.sweep"),
    "spectral.map_us_per_node": ("us", "per_work", "spectral.map"),
    "spectral.amplification_us": ("us", "median", "spectral.amplification"),
    "cayley.residual_us": ("us", "median", "cayley.residual"),
    "cayley.charpoly_us": ("us", "median", "cayley.charpoly"),
    "cli.import_s": ("s", "median", "cli.import"),
}
for _cmd, _, _ in CLI_COMMANDS:
    LAYER_METRICS["cli.%s_s" % _cmd] = ("s", "median", "cli.%s" % _cmd)

SCALE = {"s": 1.0, "ms": 1e3, "us": 1e6, "count": 1.0}


class SpanSet:
    """Spans of several processes, with self times."""

    def __init__(self):
        self.by_name = {}
        self.processes = []

    def add_file(self, path, source):
        with open(path) as fh:
            self.add(json.load(fh)["spans"], source)

    def add(self, spans, source):
        self.processes.append({"source": source, "spans": spans})
        child_time = [0.0] * len(spans)
        for name, t0, t1, parent, work in spans:
            if parent is not None:
                child_time[parent] += t1 - t0
        for i, (name, t0, t1, parent, work) in enumerate(spans):
            self.by_name.setdefault(name, []).append((t1 - t0, t1 - t0 - child_time[i], work))

    def has(self, name):
        return name in self.by_name

    def value(self, how, name, rounds):
        rows = self.by_name[name]
        if how == "median":
            import statistics

            return statistics.median(r[0] for r in rows)
        if how == "per_round":
            return len(rows) / rounds
        if how == "work_per_round":
            return sum(r[2] for r in rows) / rounds
        if how == "per_work":
            return sum(r[0] for r in rows) / sum(r[2] for r in rows)
        if how == "self_per_work":
            return sum(r[1] for r in rows) / sum(r[2] for r in rows)
        raise ValueError(how)


def missing_spans(spans):
    """Span names that the per-layer table needs and ``spans`` lacks."""
    return {name for _, _, name in LAYER_METRICS.values() if not spans.has(name)}


def layer_metrics(own, rounds, probe):
    """Every per-layer metric: from the workload's spans, else from the probe's single pass."""
    out = {}
    for metric, (unit, how, name) in LAYER_METRICS.items():
        spans, per = (own, rounds) if own.has(name) else (probe, 1)
        if not spans.has(name):
            raise RuntimeError("no span %r for metric %s" % (name, metric))
        out[metric] = {"value": spans.value(how, name, per) * SCALE[unit], "unit": unit}
    return out
