"""In-memory spans around calls into feynlab's modules, from outside them.

``install(tracer)`` rebinds the public functions each module hands to its
callers (and the numpy n-d FFTs) to timing wrappers; no file under ``src/``
changes.  A span records its name, start, end, parent and the root span of
its config run.  ``layer_metrics`` turns the spans into the per-layer
metrics: inclusive times per function, call counts, work counters and each
layer's self time (span time minus the time of its child spans).

Only a traced worker process calls ``install``; untraced passes never
import this module.
"""

from __future__ import annotations

import functools
import time
from collections import defaultdict

import numpy as np

import feynlab.bichar as bichar
import feynlab.cli as cli
import feynlab.orders as orders
import feynlab.semilinear as semilinear
import feynlab.weights as weights

RUN_SPAN = "cli.run"
LAYERS = ("cli", "fields", "propagators", "semilinear", "bichar", "orders", "weights",
          "normal_op")


class Tracer:
    def __init__(self):
        # [name, start, end, parent index, root index, nested in same name]
        self.spans: list = []
        self.counts: dict = defaultdict(float)
        self.margins: list = []  # |growth_exponent - threshold| per product_integral
        self._stack: list = []
        self._active: dict = defaultdict(int)

    def wrap(self, fn, name, after=None):
        """Wrap ``fn`` in a span; ``after(tracer, args, kwargs, result)`` counts work."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = self._stack[-1] if self._stack else None
            idx = len(self.spans)
            root = self.spans[parent][4] if parent is not None else idx
            span = [name, time.perf_counter(), None, parent, root, self._active[name] > 0]
            self.spans.append(span)
            self._stack.append(idx)
            self._active[name] += 1
            try:
                result = fn(*args, **kwargs)
            finally:
                self._active[name] -= 1
                self._stack.pop()
                span[2] = time.perf_counter()
            if after is not None:
                after(self, args, kwargs, result)
            return result

        return traced

    def timer(self, fn, counter):
        """Accumulate ``fn``'s time under ``counter`` without opening a span,
        so the time stays in the enclosing span's self time."""

        @functools.wraps(fn)
        def timed(*args, **kwargs):
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                self.counts[counter] += time.perf_counter() - start

        return timed


# --- work counters ---------------------------------------------------------

def _count_fft(tracer, fn):
    @functools.wraps(fn)
    def counted(*args, **kwargs):
        out = fn(*args, **kwargs)
        tracer.counts["fields.fft_calls"] += 1
        # computed, not measured: one complex array read and one written
        tracer.counts["fields.fft_bytes"] += 2 * out.nbytes
        return out

    return counted


def _after_flow(tracer, args, kwargs, trace):
    for key in ("fevals", "steps", "rejected_estimated", "segments"):
        tracer.counts[f"bichar.{key}"] += trace.stats.get(key, 0)


def _after_picard(tracer, args, kwargs, result):
    tracer.counts["semilinear.iterations"] += result[1].iterations


def _after_product_integral(tracer, args, kwargs, res):
    dim = args[3] if len(args) > 3 else kwargs["dim"]
    probes = len(res.sup_samples)
    # midpoint lattice of radius r: max(round(2r/step), 2) points per axis
    points = sum(max(int(round(2.0 * r / res.step)), 2) ** dim for r in res.cutoffs)
    tracer.counts["orders.lattice_evals"] += 2 * points * probes
    tracer.margins.append(abs(res.growth_exponent - orders.GROWTH_THRESHOLD))


def install(tracer: Tracer) -> list:
    """Wrap the traced entry points; returns the names that were not found."""
    missing = []

    def patch(owner, attr, name, after=None):
        fn = getattr(owner, attr, None)
        if fn is None:
            missing.append(f"{getattr(owner, '__name__', owner)}.{attr}")
            return
        setattr(owner, attr, tracer.wrap(fn, name, after))

    # Spans sit where one module calls into another: the runner's imports,
    # the semilinear solver's calls, and the sweep's calls.
    patch(cli, "run_experiment", RUN_SPAN)
    patch(cli, "load_config", "cli.load_config")
    patch(cli, "gaussian_source", "fields.source")
    patch(cli, "random_band_limited", "fields.source")
    patch(cli, "propagate", "propagators.propagate")
    patch(semilinear, "propagate", "propagators.propagate")
    patch(cli, "prescription_residual", "propagators.residual")
    patch(cli, "wick_continuation_study", "propagators.wick")
    patch(cli, "picard_solve", "semilinear.picard", _after_picard)
    patch(semilinear, "dealiased_product", "semilinear.product")
    patch(cli, "random_null_rays", "bichar.rays")
    patch(cli, "flow", "bichar.flow", _after_flow)
    patch(cli, "classify_limit", "bichar.classify")
    patch(bichar.RayTrace, "to_csv", "bichar.trace_csv")
    patch(cli, "rule_sweep", "orders.rule_sweep")
    patch(orders, "product_integral", "orders.product_integral", _after_product_integral)
    patch(cli, "normal_report", "normal_op.report")
    stack = [weights.WeightFunction]
    while stack:
        cls = stack.pop()
        stack.extend(cls.__subclasses__())
        if "__call__" in cls.__dict__ and cls is not weights.WeightFunction:
            patch(cls, "__call__", "weights.call")

    # The artifact writer is timed without a span: its bytes per second are
    # a cli metric, and its time belongs to cli's self time.
    if hasattr(cli, "_write_all"):
        cli._write_all = tracer.timer(cli._write_all, "cli.write_s")
    else:
        missing.append("feynlab.cli._write_all")

    for fname in ("fftn", "ifftn"):
        setattr(np.fft, fname, _count_fft(tracer, getattr(np.fft, fname)))
    return missing


def layer_metrics(tracer: Tracer, artifact_bytes: float) -> dict:
    """Per-layer metrics of one traced pass."""
    spans = tracer.spans
    dur = [s[2] - s[1] for s in spans]
    child = [0.0] * len(spans)
    for i, s in enumerate(spans):
        if s[3] is not None:
            child[s[3]] += dur[i]
    incl = defaultdict(float)
    calls = defaultdict(int)
    self_s = {layer: 0.0 for layer in LAYERS}
    for i, s in enumerate(spans):
        name = s[0]
        if not s[5]:  # outermost call of that name: inclusive time counts once
            incl[name] += dur[i]
            calls[name] += 1
        if spans[s[4]][0] == RUN_SPAN:
            layer = name.split(".", 1)[0]
            self_s[layer] += dur[i] - child[i]
    c = tracer.counts
    wall = incl[RUN_SPAN]
    m = {
        "cli.run_s": wall,
        "cli.load_config_s": incl["cli.load_config"],
        "cli.artifact_bytes": artifact_bytes,
        "cli.write_mb_per_s": _ratio(artifact_bytes / 1e6, c["cli.write_s"]),
        "fields.source_s": incl["fields.source"],
        "fields.fft_calls": c["fields.fft_calls"],
        "fields.fft_mb": c["fields.fft_bytes"] / 1e6,
        "propagators.propagate_calls": calls["propagators.propagate"],
        "propagators.propagate_s": incl["propagators.propagate"],
        "propagators.residual_s": incl["propagators.residual"],
        "propagators.wick_s": incl["propagators.wick"],
        "semilinear.picard_s": incl["semilinear.picard"],
        "semilinear.iterations": c["semilinear.iterations"],
        "semilinear.iter_s": _ratio(incl["semilinear.picard"], c["semilinear.iterations"]),
        "semilinear.product_calls": calls["semilinear.product"],
        "semilinear.product_s": incl["semilinear.product"],
        "bichar.flow_calls": calls["bichar.flow"],
        "bichar.flow_s": incl["bichar.flow"],
        "bichar.fevals": c["bichar.fevals"],
        "bichar.steps": c["bichar.steps"],
        "bichar.rejected_estimated": c["bichar.rejected_estimated"],
        "bichar.segments": c["bichar.segments"],
        "bichar.fevals_per_s": _ratio(c["bichar.fevals"], incl["bichar.flow"]),
        "bichar.accept_ratio": _ratio(c["bichar.steps"],
                                      c["bichar.steps"] + c["bichar.rejected_estimated"]),
        "bichar.classify_s": incl["bichar.classify"],
        "bichar.trace_csv_s": incl["bichar.trace_csv"],
        "orders.product_integral_calls": calls["orders.product_integral"],
        "orders.product_integral_s": incl["orders.product_integral"],
        "orders.lattice_evals": c["orders.lattice_evals"],
        "orders.evals_per_s": _ratio(c["orders.lattice_evals"], incl["orders.product_integral"]),
        # -1 marks a workload that runs no product_integral
        "orders.min_margin": min(tracer.margins) if tracer.margins else -1.0,
        "weights.calls": calls["weights.call"],
        "weights.call_s": incl["weights.call"],
        "normal_op.report_s": incl["normal_op.report"],
    }
    for layer in LAYERS:
        m[f"{layer}.self_s"] = self_s[layer]
    m["trace.wall_s"] = wall
    m["trace.accounted_frac"] = _ratio(sum(self_s.values()), wall)
    return m


def _ratio(num: float, den: float) -> float:
    """num / den, or 0 where the layer did no work."""
    return num / den if den else 0.0
