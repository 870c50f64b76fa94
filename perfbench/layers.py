"""Layer tier: scaling series and the baseline table, timed from outside.

    python3 -m perfbench.layers <series>     # one series, a JSON line
    python3 -m perfbench.layers baseline     # the baseline table, one line each

Each series runs in its own process, so the process's peak RSS is that of
its largest point.  Sizes and the fitted slopes:

- ``propagate``: ``propagate`` on an N x N grid, N = 64 ... 1024; time
  against N (about 2 for an N^2 log N transform).
- ``picard_iter``: one Picard iteration (dealiased cube, then ``propagate``)
  on an N x N grid, N = 64 ... 512; time against N.
- ``product_integral``: one ``product_integral`` level in dim 2 at cutoffs
  24 ... 192 on the sweep's cone-product model; time against the cutoff
  (about 2: lattice points grow as cutoff^2, probes stay fixed).
- ``flow``: forward ``flow`` of 4 ... 32 seeded null rays in n = 4; time
  against the ray count (about 1).

Run from the repository root with ``PYTHONPATH=src``.
"""

from __future__ import annotations

import json
import math
import resource
import shutil
import statistics
import sys
import time
from pathlib import Path

from feynlab.bichar import flow, random_null_rays
from feynlab.fields import GridSpec, gaussian_source
from feynlab.orders import product_integral, rule_flat_model
from feynlab.propagators import Kind, Prescription, propagate
from feynlab.semilinear import dealiased_power

PRES = Prescription(Kind.FEYNMAN, eps=0.3)
# cone-product, dim 2, `sum` threshold at offset +0.1 (the sweep's model)
CONE_PARAMS = {"n": 2, "r": 1.45, "s": 1.2, "s0": 0.85}


def _median_time(fn, prepare, repeats: int) -> float:
    times = []
    for _ in range(repeats):
        arg = prepare()
        start = time.perf_counter()
        fn(arg)
        times.append(time.perf_counter() - start)
    return statistics.median(times)


def _source(n: int, width: float = 1.0):
    grid = GridSpec((16.0, 16.0), (n, n))
    return gaussian_source(grid, width=width, center=(0.3, -0.7), amplitude=3.0)


def series_propagate() -> tuple[list, list]:
    sizes = [64, 128, 256, 512, 1024]
    # a fresh source per repeat: its cached FFT must not carry over
    return sizes, [_median_time(lambda f: propagate(f, PRES), lambda n=n: _source(n), 5)
                   for n in sizes]


def _picard_iteration(u, f):
    rhs = f - 0.5 * dealiased_power(u, 3)
    nxt = propagate(rhs, PRES)
    return (nxt - u).norm()


def series_picard_iter() -> tuple[list, list]:
    sizes = [64, 128, 256, 512]
    times = []
    for n in sizes:
        f = _source(n)
        u = propagate(f, PRES)  # a nonzero iterate, as after the first step
        times.append(_median_time(lambda u_: _picard_iteration(u_, f),
                                  lambda u=u: u.with_meta(), 3))
    return sizes, times


def series_product_integral() -> tuple[list, list]:
    cutoffs = [24.0, 48.0, 96.0, 192.0]
    w, w1, w2 = rule_flat_model("cone-product", CONE_PARAMS, 2)
    times = []
    for c in cutoffs:
        times.append(_median_time(
            lambda c_: product_integral(w, w1, w2, 2, c_, step=0.5, levels=1, seed=0),
            lambda c=c: c, 1 if c >= 192 else 3))
    return cutoffs, times


def series_flow() -> tuple[list, list]:
    counts = [4, 8, 16, 32]
    times = []
    for k in counts:
        rays = random_null_rays(4, k, seed=11)
        times.append(_median_time(lambda rs: [flow(r, 100.0, tol=1e-10) for r in rs],
                                  lambda rays=rays: rays, 1))
    return counts, times


SERIES = {
    "propagate": series_propagate,
    "picard_iter": series_picard_iter,
    "product_integral": series_product_integral,
    "flow": series_flow,
}


def slope(xs: list, ys: list) -> float:
    """Least-squares slope of log y against log x."""
    return statistics.linear_regression([math.log(x) for x in xs], [math.log(y) for y in ys]).slope


def baseline() -> list:
    """The rows of the re-anchor baseline table, measured again."""
    import feynlab.propagators as P
    from feynlab.cli import ExperimentConfig, run_experiment
    from feynlab.orders import rule_sweep
    from feynlab.semilinear import SemilinearProblem, picard_solve

    rows = []
    grid = GridSpec((16.0, 16.0), (1024, 1024))
    rows.append(("propagate 1024^2", _median_time(
        lambda f: propagate(f, PRES), lambda: _source(1024), 5) * 1e3, "ms"))
    rows.append(("  multiplier 1024^2", _median_time(
        lambda g: P._multiplier(g, Kind.FEYNMAN, 0.3), lambda: grid, 5) * 1e3, "ms"))
    rows.append(("  _symbol_gap 1024^2", _median_time(
        P._symbol_gap, lambda: grid, 5) * 1e3, "ms"))

    f128 = gaussian_source(GridSpec((16.0, 16.0), (128, 128)), width=1.0)
    iters = []

    def solve(prob):
        iters.append(picard_solve(prob, max_iter=20, tol=1e-10)[1].iterations)

    rows.append(("Picard 128^2 (criterion 11 problem)", _median_time(
        solve, lambda: SemilinearProblem(f=f128, p=3, lam=0.1), 5) * 1e3, "ms"))
    rows.append(("  Picard iterations", iters[-1], "count"))

    start = time.perf_counter()
    traces = [t for r in random_null_rays(4, 100, seed=2026)
              for t in (flow(r, 100.0, tol=1e-10), flow(r, -100.0, tol=1e-10))]
    rows.append(("200-trace ensemble", time.perf_counter() - start, "s"))
    rows.append(("  RHS evaluations", sum(t.stats["fevals"] for t in traces), "count"))
    rows.append(("  segments", sum(t.stats["segments"] for t in traces), "count"))

    out = Path(__file__).resolve().parents[1] / ".perfbench-runs" / "baseline"
    cfg = ExperimentConfig("propagate", {"kind": "retarded", "eps": 0.5}, out=str(out),
                           grid=GridSpec((16.0, 16.0), (256, 256)))
    rows.append(("CLI propagate 256^2", _median_time(run_experiment, lambda: cfg, 5), "s"))
    shutil.rmtree(out, ignore_errors=True)
    try:
        out.parent.rmdir()
    except OSError:
        pass  # a benchmark run is using it

    start = time.perf_counter()
    sweep = rule_sweep()
    rows.append(("criterion 10 sweep", time.perf_counter() - start, "s"))
    rows.append(("  rows agreeing", sum(r["agree"] for r in sweep), f"of {len(sweep)}"))
    return rows


def main(argv: list) -> int:
    if argv[0] == "baseline":
        for name, value, unit in baseline():
            print(f"{name:40s} {value:12.4g} {unit}")
        return 0
    xs, ts = SERIES[argv[0]]()
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    print(json.dumps({"x": xs, "t": ts, "slope": slope(xs, ts), "rss_mb": rss_mb}))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
