"""The feynlab names the benchmark's tracer and layer series reach in by.

``perfbench.tracing.install`` rebinds module attributes by name and only
reports a name it cannot find; ``perfbench.layers`` calls two private symbol
helpers directly.  A rename in ``src/`` would silently drop spans, so these
names are pinned here.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

ROOT = Path(__file__).resolve().parents[1]

SCRIPT = """
import json
import feynlab.propagators as P
from feynlab.fields import GridSpec
from feynlab.propagators import Kind
from perfbench.tracing import Tracer, install

missing = install(Tracer())
grid = GridSpec((16.0, 16.0), (8, 8))
m = P._multiplier(grid, Kind.FEYNMAN, 0.3)
print(json.dumps({
    "missing": missing,
    "shape": list(m.shape),
    "m01": [m[0, 1].real, m[0, 1].imag],
    "gap": P._symbol_gap(grid),
}))
"""


def run_child(script: str) -> str:
    # install() patches modules and numpy's FFTs for the life of its process,
    # so each script runs in a child process of its own
    env = dict(os.environ)
    paths = [str(ROOT / "src"), str(ROOT), env.get("PYTHONPATH", "")]
    env["PYTHONPATH"] = os.pathsep.join(p for p in paths if p)
    proc = subprocess.run(
        [sys.executable, "-c", script],
        cwd=ROOT,
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def test_tracer_hooks_and_layer_helpers_resolve():
    got = json.loads(run_child(SCRIPT))
    assert got["missing"] == []
    assert got["shape"] == [8, 8]
    # zeta = (0, 2 pi / 16): the Feynman multiplier is e^{0.6 i} zeta_n^2
    step2 = (2.0 * np.pi / 16.0) ** 2
    want = np.exp(0.6j) * step2
    assert got["m01"] == [pytest.approx(want.real), pytest.approx(want.imag)]
    assert got["gap"] == pytest.approx(step2)


# One tiny config per subcommand, run through the traced runner: the spans
# only fire if each subcommand calls its entry points through cli's module
# globals at call time, as install() rebinds them.
RUN_SCRIPT = """
import json
import tempfile
import feynlab.cli as cli
from perfbench.tracing import Tracer, install

tracer = Tracer()
missing = install(tracer)
grid = {"extent": [8.0, 8.0], "points": [8, 8]}
configs = [
    {"subcommand": "roots", "params": {"n": 4, "K": 2}},
    {"subcommand": "spectrum", "params": {"n": 4, "K": 2}},
    {"subcommand": "weights", "params": {"n": 4, "l_samples": [0.5]}},
    {"subcommand": "flow", "params": {"n": 4, "count": 1, "T": 5.0}},
    {"subcommand": "propagate", "grid": grid, "params": {"kind": "retarded"}},
    {"subcommand": "wick", "grid": grid, "params": {"steps": 2}},
    {"subcommand": "picard", "grid": grid, "params": {"p": 3, "lam": 0.1, "max_iter": 3}},
    {"subcommand": "product-check", "params": {"rules": ["cone-product"]}},
]
with tempfile.TemporaryDirectory() as root:
    for i, data in enumerate(configs):
        cfg = cli.ExperimentConfig.from_dict(dict(data, out=f"{root}/{i}"))
        cli.run_experiment(cfg)
print(json.dumps({"missing": missing, "names": sorted({s[0] for s in tracer.spans})}))
"""

SUBCOMMAND_SPANS = {
    "normal_op.report", "bichar.rays", "bichar.flow", "bichar.classify", "bichar.trace_csv",
    "fields.source", "propagators.propagate", "propagators.residual", "propagators.wick",
    "semilinear.picard", "orders.rule_sweep",
    # traced only on weight classes that define __call__ in their own body
    "weights.call",
}


def test_every_subcommand_calls_its_traced_entry_points():
    got = json.loads(run_child(RUN_SCRIPT))
    assert got["missing"] == []
    assert SUBCOMMAND_SPANS <= set(got["names"])


# The same tiny picard config run for 3 and for 4 iterations under the
# tracer: the difference is one iteration's fine-grid transforms, which
# reach the FFT counter only if semilinear calls numpy's FFTs through np.fft
# at call time, pass by pass.
PICARD_SCRIPT = """
import json
import tempfile
import feynlab.cli as cli
from perfbench.tracing import Tracer, install

tracer = Tracer()
missing = install(tracer)
counts = []
with tempfile.TemporaryDirectory() as root:
    for max_iter in (3, 4):
        before = tracer.counts["fields.fft_calls"]
        cfg = cli.ExperimentConfig.from_dict({
            "subcommand": "picard",
            "grid": {"extent": [8.0, 8.0], "points": [8, 8]},
            "params": {"p": 3, "lam": 0.1, "max_iter": max_iter, "tol": 1e-300},
            "out": f"{root}/{max_iter}",
        })
        cli.run_experiment(cfg)
        counts.append(tracer.counts["fields.fft_calls"] - before)
print(json.dumps({"missing": missing, "counts": counts}))
"""


def test_tracer_counts_the_fine_grid_passes():
    got = json.loads(run_child(PICARD_SCRIPT))
    assert got["missing"] == []
    # p = 3: 2p - 2 = 4 fine transforms an iteration, each 3 calls on the
    # 12^2 fine grid (one pass on every line, two on the band's halves)
    assert got["counts"][1] - got["counts"][0] == 4 * 3
