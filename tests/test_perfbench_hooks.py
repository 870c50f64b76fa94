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


def test_tracer_hooks_and_layer_helpers_resolve():
    # install() patches modules and numpy's FFTs for the life of its process,
    # so it runs in a child process of its own
    env = dict(os.environ)
    paths = [str(ROOT / "src"), str(ROOT), env.get("PYTHONPATH", "")]
    env["PYTHONPATH"] = os.pathsep.join(p for p in paths if p)
    proc = subprocess.run(
        [sys.executable, "-c", SCRIPT],
        cwd=ROOT,
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    got = json.loads(proc.stdout)
    assert got["missing"] == []
    assert got["shape"] == [8, 8]
    # zeta = (0, 2 pi / 16): the Feynman multiplier is e^{0.6 i} zeta_n^2
    step2 = (2.0 * np.pi / 16.0) ** 2
    want = np.exp(0.6j) * step2
    assert got["m01"] == [pytest.approx(want.real), pytest.approx(want.imag)]
    assert got["gap"] == pytest.approx(step2)
