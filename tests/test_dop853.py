"""The DOP853 stepper behind bichar.flow: tableau, edge rules and failures.

The golden flow digests in test_bichar.py and test_cli.py pin the stepper's
ordinary path bit for bit.  The pins here cover what those starts never
reach: the rtol floor, a non-finite start, a right-hand side that turns NaN,
and the import cost that the stepper exists to remove.
"""

import hashlib
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from feynlab import _dop853
from feynlab.bichar import BCotangentPoint, flow, random_null_rays

ROOT = Path(__file__).resolve().parents[1]

# sha256 over A, B, C, E3, E5 and D as scipy.integrate._ivp.dop853_coefficients
# builds them (scipy 1.17.1), the tableau the stepper had before it was inlined
GOLDEN_TABLEAU = "ead92ac787f61c3d58590360ff9d0030fc4b1ddcdb6028f6d8bea670ba1a75f2"

# sha256 over times, lam and log_scale of flow(random_null_rays(4, 1, 0)[0],
# 5.0, tol=1e-15), recorded with scipy's solve_ivp; without the rtol floor
# the same flow takes 184 steps and hashes to 98fea12a...
GOLDEN_TIGHT = "446f3c42240bc2de66f0c68d26faac56a74a589eea48c0a803a2ef7a00c24552"


def run_child(script: str, *args: str, timeout: float = 120.0):
    """Run a Python script with args in a child process on this checkout's
    sources; a hang fails the test at the timeout instead of stalling the suite."""
    env = dict(os.environ)
    paths = [str(ROOT / "src"), env.get("PYTHONPATH", "")]
    env["PYTHONPATH"] = os.pathsep.join(p for p in paths if p)
    return subprocess.run([sys.executable, "-c", script, *args], cwd=ROOT, env=env,
                          capture_output=True, text=True, timeout=timeout)


def test_tableau_matches_the_recorded_coefficients():
    h = hashlib.sha256()
    for a in (_dop853.A, _dop853.B, _dop853.C, _dop853.E3, _dop853.E5, _dop853.D):
        h.update(np.ascontiguousarray(a).tobytes())
    assert h.hexdigest() == GOLDEN_TABLEAU
    assert [a.shape for a in (_dop853.A, _dop853.B, _dop853.C, _dop853.D)] == [
        (16, 16), (12,), (16,), (4, 16)]


def test_terminal_event_is_located_on_the_dense_output():
    # y' = 1 from y(0) = 0 reaches pi at t = pi; the event ends the segment
    def one(t, y):
        return np.ones_like(y)

    def hit(t, y):
        return y[0] - math.pi

    hit.direction = 1.0
    seg = _dop853.solve(one, 0.0, 10.0, np.zeros(1), 1e-10, 1e-12, (hit,), ())
    assert seg.event == 0
    assert abs(seg.ts[-1] - math.pi) <= 1e-12
    assert abs(seg(seg.ts[-1])[0] - math.pi) <= 1e-12
    # a crossing against the event's direction does not fire
    hit.direction = -1.0
    seg = _dop853.solve(one, 0.0, 10.0, np.zeros(1), 1e-10, 1e-12, (hit,), ())
    assert seg.event is None and seg.ts[-1] == 10.0


def test_rtol_below_the_floor_is_raised_to_100_eps_with_a_warning():
    with pytest.warns(UserWarning, match="rtol 1e-15 is too small"):
        tr = flow(random_null_rays(4, 1, 0)[0], 5.0, tol=1e-15)
    h = hashlib.sha256()
    for a in (tr.times, tr.lam, tr.log_scale):
        h.update(np.ascontiguousarray(a).tobytes())
    assert tr.stats["steps"] == 135
    assert h.hexdigest() == GOLDEN_TIGHT


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_start_with_a_non_finite_state_is_rejected():
    # the raw fiber's norm overflows, so the projectivized state holds NaN
    start = BCotangentPoint(n=4, rho=0.01, v=0.0, y=(0.1, 0.1), sigma=1e308,
                            gamma=1e308, eta=(0.0, 0.0))
    with pytest.raises(ValueError, match="must be finite"):
        flow(start, 1.0)


NAN_RHS = """
import json, pathlib, sys
import numpy as np
from feynlab import bichar, cli
from feynlab.errors import StiffnessError

bichar._int_rhs = lambda t, s, n: np.full(s.size, np.nan)
try:
    bichar.flow(bichar.random_null_rays(4, 1, 0)[0], 10.0)
    message = None
except StiffnessError as exc:
    message = str(exc)
tmp = pathlib.Path(sys.argv[1])
cfg = tmp / "flow.json"
cfg.write_text(json.dumps({"subcommand": "flow", "params": {"n": 4, "count": 1, "T": 10.0}}))
code = cli.main(["--config", str(cfg), "--out", str(tmp / "out")])
print(json.dumps({"message": message, "code": code}))
"""


def test_nan_right_hand_side_fails_the_segment_instead_of_hanging(tmp_path):
    proc = run_child(NAN_RHS, str(tmp_path), timeout=60.0)
    assert proc.returncode == 0, proc.stderr
    got = json.loads(proc.stdout.splitlines()[-1])
    assert got["message"] == "interior integration failed: step size is NaN"
    assert got["code"] == 3


def test_cli_import_loads_no_scipy():
    proc = run_child(
        "import json, sys\nimport feynlab.cli\n"
        "print(json.dumps([m for m in sys.modules if m == 'scipy' or m.startswith('scipy.')]))"
    )
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout) == []
