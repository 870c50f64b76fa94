"""The DOP853 stepper behind bichar.flow: tableau, edge rules and failures.

The golden flow digests in test_bichar.py and test_cli.py pin the stepper's
ordinary path bit for bit.  The pins here cover the event search and the
dense-output lookup on a problem with a known solution, and what the golden
starts never reach: the rtol floor, a non-finite start, a right-hand side
that turns NaN, and the import cost that the stepper exists to remove.
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
from hypothesis import given
from hypothesis import strategies as st

from feynlab import _dop853
from feynlab.bichar import BCotangentPoint, flow, random_null_rays

ROOT = Path(__file__).resolve().parents[1]

# sha256 over A, B, C, E3, E5 and D as scipy.integrate._ivp.dop853_coefficients
# builds them (scipy 1.17.1), the tableau the stepper had before it was inlined
GOLDEN_TABLEAU = "ead92ac787f61c3d58590360ff9d0030fc4b1ddcdb6028f6d8bea670ba1a75f2"

# flow(random_null_rays(4, 1, 0)[0], 5.0, tol=1e-15): its steps under the
# rtol floor (without the floor the same flow takes 184) and its end point
# (rho, v, sigma, gamma), which a change of the stepper must reproduce within
# TIGHT_TOL before GOLDEN_TIGHT, the sha256 over its times, lam and
# log_scale, is recorded again
TIGHT_STEPS = 135
TIGHT_TOL = 1e-9
TIGHT_END = (7.60492019315e-05, 0.000128972142795, -0.000128976736435, 0.99999998308)
GOLDEN_TIGHT = "b545a429618ef2eafc6deb203a71e1ec7dd37fa2e7eaa98a882322b71d8743ce"


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


def one(t, y):
    return np.ones_like(y)


def test_terminal_event_is_located_on_the_dense_output():
    # y' = 1 from y(0) = 0 reaches pi at t = pi; the event ends the segment
    def hit(t, y):
        return y[0] - math.pi

    seg = _dop853.solve(one, 0.0, 10.0, np.zeros(1), 1e-10, 1e-12, ((hit, 1.0),), ())
    assert seg.event == 0
    assert abs(seg.ts[-1] - math.pi) <= 1e-12
    assert abs(seg(seg.ts[-1])[0] - math.pi) <= 1e-12
    # a crossing against the event's direction does not fire
    seg = _dop853.solve(one, 0.0, 10.0, np.zeros(1), 1e-10, 1e-12, ((hit, -1.0),), ())
    assert seg.event is None and seg.ts[-1] == 10.0


@given(
    root=st.floats(0.01, 9.4),
    gap=st.sampled_from([0.0, 1e-9, 1e-3, 0.5]),
    backward=st.booleans(),
    falling=st.tuples(st.booleans(), st.booleans()),
    either_way=st.tuples(st.booleans(), st.booleans()),
    later_first=st.booleans(),
)
def test_event_search_finds_the_earliest_root(root, gap, backward, falling, either_way,
                                              later_first):
    # y' = 1 from y(0) = 0, so y = t: two events cross zero at |t| = root and
    # root + gap, rising or falling, in one step where the gap is small; the
    # earlier crossing ends the segment, the lower index on a tie.  The events
    # are exponential in t, so that regula falsi alone would converge slowly
    d = -1.0 if backward else 1.0
    times = (d * root, d * (root + gap))
    if later_first:
        times = times[::-1]
    events = []
    for r, fall, any_way in zip(times, falling, either_way):
        s = -1.0 if fall else 1.0
        events.append((lambda t, y, r=r, s=s: s * math.expm1(y[0] - r), 0.0 if any_way else s * d))
    seg = _dop853.solve(one, 0.0, d * 10.0, np.zeros(1), 1e-10, 1e-12, events, ())
    first = 1 if later_first and gap > 0 else 0
    assert seg.event == first
    assert abs(seg.ts[-1] - times[first]) <= 1e-12
    assert abs(seg(seg.ts[-1])[0] - times[first]) <= 1e-12


@pytest.mark.parametrize("d", [1.0, -1.0])
def test_step_boundaries_read_the_earlier_step(d):
    # three unit steps, ascending or descending, whose interpolants do not
    # join, so that each boundary tells its two steps apart
    rng = np.random.default_rng(7)
    ts = d * np.arange(4.0)
    steps = zip(d * np.ones(3), rng.normal(size=(3, 2)), rng.normal(size=(3, 7, 2)))
    seg = _dop853.Segment(ts, list(steps), 0, 0, None)
    # ts[0] and the time one step before it read step 0; ts[k] for k >= 1,
    # and the time one step past the end, read step k - 1
    t = np.concatenate(([ts[0] - d], ts, [ts[-1] + d]))
    for ti, k in zip(t, [0, 0, 0, 1, 2, 2]):
        want = _dop853._interpolate((ti - ts[k]) / d, seg.y_old[k], seg.F[k])
        assert np.array_equal(seg(ti), want)
    assert np.array_equal(seg(t), np.array([seg(ti) for ti in t]))
    # the later step would read its start state
    assert not np.any(seg(ts[1:3]) == seg.y_old[1:])


def test_rtol_below_the_floor_is_raised_to_100_eps_with_a_warning():
    with pytest.warns(UserWarning, match="rtol 1e-15 is too small"):
        tr = flow(random_null_rays(4, 1, 0)[0], 5.0, tol=1e-15)
    p = tr.end_point()
    assert tr.stats["steps"] == TIGHT_STEPS
    assert np.max(np.abs(np.subtract([p.rho, p.v, p.sigma, p.gamma], TIGHT_END))) <= TIGHT_TOL
    h = hashlib.sha256()
    for a in (tr.times, tr.lam, tr.log_scale):
        h.update(np.ascontiguousarray(a).tobytes())
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
