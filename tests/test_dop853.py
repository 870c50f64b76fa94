"""The DOP853 ensemble stepper behind bichar.flow: tableau, edge rules and failures.

The golden flow digests in test_bichar.py and test_cli.py pin the stepper's
ordinary path bit for bit.  The pins here cover the event search and the
dense-output lookup on a problem with a known solution, the dense output of
each segment against the per-round formula and the right-hand-side calls a
segment makes, and what the golden starts never reach: a tolerance that is
not finite or is below 100 EPS, a non-finite start, an event search that
fails, a right-hand side that turns NaN (the leg ends "stiff"), and the
import cost that the stepper exists to remove.
"""

import hashlib
import json
import math
import warnings

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from feynlab import _dop853, bichar
from feynlab.bichar import BCotangentPoint, flow, random_null_rays
from feynlab.errors import StiffnessError

# sha256 over A, B, C, E3, E5 and D as scipy.integrate._ivp.dop853_coefficients
# builds them (scipy 1.17.1), the tableau the stepper had before it was inlined
GOLDEN_TABLEAU = "ead92ac787f61c3d58590360ff9d0030fc4b1ddcdb6028f6d8bea670ba1a75f2"


def test_tableau_matches_the_recorded_coefficients():
    h = hashlib.sha256()
    for a in (_dop853.A, _dop853.B, _dop853.C, _dop853.E3, _dop853.E5, _dop853.D):
        h.update(np.ascontiguousarray(a).tobytes())
    assert h.hexdigest() == GOLDEN_TABLEAU
    assert [a.shape for a in (_dop853.A, _dop853.B, _dop853.C, _dop853.D)] == [
        (16, 16), (12,), (16,), (4, 16)]


def one(Y):
    return np.ones_like(Y)


def no_events(Y):
    return np.zeros((len(Y), 0))


def solve_one(fun, t_bound, events=(), y0=(0.0,)):
    """One leg of one kind from y0 towards t_bound, with events that each end
    it crossing zero upward: the Segment that _dop853.solve ends it with, or
    the StiffnessError it failed with, raised."""
    got = []
    y0 = np.array([y0], dtype=float)
    values = (lambda Y: np.stack([ev(Y) for ev in events], axis=1)) if events else no_events
    system = (fun, values, len(events), y0.shape[1])
    _dop853.solve((system,), y0, [0], [t_bound], 1e-10, lambda i, seg: got.append(seg))
    if isinstance(got[0], StiffnessError):
        raise got[0]
    return got[0]


def test_terminal_event_is_located_on_the_dense_output():
    # y' = 1 from y(0) = 0 reaches pi at t = pi; the event ends the segment
    def hit(Y):
        return Y[:, 0] - math.pi

    seg = solve_one(one, 10.0, (hit,))
    assert seg.event == 0
    assert abs(seg.ts[-1] - math.pi) <= 1e-12
    assert abs(seg(seg.ts[-1:])[0, 0] - math.pi) <= 1e-12
    # a falling crossing of an upward event does not fire
    seg = solve_one(one, 10.0, (lambda Y: -hit(Y),))
    assert seg.event is None and seg.ts[-1] == 10.0


@given(
    root=st.floats(0.01, 9.4),
    gap=st.sampled_from([0.0, 1e-9, 1e-3, 0.5]),
    backward=st.booleans(),
    concave=st.booleans(),
    later_first=st.booleans(),
)
def test_event_search_finds_the_earliest_root(root, gap, backward, concave, later_first):
    # y' = 1 from y(0) = 0, so y = t: two events cross zero upward at |t| =
    # root and root + gap, in one step where the gap is small; the earlier
    # crossing ends the segment, the lower index on a tie.  A third event
    # falls through zero before both, at |t| = root/2, and does not fire.
    # The two are exponential in t, both convex or both concave along the
    # integration, so that regula falsi alone would converge slowly
    d = -1.0 if backward else 1.0
    times = (d * root, d * (root + gap))
    if later_first:
        times = times[::-1]
    events = [(lambda Y, r=r: -np.expm1(d * (r - Y[:, 0]))) if concave else
              (lambda Y, r=r: np.expm1(d * (Y[:, 0] - r))) for r in times]
    events.append(lambda Y: -np.expm1(d * Y[:, 0] - root / 2))
    seg = solve_one(one, d * 10.0, events)
    first = 1 if later_first and gap > 0 else 0
    assert seg.event == first
    assert abs(seg.ts[-1] - times[first]) <= 1e-12
    assert abs(seg(seg.ts[-1:])[0, 0] - times[first]) <= 1e-12


@pytest.mark.parametrize("d", [1.0, -1.0])
def test_step_boundaries_read_the_earlier_step(d):
    # three unit steps, ascending or descending, whose interpolants do not
    # join, so that each boundary tells its two steps apart
    rng = np.random.default_rng(7)
    ts = d * np.arange(4.0)
    steps = (d * np.ones(3), rng.normal(size=(3, 2)), rng.normal(size=(3, 7, 2)))
    seg = _dop853.Segment(ts, steps, 0, 0, None)
    # ts[0] and the time one step before it read step 0; ts[k] for k >= 1,
    # and the time one step past the end, read step k - 1
    t = np.concatenate(([ts[0] - d], ts, [ts[-1] + d]))
    for ti, k in zip(t, [0, 0, 0, 1, 2, 2]):
        want = _dop853._interpolate((ti - ts[k]) / d, seg.y_old[k], seg.F[k])
        assert np.array_equal(seg(np.array([ti]))[0], want)
    assert np.array_equal(seg(t), np.array([seg(np.array([ti]))[0] for ti in t]))
    # the later step would read its start state
    assert not np.any(seg(ts[1:3]) == seg.y_old[1:])


def reference_step(system, h, y):
    """One step of length h from the state y (padded to the ensemble's width)
    by the per-round formula the stepper ran before its dense output moved to
    the end of the segment: the twelve stages from f(y), y_new and f(y_new),
    then the dense output's three stages and the interpolant's coefficients,
    each stage sum in stage order.  Returns (y_new, F)."""
    fun, _, _, size = system
    hc, y = np.array([[h]]), np.array([y])
    K = np.zeros((16, *y.shape))

    def stage(s, state):
        K[s, :, :size] = fun(state[:, :size])

    stage(0, y)
    for s in range(1, 12):
        stage(s, _dop853.ordered_sum(K[:s] * _dop853.A[s, :s, None, None], axis=0) * hc + y)
    y_new = _dop853.ordered_sum(K[:12] * _dop853.B[:, None, None], axis=0) * hc + y
    stage(12, y_new)
    for s in range(13, 16):
        stage(s, _dop853.ordered_sum(K[:s] * _dop853.A[s, :s, None, None], axis=0) * hc + y)
    F = np.empty((1, 7, y.shape[1]))
    delta = np.subtract(y_new, y, out=F[:, 0])
    F[:, 1] = hc * K[0] - delta
    F[:, 2] = 2 * delta - hc * (K[12] + K[0])
    F[:, 3:] = (_dop853.ordered_sum(K[:, None] * _dop853.D.T[:, :, None, None], axis=0)
                * hc).transpose(1, 0, 2)
    return y_new[0], F[0]


def bump(Y):
    """s' = 1 and y' a narrow bump at s = +-1, which the step size first
    outgrows and then must be rejected back down to: rows [s, y]."""
    s = Y[:, 0]
    return np.stack((np.ones(len(Y)), 50.0 / (1.0 + (50.0 * (s * s - 1.0)) ** 2)), axis=1)


def oscillator(Y):
    """x' = v, v' = -x on the rows [x, v, flag]; a flagged row's flag turns NaN
    past x = 0.5, so that its leg fails there."""
    x, v, flag = Y.T
    return np.stack((v, -x, np.where((flag > 0) & (x > 0.5), np.nan, 0.0)), axis=1)


OSCILLATOR = (oscillator, lambda Y: -Y[:, :1], 1, 3)  # ends where x falls through 0


def test_dense_output_per_segment_matches_the_per_round_formula():
    # leg 0's state at the end of its third step, from a run without events
    probe = []
    _dop853.solve(((bump, no_events, 0, 2),), np.zeros((1, 2)), [0], [3.0], 1e-10,
                  lambda i, seg: probe.append(seg))
    s3 = probe[0].y_old[3][0]
    # |s - s3| touches 0 at that step's end and rises: it fires on the step
    # after, with its root on the previous step's end, and that step is dropped
    bump_kind = (bump, lambda Y: np.abs(Y[:, :1] - s3), 1, 2)
    systems = (bump_kind, OSCILLATOR)
    y0 = np.array([[0.0, 0.0, 0.0], [0.0, 0.0, 0.0], [0.0, 1.0, 0.0]])
    kinds, starts, got = [0, 0, 1], list(y0), []

    def on_end(i, seg):
        got.append((i, kinds[i], starts[i], seg))
        if isinstance(seg, StiffnessError) or seg.event is None:
            return None
        # leg 0 goes on as an oscillator; leg 2 goes on flagged, and fails
        nxt = np.array([0.0, 1.0, 0.0]) if i == 0 else np.array([-1.0, 0.0, 1.0])
        kinds[i], starts[i] = 1, nxt
        return nxt, 1

    _dop853.solve(systems, y0, [0, 0, 1], [3.0, -3.0, 10.0], 1e-10, on_end)
    legs = [[(kind, type(seg).__name__) for j, kind, _, seg in got if j == i] for i in range(3)]
    assert legs == [[(0, "Segment"), (1, "Segment")], [(0, "Segment")],
                    [(1, "Segment"), (1, "StiffnessError")]]
    segs = [entry for entry in got if isinstance(entry[3], _dop853.Segment)]
    popped = next(seg for i, kind, _, seg in segs if (i, kind) == (0, 0))
    assert (popped.event, len(popped.h), popped.ts[-1]) == (0, 3, probe[0].ts[3])
    assert any(seg.rejected for *_, seg in segs)
    for i, kind, start, seg in segs:
        steps, drop = len(seg.h), int(seg is popped)
        assert np.array_equal(seg.y_old[0], start)
        for k in range(steps):
            y_new, F = reference_step(systems[kind], seg.h[k], seg.y_old[k])
            assert np.array_equal(seg.F[k], F), (i, kind, k)
            if k + 1 < steps:
                assert np.array_equal(seg.y_old[k + 1], y_new), (i, kind, k)
        # each step ends on a time of the segment, but the step an event root ends
        ends = steps if seg.event is None or drop else steps - 1
        assert np.array_equal(np.diff(seg.ts)[:ends], seg.h[:ends])
        assert seg.nfev == 2 + 15 * (steps + drop) + 12 * seg.rejected


def test_right_hand_side_calls_per_segment_and_round():
    # per kind: 2 calls start the segments that start in a round, 12 run each
    # round, accepted or rejected, and 3 end the segments that end in a round,
    # all of them in one pass.  One leg; two legs of one kind, which end each
    # segment in the same round (3 calls there, not 6); one leg of each of two
    # kinds, which end each segment in the same round (3 calls a kind)
    for kinds in ([0], [0, 0], [0, 1]):
        calls, segs = ([], []), [[] for _ in kinds]

        def counted(k):
            def fun(Y):
                calls[k].append(len(Y))
                return oscillator(Y)
            return fun

        def on_end(i, seg):
            segs[i].append(seg)
            return None if seg.event is None else (np.array([-1.0, 0.0, 0.0]), kinds[i])

        systems = tuple((counted(k), *OSCILLATOR[1:]) for k in (0, 1))
        _dop853.solve(systems, np.tile([0.0, 1.0, 0.0], (len(kinds), 1)), kinds,
                      [20.0] * len(kinds), 1e-10, on_end)
        for leg in segs:
            assert [seg.event for seg in leg] == [0, 0, 0, 0, None]
            assert all(np.array_equal(a.ts, b.ts) for a, b in zip(leg, segs[0]))
        leg = segs[0]
        rounds = sum(len(seg.h) + seg.rejected for seg in leg)
        for k in set(kinds):
            assert len(calls[k]) == 2 * len(leg) + 12 * rounds + 3 * len(leg), kinds
        assert sum(seg.nfev for seg in leg) == 2 * len(leg) + 15 * sum(
            len(seg.h) for seg in leg) + 12 * sum(seg.rejected for seg in leg)


def test_tol_not_finite_or_below_100_eps_is_a_value_error():
    # the one tolerance rule: no warning, no clamp, and no trace of 0 steps
    c = random_null_rays(4, 1, 0)[0]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for tol in (math.nan, math.inf, 0.0, -1e-10, 1e-20):
            for T in (1.0, 0.0, 1e-13):  # a leg with |T| <= 1e-12 runs no segment
                with pytest.raises(ValueError, match="`tol` must be finite and at least 100 EPS"):
                    flow(c, T, tol=tol)
        tr = flow(c, 1.0, tol=100 * _dop853.EPS)
    assert tr.truncated is None and tr.stats["steps"] > 0


def test_negative_tolerance_is_rejected():
    # the rule holds in the stepper itself, not only in flow
    with pytest.raises(ValueError, match="`tol` must be finite and at least 100 EPS"):
        _dop853.solve((OSCILLATOR,), np.zeros((1, 3)), [0], [1.0], -1e-10, lambda i, seg: None)


# the interpolant of a step from t = 0 to 1 that is y = t: F[0] = 1, the rest 0
LINE_STEP = (0.0, 1.0, np.zeros(1), np.eye(7, 1))


@pytest.mark.parametrize("event,message", [
    (lambda Y: Y[:, 0] + 1.0, "does not change sign"),
    # regula falsi keeps landing on t = 0, where the value is -1e-300, and the
    # halved far end never outweighs it within 100 iterations
    (lambda Y: np.where(Y[:, 0] > 0.5, 1.0, -1e-300), "failed to converge after 100 iterations"),
], ids=["same-sign", "no-convergence"])
def test_event_search_failures_raise(event, message):
    with pytest.raises(StiffnessError, match=message):
        _dop853._locate(event, 1, *LINE_STEP)


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
from feynlab import _dop853, bichar, cli

def nan_rhs(Y):
    return np.full(Y.shape, np.nan)

got = []
_dop853.solve(((nan_rhs, lambda Y: np.zeros((len(Y), 0)), 0, 8),), np.ones((1, 8)), [0],
              [10.0], 1e-10, lambda i, seg: got.append(seg))
message = str(got[0]) if got and isinstance(got[0], Exception) else None
bichar._int_rhs = nan_rhs
tr = bichar.flow(bichar.random_null_rays(4, 1, 0)[0], 10.0)
tmp = pathlib.Path(sys.argv[1])
cfg = tmp / "flow.json"
cfg.write_text(json.dumps({"subcommand": "flow", "params": {"n": 4, "count": 1, "T": 10.0}}))
code = cli.main(["--config", str(cfg), "--out", str(tmp / "out")])
rays = json.loads((tmp / "out" / "flow.json").read_text())["rays"]
print(json.dumps({
    "message": message, "truncated": tr.truncated, "samples": len(tr.times),
    "segments": tr.stats["segments"], "code": code,
    "legs": [ray[leg]["truncated"] for ray in rays for leg in ("forward", "backward")],
    "manifest": (tmp / "out" / "manifest.json").exists(),
}))
"""


def test_nan_right_hand_side_fails_the_segment_instead_of_hanging(run_child, tmp_path):
    proc = run_child(NAN_RHS, str(tmp_path), timeout=60.0)
    assert proc.returncode == 0, proc.stderr
    got = json.loads(proc.stdout.splitlines()[-1])
    assert got["message"] == "step size is NaN"
    # the first segment fails: the leg keeps its start sample only
    assert (got["truncated"], got["samples"], got["segments"]) == ("stiff", 1, 0)
    # the CLI writes its report, then exits 3
    assert got["code"] == 3 and got["manifest"]
    assert got["legs"] == ["stiff", "stiff"]


def test_failed_segment_ends_the_leg_after_the_segments_before_it(monkeypatch):
    ray = random_null_rays(4, 1, 0)[0]
    full = flow(ray, 10.0)
    end, calls = bichar._Leg.end, []

    def fail_the_second(leg, seg):
        # the start time of each segment the stepper ends; the second fails
        calls.append(seg.ts[0])
        return end(leg, StiffnessError("injected") if len(calls) == 2 else seg)

    monkeypatch.setattr(bichar._Leg, "end", fail_the_second)
    tr = flow(ray, 10.0)
    assert tr.truncated == "stiff" and len(calls) == 2
    # the samples up to the end of the first segment, the second not counted
    k = len(tr.times)
    assert tr.times[-1] == calls[1] and k < len(full.times)
    assert np.array_equal(tr.times, full.times[:k]) and np.array_equal(tr.lam, full.lam[:k])
    s = tr.stats
    assert s["segments"] == 1 and 0 < s["steps"] < full.stats["steps"]
    assert s["fevals"] == 2 * s["segments"] + 15 * s["steps"] + 12 * s["rejected_estimated"]


def test_cli_import_loads_no_scipy(run_child):
    proc = run_child(
        "import json, sys\nimport feynlab.cli\n"
        "print(json.dumps([m for m in sys.modules if m == 'scipy' or m.startswith('scipy.')]))"
    )
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout) == []
