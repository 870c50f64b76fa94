"""Compactified Hamilton-flow traces, radial limits, and chart algebra."""

import csv
import hashlib
import math
import warnings

import numpy as np
import pytest
from hypothesis import assume, given
from hypothesis import strategies as st

from feynlab import bichar
from feynlab.bichar import (
    SINKS,
    SOURCES,
    BCotangentPoint,
    InteriorCovector,
    RadialSet,
    classify_limit,
    compactify,
    decompactify,
    flow,
    radial_flow_signature,
    random_null_rays,
)
from feynlab.errors import ChartError, ClassificationError


def interior_samples(tr, rho_min=0.1):
    """(t, z, zeta) triples for samples with a clean invertible chart,
    fiber rescaled back to raw size."""
    out = []
    for t, p, k in zip(tr.times, tr.points, tr.log_scale):
        if p.rho > rho_min and p.chart_ok and abs(p.v) < 1.0 - 1e-9:
            c = decompactify(p)
            out.append((t, c.z, c.zeta * np.exp(k)))
    return out


# --- covector and chart basics -------------------------------------------

def test_interior_covector_rejects_zero_frequency():
    with pytest.raises(ChartError):
        InteriorCovector(np.array([1.0, 0.0]), np.array([0.0, 0.0]))


def test_interior_covector_rejects_shape_mismatch():
    with pytest.raises(ChartError):
        InteriorCovector(np.array([1.0, 0.0, 0.0]), np.array([1.0, 0.0]))


def test_compactify_time_axis_point():
    # points on the positive time axis sit at v = 1 with rho = 1/R; the
    # angular chart is degenerate there and the frame flag reflects that
    pt = compactify(InteriorCovector(np.array([0.0, 0.0, 0.0, 5.0]),
                                     np.array([0.0, 0.0, 0.0, 1.0])))
    assert pt.rho == pytest.approx(0.2)
    assert pt.v == pytest.approx(1.0)
    assert pt.cap == 1
    assert not pt.chart_ok

    pm = compactify(InteriorCovector(np.array([0.0, 0.0, 0.0, -5.0]),
                                     np.array([0.0, 0.0, 0.0, 1.0])))
    assert pm.cap == -1


def test_compactify_midslice_point():
    # |z''| = z_n > 0 sits exactly between the spatial slice and the axis
    pt = compactify(InteriorCovector(np.array([3.0, 0.0, 0.0, 3.0]),
                                     np.array([1.0, 0.0, 0.0, 1.0])))
    assert pt.v == pytest.approx(0.0, abs=1e-14)
    assert pt.chart_ok


def test_compactify_zero_time_slice_has_no_gamma():
    # dv/dw = 4w vanishes on the slice z_n = 0, so the v-frame has no gamma
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        pt = compactify(InteriorCovector([30.0, 0.0, 0.0, 0.0], [0.0, 0.0, 0.0, 1.0]))
    assert math.isnan(pt.gamma)
    assert not pt.chart_ok


def test_compactify_rejects_origin():
    with pytest.raises(ChartError, match="z = 0"):
        compactify(InteriorCovector(np.array([0.0, 0.0, 0.0, 0.0]),
                                    np.array([1.0, 0.0, 0.0, 0.0])))


@pytest.mark.parametrize("scale", [1e-160, 1e-200])
def test_compactify_rejects_underflowing_radius(scale):
    # |z|^2 is subnormal at 1e-160 (the chart would read ok and return zeta
    # off by 5e-6) and 0 at 1e-200; neither point is z = 0
    with pytest.raises(ChartError) as info:
        compactify(InteriorCovector([scale, 2.0 * scale], [1.0, 2.0]))
    assert f"|z| = {np.sqrt(5.0) * scale:.3g}" in str(info.value)
    assert "z = 0" not in str(info.value)


def test_compactify_round_trip_just_above_underflow():
    c = InteriorCovector([1e-150, 2e-150], [1.0, 2.0])
    pt = compactify(c)
    assert pt.chart_ok
    back = decompactify(pt)
    assert np.max(np.abs(back.z - c.z)) <= 1e-15 * np.linalg.norm(c.z)
    assert np.max(np.abs(back.zeta - c.zeta)) <= 1e-15 * np.linalg.norm(c.zeta)


def test_chart_round_trip_random_points():
    rng = np.random.default_rng(5)
    done = 0
    while done < 20:
        z = rng.normal(size=4) * 3.0
        if np.linalg.norm(z[:-1]) < 0.3 * np.linalg.norm(z) or np.linalg.norm(z) < 0.5:
            continue
        zeta = rng.normal(size=4)
        if np.linalg.norm(zeta) < 0.1:
            continue
        c = InteriorCovector(z, zeta)
        back = decompactify(compactify(c))
        assert np.max(np.abs(back.z - c.z)) <= 1e-12 * max(1.0, np.max(np.abs(c.z)))
        assert np.max(np.abs(back.zeta - c.zeta)) <= 1e-12 * max(1.0, np.max(np.abs(c.zeta)))
        done += 1


# Components of size 0 or in [1e-6, 1e6]: |z|^2 is then a normal float (below
# about 1.5e-154 it underflows and compactify raises ChartError).
_COMPONENT = st.floats(-1e6, 1e6).map(lambda x: 0.0 if abs(x) < 1e-6 else x)


@given(
    st.integers(2, 4).flatmap(
        lambda n: st.tuples(*[st.lists(_COMPONENT, min_size=n, max_size=n)] * 2)
    )
)
def test_compactify_round_trip_property(pair):
    z, zeta = (np.array(v) for v in pair)
    assume(np.any(z != 0.0) and np.any(zeta != 0.0))
    c = InteriorCovector(z, zeta)
    pt = compactify(c)
    assume(pt.chart_ok)
    back = decompactify(pt)
    # v = 2w^2 - 1 pins q = min(|z_n|, |z''|)/|z| only to eps/q, and the
    # fiber solve divides by q once more; chart_ok keeps q >= 1e-7.  Worst
    # seen over 2e5 random draws (component sizes spread over 12 decades):
    # 2.9e-16/q and 3.0e-16/q^2.
    q = min(abs(z[-1]), float(np.linalg.norm(z[:-1]))) / float(np.linalg.norm(z))
    assert np.max(np.abs(back.z - z)) <= 1e-14 * np.linalg.norm(z) / q
    assert np.max(np.abs(back.zeta - zeta)) <= 1e-13 * np.linalg.norm(zeta) / q**2


def test_decompactify_rejects_degenerate_frame():
    pt = BCotangentPoint(n=4, rho=0.2, v=1.0, y=(0.0, 0.0), sigma=0.0,
                         gamma=1.0, eta=(0.0, 0.0), cap=1, chart=0, chart_ok=False)
    with pytest.raises(ChartError):
        decompactify(pt)


# --- the v-frame chart, kept as the reference ----------------------------

def ref_compactify(z, zeta):
    """(z, zeta) -> b-frame computed in the v-frame itself, with v from squares."""
    n = z.size
    r = float(np.linalg.norm(z))
    a = float(np.linalg.norm(z[:-1]))
    w = float(z[-1] / r)
    v = float((z[-1] ** 2 - a * a) / (r * r))
    cap = 1 if w >= 0.0 else -1
    if a <= 1e-14 * r:
        chart, y = 0, np.zeros(n - 2)
    else:
        chart, y = bichar._sphere_chart(z[:-1] / a)
    omega = bichar._sphere_point(chart, y)
    qp, qm = abs(w), a / r
    gamma = (float(zeta[-1]) * cap * r / (4.0 * max(qp, 1e-300))
             - float(zeta[:-1] @ omega) * r / (4.0 * max(qm, 1e-300)))
    eta = r * qm * (bichar._sphere_jacobian(chart, y) @ zeta[:-1])
    return BCotangentPoint(
        n=n, rho=1.0 / r, v=v, y=tuple(y), sigma=-float(zeta @ z), gamma=gamma,
        eta=tuple(eta), cap=cap, chart=chart, chart_ok=min(qp, qm) >= 1e-7,
    )


def ref_decompactify(pt):
    """Inverse of ref_compactify: solve the v-frame Jacobian for zeta."""
    n = pt.n
    r = 1.0 / pt.rho
    qp = math.sqrt((1.0 + pt.v) / 2.0)
    qm = math.sqrt((1.0 - pt.v) / 2.0)
    y = np.asarray(pt.y, dtype=float)
    omega = bichar._sphere_point(pt.chart, y)
    z = np.concatenate((r * qm * omega, [pt.cap * r * qp]))
    # rows of J^T: derivatives of z along (log r, v, y_i)
    Jt = np.zeros((n, n))
    Jt[0] = z
    Jt[1, :-1] = -r * omega / (4.0 * qm)
    Jt[1, -1] = pt.cap * r / (4.0 * qp)
    Jt[2:, :-1] = r * qm * bichar._sphere_jacobian(pt.chart, y)
    rhs = np.concatenate(([-pt.sigma, pt.gamma], np.asarray(pt.eta, dtype=float)))
    return z, np.linalg.solve(Jt, rhs)


def v_symbol(pt):
    """The v-frame symbol lam of the module docstring at a b-point."""
    v = pt.v
    y = np.asarray(pt.y, dtype=float)
    eta = np.asarray(pt.eta, dtype=float)
    h_term = (1.0 + float(y @ y)) ** 2 / 4.0 * float(eta @ eta)
    return (
        v * pt.sigma**2
        - 4.0 * (1.0 - v * v) * pt.sigma * pt.gamma
        - 4.0 * v * (1.0 - v * v) * pt.gamma**2
        - 2.0 * h_term / (1.0 - v)
    )


@given(
    st.integers(2, 4).flatmap(
        lambda n: st.tuples(*[st.lists(_COMPONENT, min_size=n, max_size=n)] * 2)
    )
)
def test_chart_matches_v_frame_reference(pair):
    z, zeta = (np.array(v) for v in pair)
    assume(np.any(z != 0.0) and np.any(zeta != 0.0))
    pt = compactify(InteriorCovector(z, zeta))
    ref = ref_compactify(z, zeta)
    assert (pt.n, pt.cap, pt.chart, pt.chart_ok) == (ref.n, ref.cap, ref.chart, ref.chart_ok)
    assume(ref.chart_ok)
    # v = 2w^2 - 1 against v from squares: a few ulps.  The fiber agrees to
    # a few ulps of its norm (worst seen over 8e4 random draws with q down
    # to 1e-7: 4.4e-16); the inverse solve divides by q once (worst seen
    # 1.2e-15/q).
    q = min(abs(z[-1]), float(np.linalg.norm(z[:-1]))) / float(np.linalg.norm(z))
    assert pt.rho == ref.rho
    assert pt.y == ref.y
    assert abs(pt.v - ref.v) <= 4e-15
    assert np.max(np.abs(pt.fiber() - ref.fiber())) <= 1e-14 * np.linalg.norm(ref.fiber())
    back = decompactify(ref)
    z_ref, zeta_ref = ref_decompactify(ref)
    assert np.max(np.abs(back.z - z_ref)) <= 1e-15 * np.linalg.norm(z_ref)
    assert np.max(np.abs(back.zeta - zeta_ref)) <= 1e-14 * np.linalg.norm(zeta_ref) / q


# --- symbol in the compactified frame ------------------------------------

def test_hamiltonian_vanishes_on_null_covectors():
    rng = np.random.default_rng(2)
    for _ in range(20):
        z = rng.normal(size=4) * 2.0
        if np.linalg.norm(z[:-1]) < 0.3 * max(np.linalg.norm(z), 1e-9):
            continue
        zpp = rng.normal(size=3)
        zeta = np.concatenate((zpp, [np.linalg.norm(zpp)]))
        pt = compactify(InteriorCovector(z, zeta))
        if not pt.chart_ok or abs(pt.v) >= 1.0 - 1e-9:
            continue
        scale = float(zeta @ zeta) * float(z @ z)
        assert abs(v_symbol(pt)) <= 1e-10 * scale


def test_hamiltonian_matches_rescaled_interior_symbol():
    # independent route: the compactified symbol equals r^2 (zeta_n^2 - |zeta''|^2)
    # computed straight from the plain coordinates
    rng = np.random.default_rng(3)
    done = 0
    while done < 15:
        z = rng.normal(size=4) * 2.0
        if np.linalg.norm(z[:-1]) < 0.3 * np.linalg.norm(z) or np.linalg.norm(z) < 0.5:
            continue
        zeta = rng.normal(size=4)
        c = InteriorCovector(z, zeta)
        pt = compactify(c)
        want = float(z @ z) * (zeta[-1] ** 2 - zeta[:-1] @ zeta[:-1])
        assert v_symbol(pt) == pytest.approx(want, rel=1e-10, abs=1e-12)
        done += 1


def test_hamiltonian_unit_time_covector_value():
    z = np.array([1.0, -2.0, 0.5, 1.5])
    c = InteriorCovector(z, np.array([0.0, 0.0, 0.0, 1.0]))
    assert v_symbol(compactify(c)) == pytest.approx(float(z @ z), rel=1e-12)


# --- flow: interior geometry ---------------------------------------------

def test_flow_interior_ray_is_straight_with_constant_frequency(monkeypatch):
    c = InteriorCovector(np.array([0.5, -0.3, 0.2, 0.1]),
                         np.array([0.6, 0.8, 0.0, 1.0]))
    monkeypatch.setattr(bichar, "_SAMPLES_PER_UNIT", 40.0)
    tr = flow(c, 0.6, tol=1e-10)
    rows = interior_samples(tr)
    assert len(rows) >= 10
    ts = np.array([r[0] for r in rows])
    zs = np.array([r[1] for r in rows])
    zetas = np.array([r[2] for r in rows])

    # base line: all samples collinear with the Hamilton direction
    vel = np.concatenate((-2.0 * c.zeta[:-1], [2.0 * c.zeta[-1]]))
    s = (zs - c.z) @ vel / (vel @ vel)
    perp = zs - c.z - s[:, None] * vel[None, :]
    assert np.max(np.linalg.norm(perp, axis=1)) <= 1e-8
    assert np.all(np.diff(s) > 0)

    # frequency covector exactly frozen along a null ray
    assert np.max(np.abs(zetas - c.zeta)) <= 1e-8

    # parametrization law of the rescaled field: ds/dt = |z|^2
    r2 = np.sum(zs**2, axis=1)
    s_quad = np.concatenate(([0.0], np.cumsum(0.5 * (r2[1:] + r2[:-1]) * np.diff(ts))))
    assert np.max(np.abs(s - s_quad)) <= 5e-3 * s[-1]


def test_flow_trace_parameter_strictly_monotone():
    c = InteriorCovector(np.array([0.5, -0.3, 0.2, 0.1]),
                         np.array([0.6, 0.8, 0.0, 1.0]))
    fwd = flow(c, 30.0, tol=1e-10)
    assert np.all(np.diff(fwd.times) > 0)
    bwd = flow(c, -30.0, tol=1e-10)
    assert np.all(np.diff(bwd.times) < 0)


def test_flow_symbol_drift_stays_tiny():
    for c in random_null_rays(4, 4, seed=21):
        tr = flow(c, 40.0, tol=1e-10)
        assert tr.symbol_drift() <= 1e-8


def test_flow_accepts_boundary_chart_start():
    c = InteriorCovector(np.array([25.0, 10.0, 0.0, 5.0]),
                         np.array([0.6, 0.8, 0.0, 1.0]))
    pt = compactify(c)
    assert pt.rho < 0.05
    tr = flow(pt, 12.0, tol=1e-10)
    assert np.all(np.diff(tr.times) > 0)
    assert classify_limit(tr) in SINKS


@pytest.mark.parametrize("d", [0.0, 1e-11, 1e-9, 1e-7])
@pytest.mark.parametrize("zeta", [[1.0, 0.0, 0.0, 1.0], [0.0, 0.0, 0.0, 1.0]],
                         ids=["null", "timelike"])
def test_flow_next_to_time_axis_records_finite_values(d, zeta):
    # below |z''| ~ 1e-8 |z| the latitude frame's 1 - w^2 rounds to 0, and at
    # z'' = 0 the raw fiber's norm overflows when squared
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        tr = flow(InteriorCovector([d, 0.0, 0.0, 5.0], zeta), 40.0)
    rows = [[p.rho, p.v, *p.y, p.sigma, p.gamma, *p.eta] for p in tr.points]
    for values in (rows, tr.times, tr.lam, tr.log_scale):
        assert np.all(np.isfinite(values))
    null = zeta[0] != 0.0
    assert tr.nonnull != null
    if null:
        assert tr.symbol_drift() <= 1e-8


@pytest.mark.parametrize(
    "start,match",
    [
        (InteriorCovector([0.0, 0.0, 0.0, 0.0], [1.0, 0.0, 0.0, 1.0]), "z = 0"),
        (InteriorCovector([2.2e-160, 0.0, 0.0, 0.0], [1.0, 0.0, 0.0, 1.0]), "underflows"),
        (BCotangentPoint(n=4, rho=0.01, v=-1.5, y=(0.0, 0.0), sigma=0.0, gamma=1.0,
                         eta=(0.0, 0.0)), "degenerate"),
        # on the zero-time slice gamma is gamma_w/(4w) = inf
        (compactify(InteriorCovector([30.0, 0.0, 0.0, 0.0], [0.0, 0.0, 0.0, 1.0])),
         "degenerate"),
    ],
    ids=["origin", "underflow", "v-out-of-range", "zero-time-slice"],
)
def test_flow_rejects_start_outside_the_chart(start, match):
    with pytest.raises(ChartError, match=match):
        flow(start, 1.0)


def test_flow_reaches_radial_set():
    for c in random_null_rays(4, 4, seed=11):
        tr = flow(c, 40.0, tol=1e-10)
        end = tr.end_point()
        assert end.rho < 1e-3
        assert abs(end.v) < 1e-3
        assert abs(end.sigma) < 1e-3
        assert np.linalg.norm(end.eta) < 1e-3
        # the fiber is unit size, so gamma carrying it all means |gamma| ~ 1
        assert abs(end.gamma) > 0.99


# --- limit classification ------------------------------------------------

def test_forward_flows_hit_sinks_backward_flows_hit_sources():
    rays = random_null_rays(4, 10, seed=7)
    fwd_labels = []
    for c in rays:
        tr = flow(c, 40.0, tol=1e-10)
        lab = classify_limit(tr)
        fwd_labels.append(lab)
        assert lab in SINKS
        assert tr.end_point().gamma > 0

        back = flow(c, -40.0, tol=1e-10)
        bl = classify_limit(back)
        assert bl in SOURCES
        assert back.end_point().gamma < 0
        # reversal swaps the cap along with the sink/source character
        assert bl.is_future != lab.is_future
    # both characteristic halves show up in the ensemble
    assert RadialSet.SINK_FUTURE in fwd_labels
    assert RadialSet.SINK_PAST in fwd_labels


def test_classify_limit_matches_end_cap_and_gamma_sign():
    # future components sit over cap +1, past over cap -1; sinks at the
    # +gamma fiber pole, sources at -gamma
    for c in random_null_rays(4, 4, seed=3):
        tr = flow(c, 40.0, tol=1e-10)
        end = tr.end_point()
        label = classify_limit(tr)
        assert end.cap == (1 if label.is_future else -1)
        assert (end.gamma > 0) == label.is_sink


def test_classify_short_trace_returns_none():
    c = random_null_rays(4, 1, seed=1)[0]
    tr = flow(c, 0.05, tol=1e-10)
    assert classify_limit(tr) is None


@pytest.mark.parametrize("T", [1e-13, -1e-13, 0.0])
def test_flow_too_short_to_step_keeps_its_start_sample(T):
    # |T| <= 1e-12 runs no segment; the trace still has the start sample,
    # the same one a longer flow begins with
    c = random_null_rays(4, 1, seed=1)[0]
    tr = flow(c, T, tol=1e-10)
    longer = flow(c, 0.05, tol=1e-10)
    assert list(tr.times) == [0.0] and tr.stats["segments"] == 0
    assert tr.end_point() == longer.points[0]
    assert (tr.lam[0], tr.log_scale[0]) == (longer.lam[0], longer.log_scale[0])
    assert classify_limit(tr) is None and tr.symbol_drift() == 0.0


def test_classify_flags_nonnull_and_rejects_converged_timelike():
    ct = InteriorCovector(np.array([1.0, 0.5, 0.2, 0.3]),
                          np.array([0.1, 0.0, 0.0, 1.0]))
    short = flow(ct, 0.5, tol=1e-10)
    assert short.nonnull
    assert classify_limit(short) is None

    # the projectivized flow drags timelike covectors to the radial set too;
    # a converged non-null trace is a contradiction worth raising on
    long = flow(ct, 40.0, tol=1e-10)
    with pytest.raises(ClassificationError):
        classify_limit(long)


def test_radial_linearization_sign_pattern():
    # sink at gamma > 0: contraction in (rho, v), expansion in gamma
    ev = np.abs(radial_flow_signature(0.5))
    assert np.sum(ev < 1.0) == 2
    assert np.sum(ev > 1.0) == 1
    # source at gamma < 0: the pattern flips
    ev = np.abs(radial_flow_signature(-0.5))
    assert np.sum(ev > 1.0) == 2
    assert np.sum(ev < 1.0) == 1
    # from gamma = 12.5 on, gamma(t) blows up before parameter 0.02
    with pytest.raises(ValueError):
        radial_flow_signature(12.5)


def reduced_flow_map(starts, T=0.02, steps=200):
    """Classical RK4 on the reduced (rho, v, gamma) system at eta = sigma = 0,
    for starts stacked as columns."""

    def rhs(s):
        r, v, g = s
        one = 1.0 - v * v
        return np.array([-4.0 * one * g * r, -8.0 * v * one * g, 4.0 * g * g * (1.0 - 3.0 * v * v)])

    h = T / steps
    s = np.asarray(starts, dtype=float)
    for _ in range(steps):
        k1 = rhs(s)
        k2 = rhs(s + 0.5 * h * k1)
        k3 = rhs(s + 0.5 * h * k2)
        k4 = rhs(s + h * k3)
        s = s + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
    return s


@given(st.floats(-1.0, 1.0).filter(lambda g: g != 0.0))
def test_radial_signature_matches_central_difference(gamma):
    # the closed form against the eigenvalues of the flow map's central
    # difference (delta = 1e-5) about (0.01, 0, gamma)
    delta = 1e-5
    base = np.array([0.01, 0.0, gamma])
    e = delta * np.eye(3)
    ends = reduced_flow_map(np.concatenate((base + e, base - e)).T)
    eigs = np.linalg.eigvals((ends[:, :3] - ends[:, 3:]) / (2.0 * delta))
    assert np.all(eigs.imag == 0.0)
    want = np.sort(radial_flow_signature(gamma))
    assert np.max(np.abs(np.sort(eigs.real) - want)) <= 1e-9


# --- golden traces -------------------------------------------------------

# sha256 over every RayTrace field of the starts below, recorded after the
# traces matched GOLDEN_ENDS
GOLDEN_FLOW = "6b5990f3d072e1cd3011d9bb34e934dc06165af2517ab6d442c000841774f0e4"

# Per golden start: the limit label, the truncated flag and the end point
# (rho, v, sigma, gamma), which a change of the arithmetic must reproduce
# within FLOW_TOL before GOLDEN_FLOW is recorded again.  Starts 24-30, 32
# and 33 start in the latitude chart (|w| < 0.85) and are pinned from that
# rule; the rest are pinned from the v-frame chart map that came before.
FLOW_TOL = 1e-9
GOLDEN_ENDS = [
    ('sink-future', None, 1e-05, 1.17453120223e-05, -1.17495906303e-05, 0.999999986344),
    ('source-past', None, 1e-05, -1.17538694532e-05, -1.17495906248e-05, -0.999999986346),
    ('sink-past', None, 1e-05, -4.71940627663e-05, 4.71938566929e-05, 0.999999998564),
    ('source-future', None, 1e-05, 4.71936507955e-05, 4.71938567005e-05, -0.999999998563),
    ('sink-future', None, 1e-05, -2.94531144018e-06, 2.94525386191e-06, 0.99999999986),
    ('source-past', None, 1e-05, 2.94519567823e-06, 2.94525325259e-06, -0.99999999986),
    ('sink-future', None, 1e-05, 1.91816407862e-05, -1.91829299033e-05, 0.99999999499),
    ('source-past', None, 1e-05, -1.91842189498e-05, -1.91829296914e-05, -0.99999999499),
    ('sink-past', None, 1e-05, -9.20148319294e-06, 9.20041966574e-06, 0.999999995978),
    ('source-future', None, 1e-05, 9.19935561505e-06, 9.20041907047e-06, -0.999999995978),
    ('sink-future', None, 1e-05, 2.53862917539e-05, -2.53906645863e-05, 0.999999992427),
    ('source-past', None, 1e-05, -2.53950370754e-05, -2.5390664096e-05, -0.999999992426),
    ('sink-future', None, 1e-05, 5.88276245754e-05, -5.88283222672e-05, 0.999999997441),
    ('source-past', None, 1e-05, -5.8829024225e-05, -5.882832623e-05, -0.999999997691),
    ('sink-past', None, 1e-05, -3.07362856127e-05, 3.07343165148e-05, 0.999999997921),
    ('source-future', None, 1e-05, 3.07323475954e-05, 3.07343166518e-05, -0.999999997159),
    ('sink-future', None, 1e-05, -2.08271182638e-05, 2.08267198768e-05, 0.999999999112),
    ('source-past', None, 1e-05, 2.08263206227e-05, 2.08267189826e-05, -0.999999999112),
    ('sink-past', None, 1e-05, 7.27706132624e-05, -7.27713035957e-05, 0.999999994802),
    ('sink-past', None, 1e-05, 7.27706132617e-05, -7.27713035956e-05, 0.999999994802),
    ('sink-future', None, 1e-05, 6.85289416655e-05, -6.85293062558e-05, 0.999999997264),
    ('sink-future', None, 1e-05, 6.85289416649e-05, -6.85293062558e-05, 0.999999997264),
    ('inconsistent', None, 1e-05, 1.01640722987e-05, -1.01642937765e-05, 0.999999999945),
    ('inconsistent', None, 1e-05, 6.29974567645e-06, -6.29973674649e-06, 0.999999999978),
    (None, None, 1e-05, 0.0015961186815, -0.00159779972202, 0.999998709261),
    ('sink-past', None, 1e-05, -4.91003946177e-05, 4.76142438865e-05, 0.999999983544),
    ('sink-future', None, 1e-05, 0.000419419137207, -0.000419873861743, 0.99999990648),
    (None, None, 1e-05, 7.63220901361e-05, -7.93874761265e-05, 0.999997315413),
    (None, None, 1e-05, 0.00183501078029, -0.00183973474156, 0.999998260601),
    (None, None, 1e-05, 0.00265404288701, -0.00265430708653, 0.999995784151),
    (None, None, 1e-05, -0.000168895497047, 0.000168051287427, 0.99999911064),
    (None, None, 1e-05, 0.000557977981366, -0.000558407188597, 0.99999919845),
    (None, None, 1e-05, -0.00138074616852, 0.00138038589406, 0.999998641865),
    (None, None, 1e-05, -0.00254754617966, 0.00254649953018, 0.999994129634),
    (None, 'escaped', 0.0001, 1, -0.970142500145, 0.242535625036),
    (None, 'chart', 0.000132994050978, 0.84, 0.912501747766, 0.352336139081),
]


def golden_starts():
    """(start, T) pairs that reach every hand-over branch of flow."""
    starts = []
    for n in (3, 4, 5):
        for c in random_null_rays(n, 3, seed=n):
            starts += [(c, 100.0), (c, -100.0)]
    for c in random_null_rays(4, 2, seed=8, future=False):
        starts += [(c, 7.5), (compactify(c), 7.5)]
    # timelike and spacelike covectors
    starts.append((InteriorCovector([1.0, 0.5, 0.2, 0.3], [0.1, 0.0, 0.0, 1.0]), 7.5))
    starts.append((InteriorCovector([1.0, 0.5, 0.2], [1.0, 0.3, 0.2]), 7.5))
    # boundary-chart starts; ray 0 crosses a stereographic chart edge and
    # ray 5 hands back to the interior
    for c in random_null_rays(4, 10, seed=99):
        starts.append((compactify(InteriorCovector(40.0 * c.z, c.zeta)), 100.0))
    # ends "escaped" (along the time axis) and "chart" (wedge too deep out)
    starts.append((InteriorCovector([0.0, 0.0, 0.0, 5.0], [0.0, 0.0, 0.0, 1.0]), 1.0))
    deep = InteriorCovector(2000.0 * np.array([0.57, -1.59, 1.54, 2.29]),
                            [0.06, 1.4, -1.48, -1.99])
    starts.append((compactify(deep), -100.0))
    return starts


def limit_label(tr):
    """classify_limit's label, or "inconsistent" where it rejects the trace."""
    try:
        label = classify_limit(tr)
    except ClassificationError:
        return "inconsistent"
    return None if label is None else label.value


def trace_digest(traces):
    h = hashlib.sha256()
    for tr in traces:
        for a in (tr.times, tr.lam, tr.log_scale):
            h.update(np.ascontiguousarray(a).tobytes())
        h.update(repr(tr.points).encode())
        h.update(repr((tr.nonnull, tr.truncated, sorted(tr.stats.items()))).encode())
    return h.hexdigest()


def test_flow_golden_digest_and_branch_coverage(monkeypatch):
    hits = {"_chart_transition": [], "_bd_to_interior": []}
    current = [None]
    for name in hits:
        def spy(*args, _name=name, _fn=getattr(bichar, name)):
            hits[_name].append(current[0])
            return _fn(*args)
        monkeypatch.setattr(bichar, name, spy)
    starts = golden_starts()
    traces = []
    for i, (start, T) in enumerate(starts):
        current[0] = i
        traces.append(flow(start, T))
    first_bd = len(starts) - 12  # ten boundary starts, then the two truncated ones
    assert first_bd in hits["_chart_transition"]
    assert first_bd + 5 in hits["_bd_to_interior"]
    assert [tr.truncated for tr in traces[-2:]] == ["escaped", "chart"]
    assert len(GOLDEN_ENDS) == len(traces)
    for tr, (label, truncated, *end) in zip(traces, GOLDEN_ENDS):
        p = tr.end_point()
        assert (limit_label(tr), tr.truncated) == (label, truncated)
        assert np.max(np.abs(np.subtract([p.rho, p.v, p.sigma, p.gamma], end))) <= FLOW_TOL
    assert trace_digest(traces) == GOLDEN_FLOW


def test_flow_stats_account_for_every_evaluation():
    # a segment spends 2 evaluations on its first step, 15 on each accepted
    # step (12 stages and 3 for the dense output) and 12 on each rejected one;
    # a step dropped for an event on the previous step's end would spend 15
    # uncounted, and no golden start drops one
    for start, T in golden_starts():
        s = flow(start, T).stats
        assert s["fevals"] == 2 * s["segments"] + 15 * s["steps"] + 12 * s["rejected_estimated"]


# --- hand-over branches ---------------------------------------------------

_C97 = math.sqrt(1.0 - 0.97**2)
HAND_OVERS = [
    # crosses |z| = 20 next to the time axis (w = 0.97), outside the band, and
    # enters the latitude chart far out once w^2 falls to 0.85^2
    (InteriorCovector(19.0 * np.array([_C97, 0.0, 0.0, 0.97]), [-1.0, 0.0, 0.0, 1.0]),
     2, "band", 0),
    # starts just inside |z| = 20 next to the zero-time slice and enters at
    # |z| = 20
    (InteriorCovector(19.9 * np.array([math.sqrt(0.99), 0.0, 0.0, 0.1]),
                      [-1.0, 0.0, 0.0, 1.0]), 2, "radius", 0),
    # starts in the latitude chart (|z| = 25, w = -0.7) heading inward, exits
    # at rho = 0.06, passes by the origin and enters again at |z| = 20
    (InteriorCovector(25.0 * np.array([math.sqrt(0.51), 0.0, 0.0, -0.7]),
                      [1.0, -0.1, 0.0, math.sqrt(1.01)]), 3, "radius", 1),
]


@pytest.mark.parametrize(
    "start,segments,edge,exits", HAND_OVERS, ids=["axis-approach", "zero-time-slice", "inward"]
)
def test_flow_hand_over_branches(monkeypatch, start, segments, edge, exits):
    entries, exits_at = [], []

    def spy_enter(state, n, _fn=bichar._interior_to_bd):
        z = state[:n]
        entries.append((float(np.linalg.norm(z)), float(z[-1] ** 2 / (z @ z))))
        return _fn(state, n)

    def spy_exit(state, chart, n, _fn=bichar._bd_to_interior):
        exits_at.append((float(state[0]), float(state[1] ** 2)))
        return _fn(state, chart, n)

    monkeypatch.setattr(bichar, "_interior_to_bd", spy_enter)
    monkeypatch.setattr(bichar, "_bd_to_interior", spy_exit)
    tr = flow(start, 100.0)
    assert (classify_limit(tr), tr.truncated) == (RadialSet.SINK_FUTURE, None)
    assert tr.stats["segments"] == segments
    assert len(entries) == 1
    (r, w2), = entries
    if edge == "band":
        assert r > 20.0 and w2 == pytest.approx(0.85**2, abs=1e-9)
    else:
        assert r == pytest.approx(20.0, abs=1e-9) and w2 < 0.85**2
    assert len(exits_at) == exits
    for x, w2 in exits_at:
        assert x == pytest.approx(math.log(0.06), abs=1e-9) and w2 < 0.92


# --- export ---------------------------------------------------------------

def test_trace_csv_round_trip(tmp_path):
    c = InteriorCovector(np.array([0.5, -0.3, 0.2, 0.1]),
                         np.array([0.6, 0.8, 0.0, 1.0]))
    tr = flow(c, 5.0, tol=1e-10)
    path = tmp_path / "trace.csv"
    tr.to_csv(path)
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    header, body = rows[0], rows[1:]
    assert header == ["t", "rho", "v", "y0", "y1", "sigma", "gamma",
                      "eta0", "eta1", "lambda", "chart", "log_scale"]
    assert len(body) == len(tr.times)
    lam_col = np.array([float(r[9]) for r in body])
    assert np.max(np.abs(lam_col - lam_col[0])) <= 1e-8
    charts = {int(r[10]) for r in body}
    assert charts <= {-1, 0, 1}


def test_trace_csv_huge_log_scale_writes_no_nan(tmp_path):
    # on the time axis the raw fiber of the first sample is about e^700, and
    # two of its unit components are zero
    tr = flow(InteriorCovector([0.0, 0.0, 0.0, 5.0], [1e4, 0.0, 0.0, 1e4]), 1.0)
    assert tr.log_scale[0] >= 700.0
    path = tmp_path / "trace.csv"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        tr.to_csv(path)
    with open(path, newline="") as fh:
        body = list(csv.reader(fh))[1:]
    for row, p, k in zip(body, tr.points, tr.log_scale):
        raw, unit = np.array([float(x) for x in row[5:9]]), p.fiber()
        assert np.all(np.isfinite(raw))
        assert np.all((raw == 0.0) == (unit == 0.0))
        assert np.all(np.signbit(raw) == np.signbit(unit))
        nz = unit != 0.0
        assert np.allclose(np.log(np.abs(raw[nz])), k + np.log(np.abs(unit[nz])), rtol=1e-13)
