"""Compactified Hamilton-flow traces, radial limits, and chart algebra."""

import csv
import hashlib
import io
import math
import warnings
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from feynlab import _dop853, bichar
from feynlab.bichar import (
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
from feynlab.orders import _RULES, product_integral, rule_flat_model


def fiber(pt):
    """The v-frame fiber (sigma, gamma, eta) of a b-point."""
    return np.array([pt.sigma, pt.gamma, *pt.eta])


def is_future(label):
    return label.value.endswith("-future")


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
    # a boundary point has no interior preimage
    with pytest.raises(ChartError, match="rho must be positive"):
        decompactify(pt._replace(rho=0.0, v=0.0, chart_ok=True))


# --- the chart map on Python floats ---------------------------------------

def ref_dot(a, b):
    """a . b as the array form of the chart map summed it: numpy's products,
    added in index order from the first."""
    total, *rest = np.multiply(a, b).tolist() or [0.0]
    for p in rest:
        total += p
    return total


def ref_to_latitude(z, zeta):
    """The chart map's array form, the reference for _to_latitude: the same
    operations in the same order, run by numpy on arrays."""
    r2 = ref_dot(z, z)
    if r2 < np.finfo(float).tiny:
        if not np.any(z):
            raise ChartError("z = 0 has no compactified chart")
        raise ChartError(f"|z| = {math.hypot(*z):.3g} is too small for the compactified "
                         "chart: |z|^2 underflows")
    r = math.sqrt(r2)
    zpp = z[:-1]
    a = math.sqrt(ref_dot(zpp, zpp))
    w = float(z[-1] / r)
    sq = a / r
    om = zpp / a if a > 1e-14 * r else np.zeros(z.size - 1)
    chart = 0 if om[0] >= 0.0 else 1
    y = om[1:] / (1.0 + abs(om[0]))
    d = 1.0 + ref_dot(y, y)
    sign = 1.0 if chart == 0 else -1.0
    omega = np.concatenate(([sign * (2.0 - d) / d], 2.0 * y / d))
    sigma = -ref_dot(zeta, z)
    cw = float(zeta[-1]) * r - ref_dot(zeta[:-1], omega) * r * w / max(sq, 1e-300)
    v = zeta[:-1]
    eta = r * sq * (2.0 * v[1:] / d - 4.0 * (sign * v[0] + ref_dot(y, v[1:])) / (d * d) * y)
    return r, w, sq, chart, y, np.concatenate(([sigma, cw], eta))


def ref_from_latitude(r, w, sq, chart, y, fib):
    """The array form of _from_latitude, on arrays y and fib."""
    d = 1.0 + ref_dot(y, y)
    sign = 1.0 if chart == 0 else -1.0
    omega = np.concatenate(([sign * (2.0 - d) / d], 2.0 * y / d))
    z = np.concatenate((r * sq * omega, [r * w]))
    a, b = -fib[0] / r, sq * fib[1] / r
    eta = fib[2:]
    zeta = np.concatenate(((a * sq - b * w) * omega, [a * w + b * sq]))
    rows = np.concatenate(([0.0], d / 2.0 * eta)) - ref_dot(y, eta) * np.concatenate(([sign], y))
    zeta[:-1] += rows / (r * sq)
    return z, zeta


def ref_chart_transition(y, eta):
    """The array form of _chart_transition, on arrays y and eta."""
    r2 = ref_dot(y, y)
    return y / r2, r2 * eta - 2.0 * ref_dot(y, eta) * y


def assert_same_bits(got, want):
    """got holds Python floats with the values and signs of want's."""
    assert all(type(x) is float for x in got)
    g, w = np.array(got, dtype=float), np.array(want, dtype=float)
    assert g.shape == w.shape
    assert np.all(g == w) and np.all(np.signbit(g) == np.signbit(w))


# floats of either sign from 0.3 to 3e3 with full mantissas (times pi), so
# that a sum taken in another order rounds differently
_GENERIC = st.builds(lambda x, neg: -x if neg else x,
                     st.floats(0.1, 1e3).map(lambda x: x * math.pi), st.booleans())


@st.composite
def chart_inputs(draw):
    """(z, zeta) as lists, n = 2 to 5, with some components signed zeros; z
    free, on the time axis (|z''| <= 1e-14 |z|), on the zero-time slice, or
    scaled to about the underflow edge |z| = 1.5e-154."""
    n = draw(st.integers(2, 5))
    z, zeta = (draw(st.lists(_GENERIC, min_size=n, max_size=n)) for _ in range(2))
    for v in (z, zeta):
        for i in draw(st.sets(st.integers(0, n - 1), max_size=n)):
            v[i] = draw(st.sampled_from([0.0, -0.0]))
    where = draw(st.sampled_from(["free", "axis", "slice", "edge"]))
    if where == "axis":
        z = [1e-18 * c for c in z[:-1]] + [draw(st.sampled_from([1.0, -1.0, 1e3, -2.5]))]
    elif where == "slice":
        z[-1] = draw(st.sampled_from([0.0, -0.0]))
    elif where == "edge":
        top = max(map(abs, z)) or 1.0
        scale = draw(st.floats(1.0e-154, 1.6e-154))
        z = [c / top * scale for c in z]
    return z, zeta


@settings(max_examples=200)  # cheap, and a reordered sum shows in a few per cent
@given(chart_inputs())
@example(([-0.0, 2.0], [-0.0, -0.0]))  # n = 2, on the axis: y is empty
@example(([-1.0, 0.5], [0.3, -0.0]))  # n = 2, chart 1
@example(([1e-15, -0.0, 0.0, -3.0], [-0.0, 1.0, -2.0, 0.5]))  # the time axis
@example(([1.0, -2.0, 0.5, -0.0], [0.2, -0.0, 0.0, 1.0]))  # the zero-time slice
@example(([-1.5, 0.25, -0.0, 2.0, 1.0], [1.0, -1.0, 0.5, -0.0, 3.0]))  # n = 5, chart 1
@example(([1.0e-154, 1.0e-154], [1.0, 2.0]))  # |z|^2 just under the smallest normal
@example(([1.1e-154, 1.1e-154], [1.0, 2.0]))  # and just over it
@example(([0.0, -0.0, 0.0], [1.0, 2.0, 3.0]))  # z = 0
@example(([1.0, 1.0], [-0.0, -0.0]))  # zeta = 0: the inverse's 0.0 - y . eta is +0.0
def test_chart_map_on_floats_has_the_bits_of_the_array_form(pair):
    z, zeta = pair
    try:
        want = ref_to_latitude(np.array(z), np.array(zeta))
    except ChartError as exc:
        with pytest.raises(ChartError) as info:
            bichar._to_latitude(z, zeta)
        assert str(info.value) == str(exc)
        return
    got = bichar._to_latitude(z, zeta)
    assert got[3] == want[3]
    for g, w in zip((got[:3], got[4], got[5]), (want[:3], want[4], want[5])):
        assert_same_bits(g, w)
    # the inverse, where sq > 0, and the move to the other chart, where y != 0
    r, w, sq, chart, y, fib = got
    y_arr, fib_arr = np.array(y, dtype=float), np.array(fib)
    if sq > 0.0:
        for g, want in zip(bichar._from_latitude(r, w, sq, chart, y, fib),
                           ref_from_latitude(r, w, sq, chart, y_arr, fib_arr)):
            assert_same_bits(g, want)
    if ref_dot(y_arr, y_arr) > 0.0:
        for g, want in zip(bichar._chart_transition(y, fib[2:]),
                           ref_chart_transition(y_arr, fib_arr[2:])):
            assert_same_bits(g, want)


# --- the v-frame chart, kept as the reference ----------------------------

def ordered_norm(x):
    """|x| with the squares summed in index order, as the chart map sums them."""
    acc = 0.0
    for v in np.asarray(x, dtype=float).tolist():
        acc += v * v
    return math.sqrt(acc)


def ref_sphere_jacobian(chart, y):
    """The rows d omega / d y_i of _sphere_point, assembled, shape (m, m+1)."""
    y = np.asarray(y, dtype=float)
    m = y.size
    d = 1.0 + float(y @ y)
    sign = 1.0 if chart == 0 else -1.0
    J = np.zeros((m, m + 1))
    J[:, 0] = sign * (-4.0 * y / (d * d))
    for i in range(m):
        J[i, 1:] = -4.0 * y[i] * y / (d * d)
        J[i, 1 + i] += 2.0 / d
    return J


def ref_compactify(z, zeta):
    """(z, zeta) -> b-frame computed in the v-frame itself, with v from squares."""
    n = z.size
    r = ordered_norm(z)
    a = ordered_norm(z[:-1])
    w = float(z[-1] / r)
    v = float((z[-1] ** 2 - a * a) / (r * r))
    cap = 1 if w >= 0.0 else -1
    if a <= 1e-14 * r:
        chart, y = 0, np.zeros(n - 2)
    else:
        omega = z[:-1] / a
        chart, y = (0 if omega[0] >= 0.0 else 1), omega[1:] / (1.0 + abs(omega[0]))
    omega = np.array(bichar._sphere_point(chart, y))
    qp, qm = abs(w), a / r
    gamma = (float(zeta[-1]) * cap * r / (4.0 * max(qp, 1e-300))
             - float(zeta[:-1] @ omega) * r / (4.0 * max(qm, 1e-300)))
    eta = r * qm * (ref_sphere_jacobian(chart, y) @ zeta[:-1])
    return BCotangentPoint(
        n=n, rho=1.0 / r, v=v, y=tuple(y), sigma=-float(zeta @ z), gamma=gamma,
        eta=tuple(eta), cap=cap, chart=chart, chart_ok=min(qp, qm) >= 1e-7,
    )


def exact_solve(M, b):
    """The solution of M x = b for float M and b, in exact rational arithmetic
    (Gauss-Jordan on Fractions), rounded to floats once."""
    n = len(b)
    rows = [[Fraction(float(x)) for x in M[i]] + [Fraction(float(b[i]))] for i in range(n)]
    for c in range(n):
        p = next(r for r in range(c, n) if rows[r][c] != 0)
        rows[c], rows[p] = rows[p], rows[c]
        for r in range(n):
            if r != c and rows[r][c] != 0:
                f = rows[r][c] / rows[c][c]
                rows[r] = [x - f * y for x, y in zip(rows[r], rows[c])]
    return np.array([float(rows[i][n] / rows[i][i]) for i in range(n)])


def ref_decompactify(pt):
    """Inverse of ref_compactify: solve the v-frame Jacobian for zeta exactly."""
    n = pt.n
    r = 1.0 / pt.rho
    qp = math.sqrt((1.0 + pt.v) / 2.0)
    qm = math.sqrt((1.0 - pt.v) / 2.0)
    y = np.asarray(pt.y, dtype=float)
    omega = np.array(bichar._sphere_point(pt.chart, y))
    z = np.concatenate((r * qm * omega, [pt.cap * r * qp]))
    # rows of J^T: derivatives of z along (log r, v, y_i)
    Jt = np.zeros((n, n))
    Jt[0] = z
    Jt[1, :-1] = -r * omega / (4.0 * qm)
    Jt[1, -1] = pt.cap * r / (4.0 * qp)
    Jt[2:, :-1] = r * qm * ref_sphere_jacobian(pt.chart, y)
    rhs = np.concatenate(([-pt.sigma, pt.gamma], np.asarray(pt.eta, dtype=float)))
    return z, exact_solve(Jt, rhs)


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


# Components +-10^e m (e from -6 to 5, 1 <= m < 10): with _COMPONENT, points
# and fibers whose components span up to 12 decades.
_SPREAD = st.builds(lambda m, e, neg: (-m if neg else m) * 10.0**e,
                    st.floats(1.0, 10.0, exclude_max=True), st.integers(-6, 5), st.booleans())


# fibers spanning 12 decades on which a float LU solve of the v-frame system
# errs by 1.4e-13/q and 8.7e-14/q of |zeta|, and the chart inverse by 2e-20/q
@example(([-3.4532465544402957e-06, -8.198274872832805, 32495.258576865148],
          [-0.12596447506370212, 525685.3267428653, 1.471985890544242]))
@example(([-7.41361874892564e-06, 81.89784522106528, -0.1942383532887574, 965158.5539595276],
          [-0.09346008127844029, 322.22779434546595, 6.710092313961372, 5.013367429487105e-06]))
@given(
    st.integers(2, 4).flatmap(
        lambda n: st.tuples(*[st.lists(_COMPONENT | _SPREAD, min_size=n, max_size=n)] * 2)
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
    # to 1e-7: 4.4e-16); the inverse divides by q once.  Against the exact
    # solve, worst seen over 2e4 draws whose components span 12 decades:
    # 4.1e-16/q; a float LU solve of the same systems errs by up to 1.4e-13/q
    # (the examples above).
    q = min(abs(z[-1]), float(np.linalg.norm(z[:-1]))) / float(np.linalg.norm(z))
    assert pt.rho == ref.rho
    assert pt.y == ref.y
    assert abs(pt.v - ref.v) <= 4e-15
    assert np.max(np.abs(fiber(pt) - fiber(ref))) <= 1e-14 * np.linalg.norm(fiber(ref))
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
    assert classify_limit(tr).is_sink


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


def test_flow_rejects_a_nan_length():
    # a NaN length would pass every |T| test untaken and return the start
    # sample alone, as if the leg had run its whole length
    start = InteriorCovector([30.0, 0.0, 0.0, 0.0], [1.0, 0.0, 0.0, 1.0])
    for starts, T in [(start, math.nan), ([start, start], [1.0, math.nan])]:
        with pytest.raises(ValueError, match="NaN"):
            flow(starts, T)


def test_flow_reaches_radial_set():
    for c in random_null_rays(4, 4, seed=11):
        tr = flow(c, 40.0, tol=1e-10)
        end = tr.points[-1]
        assert end.rho < 1e-3
        assert abs(end.v) < 1e-3
        assert abs(end.sigma) < 1e-3
        assert np.linalg.norm(end.eta) < 1e-3
        # the fiber is unit size, so gamma carrying it all means |gamma| ~ 1
        assert abs(end.gamma) > 0.99


# --- limit classification ------------------------------------------------

def test_forward_flows_hit_sinks_backward_flows_hit_sources():
    rays = random_null_rays(4, 10, seed=7)
    legs = flow([c for c in rays for _ in (0, 1)], [40.0, -40.0] * len(rays), tol=1e-10)
    fwd_labels = []
    for tr, back in zip(legs[::2], legs[1::2]):
        lab = classify_limit(tr)
        fwd_labels.append(lab)
        assert lab.is_sink
        assert tr.points[-1].gamma > 0

        bl = classify_limit(back)
        assert not bl.is_sink
        assert back.points[-1].gamma < 0
        # reversal swaps the cap along with the sink/source character
        assert is_future(bl) != is_future(lab)
    # both characteristic halves show up in the ensemble
    assert RadialSet.SINK_FUTURE in fwd_labels
    assert RadialSet.SINK_PAST in fwd_labels


def test_classify_limit_matches_end_cap_and_gamma_sign():
    # future components sit over cap +1, past over cap -1; sinks at the
    # +gamma fiber pole, sources at -gamma
    for c in random_null_rays(4, 4, seed=3):
        tr = flow(c, 40.0, tol=1e-10)
        end = tr.points[-1]
        label = classify_limit(tr)
        assert end.cap == (1 if is_future(label) else -1)
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
    assert tr.points[-1] == longer.points[0]
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


# --- the batched kernels ----------------------------------------------------
# The right-hand sides and the events map a batch of states, one row each, to
# one value per row under the ensemble rule of _dop853: a row's bits do not
# depend on the other rows.  The ref_* functions are the numpy expressions of
# the fields, one state at a time; the kernels must agree with them within
# the forward error of the two evaluations.

EPS = np.finfo(float).eps


def ref_bd_rhs(t, state, n):
    m = n - 2
    w = state[1]
    y = state[2 : 2 + m]
    u = state[2 + m : 4 + 2 * m]
    nu = np.linalg.norm(u)
    u = u / nu
    s, cw = u[0], u[1]
    eta = u[2:]
    d = 1.0 + float(y @ y)
    e2 = float(eta @ eta)
    H = (d * d / 4.0) * e2
    one = 1.0 - w * w
    dl_ds = 2 * (2 * w * w - 1) * s - 4 * w * one * cw
    dl_dc = -4 * w * one * s - 2 * (2 * w * w - 1) * one * cw
    dl_de = -(d * d / 2.0) * eta / one
    dl_dw = (
        4 * w * s * s
        - 4 * (1 - 3 * w * w) * s * cw
        - 2 * w * (3 - 4 * w * w) * cw * cw
        - 2 * w * H / (one * one)
    )
    dl_dy = -(d * y * e2) / one
    F = np.concatenate(([0.0], [-dl_dw], -dl_dy))
    kdot = float(u @ F)
    du = F - kdot * u
    out = np.empty(state.size)
    out[0] = dl_ds
    out[1] = dl_dc
    out[2 : 2 + m] = dl_de
    out[2 + m : 4 + 2 * m] = du
    out[-1] = kdot
    return out


def ref_int_rhs(t, state, n):
    z = state[:n]
    zeta = state[n:]
    r2 = float(z @ z)
    p = zeta[-1] ** 2 - float(zeta[:-1] @ zeta[:-1])
    dz = np.concatenate((-2.0 * zeta[:-1], [2.0 * zeta[-1]])) * r2
    dzeta = -2.0 * p * z
    return np.concatenate((dz, dzeta))


def ref_interior_events(t, s, n):
    r = float(np.linalg.norm(s[:n]))
    return [r - bichar._ESCAPE_R, bichar._entry(r, s[n - 1] / r)]


_MAGNITUDE = st.builds(lambda x, neg: -x if neg else x, st.floats(1e-3, 1e3), st.booleans())


@st.composite
def kernel_batches(draw):
    """(n, interior states [z, zeta], latitude states [x, w, y, u, k]), 1 to 6
    rows each, with every component of magnitude 1e-3 to 1e3 and |w| <= 0.95."""
    n = draw(st.sampled_from([3, 4, 5]))
    rows = draw(st.integers(1, 6))
    interior = [draw(st.lists(_MAGNITUDE, min_size=2 * n, max_size=2 * n)) for _ in range(rows)]
    latitude = [draw(st.lists(_MAGNITUDE, min_size=2 * n + 1, max_size=2 * n + 1))
                for _ in range(rows)]
    for row in latitude:
        row[1] = draw(st.floats(-0.95, 0.95))
    return n, np.array(interior), np.array(latitude)


_KERNELS = [
    ("interior", bichar._int_rhs), ("interior", bichar._interior_events),
    ("latitude", bichar._bd_rhs), ("latitude", bichar._latitude_events),
]


@given(kernel_batches(), st.integers(0, 5))
def test_batched_kernels_match_their_one_row_calls_bit_for_bit(case, shift):
    n, interior, latitude = case
    for kind, kernel in _KERNELS:
        states = interior if kind == "interior" else latitude
        # the rows in another order, so that each sits at another index
        states = np.roll(states, shift, axis=0)
        batch = kernel(states)
        for i, row in enumerate(states):
            assert batch[i].tobytes() == kernel(row[None])[0].tobytes(), (kernel.__name__, i)


@given(kernel_batches())
def test_kernels_match_the_numpy_reference_within_forward_error(case):
    n, interior, latitude = case
    for state in interior:
        z, zeta = state[:n], state[n:]
        r2, q2 = float(z @ z), float(zeta @ zeta)
        # z' is 2 r2 zeta to n + 2 roundings and zeta' is 2 (zeta_n^2 -
        # |zeta''|^2) z to n + 3, of terms up to 2 |zeta|^2 |z_i|; twice that
        # for the difference of two evaluations
        bound = 2 * (n + 3) * EPS * 2 * np.concatenate((r2 * np.abs(zeta), q2 * np.abs(z)))
        assert np.all(np.abs(bichar._int_rhs(state[None])[0] - ref_int_rhs(0.0, state, n)) <= bound)
        r = math.sqrt(r2)
        # a norm to n + 1 roundings, less a constant; the entry test adds
        # the band's 0.7225 - w^2, w = z_n/r to n + 3 roundings
        bound = 2 * (n + 4) * EPS * np.array([r + bichar._ESCAPE_R, r + 1.0 / bichar._RHO_SWITCH + 1.0])
        got = bichar._interior_events(state[None])[0]
        assert np.all(np.abs(got - ref_interior_events(0.0, state, n)) <= bound)
    for state in latitude:
        w, y = state[1], state[2:n]
        d, one = 1.0 + float(y @ y), 1.0 - state[1] ** 2
        # with u a unit vector and |w| <= 0.95 every term of every component
        # is at most 18 + n d^2/one^2 in size (the largest, 2 w H/one^2 and
        # d y e2/one, are under d^2/one^2), and each is a product of at most
        # 8 factors past u = U/|U|, itself n + 2 roundings off
        bound = 2 * (3 * n + 16) * EPS * (18.0 + n * d * d / (one * one))
        got = bichar._bd_rhs(state[None])[0]
        assert np.all(np.abs(got - ref_bd_rhs(0.0, state, n)) <= bound)


# --- golden traces -------------------------------------------------------

# sha256 over every RayTrace field of the starts below, recorded after the
# traces matched GOLDEN_ENDS
GOLDEN_FLOW = "0073f3e5368eeb2364e90cd60dbe91c91ed331b9610d8544578b3d99c7ac86f4"

# Per golden start: the limit label, the truncated flag and the end point
# (rho, v, sigma, gamma), which a change of the arithmetic must reproduce
# within FLOW_TOL before GOLDEN_FLOW is recorded again.  Starts 24-30, 32
# and 33 start in the latitude chart (|w| < 0.85) and are pinned from that
# rule; the rest are pinned from the v-frame chart map that came before.
# Starts 24, 25, 26 and 28 cross the stereographic chart edge, and their rows
# were recorded again when _chart_transition took the covector by the
# transpose of dy/dy' (it had used dy'/dy, 16 times too small at the edge).
# Their unit |eta| at rho = 1e-5 is 1.4e-3 to 4.1e-3, about 2 b rho for
# impact parameters b of 57 to 174, above _LIMIT_TOL: no label.
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
    (None, None, 1e-05, 0.00157825870008, -0.00157963589752, 0.999994880561),
    (None, None, 1e-05, -4.8749328406e-05, 4.7255949299e-05, 0.999995542295),
    (None, None, 1e-05, 0.000321071256144, -0.000321369665029, 0.999998967532),
    (None, None, 1e-05, 7.63220901361e-05, -7.93874761265e-05, 0.999997315413),
    (None, None, 1e-05, 0.00138552960716, -0.00138806262167, 0.999990701308),
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


def test_flow_golden_digest_and_branch_coverage(monkeypatch, golden_traces):
    hits = {"_chart_transition": [], "_bd_to_interior": []}
    current = [None]
    for name in hits:
        def spy(*args, _name=name, _fn=getattr(bichar, name)):
            hits[_name].append(current[0])
            return _fn(*args)
        monkeypatch.setattr(bichar, name, spy)
    starts = golden_starts()
    first_bd = len(starts) - 12  # ten boundary starts, then the two truncated ones
    for i in (first_bd, first_bd + 5):
        current[0] = i
        flow(*starts[i])
    assert first_bd in hits["_chart_transition"]
    assert first_bd + 5 in hits["_bd_to_interior"]
    # each start flowed by itself (the fixture), then all as one ensemble
    traces = [tr for _, _, tr in golden_traces]
    assert [tr.truncated for tr in traces[-2:]] == ["escaped", "chart"]
    assert len(GOLDEN_ENDS) == len(traces)
    for tr, (label, truncated, *end) in zip(traces, GOLDEN_ENDS):
        p = tr.points[-1]
        assert (limit_label(tr), tr.truncated) == (label, truncated)
        assert np.max(np.abs(np.subtract([p.rho, p.v, p.sigma, p.gamma], end))) <= FLOW_TOL
    assert trace_digest(traces) == GOLDEN_FLOW
    # the ensemble holds dimensions 3, 4 and 5
    assert trace_digest(flow([start for start, _ in starts], [T for _, T in starts])) == GOLDEN_FLOW


def test_escape_fires_only_outward():
    # interior starts just past |z| = 1e4 inside the time-axis cone (|w| >=
    # 0.9, outside the latitude chart), moving inward: they cross |z| = 1e4
    # inward and go on, instead of ending "escaped" there
    rng = np.random.default_rng(0)
    starts = []
    while len(starts) < 5:
        z = rng.normal(size=4)
        z /= np.linalg.norm(z)
        if abs(z[-1]) < 0.9:
            continue
        z *= rng.uniform(1.001e4, 1.05e4)
        zpp = rng.normal(size=3)
        # null, with z_n' = 2 |z|^2 zeta_n of the sign of -z_n
        zeta = np.append(zpp, -math.copysign(np.linalg.norm(zpp), z[-1]))
        if np.append(-zpp, zeta[-1]) @ z < 0.0:  # z . z' < 0
            starts.append(InteriorCovector(z, zeta))
    for tr in flow(starts, 1.0):
        assert tr.truncated is None
        assert max(p.rho for p in tr.points) > 1.1e-4  # well inside |z| = 1e4
    # the golden "escaped" start moves outward along the time axis
    out = InteriorCovector([0.0, 0.0, 0.0, 5.0], [0.0, 0.0, 0.0, 1.0])
    assert flow(out, 1.0).truncated == "escaped"


def test_chart_maps_and_growth_fit_call_no_linear_solver(monkeypatch):
    # the chart inverse, the chart transition and the growth fit on dyadic
    # radii are closed forms: none may reach a general solver
    def forbidden(*args, **kwargs):
        raise AssertionError("a general linear solver was called")

    for module, name in ((np, "polyfit"), (np.linalg, "solve"), (np.linalg, "lstsq")):
        monkeypatch.setattr(module, name, forbidden)
    hits = {"_chart_transition": 0, "_bd_to_interior": 0}
    for name in hits:
        def spy(*args, _name=name, _fn=getattr(bichar, name)):
            hits[_name] += 1
            return _fn(*args)
        monkeypatch.setattr(bichar, name, spy)
    c = InteriorCovector([1.0, -2.0, 0.5, 2.5], [0.3, 1.0, -0.7, 0.2])
    back = decompactify(compactify(c))
    assert np.allclose(back.z, c.z, rtol=1e-12) and np.allclose(back.zeta, c.zeta, rtol=1e-12)
    starts = golden_starts()
    first_bd = len(starts) - 12
    for start, T in (starts[first_bd], starts[first_bd + 5]):
        flow(start, T)
    assert hits["_chart_transition"] and hits["_bd_to_interior"]
    params = _RULES["cone-product"].straddle(2, "sum", 0.1)
    res = product_integral(*rule_flat_model("cone-product", params, 2), 2, 32.0, levels=3)
    assert math.isfinite(res.growth_exponent)


@pytest.fixture(scope="module")
def golden_traces():
    return [(start, T, flow(start, T)) for start, T in golden_starts()]


def test_flow_stats_account_for_every_evaluation(golden_traces):
    # a segment spends 2 evaluations on its first step, 15 on each accepted
    # step (12 stages and 3 for the dense output) and 12 on each rejected one;
    # a step dropped for an event on the previous step's end would spend 15
    # uncounted, and no golden start drops one
    for _, _, tr in golden_traces:
        s = tr.stats
        assert s["fevals"] == 2 * s["segments"] + 15 * s["steps"] + 12 * s["rejected_estimated"]


# --- ensembles ---------------------------------------------------------------

_ALONE = {}


def alone(golden_traces, i, sign):
    """The trace of golden start i flowed by itself for sign * its T."""
    start, T, tr = golden_traces[i]
    if sign > 0:
        return tr
    if i not in _ALONE:
        _ALONE[i] = flow(start, -T)
    return _ALONE[i]


def poisoned(kernel, marker):
    """kernel with NaN on the rows whose first component is marker."""
    def rhs(Y):
        out = kernel(Y)
        out[Y[:, 0] == marker] = np.nan
        return out
    return rhs


@settings(max_examples=12)
@example(picks=[(0, 1.0), (1, -1.0)], fail=None)  # start 0 twice, forward
@given(
    picks=st.lists(st.tuples(st.integers(0, 35), st.sampled_from([1.0, -1.0])),
                   min_size=1, max_size=6, unique_by=lambda p: p[0]),
    fail=st.none() | st.integers(0, 5),
)
def test_ensemble_legs_have_the_bits_they_have_alone(golden_traces, picks, fail):
    # any subset of the golden starts, in any order and with either sign of
    # T, flowed as one ensemble: each leg's trace is the one it has alone.
    # With fail set, that leg's right-hand side turns NaN at its start (its
    # first component marks its rows), so it ends "stiff" with its start
    # sample, and every other leg keeps its bits
    starts = [golden_traces[i][0] for i, _ in picks]
    Ts = [sign * golden_traces[i][1] for i, sign in picks]
    marker = None if fail is None else bichar._Leg(starts[fail % len(picks)], 1.0).state[0]
    passes = []  # the segments of each dense pass

    def dense(system, runs, _fn=_dop853._dense):
        passes.append(len(runs))
        return _fn(system, runs)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(_dop853, "_dense", dense)
        if marker is not None:
            fail %= len(picks)
            for name in ("_int_rhs", "_bd_rhs"):
                mp.setattr(bichar, name, poisoned(getattr(bichar, name), marker))
        got = flow(starts, Ts)
    assert isinstance(got, bichar.RayTraces) and len(got) == len(picks)
    legs = [alone(golden_traces, i, sign) for i, sign in picks]
    if marker is not None:
        tr = got[fail]
        assert (tr.truncated, len(tr.times), tr.stats["segments"]) == ("stiff", 1, 0)
        assert (tr.points[0], tr.lam[0]) == (legs[fail].points[0], legs[fail].lam[0])
        keep = [j for j, s in enumerate(starts) if bichar._Leg(s, 1.0).state[0] != marker]
        got, legs = [got[j] for j in keep], [legs[j] for j in keep]
    else:
        assert got.stats == {key: sum(tr.stats[key] for tr in legs) for key in got.stats}
        # twin legs (one start, one T) end each segment in the same round: one pass
        if any(starts[a] is starts[b] and Ts[a] == Ts[b] for b in range(len(picks))
               for a in range(b)):
            assert max(passes) >= 2
    for tr, want in zip(got, legs):
        assert trace_digest([tr]) == trace_digest([want])


# --- the exact null line ---------------------------------------------------
# For a null covector the interior field has d zeta = -2 p z = 0 and dz
# parallel to d = (-zeta', zeta_n): the flow is a reparametrized straight
# line z0 + s d with zeta constant, and its limit is the radial set over
# sign(T) d.

def test_null_golden_traces_hold_their_exact_line(golden_traces):
    null = 0
    for start, T, tr in golden_traces:
        if tr.nonnull:
            continue
        null += 1
        c0 = start if isinstance(start, InteriorCovector) else decompactify(start)
        d = np.concatenate((-c0.zeta[:-1], c0.zeta[-1:]))
        d /= np.linalg.norm(d)
        u0 = c0.zeta / np.linalg.norm(c0.zeta)
        for p in tr.points:
            if p.rho > 0.0 and p.chart_ok and abs(p.v) < 1.0:
                c = decompactify(p)
                dz = c.z - c0.z
                # off the line, relative to |z|; the zeta direction (the
                # unit-fiber zeta differs from the raw one by e^k > 0)
                assert np.linalg.norm(dz - (dz @ d) * d) <= 1e-9 * np.linalg.norm(c.z)
                assert np.linalg.norm(c.zeta / np.linalg.norm(c.zeta) - u0) <= 1e-9
        assert tr.symbol_drift() <= 1e-8
        label = limit_label(tr)
        if label is not None:
            assert label.startswith("sink" if T > 0 else "source")
            assert label.endswith("future" if T * d[-1] > 0 else "past")
    assert null == 32


@given(
    st.integers(3, 5).flatmap(
        lambda n: st.tuples(*[st.lists(st.floats(-10.0, 10.0), min_size=n, max_size=n)] * 2)
    )
)
def test_chart_transition_round_trip(pair):
    # (z, zeta) -> latitude chart -> the other stereographic chart -> (z, zeta)
    z, zeta = (np.array(v) for v in pair)
    assume(np.linalg.norm(z) > 0.1 and np.linalg.norm(zeta) > 0.1)
    r, w, sq, chart, y, fib = bichar._to_latitude(z.tolist(), zeta.tolist())
    y, fib = np.array(y), np.array(fib)
    assume(sq > 0.05 and np.linalg.norm(y) > 0.2)
    ynew, eta = bichar._chart_transition(y, fib[2:])
    back_z, back_zeta = bichar._from_latitude(
        r, w, sq, 1 - chart, ynew, np.concatenate((fib[:2], eta))
    )
    assert np.max(np.abs(back_z - z)) <= 1e-12 * np.linalg.norm(z)
    assert np.max(np.abs(back_zeta - zeta)) <= 1e-12 * np.linalg.norm(zeta)


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
        z = np.array(state[:n])
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


def test_flow_ends_a_leg_at_the_segment_limit(monkeypatch):
    # with a limit of one segment, an interior start ends where it enters the
    # latitude chart, with that segment's samples and stats
    c = random_null_rays(4, 1, seed=0)[0]
    full = flow(c, 100.0)
    segs = []

    def spy(leg, seg, _fn=bichar._Leg.end):
        segs.append(seg)
        return _fn(leg, seg)

    monkeypatch.setattr(bichar, "_MAX_SEGMENTS", 1)
    monkeypatch.setattr(bichar._Leg, "end", spy)
    tr = flow(c, 100.0)
    (seg,) = segs
    assert (tr.truncated, seg.event) == ("segment-limit", 1)
    assert tr.stats == {"steps": len(seg.ts) - 1, "fevals": seg.nfev,
                        "rejected_estimated": seg.rejected, "segments": 1}
    assert tr.times[-1] == seg.ts[-1] < full.times[-1]
    assert full.stats["segments"] > 1 and full.truncated is None
    assert tr.points == full.points[: len(tr.points)]


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
        raw, unit = np.array([float(x) for x in row[5:9]]), fiber(p)
        assert np.all(np.isfinite(raw))
        assert np.all((raw == 0.0) == (unit == 0.0))
        assert np.all(np.signbit(raw) == np.signbit(unit))
        nz = unit != 0.0
        assert np.allclose(np.log(np.abs(raw[nz])), k + np.log(np.abs(unit[nz])), rtol=1e-13)


def reference_trace_csv(tr) -> str:
    """The trace writer that walked tr.points: one BCotangentPoint per row."""
    m = tr.points[0].n - 2
    ys, etas = [f"y{i}" for i in range(m)], [f"eta{i}" for i in range(m)]
    buf = io.StringIO(newline="")
    wr = csv.writer(buf)
    wr.writerow(["t", "rho", "v", *ys, "sigma", "gamma", *etas, "lambda", "chart", "log_scale"])
    for t, pt, lam, k in zip(tr.times, tr.points, tr.lam, tr.log_scale):
        chart_col = pt.chart if pt.chart_ok else -1
        wr.writerow([t, pt.rho, pt.v] + list(pt.y)
                    + [bichar._raw(c, k) for c in (pt.sigma, pt.gamma, *pt.eta)]
                    + [lam, chart_col, k])
    return buf.getvalue()


def test_trace_csv_matches_the_point_walking_writer(tmp_path, golden_traces):
    # a start on the zero-time slice: its first sample has no gamma (NaN) and
    # a flagged chart, as the samples on the time axis of the "escaped" start
    on_slice = flow(InteriorCovector([1.0, 0.5, 0.2, 0.0], [0.6, 0.8, 0.0, 1.0]), 5.0)
    first = on_slice.points[0]
    assert math.isnan(first.gamma) and not first.chart_ok
    traces = [tr for _, _, tr in golden_traces] + [on_slice]
    assert not all(p.chart_ok for p in traces[-3].points)  # the "escaped" start
    for i, tr in enumerate(traces):
        path = tmp_path / f"trace-{i}.csv"
        tr.to_csv(path)
        assert path.read_bytes() == reference_trace_csv(tr).encode(), i
