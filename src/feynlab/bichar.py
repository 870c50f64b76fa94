"""Null-bicharacteristic flow on the bordified spacetime.

Geometry.  Points z in R^n (last coordinate = time) are compactified by
rho = 1/|z| together with polar data on the sphere of directions: the
latitude v in [-1, 1] with v = (z_n^2 - |z''|^2)/|z|^2, a cap sign
(future/past half), and a stereographic chart point y for the direction of
z'' on the (n-2)-sphere.  Covectors are written in the b-frame

    zeta . dz = sigma d rho / rho + gamma dv + eta . dy,

and the rescaled dual metric function ("symbol") is, exactly and
rho-independently,

    lam = v sigma^2 - 4(1-v^2) sigma gamma - 4v(1-v^2) gamma^2
          - (2/(1-v)) h^{ij} eta_i eta_j,

with h^{ij} = delta^{ij} (1+|y|^2)^2 / 4 the round dual metric in the
stereographic chart.  The radial invariant set sits at rho = v = sigma = 0,
eta = 0, gamma != 0; gamma > 0 there is a sink for the forward flow,
gamma < 0 a source.

Numerics.  The v-chart degenerates where dv vanishes (the zero-time slice
and the time axis), so the chart map is implemented once, in the smooth
latitude w = z_n/|z| with its own fiber frame gamma_w = gamma dv/dw =
4 w gamma: _to_latitude takes (z, zeta) there and _from_latitude takes it
back.  The v-frame of BCotangentPoint is read off the latitude frame
(v = 2w^2 - 1, cap = sign w, gamma = gamma_w/(4w)) and converted back the
same way.  The flow runs in plain interior coordinates (z, zeta) while rho
is large and in the latitude chart near the boundary.  The fiber is
integrated projectivized (unit vector u plus log-scale k) in a rescaled
parameter d tau = |fiber| dt, which turns the finite-time fiber blow-up at
the radial set into an exponential approach.  Recorded symbol values are
taken at the unit fiber, hence scale-free and exactly zero on null rays in
exact arithmetic.  The right-hand sides and the events do their scalar
arithmetic on Python floats under the bit rule of _dop853: dots stay
numpy's, the scalars are floats in the same order, and a square stays a
power.  They give the bits of the numpy expressions they replaced, at a
third to a half of the cost on vectors of 6-10 floats.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from . import _dop853
from .errors import ChartError, ClassificationError, StiffnessError

__all__ = [
    "InteriorCovector",
    "BCotangentPoint",
    "RayTrace",
    "RadialSet",
    "compactify",
    "decompactify",
    "flow",
    "classify_limit",
    "radial_flow_signature",
    "random_null_rays",
]

_NULL_TOL = 1e-8


# --- chart helpers -------------------------------------------------------

def _sphere_point(chart: int, y: np.ndarray) -> np.ndarray:
    """Direction on S^{m} in R^{m+1} from stereographic chart coordinates."""
    y = np.asarray(y, dtype=float)
    d = 1.0 + float(y @ y)
    sign = 1.0 if chart == 0 else -1.0
    return np.concatenate(([sign * (2.0 - d) / d], 2.0 * y / d))


def _sphere_chart(omega: np.ndarray) -> tuple[int, np.ndarray]:
    """Chart id and coordinates for a unit direction, picked by hemisphere."""
    chart = 0 if omega[0] >= 0.0 else 1
    return chart, omega[1:] / (1.0 + abs(omega[0]))


def _sphere_jacobian(chart: int, y: np.ndarray) -> np.ndarray:
    """Rows d omega / d y_i, shape (m, m+1)."""
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


def _chart_transition(y: np.ndarray, eta: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Move (y, eta), float arrays, to the opposite stereographic chart (y -> y/|y|^2)."""
    r2 = float(y @ y)
    # eta transforms by the transpose Jacobian of y(y') = y'/|y'|^2, the
    # symmetric d y_i / d y'_j = r2 delta_ij - 2 y_i y_j, applied unassembled
    return y / r2, r2 * eta - 2.0 * float(y @ eta) * y


# --- public types --------------------------------------------------------

@dataclass(frozen=True)
class InteriorCovector:
    """Phase-space point in plain coordinates; zeta must be nonzero."""

    z: np.ndarray
    zeta: np.ndarray

    def __post_init__(self) -> None:
        z = np.asarray(self.z, dtype=float)
        zeta = np.asarray(self.zeta, dtype=float)
        if z.ndim != 1 or z.shape != zeta.shape or z.size < 2:
            raise ChartError("z and zeta must be matching vectors, dimension >= 2")
        if not np.any(zeta != 0.0):
            raise ChartError("zeta must be nonzero")
        object.__setattr__(self, "z", z.copy())
        object.__setattr__(self, "zeta", zeta.copy())

    @property
    def n(self) -> int:
        return self.z.size


@dataclass(frozen=True)
class BCotangentPoint:
    """Compactified phase-space point in the b-frame.

    cap is +1 on the future half (z_n > 0), -1 on the past half; chart is
    the stereographic chart id for y; chart_ok is cleared where the
    (rho, v, y) frame degenerates (v at +-1 or the direction axis).
    """

    n: int
    rho: float
    v: float
    y: tuple
    sigma: float
    gamma: float
    eta: tuple
    cap: int = 1
    chart: int = 0
    chart_ok: bool = True


class RadialSet(Enum):
    """Radial-set component: sink or source of the rescaled Hamilton flow,
    over the future or past boundary cap (light cone at infinity)."""

    SINK_FUTURE = "sink-future"
    SOURCE_FUTURE = "source-future"
    SINK_PAST = "sink-past"
    SOURCE_PAST = "source-past"

    @property
    def is_sink(self) -> bool:
        return self in (RadialSet.SINK_FUTURE, RadialSet.SINK_PAST)


@dataclass(frozen=True)
class RayTrace:
    """Sampled flow line with scale-free symbol values and solver stats.

    Fiber data per sample is the unit vector (v-frame) plus log-scale; the
    raw fiber is unit * e^{log_scale}.  truncated is None for a leg that ran
    its length or reached the radial convergence floor, else why it stopped
    early: "escaped", "chart", "segment-limit" or "stiff" (see flow).  stats
    counts the completed segments, their accepted steps, function
    evaluations and rejected steps, the last under the key
    "rejected_estimated", the name perfbench reads.
    """

    times: np.ndarray
    points: tuple
    lam: np.ndarray  # unit-fiber symbol values
    log_scale: np.ndarray
    nonnull: bool
    truncated: str | None
    stats: dict

    def end_point(self) -> BCotangentPoint:
        return self.points[-1]

    def symbol_drift(self) -> float:
        return float(np.max(np.abs(self.lam - self.lam[0])))

    def to_csv(self, path) -> None:
        m = self.points[0].n - 2
        ys, etas = [f"y{i}" for i in range(m)], [f"eta{i}" for i in range(m)]
        header = ["t", "rho", "v", *ys, "sigma", "gamma", *etas, "lambda", "chart", "log_scale"]
        with open(path, "w", newline="") as fh:
            wr = csv.writer(fh)
            wr.writerow(header)
            for t, pt, lam, k in zip(self.times, self.points, self.lam, self.log_scale):
                chart_col = pt.chart if pt.chart_ok else -1
                wr.writerow(
                    [t, pt.rho, pt.v]
                    + list(pt.y)
                    + [_raw(c, k) for c in (pt.sigma, pt.gamma, *pt.eta)]
                    + [lam, chart_col, k]
                )


def _raw(c: float, k: float) -> float:
    """Raw fiber component c e^k from a unit one: a zero c stays zero (with
    its sign), and +-inf stands only where |c| e^k passes the largest float."""
    if k < 700.0 or c == 0.0:
        return c * math.exp(min(k, 700.0))
    e = k + math.log(abs(c))
    return math.copysign(math.exp(e) if e <= 709.782712893384 else math.inf, c)


# --- the chart map -------------------------------------------------------

def _to_latitude(z: np.ndarray, zeta: np.ndarray):
    """(z, zeta) -> (r, w, sq, chart, y, fib) in the latitude frame.

    r = |z|, w = z_n/r, sq = |z''|/r (sqrt(1 - w^2) cancels near the time
    axis), y the stereographic point of z''/|z''| in the chart its
    hemisphere picks (chart 0, y = 0 on the axis) and fib = (sigma, gamma_w,
    eta) the raw fiber.  z = 0 is outside every chart, and so is any z whose
    |z|^2 falls below the smallest normal float (|z| under about 1.5e-154):
    the frame squares the coordinates, and subnormal squares would lose
    precision without a flag.
    """
    r = float(np.linalg.norm(z))
    if r * r < np.finfo(float).tiny:
        if not np.any(z):
            raise ChartError("z = 0 has no compactified chart")
        raise ChartError(
            f"|z| = {math.hypot(*z):.3g} is too small for the compactified "
            "chart: |z|^2 underflows"
        )
    zpp = z[:-1]
    a = float(np.linalg.norm(zpp))
    w = float(z[-1] / r)
    sq = a / r
    if a <= 1e-14 * r:
        chart, y = 0, np.zeros(z.size - 2)
    else:
        chart, y = _sphere_chart(zpp / a)
    omega = _sphere_point(chart, y)
    sigma = -float(zeta @ z)
    cw = float(zeta[-1]) * r - float(zeta[:-1] @ omega) * r * w / max(sq, 1e-300)
    eta = r * sq * (_sphere_jacobian(chart, y) @ zeta[:-1])
    return r, w, sq, chart, y, np.concatenate(([sigma, cw], eta))


def _from_latitude(r: float, w: float, sq: float, chart: int, y: np.ndarray, fib: np.ndarray):
    """Invert _to_latitude where sq > 0: (z, zeta) from the latitude point and raw fiber.

    zeta pairs with z to -sigma, with dz/dw = r (-w omega/sq, 1) to gamma_w and with
    r sq (d omega/dy_i, 0) to eta_i.  As |omega| = 1 and sq^2 + w^2 = 1, these rows are
    orthogonal, of squared lengths r^2, r^2/sq^2 and (2 r sq/d)^2 (d = 1 + |y|^2), so
    zeta, the solution of that system, sums each row times its entry over its squared length.
    """
    omega = _sphere_point(chart, y)
    z = np.concatenate((r * sq * omega, [r * w]))
    a, b = -fib[0] / r, sq * fib[1] / r  # along z/r and (-w omega, sq)
    d = 1.0 + float(y @ y)
    zeta = np.concatenate(((a * sq - b * w) * omega, [a * w + b * sq]))
    zeta[:-1] += d * d / (4.0 * r * sq) * (_sphere_jacobian(chart, y).T @ fib[2:])
    return z, zeta


def _latitude(pt: BCotangentPoint):
    """(w, sq, fib) of a b-point: w = cap sqrt((1+v)/2), sq = sqrt((1-v)/2), gamma_w = 4w gamma."""
    if not pt.chart_ok or abs(pt.v) >= 1.0:
        raise ChartError("degenerate b-frame; cannot invert")
    w = pt.cap * math.sqrt((1.0 + pt.v) / 2.0)
    sq = math.sqrt((1.0 - pt.v) / 2.0)
    return w, sq, np.concatenate(([pt.sigma, 4.0 * w * pt.gamma], pt.eta))


def _b_point(n: int, rho: float, w: float, sq: float, chart: int, y, sigma, gamma,
             eta) -> BCotangentPoint:
    """The b-point of a latitude point with its v-frame fiber (sigma, gamma, eta)
    from _v_fiber: v = 2w^2 - 1, cap = sign w.

    chart_ok is cleared within 1e-7 of the zero-time slice and the time axis.
    """
    return BCotangentPoint(
        n=n, rho=rho, v=2.0 * w * w - 1.0, y=tuple(y), sigma=float(sigma),
        gamma=float(gamma), eta=tuple(eta), cap=1 if w >= 0.0 else -1, chart=chart,
        chart_ok=min(abs(w), sq) >= 1e-7,
    )


def _v_fiber(w: float, fib: np.ndarray):
    """(sigma, gamma, eta) from the latitude fiber: gamma = gamma_w/(4w); on the
    zero-time slice dv/dw = 4w vanishes and gamma is NaN."""
    return float(fib[0]), float(fib[1]) / (4.0 * w) if w else math.nan, fib[2:]


def compactify(c: InteriorCovector) -> BCotangentPoint:
    """Push (z, zeta) to the b-frame with its raw fiber; ChartError as in _to_latitude.

    Use flow() for long rays, where the raw fiber overflows.
    """
    r, w, sq, chart, y, fib = _to_latitude(c.z, c.zeta)
    return _b_point(c.n, 1.0 / r, w, sq, chart, y, *_v_fiber(w, fib))


def decompactify(pt: BCotangentPoint) -> InteriorCovector:
    """Invert the chart; needs rho > 0 and a nondegenerate frame."""
    if pt.rho <= 0.0:
        raise ChartError("rho must be positive to return to the interior")
    w, sq, fib = _latitude(pt)
    z, zeta = _from_latitude(1.0 / pt.rho, w, sq, pt.chart, np.asarray(pt.y, dtype=float), fib)
    return InteriorCovector(z=z, zeta=zeta)


# --- latitude-frame symbol and field ------------------------------------

def _lam_w(w, y, s, cw, eta):
    d = 1.0 + float(y @ y)
    H = (d * d / 4.0) * float(eta @ eta)
    return (
        (2 * w * w - 1) * s * s
        - 4 * w * (1 - w * w) * s * cw
        - (2 * w * w - 1) * (1 - w * w) * cw * cw
        - H / (1 - w * w)
    )


def _bd_rhs(t, state: np.ndarray, n: int) -> np.ndarray:
    # state = [x, w, y(m), u(m+2), k]
    m = n - 2
    w = float(state[1])
    y = state[2 : 2 + m]
    u = state[2 + m : 4 + 2 * m]
    u = u / math.sqrt(u.dot(u))
    ul = u.tolist()
    s, cw, *eta = ul
    d = 1.0 + float(y.dot(y))
    e2 = float(u[2:].dot(u[2:]))
    H = (d * d / 4.0) * e2
    one = 1.0 - w * w
    dl_ds = 2 * (2 * w * w - 1) * s - 4 * w * one * cw
    dl_dc = -4 * w * one * s - 2 * (2 * w * w - 1) * one * cw
    dl_dw = (
        4 * w * s * s
        - 4 * (1 - 3 * w * w) * s * cw
        - 2 * w * (3 - 4 * w * w) * cw * cw
        - 2 * w * H / (one * one)
    )
    dl_de = [-(d * d / 2.0) * e / one for e in eta]
    F = [0.0, -dl_dw] + [d * yi * e2 / one for yi in y.tolist()]  # [0, -dl_dw, -dl_dy]
    kdot = float(u.dot(F))
    du = [f - kdot * ui for f, ui in zip(F, ul)]
    return np.array([dl_ds, dl_dc] + dl_de + du + [kdot])


def _int_rhs(t, state: np.ndarray, n: int) -> np.ndarray:
    # state = [z(n), zeta(n)]
    z, zpp = state[:n], state[n:-1]
    r2 = float(z.dot(z))
    zn = float(state[-1])
    p = zn ** 2 - float(zpp.dot(zpp))
    dz = [-2.0 * x * r2 for x in zpp.tolist()] + [2.0 * zn * r2]
    dzeta = [-2.0 * p * x for x in z.tolist()]
    return np.array(dz + dzeta)


# --- state packing -------------------------------------------------------

def _bd_state(x: float, w: float, y, fib: np.ndarray) -> np.ndarray:
    """Latitude state [x, w, y, u, k] with the fiber split as u * e^k, |u| = 1."""
    s = float(np.linalg.norm(fib))
    return np.concatenate(([x, w], y, fib / s, [math.log(s)]))


def _interior_to_bd(state: np.ndarray, n: int):
    r, w, _, chart, y, fib = _to_latitude(state[:n], state[n:])
    return _bd_state(math.log(1.0 / r), w, y, fib), chart


def _bd_to_interior(state: np.ndarray, chart: int, n: int) -> np.ndarray:
    m = n - 2
    w = state[1]
    u = state[2 + m : 4 + 2 * m]
    fib = u / np.linalg.norm(u) * math.exp(state[-1])
    sq = math.sqrt(1.0 - w * w)
    return np.concatenate(_from_latitude(math.exp(-state[0]), w, sq, chart, state[2 : 2 + m], fib))


def _sample_point(state: np.ndarray, chart: int, n: int, bd: bool):
    """Flow state -> (BCotangentPoint with unit v-frame fiber, lam, log-scale)."""
    if bd:
        m = n - 2
        w = float(state[1])
        rho, sq, y = math.exp(state[0]), math.sqrt(1.0 - w * w), state[2 : 2 + m]
        u, k = state[2 + m : 4 + 2 * m], float(state[-1])
        u = u / math.hypot(*u)
        lam = _lam_w(w, y, u[0], u[1], u[2:])
    else:
        z, zeta = state[:n], state[n:]
        r, w, sq, chart, y, fib = _to_latitude(z, zeta)
        s = math.hypot(*fib)  # the raw fiber is huge next to the time axis
        rho, u, k = 1.0 / r, fib / s, math.log(s)
        # the b-frame symbol is r^2 (zeta_n^2 - |zeta''|^2) in every frame;
        # unlike _lam_w it has no 1/(1 - w^2), which blows up next to the axis
        lam = (r / s) ** 2 * (zeta[-1] ** 2 - zeta[:-1] @ zeta[:-1])
    sigma, gamma, eta = _v_fiber(w, u)
    s = math.hypot(sigma, gamma, *eta)
    unit = _b_point(n, rho, w, sq, chart, y, sigma / s, gamma / s, eta / s)
    return unit, float(lam), k + math.log(s)


# --- the flow ------------------------------------------------------------

_RHO_SWITCH = 0.05
_RHO_BACK = 0.06
_W_NULLBAND = 0.85
_RHO_FLOOR = 1e-5
_ESCAPE_R = 1.0e4
_LIMIT_TOL = 1e-3
_SAMPLES_PER_UNIT = 6.0  # trace samples per unit of the trace parameter


def _entry(r: float, w: float) -> float:
    """Positive exactly where a state at |z| = r = 1/rho belongs to the
    latitude chart: rho < _RHO_SWITCH and |w| < _W_NULLBAND."""
    return min(r - 1.0 / _RHO_SWITCH, _W_NULLBAND**2 - w * w)


# Interior events, s = [z, zeta]: leaving the trusted region along the time
# axis, and entering the latitude chart (_entry turning positive).

def _ev_escape(t, s, n):
    z = s[:n]
    return math.sqrt(z.dot(z)) - _ESCAPE_R


def _ev_enter(t, s, n):
    z = s[:n]
    r = math.sqrt(z.dot(z))
    return _entry(r, float(s[n - 1]) / r)


# Latitude-chart events, s = [x, w, y, u, k]: the radial convergence floor; the
# exit to the interior at rho > _RHO_BACK or w^2 > 0.92, past _entry's edges so
# that a ray does not bounce between the charts; the stereographic chart edge.

def _ev_floor(t, s, n):
    return s[0] - math.log(_RHO_FLOOR)


def _ev_exit(t, s, n):
    return max(s[0] - math.log(_RHO_BACK), s[1] ** 2 - 0.92)


def _ev_ychart(t, s, n):
    y = s[2:n]
    return float(y @ y) - 4.0


# each with the crossing direction in which it ends a _dop853 segment
_INTERIOR_EVENTS = ((_ev_escape, 0.0), (_ev_enter, 1.0))
_LATITUDE_EVENTS = ((_ev_floor, -1.0), (_ev_exit, 1.0), (_ev_ychart, 1.0))


def flow(pt, T: float, tol: float = 1e-10) -> RayTrace:
    """Integrate the b-Hamilton flow for parameter length T (signed).

    Accepts a BCotangentPoint or an InteriorCovector.  Interior stretches
    run in plain (z, zeta) coordinates, latitude stretches in the
    projectivized latitude chart; one loop serves both, with one
    _dop853.solve call (DOP853 with dense output) per segment.  A state
    starts in the latitude chart where _entry is positive (rho < 0.05,
    |w| < 0.85), and the interior enters it where _entry turns positive.
    Each event ends its segment; when several fire in one step the earliest
    crossing wins, and on a tie the one listed first.  The events: in the
    interior, escape past |z| = 1e4 (truncated "escaped"), then entry; in
    the latitude chart, the radial convergence floor rho = 1e-5, then the
    exit to the interior at rho > 0.06 or w^2 > 0.92 (truncated "chart"
    below rho = 1e-3), then the stereographic chart edge.  A segment whose
    integration fails (StiffnessError from _dop853) ends the leg as
    truncated "stiff": the trace keeps the samples of the segments before
    it, and stats do not count it.  Past 200 segments the leg is truncated
    "segment-limit".  The trace parameter is the rescaled one
    (d tau = |fiber| dt) on latitude stretches and plain Hamilton time in
    the interior; it is strictly monotone throughout.
    """
    n = pt.n
    if isinstance(pt, BCotangentPoint):
        rho, chart, y = pt.rho, pt.chart, pt.y
        r = 1.0 / rho if rho > 0.0 else math.inf
        w, _, fib = _latitude(pt)
    else:
        r, w, _, chart, y, fib = _to_latitude(pt.z, pt.zeta)
        rho = 1.0 / r
    bd = _entry(r, w) > 0.0
    if bd:
        state = _bd_state(math.log(max(rho, 1e-300)), w, y, fib)
    else:
        c = decompactify(pt) if isinstance(pt, BCotangentPoint) else pt
        state = np.concatenate((c.z, c.zeta))

    start, lam0, k0 = _sample_point(state, chart, n, bd)
    nonnull = abs(lam0) > _NULL_TOL

    sgn = 1.0 if T >= 0 else -1.0
    tau = 0.0
    # every trace starts with its start sample, so even |T| <= 1e-12 has one
    rows_t, rows_pt, rows_lam, rows_k = [tau], [start], [lam0], [k0]
    truncated = None
    stats = {"steps": 0, "fevals": 0, "rejected_estimated": 0, "segments": 0}

    for _segment in range(200):
        if sgn * (T - tau) <= 1e-12:
            break
        if bd:
            rhs, events = _bd_rhs, _LATITUDE_EVENTS
        else:
            rhs, events = _int_rhs, _INTERIOR_EVENTS
        try:
            sol = _dop853.solve(rhs, tau, T, state, tol, tol * 1e-2, events, (n,))
        except StiffnessError:
            truncated = "stiff"
            break
        stats["segments"] += 1
        t_end = sol.ts[-1]
        npts = max(8, int(abs(t_end - tau) * _SAMPLES_PER_UNIT))
        ts = np.linspace(tau, t_end, npts + 1)
        for tv, sv in zip(ts, sol(ts)):
            if sgn * (tv - rows_t[-1]) <= 0.0:
                continue  # the start and segment joins repeat the last sample
            p, lamv, kv = _sample_point(sv, chart, n, bd)
            rows_t.append(tv)
            rows_pt.append(p)
            rows_lam.append(lamv)
            rows_k.append(kv)
        stats["steps"] += len(sol.ts) - 1
        stats["fevals"] += sol.nfev
        stats["rejected_estimated"] += sol.rejected
        state = sol(t_end)
        tau = t_end
        if sgn * (T - tau) <= 1e-12:
            break

        stop, hand_over = sol.event == 0, sol.event == 1
        if stop:
            truncated = None if bd else "escaped"
            break
        if not bd:
            state, chart = _interior_to_bd(state, n)
            bd = True
            continue
        state[n : 2 * n] /= np.linalg.norm(state[n : 2 * n])
        if hand_over and state[0] < math.log(1e-3):
            truncated = "chart"  # near-axis transit too deep out for the interior
            break
        if hand_over:
            # the interior coordinates stay smooth through a near-axis transit
            state = _bd_to_interior(state, chart, n)
            bd = False
        else:  # _ev_ychart: move y to the other stereographic chart
            ynew, enew = _chart_transition(state[2:n], state[n + 2 : 2 * n])
            k = state[-1]
            state = _bd_state(state[0], state[1], ynew, np.concatenate((state[n : n + 2], enew)))
            state[-1] += k
            chart = 1 - chart
    else:
        truncated = "segment-limit"

    return RayTrace(
        times=np.asarray(rows_t),
        points=tuple(rows_pt),
        lam=np.asarray(rows_lam),
        log_scale=np.asarray(rows_k),
        nonnull=nonnull,
        truncated=truncated,
        stats=stats,
    )


def classify_limit(tr: RayTrace):
    """Radial-set component reached by the trace end, or None.

    The end point must satisfy rho + |v| + |sigma| + |eta| < 1e-3 with the
    fiber unit-normalized (the raw sigma is conserved, so only its
    projective size can decay).  gamma > 0 there is a sink, gamma < 0 a
    source; the cap sign picks the future or past component.  A trace
    flagged non-null that nevertheless meets the threshold is an error.
    """
    end = tr.end_point()
    eta = np.asarray(end.eta, dtype=float)
    miss = end.rho + abs(end.v) + abs(end.sigma) + float(np.linalg.norm(eta))
    if miss >= _LIMIT_TOL:
        return None
    if tr.nonnull:
        raise ClassificationError(
            "non-null trace converged to the radial set; inconsistent flags"
        )
    sink = end.gamma > 0.0
    future = end.cap > 0
    if sink:
        return RadialSet.SINK_FUTURE if future else RadialSet.SINK_PAST
    return RadialSet.SOURCE_FUTURE if future else RadialSet.SOURCE_PAST


def radial_flow_signature(gamma: float) -> np.ndarray:
    """Eigenvalues of the linearized flow map near the radial set.

    Works in the reduced (rho, v, gamma) system at eta = sigma = 0 (an
    invariant subsystem),

        rho' = -4(1-v^2) gamma rho,  v' = -8v(1-v^2) gamma,
        gamma' = 4 gamma^2 (1-3v^2),

    over parameter length 0.02 from (0.01, 0, gamma).  On v = 0 it solves to
    gamma(t) = gamma/(1 - 4 gamma t) and rho(t) = rho(0)(1 - 4 gamma t), and
    the linearized map is triangular with diagonal (a, a^2, a^-2), where
    a = 1 - 0.08 gamma.  Near gamma > 0 the map contracts in rho and v and
    expands in gamma; only the sign pattern is asserted by callers.
    """
    a = 1.0 - 0.08 * gamma
    if a <= 0.0:
        raise ValueError(f"gamma = {gamma} blows up before parameter 0.02")
    return np.array([a, a * a, 1.0 / (a * a)])


def random_null_rays(
    n: int, count: int, seed: int, future: bool = True, mixed_components: bool = True
) -> list:
    """Seeded ensemble of null interior covectors for flow studies.

    Base points are spread over a shell away from the origin and the time
    axis; covectors satisfy zeta_n = +-|zeta''| with the sign alternating
    over the two characteristic halves when mixed_components is set.
    """
    rng = np.random.default_rng(seed)
    out = []
    while len(out) < count:
        z = rng.normal(size=n) * 2.0
        r = np.linalg.norm(z)
        if r < 1.0 or r > 8.0:
            continue
        if abs(z[-1]) / r > 0.8 or np.linalg.norm(z[:-1]) / r < 0.2:
            continue
        zpp = rng.normal(size=n - 1)
        while np.linalg.norm(zpp) < 1e-3:
            zpp = rng.normal(size=n - 1)
        sign = 1.0 if (not mixed_components or len(out) % 2 == 0) else -1.0
        if not future:
            sign = -sign
        zeta = np.concatenate((zpp, [sign * np.linalg.norm(zpp)]))
        out.append(InteriorCovector(z=z, zeta=zeta))
    return out
