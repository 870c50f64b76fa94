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
exact arithmetic.  flow runs its legs as one _dop853 ensemble, and the
fields, events, chart maps and samples keep its rule: every dot and norm
is an ordered_sum or a _dot, summed in index order (the two fiber norms in
_sample_point that can overflow when squared are math.hypot), exp and log
run in math, and no BLAS routine runs.  The chart map and the samples run
on Python floats, whose IEEE operations round as numpy's do.  So a leg has
the same bits in any ensemble and on any host.
"""

from __future__ import annotations

import csv
import math
import sys
from dataclasses import dataclass
from enum import Enum
from operator import mul
from typing import NamedTuple

import numpy as np

from . import _dop853
from ._dop853 import ordered_sum
from .errors import ChartError, ClassificationError, StiffnessError

_NULL_TOL = 1e-8


# --- chart helpers -------------------------------------------------------

def _dot(a, b) -> float:
    """a . b of two float sequences, summed in index order from the first product
    (so a -0.0 survives), as ordered_sum sums: no BLAS call.  0.0 when empty."""
    products = map(mul, a, b)
    total = next(products, 0.0)
    for p in products:
        total += p
    return total


def _sumsq(X: np.ndarray) -> np.ndarray:
    """The sums of squares of the rows of X, each an ordered_sum."""
    return ordered_sum(X * X)


def _sphere_point(chart: int, y) -> list:
    """Direction on S^{m} in R^{m+1} from stereographic chart coordinates."""
    d = 1.0 + _dot(y, y)
    return [(1.0 if chart == 0 else -1.0) * (2.0 - d) / d, *[2.0 * c / d for c in y]]


def _chart_transition(y, eta) -> tuple[list, list]:
    """Move (y, eta), float lists, to the opposite stereographic chart (y -> y/|y|^2)."""
    r2, ye = _dot(y, y), 2.0 * _dot(y, eta)
    # eta transforms by the transpose Jacobian of y(y') = y'/|y'|^2, the
    # symmetric d y_i / d y'_j = r2 delta_ij - 2 y_i y_j, applied unassembled
    return [c / r2 for c in y], [r2 * e - ye * c for e, c in zip(eta, y)]


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


class BCotangentPoint(NamedTuple):
    """Compactified phase-space point in the b-frame: a named tuple, which is
    also how a RayTrace stores each sample.

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
    """Sampled flow line of one leg with scale-free symbol values and solver stats.

    points holds each sample's BCotangentPoint, built once (see _b_point), so
    points[-1] is the end point.  The fiber is the unit vector (v-frame) plus
    log-scale: the raw fiber is unit * e^{log_scale}.  truncated is None for a
    leg that ran its length or reached the radial floor, else why it stopped
    early (see flow).  stats counts the completed segments, their accepted
    steps and evaluations (2 a segment, 15 an accepted step, 12 a rejected
    one) and their rejected steps ("rejected_estimated", for perfbench).
    """

    times: np.ndarray
    points: tuple
    lam: np.ndarray  # unit-fiber symbol values
    log_scale: np.ndarray
    nonnull: bool
    truncated: str | None
    stats: dict

    def symbol_drift(self) -> float:
        return float(np.max(np.abs(self.lam - self.lam[0])))

    def to_csv(self, path) -> None:
        m = self.points[0].n - 2
        ys, etas = [f"y{i}" for i in range(m)], [f"eta{i}" for i in range(m)]
        header = ["t", "rho", "v", *ys, "sigma", "gamma", *etas, "lambda", "chart", "log_scale"]
        with open(path, "w", newline="") as fh:
            wr = csv.writer(fh)
            wr.writerow(header)
            for t, p, lam, k in zip(self.times.tolist(), self.points, self.lam.tolist(),
                                    self.log_scale.tolist()):
                e = math.exp(min(k, 700.0))  # once a row: _raw's c e^k where it is finite
                wr.writerow([t, p.rho, p.v, *p.y, *[c * e if k < 700.0 or c == 0.0 else _raw(c, k)
                                                    for c in (p.sigma, p.gamma, *p.eta)],
                             lam, p.chart if p.chart_ok else -1, k])


class RayTraces(tuple):
    """The traces of a flow over several starts; stats sums each counter over them."""

    @property
    def stats(self) -> dict:
        return {key: sum(tr.stats[key] for tr in self) for key in _STATS}


_STATS = ("steps", "fevals", "rejected_estimated", "segments")


def _raw(c: float, k: float) -> float:
    """Raw fiber component c e^k from a unit one: a zero c stays zero (with
    its sign), and +-inf stands only where |c| e^k passes the largest float."""
    if k < 700.0 or c == 0.0:
        return c * math.exp(min(k, 700.0))
    e = k + math.log(abs(c))
    return math.copysign(math.exp(e) if e <= 709.782712893384 else math.inf, c)


# --- the chart map -------------------------------------------------------

def _to_latitude(z, zeta):
    """(z, zeta) -> (r, w, sq, chart, y, fib) in the latitude frame, on Python floats.

    z and zeta are lists of floats, y and fib come back as lists, and each
    step runs in the order of the array form the tests keep, with its bits.
    r = |z|, w = z_n/r, sq = |z''|/r (sqrt(1 - w^2) cancels near the time
    axis), y the stereographic point of z''/|z''| in the chart its hemisphere
    picks (chart 0, y = 0 on the axis) and fib = (sigma, gamma_w, eta) the raw
    fiber, eta_i = r sq (d omega/dy_i . zeta'').  z = 0 is outside every
    chart, and so is a z with |z|^2 under the smallest normal float (|z| under
    about 1.5e-154), whose subnormal squares would lose precision unflagged.
    """
    r2 = _dot(z, z)
    if r2 < sys.float_info.min:
        if not any(z):
            raise ChartError("z = 0 has no compactified chart")
        raise ChartError(
            f"|z| = {math.hypot(*z):.3g} is too small for the compactified "
            "chart: |z|^2 underflows"
        )
    r = math.sqrt(r2)
    zpp, v = z[:-1], zeta[:-1]
    a = math.sqrt(_dot(zpp, zpp))
    w, sq = z[-1] / r, a / r
    # the stereographic chart that the hemisphere of zpp/a picks
    om = [c / a for c in zpp] if a > 1e-14 * r else [0.0] * len(zpp)
    chart, q = 0 if om[0] >= 0.0 else 1, 1.0 + abs(om[0])
    y = [c / q for c in om[1:]]
    sigma = -_dot(zeta, z)
    cw = zeta[-1] * r - _dot(v, _sphere_point(chart, y)) * r * w / max(sq, 1e-300)
    # d omega/dy_i = 2 e_{1+i}/d - 4 y_i (sign, y)/d^2, d = 1 + |y|^2
    d = 1.0 + _dot(y, y)
    c = 4.0 * ((1.0 if chart == 0 else -1.0) * v[0] + _dot(y, v[1:])) / (d * d)
    rs = r * sq
    return r, w, sq, chart, y, [sigma, cw, *[rs * (2.0 * e / d - c * b) for e, b in zip(v[1:], y)]]


def _from_latitude(r: float, w: float, sq: float, chart: int, y, fib):
    """Invert _to_latitude where sq > 0: (z, zeta), float lists, from the latitude
    point and raw fiber, y and fib float sequences, in the order of the array form.

    zeta pairs with z to -sigma, with dz/dw = r (-w omega/sq, 1) to gamma_w and with
    r sq (d omega/dy_i, 0) to eta_i.  As |omega| = 1 and sq^2 + w^2 = 1, these rows are
    orthogonal, of squared lengths r^2, r^2/sq^2 and (2 r sq/d)^2 (d = 1 + |y|^2), so
    zeta, the solution of that system, sums each row times its entry over its squared
    length; the eta rows sum to ((0, d eta/2) - (y . eta)(sign, y))/(r sq).
    """
    omega, rs, eta = _sphere_point(chart, y), r * sq, fib[2:]
    a, b = -fib[0] / r, sq * fib[1] / r  # along z/r and (-w omega, sq)
    c, d, ye = a * sq - b * w, 1.0 + _dot(y, y), _dot(y, eta)
    rows = [0.0 - ye * (1.0 if chart == 0 else -1.0)]
    rows += [d / 2.0 * e - ye * q for e, q in zip(eta, y)]
    return ([rs * o for o in omega] + [r * w],
            [c * o + p / rs for o, p in zip(omega, rows)] + [a * w + b * sq])


def _latitude(pt: BCotangentPoint):
    """(w, sq, fib) of a b-point: w = cap sqrt((1+v)/2), sq = sqrt((1-v)/2), gamma_w = 4w gamma."""
    if not pt.chart_ok or abs(pt.v) >= 1.0:
        raise ChartError("degenerate b-frame; cannot invert")
    w = pt.cap * math.sqrt((1.0 + pt.v) / 2.0)
    sq = math.sqrt((1.0 - pt.v) / 2.0)
    return w, sq, [pt.sigma, 4.0 * w * pt.gamma, *pt.eta]


def _b_point(n: int, rho: float, w: float, sq: float, chart: int, y, sigma, gamma, eta):
    """The BCotangentPoint, of plain floats, of a latitude point with its v-frame fiber
    (from _v_fiber): v = 2w^2 - 1, cap = sign w, and chart_ok cleared within 1e-7 of
    the zero-time slice and the time axis."""
    return BCotangentPoint(n, rho, 2.0 * w * w - 1.0, tuple(y), sigma, gamma, tuple(eta),
                           1 if w >= 0.0 else -1, chart, min(abs(w), sq) >= 1e-7)


def _v_fiber(w: float, fib: list):
    """(sigma, gamma, eta) from the latitude fiber: gamma = gamma_w/(4w); on the
    zero-time slice dv/dw = 4w vanishes and gamma is NaN."""
    return fib[0], fib[1] / (4.0 * w) if w else math.nan, fib[2:]


def compactify(c: InteriorCovector) -> BCotangentPoint:
    """Push (z, zeta) to the b-frame with its raw fiber (which overflows on long rays;
    flow keeps the fiber projectivized); ChartError as in _to_latitude."""
    r, w, sq, chart, y, fib = _to_latitude(c.z.tolist(), c.zeta.tolist())
    return _b_point(c.n, 1.0 / r, w, sq, chart, y, *_v_fiber(w, fib))


def decompactify(pt: BCotangentPoint) -> InteriorCovector:
    """Invert the chart; needs rho > 0 and a nondegenerate frame."""
    if pt.rho <= 0.0:
        raise ChartError("rho must be positive to return to the interior")
    w, sq, fib = _latitude(pt)
    z, zeta = _from_latitude(1.0 / pt.rho, w, sq, pt.chart, pt.y, fib)
    return InteriorCovector(z=z, zeta=zeta)


# --- latitude-chart and interior fields -----------------------------------

def _bd_rhs(Y: np.ndarray) -> np.ndarray:
    """The latitude-chart field at the rows Y = [x, w, y(n-2), u(n), k]: the
    derivatives of lam in (sigma, gamma_w, eta), then u' = F - (u . F) u and
    k' = u . F for F = (0, -d lam/dw, -d lam/dy)."""
    n = Y.shape[1] // 2
    w = Y[:, 1]
    u = Y[:, n : 2 * n] / np.sqrt(_sumsq(Y[:, n : 2 * n]))[:, None]
    s, cw, d, e2, w2 = u[:, 0], u[:, 1], 1.0 + _sumsq(Y[:, 2:n]), _sumsq(u[:, 2:]), w * w
    one, a2 = 1.0 - w2, 4.0 * w2 - 2.0  # a2 = 2 (2w^2 - 1)
    b, g = 4.0 * w * one, d * d / one
    out = np.empty(Y.shape)
    out[:, 0] = a2 * s - b * cw
    out[:, 1] = -(b * s + a2 * one * cw)
    out[:, 2:n] = u[:, 2:] * (-0.5 * g)[:, None]
    F = np.zeros((len(Y), n))
    F[:, 1] = (((4.0 - 12.0 * w2) * s + (6.0 - 8.0 * w2) * w * cw) * cw - 4.0 * w * s * s
               + 0.5 * w * g * e2 / one)
    F[:, 2:] = Y[:, 2:n] * (d * e2 / one)[:, None]
    kdot = ordered_sum(u * F)
    out[:, n : 2 * n] = F - kdot[:, None] * u
    out[:, 2 * n] = kdot
    return out


def _int_rhs(Y: np.ndarray) -> np.ndarray:
    """The interior field at the rows Y = [z(n), zeta(n)]: z' = 2 |z|^2 (-zeta'', zeta_n),
    zeta' = -2 (zeta_n^2 - |zeta''|^2) z."""
    n = Y.shape[1] // 2
    zn = Y[:, -1]
    out = np.empty(Y.shape)
    out[:, :n] = Y[:, n:] * (2.0 * _sumsq(Y[:, :n]))[:, None]
    out[:, : n - 1] *= -1.0
    out[:, n:] = Y[:, :n] * (2.0 * (_sumsq(Y[:, n:-1]) - zn * zn))[:, None]
    return out


# --- state packing -------------------------------------------------------

def _bd_state(x: float, w: float, y, fib) -> list:
    """Latitude state [x, w, y, u, k] with the fiber split as u * e^k, |u| = 1."""
    s = math.sqrt(_dot(fib, fib))
    return [x, w, *y, *[c / s for c in fib], math.log(s)]


def _interior_to_bd(state: list, n: int):
    r, w, _, chart, y, fib = _to_latitude(state[:n], state[n : 2 * n])
    return _bd_state(math.log(1.0 / r), w, y, fib), chart


def _bd_to_interior(state: list, chart: int, n: int) -> list:
    w, u, e = state[1], state[n : 2 * n], math.exp(state[2 * n])
    s = math.sqrt(_dot(u, u))
    z, zeta = _from_latitude(math.exp(-state[0]), w, math.sqrt(1.0 - w * w), chart, state[2:n],
                             [c / s * e for c in u])
    return z + zeta


def _sample_point(state: list, chart: int, n: int, bd: bool):
    """Flow state, a list -> (its BCotangentPoint with unit v-frame fiber, lam, log-scale)."""
    if bd:
        x, w, *rest = state
        y, u, k = rest[: n - 2], rest[n - 2 : 2 * n - 2], rest[2 * n - 2]
        rho, sq, norm = math.exp(x), math.sqrt(1.0 - w * w), math.hypot(*u)
        u = [c / norm for c in u]
        # lam in the latitude frame
        s, cw, one, a, d = u[0], u[1], 1.0 - w * w, 2.0 * w * w - 1.0, 1.0 + _dot(y, y)
        lam = (a * s * s - 4 * w * one * s * cw - a * one * cw * cw
               - d * d / 4 * _dot(u[2:], u[2:]) / one)
    else:
        z, zeta = state[:n], state[n : 2 * n]
        r, w, sq, chart, y, fib = _to_latitude(z, zeta)
        s = math.hypot(*fib)  # the raw fiber is huge next to the time axis
        rho, u, k = 1.0 / r, [c / s for c in fib], math.log(s)
        # the b-frame symbol is r^2 (zeta_n^2 - |zeta''|^2) in every frame; unlike
        # the latitude frame's it has no 1/(1 - w^2), which blows up next to the axis
        lam = (r / s) * (r / s) * (zeta[-1] * zeta[-1] - _dot(zeta[:-1], zeta[:-1]))
    sigma, gamma, eta = _v_fiber(w, u)
    s = math.hypot(sigma, gamma, *eta)
    pt = _b_point(n, rho, w, sq, chart, y, sigma / s, gamma / s, [e / s for e in eta])
    return pt, float(lam), k + math.log(s)


# --- the flow ------------------------------------------------------------

_RHO_SWITCH = 0.05
_RHO_BACK = 0.06
_W_NULLBAND = 0.85
_RHO_FLOOR = 1e-5
_MAX_SEGMENTS = 200  # a leg ends "segment-limit" after this many segments
_ESCAPE_R = 1.0e4
_LIMIT_TOL = 1e-3
_SAMPLES_PER_UNIT = 6.0  # trace samples per unit of the trace parameter


def _entry(r, w):
    """Positive exactly where |z| = r and w belong to the latitude chart:
    1/r < _RHO_SWITCH and |w| < _W_NULLBAND."""
    return np.minimum(r - 1.0 / _RHO_SWITCH, _W_NULLBAND**2 - w * w)


def _interior_events(Y):
    """At the rows [z, zeta]: leaving the trusted region outward past |z| = _ESCAPE_R
    (along the time axis), and entering the latitude chart (_entry turning positive)."""
    n = Y.shape[1] // 2
    r, out = np.sqrt(_sumsq(Y[:, :n])), np.empty((len(Y), 2))
    out[:, 0], out[:, 1] = r - _ESCAPE_R, _entry(r, Y[:, n - 1] / r)
    return out


def _latitude_events(Y):
    """At the rows [x, w, y, u, k]: the radial convergence floor (rho falling
    through _RHO_FLOOR); the exit to the interior at rho > _RHO_BACK or
    w^2 > 0.92, past _entry's edges so that a ray does not bounce between the
    charts; the stereographic chart edge."""
    x, w, out = Y[:, 0], Y[:, 1], np.empty((len(Y), 3))
    out[:, 0] = math.log(_RHO_FLOOR) - x
    out[:, 1] = np.maximum(x - math.log(_RHO_BACK), w * w - 0.92)
    out[:, 2] = _sumsq(Y[:, 2 : Y.shape[1] // 2]) - 4.0
    return out


class _Leg:
    """One leg of flow: its chart, its state (a float list) at the start of its
    segment, its samples and its counters; end takes each segment _dop853.solve ends."""

    def __init__(self, pt, T: float):
        if math.isnan(T):
            raise ValueError("flow length T is NaN")
        n = self.n = pt.n
        if isinstance(pt, BCotangentPoint):
            (w, _, fib), chart, y, rho = _latitude(pt), pt.chart, pt.y, pt.rho
            r = 1.0 / rho if rho > 0.0 else math.inf
        else:
            r, w, _, chart, y, fib = _to_latitude(pt.z.tolist(), pt.zeta.tolist())
            rho = 1.0 / r
        self.bd = bool(_entry(r, w) > 0.0)
        if self.bd:
            self.state = _bd_state(math.log(max(rho, 1e-300)), w, y, fib)
        else:
            c = decompactify(pt) if isinstance(pt, BCotangentPoint) else pt
            self.state = c.z.tolist() + c.zeta.tolist()
        self.chart, self.T, self.sgn = chart, T, 1.0 if T >= 0 else -1.0
        # (t, point, lam, log-scale) per sample, the start's first: even |T| <= 1e-12 has one
        self.samples = [(0.0, *_sample_point(self.state, chart, n, self.bd))]
        self.nonnull = abs(self.samples[0][2]) > _NULL_TOL
        self.truncated, self.stats = None, dict.fromkeys(_STATS, 0)

    def end(self, seg):
        """Record a segment, or a failure (StiffnessError), and return the next
        segment's (start state, kind), or None where the leg ends."""
        if isinstance(seg, StiffnessError):
            self.truncated = "stiff"
            return None
        n, sgn, T, t_end, samples = self.n, self.sgn, self.T, seg.ts[-1], self.samples
        tau = samples[-1][0]
        ts = np.linspace(tau, t_end, max(8, int(abs(t_end - tau) * _SAMPLES_PER_UNIT)) + 1)
        states = seg(ts).tolist()  # linspace ends on t_end exactly
        for tv, sv in zip(ts.tolist(), states):
            if sgn * (tv - samples[-1][0]) <= 0.0:
                continue  # the start and segment joins repeat the last sample
            samples.append((tv, *_sample_point(sv, self.chart, n, self.bd)))
        for key, count in zip(_STATS, (len(seg.ts) - 1, seg.nfev, seg.rejected, 1)):
            self.stats[key] += count
        state = states[-1]
        if sgn * (T - t_end) <= 1e-12:
            return None
        if seg.event == 0:
            self.truncated = None if self.bd else "escaped"
            return None
        if not self.bd:
            (state, self.chart), self.bd = _interior_to_bd(state, n), True
        else:
            s = math.sqrt(_dot(state[n : 2 * n], state[n : 2 * n]))
            state[n : 2 * n] = [c / s for c in state[n : 2 * n]]
            if seg.event == 1 and state[0] < math.log(1e-3):
                self.truncated = "chart"  # near-axis transit too deep out for the interior
                return None
            if seg.event == 1:
                # the interior coordinates stay smooth through a near-axis transit
                state, self.bd = _bd_to_interior(state, self.chart, n), False
            else:  # the chart edge: move y to the other stereographic chart
                ynew, enew = _chart_transition(state[2:n], state[n + 2 : 2 * n])
                k = state[2 * n]
                state = _bd_state(state[0], state[1], ynew, state[n : n + 2] + enew)
                state[-1] += k
                self.chart = 1 - self.chart
        if self.stats["segments"] == _MAX_SEGMENTS:
            self.truncated = "segment-limit"
            return None
        return state, int(self.bd)


def flow(pt, T, tol: float = 1e-10):
    """Integrate the b-Hamilton flow for parameter length T (signed, not NaN).

    For one start (a BCotangentPoint or an InteriorCovector) flow returns its
    RayTrace; for a sequence of starts, with T one length or one per start,
    their RayTraces.  The legs of each dimension run as one _dop853 ensemble,
    and a leg's trace has the bits it has alone.  Each stretch is a segment:
    in plain (z, zeta) coordinates, or in the projectivized latitude chart,
    where a start goes if _entry is positive (rho < 0.05, |w| < 0.85).  The
    events, the earlier crossing first and on a tie the one listed first: in
    the interior, escape outward past |z| = 1e4 (truncated "escaped"), then
    entry to the latitude chart; there, the radial convergence floor
    rho = 1e-5, then the exit to the interior at rho > 0.06 or w^2 > 0.92
    (truncated "chart" below rho = 1e-3), then the stereographic chart edge.
    A failed segment ends its leg "stiff" with the samples before it,
    uncounted in stats, and the other legs go on; after _MAX_SEGMENTS
    segments a leg ends "segment-limit".  The trace parameter, rescaled
    (d tau = |fiber| dt) in the latitude chart and Hamilton time in the
    interior, is strictly monotone.  A trace holds one BCotangentPoint per
    sample, built when the sample is taken.  A tol that is not finite or is
    below 100 EPS is a ValueError (_dop853.solve).
    """
    one = isinstance(pt, (BCotangentPoint, InteriorCovector))
    starts = [pt] if one else list(pt)
    legs = [_Leg(s, float(t)) for s, t in zip(starts, np.broadcast_to(T, len(starts)))]
    # |T| <= 1e-12 runs no segment: the trace is its start sample
    for n in sorted({leg.n for leg in legs if abs(leg.T) > 1e-12}):
        run = [leg for leg in legs if leg.n == n and abs(leg.T) > 1e-12]
        y0 = np.array([np.pad(leg.state, (0, 2 * n + 1 - len(leg.state))) for leg in run])
        # each kind with its count of events, each of which fires crossing zero upward
        systems = ((_int_rhs, _interior_events, 2, 2 * n),
                   (_bd_rhs, _latitude_events, 3, 2 * n + 1))
        _dop853.solve(systems, y0, [int(leg.bd) for leg in run], [leg.T for leg in run],
                      tol, lambda i, seg: run[i].end(seg))
    traces = [RayTrace(np.array(t), points, np.array(lam), np.array(k), leg.nonnull,
                       leg.truncated, leg.stats)
              for leg in legs for t, points, lam, k in [zip(*leg.samples)]]
    return traces[0] if one else RayTraces(traces)


def classify_limit(tr: RayTrace):
    """Radial-set component reached by the trace end, or None.

    The end point must satisfy rho + |v| + |sigma| + |eta| < 1e-3 with the
    fiber unit-normalized (the raw sigma is conserved, so only its
    projective size can decay).  gamma > 0 there is a sink, gamma < 0 a
    source; the cap sign picks the future or past component.  A trace
    flagged non-null that nevertheless meets the threshold is an error.
    """
    end = tr.points[-1]
    miss = end.rho + abs(end.v) + abs(end.sigma) + math.sqrt(_dot(end.eta, end.eta))
    if miss >= _LIMIT_TOL:
        return None
    if tr.nonnull:
        raise ClassificationError("non-null trace converged to the radial set; inconsistent flags")
    if end.gamma > 0.0:
        return RadialSet.SINK_FUTURE if end.cap > 0 else RadialSet.SINK_PAST
    return RadialSet.SOURCE_FUTURE if end.cap > 0 else RadialSet.SOURCE_PAST


def radial_flow_signature(gamma: float) -> np.ndarray:
    """Eigenvalues of the linearized flow map near the radial set.

    The reduced system at eta = sigma = 0, rho' = -4(1-v^2) gamma rho,
    v' = -8v(1-v^2) gamma, gamma' = 4 gamma^2 (1-3v^2), run for parameter
    length 0.02 from (0.01, 0, gamma), solves on v = 0 to gamma/(1 - 4 gamma t)
    and rho(0)(1 - 4 gamma t); its linearized map is triangular with diagonal
    (a, a^2, a^-2), a = 1 - 0.08 gamma.  Near gamma > 0 it contracts in rho
    and v and expands in gamma; callers assert only the sign pattern.
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
        r = math.sqrt(_dot(z, z))
        if not 1.0 <= r <= 8.0 or abs(z[-1]) / r > 0.8 or math.sqrt(_dot(z[:-1], z[:-1])) / r < 0.2:
            continue
        zpp = rng.normal(size=n - 1)
        while math.sqrt(_dot(zpp, zpp)) < 1e-3:
            zpp = rng.normal(size=n - 1)
        sign = 1.0 if (not mixed_components or len(out) % 2 == 0) == future else -1.0
        zeta = np.concatenate((zpp, [sign * math.sqrt(_dot(zpp, zpp))]))
        out.append(InteriorCovector(z=z, zeta=zeta))
    return out
