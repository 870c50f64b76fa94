"""Dormand-Prince 8(5,3) with 7th-order dense output and terminal events.

The explicit Runge-Kutta pair of Dormand and Prince (1980) in the form of
Hairer, Norsett and Wanner, *Solving Ordinary Differential Equations I*,
sections II.4-II.6: twelve stages per step, an error estimate that blends
the 5th- and 3rd-order embedded solutions, and a 7th-order interpolant from
three extra stages per accepted step.  The coefficients are those of
Hairer's DOP853 as SciPy 1.17 carries them.  The rules:

- the first step from the two-evaluation estimate of section II.4 (RMS
  norms, order 7);
- the step factor 0.9 * err^(-1/8), clipped to [0.2, 10], and to at most 1
  right after a rejection;
- a step shorter than ten spacings of t fails, and so does a step size that
  is not a number (a right-hand side that returns NaN); a non-finite start
  is a ValueError;
- rtol below 100 * EPS is raised to it, with a warning;
- a segment costs 2 evaluations for the first step, 15 per accepted step
  (12 stages and 3 for the dense output) and 12 per rejected one, and it
  counts both;
- a time reads the step clip(searchsorted(d * ts, d * t, "left") - 1, 0,
  steps - 1), d the sign of the integration: a step boundary reads the
  earlier step, and the end steps extrapolate;
- every event is terminal; it fires where its value changes sign in its
  direction over a step, and is located on the step's interpolant by
  regula falsi with the Illinois rule (Dowell and Jarratt 1971) to a
  bracket of 4 * EPS * (1 + |t|); the earliest root in the direction of
  integration ends the segment, the lower event index on a tie, and a root
  on the previous step's end drops the last step.

An event search fails with StiffnessError on a NaN event value, on no sign
change over the step and on no convergence in 100 iterations: the
integration failed, the input did not.
"""

from __future__ import annotations

import math
import warnings

import numpy as np

from .errors import StiffnessError

EPS = np.finfo(float).eps
_STAGES = 12

C = np.array([0.0,
              0.526001519587677318785587544488e-01,
              0.789002279381515978178381316732e-01,
              0.118350341907227396726757197510,
              0.281649658092772603273242802490,
              0.333333333333333333333333333333,
              0.25,
              0.307692307692307692307692307692,
              0.651282051282051282051282051282,
              0.6,
              0.857142857142857142857142857142,
              1.0,
              1.0,
              0.1,
              0.2,
              0.777777777777777777777777777778])

# rows 0-11 are the stages, row 12 the 8th-order weights B, rows 13-15 the
# extra stages of the dense output
A = np.zeros((16, 16))
A[1, 0] = 5.26001519587677318785587544488e-2
A[2, :2] = [1.97250569845378994544595329183e-2, 5.91751709536136983633785987549e-2]
A[3, [0, 2]] = [2.95875854768068491816892993775e-2, 8.87627564304205475450678981324e-2]
A[4, [0, 2, 3]] = [2.41365134159266685502369798665e-1, -8.84549479328286085344864962717e-1,
                   9.24834003261792003115737966543e-1]
A[5, [0, 3, 4]] = [3.7037037037037037037037037037e-2, 1.70828608729473871279604482173e-1,
                   1.25467687566822425016691814123e-1]
A[6, [0, 3, 4, 5]] = [3.7109375e-2, 1.70252211019544039314978060272e-1,
                      6.02165389804559606850219397283e-2, -1.7578125e-2]
A[7, [0, 3, 4, 5, 6]] = [3.70920001185047927108779319836e-2, 1.70383925712239993810214054705e-1,
                         1.07262030446373284651809199168e-1, -1.53194377486244017527936158236e-2,
                         8.27378916381402288758473766002e-3]
A[8, [0, 3, 4, 5, 6, 7]] = [6.24110958716075717114429577812e-1, -3.36089262944694129406857109825,
                            -8.68219346841726006818189891453e-1, 2.75920996994467083049415600797e1,
                            2.01540675504778934086186788979e1, -4.34898841810699588477366255144e1]
A[9, [0, 3, 4, 5, 6, 7, 8]] = [
    4.77662536438264365890433908527e-1, -2.48811461997166764192642586468,
    -5.90290826836842996371446475743e-1, 2.12300514481811942347288949897e1,
    1.52792336328824235832596922938e1, -3.32882109689848629194453265587e1,
    -2.03312017085086261358222928593e-2]
A[10, [0, 3, 4, 5, 6, 7, 8, 9]] = [
    -9.3714243008598732571704021658e-1, 5.18637242884406370830023853209,
    1.09143734899672957818500254654, -8.14978701074692612513997267357,
    -1.85200656599969598641566180701e1, 2.27394870993505042818970056734e1,
    2.49360555267965238987089396762, -3.0467644718982195003823669022]
A[11, [0, 3, 4, 5, 6, 7, 8, 9, 10]] = [
    2.27331014751653820792359768449, -1.05344954667372501984066689879e1,
    -2.00087205822486249909675718444, -1.79589318631187989172765950534e1,
    2.79488845294199600508499808837e1, -2.85899827713502369474065508674,
    -8.87285693353062954433549289258, 1.23605671757943030647266201528e1,
    6.43392746015763530355970484046e-1]
A[12, [0, 5, 6, 7, 8, 9, 10, 11]] = [
    5.42937341165687622380535766363e-2, 4.45031289275240888144113950566,
    1.89151789931450038304281599044, -5.8012039600105847814672114227,
    3.1116436695781989440891606237e-1, -1.52160949662516078556178806805e-1,
    2.01365400804030348374776537501e-1, 4.47106157277725905176885569043e-2]
A[13, [0, 6, 7, 8, 9, 10, 11, 12]] = [
    5.61675022830479523392909219681e-2, 2.53500210216624811088794765333e-1,
    -2.46239037470802489917441475441e-1, -1.24191423263816360469010140626e-1,
    1.5329179827876569731206322685e-1, 8.20105229563468988491666602057e-3,
    7.56789766054569976138603589584e-3, -8.298e-3]
A[14, [0, 5, 6, 7, 10, 11, 12, 13]] = [
    3.18346481635021405060768473261e-2, 2.83009096723667755288322961402e-2,
    5.35419883074385676223797384372e-2, -5.49237485713909884646569340306e-2,
    -1.08347328697249322858509316994e-4, 3.82571090835658412954920192323e-4,
    -3.40465008687404560802977114492e-4, 1.41312443674632500278074618366e-1]
A[15, [0, 5, 6, 7, 8, 12, 13, 14]] = [
    -4.28896301583791923408573538692e-1, -4.69762141536116384314449447206,
    7.68342119606259904184240953878, 4.06898981839711007970213554331,
    3.56727187455281109270669543021e-1, -1.39902416515901462129418009734e-3,
    2.9475147891527723389556272149, -9.15095847217987001081870187138]

B = A[_STAGES, :_STAGES]

# error weights: the 8th-order solution minus the embedded 3rd- and
# 5th-order ones
E3 = np.zeros(_STAGES + 1)
E3[:-1] = B.copy()
E3[0] -= 0.244094488188976377952755905512
E3[8] -= 0.733846688281611857341361741547
E3[11] -= 0.220588235294117647058823529412e-1

E5 = np.zeros(_STAGES + 1)
E5[[0, 5, 6, 7, 8, 9, 10, 11]] = [
    0.1312004499419488073250102996e-1, -0.1225156446376204440720569753e+1,
    -0.4957589496572501915214079952, 0.1664377182454986536961530415e+1,
    -0.3503288487499736816886487290, 0.3341791187130174790297318841,
    0.8192320648511571246570742613e-1, -0.2235530786388629525884427845e-1]

# the dense output's coefficients of powers 4 to 7 (powers 1 to 3 come from
# the step's end values)
D = np.zeros((4, 16))
D[:, [0, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15]] = [
    [-0.84289382761090128651353491142e+1, 0.56671495351937776962531783590,
     -0.30689499459498916912797304727e+1, 0.23846676565120698287728149680e+1,
     0.21170345824450282767155149946e+1, -0.87139158377797299206789907490,
     0.22404374302607882758541771650e+1, 0.63157877876946881815570249290,
     -0.88990336451333310820698117400e-1, 0.18148505520854727256656404962e+2,
     -0.91946323924783554000451984436e+1, -0.44360363875948939664310572000e+1],
    [0.10427508642579134603413151009e+2, 0.24228349177525818288430175319e+3,
     0.16520045171727028198505394887e+3, -0.37454675472269020279518312152e+3,
     -0.22113666853125306036270938578e+2, 0.77334326684722638389603898808e+1,
     -0.30674084731089398182061213626e+2, -0.93321305264302278729567221706e+1,
     0.15697238121770843886131091075e+2, -0.31139403219565177677282850411e+2,
     -0.93529243588444783865713862664e+1, 0.35816841486394083752465898540e+2],
    [0.19985053242002433820987653617e+2, -0.38703730874935176555105901742e+3,
     -0.18917813819516756882830838328e+3, 0.52780815920542364900561016686e+3,
     -0.11573902539959630126141871134e+2, 0.68812326946963000169666922661e+1,
     -0.10006050966910838403183860980e+1, 0.77771377980534432092869265740,
     -0.27782057523535084065932004339e+1, -0.60196695231264120758267380846e+2,
     0.84320405506677161018159903784e+2, 0.11992291136182789328035130030e+2],
    [-0.25693933462703749003312586129e+2, -0.15418974869023643374053993627e+3,
     -0.23152937917604549567536039109e+3, 0.35763911791061412378285349910e+3,
     0.93405324183624310003907691704e+2, -0.37458323136451633156875139351e+2,
     0.10409964950896230045147246184e+3, 0.29840293426660503123344363579e+2,
     -0.43533456590011143754432175058e+2, 0.96324553959188282948394950600e+2,
     -0.39177261675615439165231486172e+2, -0.14972683625798562581422125276e+3],
]

_EXPONENT = -1 / 8  # -1/(error order + 1)


def _norm(x: np.ndarray):
    """np.linalg.norm of a real vector (the same dot and sqrt), without its dispatch."""
    return np.sqrt(x.dot(x))


def _rms(x: np.ndarray):
    return _norm(x) / x.size ** 0.5


def _interpolate(x, y_old, F) -> np.ndarray:
    """The 7th-order interpolant at the step fractions x, in Horner form: F holds
    the coefficients (..., 7, n), y_old the states at the steps' starts (..., n)."""
    y = np.zeros(y_old.shape)
    for i in range(6, -1, -1):
        y += F[..., i, :]
        y *= x if i % 2 == 0 else 1 - x
    return y + y_old


class Segment:
    """The result of solve: accepted step times ts (with the event root last
    when an event ended it); the steps' lengths h, start states y_old and
    interpolant coefficients F, stacked from one (h, y_old, F) per step; the
    counts of right-hand-side evaluations nfev and of rejected steps; and the
    index of the terminal event (None when the segment reached t_bound)."""

    def __init__(self, ts: list, steps: list, nfev: int, rejected: int, event: int | None):
        self.ts = np.array(ts)
        self.h, self.y_old, self.F = (np.array(a) for a in zip(*steps))
        self.nfev, self.rejected, self.event = nfev, rejected, event

    def __call__(self, t):
        """The state at time t, or at an array of times one row each, by the lookup rule."""
        if np.ndim(t) == 0:
            return self(np.array([t]))[0]
        d = np.sign(self.h[0])
        k = np.clip(np.searchsorted(d * self.ts, d * t, side="left") - 1, 0, len(self.h) - 1)
        return _interpolate(((t - self.ts[k]) / self.h[k])[:, None], self.y_old[k], self.F[k])


def _crossed(g: float, g_new: float, direction: float) -> bool:
    """Whether an event value went from g to g_new through zero in its direction
    (upward for direction > 0, downward for < 0, either way for 0)."""
    up = g <= 0 and g_new >= 0
    down = g >= 0 and g_new <= 0
    return up if direction > 0 else down if direction < 0 else up or down


def solve(fun, t0: float, t_bound: float, y0: np.ndarray, rtol: float, atol: float,
          events, args) -> Segment:
    """Integrate y' = fun(t, y, *args) from t0 towards t_bound, t_bound != t0.

    events holds (event, direction) pairs: event(t, y, *args) ends the segment
    where it crosses zero upward (direction > 0), downward (< 0) or either way
    (0).  Raises ValueError for a non-finite y0 or a negative atol and
    StiffnessError when a step or an event search fails.
    """
    t0, t_bound = float(t0), float(t_bound)
    y = np.asarray(y0, dtype=float)
    if not np.isfinite(y).all():
        raise ValueError("All components of the initial state `y0` must be finite.")
    if atol < 0:
        raise ValueError("`atol` must be positive.")
    if rtol < 100 * EPS:
        warnings.warn(f"rtol {rtol:g} is too small; using rtol = 100 EPS = {100 * EPS}",
                      stacklevel=3)
        rtol = np.maximum(rtol, 100 * EPS)
    direction = np.sign(t_bound - t0)
    n = y.size
    f = fun(t0, y, *args)

    # the first step (section II.4)
    interval = abs(t_bound - t0)
    scale = atol + np.abs(y) * rtol
    d0, d1 = _rms(y / scale), _rms(f / scale)
    h0 = 1e-6 if d0 < 1e-5 or d1 < 1e-5 else 0.01 * d0 / d1
    h0 = min(h0, interval)
    f1 = fun(t0 + h0 * direction, y + h0 * direction * f, *args)
    d2 = _rms((f1 - f) / scale) / h0
    if d1 <= 1e-15 and d2 <= 1e-15:
        h1 = max(1e-6, h0 * 1e-3)
    else:
        h1 = (0.01 / max(d1, d2)) ** (1 / 8)
    h_abs = min(100 * h0, h1, interval)
    nfev, nrejected = 2, 0

    K_ext = np.empty((16, n))
    K = K_ext[: _STAGES + 1]
    t, ts, steps = t0, [t0], []
    g = [ev(t0, y, *args) for ev, _ in events]
    while True:
        min_step = 10 * np.abs(np.nextafter(t, direction * np.inf) - t)
        if h_abs < min_step:
            h_abs = min_step
        rejected = False
        while True:
            if not h_abs >= min_step:
                raise StiffnessError("Required step size is less than spacing between numbers."
                                     if h_abs < min_step else "step size is NaN")
            t_new = t + h_abs * direction
            if direction * (t_new - t_bound) > 0:
                t_new = t_bound
            h = t_new - t
            h_abs = np.abs(h)
            K[0] = f
            for s in range(1, _STAGES):
                dy = np.dot(K[:s].T, A[s, :s]) * h
                K[s] = fun(t + C[s] * h, y + dy, *args)
            y_new = y + h * np.dot(K[:-1].T, B)
            f_new = fun(t + h, y_new, *args)
            K[-1] = f_new
            nfev += _STAGES
            scale = atol + np.maximum(np.abs(y), np.abs(y_new)) * rtol
            err5 = np.dot(K.T, E5) / scale
            err3 = np.dot(K.T, E3) / scale
            err5_2 = _norm(err5) ** 2
            err3_2 = _norm(err3) ** 2
            if err5_2 == 0 and err3_2 == 0:
                err = 0.0
            else:
                err = np.abs(h) * err5_2 / np.sqrt((err5_2 + 0.01 * err3_2) * len(scale))
            if err < 1:
                factor = 10 if err == 0 else min(10, 0.9 * err**_EXPONENT)
                h_abs *= min(1, factor) if rejected else factor
                break
            h_abs *= max(0.2, 0.9 * err**_EXPONENT)
            rejected = True
            nrejected += 1

        # the dense output: three more stages, then the interpolant
        for s in range(_STAGES + 1, 16):
            dy = np.dot(K_ext[:s].T, A[s, :s]) * h
            K_ext[s] = fun(t + C[s] * h, y + dy, *args)
        nfev += 3
        F = np.empty((7, n))
        delta_y = y_new - y
        F[0] = delta_y
        F[1] = h * K_ext[0] - delta_y
        F[2] = 2 * delta_y - h * (f_new + K_ext[0])
        F[3:] = h * np.dot(D, K_ext)
        steps.append((h, y, F))

        g_new = [ev(t_new, y_new, *args) for ev, _ in events]
        active = [i for i, (_, d) in enumerate(events) if _crossed(g[i], g_new[i], d)]
        if active:
            # the earliest root in the direction of integration, the lower
            # index on a tie
            key, event = min((direction * _locate(events[i][0], t, t_new, y, F, args), i)
                             for i in active)
            root = direction * key
            if len(ts) > 1 and ts[-1] == root:
                steps.pop()  # the event sits on the previous step's end
            else:
                ts.append(root)
            return Segment(ts, steps, nfev, nrejected, event)
        t, y, f, g = t_new, y_new, f_new, g_new
        ts.append(t)
        if direction * (t - t_bound) >= 0:
            return Segment(ts, steps, nfev, nrejected, None)


def _locate(ev, t_old: float, t_new: float, y_old: np.ndarray, F: np.ndarray, args) -> float:
    """The time in the step from t_old to t_new where ev crosses zero on the
    step's interpolant: regula falsi, where an end that two iterations in a
    row keep has its value halved (the Illinois rule), until the bracket is
    at most 4 * EPS * (1 + |t|) wide."""
    h = t_new - t_old

    def value(t):
        v = ev(t, _interpolate((t - t_old) / h, y_old, F), *args)
        if math.isnan(v):
            raise StiffnessError(f"event value is NaN at t = {t}")
        return v

    a, b = t_old, t_new
    ga, gb = value(a), value(b)
    if ga == 0:
        return a
    if gb == 0:
        return b
    if (ga > 0) == (gb > 0):
        raise StiffnessError("event value does not change sign over the step")
    kept = 0  # +1 when the last iteration kept b, -1 when it kept a
    for _ in range(100):
        t = b - gb * (b - a) / (gb - ga)
        g = value(t)
        if g == 0:
            return t
        if (g > 0) == (gb > 0):
            b, gb = t, g
            if kept < 0:
                ga /= 2
            kept = -1
        else:
            a, ga = t, g
            if kept > 0:
                gb /= 2
            kept = 1
        if abs(b - a) <= 4 * EPS * (1 + abs(t)):
            return t
    raise StiffnessError("event location failed to converge after 100 iterations")
