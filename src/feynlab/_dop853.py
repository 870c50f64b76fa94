"""Dormand-Prince 8(5,3) with 7th-order dense output and terminal events,
for an ensemble of autonomous systems.

The explicit Runge-Kutta pair of Dormand and Prince (1980) in the form of
Hairer, Norsett and Wanner, *Solving Ordinary Differential Equations I*,
sections II.4-II.6: twelve stages per step, an error estimate that blends
the 5th- and 3rd-order embedded solutions, and a 7th-order interpolant from
three extra stages per accepted step.  The coefficients are those of
Hairer's DOP853 as SciPy 1.17 carries them.  The rules, per leg:

- a segment's first step from the estimate of section II.4 (RMS norms);
- the step factor 0.9 * err^(-1/8), clipped to [0.2, 10], and to at most 1
  right after a rejection;
- a step shorter than ten spacings of t fails, and so does a NaN step size
  (a right-hand side that returns NaN), and an event search on a NaN event
  value, on no sign change over the step or on no convergence in 100
  iterations; a non-finite start, and a tol that is not finite or is below
  100 * EPS, are a ValueError;
- a segment costs 2 evaluations for the first step, 15 per accepted step
  (12 stages and 3 for the dense output) and 12 per rejected one, a step
  dropped for an event included;
- a time reads the step clip(searchsorted(d * ts, d * t, "left") - 1, 0,
  steps - 1), d the sign of the integration: a step boundary reads the
  earlier step, and the end steps extrapolate;
- every event is terminal; it fires where its value crosses zero upward
  over a step, from <= 0 to >= 0, located on the step's interpolant by
  regula falsi with the Illinois rule (Dowell and Jarratt 1971) to a
  bracket of 4 * EPS * (1 + |t|); the earliest root in the direction of integration
  ends the segment, the lower event index on a tie, and a root on the
  previous step's end drops the last step.

The ensemble.  The legs are the rows of one (legs, state) array.  Each
round, every running leg attempts one step of its own size, with its own
acceptance, events and counters.  A leg's kind picks its right-hand side,
events and state size; a row is zero past its size.  At the end of a
segment a callback ends the leg or starts its next segment, of any kind; a
failed leg ends, and the others go on.  A round runs only the twelve
stages; an accepted step keeps them as views, which keep the round's arrays
alive until their segments end.  The dense output's stages and coefficients
then run once per kind per round, in one pass over every step of the
segments of that kind that end in the round, before each segment's event
search on its last step's interpolant.  The ensemble rule: every sum over a
state or over the stages is an ordered_sum, each other operation on the
arrays an elementwise ufunc, and the step factor's power runs in math on
one leg's float.  No BLAS routine runs, so a leg's bits do not depend on
the legs beside it, on numpy's SIMD width or on the BLAS core.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import StiffnessError

EPS = np.finfo(float).eps
_STAGES = 12
# the nodes, part of the tableau but not of a step: every system here is autonomous
C = np.array([0.0, 0.526001519587677318785587544488e-01, 0.789002279381515978178381316732e-01,
              0.118350341907227396726757197510, 0.281649658092772603273242802490,
              0.333333333333333333333333333333, 0.25, 0.307692307692307692307692307692,
              0.651282051282051282051282051282, 0.6, 0.857142857142857142857142857142,
              1.0, 1.0, 0.1, 0.2, 0.777777777777777777777777777778])

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

# error weights: the 8th-order solution minus the embedded 3rd- and 5th-order ones
E3 = np.zeros(_STAGES + 1)
E3[:-1] = B
E3[[0, 8, 11]] -= [0.244094488188976377952755905512, 0.733846688281611857341361741547,
                   0.220588235294117647058823529412e-1]

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

# the coefficients shaped to scale stacked stages (stage, [row,] leg, component):
# the rows A[s, :s], the weights B, the error weights E5 and E3 (zero on stage
# 12, f_new) and the dense output's D
_ROWS = [A[s, :s, None, None] for s in range(16)]
_ERR = np.stack((E5[:_STAGES], E3[:_STAGES]), axis=1)[:, :, None, None]
_D = D.T[:, :, None, None]


def ordered_sum(P: np.ndarray, axis: int = -1) -> np.ndarray:
    """The sums of P along its last axis or its first (axis=0) in index order,
    ((p0 + p1) + p2) + ..., as np.add.accumulate's running sums or as adds of
    whole slices: a sum has the same bits whatever the other lines, the SIMD
    width or the BLAS core.  An empty last axis sums to 0."""
    if axis == 0:
        acc = P[0].copy()
        for p in P[1:]:
            acc += p
        return acc
    return np.add.accumulate(P, axis=-1)[..., -1] if P.shape[-1] else np.zeros(P.shape[:-1])


def _interpolate(x, y_old, F) -> np.ndarray:
    """The 7th-order interpolant at the step fractions x, in Horner form: F holds
    the coefficients (..., 7, n), y_old the states at the steps' starts (..., n)."""
    y = np.zeros(y_old.shape)
    for i in range(6, -1, -1):
        y += F[..., i, :]
        y *= x if i % 2 == 0 else 1 - x
    return y + y_old


class Segment:
    """One leg's segment: accepted step times ts (with the event root last
    when an event ended it); steps = (h, y_old, F), the steps' lengths, start
    states and interpolant coefficients, one row per step, from _dense; the
    counts of right-hand-side evaluations nfev and of rejected steps; and the
    index of the terminal event (None when the segment reached its end time)."""

    def __init__(self, ts: list, steps: tuple, nfev: int, rejected: int, event: int | None):
        self.ts = np.array(ts)
        self.h, self.y_old, self.F = steps
        self.nfev, self.rejected, self.event = nfev, rejected, event

    def __call__(self, t: np.ndarray) -> np.ndarray:
        """The states at the times t, one row each, by the lookup rule."""
        d = np.sign(self.h[0])
        k = np.clip(np.searchsorted(d * self.ts, d * t, side="left") - 1, 0, len(self.h) - 1)
        return _interpolate(((t - self.ts[k]) / self.h[k])[:, None], self.y_old[k], self.F[k])


def _dense(system, runs: list) -> list:
    """(h, y_old, F) of each of the segments runs, one row per accepted step, from
    their steps' (h, y_old, y_new, stages 0-12): the dense output's three stages and
    the interpolant's coefficients of all the segments' steps in one pass, with each
    step's bits."""
    h, y, y_new, stages = zip(*[step for steps in runs for step in steps])
    h, y, y_new = np.array(h), np.array(y), np.array(y_new)
    hc, groups = h[:, None], [(system, slice(None))]
    K = np.zeros((16, *y.shape))
    np.stack(stages, axis=1, out=K[: _STAGES + 1])
    for s in range(_STAGES + 1, 16):
        _evaluate(groups, ordered_sum(K[:s] * _ROWS[s], axis=0) * hc + y, K[s])
    F = np.empty((len(h), 7, y.shape[1]))
    delta = np.subtract(y_new, y, out=F[:, 0])
    F[:, 1] = hc * K[0] - delta
    F[:, 2] = 2 * delta - hc * (K[_STAGES] + K[0])
    F[:, 3:] = (ordered_sum(K[:, None] * _D, axis=0) * hc).transpose(1, 0, 2)
    ends = np.cumsum([len(steps) for steps in runs]).tolist()
    return [(h[a:b], y[a:b], F[a:b]) for a, b in zip([0, *ends], ends)]


def _by_kind(systems, kinds: np.ndarray):
    """(system, rows) for each kind among kinds; rows is a slice when one kind holds them all."""
    if (kinds == kinds[0]).all():
        return [(systems[kinds[0]], slice(None))]
    return [(s, rows) for k, s in enumerate(systems) if (rows := np.flatnonzero(kinds == k)).size]


def _evaluate(groups, Y: np.ndarray, out: np.ndarray) -> np.ndarray:
    """The derivatives of the rows Y, each by its kind's right-hand side, into out (zeros)."""
    for (fun, _, _, size), rows in groups:
        out[rows, :size] = fun(Y[rows, :size])
    return out


def _events(groups, Y: np.ndarray, width: int) -> np.ndarray:
    """The event values of the rows Y, (rows, width); past a kind's events
    the value is 1 and crosses nothing."""
    g = np.ones((len(Y), width))
    for (_, events, count, size), rows in groups:
        g[rows, :count] = events(Y[rows, :size])
    return g


def _rms(x: np.ndarray, n: np.ndarray) -> np.ndarray:
    return np.sqrt(ordered_sum(x * x) / n)  # each row over its own size n


def solve(systems, y0: np.ndarray, kinds, t_bound, tol: float, on_end) -> None:
    """Integrate each leg i, y' = fun(y) for the system of its kind, from t = 0
    towards t_bound[i] != 0, until on_end ends it.

    systems[k] = (fun, events, count, size) for kind k: fun maps states, one
    row each (rows, size), to their derivatives, and events to their count
    event values (rows, count); an event ends a segment where it crosses zero
    upward.  y0 holds the starts (legs, N).  on_end(i, seg) gets leg i's
    ended Segment and returns None to end the leg, or (y, kind) to go on from
    y (a float sequence) at seg.ts[-1]; a failed leg ends after on_end(i,
    StiffnessError).  The segments that end in a round get their dense output
    in one pass per kind, each leg's kind read before the round's first
    on_end, and a leg ends at most one segment a round.  The error scale is
    tol/100 + |y| tol.  Raises ValueError for a non-finite y0, and for a tol
    that is not finite or is below 100 * EPS.
    """
    Y = np.array(y0, dtype=float)
    if not np.isfinite(Y).all():
        raise ValueError("All components of the initial state `y0` must be finite.")
    if not 100 * EPS <= tol < math.inf:  # NaN fails both
        raise ValueError(f"`tol` must be finite and at least 100 EPS = {100 * EPS}, not {tol}")
    atol = tol * 1e-2
    legs, N = Y.shape
    kinds, t_bound = np.array(kinds), np.array(t_bound, dtype=float)
    sizes = np.array([system[3] for system in systems])
    width = max(system[2] for system in systems)
    t, h_abs, d = np.zeros(legs), np.zeros(legs), np.sign(t_bound)
    F, G = np.zeros((legs, N)), np.zeros((legs, width))
    rejected, retry, done = (np.zeros(legs, dtype) for dtype in (int, bool, bool))
    runs = [None] * legs  # per leg, the times and steps of its segment so far
    fresh = list(range(legs))

    def end(i, result):
        nxt = on_end(i, result)
        if nxt is None or isinstance(result, StiffnessError):
            done[i] = True
        else:
            y, kinds[i] = nxt
            Y[i], t[i] = np.pad(y, (0, N - len(y))), result.ts[-1]
            fresh.append(i)

    while True:
        if fresh:
            # the first step of each new segment (section II.4)
            new = np.array(fresh)
            fresh.clear()
            y, n, groups = Y[new], sizes[kinds[new]], _by_kind(systems, kinds[new])
            f = _evaluate(groups, y, np.zeros(y.shape))
            scale = atol + np.abs(y) * tol
            d0, d1 = _rms(y / scale, n).tolist(), _rms(f / scale, n)
            interval = np.abs(t_bound[new] - t[new]).tolist()
            h0 = np.array([min(1e-6 if a < 1e-5 or b < 1e-5 else 0.01 * a / b, c)
                           for a, b, c in zip(d0, d1.tolist(), interval)])
            f1 = _evaluate(groups, y + (h0 * d[new])[:, None] * f, np.zeros(y.shape))
            d2 = _rms((f1 - f) / scale, n) / h0
            for i, a, b, c, h in zip(new.tolist(), d1.tolist(), d2.tolist(), interval, h0.tolist()):
                h1 = (max(1e-6, h * 1e-3) if a <= 1e-15 and b <= 1e-15
                      else (0.01 / max(a, b)) ** (1 / 8))
                h_abs[i] = min(100 * h, h1, c)
                runs[i] = ([t[i]], [])
            F[new], G[new] = f, _events(groups, y, width)
            retry[new], rejected[new] = False, 0

        act = np.flatnonzero(~done)
        if not act.size:
            return
        ta, da, ha = t[act], d[act], h_abs[act]
        min_step = 10 * np.abs(np.nextafter(ta, da * np.inf) - ta)
        ha = np.where(~retry[act] & (ha < min_step), min_step, ha)
        bad = ~(ha >= min_step)
        if bad.any():
            for i, hv in zip(act[bad].tolist(), ha[bad].tolist()):
                end(i, StiffnessError("step size is NaN" if math.isnan(hv) else
                                      "Required step size is less than spacing between numbers."))
            act, ta, da, ha = act[~bad], ta[~bad], da[~bad], ha[~bad]
            if not act.size:
                continue
        tn = np.where(da * (ta + ha * da - t_bound[act]) > 0, t_bound[act], ta + ha * da)
        h = tn - ta
        ha, hc = np.abs(h), h[:, None]
        y, ka, groups = Y[act], kinds[act], _by_kind(systems, kinds[act])
        K = np.zeros((_STAGES + 1, act.size, N))
        K[0] = F[act]
        for s in range(1, _STAGES):
            _evaluate(groups, ordered_sum(K[:s] * _ROWS[s], axis=0) * hc + y, K[s])
        y_new = ordered_sum(K[:_STAGES] * B[:, None, None], axis=0) * hc + y
        _evaluate(groups, y_new, K[_STAGES])
        scale = atol + np.maximum(np.abs(y), np.abs(y_new)) * tol
        e5, e3 = ordered_sum(K[:_STAGES, None] * _ERR, axis=0) / scale
        e5, e3 = ordered_sum(e5 * e5), ordered_sum(e3 * e3)
        with np.errstate(divide="ignore", invalid="ignore"):
            err = np.where((e5 == 0) & (e3 == 0), 0.0,
                           ha * e5 / np.sqrt((e5 + 0.01 * e3) * sizes[ka]))
        for i, e, hv, again in zip(act.tolist(), err.tolist(), ha.tolist(), retry[act].tolist()):
            if e < 1:
                factor = min(10, 0.9 * e**_EXPONENT) if e else 10
                h_abs[i] = hv * (min(1, factor) if again else factor)
            else:
                h_abs[i] = hv * max(0.2, 0.9 * e**_EXPONENT)
        accept = err < 1
        retry[act] = ~accept
        rejected[act] += ~accept
        if not accept.any():
            continue
        if not accept.all():
            K, groups = K[:, accept], _by_kind(systems, ka[accept])
            y, y_new, h, ta, tn, act = (a[accept] for a in (y, y_new, h, ta, tn, act))
        g_new = _events(groups, y_new, width)
        hit = (G[act] <= 0) & (g_new >= 0)
        t[act], Y[act], F[act], G[act] = tn, y_new, K[_STAGES], g_new
        crossed, reached = hit.any(axis=1).tolist(), (d[act] * (tn - t_bound[act]) >= 0).tolist()
        ending = []  # (j, leg, kind) of each segment that ends, the kind read before any end
        for j, (i, hj) in enumerate(zip(act.tolist(), h.tolist())):
            ts, steps = runs[i]
            steps.append((hj, y[j], y_new[j], K[:, j]))  # views of the round's arrays
            ts.append(tn[j])
            if crossed[j] or reached[j]:
                ending.append((j, i, int(kinds[i])))
        dense = {}  # one pass per kind, over the segments of that kind that end in the round
        for k in {k for *_, k in ending}:
            mine = [i for _, i, kind in ending if kind == k]
            dense.update(zip(mine, _dense(systems[k], [runs[i][1] for i in mine])))
        for j, i, k in ending:
            (ts, steps), seg, event = runs[i], dense[i], None
            if crossed[j]:
                # the earliest root in the direction of integration, the lower index on a tie
                _, events, _, size = systems[k]
                try:
                    key, event = min((d[i] * _locate(lambda x, e=e: events(x)[:, e], size, ta[j],
                                                     tn[j], seg[1][-1], seg[2][-1]), e)
                                     for e in np.flatnonzero(hit[j]).tolist())
                except StiffnessError as exc:
                    end(i, exc)
                    continue
                ts[-1] = d[i] * key
                if len(ts) > 2 and ts[-2] == ts[-1]:  # the root is the previous step's end
                    ts.pop()
                    seg = tuple(a[:-1] for a in seg)
            r = int(rejected[i])  # its evaluations by the cost rule, a dropped step's included
            end(i, Segment(ts, seg, 2 + 15 * len(steps) + 12 * r, r, event))


def _locate(ev, size: int, t_old: float, t_new: float, y_old: np.ndarray, F: np.ndarray) -> float:
    """The time in the step from t_old to t_new where ev crosses zero on the
    step's interpolant: regula falsi, where an end that two iterations in a
    row keep has its value halved (the Illinois rule), until the bracket is
    at most 4 * EPS * (1 + |t|) wide."""
    h = t_new - t_old

    def value(t):
        v = float(ev(_interpolate((t - t_old) / h, y_old, F)[None, :size])[0])
        if math.isnan(v):
            raise StiffnessError(f"event value is NaN at t = {t}")
        return v

    a, b = float(t_old), float(t_new)
    ga, gb = value(a), value(b)
    if ga == 0 or gb == 0:
        return a if ga == 0 else b
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
