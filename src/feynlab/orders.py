"""Convolution product criteria.

A product estimate H^(w1) * H^(w2) -> H^(w) holds when one of the two Schur
quantities

    M+ = sup_xi  integral (w(xi) / (w1(eta) w2(xi - eta)))^2 d eta
    M- = sup_eta integral (w(xi) / (w1(eta) w2(xi - eta)))^2 d xi

is finite.  ``product_integral`` measures both on truncated lattices and
fits a growth exponent across dyadic cutoffs (near zero signals finiteness).
Each named product rule is one ``_RULES`` entry: parameter names,
hypotheses, flat-model weights, sweep dims, swept thresholds and straddle
points.  ``product_rule_predict`` evaluates the hypotheses;
``rule_flat_model`` realizes the weights on flat frequency space;
``sweep_plan`` lists the straddle points and raises ValueError for an
unknown rule or a requested rule with no row in the requested dims (the
``product-check`` exit 2); ``rule_sweep`` compares predicate against
measurement at each point.
"""

from __future__ import annotations

import math
import os
import threading
from collections.abc import Callable
from dataclasses import dataclass

import numpy as np

from .errors import DimensionError, ResolutionError
from .weights import ConeWeight, IsoWeight, SplitWeight, SumWeight, WeightFunction

# Verdict threshold on the fitted growth exponent: at or below counts as a
# finite (bounded) Schur quantity.
GROWTH_THRESHOLD = 0.1


# ---------------------------------------------------------------------------
# Numerical Schur quantities on truncated lattices


@dataclass(frozen=True)
class ProductIntegralResult:
    """Lattice estimates of the two Schur quantities and their growth fit.

    ``cutoffs`` lists the dyadic lattice radii, largest last, and the level
    tuples the estimates at each, so the last entries are the estimates at
    the largest cutoff.  The growth exponent is the smaller of the two
    log-log slopes, since a single finite quantity suffices for the product
    estimate.  Each slope is an end-point slope on dyadic radii, exactly
    their least-squares fit; with fewer than three levels there is no fit,
    the exponent is NaN and ``finite`` is False.
    """

    growth_exponent: float
    cutoffs: tuple
    M_plus_levels: tuple
    M_minus_levels: tuple
    step: float
    sup_samples: tuple  # the declared sup sample points, shared by all levels

    @property
    def finite(self) -> bool:
        return bool(self.growth_exponent <= GROWTH_THRESHOLD)


def _midpoint_lattice(dim: int, cutoff: float, step: float) -> tuple[np.ndarray, float]:
    """Axis and cell volume of a uniform midpoint lattice on [-cutoff, cutoff]^dim,
    the dim-fold product of the axis.  Point k of N sits at (k + (1 - N)/2) h
    with h = 2 cutoff / N, so the axis is symmetric bit for bit, and where
    2^(j+1) divides N the axis of cutoff/2^j is its centred window, bit for bit."""
    count = round(2.0 * cutoff / step)
    h = 2.0 * cutoff / count
    return (np.arange(count) + (1 - count) / 2) * h, h**dim


def _sup_samples(dim: int, cutoff: float, seed: int) -> np.ndarray:
    """Declared sample set for the sup: axis and diagonal ladders plus a
    seeded batch of random directions, all scaled to the cutoff.  The flat
    models' cones sit on +e0, so the axis ladder covers their axes.

    The ladder is dyadic so that the sample sets of dyadic cutoffs nest,
    which keeps the level sequence of sup estimates monotone.
    """
    ladder = 2.0 ** -np.arange(6)
    dirs = [(np.arange(dim) == i).astype(float) for i in range(dim)]
    dirs += [-dirs[0]]
    dirs += [np.full(dim, 1.0 / math.sqrt(dim))]
    rng = np.random.default_rng(seed)
    rnd = rng.standard_normal((4, dim))
    rnd /= np.linalg.norm(rnd, axis=1, keepdims=True)
    dirs += list(rnd)
    pts = [np.zeros(dim)]
    seen = {tuple(np.zeros(dim))}
    for d in dirs:
        for lam in ladder:
            p = np.round(d * lam * cutoff, 9)
            key = tuple(p)
            if key not in seen:
                seen.add(key)
                pts.append(p)
    return np.array(pts).T  # (dim, S)


# Lattice points per row block of the w and 1/w1 evaluations (see
# product_integral for what the blocks bound).
_BLOCK = 2**16

# The one thread pool every product_integral call submits to, made on first
# use; calls from several library threads share its workers.
_POOL = None
_POOL_LOCK = threading.Lock()


def _forget_pool() -> None:
    global _POOL, _POOL_LOCK
    _POOL, _POOL_LOCK = None, threading.Lock()


if hasattr(os, "register_at_fork"):
    os.register_at_fork(after_in_child=_forget_pool)  # a forked child has no pool threads


def _usable_cpus() -> int:
    """The CPUs this process may run on: its affinity set where the OS has one."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _shared_pool():
    """The module's pool, with one worker per CPU usable when it is made."""
    global _POOL
    with _POOL_LOCK:
        if _POOL is None:
            # imported on use, so importing feynlab stays off it
            from concurrent.futures import ThreadPoolExecutor

            _POOL = ThreadPoolExecutor(_usable_cpus(), thread_name_prefix="schur")
        return _POOL


def _run_tasks(task, items) -> None:
    """``task(item)`` for each item on the shared pool, under this thread's
    numpy error state (pool threads do not inherit it).  Returns once every
    task has run; on an exception or interrupt it cancels the tasks not
    started, waits for the running ones and raises it here."""
    from concurrent.futures import wait

    err = np.geterr()

    def under_caller_errstate(item):
        with np.errstate(**err):
            task(item)

    pool = _shared_pool()
    futures = [pool.submit(under_caller_errstate, item) for item in items]
    try:
        for future in futures:
            future.result()
    except BaseException:
        for future in futures:
            future.cancel()
        wait(futures)
        raise


def _schur_sums(w, w1, w2, dim, radii, step, seed):
    """Each probe's M+ and M- sum on the lattice of each radius, one row per
    level, and each level's probes; product_integral says what is shared."""
    axis, cell = _midpoint_lattice(dim, radii[-1], step)
    top = axis.size
    sizes = [top >> (len(radii) - 1 - i) for i in range(len(radii))]
    wins = [slice((top - n) // 2, (top + n) // 2) for n in sizes]  # centred windows
    arrays = np.empty((2,) + (top,) * dim)  # w and 1/w1 on the top lattice
    rows = max(_BLOCK // top ** (dim - 1), 1)  # a row has N^(dim-1) points
    samples = [_sup_samples(dim, r, seed) for r in radii]
    w_samp = [np.asarray(w(s), dtype=float) for s in samples]
    w1_samp = [np.asarray(w1(s), dtype=float) for s in samples]
    row_p, row_m = ([np.empty(s.shape[1]) for s in samples] for _ in range(2))
    # the (level, probe) pairs by point up to reflection; walking the levels
    # down puts each group's largest first
    groups = {}
    for i in reversed(range(len(radii))):
        for j, p in enumerate(samples[i].T):
            groups.setdefault(tuple(np.abs(p)), []).append((i, j))

    def block(lo):
        pts = np.meshgrid(axis[lo : lo + rows], *[axis] * (dim - 1), indexing="ij", sparse=True)
        arrays[0][lo : lo + rows] = w(pts)
        arrays[1][lo : lo + rows] = 1.0 / w1(pts)

    def probe(members):
        g, h = members[0]
        s0 = samples[g][:, h]
        w2_g = w2(np.meshgrid(*(s0[:, None] - axis[wins[g]]), indexing="ij", sparse=True))
        buf = np.empty(w2_g.size)
        for i, j in members:
            n, s = sizes[i], samples[i][:, j]
            lo = wins[i].start - wins[g].start
            flips = tuple(k for k in range(dim) if s[k] != s0[k])
            w2_lat = np.flip(w2_g[(slice(lo, lo + n),) * dim], flips)
            wlat, inv1 = (a[(wins[i],) * dim] for a in arrays)
            out = buf[: n**dim].reshape((n,) * dim)
            np.divide(np.multiply(w_samp[i][j], inv1, out=out), w2_lat, out=out)
            row_p[i][j] = cell * float(np.sum(np.multiply(out, out, out=out)))
            np.divide(wlat, w2_lat, out=out)
            row_m[i][j] = cell * float(np.sum(np.multiply(out, out, out=out))) / w1_samp[i][j] ** 2

    _run_tasks(block, range(0, top, rows))
    _run_tasks(probe, groups.values())
    return row_p, row_m, samples


def product_integral(
    w: WeightFunction,
    w1: WeightFunction,
    w2: WeightFunction,
    dim: int,
    cutoff: float,
    step: float = 0.5,
    levels: int = 5,
    seed: int = 0,
) -> ProductIntegralResult:
    """Measure the Schur quantities M+ and M- on truncated lattices.

    Midpoint quadrature over the lattice [-R, R]^dim with the sup taken over
    a declared sample set (axis and diagonal ladders, the origin, and a
    seeded random batch).  The
    computation is repeated on dyadic radii R = cutoff/2^j, j < levels, with
    the sample construction deterministic so each sample index is a probe
    whose point scales with the level radius.  The growth exponent of a
    quantity is the log-log slope of the top (up to three) dyadic increments
    of each probe's level sequence, for the worst significant probe: the
    end-point slope, which on log-radii ln 2 apart is exactly the
    least-squares fit.  Differencing cancels any limit constant, so a
    bounded quantity shows its (negative) tail exponent and an unbounded one
    its growth rate, and a growing branch cannot hide behind a larger
    saturating one the way it can in a direct fit of the max.  The reported
    exponent is the smaller of the two quantities' exponents, since one
    finite quantity suffices for the product estimate.

    Each probe ``s`` needs ``w2(s - pts)`` for M+ and ``w2(pts - s)`` for
    M-.  ``w2`` must be an even weight, an :class:`IsoWeight` or a
    :class:`SplitWeight` (every ``w2`` of ``rule_flat_model`` is one); both
    read their argument only through squared coordinates.  IEEE subtraction
    gives ``pts - s == -(s - pts)`` bit for bit, so one array serves both
    sums.  Any other ``w2`` raises ``ValueError``.

    The lattice is the dim-fold product of one axis, point k of N at
    ``(k + (1 - N)/2) h`` with ``N = round(2 cutoff / step)`` and ``h = 2
    cutoff / N``.  Level j below the top takes the centred ``N / 2^j``
    points, which is, bit for bit, the lattice of its radius at the same
    ``h``; so N must be a multiple of ``2^levels`` (the smallest level's
    count even), and a lattice that cannot nest raises ``ResolutionError``
    naming N and ``2^levels``.  ``levels = 1`` takes any N.  Every weight
    gets per-axis coordinates (see :mod:`feynlab.weights`): ``w`` and
    ``w1`` the sparse mesh of the axis, ``w2`` the offsets ``s_k - axis``;
    no ``(dim, N^dim)`` point stack is built.

    Each weight is evaluated once per lattice point it is needed at, and
    every sum has the bits of fresh evaluations per level and probe:

    - ``w`` and ``1/w1`` are made on the top lattice, and each level reads
      its centred window of them;
    - ``w2`` is evaluated once per probe point up to reflection: the axis is
      symmetric bit for bit, so ``-s - axis == -(s - axis[::-1])``.  Ladder
      point lam at radius r/2 is ladder point lam/2 at r, as the two differ
      by powers of two.  The array is made on the largest level whose probes
      hold the point; the others take centred windows of it, flipped along
      each axis where their point's sign differs;
    - each sum runs in one contiguous buffer of its level's shape, holding
      the values of the fresh expression's temporaries, so ``np.sum`` adds
      them in the same order.

    The weight arrays are made in row blocks of about ``_BLOCK`` points
    (2^16), then the probe groups run, on one thread pool that all calls
    in the process share, made on first use with one worker per CPU the
    process may use (its affinity set, else ``os.cpu_count()``).  numpy
    releases the GIL in its loops, so tasks overlap.  The bits do not
    depend on the worker count: the weights are elementwise, so a block
    holds the same values the whole lattice would, and each sum is stored
    by level and probe index.  Each task runs under the caller's numpy
    error state; an exception in one cancels the tasks not started.  Peak
    memory is each running call's ``w`` and ``1/w1`` arrays of the top
    level plus, per worker, one block's weight temporaries, or one group's
    ``w2`` array, its buffer and the temporaries of one ``w2`` evaluation.

    Once every level is summed, the levels are checked from the smallest
    radius up: a sum that is not finite, which the growth fit cannot read,
    raises ``ValueError`` naming the first such radius.
    """
    if not math.isfinite(step):
        raise ResolutionError(f"quadrature step must be finite, got {step}")
    if step >= 1.0:
        raise ResolutionError(f"quadrature step must be < 1, got {step}")
    if step <= 0.0:
        raise ResolutionError("quadrature step must be positive")
    if not 0.0 < cutoff < math.inf:  # NaN fails both
        raise ValueError(f"cutoff must be finite and positive, got {cutoff}")
    if levels < 1:
        raise ValueError("need at least one dyadic level")
    if not isinstance(w2, (IsoWeight, SplitWeight)):
        raise ValueError(f"w2 must be even (IsoWeight, SplitWeight): {type(w2).__name__}")
    for ww in (w, w1, w2):
        if ww.dim != dim:
            raise DimensionError(
                f"weight dimension {ww.dim} does not match ambient {dim}"
            )
    if cutoff / 2 ** (levels - 1) < 8.0 * step:
        raise ResolutionError(
            "smallest dyadic cutoff under 8 steps; lower `levels` or `step`"
        )
    count = round(2.0 * cutoff / step)
    if levels > 1 and count % 2**levels:
        raise ResolutionError(f"{count} lattice points an axis do not nest over {levels} "
                              f"dyadic levels: need a multiple of 2^levels = {2**levels}")
    radii = [cutoff / 2**j for j in range(levels)][::-1]
    vals_p, vals_m, samples = _schur_sums(w, w1, w2, dim, radii, step, seed)
    for r, row_p, row_m in zip(radii, vals_p, vals_m):
        if not (np.isfinite(row_p).all() and np.isfinite(row_m).all()):
            raise ValueError(f"Schur sums not finite on the lattice of radius {r}: "
                             f"M+ {row_p.max()}, M- {row_m.max()}")
    vals_p = np.array(vals_p)  # (levels, probes)
    vals_m = np.array(vals_m)
    mp_levels = vals_p.max(axis=1)
    mm_levels = vals_m.max(axis=1)

    # Exponent probes: a probe whose point sits deep inside the lattice is
    # still climbing out of the <xi> ~ 1 core and carries a pure point-motion
    # transient, so only the origin and the top three ladder octaves are
    # eligible; a probe counts as a growth witness only while its recent
    # increments are genuinely positive.
    norms = np.sqrt(np.sum(samples[-1] ** 2, axis=0))
    eligible = (norms < 1e-9) | (norms >= cutoff / 8.0 - 1e-9)

    def _probe_exponent(vals):
        inc = np.diff(vals, axis=0)
        top = min(3, inc.shape[0])
        floor = 1e-12 * max(float(vals[-1].max()), 1e-300)
        live = (
            eligible
            & (vals[-1] >= 1e-9 * float(vals[-1].max()))
            & np.all(inc[-top:] > floor, axis=0)
        )
        if not np.any(live):
            return -10.0
        logs = np.log(inc[-top:, live])
        return float(np.max((logs[-1] - logs[0]) / ((top - 1) * math.log(2.0))))

    if levels >= 3:
        ep = _probe_exponent(vals_p)
        em = _probe_exponent(vals_m)
    else:
        ep = em = float("nan")
    return ProductIntegralResult(
        growth_exponent=min(ep, em),
        cutoffs=tuple(radii),
        M_plus_levels=tuple(float(v) for v in mp_levels),
        M_minus_levels=tuple(float(v) for v in mm_levels),
        step=step,
        sup_samples=tuple(map(tuple, samples[-1].T)),
    )


# ---------------------------------------------------------------------------
# Symbolic product rules, their flat models and the straddle sweep
#
# One ``_Rule`` per product rule.  Its hypotheses are (label, inequality
# text, margin, strict) checks: a nonnegative margin satisfies a non-strict
# inequality; a strict one needs margin > 0.  Its sweep straddles the
# thresholds whose crossing is visible in the flat model's scaling (crossing
# by delta makes the Schur quantity grow like R^(2 delta)).  Hypotheses
# invisible to the model (for instance s0 > 0 in the cone product, whose
# violation leaves the model integrals finite) are not swept; they are
# sufficient-condition side constraints.

# Nested cone angles on the direction sphere: the sup cone K sits strictly
# inside the regularity cone C so that off-C frequencies are comparable to
# the transfer xi - eta on K.
_K_ANGLES = (0.15, 0.4)
_C_ANGLES = (0.45, 0.75)
_OFF_CONE_FLOOR = 0.05  # small positive exponent off the cone, per the models
_PIN = 0.35  # margin kept by the thresholds a sweep point does not straddle


def _cone_point(n, threshold, offset):
    if threshold == "sum":
        # s0 just under n/2 keeps the off-cone mechanism's coefficient
        # large; r - s = n/2 - s0 + offset stays >= 0 on both sides
        s0 = n / 2.0 - 0.15
        s = s0 + _PIN
        r = n / 2.0 + s - s0 + offset
    else:  # order_rs
        s0 = n / 2.0 + _PIN - offset  # keeps the sum margin at _PIN
        s = s0 + 0.3
        r = s + offset
    return {"n": n, "r": r, "s": s, "s0": s0}


def _split_point(n, threshold, offset):
    # ma_joint crosses m and a together; the transverse threshold alone is
    # not scaling-visible with the isotropic factor pinned away
    d = 1
    a_offset = offset if threshold == "ma_joint" else _PIN
    return {"n": n, "d": d, "m": d / 2.0 + offset, "a": (n - d) / 2.0 + a_offset}


def _split_cone_point(n, threshold, offset):
    # the split-algebra point; order_rs pins both split margins at _PIN
    rs = threshold == "order_rs"
    q = _split_point(n, "m", _PIN) if rs else _split_point(n, threshold, offset)
    s = q["m"] + q["a"] + 0.05
    r = s + (offset if rs else 0.0)
    return {"n": n, "d": q["d"], "r": r, "s": s, "m": q["m"], "a": q["a"]}


def _low_reg_point(n, threshold, offset):
    if threshold == "sum":
        # The orders s >= s0 >= s' force s - s' + s0 >= s0, so the sum
        # threshold is approached through s0 near n/2: on the good side a
        # degenerate dip just above n/2, on the bad side all three just
        # below n/2, failing only the sum.
        if offset >= 0:
            s0 = n / 2.0 + offset / 2.0
            sp = s0
            s = n / 2.0 + offset
        else:
            s0 = n / 2.0 + 1.5 * offset
            sp = s0 + offset / 2.0
            s = n / 2.0 + offset + sp - s0
    else:  # order_s0sp
        s0 = n / 2.0 + 0.15  # ambient block stays finite
        sp = s0 - offset
        s = n / 2.0 + sp - s0 + _PIN  # keeps the sum margin at _PIN
    return {"n": n, "s": s, "s_prime": sp, "s0": s0}


def _split_low_reg_point(n, threshold, offset):
    d = 1
    g = 0.05
    if threshold == "order_m0mp":
        a = (n - d) / 2.0 + _PIN
        m = d / 2.0 + 0.4
        m0 = m - _PIN
        mp = m0 - offset  # sum margin stays at 0.4 + offset
    else:
        # m - m' + m0 - d/2 = m + g - d/2 once m0 = m, m' = m0 - g, so the
        # sum margin equals the offset with the orders intact; msum_a_joint
        # crosses the transverse threshold with it, which alone is not
        # scaling-visible (every factor carries the same a)
        a = (n - d) / 2.0 + (offset if threshold == "msum_a_joint" else _PIN)
        m = d / 2.0 + offset - g
        m0 = m
        mp = m0 - g
    return {"n": n, "d": d, "m": m, "m_prime": mp, "m0": m0, "a": a}


@dataclass(frozen=True)
class _Rule:
    params: tuple  # parameter names
    hypotheses: Callable  # (**params) -> checks
    flat_model: Callable  # (dim, **params) -> (w, w1, w2)
    dims: tuple  # lattice dims of the sweep
    thresholds: tuple  # straddled thresholds
    straddle: Callable  # (n, threshold, offset) -> params


_RULES = {
    "cone-product": _Rule(
        ("n", "r", "s", "s0"),
        lambda n, r, s, s0: (
            ("order_rs", "r >= s", r - s, False),
            ("order_ss0", "s >= s0", s - s0, False),
            ("positivity", "s0 > 0", s0, True),
            ("sum", "r - s + s0 > n/2", r - s + s0 - n / 2.0, True),
        ),
        lambda dim, r, s, s0, **_: (
            ConeWeight(dim, s0, s, *_K_ANGLES),
            ConeWeight(dim, s0, s, *_C_ANGLES),
            IsoWeight(dim, r),
        ),
        (1, 2), ("sum", "order_rs"), _cone_point,
    ),
    "split-algebra": _Rule(
        ("n", "d", "m", "a"),
        lambda n, d, m, a: (
            ("m", "m > d/2", m - d / 2.0, True),
            ("a", "a > (n-d)/2", a - (n - d) / 2.0, True),
        ),
        lambda dim, d, m, a, **_: (SplitWeight(dim, d, m, a),) * 3,
        (2,), ("m", "ma_joint"), _split_point,
    ),
    "split-cone-product": _Rule(
        ("n", "d", "r", "s", "m", "a"),
        lambda n, d, r, s, m, a: (
            ("m", "m > d/2", m - d / 2.0, True),
            ("a", "a > (n-d)/2", a - (n - d) / 2.0, True),
            ("order_rs", "r >= s", r - s, False),
            ("floor", "s >= m + a", s - m - a, False),
        ),
        lambda dim, d, r, s, m, a, **_: (
            ConeWeight(dim, _OFF_CONE_FLOOR, s, *_K_ANGLES),
            SumWeight(
                (SplitWeight(dim, d, m, a), ConeWeight(dim, _OFF_CONE_FLOOR, s, *_C_ANGLES))
            ),
            IsoWeight(dim, r),
        ),
        (2,), ("m", "ma_joint", "order_rs"), _split_cone_point,
    ),
    "low-reg-cone-product": _Rule(
        ("n", "s", "s_prime", "s0"),
        lambda n, s, s_prime, s0: (
            ("order_ss0", "s >= s0", s - s0, False),
            ("order_s0sp", "s0 >= s'", s0 - s_prime, False),
            ("sum", "s - s' + s0 > n/2", s - s_prime + s0 - n / 2.0, True),
        ),
        lambda dim, s, s_prime, s0, **_: (
            ConeWeight(dim, s0, s_prime, *_K_ANGLES),
            ConeWeight(dim, s0, s, *_C_ANGLES),
            IsoWeight(dim, s0),
        ),
        (1, 2), ("sum", "order_s0sp"), _low_reg_point,
    ),
    "split-low-reg-product": _Rule(
        ("n", "d", "m", "m_prime", "m0", "a"),
        lambda n, d, m, m_prime, m0, a: (
            ("msum", "m - m' + m0 > d/2", m - m_prime + m0 - d / 2.0, True),
            ("a", "a > (n-d)/2", a - (n - d) / 2.0, True),
            ("order_mm0", "m >= m0", m - m0, False),
            ("order_m0mp", "m0 >= m'", m0 - m_prime, False),
        ),
        lambda dim, d, m, m_prime, m0, a, **_: (
            SplitWeight(dim, d, m_prime, a),
            SplitWeight(dim, d, m, a),
            SplitWeight(dim, d, m0, a),
        ),
        (2,), ("msum", "msum_a_joint", "order_m0mp"), _split_low_reg_point,
    ),
}

PRODUCT_RULES = tuple(_RULES)


def _rule(rule: str) -> _Rule:
    if rule not in _RULES:
        raise ValueError(f"unknown product rule {rule!r}; known: {PRODUCT_RULES}")
    return _RULES[rule]


def product_rule_predict(rule: str, params: dict) -> dict:
    """Evaluate the hypotheses of a named product rule with exact margins.

    Returns the conjunction verdict, the per-inequality margins, and the
    hypothesis texts.
    """
    entry = _rule(rule)
    missing = [k for k in entry.params if k not in params]
    if missing:
        raise ValueError(f"rule {rule!r} missing parameters {missing}")
    checks = entry.hypotheses(**{k: params[k] for k in entry.params})
    return {
        "rule": rule,
        "holds": all(
            (margin > 0 if strict else margin >= 0) for _, _, margin, strict in checks
        ),
        "margins": {label: margin for label, _, margin, _ in checks},
        "hypotheses": tuple(text for _, text, _, _ in checks),
    }


def rule_flat_model(rule: str, params: dict, dim: int):
    """Weights (w, w1, w2) realizing a product rule on flat frequency space.

    The ambient dimension of the lattice model is ``dim`` (the rule's own
    ``n`` parameter should equal it); split-type rules need ``dim > d`` and
    therefore have no one-dimensional realization.
    """
    return _rule(rule).flat_model(dim, **params)


def sweep_plan(dims=None, rules=None) -> list[tuple[str, int, str]]:
    """The declared (rule, dim, threshold) triples of the straddle sweep, in
    table order, restricted to ``dims`` and ``rules`` when given.

    Raises ValueError for an unknown rule and for a requested rule with no
    row in the requested dims, so no requested rule is dropped unnoticed.
    """
    unknown = sorted(set(rules or ()) - set(_RULES))
    if unknown:
        raise ValueError(f"unknown product rules {unknown}; known: {list(_RULES)}")
    plan = []
    for rule, entry in _RULES.items():
        if rules is not None and rule not in rules:
            continue
        swept = [dim for dim in entry.dims if dims is None or dim in dims]
        if rules is not None and not swept:
            raise ValueError(
                f"product rule {rule!r} has no row in dims {sorted(set(dims))}; "
                f"it sweeps dims {list(entry.dims)}"
            )
        plan += [(rule, dim, th) for dim in swept for th in entry.thresholds]
    return plan


def rule_sweep(
    margin: float = 0.1, repeats: int = 1, seed: int = 7, dims=None, rules=None
) -> list[dict]:
    """Seeded straddle sweep comparing rule predicates with measurements.

    Each (rule, dim, threshold) of sweep_plan(dims, rules), whose ValueError
    it raises, is sampled at offsets +-margin (with small seeded jitter on
    repeats beyond the first), the other thresholds pinned 0.35 inside; the
    predicate is the full hypothesis conjunction and the measurement is the
    growth-exponent verdict of the flat model, on a step-0.5 lattice cut off
    at 4096 in 1-D and 192 in 2-D.  Returns one row per point with the margin
    data and the agreement flag; the row keys, in order, are the columns of
    the product-check CSV.
    """
    rng = np.random.default_rng(seed)
    rows = []
    for rule, dim, threshold in sweep_plan(dims, rules):
        cutoff = 4096.0 if dim == 1 else 192.0
        for rep in range(repeats):
            jitter = 0.0 if rep == 0 else float(rng.uniform(-0.02, 0.02))
            for sign in (+1.0, -1.0):
                offset = sign * margin + jitter
                params = _RULES[rule].straddle(dim, threshold, offset)
                pred = product_rule_predict(rule, params)
                w, w1, w2 = rule_flat_model(rule, params, dim)
                res = product_integral(
                    w, w1, w2, dim, cutoff, step=0.5, levels=5, seed=seed
                )
                rows.append(
                    {
                        "rule": rule,
                        "dim": dim,
                        "threshold": threshold,
                        "offset": offset,
                        "params": {k: float(v) for k, v in params.items()},
                        "predicted": pred["holds"],
                        "growth_exponent": res.growth_exponent,
                        "measured_finite": res.finite,
                        "agree": pred["holds"] == res.finite,
                    }
                )
    return rows
