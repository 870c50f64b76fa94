"""Picard iteration for the semilinear wave problem on the periodic grid.

Solves Box u + lam * u^p = f through the fixed-point map
u -> propagate(f - lam * u^p), with the power evaluated pseudo-spectrally on
a 3/2-rule zero-padded grid.  Dealiasing is not optional: the product
estimates under study are exactly about how powers spread frequency content,
and aliased energy would fold back onto the characteristic set.

One kernel, ``_band_product``, forms every product on the fine grid: it
multiplies fine-grid factors in one buffer, projects the running product
onto the band before each factor after the second, and gathers the band of
the result.  It works on unshifted spectra (``_fine_grid``), where the band
of each axis is its first and last N/2 slots, so a band moves between the
grids as 2^dim block copies.  ``dealiased_product`` passes two embedded
factors (6 transforms); ``dealiased_power`` and the Picard step pass one
embedded factor p times (2p transforms), which equals the fold of pairwise
products in exact arithmetic and agrees with it to rounding.  The coupling
series keeps the pairwise products, term by term.

Every fine-grid transform is pruned (Markel 1971): ``_from_band`` runs an
inverse pass only on the lines that can be nonzero, ``_to_band`` a forward
pass only on the lines the band reads.  numpy transforms each line on its
own, so the kept lines carry the full transform's bits.  In 2-D an inverse
from the band of an N0 x N1 grid on its M0 x M1 fine grid transforms
N0 + M1 lines, not M0 + M1, and a forward one to the band M0 + N1.

``picard_solve`` iterates on the Parseval coefficients of the iterate, with
the inverse ``propagate`` applies (``propagators._inverse``) built once per
solve: each step embeds the coefficients straight into the fine spectrum and
runs the same kernel, 2p - 2 fine-grid transforms and no coarse one.  Every
transform writes with ``out=`` (numpy >= 2.0) into a buffer it owns, so the
loop allocates no fine-grid array.

The residual is ``propagators.prescription_residual`` with the nonlinear
term passed in, so it is measured on the modes the propagator solves for:
rotation prescriptions leave out the constant mode (their multiplier
annihilates it), the shift prescriptions keep it.

Each report carries ``semilinear_weights``, the continuum weight arithmetic
of (n, p): the admissibility rule, the open weight interval, and the affine
map from a solution weight l to the weight l'' of the nonlinearity.
"""

from __future__ import annotations

import itertools
from dataclasses import asdict, dataclass

import numpy as np

from .errors import DimensionError
from .fields import SpectralField
from .propagators import Kind, Prescription, _inverse, prescription_residual, propagate


def _fine_grid(points: tuple) -> tuple:
    """The 3/2-rule fine shape, the band of the coarse modes in its unshifted
    spectrum (per axis, its low and its high half as slices), and the pad
    ratio of fine to coarse points.

    An axis of N points gets M = 3N/2 points, rounded up to even: where the
    fine grid aliases the product of two in-band modes, the alias lands
    outside the band and is dropped.  The coarse mode of frequency k (numpy
    FFT order) sits at fine slot k mod M, so the first and the last N/2
    slots of an axis hold the band on both grids, and the same slices index
    it on either.
    """
    fine = tuple(m + m % 2 for m in ((3 * N + 1) // 2 for N in points))
    band = tuple((slice(None, N // 2), slice(-(N // 2), None)) for N in points)
    return fine, band, np.prod(fine) / np.prod(points)


def _from_band(a: np.ndarray, band: tuple) -> np.ndarray:
    """``ifftn`` of `a` in place, for an `a` that vanishes outside `band`.

    The passes go in numpy's own order, last axis first, and the pass on
    axis k runs only on the lines whose axes before k are in band: the
    other lines are still zero.  Each line is transformed independently, so
    the result is ``ifftn``'s bit for bit.
    """
    for k in reversed(range(a.ndim)):
        for blk in itertools.product(*band[:k]):
            view = a[blk]
            np.fft.ifftn(view, axes=(k,), out=view)
    return a


def _to_band(a: np.ndarray, band: tuple) -> np.ndarray:
    """``fftn`` of `a` in place, on the band only.

    The passes go in numpy's own order, last axis first, and the pass on
    axis k runs only on the lines whose axes after k are in band, the only
    lines a band slot reads.  The band slots then hold ``fftn``'s bits;
    the other slots hold partial transforms, so callers read only the band.
    """
    for k in reversed(range(a.ndim)):
        for blk in itertools.product(*band[k + 1 :]):
            view = a[(slice(None),) * (k + 1) + blk]
            np.fft.fftn(view, axes=(k,), out=view)
    return a


def _gather(a: np.ndarray, band: tuple, points: tuple) -> np.ndarray:
    """The band of the fine-grid `a` as a new array on the coarse `points`."""
    out = np.empty(points, dtype=np.complex128)
    for blk in itertools.product(*band):
        out[blk] = a[blk]
    return out


def _embed(spec: np.ndarray, band: tuple, scale: float, out: np.ndarray) -> np.ndarray:
    """scale times the fine-grid field whose spectrum is the coarse `spec`
    zero-padded, written into `out`.

    With `spec` the ``fftn`` of coarse values and scale the ratio of fine to
    coarse points, this resamples the values on the fine grid.
    """
    out.fill(0.0)
    for blk in itertools.product(*band):
        out[blk] = spec[blk]
    _from_band(out, band)
    out *= scale
    return out


def _band_product(factors: tuple, band: tuple, points: tuple, work: np.ndarray) -> np.ndarray:
    """The band spectrum, on the coarse `points`, of the product of the
    fine-grid `factors` (two or more), formed in `work`.

    The running product is projected onto `band` before each factor after
    the second (a transform to the band, the out-of-band slots zeroed, a
    transform back from the band), and one transform to the band ends it.
    Projecting in place equals, in exact arithmetic, a restriction followed
    by an embedding; it skips their two coarse transforms and their scale
    factors, which cancel.  With two factors, `work` may be the first one's
    buffer.
    """
    np.multiply(factors[0], factors[1], out=work)
    for x in factors[2:]:
        _to_band(work, band)
        # the out-of-band slots of an axis lie between its two halves
        for axis, (low, high) in enumerate(band):
            work[(slice(None),) * axis + (slice(low.stop, high.start),)] = 0.0
        _from_band(work, band)
        work *= x
    return _gather(_to_band(work, band), band, points)


def dealiased_product(a: SpectralField, b: SpectralField) -> SpectralField:
    """Product via the 3/2-rule fine grid, truncated back to the band."""
    if a.grid != b.grid:
        raise DimensionError("fields on different grids")
    points = a.grid.points
    fine, band, pad = _fine_grid(points)
    w = _embed(np.fft.fftn(a.values), band, pad, np.empty(fine, dtype=np.complex128))
    x = _embed(np.fft.fftn(b.values), band, pad, np.empty_like(w))
    spec = _band_product((w, x), band, points, w)
    np.fft.ifftn(spec, out=spec)
    spec *= np.prod(points) / np.prod(fine)
    return SpectralField._own(a.grid, spec)


def dealiased_power(u: SpectralField, p: int) -> SpectralField:
    """u^p at 2p transforms, the 2p - 2 fine-grid ones pruned.

    u is embedded on the 3/2-rule fine grid once and passed to
    ``_band_product`` as p factors, which projects the running product onto
    the band before each factor after the second.  In exact arithmetic this
    is the left fold ``dealiased_product(... dealiased_product(u, u) ...,
    u)``, which costs 6(p - 1) transforms; in floating point the two agree
    to rounding, and p = 2 is ``dealiased_product(u, u)`` bit for bit.
    """
    if not isinstance(p, int) or p < 1:
        raise ValueError(f"power must be an integer >= 1, got {p}")
    if p == 1:
        return u
    points = u.grid.points
    fine, band, pad = _fine_grid(points)
    base = _embed(np.fft.fftn(u.values), band, pad, np.empty(fine, dtype=np.complex128))
    spec = _band_product((base,) * p, band, points, np.empty_like(base))
    np.fft.ifftn(spec, out=spec)
    spec *= np.prod(points) / np.prod(fine)
    return SpectralField._own(u.grid, spec)


def semilinear_weights(n: int, p: int) -> dict:
    """Weight arithmetic for the semilinear problem with power p in dimension n.

    Returns the admissibility boolean of the power/dimension rule
    ``2/(p-1) < (n-2)/2``, the open weight interval
    ``(2/(p-1) - (n-2)/2, 0)``, and the coefficients of the affine map

        l'' = -2 + (p-1)(n-2)/2 + p*l

    giving the weight of the substituted nonlinearity (``l'' >= l`` holds for
    every l in the interval).  The cubic fallback for (n, p) = (4, 3) is
    reported separately: it admits weights l >= 0, taken small, capped by the
    invertibility bound (n-2)/2.

    The solver order must exceed the contraction argument's order floor
    ``1/2 + (p-2)*mu``, reported at the slack mu = 0 of constant orders and
    flagged provisional because its source fixes mu only implicitly.
    """
    if not isinstance(p, int) or p < 2:
        raise ValueError(f"power p must be an integer >= 2, got {p}")
    if n < 3:
        raise DimensionError("need ambient dimension n >= 3")
    lo = 2.0 / (p - 1) - (n - 2) / 2.0
    admissible = lo < 0.0
    intercept = -2.0 + (p - 1) * (n - 2) / 2.0
    cubic = p == 3 and n == 4
    return {
        "n": n,
        "p": p,
        "admissible": admissible,
        "l_interval": (lo, 0.0),
        "l_map_coeffs": (intercept, float(p)),
        "order_floor": 0.5,
        "mu": 0.0,
        "mu_provisional": True,
        "cubic_admissible": cubic,
        "cubic_l_interval": (0.0, (n - 2) / 2.0) if cubic else None,
    }


@dataclass(frozen=True)
class SemilinearProblem:
    """Box u + lam u^p = f with a chosen propagator prescription.

    The continuum admissibility verdict for (n, p) is attached when it
    applies (the weight arithmetic needs ambient dimension >= 3).
    """

    f: SpectralField
    p: int
    lam: float
    prescription: Prescription = Prescription(Kind.FEYNMAN)

    def __post_init__(self) -> None:
        if not isinstance(self.p, int) or self.p < 2:
            raise ValueError(f"power p must be an integer >= 2, got {self.p}")
        if not np.isfinite(self.lam):
            raise ValueError("coupling lam must be finite")
        if self.f.grid.dim < 2:
            raise DimensionError("need at least one space and one time axis")

    def smallness_bound(self) -> float:
        """0.1 * sqrt(volume of the grid box)."""
        vol = float(np.prod(self.f.grid.extent))
        return 0.1 * np.sqrt(vol)

    def weights_verdict(self) -> dict | None:
        try:
            out = semilinear_weights(self.f.grid.dim, self.p)
        except DimensionError:
            return None
        # no weight annotations are set; the key keeps picard.json's bytes
        out["annotations"] = {"l": None, "m": None, "k": None}
        return out


@dataclass(frozen=True)
class PicardReport:
    iterations: int
    converged: bool
    diverged: bool
    norms: tuple
    diffs: tuple
    ratios: tuple
    residual: float
    tol: float
    residual_tol: float
    norm_f: float
    smallness_bound: float
    small_data: bool
    weights: dict | None

    @property
    def final_ratio(self) -> float | None:
        return self.ratios[-1] if self.ratios else None

    def to_dict(self) -> dict:
        return dict(asdict(self), final_ratio=self.final_ratio)


def _norm(c: np.ndarray) -> float:
    """The L^2 norm of the field with Parseval coefficients c."""
    return float(np.sqrt(np.sum(c.real**2 + c.imag**2)))


def picard_solve(
    prob: SemilinearProblem,
    max_iter: int = 20,
    tol: float = 1e-10,
    residual_tol: float = 1e-6,
):
    """Iterate u_{j+1} = propagate(f - lam u_j^p) from u_1 = 0.

    The loop runs on the Parseval coefficients c of the iterate,
    c <- keep (f^ - lam P(c)) / m, where P zero-pads c into the 3/2-rule
    spectrum, transforms it from the band, forms the power as
    ``dealiased_power`` does and ends with one transform to the band, all
    in two fine-grid buffers.  Norms and differences come from the
    coefficients by Parseval; u is synthesized once, at the end, and the
    residual forms its power anew.

    Returns (u, report).  Divergence (a non-finite difference, or a
    successive-difference ratio above 1 for three consecutive steps) stops
    the run and is reported, never raised; the partial iterate is returned
    as-is.
    """
    if max_iter < 1:
        raise ValueError("need at least one iteration")
    f = prob.f
    grid = f.grid
    solve, meta = _inverse(grid, prob.prescription)
    f_hat = f.coeffs
    c = np.zeros(grid.points, dtype=np.complex128)
    if prob.lam != 0.0:
        fine, band, pad = _fine_grid(grid.points)
        spec = np.empty(fine, dtype=np.complex128)
        work = np.empty(fine, dtype=np.complex128)
        # coefficients to fine-grid values, and a fine spectrum to -lam times
        # coefficients: the embed and restrict scales with Parseval's
        up, down = pad / grid.parseval, -prob.lam * grid.parseval / pad
    norms: list[float] = []
    diffs: list[float] = []
    ratios: list[float] = []
    diverged = False
    iterations = 0
    for _ in range(max_iter):
        if prob.lam == 0.0 or iterations == 0:  # u_1 = 0 has no power
            rhs = f_hat.copy()
        else:
            rhs = _band_product((_embed(c, band, up, spec),) * prob.p, band, grid.points, work)
            rhs *= down
            rhs += f_hat
        nxt = solve(rhs)
        d = _norm(nxt - c)
        diffs.append(d)
        norms.append(_norm(nxt))
        if len(diffs) >= 2 and diffs[-2] > 0.0:
            ratios.append(d / diffs[-2])
        c = nxt
        iterations += 1
        if d <= tol:
            break
        if not np.isfinite(d) or (len(ratios) >= 3 and all(r > 1.0 for r in ratios[-3:])):
            diverged = True
            break

    spec = work = None  # the residual's power allocates its own
    u = SpectralField.from_coeffs(grid, c, meta)
    nonlinear = prob.lam * dealiased_power(u, prob.p) if prob.lam != 0.0 else None
    res = prescription_residual(f, u, prob.prescription, nonlinear)
    norm_f = f.norm()
    bound = prob.smallness_bound()
    report = PicardReport(
        iterations=iterations,
        converged=bool(not diverged and diffs[-1] <= tol and res <= residual_tol),
        diverged=diverged,
        norms=tuple(norms),
        diffs=tuple(diffs),
        ratios=tuple(ratios),
        residual=res,
        tol=tol,
        residual_tol=residual_tol,
        norm_f=norm_f,
        smallness_bound=bound,
        small_data=bool(norm_f <= bound),
        weights=prob.weights_verdict(),
    )
    return u, report


def perturbation_series(prob: SemilinearProblem, order: int) -> list[SpectralField]:
    """Coefficients c_0..c_order of the fixed-point expansion u = sum lam^j c_j.

    c_0 = G f and, matching powers of lam in u = G(f - lam u^p),

        c_j = -G( [lam^{j-1}] (sum_i lam^i c_i)^p )        for j >= 1,

    with every product formed through the dealiased fine grid.
    """
    if order < 0:
        raise ValueError("series order must be >= 0")
    G = lambda g: propagate(g, prob.prescription)
    c = [G(prob.f)]
    for j in range(1, order + 1):
        # the lam^m coefficients, m < j, of u, u^2, ..., u^p: each power is
        # the Cauchy product of the last with c, its terms summed left to right
        power = c[:j]
        for _ in range(prob.p - 1):
            nxt = []
            for m in range(j):
                terms = [dealiased_product(power[a], c[m - a]) for a in range(m + 1)]
                nxt.append(sum(terms[1:], terms[0]))
            power = nxt
        c.append(-G(power[j - 1]))
    return c
