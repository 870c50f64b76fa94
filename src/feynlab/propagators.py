"""Regularized inverses of the constant-coefficient wave multiplier.

The wave operator on the grid acts diagonally in frequency with symbol
``p(zeta) = zeta_n^2 - |zeta'|^2`` (last axis = time, D = -i d/dz).  Every
multiplier here is one lattice form,

    m = a (zeta_n + beta)^2 - |zeta'|^2,

built by ``_form``: the symbol p is a = 1, beta = 0; the Wick rotation by
theta is a = e^{-2 theta}, beta = 0, which at theta = +-i pi/2 equals
``-|zeta|^2`` (negative definite; the Euclidean end of the rotation).

Resolved sign convention (documented once, here).  With the grid's
``e^{+i xi.z}`` synthesis, the four propagators are realized by the pairs
(a, beta) of ``_FORMS``:

    Retarded      (1, -i eps)          poles in Im zeta_n > 0,
                                       support moves forward,
    Advanced      (1, +i eps)          time reflection of that,
    Feynman       (e^{+2 i eps}, 0)    mode profile e^{-i omega |t|}/(2 i omega),
    AntiFeynman   (e^{-2 i eps}, 0)    its conjugate.

These orientations are fixed by the validated targets (forward support for
Retarded, the e^{-i omega |t|} phase signature for Feynman), not asserted a
priori; adjointness pairs Retarded with Advanced and Feynman with AntiFeynman
because the multipliers are pointwise conjugates on the real lattice.

Zero-mode rule (decided once, in ``_solve_modes``): a solve acts on every
mode except zeta = 0 when its multiplier vanishes there.  The rotated forms
do (Feynman, anti-Feynman and the Wick study); the shifts are -eps^2 there
and invert it.  ``propagate``, ``prescription_residual`` (the Picard
residual included) and the Wick study all use it; other modules build no
multiplier and mask the cone through ``near_cone``.
"""

from __future__ import annotations

import cmath
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .errors import DimensionError, ZeroModeError
from .fields import GridSpec, SpectralField


class Kind(Enum):
    RETARDED = "retarded"
    ADVANCED = "advanced"
    FEYNMAN = "feynman"
    ANTIFEYNMAN = "antifeynman"


_ROTATIONS = (Kind.FEYNMAN, Kind.ANTIFEYNMAN)  # eps is the angle of e^{+-2i eps}

# (a, beta) of each kind's multiplier a (zeta_n + beta)^2 - |zeta'|^2
_FORMS = {
    Kind.RETARDED: lambda eps: (1.0, -1j * eps),
    Kind.ADVANCED: lambda eps: (1.0, 1j * eps),
    Kind.FEYNMAN: lambda eps: (np.exp(2j * eps), 0.0),
    Kind.ANTIFEYNMAN: lambda eps: (np.exp(-2j * eps), 0.0),
}


@dataclass(frozen=True)
class Prescription:
    """Which propagator to apply and its regularization."""

    kind: Kind
    eps: float | None = None  # None: the kind's grid-scaled default

    def __post_init__(self) -> None:
        if self.eps is not None and not self.eps > 0.0:
            raise ValueError("eps must be positive")
        if self.eps is not None and self.kind in _ROTATIONS and not self.eps < np.pi / 2:
            raise ValueError("a Feynman or anti-Feynman eps is an angle in (0, pi/2)")


def default_epsilon(grid: GridSpec) -> float:
    """Grid-scaled regularization heuristic: 10 * (2 pi / L_min)^2."""
    return 10.0 * (2.0 * np.pi / min(grid.extent)) ** 2


def _lattice(grid: GridSpec) -> tuple[np.ndarray, np.ndarray]:
    """Time frequency zeta_n and |zeta'|^2, its squares added first axis
    first, as sparse arrays that broadcast to the grid's frequency lattice."""
    *space, time = np.meshgrid(*grid.freq_axes(), indexing="ij", sparse=True)
    return time, sum(x**2 for x in space)


def _form(grid: GridSpec, a: complex, beta: complex = 0.0) -> np.ndarray:
    """a (zeta_n + beta)^2 - |zeta'|^2 over the grid's frequency lattice."""
    zt, sp = _lattice(grid)
    return a * (zt + beta) ** 2 - sp


def _multiplier(grid: GridSpec, kind: Kind, eps: float) -> np.ndarray:
    """The kind's multiplier at the resolved eps; ValueError if it is not
    finite (a shift eps past about 1e154 squares to inf)."""
    with np.errstate(over="ignore", invalid="ignore"):
        m = _form(grid, *_FORMS[kind](eps))
    if not np.isfinite(m).all():
        raise ValueError(f"eps = {eps!r} gives a non-finite multiplier")
    return m


def _solve_modes(m: np.ndarray) -> np.ndarray:
    """The zero-mode rule: mask of the modes a solve with multiplier m acts
    on, every mode except zeta = 0 when m vanishes there."""
    keep = np.ones(m.shape, dtype=bool)
    keep.flat[0] = m.flat[0] != 0.0
    return keep


def _resolve(grid: GridSpec, prescription: Prescription) -> tuple[np.ndarray, np.ndarray, float]:
    """The prescription resolved on a grid, for every entry point: (m, keep,
    eps), with eps the prescription's or else default_epsilon, which the
    rotation kinds cap at the angle pi/4, m the kind's multiplier at eps and
    keep its solve modes (``_solve_modes``)."""
    if grid.dim < 2:
        raise DimensionError("propagation needs at least one space and one time axis")
    eps = prescription.eps
    if eps is None:
        eps = min(default_epsilon(grid), np.pi / 4 if prescription.kind in _ROTATIONS else np.inf)
    m = _multiplier(grid, prescription.kind, eps)
    return m, _solve_modes(m), eps


def _symbol_gap(grid: GridSpec) -> float:
    """Smallest nonzero |p(zeta)| on the lattice.

    p = a - b with a = zeta_n^2 and b = |zeta'|^2 ranging independently, so
    the lattice is never built: each a is checked against its neighbours in
    the sorted set of b values.  Rounded subtraction is monotone and the
    floats are those of the full lattice, so the minimum is the same bit for
    bit.
    """
    zt, sp = _lattice(grid)
    a = np.unique(zt**2)
    b = np.unique(sp)
    near = np.searchsorted(b, a)[:, None] + np.arange(-1, 2)
    d = np.abs(a[:, None] - b[np.clip(near, 0, b.size - 1)])
    nz = d[d > 0]
    return float(nz.min()) if nz.size else 0.0


def near_cone(grid: GridSpec, delta: float) -> np.ndarray:
    """Mask of the lattice points with |p(zeta)| < delta (zero mode included)."""
    return np.abs(_form(grid, 1.0)) < delta


def propagate(f: SpectralField, prescription: Prescription) -> SpectralField:
    """Apply the regularized inverse multiplier for the given prescription.

    Zero mode (``_solve_modes``): the rotated multipliers vanish exactly at
    zeta = 0, so the rotation kinds project the zero mode out of the
    solution; the frequency-shift kinds have the nonvanishing value -eps^2
    there and invert it (this is what makes the retarded output
    constant-free outside the forward cone).  Metadata records the kind,
    eps, whether the mode was projected, and a coarse-grid warning when eps
    is below half the smallest nonzero |p| on the lattice.
    """
    solve, meta = _inverse(f.grid, prescription)
    return SpectralField.from_coeffs(f.grid, solve(f.coeffs.copy()), meta)


def _inverse(grid: GridSpec, prescription: Prescription):
    """The regularized inverse of ``propagate``, built once for a grid.

    Returns (solve, meta): ``solve(c)`` maps the Parseval coefficients c of
    a source to those of its solution, keep * c / m, zeroing the modes it
    leaves out in c itself (so c must be a writable array of the caller's);
    meta is the metadata ``propagate`` attaches.  The Picard loop applies
    the same solve to every iterate.
    """
    m, keep, eps = _resolve(grid, prescription)
    drop = ~keep
    m[drop] = 1.0  # mode removed; avoid 0/0
    meta = {
        "kind": prescription.kind.value,
        "eps": float(eps),
        "zero_mode_projected": bool(drop.any()),
        "coarse_grid_warning": bool(eps < 0.5 * _symbol_gap(grid)),
    }

    def solve(c: np.ndarray) -> np.ndarray:
        c[drop] = 0.0
        return c / m

    return solve, meta


def apply_box(u: SpectralField, prescription: Prescription) -> SpectralField:
    """Apply the regularized wave multiplier itself (the map propagate inverts).

    Plain frequency-wise multiplication: the rotation kinds annihilate the
    zero mode (their multiplier vanishes there), the shift kinds scale it by
    -eps^2, matching the propagate conventions so propagate(apply_box(u)) = u
    on zero-mode-free fields.
    """
    m, _, eps = _resolve(u.grid, prescription)
    return SpectralField.from_coeffs(
        u.grid, u.coeffs * m, {"kind": prescription.kind.value, "eps": float(eps)}
    )


def prescription_residual(
    f: SpectralField,
    u: SpectralField,
    prescription: Prescription,
    nonlinear: SpectralField | None = None,
) -> float:
    """Residual of a kind's own regularized multiplier: |m u + N - f| / |f|.

    N is an optional nonlinear term (Picard's lam u^p), zero when left out.
    Evaluated on the modes the kind's propagate acts on (``_solve_modes``):
    the rotation kinds leave out the zero mode, the shift kinds keep it.  A
    zero source makes the ratio undefined; the absolute residual is
    returned instead.  Exact-inverse check: u = propagate(f, p) gives 0 to
    rounding for every kind.
    """
    if u.grid != f.grid:
        raise DimensionError("fields on different grids")
    m, keep, _ = _resolve(f.grid, prescription)
    lhs = m * u.coeffs
    if nonlinear is not None:
        lhs = lhs + nonlinear.coeffs
    num = np.sqrt(np.sum(np.abs(np.where(keep, lhs - f.coeffs, 0.0)) ** 2))
    den = np.sqrt(np.sum(np.abs(np.where(keep, f.coeffs, 0.0)) ** 2))
    return float(num / den) if den > 0.0 else float(num)


def mode_profile(
    omega: float, prescription: Prescription, tgrid: np.ndarray
) -> np.ndarray:
    """Time profile of the propagator for a unit impulse in a spatial mode.

    Evaluates G(t) = (1/2pi) integral e^{i zeta t} / m(zeta) d zeta for the
    prescription's multiplier m = a (zeta + beta)^2 - omega^2, by exact
    residue summation over its poles -beta +- omega/sqrt(a) (one double pole
    at -beta when omega = 0): poles in the upper half plane contribute for
    t >= 0, lower half plane for t < 0.  For the Retarded kind this gives
    -step(t) e^{-eps t} sin(omega t)/omega; for Feynman, the
    e^{-i omega |t|} phase signature.
    """
    if omega < 0:
        raise ValueError("omega must be >= 0")
    eps = prescription.eps
    if eps is None:
        raise ValueError("mode_profile needs an explicit eps")
    if omega == 0.0 and prescription.kind in _ROTATIONS:
        raise ZeroModeError(
            "omega = 0 leaves a real double pole for the rotated multiplier"
        )
    a, beta = _FORMS[prescription.kind](eps)
    t = np.asarray(tgrid, dtype=float)
    # (pole r, c) with residue c e^{i r t} of e^{i zeta t} / m(zeta) at r
    if omega == 0.0:
        poles = [(-beta, 1j * t / a)]
    else:
        root = omega / cmath.sqrt(a)
        half = 1.0 / (2.0 * a * root)  # 1 / (a (r - other)) at -beta + root
        poles = [(-beta + root, half), (-beta - root, -half)]
    out = np.zeros(t.shape, dtype=np.complex128)
    for r, res in poles:
        if r.imag == 0.0:
            raise ValueError("profile pole on the real axis; increase eps")
        sel = t >= 0 if r.imag > 0 else t < 0
        out[sel] += (1j if r.imag > 0 else -1j) * (res * np.exp(1j * r * t))[sel]
    return out


def characteristic_energy_fraction(u: SpectralField, delta: float) -> float:
    """Fraction of spectral energy within |p(zeta)| < delta of the
    characteristic cone, over the modes a solve with p acts on (p vanishes
    at zeta = 0, so that mode is left out of the band)."""
    c2 = np.abs(u.coeffs) ** 2
    total = float(np.sum(c2))
    if total == 0.0:
        return 0.0
    p = _form(u.grid, 1.0)
    band = (np.abs(p) < delta) & _solve_modes(p)
    return float(np.sum(c2[band]) / total)


def wick_continuation_study(
    f: SpectralField, g: SpectralField, path: np.ndarray
) -> dict:
    """Matrix elements <Box_theta^{-1} f, g> along a path of Wick parameters.

    The path must stay in Im theta in (0, pi/2].  Box_theta is the form with
    a = e^{-2 theta}, beta = 0; it vanishes at zeta = 0 for every theta, so
    ``_solve_modes`` projects the zero mode.  Returns what is measured along
    the path: the path itself, the complex values and their successive
    differences.  The inputs' band energies do not depend on the path; the
    caller measures them once (``characteristic_energy_fraction``).
    """
    if g.grid != f.grid:
        raise DimensionError("fields on different grids")
    thetas = [complex(t) for t in np.asarray(path).ravel()]
    if not thetas:
        raise ValueError("empty path")
    for t in thetas:
        if not 0.0 < t.imag <= np.pi / 2.0 + 1e-15:
            raise ValueError(
                f"path must stay in Im theta in (0, pi/2]; got {t} "
                "(use propagate's eps limit on the real axis)"
            )
    values = []
    for t in thetas:
        m = _form(f.grid, np.exp(-2.0 * t))
        # one expression: on large grids numpy writes the product into the
        # quotient's temporary, and the in-place loop's rounding is the one
        # the wick.json digests pin
        inv_f_conj_g = np.divide(
            f.coeffs, m, out=np.zeros_like(m), where=_solve_modes(m)
        ) * np.conj(g.coeffs)
        values.append(complex(np.sum(inv_f_conj_g)))
    diffs = [abs(values[j + 1] - values[j]) for j in range(len(values) - 1)]
    return {"thetas": thetas, "values": values, "diffs": diffs}
