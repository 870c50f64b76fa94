"""Spectral data of the boundary (normal) operator family.

Everything here is exact where it can be: sphere eigenvalues, shifted values
and indicial roots are rational-arithmetic objects (fractions.Fraction), and
pole tests compare against the closed-form root set rather than root-finding.
The only floating-point piece is the distance from a weight line to the
nearest root.

Conventions.  Sphere dimension parameter n means S^{n-1} inside R^n, n >= 2.
Degree-k eigenvalue of the (nonnegative) sphere Laplacian is k(k+n-2); the
shifted family adds (n-2)^2/4, giving exactly (k+(n-2)/2)^2, so the indicial
roots are +-(k+(n-2)/2).  The weight-l line is invertible when |l| misses
them, and its index counts the shifted eigenvalues below l^2.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from math import ceil, comb
from typing import NamedTuple

import numpy as np

from .errors import DimensionError, PoleError

__all__ = [
    "SpectrumEntry",
    "SphereSpectrum",
    "sphere_spectrum",
    "harmonic_multiplicity",
    "IndicialSet",
    "indicial_roots",
    "LineVerdict",
    "weight_line_invertible",
    "index_count",
    "normal_report",
]


def harmonic_multiplicity(n: int, k: int) -> int:
    """Dimension of degree-k spherical harmonics on S^{n-1}."""
    if n < 2:
        raise DimensionError("sphere spectrum needs n >= 2")
    if k < 0:
        raise ValueError("degree must be >= 0")
    if k == 0:
        return 1
    low = comb(n + k - 3, k - 2) if k >= 2 else 0
    return comb(n + k - 1, k) - low


@dataclass(frozen=True)
class SpectrumEntry:
    k: int
    eigenvalue: int  # k(k+n-2)
    shifted: Fraction  # (k+(n-2)/2)^2, exact
    shifted_root: Fraction  # k+(n-2)/2, exact
    multiplicity: int


@dataclass(frozen=True)
class SphereSpectrum:
    n: int
    entries: tuple[SpectrumEntry, ...]

    def to_dict(self) -> dict:
        return {
            "n": self.n,
            "entries": [
                {
                    "k": e.k,
                    "eigenvalue": e.eigenvalue,
                    "shifted": [e.shifted.numerator, e.shifted.denominator],
                    "multiplicity": e.multiplicity,
                }
                for e in self.entries
            ],
        }


def sphere_spectrum(n: int, K: int) -> SphereSpectrum:
    """Degrees k = 0..K of the sphere Laplacian with exact shifted values."""
    if n < 2:
        raise DimensionError("sphere spectrum needs n >= 2")
    if K < 0:
        raise ValueError("K must be >= 0")
    half = Fraction(n - 2, 2)
    entries = []
    for k in range(K + 1):
        root = k + half
        entries.append(
            SpectrumEntry(
                k=k,
                eigenvalue=k * (k + n - 2),
                shifted=root * root,
                shifted_root=root,
                multiplicity=harmonic_multiplicity(n, k),
            )
        )
    return SphereSpectrum(n=n, entries=tuple(entries))


@dataclass(frozen=True)
class IndicialSet:
    """Truncated symmetric root set {+-((n-2)/2 + k) : 0 <= k <= K}."""

    n: int
    K: int
    roots: tuple[Fraction, ...]  # sorted ascending, symmetric under negation
    degenerate: bool = field(default=False)  # n = 2: gap collapses to 0

    @property
    def gap(self) -> Fraction:
        return min(abs(r) for r in self.roots)

    def to_dict(self) -> dict:
        return {
            "n": self.n,
            "K": self.K,
            "roots": [[r.numerator, r.denominator] for r in self.roots],
            "gap": [self.gap.numerator, self.gap.denominator],
            "degenerate": self.degenerate,
        }


def indicial_roots(n: int, K: int) -> IndicialSet:
    if n < 2:
        raise DimensionError("indicial roots need n >= 2")
    if K < 0:
        raise ValueError("K must be >= 0")
    half = Fraction(n - 2, 2)
    pos = [half + k for k in range(K + 1)]
    roots = sorted({-r for r in pos} | set(pos))
    return IndicialSet(n=n, K=K, roots=tuple(roots), degenerate=(n == 2))


class LineVerdict(NamedTuple):
    invertible: bool
    distance: float


def _nearest_root_distance(n: int, l: float) -> float:
    half = 0.5 * (n - 2)
    a = abs(l)
    # roots are half + k, k >= 0; nearest one to a
    if a <= half:
        return half - a
    k = int(np.floor(a - half))
    return min(abs(a - (half + k)), abs(half + k + 1 - a))


def weight_line_invertible(n: int, l: float) -> LineVerdict:
    """Whether the weight-l line misses every indicial root, plus the margin.

    A pole on the line kills invertibility outright; off poles the line is at
    worst a Fredholm one (index tracked separately by index_count).
    """
    if n < 2:
        raise DimensionError("need n >= 2")
    d = _nearest_root_distance(n, float(l))
    if d < 1e-12:
        return LineVerdict(False, 0.0)
    return LineVerdict(True, d)


def index_count(n: int, l: float, with_multiplicity: bool = True) -> int:
    """Signed count of shifted eigenvalues strictly below l^2.

    Returns -sgn(l) * #{k : (k+(n-2)/2)^2 < l^2}, each degree weighted by its
    harmonic multiplicity by default (the flag exposes the per-degree count).
    The K degrees below |l| are k < K = ceil(|l| - (n-2)/2), and their
    multiplicities sum to C(n+K-2, n-1) + C(n+K-3, n-1), so the cost does not
    grow with |l|.  Raises PoleError when |l| sits on a root.
    """
    if n < 2:
        raise DimensionError("need n >= 2")
    lv = float(l)
    if _nearest_root_distance(n, lv) < 1e-12:
        raise PoleError(f"weight {lv} lies on an indicial root for n = {n}")
    K = max(ceil(abs(lv) - 0.5 * (n - 2)), 0)
    if K == 0 or not with_multiplicity:
        count = K
    else:
        count = comb(n + K - 2, n - 1) + comb(n + K - 3, n - 1)
    return -count if lv > 0 else count


def normal_report(n: int, K: int, l_samples) -> dict:
    """JSON-ready summary: spectrum, roots, gap and an index table."""
    spec = sphere_spectrum(n, K)
    roots = indicial_roots(n, K).to_dict()
    table = []
    for l in l_samples:
        verdict = weight_line_invertible(n, l)
        row = {
            "l": float(l),
            "invertible": verdict.invertible,
            "distance": verdict.distance,
        }
        if verdict.invertible:
            row["index"] = index_count(n, float(l))
            row["index_without_multiplicity"] = index_count(
                n, float(l), with_multiplicity=False
            )
        table.append(row)
    return {
        "n": n,
        "K": K,
        "spectrum": spec.to_dict(),
        "roots": roots,
        "gap": roots["gap"],
        "index_table": table,
    }
