"""Spectral data of the boundary (normal) operator family.

Everything here is exact where it can be: sphere eigenvalues, shifted values
and indicial roots are rational-arithmetic objects (fractions.Fraction), and
pole tests compare against the closed-form root set rather than root-finding.
The distance from a weight line to the nearest root is exact too, and is
rounded to a float once.

Conventions.  Sphere dimension parameter n means S^{n-1} inside R^n, n >= 2.
Degree-k eigenvalue of the (nonnegative) sphere Laplacian is k(k+n-2); the
shifted family adds (n-2)^2/4, giving exactly (k+(n-2)/2)^2, so the indicial
roots are +-(k+(n-2)/2).  The weight-l line is invertible when |l| misses
them, and its index counts the shifted eigenvalues below l^2.
"""

from __future__ import annotations

from fractions import Fraction
from math import ceil, comb, floor
from typing import NamedTuple

from .errors import DimensionError, PoleError


def _check(n: int, K: int = 0) -> None:
    """Raise unless n >= 2 (the sphere S^{n-1}) and the degree bound K >= 0."""
    if n < 2:
        raise DimensionError(f"the sphere S^(n-1) needs n >= 2, got n = {n}")
    if K < 0:
        raise ValueError(f"degree bound must be >= 0, got {K}")


def harmonic_multiplicity(n: int, k: int) -> int:
    """Dimension of degree-k spherical harmonics on S^{n-1}."""
    _check(n, k)
    if k == 0:
        return 1
    low = comb(n + k - 3, k - 2) if k >= 2 else 0
    return comb(n + k - 1, k) - low


class SpectrumEntry(NamedTuple):
    k: int
    eigenvalue: int  # k(k+n-2)
    shifted: Fraction  # (k+(n-2)/2)^2, exact
    shifted_root: Fraction  # k+(n-2)/2, exact
    multiplicity: int


def sphere_spectrum(n: int, K: int) -> tuple[SpectrumEntry, ...]:
    """Degrees k = 0..K of the sphere Laplacian with exact shifted values."""
    _check(n, K)
    half = Fraction(n - 2, 2)
    return tuple(
        SpectrumEntry(k, k * (k + n - 2), (k + half) ** 2, k + half, harmonic_multiplicity(n, k))
        for k in range(K + 1)
    )


def indicial_roots(n: int, K: int) -> tuple[Fraction, ...]:
    """The truncated root set {+-((n-2)/2 + k) : 0 <= k <= K}, ascending.

    It is symmetric under negation, and its smallest |root| (the gap) is
    (n-2)/2: for n = 2 the roots +-0 coincide and the gap is 0.
    """
    _check(n, K)
    half = Fraction(n - 2, 2)
    pos = [half + k for k in range(K + 1)]
    return tuple(sorted({-r for r in pos} | set(pos)))


class LineVerdict(NamedTuple):
    invertible: bool
    distance: float


def _nearest_root_distance(n: int, a: Fraction) -> float:
    """Distance from |l| = a, exact, to the nearest root, rounded once."""
    half = Fraction(n - 2, 2)
    # roots are half + k, k >= 0; nearest one to a
    if a <= half:
        return float(half - a)
    k = floor(a - half)
    return float(min(a - (half + k), half + k + 1 - a))


def weight_line_invertible(n: int, l: float) -> LineVerdict:
    """Whether the weight-l line misses every indicial root, plus the margin.

    A pole on the line kills invertibility outright; off poles the line is at
    worst a Fredholm one (index tracked separately by index_count).
    """
    _check(n)
    d = _nearest_root_distance(n, abs(Fraction(l)))
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
    _check(n)
    a = abs(Fraction(l))
    if _nearest_root_distance(n, a) < 1e-12:
        raise PoleError(f"weight {float(l)} lies on an indicial root for n = {n}")
    K = max(ceil(a - Fraction(n - 2, 2)), 0)
    if K == 0 or not with_multiplicity:
        count = K
    else:
        count = comb(n + K - 2, n - 1) + comb(n + K - 3, n - 1)
    return -count if l > 0 else count


def _exact(q: Fraction) -> list:
    return [q.numerator, q.denominator]


def normal_report(n: int, K: int, l_samples) -> dict:
    """JSON-ready summary: spectrum, roots, gap and an index table.

    Exact values are ``[numerator, denominator]`` pairs; the gap is (n-2)/2,
    the smallest |root|, and n = 2 is flagged degenerate (the gap is 0).
    ValueError when an index has more digits than Python writes
    (``sys.get_int_max_str_digits``).
    """
    spectrum = sphere_spectrum(n, K)
    gap = _exact(Fraction(n - 2, 2))
    table = []
    for l in map(float, l_samples):
        verdict = weight_line_invertible(n, l)
        row = {"l": l, "invertible": verdict.invertible, "distance": verdict.distance}
        if verdict.invertible:
            row["index"] = index_count(n, l)
            row["index_without_multiplicity"] = index_count(n, l, with_multiplicity=False)
            try:
                str(row["index"])
            except ValueError:
                raise ValueError(f"the index at weight {l} has too many digits to write") from None
        table.append(row)
    entries = [
        {"k": e.k, "eigenvalue": e.eigenvalue, "shifted": _exact(e.shifted),
         "multiplicity": e.multiplicity}
        for e in spectrum
    ]
    roots = [_exact(r) for r in indicial_roots(n, K)]
    return {
        "n": n,
        "K": K,
        "spectrum": {"n": n, "entries": entries},
        "roots": {"n": n, "K": K, "roots": roots, "gap": gap, "degenerate": n == 2},
        "gap": gap,
        "index_table": table,
    }
