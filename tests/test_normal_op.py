"""Sphere spectrum, indicial roots, weight lines and the index report."""

import itertools
import json
import math
import time
import warnings
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from feynlab.errors import DimensionError, PoleError
from feynlab.normal_op import (
    harmonic_multiplicity,
    index_count,
    indicial_roots,
    normal_report,
    sphere_spectrum,
    weight_line_invertible,
)


def monomials(n, k):
    """Exponent multi-indices of total degree k in n variables."""
    if n == 1:
        return [(k,)]
    out = []
    for first in range(k + 1):
        out.extend((first,) + rest for rest in monomials(n - 1, k - first))
    return out


def harmonic_dimension_oracle(n, k):
    """Kernel dimension of the Laplacian on degree-k homogeneous polynomials,
    computed from the literal matrix of the operator on the monomial basis."""
    if k == 0:
        return 1
    src = monomials(n, k)
    dst = monomials(n, k - 2) if k >= 2 else []
    if not dst:
        return len(src)
    col = {a: i for i, a in enumerate(dst)}
    mat = np.zeros((len(dst), len(src)))
    for j, a in enumerate(src):
        for i in range(n):
            if a[i] >= 2:
                b = list(a)
                b[i] -= 2
                mat[col[tuple(b)], j] += a[i] * (a[i] - 1)
    return len(src) - np.linalg.matrix_rank(mat)


# --- sphere spectrum ------------------------------------------------------

def test_spectrum_constants_entry():
    e = sphere_spectrum(4, 0)[0]
    assert e.eigenvalue == 0
    assert e.shifted == 1
    assert e.multiplicity == 1


def test_spectrum_first_nonconstant_entry():
    e = sphere_spectrum(4, 1)[1]
    assert e.eigenvalue == 3
    assert e.multiplicity == 4


def test_spectrum_circle_modes():
    spec = sphere_spectrum(2, 3)
    assert [e.eigenvalue for e in spec] == [0, 1, 4, 9]
    # circle: one constant mode, cos/sin pair for every k >= 1
    assert [e.multiplicity for e in spec] == [1, 2, 2, 2]


@pytest.mark.parametrize("n,k", list(itertools.product(range(2, 6), range(5))))
def test_multiplicity_matches_polynomial_kernel_oracle(n, k):
    assert harmonic_multiplicity(n, k) == harmonic_dimension_oracle(n, k)


def test_spectrum_eigenvalues_strictly_increasing():
    for n in (2, 3, 4, 7):
        ev = [e.eigenvalue for e in sphere_spectrum(n, 12)]
        assert all(b > a for a, b in zip(ev, ev[1:]))


def test_shifted_identity_exact_in_rational_arithmetic():
    for n in range(2, 11):
        for e in sphere_spectrum(n, 200):
            assert e.eigenvalue + Fraction(n - 2, 2) ** 2 == e.shifted


def test_spectrum_validation():
    with pytest.raises(DimensionError):
        sphere_spectrum(1, 3)
    with pytest.raises(ValueError):
        sphere_spectrum(4, -1)
    with pytest.raises(ValueError):
        harmonic_multiplicity(4, -2)


@pytest.mark.parametrize("call,error", [
    (lambda: harmonic_multiplicity(1, 0), DimensionError),
    (lambda: indicial_roots(1, 3), DimensionError),
    (lambda: indicial_roots(4, -1), ValueError),
    (lambda: weight_line_invertible(1, 0.7), DimensionError),
    (lambda: index_count(1, 0.7), DimensionError),
], ids=["multiplicity-n", "roots-n", "roots-K", "line-n", "index-n"])
def test_public_entry_points_reject_a_bad_dimension_or_truncation(call, error):
    with pytest.raises(error):
        call()


# --- indicial roots -------------------------------------------------------

def test_roots_small_truncations():
    assert indicial_roots(4, 2) == tuple(
        Fraction(v) for v in (-3, -2, -1, 1, 2, 3)
    )
    assert indicial_roots(3, 0) == (Fraction(-1, 2), Fraction(1, 2))


def test_roots_negation_symmetry_and_gap():
    for n in (3, 4, 5, 6):
        s = indicial_roots(n, 5)
        assert tuple(sorted(-r for r in s)) == s
        assert min(map(abs, s)) == Fraction(n - 2, 2)
        rep = normal_report(n, 5, [])
        assert Fraction(*rep["gap"]) == Fraction(n - 2, 2)
        assert rep["roots"]["degenerate"] is False


def test_roots_degenerate_plane_flagged():
    assert min(map(abs, indicial_roots(2, 3))) == 0
    rep = normal_report(2, 3, [])
    assert rep["roots"]["degenerate"] is True
    assert rep["gap"] == rep["roots"]["gap"] == [0, 1]


# --- weight lines and the index ------------------------------------------

def test_line_verdicts_for_four_dimensions():
    assert weight_line_invertible(4, 0.5) == (True, pytest.approx(0.5))
    v = weight_line_invertible(4, 1.0)
    assert v.invertible is False and v.distance == 0.0
    assert weight_line_invertible(4, 2.5) == (True, pytest.approx(0.5))


def test_line_verdict_sign_symmetry():
    assert weight_line_invertible(4, -1.5) == (True, pytest.approx(0.5))
    for l in (0.3, 1.2, 2.7):
        assert weight_line_invertible(5, l) == weight_line_invertible(5, -l)


def test_index_values_in_four_dimensions():
    assert index_count(4, 0.5) == 0
    assert index_count(4, 1.5) == -1
    assert index_count(4, -1.5) == 1


def test_index_matches_the_degree_by_degree_count():
    # the definition: -sgn(l) times the multiplicities of the degrees k with
    # k + (n-2)/2 < |l|, or the number of those degrees
    for n in range(2, 8):
        half = 0.5 * (n - 2)
        for l in np.arange(-12.0, 12.0, 0.1):
            if weight_line_invertible(n, l).distance < 1e-12:
                continue
            degrees = [k for k in range(30) if half + k < abs(l)]
            sign = -1 if l > 0 else 1
            assert index_count(n, l) == sign * sum(harmonic_multiplicity(n, k) for k in degrees)
            assert index_count(n, l, with_multiplicity=False) == sign * len(degrees)


def test_index_at_a_huge_weight_is_immediate():
    # 1e12 degrees lie below l; sum_{k < K} (k+1)^2 = K(K+1)(2K+1)/6 in n = 4
    K = 10**12
    start = time.perf_counter()
    got = index_count(4, 1e12 + 0.5)
    assert time.perf_counter() - start < 1.0
    assert got == -(K * (K + 1) * (2 * K + 1) // 6)


def float_root_distance(n, l):
    """The distance to the nearest root in floats: the reference the exact
    distance must match bit for bit where every float step is exact."""
    half = 0.5 * (n - 2)
    a = abs(l)
    if a <= half:
        return half - a
    k = math.floor(a - half)
    return min(abs(a - (half + k)), abs(half + k + 1 - a))


@settings(max_examples=300)  # cheap
@given(
    st.integers(2, 40),
    st.one_of(
        st.floats(-(2.0**51), 2.0**51, exclude_min=True, exclude_max=True),
        st.integers(-(2**40), 2**40).map(lambda q: q / 8),  # on and between roots
    ),
)
def test_exact_root_distance_keeps_the_float_bits_below_2_to_51(n, l):
    # for |l| < 2^51 every step of the float formula is exact, so the exact
    # distance rounded once has its bits, and the index its K
    d = float_root_distance(n, l)
    assert weight_line_invertible(n, l) == ((False, 0.0) if d < 1e-12 else (True, d))
    if d >= 1e-12:
        K = max(math.ceil(abs(l) - 0.5 * (n - 2)), 0)
        assert index_count(n, l, with_multiplicity=False) == (-K if l > 0 else K)


@pytest.mark.parametrize("l", [2.0**53, 2.0**52 + 1])
def test_root_distance_is_exact_past_2_to_52(l):
    # the float formula put both on a root; each lies 0.5 from the nearest,
    # an integer + 1/2 for n = 3
    assert weight_line_invertible(3, l) == (True, 0.5)


def test_index_count_is_exact_past_2_to_52():
    # |l| - 1/2 = 2^52 + 1/2 rounds to 2^52 in floats, which read l as a pole;
    # K = 2^52 + 1 degrees lie below it, of multiplicities 2k + 1 in n = 3
    K = 2**52 + 1
    assert index_count(3, 2.0**52 + 1) == -(K**2)
    assert index_count(3, 2.0**52 + 1, with_multiplicity=False) == -K


def test_index_pole_raises():
    with pytest.raises(PoleError):
        index_count(4, 1.0)
    with pytest.raises(PoleError):
        index_count(3, -0.5)


def test_index_zero_inside_the_gap():
    for n in (3, 4, 5, 8):
        half = 0.5 * (n - 2)
        for l in np.linspace(-0.95 * half, 0.95 * half, 7):
            if half > 0:
                assert index_count(n, float(l)) == 0


def test_index_locally_constant_with_multiplicity_jumps():
    for n in (3, 4, 5):
        half = 0.5 * (n - 2)
        for k in range(4):
            root = half + k
            below = index_count(n, root - 0.1)
            above = index_count(n, root + 0.1)
            assert above - below == -harmonic_multiplicity(n, k)
            # plain count: every crossing jumps by exactly one degree
            b0 = index_count(n, root - 0.1, with_multiplicity=False)
            a0 = index_count(n, root + 0.1, with_multiplicity=False)
            assert a0 - b0 == -1
            # constant between consecutive roots
            mid = index_count(n, root + 0.5)
            assert index_count(n, root + 0.3) == mid == index_count(n, root + 0.7)


def test_index_antisymmetry():
    for n, l in [(4, 1.5), (4, 2.5), (3, 0.8), (5, 3.2)]:
        assert index_count(n, -l) == -index_count(n, l)


def test_invertible_line_always_has_an_index():
    for n in (3, 4, 5):
        for l in np.linspace(-3.3, 3.3, 23):
            v = weight_line_invertible(n, float(l))
            if v.invertible:
                index_count(n, float(l))  # must not raise


# --- report ---------------------------------------------------------------

def test_report_structure_and_consistency():
    rep = normal_report(4, 3, [0.5, 1.5, 1.0])
    json.dumps(rep)  # must be serializable as-is
    assert rep["n"] == 4 and rep["K"] == 3
    assert rep["gap"] == [1, 1]
    table = {row["l"]: row for row in rep["index_table"]}
    assert table[0.5]["index"] == 0
    assert table[1.5]["index"] == -1
    assert table[1.0]["invertible"] is False
    assert "index" not in table[1.0]


def test_report_degenerate_plane_is_quiet():
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        rep = normal_report(2, 2, [0.25])
    assert rep["roots"]["degenerate"] is True
