"""Grid, spectral field and weighted-norm diagnostics."""

import numpy as np
import pytest

from feynlab.errors import DimensionError
from feynlab.fields import (
    GridSpec,
    SpectralField,
    gaussian_source,
    random_band_limited,
    weighted_norm,
)
from feynlab.propagators import Kind, Prescription, propagate
from feynlab.weights import IsoWeight, SplitWeight


def test_grid_frequency_lattice():
    g = GridSpec((8.0,), (16,))
    xi = np.sort(g.freq_axes()[0])
    expected = (2.0 * np.pi / 8.0) * np.arange(-8, 8)
    np.testing.assert_allclose(xi, expected, atol=1e-12)


def test_grid_serialization_round_trip():
    g = GridSpec((8.0, 12.0), (16, 32))
    assert GridSpec.from_dict(g.to_dict()) == g


@pytest.mark.parametrize(
    "extent,points",
    [((8.0,), (3,)), ((8.0,), (2,)), ((-1.0,), (8,)), ((8.0, 4.0), (8,))],
)
def test_grid_rejects_bad_specs(extent, points):
    with pytest.raises((ValueError, DimensionError)):
        GridSpec(extent, points)


def test_fft_round_trip_and_parseval():
    grid = GridSpec((6.0, 6.0), (32, 32))
    u = random_band_limited(grid, seed=11)
    back = SpectralField.from_coeffs(grid, u.coeffs)
    err = np.max(np.abs(back.values - u.values)) / np.max(np.abs(u.values))
    assert err <= 1e-12
    spec_norm = float(np.sqrt(np.sum(np.abs(u.coeffs) ** 2)))
    assert abs(spec_norm - u.norm()) <= 1e-12 * u.norm()


def test_weighted_norm_zero_field():
    grid = GridSpec((4.0,), (8,))
    zero = SpectralField(grid, np.zeros(8))
    assert weighted_norm(zero, IsoWeight(1, 2.5)) == 0.0


def test_weighted_norm_single_mode():
    # unit Parseval mass concentrated in one lattice mode gives <xi0>^s
    grid = GridSpec((2.0 * np.pi, 2.0 * np.pi), (16, 16))
    c = np.zeros((16, 16), dtype=complex)
    c[3, 2] = 1.0
    u = SpectralField.from_coeffs(grid, c)
    xi0 = (3.0, 2.0)
    for s in (-1.0, 0.0, 1.7):
        want = (1.0 + xi0[0] ** 2 + xi0[1] ** 2) ** (s / 2.0)
        got = weighted_norm(u, IsoWeight(2, s))
        np.testing.assert_allclose(got, want, rtol=1e-12)


def test_weighted_norm_iso0_is_l2():
    grid = GridSpec((7.0, 5.0), (32, 24))
    u = random_band_limited(grid, seed=3)
    got = weighted_norm(u, IsoWeight(2, 0.0))
    np.testing.assert_allclose(got, u.norm(), rtol=1e-12)


def test_weighted_norm_dimension_mismatch():
    grid = GridSpec((4.0,), (8,))
    u = random_band_limited(grid, seed=0)
    with pytest.raises(DimensionError):
        weighted_norm(u, IsoWeight(2, 1.0))
    with pytest.raises(DimensionError):
        SplitWeight(1, 1, 0.5, 0.5)  # split needs d < dim


def test_gaussian_source_long_center_rejected():
    grid = GridSpec((8.0, 8.0), (16, 16))
    with pytest.raises(DimensionError):
        gaussian_source(grid, width=1.0, center=(0.5, 0.5, 0.5))


@pytest.mark.xfail(raises=IndexError, strict=True, reason="ROADMAP 4b: short centre")
def test_gaussian_source_short_center_rejected():
    grid = GridSpec((8.0, 8.0), (16, 16))
    with pytest.raises(DimensionError):
        gaussian_source(grid, width=1.0, center=(0.5,))


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_norm_monotonicity(seed):
    grid = GridSpec((6.0, 6.0), (24, 24))
    u = random_band_limited(grid, seed=seed)
    assert weighted_norm(u, IsoWeight(2, 0.5)) <= weighted_norm(u, IsoWeight(2, 1.5))
    assert weighted_norm(u, IsoWeight(2, -1.0)) <= weighted_norm(u, IsoWeight(2, 0.0))


@pytest.mark.parametrize("seed", [5, 6])
def test_duality_surrogate(seed):
    # |<u, v>| <= |w u| |v / w| for any positive weight
    grid = GridSpec((6.0, 6.0), (24, 24))
    u = random_band_limited(grid, seed=seed)
    v = random_band_limited(grid, seed=seed + 100)
    for w, winv in (
        (IsoWeight(2, 1.2), IsoWeight(2, -1.2)),
        (SplitWeight(2, 1, 0.7, 0.4), SplitWeight(2, 1, -0.7, -0.4)),
    ):
        lhs = abs(u.inner(v))
        rhs = weighted_norm(u, w) * weighted_norm(v, winv)
        assert lhs <= rhs * (1.0 + 1e-12)


def test_retarded_energy_rides_null_diagonals():
    # 1+1 retarded solution of a point-like source: spectral energy rides the
    # characteristic diagonals zeta_t = +-zeta_x.  Mean-free source: the
    # shift-kind inverse scales the constant mode by -1/eps^2, which would
    # otherwise bury the wave part under a flat offset.
    grid = GridSpec((16.0, 16.0), (128, 128))
    f = gaussian_source(grid, width=4.0 * grid.deltas[0])
    c = np.array(f.coeffs)
    c[0, 0] = 0.0
    f = SpectralField.from_coeffs(grid, c, dict(f.meta))
    u = propagate(f, Prescription(Kind.RETARDED, eps=0.4))
    # each frequency goes to the nearest of the four axis and four diagonal
    # directions (ties to the lower index, the zero mode to +e1)
    r = 1.0 / np.sqrt(2.0)
    axes = np.array(
        [(1, 0), (-1, 0), (0, 1), (0, -1), (r, r), (r, -r), (-r, r), (-r, -r)]
    )
    xi = grid.freq_mesh()
    owner = np.argmax(np.einsum("sd,d...->s...", axes, xi), axis=0)
    energy = np.abs(u.coeffs) ** 2
    en = np.array([np.sum(energy[owner == k]) for k in range(len(axes))])
    assert max(en[4:]) > max(en[:4])
    assert np.argmax(en) >= 4
