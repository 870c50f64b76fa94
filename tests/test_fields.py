"""Grids, spectral fields and seeded sources."""

import tracemalloc

import numpy as np
import pytest

from feynlab.errors import DimensionError
from feynlab.fields import GridSpec, SpectralField, gaussian_source, random_band_limited
from feynlab.propagators import Kind, Prescription, _form, default_epsilon, propagate


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
    [
        ((8.0,), (3,)), ((8.0,), (2,)), ((-1.0,), (8,)), ((8.0, 4.0), (8,)),
        # 10 (2 pi / L)^2 overflows, though the squared Nyquist frequency does not
        ((1.2e-153, 8.0), (4, 8)),
    ],
)
def test_grid_rejects_bad_specs(extent, points):
    with pytest.raises((ValueError, DimensionError)):
        GridSpec(extent, points)


def accepts(extent, points):
    try:
        GridSpec(extent, points)
    except ValueError:
        return False
    return True


@pytest.mark.parametrize("points", [4, 6, 8, 64])
def test_smallest_accepted_extent_has_finite_squared_frequencies(points):
    # bisect the float ordering for the smallest extent the grid accepts on
    # its first axis; there default_epsilon (which at N = 4 overflows before
    # the squared Nyquist frequency does) and the symbol are finite, and the
    # next float down is rejected
    shape = (points, 8)
    lo = np.float64(1e-160).view(np.int64)
    hi = np.float64(1.0).view(np.int64)
    assert not accepts((float(lo.view(np.float64)), 8.0), shape)
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if accepts((float(mid.view(np.float64)), 8.0), shape):
            hi = mid
        else:
            lo = mid
    grid = GridSpec((float(hi.view(np.float64)), 8.0), shape)
    assert np.isfinite(default_epsilon(grid))
    with np.errstate(all="raise"):
        assert np.isfinite(_form(grid, 1.0)).all()


def test_fft_round_trip_and_parseval():
    grid = GridSpec((6.0, 6.0), (32, 32))
    u = random_band_limited(grid, seed=11)
    back = SpectralField.from_coeffs(grid, u.coeffs)
    err = np.max(np.abs(back.values - u.values)) / np.max(np.abs(u.values))
    assert err <= 1e-12
    spec_norm = float(np.sqrt(np.sum(np.abs(u.coeffs) ** 2)))
    assert abs(spec_norm - u.norm()) <= 1e-12 * u.norm()


def peak_arrays(build, grid):
    """Peak memory while build() runs, in arrays of the grid's complex shape."""
    tracemalloc.start()
    try:
        build()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return peak / (16 * grid.total_points)


def test_fields_own_fresh_arrays_and_copy_a_callers():
    grid = GridSpec((8.0, 8.0), (256, 256))
    c = np.ones(grid.points, dtype=np.complex128)
    f = SpectralField(grid, c)
    # a caller's array is copied and made read-only; the caller's stays writable
    assert not np.shares_memory(f.values, c) and c.flags.writeable
    assert not f.values.flags.writeable
    # from_coeffs and the operators hand their fresh result over without a copy
    assert peak_arrays(lambda: SpectralField.from_coeffs(grid, c), grid) < 1.1
    assert peak_arrays(lambda: f + f, grid) < 1.1
    g = f + f
    assert not g.values.flags.writeable
    assert np.array_equal(g.values, 2.0 * c)


def test_gaussian_source_long_center_rejected():
    grid = GridSpec((8.0, 8.0), (16, 16))
    with pytest.raises(DimensionError):
        gaussian_source(grid, width=1.0, center=(0.5, 0.5, 0.5))


@pytest.mark.xfail(raises=IndexError, strict=True, reason="ROADMAP item 4: short centre")
def test_gaussian_source_short_center_rejected():
    grid = GridSpec((8.0, 8.0), (16, 16))
    with pytest.raises(DimensionError):
        gaussian_source(grid, width=1.0, center=(0.5,))


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
