"""Grid, spectral field and weighted-norm diagnostics."""

import numpy as np
import pytest

from feynlab.errors import DimensionError, InsufficientDataError
from feynlab.fields import (
    GridSpec,
    SpectralField,
    decay_rate,
    gaussian_source,
    random_band_limited,
    read_field,
    sector_energies,
    weighted_norm,
    window_array,
    write_field,
)
from feynlab.propagators import Kind, Prescription, propagate
from feynlab.weights import (
    IsoWeight,
    OrderFunction,
    SplitWeight,
    VariableWeight,
    bracket,
    sector_partition,
)


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


def test_sector_energies_single_mode():
    grid = GridSpec((2.0 * np.pi, 2.0 * np.pi), (16, 16))
    c = np.zeros((16, 16), dtype=complex)
    c[4, 0] = 1.0  # frequency (4, 0): the +e1 sector
    u = SpectralField.from_coeffs(grid, c)
    sectors = sector_partition(2)
    en = sector_energies(u, None, sectors)
    assert en["+e1"] > 0
    for lbl, val in en.items():
        if lbl != "+e1":
            assert val == 0.0


def test_sector_energies_sum_matches_variable_norm():
    grid = GridSpec((6.0, 6.0), (24, 24))
    u = random_band_limited(grid, seed=9)
    order = OrderFunction(dim=2, base=0.7)
    sectors = sector_partition(2, refine=2)
    en = sector_energies(u, order, sectors)
    total = sum(en.values())
    norm2 = weighted_norm(u, VariableWeight(order)) ** 2
    np.testing.assert_allclose(total, norm2, rtol=1e-10)


def test_sector_energies_resolution_stability():
    # band-limited Gaussian: energies move < 10% when resolution doubles
    sectors = sector_partition(2, refine=2)
    results = []
    for npts in (64, 128):
        grid = GridSpec((12.0, 12.0), (npts, npts))
        u = gaussian_source(grid, width=2.0, modulation=(3.0, 1.0))
        en = sector_energies(u, None, sectors)
        tot = sum(en.values())
        results.append({k: v / tot for k, v in en.items()})
    for k in results[0]:
        a, b = results[0][k], results[1][k]
        if max(a, b) > 1e-6:
            assert abs(a - b) <= 0.10 * max(a, b)


def test_sector_energies_retarded_null_directions():
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
    sectors = sector_partition(2, refine=2)
    en = sector_energies(u, None, sectors)
    diag = {k: v for k, v in en.items() if k.count("e") == 2}
    axis = {k: v for k, v in en.items() if k.count("e") == 1}
    assert max(diag.values()) > max(axis.values())
    top = max(en, key=en.get)
    assert top in diag


def test_sector_energies_empty_partition():
    grid = GridSpec((4.0, 4.0), (8, 8))
    u = random_band_limited(grid, seed=1)
    with pytest.raises(IndexError):
        sector_energies(u, None, [])


@pytest.mark.parametrize("power,slope", [(2.0, 2.0), (1.0, 1.0)])
def test_decay_rate_synthetic_power_law(power, slope):
    grid = GridSpec((160.0, 160.0), (256, 256))
    mesh = grid.mesh()
    vals = bracket(mesh) ** (-power)
    u = SpectralField(grid, vals)
    got = decay_rate(u)
    assert abs(got - slope) <= 0.2


def test_decay_rate_zero_field():
    grid = GridSpec((40.0, 40.0), (64, 64))
    u = SpectralField(grid, np.zeros((64, 64)))
    with pytest.raises(InsufficientDataError):
        decay_rate(u)


def test_window_array_profile():
    grid = GridSpec((10.0, 10.0), (64, 64))
    w = window_array(grid, margin=0.2)
    assert w[32, 32] == 1.0  # center untouched
    assert w[0, 0] == 0.0  # corner zeroed
    assert np.all((0.0 <= w) & (w <= 1.0))


def test_field_dump_round_trip(tmp_path):
    grid = GridSpec((6.0, 4.0), (16, 12))
    u = random_band_limited(grid, seed=21)
    path = tmp_path / "u.field"
    write_field(path, u)
    v = read_field(path)
    assert v.grid == grid
    np.testing.assert_array_equal(v.values, u.values)
    assert v.meta["seed"] == 21
