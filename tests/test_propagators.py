"""Regularized wave-multiplier inverses and their oracles."""

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from feynlab.errors import DimensionError, ZeroModeError
from feynlab.fields import (
    GridSpec,
    SpectralField,
    gaussian_source,
    random_band_limited,
)
from feynlab.propagators import (
    Kind,
    Prescription,
    _form,
    _multiplier,
    _symbol_gap,
    apply_box,
    characteristic_energy_fraction,
    default_epsilon,
    mode_profile,
    prescription_residual,
    propagate,
    wick_continuation_study,
)

ALL_KINDS = list(Kind)
ROTATIONS = (Kind.FEYNMAN, Kind.ANTIFEYNMAN)
# <G f, g> = <f, G* g>: each kind's multiplier is the pointwise conjugate of
# its partner's on the real lattice
ADJOINT = {
    Kind.RETARDED: Kind.ADVANCED,
    Kind.ADVANCED: Kind.RETARDED,
    Kind.FEYNMAN: Kind.ANTIFEYNMAN,
    Kind.ANTIFEYNMAN: Kind.FEYNMAN,
}


def band_limited_off_characteristic(grid, seed, gap_frac=4.0):
    """Random field with every coefficient at least gap_frac * min-gap away
    from the characteristic cone (and no zero mode)."""
    u = random_band_limited(grid, seed=seed)
    zeta = np.array(np.meshgrid(*grid.freq_axes(), indexing="ij"))
    p = zeta[-1] ** 2 - np.sum(zeta[:-1] ** 2, axis=0)
    nz = np.abs(p)[np.abs(p) > 0]
    c = np.array(u.coeffs)
    c[np.abs(p) < gap_frac * float(nz.min())] = 0.0
    return SpectralField.from_coeffs(grid, c, dict(u.meta))


def wick(theta):
    """The form's a for the Wick rotation by theta: a = e^{-2 theta}."""
    return np.exp(-2.0 * complex(theta))


def test_wick_form_substitutions():
    # extent 2 pi: the lattice step is 1, so index k sits at frequency k
    plane = GridSpec((2.0 * np.pi,) * 2, (4, 4))
    assert _form(plane, wick(0.0))[0, 1] == pytest.approx(1.0)
    assert _form(plane, wick(1j * np.pi / 2.0))[0, 1] == pytest.approx(-1.0, abs=1e-12)
    space = GridSpec((2.0 * np.pi,) * 4, (4,) * 4)
    assert _form(space, wick(0.0))[1, 0, 0, 1] == pytest.approx(0.0, abs=1e-15)
    # theta = 0 is the plain symbol p, bit for bit
    grid = GridSpec((5.0, 7.0, 3.0), (6, 8, 4))
    zeta = np.array(np.meshgrid(*grid.freq_axes(), indexing="ij"))
    p = zeta[-1] ** 2 - np.sum(zeta[:-1] ** 2, axis=0)
    assert np.array_equal(_form(grid, wick(0.0)), p)
    assert np.array_equal(_form(grid, 1.0), p)


def test_wick_form_euclidean_point_negative_definite():
    grid = GridSpec((3.0, 5.0, 4.0), (8, 6, 10))
    vals = _form(grid, wick(1j * np.pi / 2.0))
    off = np.ones(grid.points, dtype=bool)
    off[0, 0, 0] = False
    assert np.all(vals.real[off] < 0)
    assert np.max(np.abs(vals.imag)) <= 1e-12 * np.max(np.abs(vals.real))


@pytest.mark.parametrize("kind", ALL_KINDS)
def test_propagate_zero_source(kind):
    grid = GridSpec((8.0, 8.0), (16, 16))
    f = SpectralField(grid, np.zeros((16, 16)))
    u = propagate(f, Prescription(kind, eps=0.1))
    assert u.norm() == 0.0
    assert characteristic_energy_fraction(u, 1.0) == 0.0


def test_propagate_single_mode_feynman():
    grid = GridSpec((8.0, 8.0), (32, 32))
    eps = 0.01
    mesh = np.meshgrid(*grid.axes(), indexing="ij")
    zeta0 = (0.0, 2.0 * np.pi / 8.0)
    f = SpectralField(grid, np.exp(1j * (zeta0[0] * mesh[0] + zeta0[1] * mesh[1])))
    u = propagate(f, Prescription(Kind.FEYNMAN, eps=eps))
    mult = np.exp(2j * eps) * zeta0[1] ** 2 - zeta0[0] ** 2
    np.testing.assert_allclose(u.values, f.values / mult, rtol=1e-10)


def test_propagate_matches_dalembert_cone_kernel():
    # independent oracle: convolve the source with the damped cone kernel
    # -(1/2) H(t - |x|) e^{-eps t} built directly in position space
    grid = GridSpec((16.0, 16.0), (256, 256))
    eps = 0.5
    L = grid.extent[0]
    folds = 3
    f = gaussian_source(grid, width=8.0 * grid.deltas[0])
    u = propagate(f, Prescription(Kind.RETARDED, eps=eps))

    # the grid kernel is the full torus periodization of the continuum one:
    # fold forward time periods (damped tail beyond is ~ e^{-3 eps L}) and
    # every spatial image of the cone reached within those times. Edge cells
    # |x| = t sit exactly on the lattice; the jump gets midpoint weight 1/2.
    xax = grid.axes()[0][:, None]
    tax = grid.axes()[1][None, :]
    kernel = np.zeros(grid.points)
    for k in range(folds):
        t = tax + L * k
        damp = -0.5 * np.exp(-eps * t)
        for j in range(-(folds + 1), folds + 2):
            r = np.abs(xax + j * L)
            w = np.where(t > r + 1e-9, 1.0, np.where(np.abs(t - r) <= 1e-9, 0.5, 0.0))
            kernel += w * damp
    kf = np.fft.fftn(np.fft.ifftshift(kernel))
    fc = np.fft.fftn(f.values)
    conv = np.fft.ifftn(kf * fc) * grid.cell_volume
    err = np.sqrt(np.sum(np.abs(u.values - conv) ** 2))
    ref = np.sqrt(np.sum(np.abs(conv) ** 2))
    assert err <= 1e-2 * ref


def test_propagate_rejects_bad_eps():
    with pytest.raises(ValueError):
        Prescription(Kind.FEYNMAN, eps=0.0)
    with pytest.raises(ValueError):
        Prescription(Kind.FEYNMAN, eps=-1.0)


def test_rotation_eps_outside_the_angle_range_rejected():
    for kind in (Kind.FEYNMAN, Kind.ANTIFEYNMAN):
        for eps in (np.pi / 2, 2.74):
            with pytest.raises(ValueError, match="angle"):
                Prescription(kind, eps=eps)
    # a frequency shift has no upper end
    assert Prescription(Kind.RETARDED, eps=2.74).eps == 2.74


@pytest.mark.parametrize("extent", [11.21, 12.0, 16.0])
def test_rotation_default_is_an_angle_with_the_kind_sign(extent):
    # default_epsilon is 3.1416, 2.74 and 1.54 rad here: read as an angle it
    # would make the multiplier almost real, give Feynman the anti-Feynman
    # sign, or sit next to the Euclidean end
    grid = GridSpec((extent, extent), (16, 16))
    f = random_band_limited(grid, seed=0)
    xi, zt = np.meshgrid(*grid.freq_axes(), indexing="ij")
    pure_time = (xi == 0.0) & (zt != 0.0)
    for kind, sign in ((Kind.FEYNMAN, 1.0), (Kind.ANTIFEYNMAN, -1.0)):
        eps = propagate(f, Prescription(kind)).meta["eps"]
        assert 0.0 < eps < np.pi / 2
        assert eps == min(default_epsilon(grid), np.pi / 4)
        # Im e^{2i eps} > 0 for Feynman, Im e^{-2i eps} < 0 for anti-Feynman
        assert np.all(sign * _multiplier(grid, kind, eps)[pure_time].imag > 0.0)
    for kind in (Kind.RETARDED, Kind.ADVANCED):
        assert propagate(f, Prescription(kind)).meta["eps"] == default_epsilon(grid)


def test_propagate_coarse_grid_warning():
    grid = GridSpec((8.0, 8.0), (16, 16))
    f = random_band_limited(grid, seed=0)
    gap_eps = 1e-6  # far below the lattice symbol gap
    u = propagate(f, Prescription(Kind.FEYNMAN, eps=gap_eps))
    assert u.meta["coarse_grid_warning"] is True
    v = propagate(f, Prescription(Kind.FEYNMAN))  # grid-scaled default
    assert v.meta["coarse_grid_warning"] is False


def test_zero_mode_policies():
    grid = GridSpec((8.0, 8.0), (16, 16))
    eps = 0.1
    vals = np.ones((16, 16)) + 0.1 * np.cos(
        2.0 * np.pi / 8.0 * np.meshgrid(*grid.axes(), indexing="ij")[0]
    )
    f = SpectralField(grid, vals)
    # rotated multiplier vanishes at 0: mode projected
    uf = propagate(f, Prescription(Kind.FEYNMAN, eps=eps))
    assert abs(np.mean(uf.values)) <= 1e-12
    assert uf.meta["zero_mode_projected"] is True
    # shifted multiplier is -eps^2 at 0: mode inverted
    ur = propagate(f, Prescription(Kind.RETARDED, eps=eps))
    assert ur.meta["zero_mode_projected"] is False
    np.testing.assert_allclose(np.mean(ur.values), 1.0 / (-(eps**2)), rtol=1e-10)


@pytest.mark.parametrize("kind", ALL_KINDS)
def test_residual_exact_inverse(kind):
    grid = GridSpec((8.0, 8.0), (32, 32))
    f = random_band_limited(grid, seed=7)
    p = Prescription(kind, eps=0.05)
    u = propagate(f, p)
    assert prescription_residual(f, u, p) <= 1e-12


def test_residual_wick_parameter_match():
    # the rotation kinds are Wick parameters: Feynman <-> -i eps, anti-Feynman
    # <-> +i eps, so their residual is the rotated operator's, bit for bit
    grid = GridSpec((8.0, 8.0), (32, 32))
    eps = 0.05
    feyn = _multiplier(grid, Kind.FEYNMAN, eps)
    anti = _multiplier(grid, Kind.ANTIFEYNMAN, eps)
    assert np.array_equal(feyn, _form(grid, wick(-1j * eps)))
    assert np.array_equal(anti, _form(grid, wick(+1j * eps)))


def test_residual_zero_solution_is_one():
    grid = GridSpec((8.0, 8.0), (16, 16))
    f = random_band_limited(grid, seed=1)
    u = SpectralField(grid, np.zeros((16, 16)))
    for kind in ALL_KINDS:
        assert prescription_residual(f, u, Prescription(kind, eps=0.05)) == pytest.approx(1.0)


def test_residual_zero_source_is_absolute():
    # no source to divide by: the residual is |m u| (u has no zero mode, so
    # every kind's zero-mode rule gives the same sum)
    grid = GridSpec((8.0, 8.0), (16, 16))
    f = SpectralField(grid, np.zeros((16, 16)))
    u = random_band_limited(grid, seed=2)
    uc = np.array(u.coeffs)
    uc[0, 0] = 0.0
    for kind in ALL_KINDS:
        want = np.sqrt(np.sum(np.abs(_multiplier(grid, kind, 0.05) * uc) ** 2))
        assert want > 0.0
        assert prescription_residual(f, u, Prescription(kind, eps=0.05)) == want


def test_residual_eps_sweep_decreases():
    # |p u - f| / |f| against the unregularized symbol p shrinks with eps
    grid = GridSpec((12.0, 12.0), (64, 64))
    f = band_limited_off_characteristic(grid, seed=5)
    p = _form(grid, 1.0)
    res = []
    for eps in (0.2, 0.05, 0.01):
        u = propagate(f, Prescription(Kind.FEYNMAN, eps=eps))
        res.append(np.linalg.norm(p * u.coeffs - f.coeffs) / np.linalg.norm(f.coeffs))
    assert res[0] > res[1] > res[2]
    assert res[2] <= 0.05


def test_mode_profile_retarded_ode_oracle():
    omega = 3.0
    eps = 1e-3 * omega
    t = np.linspace(-10.0, 10.0, 2001)
    prof = mode_profile(omega, Prescription(Kind.RETARDED, eps=eps), t)
    oracle = -np.where(t >= 0, np.exp(-eps * t) * np.sin(omega * t) / omega, 0.0)
    err = np.linalg.norm(prof - oracle) / np.linalg.norm(oracle)
    assert err <= 1e-3
    # proportionality constant against the damped Green-function shape is -1
    shape = np.where(t >= 0, np.exp(-eps * t) * np.sin(omega * t) / omega, 0.0)
    scale = np.vdot(shape, prof) / np.vdot(shape, shape)
    assert abs(scale - (-1.0)) <= 1e-6


@pytest.mark.parametrize("omega", [0.5, 2.0, 7.0])
def test_mode_profile_feynman_oracle(omega):
    # against the ideal e^{-i omega |t|}/(2 i omega): the regularized profile
    # deviates by O(eps) in phase and O(eps*omega*t) in damping, so the
    # comparison uses eps well under the 1e-3*omega ceiling and a window of a
    # few periods
    eps = 1e-5 * omega
    t = np.linspace(-10.0 / omega, 10.0 / omega, 1601)
    prof = mode_profile(omega, Prescription(Kind.FEYNMAN, eps=eps), t)
    oracle = np.exp(-1j * omega * np.abs(t)) / (2j * omega)
    err = np.linalg.norm(prof - oracle) / np.linalg.norm(oracle)
    assert err <= 1e-3


def test_mode_profile_advanced_is_time_reflection():
    omega = 2.0
    eps = 1e-3
    t = np.linspace(-6.0, 6.0, 1201)
    adv = mode_profile(omega, Prescription(Kind.ADVANCED, eps=eps), t)
    ret = mode_profile(omega, Prescription(Kind.RETARDED, eps=eps), t)
    np.testing.assert_allclose(adv, ret[::-1], atol=1e-12)


def test_mode_profile_zero_mode_errors():
    # omega = 0 is a real double pole for the rotated multiplier only; the
    # shift kinds move it off the axis
    t = np.linspace(-1.0, 1.0, 11)
    for kind in (Kind.FEYNMAN, Kind.ANTIFEYNMAN):
        with pytest.raises(ZeroModeError):
            mode_profile(0.0, Prescription(kind, eps=0.1), t)
    for kind in (Kind.RETARDED, Kind.ADVANCED):
        assert np.all(np.isfinite(mode_profile(0.0, Prescription(kind, eps=0.1), t)))
    # the retarded double pole at i eps: G(t) = -t e^{-eps t} for t >= 0
    got = mode_profile(0.0, Prescription(Kind.RETARDED, eps=0.1), t)
    assert np.array_equal(got, np.where(t >= 0, -t * np.exp(-0.1 * t), 0.0))


def test_feynman_frequency_signature():
    # t > 0 half of the Feynman profile carries its energy at frequency -omega
    omega = 4.0
    eps = 1e-3 * omega
    t = np.arange(0.0, 40.0, 0.02)
    prof = mode_profile(omega, Prescription(Kind.FEYNMAN, eps=eps), t)
    spec = np.fft.fft(prof)
    freq = 2.0 * np.pi * np.fft.fftfreq(t.size, d=0.02)
    frac = np.sum(np.abs(spec[freq < 0]) ** 2) / np.sum(np.abs(spec) ** 2)
    assert frac >= 0.99


@pytest.mark.parametrize("kind", ALL_KINDS)
def test_linearity(kind):
    grid = GridSpec((8.0, 8.0), (32, 32))
    f = random_band_limited(grid, seed=10)
    g = random_band_limited(grid, seed=11)
    p = Prescription(kind, eps=0.07)
    lhs = propagate(2.0 * f + (-0.5j) * g, p)
    rhs = 2.0 * propagate(f, p) + (-0.5j) * propagate(g, p)
    assert (lhs - rhs).norm() <= 1e-12 * max(rhs.norm(), 1.0)


@pytest.mark.parametrize("pair", [(Kind.RETARDED, Kind.ADVANCED), (Kind.FEYNMAN, Kind.ANTIFEYNMAN)])
@pytest.mark.parametrize("seed", [0, 3, 9])
def test_adjoint_pairs(pair, seed):
    grid = GridSpec((8.0, 8.0), (32, 32))
    f = random_band_limited(grid, seed=seed)
    g = random_band_limited(grid, seed=seed + 50)
    ka, kb = pair
    lhs = propagate(f, Prescription(ka, eps=0.05)).inner(g)
    rhs = f.inner(propagate(g, Prescription(kb, eps=0.05)))
    assert abs(lhs - rhs) <= 1e-8 * f.norm() * g.norm()


@st.composite
def spectral_problems(draw):
    """A prescription with eps in [0.1, 1] and two full-spectrum random fields
    on a small 2-D or 3-D grid of varied extents."""
    dim = draw(st.integers(2, 3))
    points = tuple(draw(st.sampled_from([4, 6, 8])) for _ in range(dim))
    extent = tuple(draw(st.floats(0.5, 20.0)) for _ in range(dim))
    grid = GridSpec(extent, points)
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    f, g = (
        SpectralField(grid, rng.standard_normal(points) + 1j * rng.standard_normal(points))
        for _ in range(2)
    )
    pres = Prescription(draw(st.sampled_from(ALL_KINDS)), eps=draw(st.floats(0.1, 1.0)))
    return pres, f, g


@given(spectral_problems())
def test_propagate_inverts_apply_box(problem):
    # Rounding in the FFT round trips (~1e-16) is amplified by at most
    # max|m| / min|m| over the lattice, under 4e5 on these grids; the worst
    # seen over 3000 random draws was 5e-12, so 1e-9 relative leaves room.
    pres, f, _ = problem
    c = np.array(f.coeffs)
    c[(0,) * f.grid.dim] = 0.0
    u = SpectralField.from_coeffs(f.grid, c)
    back = propagate(apply_box(u, pres), pres)
    assert (back - u).norm() <= 1e-9 * u.norm()


@given(spectral_problems())
def test_adjoint_pairing_property(problem):
    # <G f, g> = <f, G* g> with the zero mode left in: the rotation kinds
    # project it on both sides, the shift kinds invert the same real -eps^2.
    # Rounding is amplified by at most 1 / min|m| <= 100 (eps >= 0.1); the
    # worst seen over 3000 random draws was 6e-15, so 1e-11 leaves room.
    pres, f, g = problem
    lhs = propagate(f, pres).inner(g)
    rhs = f.inner(propagate(g, Prescription(ADJOINT[pres.kind], eps=pres.eps)))
    assert abs(lhs - rhs) <= 1e-11 * f.norm() * g.norm()


def with_coeffs(grid, coeffs):
    """A field whose spectral coefficients are exactly `coeffs`: the cache
    is filled, so no FFT round trip rounds the other modes."""
    u = SpectralField.from_coeffs(grid, coeffs)
    fixed = np.array(coeffs, dtype=np.complex128)
    fixed.flags.writeable = False
    object.__setattr__(u, "_coeffs", fixed)
    return u


@given(spectral_problems())
def test_residual_counts_the_zero_mode_exactly_where_propagate_inverts_it(problem):
    # one zero-mode rule for the solve and its residual: a zero-mode-only
    # change of u moves the residual of the shift kinds (which invert -eps^2
    # there) and leaves the rotation kinds' residual bit for bit
    pres, f, _ = problem
    c = np.array(propagate(f, pres).coeffs)
    base = prescription_residual(f, with_coeffs(f.grid, c), pres)
    c.flat[0] += 1.0
    bumped = prescription_residual(f, with_coeffs(f.grid, c), pres)
    if pres.kind in ROTATIONS:
        assert bumped == base
    else:
        assert bumped > base


def full_lattice_gap(grid):
    """Reference: smallest nonzero |p| by a scan of the whole lattice."""
    zeta = np.array(np.meshgrid(*grid.freq_axes(), indexing="ij"))
    p = np.abs(zeta[-1] ** 2 - np.sum(zeta[:-1] ** 2, axis=0))
    nz = p[p > 0]
    return float(nz.min()) if nz.size else 0.0


@st.composite
def gap_grids(draw):
    """2-D and 3-D grids; equal extents put lattice points on the cone."""
    dim = draw(st.integers(2, 3))
    points = tuple(2 * draw(st.integers(2, 32 if dim == 2 else 10)) for _ in range(dim))
    if draw(st.booleans()):
        extent = (draw(st.floats(0.5, 50.0)),) * dim
    else:
        extent = tuple(draw(st.floats(0.5, 50.0)) for _ in range(dim))
    return GridSpec(extent, points)


@given(gap_grids())
@example(GridSpec((16.0, 16.0), (1024, 1024)))
def test_symbol_gap_equals_full_lattice_scan(grid):
    assert _symbol_gap(grid) == full_lattice_gap(grid)


def test_retarded_forward_support_small_grid():
    grid = GridSpec((16.0, 16.0), (128, 128))
    f = gaussian_source(grid, width=4.0 * grid.deltas[0])
    u = propagate(f, Prescription(Kind.RETARDED, eps=0.8))
    mesh = np.meshgrid(*grid.axes(), indexing="ij")
    x, t = mesh[0], mesh[1]
    collar = 3.0 * grid.deltas[0]
    outside = np.abs(x) > t + collar
    frac = np.sum(np.abs(u.values[outside]) ** 2) / np.sum(np.abs(u.values) ** 2)
    assert frac <= 1e-4


def test_wick_study_constant_path():
    grid = GridSpec((8.0, 8.0), (16, 16))
    f = random_band_limited(grid, seed=4)
    g = random_band_limited(grid, seed=5)
    out = wick_continuation_study(f, g, np.array([1j * np.pi / 2.0] * 3))
    assert out["diffs"] == [0.0, 0.0]
    # Euclidean point: multiplier -|zeta|^2, so the matrix element is real
    # negative for g = f
    out2 = wick_continuation_study(f, f, np.array([1j * np.pi / 2.0]))
    v = out2["values"][0]
    assert v.real < 0 and abs(v.imag) <= 1e-10 * abs(v)


def test_wick_study_single_mode_path():
    grid = GridSpec((8.0, 8.0), (16, 16))
    mesh = np.meshgrid(*grid.axes(), indexing="ij")
    zeta0 = (2.0 * np.pi / 8.0, 2.0 * 2.0 * np.pi / 8.0)
    vals = np.exp(1j * (zeta0[0] * mesh[0] + zeta0[1] * mesh[1]))
    f = SpectralField(grid, vals)
    path = np.array([0.3j, 0.1j, 0.05j])
    out = wick_continuation_study(f, f, path)
    norm2 = f.norm() ** 2
    for theta, val in zip(out["thetas"], out["values"]):
        want = norm2 / (wick(theta) * zeta0[1] ** 2 - zeta0[0] ** 2)
        np.testing.assert_allclose(val, want, rtol=1e-10)


def test_wick_study_path_validation():
    grid = GridSpec((8.0, 8.0), (16, 16))
    f = random_band_limited(grid, seed=6)
    with pytest.raises(ValueError):
        wick_continuation_study(f, f, np.array([0.1j, 0.0]))
    with pytest.raises(ValueError):
        wick_continuation_study(f, f, np.array([]))


def test_wick_study_limit_matches_pairing():
    # dual route: path terminal against the regularized-inverse pairing
    grid = GridSpec((12.0, 12.0), (64, 64))
    f = band_limited_off_characteristic(grid, seed=12)
    g = band_limited_off_characteristic(grid, seed=13)
    assert characteristic_energy_fraction(f, 0.5) < 1e-3
    eps_terminal = 2e-3
    path = 1j * np.geomspace(0.4, eps_terminal, 12)
    out = wick_continuation_study(f, g, path)
    diffs = out["diffs"]
    assert all(d2 < d1 for d1, d2 in zip(diffs, diffs[1:]))
    pairing = propagate(f, Prescription(Kind.ANTIFEYNMAN, eps=eps_terminal)).inner(g)
    # spectral pairing of the study uses the same Parseval normalization
    terminal = out["values"][-1]
    assert abs(terminal - pairing) <= 1e-3 * abs(pairing)


def test_default_epsilon_scale():
    grid = GridSpec((8.0, 4.0), (16, 16))
    assert default_epsilon(grid) == pytest.approx(10.0 * (2.0 * np.pi / 4.0) ** 2)


GRID_A = GridSpec((8.0, 8.0), (8, 8))
FIELD_A = SpectralField(GRID_A, np.ones((8, 8)))
FIELD_B = SpectralField(GridSpec((8.0, 6.0), (8, 8)), np.ones((8, 8)))
FIELD_1D = SpectralField(GridSpec((8.0,), (8,)), np.ones(8))
T = np.linspace(-1.0, 1.0, 5)


@pytest.mark.parametrize("call,error", [
    (lambda: apply_box(FIELD_1D, Prescription(Kind.FEYNMAN, eps=0.1)), DimensionError),
    # every entry point resolves its prescription through one helper, which
    # refuses a grid without a space and a time axis
    (lambda: prescription_residual(FIELD_1D, FIELD_1D, Prescription(Kind.RETARDED, eps=0.1)),
     DimensionError),
    (lambda: prescription_residual(FIELD_A, FIELD_B, Prescription(Kind.RETARDED, eps=0.1)),
     DimensionError),
    (lambda: wick_continuation_study(FIELD_A, FIELD_B, [0.5j]), DimensionError),
    (lambda: mode_profile(-1.0, Prescription(Kind.RETARDED, eps=0.1), T), ValueError),
    # omega must be finite: NaN would give [nan, 0, 0] silently, inf all NaN
    (lambda: mode_profile(np.nan, Prescription(Kind.RETARDED, eps=0.1), T), ValueError),
    (lambda: mode_profile(np.inf, Prescription(Kind.FEYNMAN, eps=0.1), T), ValueError),
    (lambda: mode_profile(1.0, Prescription(Kind.RETARDED), T), ValueError),
    # the rotation by 1e-300 leaves the pole of omega = 1e-30 on the real axis
    (lambda: mode_profile(1e-30, Prescription(Kind.FEYNMAN, eps=1e-300), T), ValueError),
], ids=["box-1d", "residual-1d", "residual-grids", "wick-grids", "profile-omega",
        "profile-omega-nan", "profile-omega-inf", "profile-eps", "profile-pole"])
def test_public_calls_reject_a_bad_grid_or_argument(call, error):
    with pytest.raises(error):
        call()


def test_propagate_needs_two_axes():
    grid = GridSpec((8.0,), (16,))
    f = random_band_limited(grid, seed=0)
    with pytest.raises(DimensionError):
        propagate(f, Prescription(Kind.FEYNMAN, eps=0.1))
