"""Picard iteration, dealiased powers, and the coupling-series expansion."""

import hashlib
import json
import tracemalloc
from collections import Counter

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from feynlab import propagators, semilinear
from feynlab.errors import DimensionError
from feynlab.fields import GridSpec, SpectralField, gaussian_source, random_band_limited
from feynlab.propagators import (
    Kind,
    Prescription,
    apply_box,
    prescription_residual,
    propagate,
)
from feynlab.semilinear import (
    PicardReport,
    SemilinearProblem,
    dealiased_power,
    dealiased_product,
    perturbation_series,
    picard_solve,
)


GRID = GridSpec((16.0, 16.0), (64, 64))


def source(scale=1.0):
    return scale * gaussian_source(GRID, width=1.0)


# --- dealiasing ----------------------------------------------------------

def test_dealiased_square_kills_out_of_band_mode():
    # mode 20 squared lands on mode 40, past the Nyquist slot 32: the naive
    # pointwise square folds it back into the band, the padded one drops it
    x = np.meshgrid(*GRID.axes(), indexing="ij")[0]
    mode = SpectralField(GRID, np.exp(1j * 20 * (2 * np.pi / 16.0) * x))
    clean = dealiased_power(mode, 2)
    naive = SpectralField(GRID, mode.values**2)
    assert clean.norm() <= 1e-12
    assert naive.norm() > 1.0


def test_dealiased_square_matches_naive_in_band():
    x, t = np.meshgrid(*GRID.axes(), indexing="ij")
    k = 2 * np.pi / 16.0
    low = SpectralField(GRID, np.cos(3 * k * x) * np.cos(2 * k * t))
    diff = dealiased_power(low, 2) - SpectralField(GRID, low.values**2)
    assert diff.norm() <= 1e-12


GRID_3D = GridSpec((6.0, 5.0, 8.0), (6, 10, 12))


def fold(u, p):
    # the left fold of pairwise products: the power the series recursion forms
    out = u
    for _ in range(p - 1):
        out = dealiased_product(out, u)
    return out


def test_product_golden_digest():
    # sha256 of the pairwise product's values, recorded before the product
    # moved onto the unshifted embed and restrict of the power
    pins = [
        (source(), random_band_limited(GRID, seed=5),
         "820997a3ba50e91ec52c0ccf1055d0e6f8c101177e4776c50cfa9b6fc080a601"),
        (random_band_limited(GRID_3D, seed=11), random_band_limited(GRID_3D, seed=12),
         "38359323cd0afaead8d4332c2f66d8c3870db3f2af2d765889f7f01cdffc8c0c"),
    ]
    for a, b, digest in pins:
        assert hashlib.sha256(dealiased_product(a, b).values.tobytes()).hexdigest() == digest


@pytest.mark.parametrize("grid", [GRID, GRID_3D], ids=["2d", "3d"])
def test_square_is_the_pairwise_product(grid):
    u = random_band_limited(grid, seed=7, band=0.9)
    assert np.array_equal(dealiased_power(u, 2).values, dealiased_product(u, u).values)


def test_power_is_the_pairwise_fold():
    # equal in exact arithmetic (a restriction then an embedding is the band
    # projection the power applies on the fine grid); equal to rounding here
    for u in (source(), random_band_limited(GRID_3D, seed=7, band=0.9)):
        for p in (3, 4, 5):
            ref = fold(u, p).values
            err = np.max(np.abs(dealiased_power(u, p).values - ref))
            assert err <= 1e-14 * np.max(np.abs(ref))


def test_power_projects_before_each_factor():
    # u^2 = 1/2 + cos(40 k x)/2, and mode 40 is past the Nyquist slot 32: the
    # fold drops it before the third factor, so u^3 comes out as u/2.  A cube
    # taken on the fine grid without that projection keeps 3/4 of u.
    x = np.meshgrid(*GRID.axes(), indexing="ij")[0]
    u = SpectralField(GRID, np.cos(20 * (2 * np.pi / 16.0) * x))
    assert (fold(u, 3) - 0.5 * u).norm() <= 1e-12
    assert (dealiased_power(u, 3) - 0.5 * u).norm() <= 1e-12


@pytest.fixture
def fft_calls(monkeypatch):
    # (shape, transformed lines) per call, the lines size / shape[axis]
    # summed over the axes the call runs on; counted through the np.fft
    # attributes, so this also pins that the products look the transforms up
    # at call time
    calls = []
    for name in ("fftn", "ifftn"):
        fn = getattr(np.fft, name)

        def counted(a, *args, _fn=fn, **kwargs):
            shape = np.shape(a)
            axes = kwargs.get("axes") or range(len(shape))
            calls.append((shape, sum(int(np.prod(shape)) // shape[k] for k in axes)))
            return _fn(a, *args, **kwargs)

        monkeypatch.setattr(np.fft, name, counted)
    return calls


# GRID is 64^2 on a 96^2 fine grid.  A coarse transform runs 64 + 64 lines;
# a fine one, pruned to or from the band, 64 + 96 (a full one 96 + 96).
COARSE_LINES, FINE_LINES = 64 + 64, 64 + 96


def test_power_makes_2p_transforms(fft_calls):
    # one coarse transform in, 2p - 2 pruned fine ones, one coarse out
    u = source()
    for p in (2, 3, 4, 5):
        fft_calls.clear()
        dealiased_power(u, p)
        assert sum(lines for _, lines in fft_calls) == 2 * COARSE_LINES + (2 * p - 2) * FINE_LINES


@pytest.mark.parametrize("p", [3, 5])
def test_picard_iteration_makes_2p_minus_2_fine_transforms(fft_calls, p):
    # the loop runs on coefficients: the power's fine-grid transforms and no
    # coarse one.  tol 0 keeps both runs going, and the residual after the
    # loop costs the same in both (a fresh source each time, so neither run
    # finds its spectrum cached)
    runs = []
    for max_iter in (3, 4):
        fft_calls.clear()
        picard_solve(SemilinearProblem(f=source(), p=p, lam=0.1), max_iter=max_iter, tol=0.0)
        runs.append(Counter())
        for shape, lines in fft_calls:
            runs[-1]["coarse" if shape == GRID.points else "fine"] += lines
    assert runs[1]["coarse"] == runs[0]["coarse"]
    assert runs[1]["fine"] - runs[0]["fine"] == (2 * p - 2) * FINE_LINES


@given(
    st.lists(st.sampled_from([4, 6, 8, 10]), min_size=2, max_size=4),
    st.integers(0, 2**32 - 1),
)
def test_pruned_transforms_are_the_full_ones_on_the_band(points, seed):
    fine, band, _ = semilinear._fine_grid(tuple(points))
    # the band as the integer index the products used before it was sliced
    ix = np.ix_(*[np.r_[0 : N // 2, M - N // 2 : M] for N, M in zip(points, fine)])
    rng = np.random.default_rng(seed)
    full = rng.standard_normal(fine) + 1j * rng.standard_normal(fine)
    assert np.array_equal(semilinear._to_band(full.copy(), band)[ix], np.fft.fftn(full)[ix])
    padded = np.zeros(fine, dtype=np.complex128)
    padded[ix] = full[ix]
    assert np.array_equal(semilinear._from_band(padded.copy(), band), np.fft.ifftn(padded))


def test_power_one_is_identity_and_zero_rejected():
    u = source()
    assert dealiased_power(u, 1) is u
    with pytest.raises(ValueError):
        dealiased_power(u, 0)
    with pytest.raises(ValueError):
        dealiased_power(u, 2.0)


def test_product_grid_mismatch():
    other = SpectralField(GridSpec((16.0, 16.0), (32, 32)), np.zeros((32, 32)))
    with pytest.raises(DimensionError):
        dealiased_product(source(), other)


def test_dealiasing_when_padded_size_rounds_up():
    # 3N/2 is odd for N = 10; the pad rounds up to the next even size
    grid = GridSpec((10.0, 10.0), (10, 10))
    x = np.meshgrid(*grid.axes(), indexing="ij")[0]
    k = 2 * np.pi / 10.0
    low = SpectralField(grid, np.cos(2 * k * x))
    diff = dealiased_power(low, 2) - SpectralField(grid, low.values**2)
    assert diff.norm() <= 1e-12


# --- problem validation --------------------------------------------------

def test_problem_rejects_bad_power():
    with pytest.raises(ValueError):
        SemilinearProblem(f=source(), p=1, lam=0.1)
    with pytest.raises(ValueError):
        SemilinearProblem(f=source(), p=3.0, lam=0.1)


def test_problem_rejects_nonfinite_coupling():
    with pytest.raises(ValueError):
        SemilinearProblem(f=source(), p=3, lam=float("inf"))


def test_problem_needs_space_and_time():
    line = GridSpec((8.0,), (32,))
    f = SpectralField(line, np.zeros(32))
    with pytest.raises(DimensionError):
        SemilinearProblem(f=f, p=3, lam=0.1)


# --- degenerate couplings ------------------------------------------------

def test_zero_coupling_is_a_plain_solve():
    prob = SemilinearProblem(f=source(), p=3, lam=0.0)
    u, rep = picard_solve(prob)
    assert rep.iterations == 2
    assert rep.converged and not rep.diverged
    assert (u - propagate(prob.f, prob.prescription)).norm() == 0.0


@pytest.mark.parametrize("kind", list(Kind))
def test_zero_coupling_reports_the_propagate_residual(kind):
    # one residual: with no nonlinear term Picard reports the linear one
    pres = Prescription(kind, eps=0.3)
    _, rep = picard_solve(SemilinearProblem(f=source(), p=3, lam=0.0, prescription=pres))
    assert rep.residual == prescription_residual(source(), propagate(source(), pres), pres)


def test_zero_source_converges_immediately():
    zero = SpectralField(GRID, np.zeros(GRID.points))
    u, rep = picard_solve(SemilinearProblem(f=zero, p=3, lam=0.5))
    assert rep.iterations == 1
    assert rep.converged
    assert u.norm() == 0.0


# --- the contraction regime ----------------------------------------------

def test_small_data_cubic_solve():
    prob = SemilinearProblem(f=source(), p=3, lam=0.1)
    u, rep = picard_solve(prob, max_iter=20, tol=1e-10)
    assert rep.converged and not rep.diverged
    assert rep.iterations <= 20
    assert rep.final_ratio <= 0.5
    assert rep.residual <= 1e-6
    assert all(r < 1.0 for r in rep.ratios)
    # fixed point of the iteration map, checked through the map itself
    back = propagate(prob.f - prob.lam * dealiased_power(u, prob.p), prob.prescription)
    assert (u - back).norm() <= 2 * rep.tol


MANUFACTURED_GRID = GridSpec((16.0, 16.0), (96, 96))


@pytest.mark.parametrize("p,lam", [(3, 0.5), (5, 2.0)])
@pytest.mark.parametrize("kind", [Kind.FEYNMAN, Kind.ANTIFEYNMAN, Kind.RETARDED])
def test_picard_recovers_a_manufactured_solution(kind, p, lam):
    # f is built from a known zero-mode-free, band-limited u*, so u* is the
    # fixed point of the discrete map and Picard must return it to rounding
    u_star = random_band_limited(MANUFACTURED_GRID, seed=3, band=0.3)
    u_star = (0.2 / np.max(np.abs(u_star.values))) * u_star
    pres = Prescription(kind, eps=0.3)
    f = apply_box(u_star, pres) + lam * dealiased_power(u_star, p)
    prob = SemilinearProblem(f=f, p=p, lam=lam, prescription=pres)
    u, rep = picard_solve(prob, tol=1e-13)
    assert rep.converged
    assert (u - u_star).norm() <= 1e-12 * u_star.norm()


def test_halving_source_does_not_worsen_contraction():
    _, full = picard_solve(SemilinearProblem(f=source(), p=3, lam=0.1))
    _, half = picard_solve(SemilinearProblem(f=source(0.5), p=3, lam=0.1))
    assert half.final_ratio <= full.final_ratio + 1e-12


def test_odd_power_is_odd_bitwise():
    up, _ = picard_solve(SemilinearProblem(f=source(), p=3, lam=0.1))
    um, _ = picard_solve(SemilinearProblem(f=-1.0 * source(), p=3, lam=0.1))
    assert np.array_equal(um.values, (-1.0 * up).values)


def test_coupling_derivative_at_zero():
    # d u / d lam at lam = 0 is -G((G f)^p)
    f = source()
    pres = Prescription(Kind.FEYNMAN)
    h = 1e-4
    uh, _ = picard_solve(SemilinearProblem(f=f, p=3, lam=h), max_iter=60, tol=1e-14)
    u0 = propagate(f, pres)
    fd = (1.0 / h) * (uh - u0)
    pred = -1.0 * propagate(dealiased_power(u0, 3), pres)
    assert (fd - pred).norm() <= 1e-4 * pred.norm()


def test_divergence_is_flagged_not_raised():
    prob = SemilinearProblem(f=source(10.0), p=3, lam=50.0)
    u, rep = picard_solve(prob)
    assert rep.diverged and not rep.converged
    assert len(rep.ratios) >= 3
    assert all(r > 1.0 for r in rep.ratios[-3:])
    assert np.all(np.isfinite(u.values))  # partial iterate still usable


def test_non_finite_iterate_is_divergence():
    # lam u^p overflows in the second iterate; the loop must stop there and
    # say so, not run to max_iter on NaN
    grid = GridSpec((16.0, 16.0), (32, 32))
    prob = SemilinearProblem(f=gaussian_source(grid, width=1.0, amplitude=30.0), p=5, lam=1e300)
    with np.errstate(all="ignore"):
        _, rep = picard_solve(prob, max_iter=40)
    assert rep.diverged and not rep.converged
    assert rep.iterations == 2
    assert np.isfinite(rep.diffs[0]) and not np.isfinite(rep.diffs[-1])


def test_residual_against_operator_route():
    # recompute the residual from the forward operator, independently
    prob = SemilinearProblem(f=source(), p=3, lam=0.1)
    u, rep = picard_solve(prob)
    r = apply_box(u, prob.prescription) + prob.lam * dealiased_power(u, 3) - prob.f
    rc = np.array(r.coeffs)
    fc = np.array(prob.f.coeffs)
    rc[0, 0] = 0.0  # the rotation prescriptions solve the projected equation
    fc[0, 0] = 0.0
    manual = np.sqrt(np.sum(np.abs(rc) ** 2)) / np.sqrt(np.sum(np.abs(fc) ** 2))
    assert abs(manual - rep.residual) <= 1e-12 * max(1.0, manual)


def test_shift_prescription_keeps_full_residual():
    prob = SemilinearProblem(
        f=source(), p=3, lam=0.1, prescription=Prescription(Kind.RETARDED, eps=0.5)
    )
    u, rep = picard_solve(prob)
    assert rep.converged
    r = apply_box(u, prob.prescription) + prob.lam * dealiased_power(u, 3) - prob.f
    manual = r.norm() / prob.f.norm()
    assert abs(manual - rep.residual) <= 1e-12 * max(1.0, manual)


@pytest.mark.parametrize("p", [3, 5])
def test_residual_is_that_of_the_returned_iterate(p):
    # the loop's last power belongs to the iterate before the returned one,
    # so the residual forms the power of the returned u once more
    pres = Prescription(Kind.FEYNMAN)
    prob = SemilinearProblem(f=source(), p=p, lam=0.1, prescription=pres)
    u, rep = picard_solve(prob)
    nonlinear = prob.lam * dealiased_power(u, p)
    assert rep.residual == prescription_residual(prob.f, u, pres, nonlinear)


@pytest.mark.parametrize(
    "pres", [Prescription(Kind.FEYNMAN), Prescription(Kind.RETARDED, eps=0.5)]
)
def test_solve_builds_the_multiplier_once(monkeypatch, pres):
    # the inverse is built once per solve and the residual applies the
    # multiplier to the last iterate; no iteration builds one of its own
    calls = []
    build = propagators._multiplier

    def counted(*args):
        calls.append(args)
        return build(*args)

    monkeypatch.setattr(propagators, "_multiplier", counted)
    counts = []
    for max_iter in (3, 4):
        calls.clear()
        prob = SemilinearProblem(f=source(), p=3, lam=0.1, prescription=pres)
        _, rep = picard_solve(prob, max_iter=max_iter, tol=0.0)
        assert rep.iterations == max_iter
        counts.append(len(calls))
    assert counts[0] == counts[1]


STEP_GRID = GridSpec((16.0, 16.0), (32, 32))


@pytest.mark.parametrize("grid", [STEP_GRID, GRID_3D], ids=["2d", "3d"])
@pytest.mark.parametrize("kind", list(Kind))
def test_picard_step_is_the_propagate_of_the_power(grid, kind):
    # the coefficient-space step against the map it implements, one iterate
    # at a time: u_{k+1} = propagate(f - lam u_k^p) through dealiased_power
    pres = Prescription(kind, eps=0.3)
    f = random_band_limited(grid, seed=2)
    f = (1.0 / np.max(np.abs(propagate(f, pres).values))) * f  # max |u_2| = 1
    for p in (2, 3, 4, 5):
        prob = SemilinearProblem(f=f, p=p, lam=0.1, prescription=pres)
        iterates = [picard_solve(prob, max_iter=k, tol=0.0)[0] for k in (1, 2, 3, 4)]
        for u_k, u_next in zip(iterates, iterates[1:]):
            ref = propagate(f - prob.lam * dealiased_power(u_k, p), pres)
            scale = np.max(np.abs(u_next.values))
            assert np.max(np.abs(u_next.values - ref.values)) <= 1e-13 * scale


@pytest.mark.parametrize("p,lam", [(3, 0.5), (5, 2.0)])
def test_solve_peak_memory(p, lam):
    # peak traced allocation of a 192^2 solve, in fine-grid arrays (288^2
    # complex): 6.79 at p = 3 and 5 while the loop ran on values through
    # propagate and dealiased_power, 5.40 on coefficients and two buffers.
    # One untraced solve first, so that first-use imports are not counted.
    grid = GridSpec((16.0, 16.0), (192, 192))
    pres = Prescription(Kind.FEYNMAN, eps=0.3)

    def solve():
        f = gaussian_source(grid, width=1.0)
        return picard_solve(SemilinearProblem(f=f, p=p, lam=lam, prescription=pres),
                            max_iter=40, tol=1e-12)

    solve()
    tracemalloc.start()
    try:
        _, rep = solve()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert rep.converged
    assert peak < 6.0 * 288 * 288 * 16


# --- the report ----------------------------------------------------------

def test_report_serializes_and_flags_small_data():
    prob = SemilinearProblem(f=source(0.01), p=3, lam=0.1)
    _, rep = picard_solve(prob)
    d = rep.to_dict()
    json.dumps(d)
    assert d["small_data"] is True
    assert d["smallness_bound"] == pytest.approx(0.1 * np.sqrt(16.0 * 16.0))
    assert d["norm_f"] == pytest.approx(prob.f.norm())
    assert d["weights"] is None  # weight arithmetic needs ambient dimension >= 3


def test_large_data_flagged():
    prob = SemilinearProblem(f=source(40.0), p=3, lam=0.0)
    _, rep = picard_solve(prob)
    assert not rep.small_data


def test_weights_verdict_in_four_dimensions():
    grid = GridSpec((4.0,) * 4, (8,) * 4)
    f = SpectralField(grid, np.zeros(grid.points))
    prob = SemilinearProblem(f=f, p=3, lam=0.1)
    v = prob.weights_verdict()
    assert v is not None
    assert v["admissible"] is False
    assert v["cubic_admissible"] is True
    assert v["annotations"] == {"l": None, "m": None, "k": None}
    json.dumps(v)


# --- the coupling series -------------------------------------------------

def test_series_order_zero_is_the_linear_solve():
    prob = SemilinearProblem(f=source(), p=3, lam=0.1)
    c = perturbation_series(prob, 0)
    assert len(c) == 1
    assert (c[0] - propagate(prob.f, prob.prescription)).norm() == 0.0


def test_series_first_correction():
    prob = SemilinearProblem(f=source(), p=3, lam=0.1)
    c = perturbation_series(prob, 1)
    # the series forms its powers from pairwise products, term by term
    ref = -1.0 * propagate(fold(c[0], 3), prob.prescription)
    assert np.array_equal(c[1].values, ref.values)


def test_series_second_correction_matches_multinomial():
    prob = SemilinearProblem(f=source(), p=3, lam=0.1)
    c = perturbation_series(prob, 2)
    # [lam^1] (c0 + lam c1)^3 = 3 c0^2 c1
    mixed = dealiased_product(dealiased_product(c[0], c[0]), c[1])
    ref = -3.0 * propagate(mixed, prob.prescription)
    assert (c[2] - ref).norm() <= 1e-6 * max(ref.norm(), 1.0)


# sha256 of the values of c_0..c_3, joined, per (grid, kind, p); recorded
# before the recursion moved from degree-indexed dicts to a Cauchy product
SERIES_PINS = {
    ("2d", "feynman"): (
        "4e88a8bafaa7e1432d2d4f3561faba022d5ebdd268532852899377f6cc8954e5",
        "2ac4bfe90acf0b0fa78453d58b70336322e7f53d5f2fb850e8993d1893cb6901",
        "a714a6506a3416ab8f601f14ece825d3c1b2958cffee50914a4821996d636769",
        "42faeb78f22820e197e2b005bba12af35b944346b2e23721c5fd0092b8f6b86d",
    ),
    ("2d", "retarded"): (
        "513bd6d009f4cd8066055d1e7f0dffe16b4282ee37af1e947d494ef6f7409a3b",
        "5307c78ec7c5925a13fe684a4fcab6f6b4d92995f6bbe539e6f1e6cd9bccbe31",
        "f3def33fff5992acb9de29a3b5d2a0603c27361cd03460413afb52df61ddc53b",
        "70fa1975f298280ffea091b33e0d926009d625ed2e32ad3cc00acc4c1c36e756",
    ),
    ("3d", "feynman"): (
        "659bb33196aa9500a287ca0002bdf0ac9ca34ff1320eec86b0a01fb025a96778",
        "66824bdb315200c898f82b9648336262c89cccaf0adf87919a7216617753e4e7",
        "8b236bd4d2f2b8eb5de5e61a4f867f286bae24514f874f2100c632f62b8888dc",
        "2391f687e243ac5f3d30f0aa41d3e6f627df4cd4f052feedad762987fae8394d",
    ),
    ("3d", "retarded"): (
        "91253c986a2f59b786fccb81962603711d5af1536be8ea6cb92089fd86cd48d5",
        "a8a94d76d74b22d2928e465873b2b2088b0df262b845e6faa8cd7fe7fee340e6",
        "bcfb63540031733f22ef917860ab31591cf2b070dd2f093556948f71e310e728",
        "8ece126689bab9027ac8bbc19243824c47ed37f77d0736313567ae5c2ab77356",
    ),
}


@pytest.mark.parametrize("grid_id, kind", list(SERIES_PINS))
def test_series_golden_digest(grid_id, kind):
    f = source() if grid_id == "2d" else random_band_limited(GRID_3D, seed=7, band=0.9)
    pres = Prescription(Kind(kind))
    for p, digest in zip((2, 3, 4, 5), SERIES_PINS[grid_id, kind]):
        c = perturbation_series(SemilinearProblem(f=f, p=p, lam=0.1, prescription=pres), 3)
        assert hashlib.sha256(b"".join(x.values.tobytes() for x in c)).hexdigest() == digest


def test_series_negative_order_rejected():
    with pytest.raises(ValueError):
        perturbation_series(SemilinearProblem(f=source(), p=3, lam=0.1), -1)


def test_series_remainder_is_third_order():
    f = source()
    c = perturbation_series(SemilinearProblem(f=f, p=3, lam=0.0), 2)
    lams = [1e-2, 10**-2.5, 1e-3]
    errs = []
    for lam in lams:
        u, rep = picard_solve(
            SemilinearProblem(f=f, p=3, lam=lam), max_iter=60, tol=1e-14
        )
        assert rep.diffs[-1] <= 1e-14
        trunc = c[0] + lam * c[1] + lam**2 * c[2]
        errs.append((u - trunc).norm())
    slope = np.polyfit(np.log(lams), np.log(errs), 1)[0]
    assert abs(slope - 3.0) <= 0.2
