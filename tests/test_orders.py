"""Order functions along the flow, semilinear weights, product rules, and
Schur measurements."""

import hashlib
import math
import os
import signal
import sys
import threading
import time
from dataclasses import dataclass, field

import numpy as np
import pytest

from feynlab import orders
from feynlab.bichar import flow, random_null_rays
from feynlab.errors import DimensionError, ResolutionError
from feynlab.orders import (
    GROWTH_THRESHOLD,
    PRODUCT_RULES,
    _midpoint_lattice,
    _sup_samples,
    product_integral,
    product_rule_predict,
    rule_flat_model,
    rule_sweep,
    sweep_plan,
)
from feynlab.semilinear import semilinear_weights
from feynlab.weights import ConeWeight, IsoWeight, SplitWeight, SumWeight


def iso1(s):
    return IsoWeight(1, s)


# --- order functions along the flow -------------------------------------

def test_constructed_order_monotone_on_terminal_approach():
    # the flow drags the unit fiber to the +gamma pole; on the stretch below
    # rho = 0.1 the sampled order must never increase and must land exactly
    # on the dip value.  The order is 1.2 with a dip of 0.5 about the +gamma
    # pole of the fiber, listed as (gamma, sigma, eta) to put gamma on the
    # cone weight's axis +e0.
    order = ConeWeight(4, 1.2, 0.7, 0.15, 0.4).order
    dip = 0.7
    for c in random_null_rays(4, 50, seed=13):
        tr = flow(c, 40.0, tol=1e-10)
        dirs = np.array([(p.gamma, p.sigma) + tuple(p.eta) for p in tr.points]).T
        vals = order(dirs)
        rhos = np.array([p.rho for p in tr.points])
        idx = np.where(rhos >= 0.1)[0]
        seg = vals[(idx[-1] + 1) if idx.size else 0 :]
        assert seg.size >= 3
        assert np.all(np.diff(seg) <= 1e-12)
        assert seg[-1] == pytest.approx(dip, abs=1e-9)


# --- semilinear weight arithmetic ----------------------------------------
# (``feynlab.semilinear.semilinear_weights``)

def test_semilinear_cubic_four_dimensions_needs_fallback():
    sw = semilinear_weights(4, 3)
    assert not sw["admissible"]
    lo, hi = sw["l_interval"]
    assert lo >= hi  # empty interval
    assert sw["cubic_admissible"]
    assert sw["cubic_l_interval"] == (0.0, pytest.approx(1.0))


def test_semilinear_quartic_interval():
    sw = semilinear_weights(4, 4)
    assert sw["admissible"]
    assert sw["l_interval"][0] == pytest.approx(-1.0 / 3.0)
    assert sw["l_interval"][1] == 0.0


def test_semilinear_cubic_five_dimensions():
    sw = semilinear_weights(5, 3)
    assert sw["admissible"]
    assert sw["l_interval"] == (pytest.approx(-0.5), 0.0)
    intercept, slope = sw["l_map_coeffs"]
    assert (intercept, slope) == (pytest.approx(1.0), pytest.approx(3.0))
    assert intercept + slope * -0.25 == pytest.approx(0.25)


def test_semilinear_map_never_lowers_the_weight():
    for n, p in [(5, 3), (4, 4), (6, 3), (5, 4), (7, 2)]:
        sw = semilinear_weights(n, p)
        if not sw["admissible"]:
            continue
        lo, hi = sw["l_interval"]
        intercept, slope = sw["l_map_coeffs"]
        for l in np.linspace(lo + 1e-9, hi - 1e-9, 9):
            assert intercept + slope * l >= l - 1e-12


def test_semilinear_order_floor_slack():
    for p in (3, 4):
        sw = semilinear_weights(5, p)
        assert sw["order_floor"] == 0.5 and sw["mu"] == 0.0
        assert sw["mu_provisional"] is True


def test_semilinear_validation():
    with pytest.raises(ValueError):
        semilinear_weights(5, 1)
    with pytest.raises(ValueError):
        semilinear_weights(5, 3.0)
    with pytest.raises(DimensionError):
        semilinear_weights(2, 3)


# --- product-rule predicates ---------------------------------------------

def test_predicate_split_algebra_example():
    out = product_rule_predict("split-algebra", {"n": 4, "d": 1, "m": 0.6, "a": 1.6})
    assert out["holds"]
    assert out["margins"]["m"] == pytest.approx(0.1)
    assert out["margins"]["a"] == pytest.approx(0.1)


def test_predicate_low_reg_example():
    out = product_rule_predict(
        "low-reg-cone-product", {"n": 1, "s": 2.0, "s_prime": 0.6, "s0": 0.6}
    )
    assert out["holds"]
    assert out["margins"]["sum"] == pytest.approx(1.5)
    # the degenerate order s0 = s' sits exactly on its non-strict bound
    assert out["margins"]["order_s0sp"] == pytest.approx(0.0)


def test_predicate_strictness():
    # a strict hypothesis at zero margin fails; a non-strict one passes
    out = product_rule_predict("split-algebra", {"n": 4, "d": 1, "m": 0.5, "a": 1.6})
    assert not out["holds"]
    out = product_rule_predict(
        "cone-product", {"n": 1, "r": 1.0, "s": 1.0, "s0": 0.8}
    )
    assert out["holds"] and out["margins"]["order_rs"] == 0.0


def test_predicate_validation():
    with pytest.raises(ValueError):
        product_rule_predict("no-such-rule", {})
    with pytest.raises(ValueError):
        product_rule_predict("split-algebra", {"n": 4, "d": 1, "m": 0.6})
    assert set(PRODUCT_RULES) == {rule for rule, _, _ in sweep_plan()}


# --- lattice Schur quantities --------------------------------------------

def test_schur_iso_above_half_is_finite_with_known_limit():
    res = product_integral(iso1(1.0), iso1(1.0), iso1(1.0), 1, 10000.0, step=0.5)
    assert res.finite
    assert res.growth_exponent <= 0.05
    # the sup saturates at two unit-mass bumps, total 2 pi
    assert res.M_plus_levels[-1] == pytest.approx(2.0 * np.pi, abs=1e-3)


@pytest.mark.parametrize("levels", [1, 2])
def test_schur_with_fewer_than_three_levels_fits_no_exponent(levels):
    # the fit needs three levels; with fewer the exponent is NaN, not finite
    res = product_integral(iso1(1.0), iso1(1.0), iso1(1.0), 1, 100.0, step=0.5, levels=levels)
    assert math.isnan(res.growth_exponent) and not res.finite
    assert len(res.M_plus_levels) == len(res.M_minus_levels) == len(res.cutoffs) == levels


def test_schur_iso_below_half_diverges_linearly():
    res = product_integral(iso1(0.3), iso1(0.3), iso1(0.3), 1, 10000.0, step=0.5)
    assert not res.finite
    assert res.growth_exponent > GROWTH_THRESHOLD
    # the dual quantity at the centered probe integrates the constant 1
    assert res.M_minus_levels[-1] == pytest.approx(2.0 * 10000.0)
    ratios = np.diff(np.log2(np.array(res.M_minus_levels)))
    assert ratios == pytest.approx(np.ones(4), abs=1e-12)
    # growth across the sweep of radii covers a full decade at >= 10x
    assert res.M_minus_levels[-1] / res.M_minus_levels[0] >= 10.0


@pytest.mark.parametrize("s", [0.0, 0.3, 1.0])
def test_schur_trivial_partner_diverges(s):
    res = product_integral(iso1(s), iso1(s), iso1(0.0), 1, 10000.0, step=0.5)
    assert not res.finite
    assert res.growth_exponent >= 0.9


def test_schur_levels_monotone_and_samples_recorded():
    res = product_integral(iso1(0.3), iso1(0.3), iso1(0.3), 1, 2048.0, step=0.5)
    assert all(b >= a for a, b in zip(res.M_plus_levels, res.M_plus_levels[1:]))
    assert all(b >= a for a, b in zip(res.M_minus_levels, res.M_minus_levels[1:]))
    samples = np.array(res.sup_samples)
    assert samples.shape[1] == 1
    assert tuple(samples[0]) == (0.0,)  # origin is always declared
    assert res.cutoffs == (128.0, 256.0, 512.0, 1024.0, 2048.0)


def test_schur_deterministic():
    a = product_integral(iso1(0.7), iso1(0.7), iso1(0.7), 1, 2048.0, step=0.5, seed=2)
    b = product_integral(iso1(0.7), iso1(0.7), iso1(0.7), 1, 2048.0, step=0.5, seed=2)
    assert a == b


def test_schur_validation():
    w = iso1(1.0)
    with pytest.raises(ResolutionError):
        product_integral(w, w, w, 1, 100.0, step=1.0)
    with pytest.raises(ResolutionError):
        product_integral(w, w, w, 1, 100.0, step=-0.5)
    with pytest.raises(ValueError):
        product_integral(w, w, w, 1, -5.0)
    for cutoff in (math.nan, math.inf):
        with pytest.raises(ValueError, match=f"cutoff must be finite and positive, got {cutoff}"):
            product_integral(w, w, w, 1, cutoff)
    with pytest.raises(ResolutionError, match="quadrature step must be finite, got nan"):
        product_integral(w, w, w, 1, 100.0, step=math.nan)
    with pytest.raises(ValueError):
        product_integral(w, w, w, 1, 100.0, levels=0)
    with pytest.raises(ResolutionError):
        # smallest dyadic radius falls under eight quadrature cells
        product_integral(w, w, w, 1, 50.0, step=0.5, levels=5)
    with pytest.raises(DimensionError):
        product_integral(IsoWeight(2, 1.0), w, w, 1, 100.0)


def reference_schur_levels(w, w1, w2, dim, cutoff, step, levels, seed):
    """The probe loop as it was before w2 was shared between the two sums:
    w2(s - pts) for M+ and a second call w2(pts - s) for M-, per probe.
    Returns the M+ and M- level rows, shape (levels, probes)."""
    radii = [cutoff / 2**j for j in range(levels)][::-1]
    vals_p, vals_m = [], []
    for r in radii:
        axis, cell = _midpoint_lattice(dim, r, step)
        pts = np.stack([g.reshape(-1) for g in np.meshgrid(*[axis] * dim, indexing="ij")])
        samples = _sup_samples(dim, r, seed)
        w_samp = np.asarray(w(samples), dtype=float)
        w1_samp = np.asarray(w1(samples), dtype=float)
        inv1 = 1.0 / w1(pts)
        wlat = w(pts)
        row_p = np.empty(samples.shape[1])
        row_m = np.empty(samples.shape[1])
        for j in range(samples.shape[1]):
            s = samples[:, j : j + 1]
            row_p[j] = cell * float(np.sum((w_samp[j] * inv1 / w2(s - pts)) ** 2))
            row_m[j] = (
                cell * float(np.sum((wlat / w2(pts - s)) ** 2)) / w1_samp[j] ** 2
            )
        vals_p.append(row_p)
        vals_m.append(row_m)
    return np.array(vals_p), np.array(vals_m)


# Per 2-D plan row and offset, at cutoff 32 with 3 levels: (growth exponent,
# M+ levels, M- levels), to 12 significant digits.  A change of the lattice
# arithmetic must reproduce them within ROWS_RTOL (relative; the exponent
# absolute) before the GOLDEN_FLAT_2D digest is recorded again.
ROWS_RTOL = 1e-9
GOLDEN_ROWS = {
    ("cone-product", "sum", 0.1): (0.22535961328,
        (10.3980362631, 12.3701910465, 12.9696872988),
        (42.730293912, 88.0513433507, 182.018458202)),
    ("cone-product", "order_rs", 0.1): (0.0659875570986,
        (9.21059790305, 10.2405184198, 10.2550270436),
        (75.8213117666, 194.112876703, 501.032282213)),
    ("split-algebra", "m", 0.1): (1.05923118634,
        (25.7006124245, 32.9299345542, 40.3497095376),
        (256, 1024, 4096)),
    ("split-algebra", "ma_joint", 0.1): (1.06619313655,
        (29.0373805438, 40.4280090894, 51.0168830186),
        (256, 1024, 4096)),
    ("split-cone-product", "m", 0.1): (0.786515952254,
        (6.51591449843, 7.91020995607, 9.69656450569),
        (5.44481398063, 16.1194592197, 58.5002340112)),
    ("split-cone-product", "ma_joint", 0.1): (0.911740952392,
        (8.12571037851, 11.0420777712, 13.7465852404),
        (6.15312114169, 17.4069237614, 60.773051085)),
    ("split-cone-product", "order_rs", 0.1): (0.409982350513,
        (3.74584190711, 4.54413455104, 4.80663819933),
        (3.86500141415, 10.0670933419, 32.0813750031)),
    ("low-reg-cone-product", "sum", 0.1): (0.711656880292,
        (20.0306527101, 27.0105508942, 33.5063544705),
        (256, 1024, 4096)),
    ("low-reg-cone-product", "order_s0sp", 0.1): (0.617729290029,
        (17.2271438972, 21.792586573, 25.4271679641),
        (250.932102282, 996.965985912, 3963.15911645)),
    ("split-low-reg-product", "msum", 0.1): (0.994496138957,
        (22.7398032272, 28.2573009449, 33.7260882467),
        (215.244923487, 805.280944289, 3007.84499389)),
    ("split-low-reg-product", "msum_a_joint", 0.1): (1.00106661913,
        (25.8461116239, 34.9061102762, 42.7633090724),
        (215.244923487, 805.280944289, 3007.84499389)),
    ("split-low-reg-product", "order_m0mp", 0.1): (0.299551442134,
        (8.30690289155, 8.57476013645, 8.64644615007),
        (181.361462532, 634.887976423, 2214.84389162)),
    ("cone-product", "sum", -0.1): (0.647986300044,
        (18.4839332405, 24.0173509427, 29.6804094942),
        (77.9192451623, 204.615793546, 549.48024831)),
    ("cone-product", "order_rs", -0.1): (0.321185682311,
        (12.5748571863, 14.1415603968, 15.9493813623),
        (144.49506092, 478.19204293, 1615.67762119)),
    ("split-algebra", "m", -0.1): (1.21813974795,
        (37.293187075, 56.048554227, 77.1669037269),
        (256, 1024, 4096)),
    ("split-algebra", "ma_joint", -0.1): (1.18505657997,
        (49.5101628613, 90.461815209, 151.0445058),
        (256, 1024, 4096)),
    ("split-cone-product", "m", -0.1): (0.943838382968,
        (8.63682494286, 11.7013883821, 14.7657495793),
        (6.00062137747, 17.0737506382, 60.1916184902)),
    ("split-cone-product", "ma_joint", -0.1): (1.13150828059,
        (14.2454847096, 26.4887890459, 44.9637644093),
        (9.18976683223, 23.5055090477, 72.1980382516)),
    ("split-cone-product", "order_rs", -0.1): (0.744108638219,
        (6.42654558798, 7.65613879918, 9.14337890646),
        (6.66635757468, 23.9888868277, 103.312228627)),
    ("low-reg-cone-product", "sum", -0.1): (0.882307855303,
        (28.3838126335, 44.4505344364, 64.3747533002),
        (253.268656946, 1009.04198429, 4020.56246973)),
    ("low-reg-cone-product", "order_s0sp", -0.1): (0.613597828867,
        (16.9968765575, 21.4311165636, 26.2493806712),
        (262.954715385, 1065.77347906, 4327.88205127)),
    ("split-low-reg-product", "msum", -0.1): (1.16176688695,
        (33.6095547824, 49.2324475109, 66.5915535989),
        (215.244923487, 805.280944289, 3007.84499389)),
    ("split-low-reg-product", "msum_a_joint", -0.1): (1.12030880367,
        (44.9927331266, 80.74714168, 132.798567505),
        (215.244923487, 805.280944289, 3007.84499389)),
    ("split-low-reg-product", "order_m0mp", -0.1): (0.837750016744,
        (17.5357443472, 20.8186352212, 25.0372474582),
        (364.263009279, 1667.25754865, 7651.77398086)),
}


def check_golden_row(rule, threshold, offset, res):
    exponent, m_plus, m_minus = GOLDEN_ROWS[(rule, threshold, offset)]
    assert abs(res.growth_exponent - exponent) <= ROWS_RTOL
    assert np.allclose(res.M_plus_levels, m_plus, rtol=ROWS_RTOL, atol=0.0)
    assert np.allclose(res.M_minus_levels, m_minus, rtol=ROWS_RTOL, atol=0.0)


# sha256 over the little-endian float64 M+ levels, M- levels and growth
# exponent of each 2-D plan row, in plan order, at cutoff 32 with 3 levels
GOLDEN_FLAT_2D = {
    0.1: "9079e2b735801562b9f0f162d7bb9dc96bbdf0090ea4262f4854f14260248a67",
    -0.1: "3ff2d58400c9f804f928bf992fbca8a0e85e9f003df12f1e5d393fac87c1eb1a",
}


@pytest.mark.parametrize("offset", [0.1, -0.1])
def test_schur_levels_match_two_call_reference_on_flat_models(offset):
    # M+ and M- are maxima over probes; bitwise equal maxima over the whole
    # plan, with the offsets crossing every threshold, pin the shared w2, and
    # the digest pins the 2-D flat models themselves
    plan = sweep_plan(dims=[2])
    digest = hashlib.sha256()
    for rule, dim, threshold in plan:
        weights = rule_flat_model(rule, orders._RULES[rule].straddle(dim, threshold, offset), dim)
        res = product_integral(*weights, dim, 32.0, step=0.5, levels=3)
        check_golden_row(rule, threshold, offset, res)
        ref_p, ref_m = reference_schur_levels(*weights, dim, 32.0, 0.5, 3, 0)
        assert np.array_equal(res.M_plus_levels, ref_p.max(axis=1))
        assert np.array_equal(res.M_minus_levels, ref_m.max(axis=1))
        vals = res.M_plus_levels + res.M_minus_levels + (res.growth_exponent,)
        digest.update(np.array(vals, dtype="<f8").tobytes())
    assert digest.hexdigest() == GOLDEN_FLAT_2D[offset]


@pytest.mark.parametrize(
    "w2",
    [ConeWeight(2, 0.6, 1.4, 0.3, 0.7), SumWeight((IsoWeight(2, 0.5), IsoWeight(2, 1.0)))],
    ids=["cone", "sum"],
)
def test_schur_rejects_a_w2_that_is_not_iso_or_split(w2):
    # one w2(s - pts) serves both sums only for the even weights; every w2
    # that rule_flat_model returns is an IsoWeight or a SplitWeight
    with pytest.raises(ValueError):
        product_integral(IsoWeight(2, 1.2), IsoWeight(2, 0.8), w2, 2, 32.0, levels=3)


def test_schur_rejects_non_finite_level_sums():
    # 50 past the sum threshold the weight quotient overflows; a level of
    # infinite sums has no growth increments to fit.  Every level is summed,
    # and the error names the smallest radius whose sums overflow, 1024
    params = orders._RULES["cone-product"].straddle(1, "sum", -50.0)
    weights = rule_flat_model("cone-product", params, 1)
    with np.errstate(all="ignore"), pytest.raises(ValueError, match="not finite") as err:
        product_integral(*weights, 1, 4096.0, step=0.5, levels=5)
    assert "radius 1024.0" in str(err.value)


class _Counting:
    """Records the coordinate arrays each call of a weight gets (the rows of
    a stacked array); the list field survives a frozen class, and pool
    threads may append to it."""

    def __call__(self, xi):
        self.calls.append(tuple(np.array(x, dtype=float) for x in xi))
        return super().__call__(xi)


@dataclass(frozen=True)
class CountingIso(_Counting, IsoWeight):
    calls: list = field(default_factory=list, compare=False, repr=False)


@dataclass(frozen=True)
class CountingSplit(_Counting, SplitWeight):
    calls: list = field(default_factory=list, compare=False, repr=False)


@dataclass(frozen=True)
class CountingCone(_Counting, ConeWeight):
    calls: list = field(default_factory=list, compare=False, repr=False)


def assert_reference_bits(weights, dim, cutoff, step, levels):
    """Every probe's M+ and M- sum on every level equals the two-call
    reference bit for bit, and so do product_integral's levels."""
    radii = [cutoff / 2**j for j in range(levels)][::-1]
    vals_p, vals_m, _ = orders._schur_sums(*weights, dim, radii, step, 0)
    ref_p, ref_m = reference_schur_levels(*weights, dim, cutoff, step, levels, 0)
    assert np.array_equal(np.array(vals_p), ref_p)
    assert np.array_equal(np.array(vals_m), ref_m)
    res = product_integral(*weights, dim, cutoff, step=step, levels=levels)
    assert np.array_equal(res.M_plus_levels, ref_p.max(axis=1))
    assert np.array_equal(res.M_minus_levels, ref_m.max(axis=1))


@pytest.mark.parametrize(
    "w2,plain_w2",
    [(CountingIso(2, 1.1), IsoWeight(2, 1.1)),
     (CountingSplit(2, 1, 0.8, 0.7), SplitWeight(2, 1, 0.8, 0.7))],
    ids=["iso", "split"],
)
def test_schur_weights_evaluated_once_per_lattice_point(w2, plain_w2):
    # the 128^2 and 256^2 levels are centred windows of the 512^2 top level:
    # w and w1 run four row blocks on the top lattice only, covering its rows
    # once, plus one call on each level's samples; w2 runs once per probe
    # point up to per-axis reflection, on the largest lattice whose probes
    # hold it; every weight gets per-axis coordinates (no argument is a
    # dense stack of a lattice's N^2 points); and every sum keeps the bits
    # of the two-call reference
    levels, cutoff, step = 3, 128.0, 0.5
    w, w1 = CountingCone(2, 0.6, 1.4, 0.15, 0.4), CountingIso(2, 0.8)
    res = product_integral(w, w1, w2, 2, cutoff, step=step, levels=levels)
    top = _midpoint_lattice(2, cutoff, step)[0]
    for weight in (w, w1):
        assert sum(c[0].ndim == 1 for c in weight.calls) == levels  # the samples
        blocks = [c for c in weight.calls if c[0].ndim == 2]
        assert len(blocks) == 4
        assert np.array_equal(np.sort(np.concatenate([x0.ravel() for x0, _ in blocks])), top)
        for x0, x1 in blocks:
            assert x0.shape[1] == 1 and x1.shape == (1, top.size)
            assert np.array_equal(x1.ravel(), top)
    largest = {}  # each point up to reflection: the largest radius that probes it
    for r in res.cutoffs:
        for p in _sup_samples(2, r, 0).T:
            largest[tuple(np.abs(p))] = r
    assert len(w2.calls) == len(largest) < levels * len(res.sup_samples)
    assert sorted(x0.size for x0, _ in w2.calls) == sorted(
        round(2.0 * r / step) for r in largest.values()
    )
    smallest = round(2.0 * res.cutoffs[0] / step)  # points an axis, lowest level
    for coords in w.calls + w1.calls + w2.calls:
        assert len(coords) == 2
        assert all(x.size < smallest**2 for x in coords)
    for coords in w2.calls:
        assert all(sum(n > 1 for n in x.shape) == 1 for x in coords)
    plain = (ConeWeight(2, 0.6, 1.4, 0.15, 0.4), IsoWeight(2, 0.8), plain_w2)
    assert_reference_bits(plain, 2, cutoff, step, levels)


@pytest.mark.parametrize(
    "dim,w2,cutoff,step,levels",
    [(1, IsoWeight(1, 1.1), 100.0, 0.5, 5), (2, IsoWeight(2, 1.1), 100.0, 0.5, 5),
     (1, IsoWeight(1, 1.1), 24.0, 0.3, 3), (2, IsoWeight(2, 1.1), 24.0, 0.3, 3),
     (2, SplitWeight(2, 1, 0.8, 0.7), 100.0, 0.5, 5)],
    ids=["unnested-1d", "unnested-2d", "asymmetric-1d", "asymmetric-2d", "split-2d"],
)
def test_schur_fallbacks_keep_the_reference_bits(dim, w2, cutoff, step, levels):
    # cutoff 100 over 5 levels: the 6.25 level's axis sits at multiples of
    # 0.5, the top's at odd multiples of 0.25, so it evaluates its own
    # arrays; step 0.3 gives axes that are neither symmetric bit for bit nor
    # windows of the top, so no probe shares w2 with its reflection; a split
    # w2 reflects each axis but swaps none
    radii = [cutoff / 2**j for j in range(levels)][::-1]
    axes = [_midpoint_lattice(dim, r, step)[0] for r in radii]
    if step == 0.3:
        assert not any(np.array_equal(a[::-1], -a) for a in axes)
    if cutoff == 100.0:
        assert not np.isin(axes[0], axes[-1]).any()
    weights = (ConeWeight(dim, 0.6, 1.4, 0.15, 0.4), IsoWeight(dim, 0.8), w2)
    assert_reference_bits(weights, dim, cutoff, step, levels)


def test_schur_w2_points_on_the_2d_cone_product_row():
    # a 2-D cone-product row of product-check at seed 0: five levels, 768^2
    # down to 48^2, 49 probes each; 71 points up to reflection, where one w2
    # call per probe and level took 245 calls on 38.5M points
    params = orders._RULES["cone-product"].straddle(2, "sum", 0.1)
    w, w1, _ = rule_flat_model("cone-product", params, 2)
    w2 = CountingIso(2, params["r"])
    product_integral(w, w1, w2, 2, 192.0, step=0.5, levels=5, seed=0)
    assert len(w2.calls) == 71
    assert sum(x0.size * x1.size for x0, x1 in w2.calls) == 26_733_312  # 106.9M on 4 rows


@pytest.fixture
def fresh_pool(monkeypatch):
    """product_integral makes its shared pool anew, sized by the test's
    _usable_cpus; the pool is shut down afterwards."""
    monkeypatch.setattr(orders, "_POOL", None)
    yield
    if orders._POOL is not None:
        orders._POOL.shutdown()


@pytest.mark.parametrize("workers", [1, 8])
def test_schur_bits_do_not_depend_on_the_worker_count(fresh_pool, monkeypatch, workers):
    # one worker, and eight switching every microsecond, write the same bits
    # as the default pool on a multi-block lattice
    args = (ConeWeight(2, 0.6, 1.4, 0.15, 0.4), IsoWeight(2, 0.8), IsoWeight(2, 1.1), 2, 128.0)
    want = product_integral(*args, levels=3)
    orders._POOL.shutdown()
    monkeypatch.setattr(orders, "_POOL", None)
    monkeypatch.setattr(orders, "_usable_cpus", lambda: workers)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        got = product_integral(*args, levels=3)
    finally:
        sys.setswitchinterval(interval)
    assert orders._POOL._max_workers == workers
    assert got == want


def test_usable_cpus_reads_the_affinity_set(monkeypatch):
    monkeypatch.setattr(orders.os, "sched_getaffinity", lambda pid: {3}, raising=False)
    assert orders._usable_cpus() == 1
    monkeypatch.delattr(orders.os, "sched_getaffinity")
    monkeypatch.setattr(orders.os, "cpu_count", lambda: 5)
    assert orders._usable_cpus() == 5


class _Boom(Exception):
    pass


def test_schur_pool_task_error_cancels_the_tasks_not_started(fresh_pool, monkeypatch):
    # with one worker, task 0 raises while task 1 may be running; the tasks
    # behind them never start, the error raises from the caller, and the
    # shared pool serves the next call
    monkeypatch.setattr(orders, "_usable_cpus", lambda: 1)
    ran = []

    def task(i):
        ran.append(i)
        if i == 0:
            raise _Boom
        time.sleep(0.2)

    with pytest.raises(_Boom):
        orders._run_tasks(task, range(10))
    assert set(ran) <= {0, 1}
    orders._run_tasks(ran.append, [7])
    assert ran[-1] == 7


@pytest.mark.skipif(not hasattr(os, "fork"), reason="no fork")
def test_schur_pool_is_made_anew_in_a_forked_child(fresh_pool, monkeypatch):
    # a forked child has none of the parent's pool threads; on the parent's
    # pool, whose one worker thread exists, its tasks would wait forever
    monkeypatch.setattr(orders, "_usable_cpus", lambda: 1)
    orders._run_tasks(lambda i: None, range(2))
    pid = os.fork()
    if pid == 0:
        ran = []
        try:
            orders._run_tasks(ran.append, range(3))
        finally:
            os._exit(0 if sorted(ran) == [0, 1, 2] else 1)
    for _ in range(300):
        done, status = os.waitpid(pid, os.WNOHANG)
        if done:
            break
        time.sleep(0.1)
    else:
        os.kill(pid, signal.SIGKILL)
        os.waitpid(pid, 0)
        pytest.fail("the forked child's tasks did not run in 30 s")
    assert os.waitstatus_to_exitcode(status) == 0


@dataclass(frozen=True)
class BoomIso(IsoWeight):
    """Raises on the offsets of a 512-point axis: in a probe task on the pool."""

    def __call__(self, xi):
        if np.size(xi[0]) == 512:
            raise _Boom
        return super().__call__(xi)


def test_schur_error_in_a_probe_raises_from_product_integral(fresh_pool, monkeypatch):
    # every top-level probe raises on the pool; product_integral raises it
    # and leaves no thread beyond the pool's workers
    monkeypatch.setattr(orders, "_usable_cpus", lambda: 8)
    args = (ConeWeight(2, 0.6, 1.4, 0.15, 0.4), IsoWeight(2, 0.8))
    threads = set(threading.enumerate())
    with pytest.raises(_Boom):
        product_integral(*args, BoomIso(2, 1.1), 2, 128.0, levels=3)
    assert len(set(threading.enumerate()) - threads) <= 8


# --- predicate vs measurement sweep --------------------------------------

def test_flat_models_exist_for_planned_rules():
    for rule, dim, threshold in sweep_plan():
        params = orders._RULES[rule].straddle(dim, threshold, 0.1)
        w, w1, w2 = rule_flat_model(rule, params, dim)
        assert w.dim == w1.dim == w2.dim == dim
        assert isinstance(w2, (IsoWeight, SplitWeight))  # product_integral's even w2


def test_flat_model_split_rules_have_no_line_realization():
    with pytest.raises(ValueError):
        rule_flat_model("split-algebra", {"n": 1, "d": 1, "m": 0.8, "a": 0.8}, 1)
    with pytest.raises(DimensionError):
        rule_flat_model(
            "split-low-reg-product",
            {"n": 1, "d": 1, "m": 0.8, "m_prime": 0.6, "m0": 0.7, "a": 0.8},
            1,
        )
    with pytest.raises(ValueError):
        rule_flat_model("no-such-rule", {}, 2)


def test_sweep_line_rules_agree():
    rows = rule_sweep(dims=[1])
    assert len(rows) == 8
    assert all(r["agree"] for r in rows)
    # both orientations are exercised
    assert any(r["predicted"] for r in rows)
    assert any(not r["predicted"] for r in rows)


def test_sweep_plan_filters_by_dim_and_rule():
    rules = ("split-algebra", "cone-product")
    assert sweep_plan([2], rules) == [t for t in sweep_plan() if t[1] == 2 and t[0] in rules]
    with pytest.raises(ValueError, match=r"'split-algebra'.*\[2\]"):
        sweep_plan([1], rules)  # no 1-D realization
    with pytest.raises(ValueError, match="'cone-prodcut'"):
        sweep_plan(None, ["cone-prodcut"])
    # rule_sweep plans its points by sweep_plan, before it measures any
    with pytest.raises(ValueError, match=r"'split-algebra'.*\[1\]"):
        rule_sweep(dims=[1], rules=rules)


# the hypotheses a joint threshold crosses together
_CROSSED = {"ma_joint": ("m", "a"), "msum_a_joint": ("msum", "a")}


@pytest.mark.parametrize("offset", [0.1, -0.1, 0.08, -0.12])
def test_sweep_points_cross_exactly_their_threshold(offset):
    # rule_sweep's straddle: the threshold's hypotheses have margin equal to
    # the offset, and every other hypothesis holds
    for rule, dim, threshold in sweep_plan():
        pred = product_rule_predict(rule, orders._RULES[rule].straddle(dim, threshold, offset))
        crossed = _CROSSED.get(threshold, (threshold,))
        assert set(crossed) <= set(pred["margins"])
        for (label, margin), text in zip(pred["margins"].items(), pred["hypotheses"]):
            where = (rule, dim, threshold, label)
            if label in crossed:
                assert abs(margin - offset) <= 1e-12, where
            elif ">=" in text:
                assert margin >= 0, where
            else:
                assert margin > 0, where
        assert pred["holds"] == (offset > 0)


def test_sweep_deterministic():
    a = rule_sweep(dims=[1], rules=["cone-product"])
    b = rule_sweep(dims=[1], rules=["cone-product"])
    assert a == b
