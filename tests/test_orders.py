"""Admissibility tables, order construction, product rules, and Schur measurements."""

from dataclasses import dataclass, field

import numpy as np
import pytest

from feynlab.bichar import flow, random_null_rays
from feynlab.errors import (
    DimensionError,
    InfeasibleParameterError,
    ResolutionError,
)
from feynlab.orders import (
    GROWTH_THRESHOLD,
    PRODUCT_RULES,
    AdmissibilityReport,
    ProblemSignature,
    _midpoint_lattice,
    _sup_samples,
    _sweep_params,
    check_orders,
    construct_feynman_order,
    product_integral,
    product_rule_predict,
    rule_flat_model,
    rule_sweep,
    semilinear_weights,
    sweep_plan,
)
from feynlab.propagators import Kind
from feynlab.radial import SINKS, RadialSet
from feynlab.weights import Cone, IsoWeight, OrderFunction, VariableWeight


def iso1(s):
    return IsoWeight(1, s)


# --- signatures and the admissibility tables -----------------------------

def test_signature_promotes_numeric_order():
    sig = ProblemSignature(Kind.FEYNMAN, 4, 0.0, 0.4, 2)
    assert isinstance(sig.m, OrderFunction)
    assert sig.m.is_constant


def test_signature_validation():
    with pytest.raises(ValueError):
        ProblemSignature(Kind.FEYNMAN, 4, 0.0, 0.4, -1)
    with pytest.raises(ValueError):
        ProblemSignature(Kind.FEYNMAN, 4, 0.0, 0.4, 1.5)
    with pytest.raises(DimensionError):
        ProblemSignature(Kind.FEYNMAN, 1, 0.0, 0.4, 0)


def test_module_rule_admits_low_constant_with_module_orders():
    rep = check_orders(ProblemSignature(Kind.FEYNMAN, 4, 0.0, 0.4, 2), rule="module")
    assert rep.admissible
    for rs in (RadialSet.SINK_FUTURE, RadialSet.SINK_PAST):
        v = rep.verdict_at(rs)
        assert v.inequality == "m + l < 1/2"
        assert v.margin == pytest.approx(0.1)
    for rs in (RadialSet.SOURCE_FUTURE, RadialSet.SOURCE_PAST):
        v = rep.verdict_at(rs)
        assert v.inequality == "m + l + k > 3/2"
        assert v.margin == pytest.approx(0.9)


def test_basic_rule_rejects_high_constant_at_the_sinks():
    rep = check_orders(ProblemSignature(Kind.FEYNMAN, 4, 0.0, 1.0, 0), rule="basic")
    assert not rep.admissible
    assert not rep.verdict_at(RadialSet.SINK_FUTURE).ok
    assert not rep.verdict_at(RadialSet.SINK_PAST).ok
    assert rep.verdict_at(RadialSet.SOURCE_FUTURE).ok


def test_retarded_constant_needs_variable_order():
    for l in (-0.8, 0.0, 0.7):
        rep = check_orders(
            ProblemSignature(Kind.RETARDED, 4, l, 1.0, 0), rule="strengthened"
        )
        assert not rep.admissible
        assert rep.diagnosis == "requires variable order"


def test_overall_verdict_is_conjunction():
    for rule in ("basic", "strengthened", "module"):
        for m in (0.2, 0.4, 1.0, 2.0):
            rep = check_orders(
                ProblemSignature(Kind.ANTIFEYNMAN, 4, 0.0, m, 1), rule=rule
            )
            assert rep.admissible == all(v.ok for v in rep.verdicts)


def test_table_soundness_module_k0_matches_strengthened():
    # module admissible at k = 0 implies strengthened admissible, and
    # strengthened implies basic, over a parameter scan
    rng = np.random.default_rng(4)
    for _ in range(200):
        kind = list(Kind)[rng.integers(4)]
        l = float(rng.uniform(-2.0, 2.0))
        order = construct_or_constant(rng)
        sig = ProblemSignature(kind, 4, l, order, 0)
        module = check_orders(sig, rule="module").admissible
        strong = check_orders(sig, rule="strengthened").admissible
        basic = check_orders(sig, rule="basic").admissible
        assert module == strong  # k = 0 collapses the module bound
        if strong:
            assert basic


def construct_or_constant(rng):
    if rng.uniform() < 0.5:
        return float(rng.uniform(-1.0, 3.0))
    try:
        return construct_feynman_order(
            l=float(rng.uniform(-0.9, -0.2)), m_plus=float(rng.uniform(1.0, 2.0))
        )
    except InfeasibleParameterError:
        return float(rng.uniform(-1.0, 3.0))


def test_report_serializes():
    rep = check_orders(ProblemSignature(Kind.ADVANCED, 4, 0.0, 0.3, 2))
    d = rep.to_dict()
    assert d["prescription"] == "ADVANCED"
    assert len(d["verdicts"]) == 4
    assert isinstance(rep, AdmissibilityReport)


def test_check_orders_unknown_rule():
    with pytest.raises(ValueError):
        check_orders(ProblemSignature(Kind.FEYNMAN, 4, 0.0, 0.4), rule="fancy")


# --- order-function construction -----------------------------------------

def test_constructed_order_shape():
    order = construct_feynman_order(l=-0.4, m_plus=1.2)
    # midpoint dip of the interval (0.3, 0.7)
    assert order.bounds() == (pytest.approx(0.7), pytest.approx(1.2))
    assert order.value_at(RadialSet.SINK_FUTURE) == pytest.approx(0.7)
    assert order.value_at(RadialSet.SOURCE_PAST) == pytest.approx(1.2)
    assert set(order.min_components) == set(SINKS)
    assert order.check_convex_sublevels(seed=0)

    # constant away from the dip cone: directions orthogonal to the pole
    far = np.array([[1.0, 0.0], [0.0, 0.0], [0.0, 1.0], [0.0, 0.0]])
    assert np.allclose(order(far), 1.2)
    # exact dip value at the pole itself
    pole = np.array([[0.0], [1.0], [0.0], [0.0]])
    assert order(pole) == pytest.approx(np.array([0.7]))


def test_constructed_order_passes_module_table():
    order = construct_feynman_order(l=-0.4, m_plus=1.2)
    rep = check_orders(ProblemSignature(Kind.FEYNMAN, 4, -0.4, order, 2), rule="module")
    assert rep.admissible


def test_constructed_order_infeasible_parameters():
    with pytest.raises(InfeasibleParameterError):
        construct_feynman_order(l=0.0, m_plus=1.2)  # empty dip interval
    with pytest.raises(InfeasibleParameterError):
        construct_feynman_order(l=-0.4, m_plus=0.8)  # m_plus + l <= 1/2
    with pytest.raises(InfeasibleParameterError):
        construct_feynman_order(l=-0.4, m_plus=1.2, c=0.75)  # c above interval
    with pytest.raises(InfeasibleParameterError):
        construct_feynman_order(l=-0.4, m_plus=1.2, sizes=(0.4, 0.2))


def test_constructed_order_monotone_on_terminal_approach():
    # the flow drags the unit fiber to the +gamma pole; on the stretch below
    # rho = 0.1 the sampled order must never increase and must land exactly
    # on the dip value
    order = construct_feynman_order(l=-0.4, m_plus=1.2)
    dip = order.bounds()[0]
    for c in random_null_rays(4, 50, seed=13):
        tr = flow(c, 40.0, tol=1e-10)
        dirs = np.array([(p.sigma, p.gamma) + tuple(p.eta) for p in tr.points]).T
        vals = order(dirs)
        rhos = np.array([p.rho for p in tr.points])
        idx = np.where(rhos >= 0.1)[0]
        seg = vals[(idx[-1] + 1) if idx.size else 0 :]
        assert seg.size >= 3
        assert np.all(np.diff(seg) <= 1e-12)
        assert seg[-1] == pytest.approx(dip, abs=1e-9)


# --- semilinear weight arithmetic ----------------------------------------

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
    assert sw["l_map_coeffs"] == (pytest.approx(1.0), pytest.approx(3.0))
    assert sw["l_map"](-0.25) == pytest.approx(0.25)


def test_semilinear_map_never_lowers_the_weight():
    for n, p in [(5, 3), (4, 4), (6, 3), (5, 4), (7, 2)]:
        sw = semilinear_weights(n, p)
        if not sw["admissible"]:
            continue
        lo, hi = sw["l_interval"]
        for l in np.linspace(lo + 1e-9, hi - 1e-9, 9):
            assert sw["l_map"](l) >= l - 1e-12


def test_semilinear_order_floor_slack():
    assert semilinear_weights(5, 3)["order_floor"] == pytest.approx(0.5)
    sw = semilinear_weights(5, 4, mu=0.1)
    assert sw["order_floor"] == pytest.approx(0.7)
    assert sw["mu_provisional"] is True


def test_semilinear_validation():
    with pytest.raises(ValueError):
        semilinear_weights(5, 1)
    with pytest.raises(ValueError):
        semilinear_weights(5, 3.0)
    with pytest.raises(DimensionError):
        semilinear_weights(2, 3)
    with pytest.raises(ValueError):
        semilinear_weights(5, 3, mu=-0.1)


# --- product-rule predicates ---------------------------------------------

def test_predicate_split_algebra_example():
    out = product_rule_predict("split-algebra", {"n": 4, "d": 1, "m": 0.6, "a": 1.6})
    assert out["holds"]
    assert out["margins"]["m"] == pytest.approx(0.1)
    assert out["margins"]["a"] == pytest.approx(0.1)


def test_predicate_module_algebra_example():
    out = product_rule_predict("module-algebra", {"n": 4, "m": 0.6, "k": 2})
    assert out["holds"]
    assert out["epsilon_zero"] is True
    out2 = product_rule_predict(
        "module-algebra", {"n": 4, "m": 0.6, "k": 2, "constant_m": False}
    )
    assert out2["epsilon_zero"] is False


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


def test_predicate_near_half_algebra():
    out = product_rule_predict(
        "near-half-algebra", {"n": 4, "m": 0.45, "k": 2, "delta": 0.1}
    )
    assert out["holds"]
    out = product_rule_predict(
        "near-half-algebra", {"n": 4, "m": 0.3, "k": 2, "delta": 0.1}
    )
    assert not out["holds"]


def test_predicate_validation():
    with pytest.raises(ValueError):
        product_rule_predict("no-such-rule", {})
    with pytest.raises(ValueError):
        product_rule_predict("split-algebra", {"n": 4, "d": 1, "m": 0.6})
    assert set(PRODUCT_RULES) >= {"cone-product", "split-algebra", "module-algebra"}


# --- lattice Schur quantities --------------------------------------------

def test_schur_iso_above_half_is_finite_with_known_limit():
    res = product_integral(iso1(1.0), iso1(1.0), iso1(1.0), 1, 10000.0, step=0.5)
    assert res.finite
    assert res.growth_exponent <= 0.05
    # the sup saturates at two unit-mass bumps, total 2 pi
    assert res.M_plus == pytest.approx(2.0 * np.pi, abs=1e-3)


def test_schur_iso_below_half_diverges_linearly():
    res = product_integral(iso1(0.3), iso1(0.3), iso1(0.3), 1, 10000.0, step=0.5)
    assert not res.finite
    assert res.growth_exponent > GROWTH_THRESHOLD
    # the dual quantity at the centered probe integrates the constant 1
    assert res.M_minus == pytest.approx(2.0 * 10000.0)
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


def test_schur_extra_sample_points_are_used():
    res = product_integral(
        iso1(0.3), iso1(0.3), iso1(0.3), 1, 2048.0, step=0.5, xi_extra=[[3.25]]
    )
    assert (3.25,) in res.sup_samples


def test_schur_deterministic():
    a = product_integral(iso1(0.7), iso1(0.7), iso1(0.7), 1, 2048.0, step=0.5, seed=2)
    b = product_integral(iso1(0.7), iso1(0.7), iso1(0.7), 1, 2048.0, step=0.5, seed=2)
    assert a.to_dict() == b.to_dict()


def test_schur_validation():
    w = iso1(1.0)
    with pytest.raises(ResolutionError):
        product_integral(w, w, w, 1, 100.0, step=1.0)
    with pytest.raises(ResolutionError):
        product_integral(w, w, w, 1, 100.0, step=-0.5)
    with pytest.raises(ValueError):
        product_integral(w, w, w, 1, -5.0)
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
        pts, cell = _midpoint_lattice(dim, r, step)
        samples = _sup_samples(dim, r, (w, w1, w2), seed)
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


def coned_weight(dim, base=0.6, peak=1.4):
    """A one-sided cone about +e0, so w(xi) != w(-xi) inside it."""
    cone = Cone(tuple(np.eye(dim)[0]), peak - base, 0.3, 0.7)
    return VariableWeight(OrderFunction(dim=dim, base=base, cones=(cone,)))


def assert_matches_reference(w, w1, w2, dim, cutoff=32.0, levels=3, seed=0):
    res = product_integral(w, w1, w2, dim, cutoff, step=0.5, levels=levels, seed=seed)
    ref_p, ref_m = reference_schur_levels(w, w1, w2, dim, cutoff, 0.5, levels, seed)
    assert np.array_equal(res.M_plus_levels, ref_p.max(axis=1))
    assert np.array_equal(res.M_minus_levels, ref_m.max(axis=1))
    return res


@pytest.mark.parametrize("offset", [0.1, -0.1])
def test_schur_levels_match_two_call_reference_on_flat_models(offset):
    # M+ and M- are maxima over probes; bitwise equal maxima over the whole
    # plan, with the offsets crossing every threshold, pin the shared w2
    plan = [t for t in sweep_plan() if t[1] == 2]
    for rule, dim, threshold in plan:
        params = _sweep_params(rule, dim, threshold, offset, 0.35)
        assert_matches_reference(*rule_flat_model(rule, params, dim), dim)


def test_schur_levels_match_two_call_reference_on_odd_weight():
    w2 = coned_weight(2)
    xi = np.array([[5.0], [1.0]])
    assert w2(xi)[0] != w2(-xi)[0]  # one call could not serve both sums
    assert_matches_reference(IsoWeight(2, 1.2), IsoWeight(2, 0.8), w2, 2)


class _Counting:
    """Counts __call__ on a weight; the list field survives a frozen class."""

    def __call__(self, xi):
        self.calls.append(np.shape(xi))
        return super().__call__(xi)


@dataclass(frozen=True)
class CountingIso(_Counting, IsoWeight):
    calls: list = field(default_factory=list, compare=False, repr=False)


@dataclass(frozen=True)
class CountingVariable(_Counting, VariableWeight):
    calls: list = field(default_factory=list, compare=False, repr=False)


@pytest.mark.parametrize(
    "w2,per_probe",
    [
        (CountingIso(2, 1.1), 1),
        (CountingVariable(coned_weight(2).order), 2),
    ],
    ids=["iso", "coned-variable"],
)
def test_schur_w2_calls_per_probe(w2, per_probe):
    levels = 3
    res = product_integral(
        IsoWeight(2, 1.2), IsoWeight(2, 0.8), w2, 2, 32.0, step=0.5, levels=levels
    )
    assert len(w2.calls) == per_probe * levels * len(res.sup_samples)


# --- predicate vs measurement sweep --------------------------------------

def test_flat_models_exist_for_planned_rules():
    for rule, dim, threshold in sweep_plan():
        params = _sweep_params(rule, dim, threshold, 0.1, 0.35)
        w, w1, w2 = rule_flat_model(rule, params, dim)
        assert w.dim == w1.dim == w2.dim == dim


def test_flat_model_split_rules_have_no_line_realization():
    with pytest.raises(ValueError):
        rule_flat_model("split-algebra", {"n": 1, "d": 1, "m": 0.8, "a": 0.8}, 1)
    with pytest.raises(ValueError):
        rule_flat_model("near-half-algebra", {"n": 4, "m": 0.45, "k": 2, "delta": 0.1}, 2)


def test_sweep_line_rules_agree():
    plan = [t for t in sweep_plan() if t[1] == 1]
    rows = rule_sweep(plan=plan)
    assert len(rows) == 8
    assert all(r["agree"] for r in rows)
    # both orientations are exercised
    assert any(r["predicted"] for r in rows)
    assert any(not r["predicted"] for r in rows)


def test_sweep_deterministic():
    plan = [("cone-product", 1, "sum")]
    a = rule_sweep(plan=plan)
    b = rule_sweep(plan=plan)
    assert a == b
