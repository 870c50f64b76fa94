"""Thirteen end-to-end checks, one test and one pass/fail line each.

Each test prints ``criterion NN <label>: PASS|FAIL`` with the measured
numbers, then asserts.  Tolerances and runtime caps are stated inline.
"""

import json
import time
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from feynlab.bichar import (
    classify_limit,
    flow,
    radial_flow_signature,
    random_null_rays,
)
from feynlab.cli import ExperimentConfig, run_experiment
from feynlab.fields import GridSpec, SpectralField, gaussian_source, random_band_limited
from feynlab.normal_op import (
    harmonic_multiplicity,
    index_count,
    indicial_roots,
    sphere_spectrum,
)
from feynlab.orders import rule_sweep
from feynlab.propagators import (
    Kind,
    Prescription,
    characteristic_energy_fraction,
    mode_profile,
    propagate,
    wick_continuation_study,
)
from feynlab.semilinear import (
    SemilinearProblem,
    perturbation_series,
    picard_solve,
    semilinear_weights,
)


def report(num: int, label: str, ok: bool, detail: str) -> None:
    print(f"criterion {num:02d} {label}: {'PASS' if ok else 'FAIL'} ({detail})")
    assert ok, f"criterion {num:02d} {label}: {detail}"


def off_cone_field(grid, seed, gap_frac=4.0):
    u = random_band_limited(grid, seed=seed)
    zeta = np.array(np.meshgrid(*grid.freq_axes(), indexing="ij"))
    sym = zeta[-1] ** 2 - np.sum(zeta[:-1] ** 2, axis=0)
    nonzero = np.abs(sym)[np.abs(sym) > 0]
    c = np.array(u.coeffs)
    c[np.abs(sym) < gap_frac * float(nonzero.min())] = 0.0
    return SpectralField.from_coeffs(grid, c, dict(u.meta))


@pytest.fixture(scope="module")
def ray_flows():
    # one ensemble of 200 legs: each ray forward, then backward
    rays = random_null_rays(4, 100, seed=2026)
    legs = flow([ray for ray in rays for _ in (0, 1)], [100.0, -100.0] * len(rays), tol=1e-10)
    return list(zip(legs[::2], legs[1::2]))


def test_criterion_01_root_lattice_exact():
    start = time.monotonic()
    got = set(indicial_roots(4, 60))
    elapsed = time.monotonic() - start
    want = {Fraction(s * k) for k in range(1, 62) for s in (1, -1)}
    ok = got == want and elapsed < 1.0
    report(1, "integer root lattice", ok, f"exact match, {elapsed:.3f}s")


def test_criterion_02_shifted_eigenvalue_identity():
    checked = 0
    exact = True
    for n in range(2, 11):
        quarter = Fraction(n - 2) ** 2 / 4
        for e in sphere_spectrum(n, 200):
            lhs = Fraction(e.k * (e.k + n - 2)) + quarter
            rhs = (Fraction(e.k) + Fraction(n - 2, 2)) ** 2
            exact = exact and lhs == rhs == e.shifted == e.shifted_root**2
            checked += 1
    report(2, "shifted eigenvalue identity", exact, f"{checked} exact cases")


def test_criterion_03_index_counts():
    zero_band = all(
        index_count(4, l) == 0 for l in (-0.9, -0.5, -0.25, 0.0, 0.25, 0.5, 0.9)
    )
    ends = index_count(4, 1.5) == -1 and index_count(4, -1.5) == 1
    jumps = True
    for k in range(3):
        root = 1 + k
        jump = index_count(4, root + 0.01) - index_count(4, root - 0.01)
        jumps = jumps and abs(jump) == harmonic_multiplicity(4, k)
    ok = zero_band and ends and jumps
    report(3, "index counts and jumps", ok,
           "0 inside, -1/+1 at +-1.5, jumps = multiplicities")


def test_criterion_04_retarded_support():
    start = time.monotonic()
    grid = GridSpec((16.0, 16.0), (1024, 1024))
    dx = grid.deltas[0]
    f = gaussian_source(grid, width=4.0 * dx)
    u = propagate(f, Prescription(Kind.RETARDED))
    x = grid.axes()[0][:, None]
    t = grid.axes()[1][None, :]
    collar = 3.0 * dx
    inside = (t >= -collar) & (np.abs(x) <= t + collar)
    energy = np.abs(u.values) ** 2
    frac = float(energy[~inside].sum() / energy.sum())
    elapsed = time.monotonic() - start
    ok = frac <= 1e-4 and elapsed < 30.0
    report(4, "retarded forward support", ok,
           f"outside fraction {frac:.2e} <= 1e-4, {elapsed:.1f}s")


def test_criterion_05_feynman_mode_oracle():
    tgrid = np.linspace(-3.0, 3.0, 601)
    worst = 0.0
    for j in range(1, 21):
        omega = 0.025 * j
        prof = mode_profile(omega, Prescription(Kind.FEYNMAN, eps=1e-3 * omega), tgrid)
        want = np.exp(-1j * omega * np.abs(tgrid)) / (2j * omega)
        worst = max(worst, np.linalg.norm(prof - want) / np.linalg.norm(want))
    ok = worst <= 1e-3
    report(5, "Feynman mode profile", ok, f"worst rel L2 {worst:.2e} <= 1e-3")


def test_criterion_06_adjoint_pairs():
    grid = GridSpec((12.0, 12.0), (32, 32))
    eps = 0.8
    pairs = (
        (Prescription(Kind.RETARDED, eps=eps), Prescription(Kind.ADVANCED, eps=eps)),
        (Prescription(Kind.FEYNMAN, eps=eps), Prescription(Kind.ANTIFEYNMAN, eps=eps)),
    )
    worst = 0.0
    for s in range(50):
        f = random_band_limited(grid, seed=2 * s)
        g = random_band_limited(grid, seed=2 * s + 1)
        scale = f.norm() * g.norm()
        for fwd, adj in pairs:
            gap = abs(propagate(f, fwd).inner(g) - f.inner(propagate(g, adj)))
            worst = max(worst, gap / scale)
    ok = worst <= 1e-8
    report(6, "adjoint pairs", ok, f"50 pairs, worst {worst:.2e} <= 1e-8")


def test_criterion_07_wick_path_independence():
    grid = GridSpec((12.0, 12.0), (64, 64))
    f = off_cone_field(grid, 12)
    g = off_cone_field(grid, 13)
    assert characteristic_energy_fraction(f, 0.5) < 1e-3
    assert characteristic_energy_fraction(g, 0.5) < 1e-3
    eps = 2e-4
    s = np.linspace(1.0 / 8, 1.0, 8)
    a = wick_continuation_study(f, g, 1j * eps * s)["values"][-1]
    b = wick_continuation_study(f, g, (1.0 + 1j) / np.sqrt(2.0) * eps * s)["values"][-1]
    rel = abs(a - b) / max(abs(a), abs(b))
    ok = rel <= 1e-3
    report(7, "Wick path independence", ok, f"terminal rel diff {rel:.2e} <= 1e-3")


def test_criterion_08_hamiltonian_conservation(ray_flows):
    worst = max(
        max(fwd.symbol_drift(), bwd.symbol_drift()) for fwd, bwd in ray_flows
    )
    ok = worst <= 1e-8
    report(8, "Hamiltonian conservation", ok,
           f"100 rays x 100 units, worst drift {worst:.2e} <= 1e-8")


def test_criterion_09_radial_classification(ray_flows):
    sinks = sources = signatures = 0
    for fwd, bwd in ray_flows:
        cf = classify_limit(fwd)
        cb = classify_limit(bwd)
        sinks += cf is not None and cf.is_sink
        sources += cb is not None and not cb.is_sink
        for trace, want_contracting in ((fwd, 2), (bwd, 1)):
            eigs = np.abs(radial_flow_signature(trace.points[-1].gamma))
            signatures += int(np.sum(eigs < 1.0)) == want_contracting
    ok = sinks == 100 and sources == 100 and signatures == 200
    report(9, "radial classification", ok,
           f"{sinks}/100 sinks fwd, {sources}/100 sources bwd, "
           f"{signatures}/200 sign patterns")


def test_criterion_10_product_rule_sweep():
    rows = rule_sweep()
    agreeing = sum(1 for r in rows if r["agree"])
    ok = agreeing >= int(np.ceil(0.95 * len(rows)))
    report(10, "product-rule sweep", ok, f"{agreeing}/{len(rows)} agree (need >= 95%)")


def test_criterion_11_picard_toy():
    grid = GridSpec((16.0, 16.0), (128, 128))
    f = gaussian_source(grid, width=1.0)
    start = time.monotonic()
    prob = SemilinearProblem(f=f, p=3, lam=0.1)
    u, rep = picard_solve(prob, max_iter=20, tol=1e-10)
    elapsed = time.monotonic() - start
    solve_ok = (
        rep.converged
        and rep.iterations <= 20
        and rep.final_ratio <= 0.5
        and rep.residual <= 1e-6
        and elapsed < 10.0
    )
    series = perturbation_series(SemilinearProblem(f=f, p=3, lam=0.0), 2)
    lams = [1e-2, 10**-2.5, 1e-3]
    errs = []
    for lam in lams:
        ul, _ = picard_solve(
            SemilinearProblem(f=f, p=3, lam=lam), max_iter=60, tol=1e-14
        )
        trunc = series[0] + lam * series[1] + lam**2 * series[2]
        errs.append((ul - trunc).norm())
    slope = float(np.polyfit(np.log(lams), np.log(errs), 1)[0])
    ok = solve_ok and abs(slope - 3.0) <= 0.2
    report(11, "Picard contraction", ok,
           f"{rep.iterations} iters, ratio {rep.final_ratio:.3f}, "
           f"residual {rep.residual:.1e}, {elapsed:.1f}s, slope {slope:.2f}")


def test_criterion_12_semilinear_weight_table():
    v = semilinear_weights(4, 3)
    lo, hi = v["cubic_l_interval"]
    ok = (
        v["admissible"] is False
        and v["cubic_admissible"] is True
        and lo == 0.0
        and 0.05 < hi
    )
    report(12, "quartic/cubic weight verdicts", ok,
           f"power rule inadmissible, cubic rule l in ({lo}, {hi})")


def test_criterion_13_manifest_determinism(tmp_path):
    configs = [
        {
            "subcommand": "picard",
            "seed": 7,
            "grid": {"extent": [16.0, 16.0], "points": [64, 64]},
            "params": {"p": 3, "lam": 0.1, "source": {"type": "gaussian", "width": 1.0}},
        },
        {
            "subcommand": "flow",
            "seed": 7,
            "params": {"n": 4, "count": 3, "T": 25.0},
        },
        {
            "subcommand": "product-check",
            "seed": 7,
            "params": {"dims": [1], "rules": ["cone-product"]},
        },
    ]
    stable = 0
    for i, data in enumerate(configs):
        hashes = []
        for attempt in ("a", "b"):
            out = tmp_path / f"{i}-{attempt}"
            cfg = ExperimentConfig.from_dict(dict(data, out=str(out)))
            manifest = run_experiment(cfg)
            hashes.append(manifest.files)
            stored = json.loads((out / "manifest.json").read_text())
            assert stored["files"] == [
                {"name": n, "sha256": h} for n, h in manifest.files
            ]
        stable += hashes[0] == hashes[1]
    ok = stable == len(configs)
    report(13, "manifest determinism", ok,
           f"{stable}/{len(configs)} repeated runs with identical checksums")
