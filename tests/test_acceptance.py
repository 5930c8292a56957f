"""Acceptance battery: one test per criterion, one printed line per verdict.

Run with ``pytest tests/test_acceptance.py -s`` to see the PASS/FAIL lines;
tolerances are fixed here, not calibrated after the fact.
"""

import math

import numpy as np
import pytest

from gaussmart import (
    GridSpec,
    Polynomial,
    apply_generator,
    brownian_family,
    calibrate,
    ck_residual,
    compound_family,
    delta,
    first_jump_times,
    gamma_family,
    gamma_limit_check,
    generator_check,
    kernel_moment,
    null_calibration,
    path_bundle,
    poisson_family,
    psi,
    simulate_event_terminals,
    simulate_grid_ensemble,
    sqrt_taylor_measure,
    transition_pairs,
    verify_bundle,
)
from gaussmart.verify import (
    derive_seed,
    test_gaussian_marginal as check_gaussian_marginal,
    test_jump_times as check_jump_times,
    test_mode_agreement as check_mode_agreement,
    test_quadratic_variation as check_quadratic_variation,
)

SEED = 20260811


def verdict(criterion: str, ok: bool, detail: str = "") -> bool:
    line = f"ACCEPTANCE {criterion}: {'PASS' if ok else 'FAIL'}"
    if detail:
        line += f"  [{detail}]"
    print(line)
    return ok


@pytest.fixture(scope="module")
def fam_poisson():
    return calibrate(poisson_family())


@pytest.fixture(scope="module")
def fam_gamma():
    return calibrate(gamma_family(b=1.0))


def test_01_calibration(fam_poisson, fam_gamma):
    ok_psi = (
        abs(psi(fam_poisson, 0.5) - 1.0) <= 1e-12
        and abs(psi(fam_gamma, 0.5) - 1.0) <= 1e-12
    )
    d_pois = delta(fam_poisson)
    d_gam = delta(fam_gamma)
    target_pois = (1.0 + math.exp(-0.5)) / 2.0
    target_gam = math.log(2.0) / (2.0 * math.log(1.5))
    ok_delta = (
        abs(d_pois - target_pois) <= 1e-12 and abs(d_gam - target_gam) <= 1e-12
    )
    ok = verdict(
        "01 calibration", ok_psi and ok_delta,
        f"delta_poisson={d_pois:.12f} delta_gamma={d_gam:.12f}",
    )
    assert ok


def test_02_kernel_sanity(fam_poisson):
    s, t, x = 0.5, 2.0, 1.0
    mass = kernel_moment(fam_poisson, s, t, x, 0)
    mean = kernel_moment(fam_poisson, s, t, x, 1)
    second = kernel_moment(fam_poisson, s, t, x, 2)
    d = delta(fam_poisson)  # the closed form in delta, apart from the Hermite sum
    target = t * (1.0 - (s / t) ** d) + (t / s) ** (1.0 - d) * x * x
    ok = (
        abs(mass - 1.0) <= 1e-8
        and abs(mean - x) <= 1e-8
        and abs(second - target) <= 1e-8
    )
    ok = verdict(
        "02 kernel sanity", ok,
        f"mass err {abs(mass - 1):.1e}, mean err {abs(mean - x):.1e}, "
        f"m2 err {abs(second - target):.1e}",
    )
    assert ok


def test_03_chapman_kolmogorov(fam_poisson):
    worst_sup, worst_atom = 0.0, 0.0
    for x in (0.0, 1.0, -1.0):
        sup, atom = ck_residual(fam_poisson, 0.5, 1.0, 2.0, x, GridSpec(n_nodes=2048))
        worst_sup = max(worst_sup, sup)
        worst_atom = max(worst_atom, atom)
    ok = verdict(
        "03 chapman-kolmogorov", worst_atom <= 1e-12 and worst_sup < 1e-6,
        f"sup {worst_sup:.2e}, atom {worst_atom:.2e}",
    )
    assert ok


def test_04_gaussian_marginals(fam_poisson, fam_gamma):
    families = {
        "poisson": fam_poisson,
        "gamma": fam_gamma,
        "compound": calibrate(compound_family([(0.5, 1.0), (2.0, 0.25)])),
        "brownian": brownian_family(),
    }
    times = np.linspace(0.0, 1.0, 21)
    details = []
    ok = True
    for name, fam in families.items():
        vals = simulate_grid_ensemble(
            fam, times, derive_seed(SEED, f"marginal-{name}"), 200_000
        )
        rep = check_gaussian_marginal(vals[:, -1], 1.0)
        var_ok = abs(rep.details["variance"] - 1.0) <= 4.0 * math.sqrt(2.0 / 200_000)
        ok &= rep.p_value > 0.001 and var_ok
        details.append(f"{name}: p={rep.p_value:.3f} var={rep.details['variance']:.4f}")
    ok = verdict("04 gaussian marginals", ok, "; ".join(details))
    assert ok


def test_05_non_gaussianity_witness(fam_poisson):
    s, t, n = 0.5, 2.0, 1_000_000
    xs, xt = transition_pairs(fam_poisson, s, t, derive_seed(SEED, "witness"), n)
    w = xs**2 * xt**2
    mean = float(w.mean())
    se = float(w.std(ddof=1) / math.sqrt(n))
    d = delta(fam_poisson)
    target = s * t + 2.0 * s ** (1.0 + d) * t ** (1.0 - d)
    gaussian_value = s * t + 2.0 * s**2
    ok = abs(mean - target) <= 4.0 * se and mean - gaussian_value >= 4.0 * se
    ok = verdict(
        "05 non-gaussianity witness", ok,
        f"mean={mean:.4f} target={target:.4f} gaussian={gaussian_value:.4f} se={se:.4f}",
    )
    assert ok


def test_06_generator_agreement(fam_poisson, fam_gamma):
    ok = True
    details = []
    for f, tag in ((Polynomial.monomial(2), "x2"), (Polynomial.monomial(3), "x3")):
        rp = generator_check(fam_poisson, f, 1.0, 0.8)
        rg = generator_check(fam_gamma, f, 1.0, 0.8)
        ok &= rp["relative_error"] < 1e-6 and rg["relative_error"] < 1e-6
        details.append(
            f"{tag}: poisson {rp['relative_error']:.1e}, gamma {rg['relative_error']:.1e}"
        )
    x2 = Polynomial.monomial(2)
    for fam in (fam_poisson, fam_gamma):
        d = delta(fam)
        for s, x in ((0.5, 0.8), (1.0, 0.8), (2.0, -2.0), (1.0, 0.0)):
            ok &= abs(apply_generator(fam, x2, s, x) - (d + (1 - d) * x * x / s)) <= 1e-8
    ok = verdict("06 generator agreement", ok, "; ".join(details))
    assert ok


def test_07_quadratic_variation(fam_poisson):
    times = np.linspace(0.0, 1.0, 257)
    values = simulate_grid_ensemble(
        fam_poisson, times, derive_seed(SEED, "qv"), 10_000
    )
    rep = check_quadratic_variation(values, times, fam_poisson)
    ok = verdict(
        "07 quadratic variation", rep.passed,
        f"mean residual {rep.statistic:.2e} (se {rep.details['se_residual']:.2e}), "
        f"E[qv]={rep.details['mean_qv']:.4f}",
    )
    assert ok


def test_08_jump_law(fam_poisson):
    jumps = first_jump_times(
        fam_poisson, 1.0, path_bundle(derive_seed(SEED, "jumps"), 100_000)
    )
    rep = check_jump_times(jumps, 1.0, fam_poisson)
    ok = verdict(
        "08 jump law", rep.passed,
        f"KS p={rep.p_value:.3f} median={rep.details['median']:.5f} "
        f"survival={rep.details['survival_at_2s']:.5f} "
        f"mean(report only)={rep.details['mean_reported_only']:.3f}",
    )
    assert ok


def test_09_mode_agreement(fam_poisson):
    n = 10_000
    start = verify_bundle(derive_seed(SEED, "mode-init"), n).normals()
    grid_term = simulate_grid_ensemble(
        fam_poisson, np.linspace(1.0, 2.0, 17),
        derive_seed(SEED, "mode-grid"), n, start_values=start,
    )[:, -1]
    event_term = simulate_event_terminals(
        fam_poisson, 1.0, start, 2.0, path_bundle(derive_seed(SEED, "mode-event"), n)
    )
    rep = check_mode_agreement(
        grid_term, event_term, meta_grid=(1.0, 2.0), meta_event=(1.0, 2.0)
    )
    ok = verdict("09 mode agreement", rep.passed, f"two-sample KS p={rep.p_value:.3f}")
    assert ok


def test_10_auxiliary_lemmas():
    m = sqrt_taylor_measure(10_000)
    ok_w1 = m.weights[1] == 0.5
    ok_identity = abs(m.laplace_sum(0.3) - m.exact_value(0.3)) <= 1e-10
    ok_tail = True
    for n in (100, 1000, 10_000):
        tail = 1.0 - sqrt_taylor_measure(n).partial_sum()
        ok_tail &= 0.0 < tail < 1.2 / math.sqrt(math.pi * n)
    lhs, rhs = gamma_limit_check(1.0, "one_minus_exp", 1e-3)
    ok_limit = abs(rhs - math.log(2.0)) <= 1e-10 and abs(lhs - rhs) <= 0.01 * rhs
    ok = verdict(
        "10 auxiliary lemmas", ok_w1 and ok_identity and ok_tail and ok_limit,
        f"identity err {abs(m.laplace_sum(0.3) - m.exact_value(0.3)):.1e}, "
        f"limit rel err {abs(lhs - rhs) / rhs:.2e}",
    )
    assert ok


def test_11_null_calibration():
    counts = null_calibration(seed=derive_seed(SEED, "null"), reps=100)
    reps = counts.pop("repetitions")
    ok = all(n_pass >= 99 for n_pass in counts.values()) and reps == 100
    summary = ", ".join(f"{k}={v}" for k, v in sorted(counts.items()))
    ok = verdict("11 null calibration", ok, summary)
    assert ok
