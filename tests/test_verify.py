import hashlib
import json
import math
import platform

import numpy as np
import pytest
from scipy.special import ndtri

from gaussmart import (
    DomainError,
    calibrate,
    compound_family,
    laplace,
    nu_total,
    null_calibration,
    path_bundle,
    simulate_grid_ensemble,
    standard_battery,
    transition_pairs,
    verify_bundle,
)

# aliased so pytest does not collect the package's check functions as tests
from gaussmart.verify import test_conditional_kurtosis as check_conditional_kurtosis
from gaussmart.verify import test_continuity_in_probability as check_continuity
from gaussmart.verify import test_cross_moment as check_cross_moment
from gaussmart.verify import test_gaussian_marginal as check_gaussian_marginal
from gaussmart.verify import test_jump_times as check_jump_times
from gaussmart.verify import test_martingale_binned as check_martingale_binned
from gaussmart.verify import test_mode_agreement as check_mode_agreement
from gaussmart.verify import test_quadratic_variation as check_quadratic_variation
from gaussmart.pathsim import simulate_event_terminals
from gaussmart.sampler import sample_subordinator_increment
from gaussmart.verify import _KURTOSIS_BOOT, _KURTOSIS_MIN_BIN, derive_seed


def brownian_pairs(seed, n, s, t):
    b = verify_bundle(seed, n)
    xs = math.sqrt(s) * b.normals()
    xt = xs + math.sqrt(t - s) * b.normals()
    return xs, xt


class TestGaussianMarginal:
    def test_null_passes(self):
        z = verify_bundle(1, 50_000).normals()
        assert check_gaussian_marginal(z, 1.0).passed

    def test_scaled_null(self):
        z = 2.0 * verify_bundle(2, 50_000).normals()
        assert check_gaussian_marginal(z, 4.0).passed

    def test_shifted_mean_fails(self):
        z = verify_bundle(3, 100_000).normals() + 0.2
        rep = check_gaussian_marginal(z, 1.0)
        assert not rep.passed
        assert rep.details["moment_z"][0] > 50  # mean z-score around 63

    def test_degenerate_sample_fails_with_diagnostic(self):
        rep = check_gaussian_marginal(np.zeros(2000), 1.0)
        assert not rep.passed
        assert "degenerate" in rep.details["error"]

    def test_too_small_sample_rejected(self):
        with pytest.raises(DomainError):
            check_gaussian_marginal(np.ones(10), 1.0)


class TestMartingaleBinned:
    def test_brownian_null(self):
        assert check_martingale_binned(*brownian_pairs(4, 100_000, 0.5, 2.0), 0.5, 2.0).passed

    def test_multiplicative_drift_fails_in_outer_bins(self):
        xs, xt = brownian_pairs(5, 100_000, 0.5, 2.0)
        rep = check_martingale_binned(xs, 1.05 * xs + (xt - xs), 0.5, 2.0)
        assert not rep.passed

    def test_insufficient_occupancy_is_inconclusive(self):
        rep = check_martingale_binned(*brownian_pairs(6, 150, 0.5, 2.0), 0.5, 2.0)
        assert rep.status == "inconclusive"
        assert not rep.passed

    @pytest.mark.parametrize("gate", ["martingale", "cross", "kurtosis", "continuity"])
    def test_pairs_must_be_equal_length_1d(self, brownian_fam, gate):
        check = {
            "martingale": lambda a, b: check_martingale_binned(a, b, 0.5, 2.0),
            "cross": lambda a, b: check_cross_moment(a, b, 0.5, 2.0, brownian_fam),
            "kurtosis": lambda a, b: check_conditional_kurtosis(a, b, 0.5, 2.0, brownian_fam),
            "continuity": lambda a, b: check_continuity(a, b, 0.5, 2.0, (1.0,)),
        }[gate]
        xs, xt = brownian_pairs(8, 100, 0.5, 2.0)
        for a, b in ((xs, xt[:-1]), (np.column_stack([xs, xt]), xt), (xs[:, None], xt[:, None])):
            with pytest.raises(DomainError):
                check(a, b)


class TestCrossMoment:
    def test_brownian_null(self, brownian_fam):
        rep = check_cross_moment(*brownian_pairs(7, 100_000, 0.5, 2.0), 0.5, 2.0, brownian_fam)
        assert rep.passed
        assert rep.reference == pytest.approx(1.5)

    def test_poisson_target_value(self, poisson_fam):
        # frozen from 30-digit evaluation of st + 2 s^{1+d} t^{1-d}
        xs, xt = transition_pairs(poisson_fam, 0.5, 2.0, 8, 150_000)
        rep = check_cross_moment(xs, xt, 0.5, 2.0, poisson_fam)
        assert rep.reference == pytest.approx(1.6567741909868684, rel=1e-12)
        assert rep.passed

    def test_brute_force_oracle(self, poisson_fam):
        # independent recursion-level oracle for the target
        s, t = 0.5, 2.0
        b = path_bundle(9, 1_000_000)
        xs = math.sqrt(s) * b.normals()
        sigma = math.sqrt(t / s)
        u = sample_subordinator_increment(poisson_fam, sigma, b)
        xi = b.normals()
        xt = sigma * (np.exp(-0.5 * u) * xs + math.sqrt(s) * np.sqrt(-np.expm1(-u)) * xi)
        w = xs**2 * xt**2
        se = w.std() / math.sqrt(w.size)
        assert abs(w.mean() - 1.6567741909868684) < 4.0 * se

    def test_small_sample_rejected(self, brownian_fam):
        with pytest.raises(DomainError):
            check_cross_moment(*brownian_pairs(10, 1000, 0.5, 2.0), 0.5, 2.0, brownian_fam)

    def test_equal_times_target_is_fourth_moment(self, poisson_fam):
        # s = t collapses the target to 3 s^2 for any family
        s = 0.7
        d = 0.8032653298563167
        assert s * s + 2.0 * s ** (1 + d) * s ** (1 - d) == pytest.approx(3.0 * s * s)


def _raised_bootstrap(sel, seed):
    """Reference kurtosis and bootstrap SE: each resample raises its own
    draw to the second and fourth powers."""
    kurt = float(np.mean(sel**4) / np.mean(sel**2) ** 2)
    bundle = verify_bundle(derive_seed(seed if seed is not None else 0, "kurtosis-bootstrap"), sel.size)
    boot = np.empty(_KURTOSIS_BOOT)
    for bi in range(_KURTOSIS_BOOT):
        draw = sel[np.minimum((bundle.uniforms(1)[0] * sel.size).astype(int), sel.size - 1)]
        boot[bi] = np.mean(draw**4) / np.mean(draw**2) ** 2
    return kurt, float(boot.std(ddof=1))


class TestConditionalKurtosis:
    def test_brownian_null_target_three(self, brownian_fam):
        rep = check_conditional_kurtosis(
            *brownian_pairs(11, 60_000, 1.0, 4.0), 1.0, 4.0, brownian_fam, seed=11
        )
        assert rep.reference == pytest.approx(3.0, rel=1e-12)
        assert rep.passed

    def test_poisson_closed_form_vs_mixing_oracle(self, poisson_fam):
        # direct (R, xi) sampling of the conditional law at X_s = 0
        s, t = 1.0, 4.0
        sigma = 2.0
        b = path_bundle(12, 400_000)
        u = sample_subordinator_increment(poisson_fam, sigma, b)
        xi = b.normals()
        xt = sigma * math.sqrt(s) * np.sqrt(-np.expm1(-u)) * xi
        kurt = np.mean(xt**4) / np.mean(xt**2) ** 2
        l1 = laplace(poisson_fam, sigma, 1.0)
        l2 = laplace(poisson_fam, sigma, 2.0)
        target = 3.0 * (1.0 - 2.0 * l1 + l2) / (1.0 - l1) ** 2
        assert target == pytest.approx(3.7327405594703283, rel=1e-12)
        assert kurt == pytest.approx(target, rel=0.02)

    @pytest.mark.parametrize("sigma", [1.1, 2.0, 4.0])
    def test_target_exceeds_three(self, poisson_fam, gamma_fam, sigma):
        for fam in (poisson_fam, gamma_fam):
            l1 = laplace(fam, sigma, 1.0)
            l2 = laplace(fam, sigma, 2.0)
            target = 3.0 * (1.0 - 2.0 * l1 + l2) / (1.0 - l1) ** 2
            assert target > 3.0

    def test_simulated_poisson_passes(self, poisson_fam):
        xs, xt = transition_pairs(poisson_fam, 1.0, 4.0, 13, 120_000)
        rep = check_conditional_kurtosis(xs, xt, 1.0, 4.0, poisson_fam, seed=13)
        assert rep.passed

    @pytest.mark.parametrize("seed", [None, 11, 29])
    @pytest.mark.parametrize("exact_floor", [False, True], ids=["wide-bin", "floor-bin"])
    def test_bootstrap_matches_raised_resamples(self, poisson_fam, seed, exact_floor):
        # the gate gathers precomputed powers; raising each resample's draw
        # instead gives the same statistic, SE and z bit for bit
        if exact_floor:
            xs = np.concatenate([np.zeros(_KURTOSIS_MIN_BIN), np.full(500, 3.0)])
            xt = verify_bundle(seed or 0, xs.size).normals()
        else:
            xs, xt = brownian_pairs(seed or 0, 60_000, 1.0, 4.0)
        rep = check_conditional_kurtosis(xs, xt, 1.0, 4.0, poisson_fam, seed=seed)
        sel = xt[np.abs(xs) < rep.details["bin_half_width"]]
        assert (sel.size == _KURTOSIS_MIN_BIN) == exact_floor
        kurt, se = _raised_bootstrap(sel, seed)
        assert rep.statistic == kurt
        assert rep.details["bootstrap_se"] == se
        assert rep.details["z"] == (kurt - rep.reference) / se

    def test_thin_bin_inconclusive(self, poisson_fam):
        rep = check_conditional_kurtosis(*brownian_pairs(14, 5_000, 1.0, 4.0), 1.0, 4.0, poisson_fam)
        assert rep.status == "inconclusive"


class TestQuadraticVariation:
    def test_brownian_residual_identically_zero(self, brownian_fam):
        times = np.linspace(0.0, 1.0, 129)
        values = simulate_grid_ensemble(brownian_fam, times, 15, 500)
        rep = check_quadratic_variation(values, times, brownian_fam)
        assert rep.passed
        assert abs(rep.statistic) < 1e-12

    def test_poisson_passes(self, poisson_fam):
        times = np.linspace(0.0, 1.0, 257)
        values = simulate_grid_ensemble(poisson_fam, times, 16, 4_000)
        rep = check_quadratic_variation(values, times, poisson_fam)
        assert rep.passed
        assert rep.details["mean_qv"] == pytest.approx(1.0, abs=0.05)

    def test_residual_shrinks_under_refinement(self, poisson_fam):
        spreads = []
        for steps, seed in ((64, 17), (256, 18)):
            times = np.linspace(0.0, 1.0, steps + 1)
            values = simulate_grid_ensemble(poisson_fam, times, seed, 2_000)
            rep = check_quadratic_variation(values, times, poisson_fam)
            spreads.append(rep.details["se_residual"] * math.sqrt(values.shape[0]))
        assert spreads[1] < spreads[0]

    def test_coarse_grid_inconclusive(self, poisson_fam):
        times = np.linspace(0.0, 1.0, 11)
        values = simulate_grid_ensemble(poisson_fam, times, 19, 100)
        assert check_quadratic_variation(values, times, poisson_fam).status == "inconclusive"

    @pytest.mark.parametrize("n_paths", [0, 1])
    def test_fewer_than_two_paths_rejected(self, brownian_fam, n_paths):
        # one path has no standard error, so the gate cannot be tested
        times = np.linspace(0.0, 1.0, 129)
        values = simulate_grid_ensemble(brownian_fam, times, 21, n_paths)
        with pytest.raises(DomainError):
            check_quadratic_variation(values, times, brownian_fam)

    @pytest.mark.parametrize(
        "case", ["starts_after_zero", "reversed", "unsorted", "too_few_columns",
                 "too_many_columns", "nonzero_start", "one_dimensional", "non_finite_time"],
    )
    def test_grid_it_cannot_evaluate_rejected(self, brownian_fam, case):
        # each of these once passed (a grid starting after 0), failed with
        # NaN, or surfaced as a numpy error instead of a domain error
        times = np.linspace(0.0, 1.0, 129)
        values = simulate_grid_ensemble(brownian_fam, times, 22, 50)
        if case == "starts_after_zero":
            times = np.linspace(0.5, 1.0, 129)
        elif case == "reversed":
            times = times[::-1]
        elif case == "unsorted":
            times = times.copy()
            times[[5, 6]] = times[[6, 5]]
        elif case == "too_few_columns":
            values = values[:, :-1]
        elif case == "too_many_columns":
            times = times[:-1]
        elif case == "nonzero_start":
            values = values + 0.1
        elif case == "one_dimensional":
            values = values[0]
        else:
            times = times.copy()
            times[-1] = math.inf
        with pytest.raises(DomainError):
            check_quadratic_variation(values, times, brownian_fam)


class TestJumpTimes:
    def test_exact_pareto_null(self, poisson_fam):
        u = verify_bundle(20, 100_000).uniforms(1)[0]
        times = 1.0 * u ** (-2.0 / nu_total(poisson_fam))
        rep = check_jump_times(times, 1.0, poisson_fam)
        assert rep.passed
        assert rep.details["median_target"] == pytest.approx(1.7254093517858221, rel=1e-12)
        assert rep.details["survival_target"] == pytest.approx(0.4144451136983333, rel=1e-12)

    def test_support_from_two(self, poisson_fam):
        from gaussmart import first_jump_times

        times = first_jump_times(poisson_fam, 2.0, path_bundle(21, 20_000))
        rep = check_jump_times(times, 2.0, poisson_fam)
        assert rep.details["min_time"] > 2.0
        assert rep.passed

    def test_wrong_tail_fails(self, poisson_fam):
        u = verify_bundle(22, 50_000).uniforms(1)[0]
        times = 1.0 * u ** (-2.5 / nu_total(poisson_fam))  # wrong tail exponent
        assert not check_jump_times(times, 1.0, poisson_fam).passed

    def test_non_poisson_rejected(self, gamma_fam):
        with pytest.raises(Exception):
            check_jump_times(np.ones(20_000) * 2.0, 1.0, gamma_fam)

    def test_infinite_mean_reported_for_small_jump_mass(self):
        # one atom at 8 calibrates to nu = 1/(1 - e^{-4}) ~ 1.019 <= 2, where
        # the first-jump time has no mean; nu s/(nu - 2) would be negative
        fam = calibrate(compound_family([(8.0, 1.0)]))
        nu = nu_total(fam)
        assert nu == pytest.approx(1.0 / -math.expm1(-4.0), rel=1e-12)
        u = verify_bundle(35, 100_000).uniforms(1)[0]
        rep = check_jump_times(1.0 * u ** (-2.0 / nu), 1.0, fam)
        assert rep.passed
        assert rep.details["mean_target"] == math.inf
        assert rep.to_dict()["details"]["mean_target"] == "inf"
        assert rep.reference == "pareto(s, nu/2)"
        assert rep.details["median_target"] == pytest.approx(2.0 ** (2.0 / nu), rel=1e-12)

    def test_finite_mean_target(self, poisson_fam):
        u = verify_bundle(36, 10_000).uniforms(1)[0]
        nu = nu_total(poisson_fam)
        rep = check_jump_times(1.0 * u ** (-2.0 / nu), 1.0, poisson_fam)
        assert rep.details["mean_target"] == pytest.approx(nu / (nu - 2.0), rel=1e-12)


class TestModeAgreement:
    def test_same_law_passes(self):
        b = verify_bundle(23, 20_000)
        a_s = math.sqrt(2.0) * b.normals()
        b_s = math.sqrt(2.0) * b.normals()
        assert check_mode_agreement(a_s, b_s).passed

    def test_event_vs_grid(self, poisson_fam):
        n = 20_000
        start = verify_bundle(24, n).normals()
        grid_term = simulate_grid_ensemble(
            poisson_fam, np.linspace(1.0, 2.0, 17), 25, n, start_values=start
        )[:, -1]
        event_term = simulate_event_terminals(
            poisson_fam, 1.0, start, 2.0, path_bundle(26, n)
        )
        assert check_mode_agreement(grid_term, event_term).passed

    def test_event_vs_grid_compound(self, compound_fam):
        n = 20_000
        start = verify_bundle(37, n).normals()
        grid_term = simulate_grid_ensemble(
            compound_fam, np.linspace(1.0, 2.0, 17), 38, n, start_values=start
        )[:, -1]
        event_term = simulate_event_terminals(
            compound_fam, 1.0, start, 2.0, path_bundle(39, n)
        )
        assert check_mode_agreement(grid_term, event_term).passed

    def test_wrong_jump_variance_fails(self, poisson_fam):
        # mutated event simulator: jump variance frozen at the start time
        # instead of the jump time
        n = 20_000
        start = verify_bundle(27, n).normals()
        grid_term = simulate_grid_ensemble(
            poisson_fam, np.linspace(1.0, 2.0, 17), 28, n, start_values=start
        )[:, -1]
        c = nu_total(poisson_fam)
        bundle = path_bundle(29, n)
        t = np.full(n, 1.0)
        x = start.copy()
        live = np.ones(n, dtype=bool)
        while live.any():
            idx = np.nonzero(live)[0]
            uu = bundle.uniforms(2, idx)
            big_t = t[idx] * uu[0] ** (-2.0 / c)
            jumped = big_t <= 2.0
            ji = idx[jumped]
            if ji.size:
                pre = x[ji] * np.sqrt(big_t[jumped] / t[ji])
                wrong_sd = math.sqrt(1.0 * -math.expm1(-1.0))  # uses s0, not T
                x[ji] = pre + (math.exp(-0.5) - 1.0) * pre + wrong_sd * ndtri(uu[1][jumped])
                t[ji] = big_t[jumped]
            live[idx[~jumped]] = False
        mutated = x * np.sqrt(2.0 / t)
        assert not check_mode_agreement(grid_term, mutated).passed

    def test_metadata_mismatch_rejected(self):
        with pytest.raises(DomainError):
            check_mode_agreement(
                np.zeros(10_000), np.zeros(10_000),
                meta_grid=(1.0, 2.0), meta_event=(1.0, 3.0),
            )


class TestContinuity:
    def test_brownian_null(self, brownian_fam):
        assert check_continuity(*brownian_pairs(30, 100_000, 0.5, 2.0), 0.5, 2.0, (1.0, 2.0)).passed

    def test_poisson(self, poisson_fam):
        xs, xt = transition_pairs(poisson_fam, 0.5, 2.0, 31, 100_000)
        rep = check_continuity(xs, xt, 0.5, 2.0, (1.0, 2.0, 3.0))
        assert rep.passed


@pytest.mark.parametrize("gate", ["marginal", "jumps", "mode"])
def test_one_sample_gates_refuse_non_1d_samples(poisson_fam, gate):
    u = verify_bundle(37, 20_000).uniforms(1)[0]
    sample = {
        "marginal": ndtri(u),
        "jumps": u ** (-2.0 / nu_total(poisson_fam)),
        "mode": ndtri(u),
    }[gate]
    check = {
        "marginal": lambda z: check_gaussian_marginal(z, 1.0),
        "jumps": lambda z: check_jump_times(z, 1.0, poisson_fam),
        "mode": lambda z: check_mode_agreement(z, z),
    }[gate]
    assert check(sample).passed  # the same values as a 1-d sample are fine
    for shaped in (sample.reshape(2, -1), sample[:, None], np.float64(1.0)):
        with pytest.raises(DomainError, match="1-d"):
            check(shaped)


def test_each_gate_states_one_tolerance_on_every_branch(brownian_fam, poisson_fam):
    xs, xt = brownian_pairs(38, 150, 0.5, 2.0)
    many_xs, many_xt = brownian_pairs(4, 100_000, 0.5, 2.0)
    grid = np.linspace(0.0, 1.0, 9)
    coarse = simulate_grid_ensemble(poisson_fam, grid, 39, 10)
    fine_grid = np.linspace(0.0, 1.0, 65)
    fine = simulate_grid_ensemble(poisson_fam, fine_grid, 39, 10)
    pairs = [
        (check_gaussian_marginal(np.zeros(2000), 1.0),
         check_gaussian_marginal(verify_bundle(1, 2000).normals(), 1.0)),
        (check_martingale_binned(xs, xt, 0.5, 2.0),
         check_martingale_binned(many_xs, many_xt, 0.5, 2.0)),
        (check_conditional_kurtosis(xs, xt, 0.5, 2.0, brownian_fam),
         check_conditional_kurtosis(many_xs, many_xt, 0.5, 2.0, brownian_fam)),
        (check_quadratic_variation(coarse, grid, poisson_fam),
         check_quadratic_variation(fine, fine_grid, poisson_fam)),
    ]
    for degenerate, regular in pairs:
        assert degenerate.status != "pass" and regular.status != "inconclusive"
        assert degenerate.tolerance == regular.tolerance


class TestHarness:
    def test_reports_reproducible(self, poisson_fam):
        a = standard_battery(poisson_fam, 99, n_paths=100_000, n_qv=1_000,
                             n_jumps=20_000, n_mode=10_000)
        b = standard_battery(poisson_fam, 99, n_paths=100_000, n_qv=1_000,
                             n_jumps=20_000, n_mode=10_000)
        assert [r.to_dict() for r in a] == [r.to_dict() for r in b]

    def test_reports_json_serializable(self, gamma_fam):
        reports = standard_battery(gamma_fam, 5, n_paths=100_000, n_qv=1_000)
        payload = json.dumps([r.to_dict() for r in reports])
        assert "gaussian_marginal" in payload

    @pytest.mark.parametrize(
        "fam_name, sizes",
        [
            ("brownian_fam", {"n_paths": 999}),
            ("brownian_fam", {"n_qv": 1}),
            ("poisson_fam", {"n_qv": 0}),
            ("poisson_fam", {"n_jumps": 5_000}),
            ("compound_fam", {"n_mode": 100}),
        ],
        ids=["brownian-paths", "brownian-qv", "poisson-qv", "poisson-jumps", "compound-mode"],
    )
    def test_too_small_sizes_refused_before_simulating(
        self, monkeypatch, request, fam_name, sizes
    ):
        from gaussmart import verify

        def must_not_run(*args, **kwargs):
            raise AssertionError("simulated before the sizes were checked")

        monkeypatch.setattr(verify, "simulate_grid_ensemble", must_not_run)
        monkeypatch.setattr(verify, "transition_pairs", must_not_run)
        with pytest.raises(DomainError):
            standard_battery(request.getfixturevalue(fam_name), 1, **sizes)

    def test_jump_sizes_not_checked_for_gamma(self, monkeypatch, gamma_fam):
        # the jump and mode gates do not run for gamma, so their sizes are free
        from gaussmart import verify

        def stop(*args, **kwargs):
            raise RuntimeError("reached the simulation")

        monkeypatch.setattr(verify, "simulate_grid_ensemble", stop)
        with pytest.raises(RuntimeError, match="reached the simulation"):
            standard_battery(gamma_fam, 1, n_jumps=0, n_mode=0)

    def test_derive_seed_stable(self):
        assert derive_seed(7, "marginal") == derive_seed(7, "marginal")
        assert derive_seed(7, "marginal") != derive_seed(7, "pairs")
        assert derive_seed(7, "marginal") != derive_seed(8, "marginal")

    def test_null_calibration_small(self):
        counts = null_calibration(seed=5, reps=3)
        assert counts["repetitions"] == 3
        for name, n_pass in counts.items():
            if name != "repetitions":
                assert n_pass == 3, name

    def test_battery_and_null_trim_the_heap_once_done(self, monkeypatch, brownian_fam):
        # one trim per call, after it returns or raises
        from gaussmart import verify

        trims = []
        monkeypatch.setattr(verify, "_malloc_trim", lambda: trims.append)
        reports = standard_battery(brownian_fam, 1, n_paths=1_000, n_qv=2)
        assert trims == [0] and reports
        null_calibration(seed=1, reps=1)
        with pytest.raises(DomainError):
            standard_battery(brownian_fam, 1, n_paths=999)
        assert trims == [0, 0, 0]

    def test_malloc_trim_found_on_glibc(self):
        from gaussmart import verify

        if platform.libc_ver()[0] != "glibc":
            pytest.skip("malloc_trim is a glibc function")
        assert verify._malloc_trim() is not None


def _digest(obj) -> str:
    return hashlib.sha256(json.dumps(obj, sort_keys=True).encode()).hexdigest()


class TestPinnedReports:
    """Every report of the battery and of the null calibration, pinned bit
    for bit: a change to how the experiments are run that moves a sub-seed,
    a reference draw, a size or a statistic changes a digest.  The digests
    are of stream layout 3 and of this numpy/scipy build's floats (numpy
    2.4, scipy 1.17); another build may round a statistic differently."""

    BATTERY = {
        "poisson_fam": "06532131f53d4fac2370399db228ab92f263ca1605f88092800866205ae64658",
        "gamma_fam": "03e5257f46b140f4d7789c0fb0f8beb3c71a1af3ef33712aeb590d151ea57896",
        "compound_fam": "6c0acbf68705ae76dc90720c6bc403e32415c192ea489e1bcb8ee0fb77e449a9",
        "brownian_fam": "0eb63fc565408fdb7f5c8a0501224410a2eb59935b348943c52fd1690c854458",
    }
    NULL = "b9e3b276f0f99ae7cfd3473d09b5c24e6a4d4b3ded4a7f42b0da47ede937ca44"

    @pytest.mark.parametrize("fam_name", sorted(BATTERY))
    def test_battery_reports(self, request, fam_name):
        reports = standard_battery(
            request.getfixturevalue(fam_name), 7, n_paths=20_000, n_qv=2_500
        )
        assert _digest([r.to_dict() for r in reports]) == self.BATTERY[fam_name]

    def test_null_calibration_reports(self, monkeypatch):
        from gaussmart import verify

        recorded = []

        def recording(gate):
            def wrapper(*args, **kwargs):
                report = gate(*args, **kwargs)
                recorded.append(report.to_dict())
                return report
            return wrapper

        gates = [name for name in vars(verify) if name.startswith("test_")]
        for name in gates:
            monkeypatch.setattr(verify, name, recording(getattr(verify, name)))
        counts = null_calibration(seed=5, reps=2)
        assert len(recorded) == 2 * (len(counts) - 1) == 16
        assert _digest(recorded) == self.NULL


def test_gates_are_looked_up_when_called(monkeypatch, compound_fam):
    # callers replace a gate by its module attribute (tracing, mutants), so
    # neither the battery nor the null calibration may hold the functions
    from gaussmart import verify

    calls = []
    gate = verify.test_cross_moment

    def spy(*args, **kwargs):
        calls.append(kwargs["seed"])
        return gate(*args, **kwargs)

    monkeypatch.setattr(verify, "test_cross_moment", spy)
    reports = standard_battery(compound_fam, 3, n_paths=1_000, n_qv=2,
                               n_jumps=10_000, n_mode=10_000)
    assert calls == [derive_seed(3, "pairs")]
    counts = null_calibration(seed=3, reps=1)
    assert calls == [derive_seed(3, "pairs"), derive_seed(3, "null-0")]
    assert list(counts) == [r.test_name for r in reports] + ["repetitions"]


def test_reference_streams_do_not_overlap():
    # each row's exact reference reads verify streams of its own: rows that
    # shared streams would hand the null calibration dependent draws
    from gaussmart.verify import EXPERIMENTS

    spans = sorted((offset, offset + lanes, row.tag)
                   for row in EXPERIMENTS for lanes, offset in [row.streams] if lanes)
    assert len(spans) == 5  # every row but qv, whose paths use ordinary streams
    for (_, end, a), (start, _, b) in zip(spans, spans[1:]):
        assert end <= start, f"rows {a} and {b} share verify streams"
