import json
import math

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
from gaussmart.verify import derive_seed


def brownian_pairs(seed, n, s, t):
    b = verify_bundle(seed, n)
    xs = math.sqrt(s) * b.normals()
    xt = xs + math.sqrt(t - s) * b.normals()
    return np.column_stack([xs, xt])


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
        assert check_martingale_binned(brownian_pairs(4, 100_000, 0.5, 2.0), 0.5, 2.0).passed

    def test_multiplicative_drift_fails_in_outer_bins(self):
        pairs = brownian_pairs(5, 100_000, 0.5, 2.0)
        pairs[:, 1] = 1.05 * pairs[:, 0] + (pairs[:, 1] - pairs[:, 0])
        rep = check_martingale_binned(pairs, 0.5, 2.0)
        assert not rep.passed

    def test_insufficient_occupancy_is_inconclusive(self):
        rep = check_martingale_binned(brownian_pairs(6, 150, 0.5, 2.0), 0.5, 2.0)
        assert rep.status == "inconclusive"
        assert not rep.passed


class TestCrossMoment:
    def test_brownian_null(self, brownian_fam):
        rep = check_cross_moment(brownian_pairs(7, 100_000, 0.5, 2.0), 0.5, 2.0, brownian_fam)
        assert rep.passed
        assert rep.reference == pytest.approx(1.5)

    def test_poisson_target_value(self, poisson_fam):
        # frozen from 30-digit evaluation of st + 2 s^{1+d} t^{1-d}
        xs, xt = transition_pairs(poisson_fam, 0.5, 2.0, 8, 150_000)
        rep = check_cross_moment(np.column_stack([xs, xt]), 0.5, 2.0, poisson_fam)
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
            check_cross_moment(brownian_pairs(10, 1000, 0.5, 2.0), 0.5, 2.0, brownian_fam)

    def test_equal_times_target_is_fourth_moment(self, poisson_fam):
        # s = t collapses the target to 3 s^2 for any family
        s = 0.7
        d = 0.8032653298563167
        assert s * s + 2.0 * s ** (1 + d) * s ** (1 - d) == pytest.approx(3.0 * s * s)


class TestConditionalKurtosis:
    def test_brownian_null_target_three(self, brownian_fam):
        rep = check_conditional_kurtosis(
            brownian_pairs(11, 60_000, 1.0, 4.0), 1.0, 4.0, brownian_fam, seed=11
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
        rep = check_conditional_kurtosis(
            np.column_stack([xs, xt]), 1.0, 4.0, poisson_fam, seed=13
        )
        assert rep.passed

    def test_thin_bin_inconclusive(self, poisson_fam):
        pairs = brownian_pairs(14, 5_000, 1.0, 4.0)
        rep = check_conditional_kurtosis(pairs, 1.0, 4.0, poisson_fam)
        assert rep.status == "inconclusive"


class TestQuadraticVariation:
    def test_brownian_residual_identically_zero(self, brownian_fam):
        times = np.linspace(0.0, 1.0, 129)
        values = simulate_grid_ensemble(brownian_fam, times, 15, 500)
        rep = check_quadratic_variation(values, brownian_fam, times=times)
        assert rep.passed
        assert abs(rep.statistic) < 1e-12

    def test_poisson_passes(self, poisson_fam):
        times = np.linspace(0.0, 1.0, 257)
        values = simulate_grid_ensemble(poisson_fam, times, 16, 4_000)
        rep = check_quadratic_variation(values, poisson_fam, times=times)
        assert rep.passed
        assert rep.details["mean_qv"] == pytest.approx(1.0, abs=0.05)

    def test_residual_shrinks_under_refinement(self, poisson_fam):
        spreads = []
        for steps, seed in ((64, 17), (256, 18)):
            times = np.linspace(0.0, 1.0, steps + 1)
            values = simulate_grid_ensemble(poisson_fam, times, seed, 2_000)
            rep = check_quadratic_variation(values, poisson_fam, times=times)
            spreads.append(rep.details["se_residual"] * math.sqrt(values.shape[0]))
        assert spreads[1] < spreads[0]

    def test_coarse_grid_inconclusive(self, poisson_fam):
        times = np.linspace(0.0, 1.0, 11)
        values = simulate_grid_ensemble(poisson_fam, times, 19, 100)
        assert check_quadratic_variation(values, poisson_fam, times=times).status == "inconclusive"

    def test_accepts_path_grid_list(self, brownian_fam):
        from gaussmart import PathGrid

        times = np.linspace(0.0, 1.0, 129)
        values = simulate_grid_ensemble(brownian_fam, times, 20, 50)
        paths = [PathGrid(times=times, values=v) for v in values]
        rep = check_quadratic_variation(paths, brownian_fam)
        assert rep.passed and rep.n_samples == 50

    @pytest.mark.parametrize("n_paths", [0, 1])
    def test_fewer_than_two_paths_rejected(self, brownian_fam, n_paths):
        # one path has no standard error, so the gate cannot be tested
        from gaussmart import PathGrid

        times = np.linspace(0.0, 1.0, 129)
        values = simulate_grid_ensemble(brownian_fam, times, 21, n_paths)
        with pytest.raises(DomainError):
            check_quadratic_variation(values, brownian_fam, times=times)
        with pytest.raises(DomainError):
            check_quadratic_variation(
                [PathGrid(times=times, values=v) for v in values], brownian_fam
            )


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

    def test_accepts_event_paths_and_rejects_censoring(self, poisson_fam):
        from gaussmart import RandomStream, simulate_event

        # long horizon: every path jumps, so first jumps are uncensored
        paths = [
            simulate_event(poisson_fam, 1.0, 0.0, 1e9, RandomStream(33, k))
            for k in range(300)
        ]
        with pytest.raises(DomainError):
            # n >= 1e4 precondition still applies, but censoring is checked
            # first on a short-horizon path
            short = [simulate_event(poisson_fam, 1.0, 0.0, 1.0001, RandomStream(34, k))
                     for k in range(80)]
            if all(p.jump_times.size for p in short):  # pragma: no cover
                raise DomainError("all jumped; rerun with different seed")
            check_jump_times(short, 1.0, poisson_fam)
        # the adapter path itself works (size precondition checked after)
        with pytest.raises(DomainError):
            check_jump_times(paths, 1.0, poisson_fam)  # only 300 < 1e4 samples


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
        pairs = brownian_pairs(30, 100_000, 0.5, 2.0)
        assert check_continuity(pairs, 0.5, 2.0, (1.0, 2.0)).passed

    def test_poisson(self, poisson_fam):
        xs, xt = transition_pairs(poisson_fam, 0.5, 2.0, 31, 100_000)
        rep = check_continuity(
            np.column_stack([xs, xt]), 0.5, 2.0, (1.0, 2.0, 3.0)
        )
        assert rep.passed


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
