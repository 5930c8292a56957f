import dataclasses
import hashlib
import math
import os
import tracemalloc
import warnings

import numpy as np
import pytest
from scipy import stats
from scipy.special import ndtri

from gaussmart import (
    DomainError,
    FamilyError,
    RandomStream,
    StreamBundle,
    calibrate,
    compound_family,
    first_jump_times,
    kernel_moment,
    nu_total,
    path_bundle,
    simulate_event,
    simulate_event_terminals,
    simulate_events,
    simulate_grid_ensemble,
    transition_pairs,
)
from gaussmart import csvtext, pathsim, sampler
from gaussmart.pathsim import (
    _MIN_CHUNK,
    EVENT_JUMP_LIMIT,
    EventPaths,
    _chunks,
    _grid_values,
    write_event_csv,
    write_grid_csv,
)
from gaussmart.sampler import gamma_draw, philox_block, sample_subordinator_increment


def recursion_step(family, s, t, x, bundle):
    """Independent one-step oracle: draw (U, xi) and apply the identity."""
    sigma = math.sqrt(t / s)
    u = sample_subordinator_increment(family, sigma, bundle)
    xi = bundle.normals()
    return sigma * (np.exp(-0.5 * u) * x + math.sqrt(s) * np.sqrt(-np.expm1(-u)) * xi)


def _unit(word):
    return sampler._to_unit(np.array([word], dtype=np.uint64))


def _layout3_oracle(family, seed, stream_id, s, t):
    """(X_s, U, X_t) of one lane on the grid [0, s, t], rebuilt from the
    layout-3 blocks: the origin normal is word 0 of site 1; the step opens
    site 2, whose word 3 is the step normal and whose words 0-2 start the
    increment (each further atom opens the next site)."""
    def words(site):
        return philox_block(seed, [stream_id], site, 0)[:, 0]

    x_s = math.sqrt(s) * ndtri(_unit(words(1)[0]))
    sigma = math.sqrt(t / s)
    log_sigma = np.log(sigma)
    if family.kind == "gamma":
        bundle = StreamBundle(seed, [stream_id])
        bundle.new_site()  # the origin's site
        u = gamma_draw(bundle, family.a * log_sigma, family.b)
    else:
        u = np.full(1, family.beta * log_sigma)
        for site, (x, w) in enumerate(family.atoms, start=2):
            u += x * stats.poisson.ppf(_unit(words(site)[0]), w * log_sigma)
    xi = ndtri(_unit(words(2)[3]))
    x_t = sigma * (np.exp(-0.5 * u) * x_s + math.sqrt(s) * np.sqrt(-np.expm1(-u)) * xi)
    return x_s[0], u[0], x_t[0]


class TestStreamLayout3:
    """Each grid step after the first takes its normal from word 3 of the
    attempt-0 block of the first site it opens."""

    @pytest.mark.parametrize("kind, stream_id, value", [
        ("poisson", 3, -1.4787403858822281),
        ("gamma", 3, -1.5757318363231627),
        ("compound", 3, -1.7135370471675624),
        ("brownian", 3, -1.6193154381747905),
    ])
    def test_one_lane_known_answers(self, kind, stream_id, value, request):
        fam = request.getfixturevalue(f"{kind}_fam")
        x_s, u, x_t = _layout3_oracle(fam, 11, stream_id, 1.0, 4.0)
        vals = simulate_grid_ensemble(fam, [0.0, 1.0, 4.0], 11, 1, stream_base=stream_id)[0]
        assert u > 0.0  # the step normal enters the value
        assert vals.tolist() == [0.0, x_s, x_t]
        assert x_t == value  # recorded at stream layout 3

    @pytest.mark.parametrize("kind, sites", [
        ("poisson", 1), ("gamma", 1), ("compound", 2), ("brownian", 1), ("three_atoms", 3),
    ])
    def test_sites_per_step(self, kind, sites, request):
        # one site per atom, and at least one for every family
        fam = (calibrate(compound_family([(0.5, 1.0), (1.0, 1.0), (2.0, 0.25)]))
               if kind == "three_atoms" else request.getfixturevalue(f"{kind}_fam"))
        bundle = path_bundle(3, 50)
        _grid_values(fam, np.array([0.0, 0.5, 1.0, 2.0]), bundle)
        assert bundle._site == 1 + 2 * sites

    @pytest.mark.parametrize("kind", ["poisson", "gamma", "compound", "brownian"])
    def test_unit_scale_step_opens_one_site(self, kind, request):
        # the scale rounds to 1: no increment is drawn, the site still opens
        times = np.array([1.0, 1.0 + 2.0**-52])
        assert math.sqrt(times[1] / times[0]) == 1.0
        bundle = path_bundle(4, 10)
        vals = _grid_values(request.getfixturevalue(f"{kind}_fam"), times, bundle,
                            start_values=0.7)
        assert bundle._site == 1
        assert np.all(vals[:, 1] == 0.7)

    def test_whole_bundle_poisson_step_is_one_block_call(self, poisson_fam, monkeypatch):
        calls = []
        blocks = StreamBundle.blocks

        def counted(self, idx=None):
            calls.append(idx)
            return blocks(self, idx)

        monkeypatch.setattr(StreamBundle, "blocks", counted)
        _grid_values(poisson_fam, np.array([1.0, 2.0]), path_bundle(3, 50), start_values=0.0)
        assert calls == [None]


def _signed_zero_starts(n):
    """Start values of mixed signs, with +0.0 and -0.0 among them."""
    sv = np.random.default_rng(5).standard_normal(n)
    sv[::7], sv[3::7] = 0.0, -0.0
    return sv


def _dense_grid_values(family, times, bundle, start_values=None):
    """The grid recursion with every lane taking the full Gaussian step at
    every step: the reference the shortened updates match bit for bit."""
    n = len(bundle)
    vals = np.empty((times.size, n))
    if times[0] == 0.0:
        vals[0] = 0.0
        vals[1] = math.sqrt(times[1]) * bundle.normals()
        k0 = 2
    else:
        vals[0] = np.broadcast_to(np.asarray(start_values, dtype=float), (n,))
        k0 = 1
    for k in range(k0, times.size):
        s, t = times[k - 1], times[k]
        sigma = math.sqrt(t / s)
        first = bundle.blocks()
        u = sample_subordinator_increment(family, sigma, bundle, first)
        xi = sampler.to_normals(first[3])
        vals[k] = sigma * (np.exp(-0.5 * u) * vals[k - 1]
                           + math.sqrt(s) * np.sqrt(-np.expm1(-u)) * xi)
    return vals.T


class TestNoJumpLanes:
    """Lanes whose increment stayed at its no-jump value take a shorter
    update, with the same bits as the full step."""

    GRIDS = {
        "origin-21": np.linspace(0.0, 1.0, 21),
        "origin-257": np.linspace(0.0, 1.0, 257),
        "origin-3": np.array([0.0, 0.5, 3.0]),
        "start": np.linspace(1.0, 2.0, 9),
        "tiny-steps": np.linspace(1.0, 1.0001, 5),
        # the scale of the middle step rounds to 1
        "unit-scale": np.array([1.0, 1.0 + 2.0**-52, 2.0]),
    }

    @pytest.mark.parametrize("grid", list(GRIDS))
    @pytest.mark.parametrize("kind", ["poisson", "compound", "drift", "brownian", "gamma"])
    def test_bits_match_the_dense_step(self, kind, grid, request):
        fam = request.getfixturevalue(f"{kind}_fam")
        times, n = self.GRIDS[grid], 3000
        sv = None if times[0] == 0.0 else _signed_zero_starts(n)
        got = _grid_values(fam, times, path_bundle(9, n), start_values=sv)
        want = _dense_grid_values(fam, times, path_bundle(9, n), start_values=sv)
        # bytes, not values: np.array_equal takes -0.0 for 0.0
        assert got.tobytes() == want.tobytes()

    def test_signed_zeros_take_the_full_step(self, poisson_fam):
        # a lane that does not jump from +-0 gets x + (+-0) xi: the sign of
        # xi decides that of -0.0 + 0 xi, so the flow sigma x would be wrong
        times, n = np.array([1.0, 1.01]), 4000
        sv = np.full(n, -0.0)
        want = _dense_grid_values(poisson_fam, times, path_bundle(2, n), start_values=sv)[:, 1]
        got = _grid_values(poisson_fam, times, path_bundle(2, n), start_values=sv)[:, 1]
        zeros = want == 0.0
        assert 0 < np.count_nonzero(np.signbit(want[zeros])) < np.count_nonzero(zeros)
        assert got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("times", [np.linspace(1.0, 1.0001, 5),
                                       np.array([1.0, 1.0 + 2.0**-52])],
                             ids=["tiny-shape", "unit-scale"])
    def test_gamma_increments_at_zero_skip_the_normal(self, gamma_fam, times, monkeypatch):
        # shapes a ln sigma this small underflow U to 0 on most lanes
        normals = []
        monkeypatch.setattr(pathsim, "to_normals",
                            lambda words: normals.append(words.size) or sampler.to_normals(words))
        n = 10_000
        sv = _signed_zero_starts(n)
        got = _grid_values(gamma_fam, times, path_bundle(4, n), start_values=sv)
        want = _dense_grid_values(gamma_fam, times, path_bundle(4, n), start_values=sv)
        assert got.tobytes() == want.tobytes()
        assert len(normals) == times.size - 1
        assert max(normals) < n // 2

    def test_normals_only_for_moved_and_zero_lanes(self, poisson_fam, monkeypatch):
        # a fine grid: few lanes jump on each step
        times, n = np.linspace(1.0, 2.0, 65), 5000
        sv = np.random.default_rng(6).standard_normal(n)
        sv[:50], sv[50:100] = 0.0, -0.0
        normals, increments = [], []
        monkeypatch.setattr(pathsim, "to_normals",
                            lambda words: normals.append(words.size) or sampler.to_normals(words))
        monkeypatch.setattr(pathsim, "sample_subordinator_increment",
                            lambda *a: increments.append(sample_subordinator_increment(*a))
                            or increments[-1])
        vals = _grid_values(poisson_fam, times, path_bundle(6, n), start_values=sv)
        want = [np.count_nonzero((u != 0.0) | (x == 0.0))
                for u, x in zip(increments, vals[:, :-1].T)]
        assert normals == want
        assert sum(want) < 0.1 * n * (times.size - 1)


class TestGrid:
    def test_first_step_exactly_gaussian(self, poisson_fam):
        vals = simulate_grid_ensemble(poisson_fam, [0.0, 1.0], 3, 100_000)
        assert stats.kstest(vals[:, 1], "norm").pvalue > 0.001

    def test_marginal_at_one_over_twenty_steps(self, poisson_fam):
        vals = simulate_grid_ensemble(
            poisson_fam, np.linspace(0, 1, 21), 4, 200_000
        )
        final = vals[:, -1]
        assert stats.kstest(final, "norm").pvalue > 0.001
        assert abs(final.var() - 1.0) < 3.0 * math.sqrt(2.0 / final.size)

    def test_degenerate_family_gives_brownian_increments(self, brownian_fam):
        times = np.array([0.0, 0.3, 1.0, 2.5])
        vals = simulate_grid_ensemble(brownian_fam, times, 5, 50_000)
        incs = np.diff(vals, axis=1)
        for j in range(1, incs.shape[1]):
            scaled = incs[:, j] / math.sqrt(times[j + 1] - times[j])
            assert stats.kstest(scaled, "norm").pvalue > 0.001
        # increments independent of the past: correlation with X_s vanishes
        rho = np.corrcoef(vals[:, 1], incs[:, 1])[0, 1]
        assert abs(rho) < 4.0 / math.sqrt(vals.shape[0])

    def test_scalar_path_equals_ensemble_lane(self, gamma_fam):
        times = np.linspace(0.0, 2.0, 9)
        path = simulate_grid_ensemble(gamma_fam, times, 9, 1, stream_base=3)[0]
        vals = simulate_grid_ensemble(gamma_fam, times, 9, 5, stream_base=0)
        assert np.array_equal(path, vals[3])

    @pytest.mark.parametrize("kind, start", [
        pytest.param(kind, start, id=kind + ("" if start == "origin" else "-start"))
        for start in ("origin", "values") for kind in ("poisson", "gamma", "compound", "drift")
    ])
    def test_threading_does_not_change_values(self, kind, start, monkeypatch, request):
        # four chunks whatever the host; gamma and compound retry per lane,
        # and each chunk decides alone which lanes take the full step
        monkeypatch.setattr(os, "cpu_count", lambda: 4)
        fam = request.getfixturevalue(f"{kind}_fam")
        n = 20_000
        if start == "origin":
            times, sv = np.linspace(0.0, 1.0, 11), None
        else:
            times, sv = np.linspace(1.0, 2.0, 11), _signed_zero_starts(n)
        assert len(_chunks(n, 4)) == 4
        a = simulate_grid_ensemble(fam, times, 7, n, threads=1, start_values=sv)
        b = simulate_grid_ensemble(fam, times, 7, n, threads=4, start_values=sv)
        assert a.tobytes() == b.tobytes()

    @pytest.mark.parametrize("cpus", [1, 2, 64])
    def test_chunks_cap_workers_at_cpus(self, cpus, monkeypatch):
        # checked through the chunk list alone: no thread is started
        monkeypatch.setattr(os, "cpu_count", lambda: cpus)
        cases = ((1_000_000, 100_000), (1_000_000, None), (100_000, 100_000), (9_000, 4), (100, 8))
        for n, threads in cases:
            parts = _chunks(n, threads)
            assert len(parts) <= cpus
            assert parts[0][0] == 0 and parts[-1][1] == n
            assert all(lo < hi for lo, hi in parts)
            assert all(p[1] == q[0] for p, q in zip(parts, parts[1:]))
            if len(parts) > 1:
                assert min(hi - lo for lo, hi in parts) >= _MIN_CHUNK

    def test_refinement_leaves_marginal_unchanged(self, poisson_fam):
        coarse = simulate_grid_ensemble(
            poisson_fam, np.linspace(0, 1, 6), 11, 50_000
        )[:, -1]
        fine = simulate_grid_ensemble(
            poisson_fam, np.linspace(0, 1, 41), 12, 50_000
        )[:, -1]
        assert stats.ks_2samp(coarse, fine).pvalue > 0.001

    def test_negative_path_count_rejected(self, poisson_fam):
        with pytest.raises(DomainError):
            simulate_grid_ensemble(poisson_fam, [0.0, 1.0], 0, -3)

    def test_bad_grids_rejected(self, poisson_fam):
        with pytest.raises(DomainError):
            simulate_grid_ensemble(poisson_fam, [0.0, 1.0, 1.0], 0, 1)
        with pytest.raises(DomainError):
            simulate_grid_ensemble(poisson_fam, [0.5, 1.0], 0, 1)
        with pytest.raises(DomainError):
            simulate_grid_ensemble(poisson_fam, [0.0, -1.0], 0, 1)

    @pytest.mark.parametrize("kind", ["poisson", "brownian"])
    @pytest.mark.parametrize(
        "times, start",
        [
            ([0.0, math.inf], None),
            ([0.0, math.nan], None),
            ([1.0, math.nan], 0.5),
            ([1.0, math.inf], 0.5),
            ([1.0, 0.5], 0.5),
            ([-1.0, 1.0], 0.5),
            ([1.0], 0.5),
            ([[0.0, 1.0]], None),
        ],
        ids=str,
    )
    def test_every_grid_validated(self, kind, times, start, request):
        # grids after 0 were not checked at all, and [0, inf] passed the
        # check: the paths came back as NaN or +-inf
        fam = request.getfixturevalue(f"{kind}_fam")
        with pytest.raises(DomainError):
            simulate_grid_ensemble(fam, times, 0, 3, start_values=start)


class TestConditionalMoments:
    """kernel_moment's conditional mean and second moment, k = 1 and 2."""

    def test_identity_at_equal_times(self, poisson_fam):
        # one ulp past s the step has not moved: the moments are x and x^2
        t = math.nextafter(1.3, math.inf)
        assert kernel_moment(poisson_fam, 1.3, t, 0.7, 1) == pytest.approx(0.7, rel=1e-14)
        assert kernel_moment(poisson_fam, 1.3, t, 0.7, 2) == pytest.approx(0.49, rel=1e-14)

    def test_brownian_case(self, brownian_fam):
        assert kernel_moment(brownian_fam, 0.5, 2.0, 1.1, 1) == pytest.approx(1.1, rel=1e-15)
        second = kernel_moment(brownian_fam, 0.5, 2.0, 1.1, 2)
        assert second == pytest.approx(1.5 + 1.1**2, rel=1e-12)

    def test_poisson_value_frozen(self, poisson_fam):
        # 30-digit evaluation of t(1-(s/t)^d) + (t/s)^{1-d} x^2 at (0.5, 2, 1)
        second = kernel_moment(poisson_fam, 0.5, 2.0, 1.0, 2)
        assert second == pytest.approx(2.6567741909868684, rel=1e-13)

    def test_against_monte_carlo_recursion(self, poisson_fam):
        s, t, x = 0.5, 2.0, 1.0
        draws = recursion_step(poisson_fam, s, t, x, path_bundle(13, 1_000_000))
        second = kernel_moment(poisson_fam, s, t, x, 2)
        se = np.std(draws**2) / math.sqrt(draws.size)
        assert abs(np.mean(draws**2) - second) < 4.0 * se
        assert abs(draws.mean() - x) < 4.0 * draws.std() / math.sqrt(draws.size)

    def test_gamma_against_monte_carlo(self, gamma_fam):
        s, t, x = 1.0, 3.0, -0.8
        draws = recursion_step(gamma_fam, s, t, x, path_bundle(14, 1_000_000))
        second = kernel_moment(gamma_fam, s, t, x, 2)
        se = np.std(draws**2) / math.sqrt(draws.size)
        assert abs(np.mean(draws**2) - second) < 4.0 * se

    def test_domain(self, poisson_fam):
        for s, t in ((1.3, 1.3), (2.0, 1.0), (-1.0, 1.0)):
            with pytest.raises(DomainError):
                kernel_moment(poisson_fam, s, t, 0.0, 2)


class TestContinuityInProbability:
    def test_chebyshev_bound(self, poisson_fam):
        s, t = 1.0, 1.25
        xs, xt = transition_pairs(poisson_fam, s, t, 15, 100_000)
        for c in (0.4, 0.8, 1.6):
            p_hat = np.mean(np.abs(xt - xs) > c)
            se = math.sqrt(max(p_hat * (1 - p_hat), 1e-5) / xs.size)
            assert p_hat <= (t - s) / c**2 + 4.0 * se


class TestEventMode:
    def test_jump_times_strictly_after_start(self, poisson_fam):
        t = first_jump_times(poisson_fam, 2.0, path_bundle(16, 100_000))
        assert np.all(t > 2.0)

    def test_first_jump_median(self, poisson_fam):
        t = first_jump_times(poisson_fam, 1.0, path_bundle(17, 100_000))
        target = 2.0 ** (2.0 / nu_total(poisson_fam))  # = 1.7254093517858221
        assert abs(np.median(t) - target) < 0.01 * target

    def test_survival_probability(self, poisson_fam):
        t = first_jump_times(poisson_fam, 1.0, path_bundle(18, 100_000))
        target = 2.0 ** (-0.5 * nu_total(poisson_fam))  # = 0.4144451136983333
        se = math.sqrt(target * (1 - target) / t.size)
        assert abs(np.mean(t > 2.0) - target) < 4.0 * se

    def test_path_structure_and_flow(self, poisson_fam):
        path = simulate_event(poisson_fam, 1.0, 0.4, 6.0, RandomStream(19, 0))
        path.validate()
        assert path.start_time == 1.0 and path.horizon == 6.0
        assert path.path_ids.tolist() == [0] and np.all(path.lanes == 0)
        times = path.jump_times
        assert np.all((times > 1.0) & (times <= 6.0))

    def test_drift_identity_between_jumps(self, poisson_fam):
        # value(u2-)/value(u1+) == sqrt(u2/u1) exactly along each segment
        for k in range(20):
            path = simulate_event(poisson_fam, 1.0, 1.0, 8.0, RandomStream(20, k))
            t_prev, x_prev = path.start_time, path.start_values[0]
            for t, pre, post in path.jumps:
                if x_prev != 0.0:
                    assert pre / x_prev == pytest.approx(
                        math.sqrt(t / t_prev), rel=1e-12
                    )
                t_prev, x_prev = t, post

    def test_scalar_matches_vector_lanes(self, poisson_fam):
        terms = simulate_event_terminals(
            poisson_fam, 1.0, 0.5, 2.0, StreamBundle(21, np.arange(50))
        )
        for k in range(50):
            p = simulate_event(poisson_fam, 1.0, 0.5, 2.0, RandomStream(21, k))
            assert p.terminal_values.tolist() == [terms[k]]

    def test_post_jump_value_moments_from_zero_start(self, poisson_fam):
        # starting at x0 = 0: first-jump post value has mean 0 and variance
        # E[T] (1 - e^{-1}) restricted to jumps inside the horizon
        horizon = 50.0
        paths = simulate_events(poisson_fam, 1.0, 0.0, horizon, path_bundle(22, 2000))
        first = np.diff(paths.lanes, prepend=-1) != 0  # each lane's first jump
        jumps_t = paths.jump_times[first]
        jumps_v = paths.post_values[first]
        assert abs(jumps_v.mean()) < 4.0 * jumps_v.std() / math.sqrt(jumps_v.size)
        # conditional variance given T: T (1 - e^{-1})
        ratio = jumps_v**2 / (jumps_t * -math.expm1(-1.0))
        se = ratio.std() / math.sqrt(ratio.size)
        assert abs(ratio.mean() - 1.0) < 4.0 * se

    def test_batch_matches_single_paths(self, poisson_fam):
        paths = simulate_events(poisson_fam, 1.0, 0.5, 4.0, path_bundle(24, 40))
        assert paths.path_ids.tolist() == list(range(40))
        for k in range(40):
            q = simulate_event(poisson_fam, 1.0, 0.5, 4.0, RandomStream(24, k))
            mine = paths.lanes == k
            assert np.array_equal(paths.jump_times[mine], q.jump_times)
            assert np.array_equal(paths.pre_values[mine], q.pre_values)
            assert np.array_equal(paths.post_values[mine], q.post_values)
            assert paths.terminal_values[k] == q.terminal_values[0]

    @pytest.mark.parametrize("kind", ["poisson", "compound"])
    def test_first_jump_times_match_event_paths(self, kind, poisson_fam, compound_fam):
        # both read word 0 of attempt 0 at the bundle's first site, so the
        # jump-time gate's draws are the event simulator's first jumps
        fam = poisson_fam if kind == "poisson" else compound_fam
        s0, horizon = 1.5, 4.0
        t = first_jump_times(fam, s0, path_bundle(28, 2000))
        paths = simulate_events(fam, s0, 0.3, horizon, path_bundle(28, 2000))
        jumped = np.bincount(paths.lanes, minlength=2000) > 0
        assert np.array_equal(jumped, t <= horizon)
        assert 0 < jumped.sum() < jumped.size
        first = paths.jump_times[np.diff(paths.lanes, prepend=-1) != 0]
        assert np.array_equal(first, t[jumped])

    def test_non_poisson_rejected(self, gamma_fam, brownian_fam):
        with pytest.raises(FamilyError):
            simulate_event(gamma_fam, 1.0, 0.0, 2.0, RandomStream(0, 0))
        with pytest.raises(FamilyError):
            first_jump_times(brownian_fam, 1.0, path_bundle(0, 10))

    def test_domain(self, poisson_fam):
        with pytest.raises(DomainError):
            simulate_event(poisson_fam, -1.0, 0.0, 2.0, RandomStream(0, 0))
        with pytest.raises(DomainError):
            simulate_event(poisson_fam, 1.0, 0.0, 0.5, RandomStream(0, 0))
        for s0, horizon in ((1.0, math.inf), (1.0, math.nan), (math.nan, 2.0), (math.inf, 2.0)):
            with pytest.raises(DomainError):
                simulate_event_terminals(poisson_fam, s0, 0.0, horizon, path_bundle(0, 3))
        with pytest.raises(DomainError):
            first_jump_times(poisson_fam, math.nan, path_bundle(0, 3))
        with pytest.raises(DomainError):
            path_bundle(0, -3)

    def test_one_lane_bundle_required(self, poisson_fam):
        with pytest.raises(DomainError):
            simulate_event(poisson_fam, 1.0, 0.0, 2.0, path_bundle(0, 2))

    @pytest.mark.usefixtures("time_limit")
    @pytest.mark.parametrize("x", [1e-300, 1e-12])
    def test_too_many_expected_jumps_refused(self, x):
        # nu ~ 2 / x: about 7e11 jumps per path at x = 1e-12; at 1e-300 the
        # waiting times round to zero, so t never advances
        fam = calibrate(compound_family([(x, 1.0)]))
        for run in (simulate_events, simulate_event_terminals):
            with pytest.raises(DomainError, match=r"ln\(horizon/s0\) = 6\.93147e\+\d+ jumps"):
                run(fam, 1.0, 0.0, 2.0, path_bundle(0, 3))

    @pytest.mark.usefixtures("time_limit")
    def test_jump_limit_is_the_expected_count(self):
        fam = calibrate(compound_family([(1e-3, 1.0)]))
        log_span = 2.0 * EVENT_JUMP_LIMIT / nu_total(fam)  # ln(horizon/s0) at the limit
        with pytest.raises(DomainError, match="more than 5000"):
            simulate_event_terminals(fam, 1.0, 0.0, math.exp(log_span * 1.001), path_bundle(0, 1))
        terminal = simulate_event_terminals(fam, 1.0, 0.0, math.exp(log_span * 0.999),
                                            path_bundle(0, 1))
        assert np.isfinite(terminal).all()

    def test_horizon_near_the_largest_float(self, poisson_fam):
        # candidates past the largest float overflow to inf, beyond the
        # horizon: the paths end there, without a warning
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            paths = simulate_events(poisson_fam, 1.0, 0.3, 1e308, path_bundle(5, 20))
            paths.validate()
        assert np.all(np.bincount(paths.lanes, minlength=20) > 0)
        assert paths.jump_times.max() <= 1e308

    def test_first_jump_time_overflow_raises(self, poisson_fam):
        # s0 u^(-2/nu) passes the largest float for u below about 0.8
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(OverflowError, match=r"s0 = 1e\+308"):
                first_jump_times(poisson_fam, 1e308, path_bundle(0, 10_000))


class TestCompoundEventMode:
    def test_paths_match_terminals_and_validate(self, compound_fam):
        terms = simulate_event_terminals(
            compound_fam, 1.0, 0.5, 3.0, StreamBundle(25, np.arange(200))
        )
        for k in range(200):
            p = simulate_event(compound_fam, 1.0, 0.5, 3.0, RandomStream(25, k))
            p.validate()
            assert p.terminal_values.tolist() == [terms[k]]

    def test_both_atoms_jump_with_their_laws(self, compound_fam):
        # from x0 = 0 the first post-jump value is N(0, T (1 - e^{-x_i})):
        # the two atoms leave distinct variance ratios, mixed by weight
        paths = simulate_events(compound_fam, 1.0, 0.0, 1e9, path_bundle(26, 20_000))
        first = np.diff(paths.lanes, prepend=-1) != 0
        assert first.sum() == 20_000  # every path jumps before 1e9
        ratio = paths.post_values[first] ** 2 / paths.jump_times[first]
        (x1, w1), (x2, w2) = compound_fam.atoms
        nu = w1 + w2
        want = (w1 * -math.expm1(-x1) + w2 * -math.expm1(-x2)) / nu
        se = ratio.std() / math.sqrt(ratio.size)
        assert abs(ratio.mean() - want) < 4.0 * se

    def test_first_jump_median(self, compound_fam):
        t = first_jump_times(compound_fam, 1.0, path_bundle(27, 100_000))
        target = 2.0 ** (2.0 / nu_total(compound_fam))
        assert abs(np.median(t) - target) < 0.01 * target


def _tampered(record, field, index, factor=None, value=None):
    """The record with one entry of column ``field`` scaled or replaced."""
    col = getattr(record, field).copy()
    col[index] = col[index] * factor if value is None else value
    return dataclasses.replace(record, **{field: col})


class TestEventRecord:
    """``EventPaths.validate`` checks every lane from its own start: the last
    jump of one lane never stands in for the start of the next."""

    @pytest.fixture
    def record(self, compound_fam):
        rec = simulate_events(compound_fam, 1.0, 0.3, 6.0, path_bundle(29, 60))
        counts = np.bincount(rec.lanes, minlength=60)
        # jumpless lanes and lanes of several jumps, and times that fall
        # from one lane to the next
        assert counts.min() == 0 and counts.max() >= 3
        assert np.any(np.diff(rec.jump_times) < 0)
        rec.validate()
        return rec

    @staticmethod
    def _boundaries(rec):
        """Indices of the first and the last jump of every lane that jumps."""
        first = np.flatnonzero(np.diff(rec.lanes, prepend=-1) != 0)
        last = np.flatnonzero(np.diff(rec.lanes, append=rec.path_ids.size) != 0)
        return first, last

    def test_tampered_pre_jump_value_refused(self, record):
        first, last = self._boundaries(record)
        # a lane's first jump (flow from the lane's start), the jump before
        # it (the previous lane's last) and a jump inside a lane
        inner = np.setdiff1d(np.arange(record.lanes.size), np.concatenate([first, last]))
        for i in (first[1], first[1] - 1, inner[0]):
            with pytest.raises(AssertionError, match="pre-jump value"):
                _tampered(record, "pre_values", i, factor=1 + 1e-9).validate()

    def test_terminal_off_the_flow_refused(self, record):
        counts = np.bincount(record.lanes, minlength=record.path_ids.size)
        for lane in (np.argmin(counts), np.argmax(counts)):  # no jump, several
            with pytest.raises(AssertionError, match="terminal value"):
                _tampered(record, "terminal_values", lane, factor=1 + 1e-9).validate()
        # a changed post-jump value moves the terminal value of its lane only
        _, last = self._boundaries(record)
        with pytest.raises(AssertionError, match="terminal value"):
            _tampered(record, "post_values", last[0], factor=1 + 1e-9).validate()

    def test_non_increasing_time_within_a_lane_refused(self, record):
        first, last = self._boundaries(record)
        i = first[np.argmax(last - first)]  # the first jump of the longest lane
        times = record.jump_times
        for index, value in ((i + 1, times[i]), (i + 1, times[i] * 0.999),
                             (i, record.start_time)):
            with pytest.raises(AssertionError, match="by time"):
                _tampered(record, "jump_times", index, value=value).validate()

    def test_time_past_the_horizon_refused(self, record):
        _, last = self._boundaries(record)
        past = math.nextafter(record.horizon, math.inf)
        with pytest.raises(AssertionError, match=r"\(start, horizon\]"):
            _tampered(record, "jump_times", last[-1], value=past).validate()

    def test_lanes_out_of_order_refused(self, record):
        with pytest.raises(AssertionError, match="sorted by lane"):
            dataclasses.replace(record, lanes=record.lanes[::-1].copy()).validate()

    def test_jumps_are_float_triples_in_record_order(self, record):
        jumps = list(record.jumps)
        assert len(jumps) == record.lanes.size
        assert all(type(v) is float for jump in jumps for v in jump)
        assert np.array_equal(np.array(jumps).T, np.stack(
            [record.jump_times, record.pre_values, record.post_values]))


class TestMartingaleStep:
    @pytest.mark.parametrize("kind", ["poisson", "gamma", "compound"])
    def test_single_step_mean(self, kind, poisson_fam, gamma_fam, compound_fam):
        fam = {"poisson": poisson_fam, "gamma": gamma_fam, "compound": compound_fam}[kind]
        s, t, x = 1.0, 2.5, 0.8
        draws = recursion_step(fam, s, t, x, path_bundle(23, 1_000_000))
        se = draws.std() / math.sqrt(draws.size)
        assert abs(draws.mean() - x) < 4.0 * se


def _reference_grid_csv(path, times, values):
    """Reference grid writer: one f-string per row, each number converted
    with ``float`` and formatted with ``repr`` on the spot."""
    values = np.atleast_2d(np.asarray(values, dtype=float))
    times = np.asarray(times, dtype=float)
    with open(path, "w", encoding="ascii") as fh:
        fh.write("path_id,time,value\n")
        for i in range(values.shape[0]):
            fh.write(
                "\n".join(
                    f"{i},{float(t)!r},{float(v)!r}"
                    for t, v in zip(times, values[i])
                )
            )
            fh.write("\n")


def _sha256(path):
    return hashlib.sha256(path.read_bytes()).hexdigest()


#: repr edge cases: negative zero, the least subnormal, exponent forms on
#: both sides of repr's switch, a long fraction and the largest double
#: below 1e16
_EDGE_VALUES = [-0.0, 5e-324, 1e-5, 1e16, 1.0 / 3.0, 9999999999999998.0]


class TestCsv:
    def test_grid_format(self, tmp_path, poisson_fam):
        times = np.linspace(0.0, 1.0, 5)
        vals = simulate_grid_ensemble(poisson_fam, times, 1, 3)
        out = tmp_path / "grid.csv"
        write_grid_csv(out, times, vals)
        lines = out.read_text().splitlines()
        assert lines[0] == "path_id,time,value"
        assert len(lines) == 1 + 3 * 5
        pid, t, v = lines[1].split(",")
        assert pid == "0" and float(t) == 0.0 and float(v) == 0.0
        # values round-trip exactly through repr
        assert float(lines[2].split(",")[2]) == vals[0, 1]

    def test_event_format(self, tmp_path, poisson_fam):
        paths = [
            simulate_event(poisson_fam, 1.0, 0.0, 4.0, RandomStream(2, k))
            for k in range(5)
        ]
        out = tmp_path / "events.csv"
        n_jumps = sum(p.jump_times.size for p in paths)
        assert write_event_csv(out, paths) == n_jumps
        lines = out.read_text().splitlines()
        assert lines[0] == "path_id,event_index,time,pre_value,post_value"
        assert len(lines) == 1 + n_jumps
        # path ids are stream ids; event indices count each path's jumps
        want = [(k, j, *jump) for k, p in enumerate(paths) for j, jump in enumerate(p.jumps)]
        rows = [line.split(",") for line in lines[1:]]
        got = [(int(r[0]), int(r[1]), *map(float, r[2:])) for r in rows]
        assert got == want

    def test_event_bytes_match_reference(self, tmp_path, poisson_fam, monkeypatch):
        # two records, the second of 19-digit stream ids, in blocks of 7 rows
        # that end inside records and inside paths
        monkeypatch.setattr(csvtext, "CSV_BLOCK", 7)
        records = [simulate_events(poisson_fam, 1.0, 0.5, 4.0, path_bundle(3, 6)),
                   simulate_events(poisson_fam, 1.0, -0.5, 4.0,
                                   path_bundle(3, 6, stream_base=2**63 - 5))]
        out = tmp_path / "events.csv"
        want = ["path_id,event_index,time,pre_value,post_value\n"]
        for rec in records:
            seen = {}
            for lane, t, a, b in zip(rec.lanes.tolist(), rec.jump_times.tolist(),
                                     rec.pre_values.tolist(), rec.post_values.tolist()):
                i, j = int(rec.path_ids[lane]), seen.get(lane, 0)
                seen[lane] = j + 1
                want.append(f"{i},{j},{t!r},{a!r},{b!r}\n")
        assert write_event_csv(out, records) == len(want) - 1 > 14
        assert len(str(records[1].path_ids[0])) == 19
        assert out.read_bytes() == "".join(want).encode("ascii")

    def test_event_memory_flat_in_row_count(self, tmp_path):
        # a block of rows is made into text at a time, even within one
        # record: 200,000 jumps peak near where 20,000 do
        peaks = []
        for n in (20_000, 200_000):
            rng = np.random.default_rng(2)
            lanes = np.repeat(np.arange(n // 4), 4)
            rec = EventPaths(1.0, 4.0, np.arange(n // 4, dtype=np.uint64) + 2**40,
                             np.zeros(n // 4), np.zeros(n // 4), lanes,
                             *rng.standard_normal((3, n)))
            tracemalloc.start()
            try:
                assert write_event_csv(tmp_path / "ev.csv", [rec]) == n
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert peaks[1] < 2 * peaks[0]

    @pytest.mark.parametrize("kind", ["poisson", "gamma", "compound"])
    def test_grid_bytes_match_reference(self, tmp_path, kind, poisson_fam, gamma_fam,
                                        compound_fam, monkeypatch):
        fam = {"poisson": poisson_fam, "gamma": gamma_fam, "compound": compound_fam}[kind]
        times = np.linspace(0.0, 2.0, 33)
        vals = simulate_grid_ensemble(fam, times, 4, 25)
        _reference_grid_csv(tmp_path / "ref.csv", times, vals)
        # blocks of one path (fewer rows than a path has), of 3 paths, of all
        for block in (1, 100, csvtext.CSV_BLOCK):
            monkeypatch.setattr(csvtext, "CSV_BLOCK", block)
            write_grid_csv(tmp_path / "new.csv", times, vals)
            assert _sha256(tmp_path / "new.csv") == _sha256(tmp_path / "ref.csv")

    @pytest.mark.parametrize(
        "times, values",
        [
            (_EDGE_VALUES, [_EDGE_VALUES, [-v for v in _EDGE_VALUES]]),
            ([0.0, 1e-5, 1.0 / 3.0], [[5e-324, -0.0, 9999999999999998.0]]),  # one path
            ([0.0, 1e16], [[0.0, 1e16], [-0.0, 1.0 / 3.0], [1e-5, 5e-324]]),  # two times
            ([0.0, 0.5, 1.0], [0.25, -1e-5, 1e16]),  # a 1-d path
        ],
        ids=["edges", "one-path", "two-times", "one-d"],
    )
    def test_edge_values_bytes_match_reference(self, tmp_path, times, values):
        write_grid_csv(tmp_path / "new.csv", times, values)
        _reference_grid_csv(tmp_path / "ref.csv", times, values)
        assert _sha256(tmp_path / "new.csv") == _sha256(tmp_path / "ref.csv")
        rows = (tmp_path / "new.csv").read_text().splitlines()[1:]
        back = np.array([float(r.split(",")[2]) for r in rows])
        want = np.atleast_2d(np.asarray(values, dtype=float)).ravel()
        assert np.array_equal(np.signbit(back), np.signbit(want))
        assert np.array_equal(back, want)

    @pytest.mark.parametrize(
        "times, shape",
        [(np.linspace(0, 1, 5), (3, 4)), (np.linspace(0, 1, 3), (3, 4)),
         (np.linspace(0, 1, 4), (2, 3, 4)), (np.zeros((2, 2)), (2, 4)),
         (np.zeros(0), (2, 0))],
        ids=["too-few-values", "too-few-times", "3-d-values", "2-d-times", "no-times"],
    )
    def test_mismatched_grid_refused_before_writing(self, tmp_path, times, shape):
        out = tmp_path / "grid.csv"
        with pytest.raises(DomainError, match="do not fit"):
            write_grid_csv(out, times, np.zeros(shape))
        assert not out.exists()

    def test_grid_memory_flat_in_path_count(self, tmp_path):
        # a block of about 4,096 values is made into text at a time: ~0.6 MiB
        # here, where converting the whole 4000 x 65 array at once peaks
        # near 8 MiB
        times = np.linspace(0.0, 1.0, 65)
        vals = np.random.default_rng(0).standard_normal((4000, 65))
        tracemalloc.start()
        try:
            write_grid_csv(tmp_path / "grid.csv", times, vals)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 2**20
