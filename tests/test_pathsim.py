import hashlib
import math
import os
import tracemalloc
import warnings

import numpy as np
import pytest
from scipy import stats

from gaussmart import (
    DomainError,
    FamilyError,
    RandomStream,
    StreamBundle,
    calibrate,
    compound_family,
    conditional_moments,
    first_jump_times,
    nu_total,
    path_bundle,
    simulate_event,
    simulate_event_terminals,
    simulate_events,
    simulate_grid_ensemble,
    transition_pairs,
)
from gaussmart.pathsim import (
    _MIN_CHUNK,
    EVENT_JUMP_LIMIT,
    _chunks,
    write_event_csv,
    write_grid_csv,
)
from gaussmart.sampler import sample_subordinator_increment


def recursion_step(family, s, t, x, bundle):
    """Independent one-step oracle: draw (U, xi) and apply the identity."""
    sigma = math.sqrt(t / s)
    u = sample_subordinator_increment(family, sigma, bundle)
    xi = bundle.normals()
    return sigma * (np.exp(-0.5 * u) * x + math.sqrt(s) * np.sqrt(-np.expm1(-u)) * xi)


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

    @pytest.mark.parametrize("kind", ["poisson", "gamma", "compound"])
    def test_threading_does_not_change_values(self, kind, monkeypatch, request):
        # four chunks whatever the host; gamma and compound retry per lane
        monkeypatch.setattr(os, "cpu_count", lambda: 4)
        fam = request.getfixturevalue(f"{kind}_fam")
        times = np.linspace(0.0, 1.0, 11)
        n = 20_000
        assert len(_chunks(n, 4)) == 4
        a = simulate_grid_ensemble(fam, times, 7, n, threads=1)
        b = simulate_grid_ensemble(fam, times, 7, n, threads=4)
        assert np.array_equal(a, b)

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
    def test_identity_at_equal_times(self, poisson_fam):
        mean, second = conditional_moments(poisson_fam, 1.3, 1.3, 0.7)
        assert mean == 0.7 and second == pytest.approx(0.49, rel=1e-14)

    def test_brownian_case(self, brownian_fam):
        mean, second = conditional_moments(brownian_fam, 0.5, 2.0, 1.1)
        assert mean == 1.1
        assert second == pytest.approx(1.5 + 1.1**2, rel=1e-12)

    def test_poisson_value_frozen(self, poisson_fam):
        # 30-digit evaluation of t(1-(s/t)^d) + (t/s)^{1-d} x^2 at (0.5, 2, 1)
        _, second = conditional_moments(poisson_fam, 0.5, 2.0, 1.0)
        assert second == pytest.approx(2.6567741909868684, rel=1e-13)

    def test_against_monte_carlo_recursion(self, poisson_fam):
        s, t, x = 0.5, 2.0, 1.0
        draws = recursion_step(poisson_fam, s, t, x, path_bundle(13, 1_000_000))
        _, second = conditional_moments(poisson_fam, s, t, x)
        se = np.std(draws**2) / math.sqrt(draws.size)
        assert abs(np.mean(draws**2) - second) < 4.0 * se
        assert abs(draws.mean() - x) < 4.0 * draws.std() / math.sqrt(draws.size)

    def test_gamma_against_monte_carlo(self, gamma_fam):
        s, t, x = 1.0, 3.0, -0.8
        draws = recursion_step(gamma_fam, s, t, x, path_bundle(14, 1_000_000))
        _, second = conditional_moments(gamma_fam, s, t, x)
        se = np.std(draws**2) / math.sqrt(draws.size)
        assert abs(np.mean(draws**2) - second) < 4.0 * se

    def test_domain(self, poisson_fam):
        with pytest.raises(DomainError):
            conditional_moments(poisson_fam, 0.0, 1.0, 0.0)
        with pytest.raises(DomainError):
            conditional_moments(poisson_fam, 2.0, 1.0, 0.0)


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
        if len(path.jumps):
            times = path.jump_times
            assert np.all((times > 1.0) & (times <= 6.0))

    def test_drift_identity_between_jumps(self, poisson_fam):
        # value(u2-)/value(u1+) == sqrt(u2/u1) exactly along each segment
        for k in range(20):
            path = simulate_event(poisson_fam, 1.0, 1.0, 8.0, RandomStream(20, k))
            t_prev, x_prev = path.start_time, path.start_value
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
            assert p.terminal_value == terms[k]

    def test_post_jump_value_moments_from_zero_start(self, poisson_fam):
        # starting at x0 = 0: first-jump post value has mean 0 and variance
        # E[T] (1 - e^{-1}) restricted to jumps inside the horizon
        horizon = 50.0
        bundle = StreamBundle(22, np.arange(200_000))
        terms = []
        jumps_t, jumps_v = [], []
        for k in range(2000):
            p = simulate_event(poisson_fam, 1.0, 0.0, horizon, RandomStream(22, k))
            if len(p.jumps):
                t0, _, post0 = p.jumps[0]
                jumps_t.append(t0)
                jumps_v.append(post0)
        jumps_t = np.array(jumps_t)
        jumps_v = np.array(jumps_v)
        assert abs(jumps_v.mean()) < 4.0 * jumps_v.std() / math.sqrt(jumps_v.size)
        # conditional variance given T: T (1 - e^{-1})
        ratio = jumps_v**2 / (jumps_t * -math.expm1(-1.0))
        se = ratio.std() / math.sqrt(ratio.size)
        assert abs(ratio.mean() - 1.0) < 4.0 * se

    def test_batch_matches_single_paths(self, poisson_fam):
        paths = simulate_events(poisson_fam, 1.0, 0.5, 4.0, path_bundle(24, 40))
        for k, p in enumerate(paths):
            q = simulate_event(poisson_fam, 1.0, 0.5, 4.0, RandomStream(24, k))
            assert np.array_equal(p.jump_times, q.jump_times)
            assert np.array_equal(p.post_values, q.post_values)
            assert p.terminal_value == q.terminal_value

    @pytest.mark.parametrize("kind", ["poisson", "compound"])
    def test_first_jump_times_match_event_paths(self, kind, poisson_fam, compound_fam):
        # both read word 0 of attempt 0 at the bundle's first site, so the
        # jump-time gate's draws are the event simulator's first jumps
        fam = poisson_fam if kind == "poisson" else compound_fam
        s0, horizon = 1.5, 4.0
        t = first_jump_times(fam, s0, path_bundle(28, 2000))
        paths = simulate_events(fam, s0, 0.3, horizon, path_bundle(28, 2000))
        jumped = np.array([p.jump_times.size > 0 for p in paths])
        assert np.array_equal(jumped, t <= horizon)
        assert 0 < jumped.sum() < jumped.size
        first = np.array([p.jump_times[0] for p in paths if p.jump_times.size])
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
        for p in paths:
            p.validate()
            assert 0 < p.jump_times.size and p.jump_times[-1] <= 1e308

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
            assert p.terminal_value == terms[k]

    def test_both_atoms_jump_with_their_laws(self, compound_fam):
        # from x0 = 0 the first post-jump value is N(0, T (1 - e^{-x_i})):
        # the two atoms leave distinct variance ratios, mixed by weight
        paths = simulate_events(compound_fam, 1.0, 0.0, 1e9, path_bundle(26, 20_000))
        ratio = np.array([p.post_values[0] ** 2 / p.jump_times[0] for p in paths])
        (x1, w1), (x2, w2) = compound_fam.atoms
        nu = w1 + w2
        want = (w1 * -math.expm1(-x1) + w2 * -math.expm1(-x2)) / nu
        se = ratio.std() / math.sqrt(ratio.size)
        assert abs(ratio.mean() - want) < 4.0 * se

    def test_first_jump_median(self, compound_fam):
        t = first_jump_times(compound_fam, 1.0, path_bundle(27, 100_000))
        target = 2.0 ** (2.0 / nu_total(compound_fam))
        assert abs(np.median(t) - target) < 0.01 * target


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
        write_event_csv(out, paths)
        lines = out.read_text().splitlines()
        assert lines[0] == "path_id,event_index,time,pre_value,post_value"
        n_jumps = sum(len(p.jumps) for p in paths)
        assert len(lines) == 1 + n_jumps

    @pytest.mark.parametrize("kind", ["poisson", "gamma", "compound"])
    def test_grid_bytes_match_reference(self, tmp_path, kind, poisson_fam, gamma_fam,
                                        compound_fam):
        fam = {"poisson": poisson_fam, "gamma": gamma_fam, "compound": compound_fam}[kind]
        times = np.linspace(0.0, 2.0, 33)
        vals = simulate_grid_ensemble(fam, times, 4, 25)
        write_grid_csv(tmp_path / "new.csv", times, vals)
        _reference_grid_csv(tmp_path / "ref.csv", times, vals)
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
        # one path's row is converted at a time: ~0.03 MiB here, where
        # converting the whole 4000 x 65 array at once peaks near 8 MiB
        times = np.linspace(0.0, 1.0, 65)
        vals = np.random.default_rng(0).standard_normal((4000, 65))
        tracemalloc.start()
        try:
            write_grid_csv(tmp_path / "grid.csv", times, vals)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 2**20
