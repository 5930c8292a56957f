import math
import sys
import threading

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats

from gaussmart import (
    DomainError,
    RandomStream,
    StreamBundle,
    cli,
    laplace,
    null_calibration,
    nu_total,
    path_bundle,
    sample_subordinator_increment,
    standard_battery,
    verify_bundle,
)
from gaussmart import sampler
from gaussmart.sampler import (
    POISSON_MEAN_LIMIT,
    VERIFY_STREAM_BASE,
    _RUN_GAP,
    _poisson_table_inversion,
    gamma_draw,
    philox_block,
    poisson_draw,
)


def _numpy_blocks(seed, first_id, site, attempt, n):
    """numpy's C Philox at counters (first_id + 1 + j, site, attempt, 0)."""
    # uint64 arrays: a plain list holding 2**63 + 5 would become float64
    key = np.array([seed, 0], dtype=np.uint64)
    counter = np.array([first_id, site, attempt, 0], dtype=np.uint64)
    return np.random.Philox(key=key, counter=counter).random_raw(4 * n).reshape(n, 4).T


@pytest.fixture
def numpy_calls(monkeypatch):
    """The first id of every numpy call that philox_block makes."""
    calls, numpy_blocks = [], sampler._numpy_blocks
    monkeypatch.setattr(sampler, "_numpy_blocks", lambda *a: calls.append(a[1]) or numpy_blocks(*a))
    return calls


class TestPhiloxCore:
    @pytest.mark.parametrize(
        "key, counter, expected",
        [
            ((0, 0), (0, 0, 0, 0),
             (0x16554D9ECA36314C, 0xDB20FE9D672D0FDC, 0xD7E772CEE186176B, 0x7E68B68AEC7BA23B)),
            ((0x452821E638D01377, 0xBE5466CF34E90C6C),
             (0x243F6A8885A308D3, 0x13198A2E03707344, 0xA4093822299F31D0, 0x082EFA98EC4E6C89),
             (0xA528F45403E61D95, 0x38C72DBD566E9788, 0xA5A1610E72FD18B5, 0x57BD43B5E52B7FE6)),
        ],
    )
    def test_numpy_philox_known_answers(self, key, counter, expected):
        # Random123's known-answer vectors for Philox-4x64-10, the
        # independent check of the generator every block comes from; numpy
        # advances its 256-bit counter before each block, so start one below
        value = (sum(w << (64 * i) for i, w in enumerate(counter)) - 1) % 2**256
        below = [(value >> (64 * i)) & (2**64 - 1) for i in range(4)]
        gen = np.random.Philox(
            key=np.array(key, dtype=np.uint64), counter=np.array(below, dtype=np.uint64)
        )
        assert [int(w) for w in gen.random_raw(4)] == list(expected)

    @pytest.mark.parametrize(
        "seed, first_id, site, attempt",
        [
            (0, 0, 0, 0),
            (12345, 7, 0, 0),
            (2**64 - 1, 2**63, 1, 0),
            (5, VERIFY_STREAM_BASE + 220_000, 2, 0),
            (5, VERIFY_STREAM_BASE + 220_000, 3, 4),
            (9, 2**64 - 4, 1, 1),
            (9, 2**64 - 2, 7, 2**64 - 1),
        ],
    )
    def test_network_matches_numpy_philox(self, seed, first_id, site, attempt):
        # philox_block at edge ids, sites and attempts, as one run, as
        # single ids and in reverse, against numpy's Philox
        n = min(3, 2**64 - 1 - first_id)
        ref = _numpy_blocks(seed, first_id, site, attempt, n)
        ids = np.arange(first_id, first_id + n, dtype=np.uint64)
        assert np.array_equal(philox_block(seed, ids, site, attempt), ref)
        assert np.array_equal(philox_block(seed, ids[::-1], site, attempt), ref[:, ::-1])
        for j in range(n):
            assert np.array_equal(philox_block(seed, ids[j:j + 1], site, attempt), ref[:, j:j + 1])

    def test_matches_reference_implementation(self):
        # numpy's Philox is the oracle whichever path philox_block takes: a
        # run of ids, the same ids reversed, and a repeated id
        ids = np.arange(2**63 + 5, 2**63 + 9, dtype=np.uint64)
        ref = _numpy_blocks(3, 2**63 + 5, 2, 1, 4)
        assert np.array_equal(philox_block(3, ids, 2, 1), ref)
        assert np.array_equal(philox_block(3, ids[::-1], 2, 1), ref[:, ::-1])
        again = ids[[0, 1, 1, 3]]
        assert np.array_equal(philox_block(3, again, 2, 1), ref[:, [0, 1, 1, 3]])

    @pytest.mark.usefixtures("time_limit")
    def test_sparse_reversed_duplicate_ids(self, numpy_calls):
        # ids ~2**64 apart, falling and repeated: one numpy call per run of
        # nearby ascending ids, so the call returns at once instead of
        # building the span, and every block is its id's, in request order.
        # The fall from 2**64 - 2 to 0 wraps to a step of 2, and is cut
        ids = np.array([2**64 - 2, 0, 7, 2**63, 7, 600, 8], dtype=np.uint64)
        got = philox_block(11, ids, 5, 3)
        assert numpy_calls == [2**64 - 2, 0, 2**63, 7, 600, 8]
        for col, i in enumerate(ids):
            assert np.array_equal(got[:, col], _numpy_blocks(11, i, 5, 3, 1)[:, 0])

    @pytest.mark.parametrize("attempt", [2, np.array(2, dtype=np.uint64)],
                             ids=["scalar", "array"])
    def test_runs_cut_past_the_run_gap(self, numpy_calls, attempt):
        # neighbours exactly _RUN_GAP apart share a numpy call, one more
        # apart start a new one; every block still matches a fresh
        # generator.  The attempt is a number or a 0-d array
        steps = [_RUN_GAP, _RUN_GAP + 1, _RUN_GAP, _RUN_GAP + 1]
        ids = np.cumsum([2**63 + 3] + steps, dtype=np.uint64)
        got = philox_block(8, ids, 4, attempt)
        assert numpy_calls == [int(ids[0]), int(ids[2]), int(ids[4])]
        for col, i in enumerate(ids):
            assert np.array_equal(got[:, col], _numpy_blocks(8, i, 4, 2, 1)[:, 0])

    def test_attempt_arrays_refused(self):
        # one request draws one attempt
        with pytest.raises(TypeError):
            philox_block(8, np.arange(3, dtype=np.uint64), 4, np.array([1, 1, 1]))

    def test_descending_request_is_one_call_per_id(self, numpy_calls):
        # no sort: every id of a falling request starts its own run
        ids = np.arange(40, 0, -3, dtype=np.uint64)
        got = philox_block(8, ids, 4, 1)
        assert numpy_calls == ids.tolist()
        for col, i in enumerate(ids):
            assert np.array_equal(got[:, col], _numpy_blocks(8, i, 4, 1, 1)[:, 0])

    def test_threads_interleaving_keep_their_own_generator(self):
        # more threads than cores request blocks of other seeds and sites in
        # lockstep, switching as often as the interpreter allows: had they
        # shared one generator, a key or counter set by one would leak into
        # another's blocks
        rounds, seeds = 100, (1, 2, 3, 4)
        barrier = threading.Barrier(len(seeds), timeout=10)
        ids = np.array([1, 4, 5, 600, 2**63, 2**63 + 2], dtype=np.uint64)
        got = {seed: [] for seed in seeds}

        def work(seed):
            for site in range(rounds):
                barrier.wait()
                got[seed].append(philox_block(seed, ids, site + seed, site % 3))

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=work, args=(seed,)) for seed in seeds]
            for th in threads:
                th.start()
            for th in threads:
                th.join(timeout=10)
        finally:
            sys.setswitchinterval(interval)
        assert not any(th.is_alive() for th in threads)
        for seed, blocks in got.items():
            assert len(blocks) == rounds
            for site, block in enumerate(blocks):
                for col, i in enumerate(ids):
                    ref = _numpy_blocks(seed, i, site + seed, site % 3, 1)[:, 0]
                    assert np.array_equal(block[:, col], ref)

    def test_empty_request(self):
        assert philox_block(1, np.array([], dtype=np.uint64), 1, 0).shape == (4, 0)
        assert philox_block(1, range(5, 5), 1, 0).shape == (4, 0)

    @pytest.mark.parametrize("first", [0, 2**63 + 7, 2**64 - 4])
    def test_range_is_one_numpy_call(self, numpy_calls, first):
        # a range of consecutive ids skips the checks over the ids and gives
        # the blocks of the same ids as an array
        ids = range(first, first + 3)
        got = philox_block(6, ids, 2, 1)
        assert numpy_calls == [first]
        assert np.array_equal(got, _numpy_blocks(6, first, 2, 1, 3))
        assert np.array_equal(got, philox_block(6, np.array(ids, dtype=np.uint64), 2, 1))

    def test_whole_bundle_draws_pass_a_range(self, monkeypatch):
        # consecutive lanes ask for a range; others for their ids
        seen = []
        block = sampler.philox_block
        monkeypatch.setattr(sampler, "philox_block", lambda *a: seen.append(a[1]) or block(*a))
        for bundle in (path_bundle(1, 4, 10), verify_bundle(1, 3), StreamBundle(1, [7])):
            bundle.blocks()
            assert seen.pop() == range(int(bundle.stream_ids[0]), int(bundle.stream_ids[-1]) + 1)
        gappy = StreamBundle(1, [3, 5, 4])
        assert np.array_equal(gappy.blocks(), StreamBundle(1, [3, 4, 5]).blocks()[:, [0, 2, 1]])
        assert np.array_equal(seen[0], [3, 5, 4])

    def test_neighbouring_verification_lanes_differ(self):
        b = verify_bundle(1, 4, offset=220_000)
        words = b.blocks()
        assert len({tuple(col) for col in words.T}) == 4

    def test_last_stream_id_rejected(self):
        StreamBundle(0, [2**64 - 2])
        with pytest.raises(DomainError):
            StreamBundle(0, [2**64 - 1])

    def test_streams_reproducible(self):
        a = StreamBundle(42, [0, 1, 2]).uniforms(4)
        b = StreamBundle(42, [0, 1, 2]).uniforms(4)
        assert np.array_equal(a, b)

    def test_distinct_streams_differ(self):
        a = StreamBundle(42, [0]).uniforms(4)
        b = StreamBundle(42, [1]).uniforms(4)
        assert not np.array_equal(a, b)

    def test_uniforms_open_interval(self):
        u = StreamBundle(3, np.arange(10000)).uniforms(4)
        assert np.all(u > 0.0) and np.all(u < 1.0)

    def test_partial_lane_draws_keep_other_lanes_intact(self):
        # a lane's draws do not depend on which other lanes draw with it
        full = StreamBundle(9, [0, 1, 2])
        partial = StreamBundle(9, [0, 1, 2])
        for b in (full, partial):
            b.new_site()
        ref = [full.uniforms(1, idx=np.arange(3))[0] for _ in range(2)]
        first = partial.uniforms(1, idx=np.array([1]))[0][0]
        again = partial.uniforms(1, idx=np.array([1]))[0][0]
        rest = partial.uniforms(1, idx=np.array([0, 2]))[0]
        assert first == ref[0][1] and again == ref[1][1]
        assert rest[0] == ref[0][0] and rest[1] == ref[0][2]
        # the next whole-bundle draw opens a new site for every lane alike
        assert np.array_equal(full.uniforms(1), partial.uniforms(1))

    def test_selection_of_unequal_attempts_refused(self):
        # lane 1 drew once more than lanes 0 and 2 at this site: a selection
        # holding it and another lane would need two attempts in one request
        b = StreamBundle(9, [0, 1, 2])
        b.new_site()
        b.blocks(np.array([1]))
        with pytest.raises(DomainError, match="drawn 0 to 1 times"):
            b.blocks(np.array([0, 1]))
        # the refused draw advanced nothing: lanes 0 and 2 still share attempt 0
        rest = b.blocks(np.array([0, 2]))
        assert np.array_equal(rest, _numpy_blocks(9, 0, 1, 0, 3)[:, [0, 2]])
        assert np.array_equal(b.blocks(np.arange(3)), _numpy_blocks(9, 0, 1, 1, 3))
        assert b.blocks(np.array([], dtype=np.intp)).shape == (4, 0)

    def test_sites_and_attempts_give_distinct_blocks(self):
        b = StreamBundle(4, [0])
        whole = [b.blocks()[:, 0] for _ in range(2)]
        retries = [b.blocks(np.array([0]))[:, 0] for _ in range(2)]
        assert len({tuple(w) for w in whole + retries}) == 4

    def test_verify_bundle_range(self):
        ids = verify_bundle(0, 3).stream_ids
        assert int(ids.min()) >= VERIFY_STREAM_BASE


class TestRequestShapes:
    @pytest.mark.usefixtures("time_limit")
    def test_package_requests_ascend(self, monkeypatch, tmp_path, poisson_fam, gamma_fam,
                                     compound_fam, brownian_fam):
        # every id array the package's runs ask philox_block for ascends
        # strictly, so no request needs a sort: each retry round draws a
        # subset of the lanes of the round before it
        arrays, ranges = [], []
        block = sampler.philox_block

        def recording(seed, stream_ids, site, attempt):
            (ranges if isinstance(stream_ids, range) else arrays).append(stream_ids)
            return block(seed, stream_ids, site, attempt)

        monkeypatch.setattr(sampler, "philox_block", recording)
        for fam in (poisson_fam, gamma_fam, compound_fam, brownian_fam):
            standard_battery(fam, 3, n_paths=1_000, n_qv=2, n_jumps=10_000, n_mode=10_000)
        null_calibration(seed=3, reps=1)
        for argv in (["simulate", "--family", "gamma", "--paths", "200", "--grid", "0:1:8"],
                     ["simulate", "--mode", "event", "--family", "compound",
                      "--atoms", "0.5:1,2:0.25", "--paths", "200", "--horizon", "50"],
                     ["jump-times", "--n", "10000", "--report", str(tmp_path / "jt.json")]):
            assert cli.execute(argv + ["--out", str(tmp_path / "out.csv")]) == 0
        assert ranges and arrays
        for ids in arrays:
            assert np.all(ids[1:] > ids[:-1])


class TestUniformMap:
    """Words map to the odd multiples of 2**-53: open at both ends, equally
    spaced, and exact."""

    def test_edges(self):
        # word 0 and the top word: neither 0 nor 1, so no normal is infinite
        words = np.array([0, 2**64 - 1], dtype=np.uint64)
        assert sampler._to_unit(words).tolist() == [2.0**-53, np.nextafter(1.0, 0.0)]
        assert np.all(np.abs(sampler.to_normals(words)) < 8.3)

    def test_upper_half_keeps_every_step(self):
        # each step of 2**12 in the word is its own uniform, above 1/2 too
        words = np.array([2**63, 2**63 + 2**12, 2**63 + 2**12 - 1], dtype=np.uint64)
        u = sampler._to_unit(words)
        assert u[1] - u[0] == 2.0**-52 and u[2] == u[0]
        assert u[0] == 0.5 + 2.0**-53

    @settings(max_examples=200, deadline=None)
    @given(st.integers(0, 2**64 - 1))
    def test_matches_exact_rationals(self, w):
        u = sampler._to_unit(np.array([w], dtype=np.uint64))[0]
        assert 0.0 < u < 1.0
        assert u == ((w >> 12) * 2 + 1) / 2**53


class TestGaussian:
    def test_scalar_deterministic(self):
        s1 = RandomStream(1, 0)
        first = [s1.normals(), s1.normals()]
        s2 = RandomStream(1, 0)
        assert np.array_equal(first, [s2.normals(), s2.normals()])
        assert np.array_equal(first[0], StreamBundle(1, [0]).normals())

    def test_moments(self):
        z = path_bundle(11, 1_000_000).normals()
        n = z.size
        assert abs(z.mean()) < 3e-3
        assert abs(z.var() - 1.0) < 3.0 * math.sqrt(2.0 / n)

    def test_distribution(self):
        z = path_bundle(12, 100_000).normals()
        assert stats.kstest(z, "norm").pvalue > 0.001


class TestSubordinatorIncrement:
    def test_sigma_one_is_zero(self, poisson_fam, gamma_fam, compound_fam):
        for fam in (poisson_fam, gamma_fam, compound_fam):
            assert np.array_equal(
                sample_subordinator_increment(fam, 1.0, RandomStream(0, 0)), [0.0]
            )

    def test_sigma_below_one_rejected(self, poisson_fam):
        with pytest.raises(DomainError):
            sample_subordinator_increment(poisson_fam, 0.99, RandomStream(0, 0))

    def test_poisson_mean(self, poisson_fam):
        u = sample_subordinator_increment(poisson_fam, math.e, path_bundle(5, 1_000_000))
        c = nu_total(poisson_fam)
        assert abs(u.mean() - c) < 3.0 * math.sqrt(c / u.size)

    def test_poisson_support_integers(self, poisson_fam):
        u = sample_subordinator_increment(poisson_fam, 2.0, path_bundle(6, 10_000))
        assert np.all(u >= 0) and np.all(u == np.round(u))

    def test_gamma_mean(self, gamma_fam):
        u = sample_subordinator_increment(gamma_fam, math.e, path_bundle(7, 1_000_000))
        mean = gamma_fam.a / gamma_fam.b
        var = gamma_fam.a / gamma_fam.b**2
        assert abs(u.mean() - mean) < 3.0 * math.sqrt(var / u.size)

    def test_gamma_distribution(self, gamma_fam):
        u = sample_subordinator_increment(gamma_fam, math.e, path_bundle(8, 100_000))
        shape = gamma_fam.a
        assert stats.kstest(u, "gamma", args=(shape, 0, 1 / gamma_fam.b)).pvalue > 0.001

    def test_gamma_small_shape_distribution(self, gamma_fam):
        # sigma near 1 gives tiny shapes; the boosted sampler must stay exact
        sigma = 1.05
        shape = gamma_fam.a * math.log(sigma)
        assert shape < 0.5
        u = sample_subordinator_increment(gamma_fam, sigma, path_bundle(9, 100_000))
        assert np.all(u >= 0.0)
        assert stats.kstest(u, "gamma", args=(shape, 0, 1 / gamma_fam.b)).pvalue > 0.001

    def test_compound_mean(self, compound_fam):
        u = sample_subordinator_increment(compound_fam, math.e, path_bundle(10, 400_000))
        mean = sum(x * w for x, w in compound_fam.atoms) + compound_fam.beta
        assert u.mean() == pytest.approx(mean, abs=4.0 * u.std() / math.sqrt(u.size))

    def test_brownian_increment_deterministic(self, brownian_fam):
        u = sample_subordinator_increment(brownian_fam, 2.0, path_bundle(1, 100))
        assert np.allclose(u, 2.0 * math.log(2.0))

    @pytest.mark.parametrize("kind", ["poisson", "compound", "drift", "brownian"])
    @pytest.mark.parametrize("sigma", [1.0, 1.01, 1.2])
    def test_no_jump_increment_is_the_least_draw(self, kind, sigma, request):
        # the lanes where no atom fires hold exactly the no-jump value
        fam = request.getfixturevalue(f"{kind}_fam")
        u = sample_subordinator_increment(fam, sigma, path_bundle(2, 2000))
        assert u.min() == sampler.no_jump_increment(fam, sigma)
        assert np.count_nonzero(u == u.min()) > 0.2 * u.size

    def test_no_jump_increment_of_gamma_is_zero(self, gamma_fam):
        assert sampler.no_jump_increment(gamma_fam, 2.0) == 0.0


class TestDistributionalSemigroup:
    @pytest.mark.parametrize("kind", ["poisson", "gamma"])
    def test_convolution_identity(self, kind, poisson_fam, gamma_fam):
        # independent U_sigma + U_tau must have the law of U_{sigma tau}
        fam = poisson_fam if kind == "poisson" else gamma_fam
        n = 100_000
        sigma, tau = 1.7, 2.4
        a = sample_subordinator_increment(fam, sigma, path_bundle(21, n))
        b = sample_subordinator_increment(fam, tau, path_bundle(22, n))
        c = sample_subordinator_increment(fam, sigma * tau, path_bundle(23, n))
        assert stats.ks_2samp(a + b, c).pvalue > 0.001

    @pytest.mark.parametrize("lam", [0.5, 1.0, 2.0])
    def test_laplace_transform_matches(self, poisson_fam, gamma_fam, compound_fam, lam):
        n = 100_000
        for seed, fam in enumerate((poisson_fam, gamma_fam, compound_fam)):
            u = sample_subordinator_increment(fam, 2.0, path_bundle(31 + seed, n))
            w = np.exp(-lam * u)
            target = laplace(fam, 2.0, lam)
            se = w.std() / math.sqrt(n)
            assert abs(w.mean() - target) <= 4.0 * se


class TestLowLevelSamplers:
    def test_poisson_large_mean_ptrs(self):
        b = path_bundle(44, 200_000)
        k = poisson_draw(b, 42.0)
        assert abs(k.mean() - 42.0) < 4.0 * math.sqrt(42.0 / k.size)
        assert abs(k.var() - 42.0) < 5.0 * 42.0 * math.sqrt(2.0 / k.size)

    def test_poisson_large_mean_distribution(self):
        # exact discreteness defeats KS, so bin and chi-square instead
        k = poisson_draw(path_bundle(45, 100_000), 37.5)
        grid = np.arange(0, 200)
        obs = np.bincount(k, minlength=200)[:200]
        expected = stats.poisson.pmf(grid, 37.5) * k.size
        keep = expected > 5
        chi2 = float(((obs[keep] - expected[keep]) ** 2 / expected[keep]).sum())
        p = stats.chi2.sf(chi2, keep.sum() - 1)
        assert p > 0.001

    def test_gamma_large_shape(self):
        g = gamma_draw(path_bundle(46, 200_000), 25.0, 2.0)
        assert abs(g.mean() - 12.5) < 4.0 * math.sqrt(25.0 / 4.0 / g.size)
        assert stats.kstest(g[:100_000], "gamma", args=(25.0, 0, 0.5)).pvalue > 0.001

    def test_lane_range_matches_full_bundle_after_gamma_retries(self):
        # lanes [a, b) drawn as their own bundle equal the same lanes of the
        # full bundle, through rejection retries and at the next site
        a, b = 300, 1700
        full = path_bundle(48, 2000)
        part = StreamBundle(48, np.arange(a, b))
        g_full = gamma_draw(full, 0.05)
        g_part = gamma_draw(part, 0.05)
        assert int(part._attempt.max()) > 1  # some lane retried
        assert np.array_equal(g_full[a:b], g_part)
        assert np.array_equal(full.normals()[a:b], part.normals())

    @pytest.mark.parametrize(
        "shape, values",
        [
            (0.05, [
                6.667714457462349e-20, 3.7845993205223954e-11, 0.0021873099019467847,
                1.056022562448881e-18, 0.00028013611167265854, 5.752504806366466e-06,
                0.04479365847193896, 1.4595126645207913e-15, 0.00016946638284950628,
                2.060940975997354e-15, 1.182042856238752e-15, 1.7096145325745438e-09,
                8.961635089805994e-07, 0.020452623931389368, 0.002749266847014314,
                3.2186936747546726e-60,
            ]),
            (1.0, [
                1.0514421158177816, 0.26741507701497497, 0.6906028500622418,
                1.1542273893530515, 0.1368417507387029, 0.22299861405816307,
                0.060983292998545935, 2.5642769403712875, 0.0709534922886428,
                0.42786673189034274, 0.10317899251638456, 0.7511488843524698,
                0.309840016994336, 2.045761168891265, 0.11052894739958413,
                0.013460829214555051,
            ]),
            (25.0, [
                15.39460719492654, 11.907580237660937, 14.081681200038659,
                15.723492787029166, 10.836370612497026, 11.586152426050683,
                9.886154975129667, 19.257810412513614, 10.041220455769734,
                12.86878742539657, 10.468099401133891, 14.32370700548218,
                12.18751230420752, 18.109135978457015, 10.553917859257375,
                8.753462461125148,
            ]),
        ],
    )
    def test_gamma_known_answers(self, shape, values):
        # values recorded at stream layout 3; shape 0.05 takes the boost
        assert gamma_draw(path_bundle(7, 16), shape, 2.0).tolist() == values

    @pytest.mark.parametrize(
        "draw",
        [
            lambda b: poisson_draw(b, 2.5),
            lambda b: poisson_draw(b, 42.0),
            lambda b: gamma_draw(b, 0.5),
        ],
        ids=["poisson-table", "poisson-ptrs", "gamma"],
    )
    def test_empty_bundle_opens_one_site(self, draw):
        b = path_bundle(0, 0)
        assert draw(b).shape == (0,)
        assert b._site == 1


def _sequential_search(u, mean):
    """Reference Poisson inversion: a masked sequential search of the CDF,
    stopping a lane where p underflows (u beyond representable mass)."""
    k = np.zeros(u.shape, dtype=np.int64)
    p = np.exp(-mean)
    cdf = p.copy()
    active = u > cdf
    while np.any(active):
        k[active] += 1
        p[active] *= mean[active] / k[active]
        cdf[active] += p[active]
        active &= (u > cdf) & (p > 0.0)
    return k


#: a uniform below the smallest the stream makes (2**-53), 1/2, the largest
#: uniform the stream makes (1 - 2**-53, the largest double below 1), and 1
#: itself, which the stream never makes but the inversion must still count
_EDGE_U = [2.0**-54, 0.5, 1.0 - 2.0**-53, 1.0]
_MEANS = st.one_of(
    st.sampled_from([0.0, 5e-324, 1e-310, 2.0**-1022, 1e-300, 10.0]),
    st.floats(0.0, 10.0),
)
_UNIFORMS = st.lists(
    st.one_of(st.sampled_from(_EDGE_U), st.floats(2.0**-54, 1.0)),
    min_size=1,
    max_size=40,
)


class TestPoissonInversion:
    """The table inversion returns the sequential search's counts bit for bit."""

    @settings(max_examples=300, deadline=None)
    @given(mean=_MEANS, u=_UNIFORMS)
    def test_table_matches_sequential_search(self, mean, u):
        u = np.array(u + _EDGE_U)
        ref = _sequential_search(u, np.full(u.shape, mean))
        assert np.array_equal(_poisson_table_inversion(u, mean), ref)

    @pytest.mark.parametrize("mean", [0.1, 4.0, 10.0])
    def test_underflow_edge(self, mean):
        # at mean 0.1 and 4 the cumulative sum stops short of 1 - 2**-53
        # (the stream's top uniform), at mean 10 short of u = 1.0, so the
        # table runs until p underflows and the last index is taken
        u = np.array([1.0, 1.0 - 2.0**-53, 0.5])
        ref = _sequential_search(u, np.full(u.shape, mean))
        assert ref[0] > 60
        assert np.array_equal(_poisson_table_inversion(u, mean), ref)

    @pytest.mark.parametrize(
        "mean, counts",
        [
            (0.05, [0, 0, 0, 0, 0, 0, 0, 1, 0, 0, 0, 0, 0, 1, 0, 0]),
            (2.5, [4, 2, 3, 5, 1, 2, 1, 7, 1, 3, 1, 4, 2, 6, 1, 0]),
            (9.9, [14, 9, 12, 14, 8, 9, 7, 18, 7, 10, 7, 12, 10, 17, 7, 5]),
            (10.0, [14, 9, 12, 14, 8, 9, 7, 18, 7, 11, 7, 12, 10, 17, 8, 5]),
            (42.0, [36, 41, 47, 52, 37, 40, 34, 48, 35, 44, 36, 43, 41, 44, 36, 28]),
        ],
    )
    def test_known_answers(self, mean, counts):
        # counts recorded from the sequential search at stream layout 2; the
        # open uniforms of layout 3 leave every one of them unchanged
        assert poisson_draw(path_bundle(7, 16), mean).tolist() == counts

    def test_whole_bundle_draw_is_one_block_call(self, monkeypatch):
        calls = []
        blocks = StreamBundle.blocks

        def counted(self, idx=None):
            calls.append(idx)
            return blocks(self, idx)

        monkeypatch.setattr(StreamBundle, "blocks", counted)
        poisson_draw(path_bundle(3, 50), 2.5)
        assert calls == [None]


class TestNonFiniteParameters:
    @pytest.mark.usefixtures("time_limit")
    @pytest.mark.parametrize("mean", [math.nan, math.inf, -math.inf])
    def test_poisson_mean(self, mean):
        with pytest.raises(DomainError):
            poisson_draw(path_bundle(1, 10), mean)

    def test_poisson_mean_past_the_limit(self):
        # a count of 2**63 or more would not fit int64 (it used to turn into
        # a negative number or NaN); refused, with the mean named
        with pytest.raises(DomainError, match=r"poisson mean 9\.3e\+18 is above 2\*\*62"):
            poisson_draw(path_bundle(1, 10), 9.3e18)
        k = poisson_draw(path_bundle(1, 1000), POISSON_MEAN_LIMIT)
        assert np.all(np.abs(k - POISSON_MEAN_LIMIT) < 10.0 * math.sqrt(POISSON_MEAN_LIMIT))

    @pytest.mark.usefixtures("time_limit")
    @pytest.mark.parametrize("shape, rate", [
        (math.nan, 1.0), (math.inf, 1.0), (1.0, math.nan), (1.0, math.inf),
    ])
    def test_gamma_shape_and_rate(self, shape, rate):
        with pytest.raises(DomainError):
            gamma_draw(path_bundle(1, 10), shape, rate)
