import dataclasses
import heapq
import math
import tracemalloc
from collections import defaultdict
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from scipy import stats
from scipy.integrate import simpson

from gaussmart import (
    DomainError,
    GridSpec,
    LatticeError,
    Polynomial,
    QuadratureError,
    brownian_family,
    calibrate,
    ck_residual,
    compound_family,
    conditional_moments,
    kernel,
    kernel_eval,
    kernel_moment,
    poisson_family,
    sampler,
)
from gaussmart.kernel import (
    POISSON_TAIL,
    ROUNDING_LIMIT,
    _density_matrix,
    _lattice_law,
    _phi,
    gaussian_moments,
)
from gaussmart.quadrature import gamma_expectation

SQRT_2PI = math.sqrt(2.0 * math.pi)


class TestStartFromZero:
    def test_standard_normal_density_at_origin(self, poisson_fam):
        ev = kernel_eval(poisson_fam, 0.0, 1.0, 0.0)
        assert ev.atom_weight == 0.0
        assert math.isnan(ev.atom_location)
        assert ev.density(0.0) == pytest.approx(1.0 / SQRT_2PI, rel=1e-14)

    def test_general_x_supported_for_testing(self, gamma_fam):
        dens = kernel_eval(gamma_fam, 0.0, 4.0, 1.0).density(1.0)
        assert dens == pytest.approx(1.0 / (2.0 * SQRT_2PI), rel=1e-14)

    def test_moments(self, poisson_fam):
        assert kernel_moment(poisson_fam, 0.0, 2.0, 0.5, 1) == pytest.approx(0.5)
        assert kernel_moment(poisson_fam, 0.0, 2.0, 0.5, 2) == pytest.approx(2.25)


class TestPoissonKernel:
    def test_atom_weight_at_sqrt2(self, poisson_fam):
        ev = kernel_eval(poisson_fam, 1.0, 2.0, 0.7)
        assert ev.atom_weight == pytest.approx(0.4144451136983333, rel=1e-12)
        assert ev.atom_location == pytest.approx(0.7 * math.sqrt(2.0), rel=1e-14)

    def test_mixture_weights_sum_to_one(self, poisson_fam):
        ev = kernel_eval(poisson_fam, 0.5, 2.0, 1.0)
        # atom + AC mass: integrate the density on a wide grid
        y = np.linspace(-15, 17, 20001)
        mass = ev.atom_weight + simpson(ev.density(y), x=y)
        assert mass == pytest.approx(1.0, abs=1e-8)

    @pytest.mark.parametrize("k,", [(0,), (1,), (2,)])
    def test_moments_match_closed_forms(self, poisson_fam, k):
        k = k[0] if isinstance(k, tuple) else k
        s, t, x = 0.5, 2.0, 1.0
        got = kernel_moment(poisson_fam, s, t, x, k)
        if k == 0:
            assert got == pytest.approx(1.0, abs=1e-8)
        elif k == 1:
            assert got == pytest.approx(x, abs=1e-8)
        else:
            _, second = conditional_moments(poisson_fam, s, t, x)
            assert got == pytest.approx(second, abs=1e-8)

    def test_moments_by_independent_quadrature(self, poisson_fam):
        # integrate y^k against the pointwise density (independent of the
        # closed mixture-moment path) and add the atom contribution
        s, t, x = 1.0, 2.0, 0.7
        ev = kernel_eval(poisson_fam, s, t, x)
        y = np.linspace(-16, 18, 40001)
        dens = ev.density(y)
        for k in (0, 1, 2):
            quad = simpson(y**k * dens, x=y) + ev.atom_weight * ev.atom_location**k
            assert quad == pytest.approx(
                kernel_moment(poisson_fam, s, t, x, k), abs=1e-8
            )

    def test_density_nonnegative(self, poisson_fam):
        y = np.linspace(-20, 20, 4001)
        assert np.all(kernel_eval(poisson_fam, 0.5, 2.0, -1.3).density(y) >= 0.0)

    def test_symmetry_in_x(self, poisson_fam):
        y = np.linspace(-6, 6, 101)
        d_plus = kernel_eval(poisson_fam, 0.5, 2.0, 1.0).density(y)
        d_minus = kernel_eval(poisson_fam, 0.5, 2.0, -1.0).density(-y)
        assert np.allclose(d_plus, d_minus, rtol=0, atol=1e-15)


class TestGammaKernel:
    def test_no_atom(self, gamma_fam):
        ev = kernel_eval(gamma_fam, 1.0, 2.0, 0.7)
        assert ev.atom_weight == 0.0
        assert ev.atom_location == pytest.approx(0.7 * math.sqrt(2.0))

    def test_mass_and_moments(self, gamma_fam):
        s, t, x = 0.5, 2.0, 1.0
        assert kernel_moment(gamma_fam, s, t, x, 0) == pytest.approx(1.0, abs=1e-8)
        assert kernel_moment(gamma_fam, s, t, x, 1) == pytest.approx(x, abs=1e-8)
        _, second = conditional_moments(gamma_fam, s, t, x)
        assert kernel_moment(gamma_fam, s, t, x, 2) == pytest.approx(second, abs=1e-8)

    def test_density_integrates_to_one(self, gamma_fam):
        ev = kernel_eval(gamma_fam, 0.5, 2.0, 1.0)
        y = np.linspace(-15, 17, 8001)
        assert simpson(ev.density(y), x=y) == pytest.approx(1.0, abs=1e-7)

    def test_density_mean_by_quadrature(self, gamma_fam):
        ev = kernel_eval(gamma_fam, 0.5, 2.0, 1.0)
        y = np.linspace(-15, 17, 8001)
        assert simpson(y * ev.density(y), x=y) == pytest.approx(1.0, abs=1e-7)

    @pytest.mark.usefixtures("time_limit")
    @pytest.mark.parametrize("t", [1.05, 1.001])
    def test_infinite_density_node_fails_at_once(self, gamma_fam, t):
        # a ln sigma <= 1/2: the density is infinite at sigma x = 0, so the
        # integrand there is not finite and no subdivision can converge
        assert gamma_fam.a * math.log(math.sqrt(t)) <= 0.5
        ev = kernel_eval(gamma_fam, 1.0, t, 0.0)
        with pytest.raises(QuadratureError, match="not finite"):
            ev.density(np.linspace(-1.0, 1.0, 5))

    def test_small_sigma_shape_below_one(self, gamma_fam):
        # a ln(sigma) < 1 triggers the singular-substitution branch
        s, t, x = 1.0, 1.2, 0.5
        assert gamma_fam.a * math.log(math.sqrt(t / s)) < 1.0
        assert kernel_moment(gamma_fam, s, t, x, 0) == pytest.approx(1.0, abs=1e-8)
        assert kernel_moment(gamma_fam, s, t, x, 1) == pytest.approx(x, abs=1e-8)
        _, second = conditional_moments(gamma_fam, s, t, x)
        assert kernel_moment(gamma_fam, s, t, x, 2) == pytest.approx(second, abs=1e-8)


def mixture_moment(family, s, t, x, k, max_count=60):
    """Independent route to E[Y^k]: the Gaussian mixture over a full grid of
    two atoms' Poisson counts, each component's moment by the polynomial
    Gaussian-moment recursion."""
    (x1, w1), (x2, w2) = family.atoms
    log_sigma = 0.5 * math.log(t / s)
    n = np.arange(max_count)
    p1 = stats.poisson.pmf(n, w1 * log_sigma)
    p2 = stats.poisson.pmf(n, w2 * log_sigma)
    weights = np.outer(p1, p2)
    u = x1 * n[:, None] + x2 * n[None, :]
    mean = math.exp(log_sigma) * np.exp(-0.5 * u) * x
    var = t * -np.expm1(-u)
    return float(np.sum(weights * Polynomial.monomial(k).gaussian_expectation(mean, var)))


#: eight small atoms (nu ~ 45): more than 20,000 count vectors carry the
#: mass, but their sums lie on the lattice 0.01 j
MANY_ATOMS = [(0.01 * i, 1.0) for i in range(1, 9)]


def count_mixture(family, log_sigma):
    """Reference law of ``sum_i x_i N_i`` by enumerating count vectors.

    The counts are independent Poisson, so the joint weight is log-concave
    and a best-first walk from the mode visits count vectors in decreasing
    weight.  Returns ``(weights, jump_sums)`` once the kept weights reach
    ``1 - POISSON_TAIL``.
    """
    locs = [x for x, _ in family.atoms]
    means = [w * log_sigma for _, w in family.atoms]

    def log_pmf(i, n):
        return (n * math.log(means[i]) if n else 0.0) - means[i] - math.lgamma(n + 1.0)

    start = tuple(int(m) for m in means)
    heap = [(-sum(log_pmf(i, n) for i, n in enumerate(start)), start)]
    seen = {start}
    weights, jump_sums = [], []
    mass = 0.0
    while heap and 1.0 - mass > POISSON_TAIL:
        neg_logw, counts = heapq.heappop(heap)
        weights.append(math.exp(-neg_logw))
        jump_sums.append(sum(x * n for x, n in zip(locs, counts)))
        mass += weights[-1]
        for i, n in enumerate(counts):
            for m in (n - 1, n + 1):
                nxt = counts[:i] + (m,) + counts[i + 1:]
                if m >= 0 and nxt not in seen:
                    seen.add(nxt)
                    logw = -neg_logw - log_pmf(i, n) + log_pmf(i, m)
                    heapq.heappush(heap, (-logw, nxt))
    return np.array(weights), np.array(jump_sums)


def lattice_against_reference(family, s, t):
    """``(meta, largest weight difference, distinct positive sums)`` of the
    lattice law against the enumeration, coincident sums merged."""
    log_sigma = 0.5 * math.log(t / s)
    u, w, meta = _lattice_law(family, s, t, 0.0)
    ref_w, sums = count_mixture(family, log_sigma)
    h = meta["h"]
    points = np.rint(sums / h).astype(int)
    assert np.allclose(sums, h * points, rtol=1e-12, atol=1e-12)  # sums sit on it
    ref = defaultdict(float)
    for n, weight in zip(points, ref_w):
        ref[n] += weight
    got = dict(zip(np.rint((u - family.beta * log_sigma) / h).astype(int), w))
    diff = max(abs(ref.get(n, 0.0) - got.get(n, 0.0)) for n in set(ref) | set(got))
    distinct = len({n for n in ref if family.beta > 0 or n > 0})
    return meta, diff, distinct


class TestCompoundKernel:
    def test_moments_match_mixture(self, compound_fam):
        s, t, x = 0.5, 2.0, 1.0
        got = [kernel_moment(compound_fam, s, t, x, k) for k in range(5)]
        for k in range(5):
            assert got[k] == pytest.approx(mixture_moment(compound_fam, s, t, x, k), abs=1e-8)
        assert got[:2] == pytest.approx([1.0, x], abs=1e-8)
        assert got[2] == pytest.approx(conditional_moments(compound_fam, s, t, x)[1], abs=1e-8)

    def test_atom_reported_exactly(self, compound_fam):
        ev = kernel_eval(compound_fam, 1.0, 2.0, 0.5)
        total = sum(w for _, w in compound_fam.atoms)
        assert ev.atom_weight == pytest.approx(math.sqrt(2.0) ** -total, rel=1e-12)
        assert ev.quadrature["method"] == "finite-atom-mixture"
        assert ev.quadrature["tail"] <= 1e-12
        assert ev.quadrature["lattice"] == "exact" and ev.quadrature["h"] == 0.5
        assert ev.quadrature["rounding_bound"] == 0.0

    def test_mass_and_mean_by_quadrature(self, compound_fam):
        ev = kernel_eval(compound_fam, 0.5, 2.0, 1.0)
        y = np.linspace(-15, 17, 20001)
        dens = ev.density(y)
        assert ev.atom_weight + simpson(dens, x=y) == pytest.approx(1.0, abs=1e-8)
        mean = simpson(y * dens, x=y) + ev.atom_weight * ev.atom_location
        assert mean == pytest.approx(1.0, abs=1e-8)

    def test_many_atoms_mass_and_mean_known_answers(self):
        fam = calibrate(compound_family(MANY_ATOMS))
        s, t, x = 0.5, 2.0, 0.7
        ev = kernel_eval(fam, s, t, x)
        assert ev.quadrature["h"] == 0.01 and ev.quadrature["components"] == 386
        y = np.linspace(-15, 17, 20001)
        dens = ev.density(y)
        mass = ev.atom_weight + simpson(dens, x=y)
        mean = ev.atom_weight * ev.atom_location + simpson(y * dens, x=y)
        assert mass == pytest.approx(kernel_moment(fam, s, t, x, 0), abs=1e-8)
        assert mean == pytest.approx(kernel_moment(fam, s, t, x, 1), abs=1e-8)

    def test_many_atoms_table_draws_no_random_numbers(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("the kernel drew random numbers")

        monkeypatch.setattr(sampler, "philox_block", refuse)
        fam = calibrate(compound_family(MANY_ATOMS))
        y = np.linspace(-6.0, 6.0, 2001)  # the default table size
        tracemalloc.start()
        try:
            dens = kernel_eval(fam, 0.5, 2.0, 0.7).density(y)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert np.all(np.isfinite(dens)) and dens.min() >= 0.0
        assert peak < 50 * 2**20


_LATTICE_ATOMS = st.lists(
    st.tuples(st.integers(1, 6), st.floats(0.05, 2.0)), min_size=1, max_size=3
)


class TestLatticeLaw:
    """The lattice recursion against the count-vector enumeration."""

    @pytest.mark.parametrize(
        "atoms", [None, [(0.5, 1.0), (2.0, 0.7)], [(0.123, 1.0), (1.0, 1.0)]],
        ids=["1:c", "0.5:1,2:0.7", "0.123:1,1:1"],
    )
    @pytest.mark.parametrize("s, t", [(0.5, 1.0), (0.5, 2.0)])
    def test_weights_match_enumeration(self, poisson_fam, atoms, s, t):
        fam = poisson_fam if atoms is None else calibrate(compound_family(atoms))
        meta, diff, distinct = lattice_against_reference(fam, s, t)
        assert diff <= 1e-12
        assert meta["lattice"] == "exact" and meta["rounding_bound"] == 0.0
        assert meta["tail"] <= POISSON_TAIL
        # coincident sums merge, and empty lattice points are left out
        assert meta["components"] <= distinct

    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(
        steps=_LATTICE_ATOMS,
        h=st.sampled_from([0.1, 0.25, 0.5, 1.0, 0.3]),
        beta=st.sampled_from([0.0, 0.4]),
        log_sigma=st.floats(0.05, 1.2),
    )
    def test_small_lattices_match_enumeration(self, steps, h, beta, log_sigma):
        fam = compound_family([(h * j, w) for j, w in steps], beta=beta)
        meta, diff, distinct = lattice_against_reference(fam, 1.0, math.exp(2.0 * log_sigma))
        assert diff <= 1e-12
        assert meta["lattice"] == "exact" and meta["tail"] <= POISSON_TAIL
        assert meta["components"] <= distinct

    def test_rounded_atoms_within_the_bound(self):
        # 1 + 1e-11 is off the lattice 0.5 j by more than a relative 1e-12,
        # and no lattice within the budget holds it, so it is rounded to 1
        rounded = calibrate(compound_family([(0.5, 1.0), (1.0 + 1e-11, 0.7)]))
        ev = kernel_eval(rounded, 0.5, 2.0, 0.7)
        meta = ev.quadrature
        assert meta["lattice"] == "rounded" and meta["h"] == 0.5
        assert 0.0 < meta["rounding_bound"] <= ROUNDING_LIMIT
        (_, w0), (_, w1) = rounded.atoms
        on_lattice = dataclasses.replace(rounded, atoms=((0.5, w0), (1.0, w1)))
        y = np.linspace(-6.0, 6.0, 401)
        diff = np.abs(ev.density(y) - kernel_eval(on_lattice, 0.5, 2.0, 0.7).density(y))
        assert diff.max() * math.sqrt(2.0) <= meta["rounding_bound"]  # in units of 1/sqrt(t)

    def test_step_too_short_for_a_jump(self, poisson_fam):
        # lam ~ 6e-16: the whole law is the atom, with no component to sum
        ev = kernel_eval(poisson_fam, 1.0, 1.0 + 4.4e-16, 0.3)
        assert ev.quadrature["components"] == 0
        assert np.array_equal(ev.density(np.array([0.3, 0.31])), [0.0, 0.0])

    def test_fine_lattice_at_a_short_step(self):
        # counts of mean 5e-4 stay within 4 jumps in all, so U fits on the
        # lattice 1e-4 within about 40,000 points from zero, where the two
        # counts' own windows would need twice as many
        fam = compound_family([(1.0, 1.0), (1.0001, 1.0)])
        meta, diff, distinct = lattice_against_reference(fam, 1.0, math.exp(1e-3))
        assert meta["lattice"] == "exact" and meta["h"] == pytest.approx(1e-4, rel=1e-9)
        assert diff <= 1e-12 and meta["tail"] <= POISSON_TAIL
        assert meta["components"] <= distinct

    @pytest.mark.parametrize("atoms", [[(1.0, 1.0), (1.000001, 1.0)], [(1e-6, 1.0), (1.0, 1.0)]])
    def test_unrepresentable_atoms_refused(self, atoms):
        fam = calibrate(compound_family(atoms))
        with pytest.raises(LatticeError, match=r"atoms \(\(") as err:
            kernel_eval(fam, 0.5, 2.0, 0.7)
        assert isinstance(err.value, ArithmeticError)
        assert repr(fam.atoms[0][0]) in str(err.value)


def assert_law_of_u(family, log_sigma, u, w, meta):
    """The kept law of U against its closed forms: mass at least 1 - tail,
    mean ``beta ln sigma + ln sigma sum_i w_i x_i`` and variance ``ln sigma
    sum_i w_i x_i^2``."""
    locs, weights = np.array(family.atoms).T
    mean = family.beta * log_sigma + log_sigma * float(weights @ locs)
    assert meta["tail"] <= POISSON_TAIL
    assert 1.0 - meta["tail"] - 1e-9 <= w.sum() <= 1.0 + 1e-9
    assert w @ u == pytest.approx(mean, rel=1e-9)
    assert w @ (u - mean) ** 2 == pytest.approx(log_sigma * float(weights @ locs**2), rel=1e-9)


class TestWindowedLaw:
    """The windowed convolution where the enumeration cannot reach, against
    closed forms: the moments of U, and ``E[e^{-U/2}] = 1 / sigma`` for
    calibrated families."""

    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(
        steps=_LATTICE_ATOMS,
        h=st.sampled_from([0.1, 0.25, 0.5, 1.0, 0.3]),
        beta=st.sampled_from([0.0, 0.4]),
        log_sigma=st.floats(0.05, 350.0),
    )
    @example(steps=[(1, 2.0), (6, 2.0), (5, 2.0)], h=1.0, beta=0.4, log_sigma=350.0)
    def test_mass_mean_and_variance(self, steps, h, beta, log_sigma):
        fam = compound_family([(h * j, w) for j, w in steps], beta=beta)
        t = math.exp(2.0 * log_sigma)
        u, w, meta = _lattice_law(fam, 1.0, t, 0.0)
        assert meta["lattice"] == "exact"
        assert_law_of_u(fam, 0.5 * math.log(t), u, w, meta)

    @settings(max_examples=30, deadline=None, derandomize=True)
    @given(
        steps=_LATTICE_ATOMS,
        h=st.sampled_from([0.1, 0.25, 0.5, 1.0, 0.3]),
        beta=st.sampled_from([0.0, 0.4]),
        log_sigma=st.floats(0.05, 5.0),
    )
    def test_calibrated_laplace_transform(self, steps, h, beta, log_sigma):
        # psi(1/2) = 1, so E[e^{-U/2}] = sigma^-1; e^{-u/2} <= 1, so the
        # mass left out moves the sum by at most the tail
        fam = calibrate(compound_family([(h * j, w) for j, w in steps], beta=beta))
        sigma = math.exp(log_sigma)
        u, w, meta = _lattice_law(fam, 1.0, sigma**2, 0.0)
        assert abs(w @ np.exp(-0.5 * u) - 1.0 / sigma) <= meta["tail"] + 1e-12

    @pytest.mark.usefixtures("time_limit")
    def test_near_the_point_budget(self):
        # two counts of mean 1.5e6 with windows of about 20,000 points each,
        # the second's points two apart: the windows span about 60,000 of
        # the 65,536 points, and the mass kept about 39,000
        fam = compound_family([(0.01, 1e4), (0.02, 1e4)])
        t = math.exp(300.0)
        u, w, meta = _lattice_law(fam, 1.0, t, 0.0)
        assert meta["lattice"] == "exact" and meta["h"] == 0.01
        assert meta["components"] > 35_000
        assert_law_of_u(fam, 0.5 * math.log(t), u, w, meta)

    @pytest.mark.parametrize("log_sigma", [0.35, 5.0, 150.0])
    def test_a_dozen_atoms(self, log_sigma):
        # from 10 atoms on, each count's 1 - q quantile would be taken at
        # 1 - q = 1.0, which has none
        fam = compound_family([(0.01 * i, 1.0) for i in range(1, 13)])
        t = math.exp(2.0 * log_sigma)
        u, w, meta = _lattice_law(fam, 1.0, t, 0.0)
        assert meta["lattice"] == "exact" and meta["h"] == pytest.approx(0.01, rel=1e-9)
        assert_law_of_u(fam, 0.5 * math.log(t), u, w, meta)

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_windows_that_are_not_finite_refused(self):
        # Poisson means of about 7e299 have no finite quantiles
        fam = calibrate(compound_family([(1e-300, 1.0)]))
        with pytest.raises(LatticeError, match=r"atoms \(\(1e-300, .* not finite"):
            kernel_eval(fam, 0.5, 2.0, 0.0)

    def test_rounded_lattice_within_the_point_budget(self):
        # the spacing of least rounding error would need more than 65,536
        # points, so the best one that fits is taken; a drift of 20 keeps u
        # far from 0, where the rounding bound is large
        fam = compound_family([(1.0, 0.0033), (1.00048, 1.8)], beta=20.0)
        u, w, meta = _lattice_law(fam, 1.0, math.exp(18.0), 1.0)
        assert meta["lattice"] == "rounded" and 0.0 < meta["rounding_bound"] <= ROUNDING_LIMIT
        assert (u.max() - u.min()) / meta["h"] <= 65_536
        assert 1.0 - meta["tail"] - 1e-12 <= w.sum() <= 1.0 + 1e-12

    def test_windows_past_the_point_budget_refused(self):
        # a drift of 350 shrinks the rounding bound below e^-175, so only the
        # window's length refuses a count of mean 3.5e9 at one point per count
        fam = compound_family([(1e-3, 1e7)], beta=1.0)
        with pytest.raises(LatticeError, match=r"more than 65536 points"):
            _lattice_law(fam, 1.0, math.exp(700.0), 0.0)


class TestSharedEvaluator:
    """kernel_eval and the composition check's matrix share one evaluator."""

    @pytest.mark.parametrize(
        "name, rtol", [("poisson_fam", 1e-13), ("compound_fam", 1e-13), ("gamma_fam", 1e-7)]
    )
    def test_matrix_rows_match_kernel_eval(self, request, name, rtol):
        fam = request.getfixturevalue(name)
        xs = np.linspace(-2.0, 2.0, 70)  # gamma: one full block and a partial one
        ys = np.linspace(-5.0, 5.0, 41)
        matrix = _density_matrix(fam, 1.0, 4.0, xs, ys)
        for i in (0, 33, 69):
            want = kernel_eval(fam, 1.0, 4.0, xs[i]).density(ys)
            assert np.allclose(matrix[i], want, rtol=rtol, atol=1e-15)

    def test_density_keeps_the_shape_of_y(self, gamma_fam, poisson_fam):
        y = np.linspace(-2.0, 2.0, 12)
        for fam in (gamma_fam, poisson_fam):
            ev = kernel_eval(fam, 0.5, 2.0, 0.3)
            assert np.array_equal(ev.density(y.reshape(3, 4)), ev.density(y).reshape(3, 4))
            assert ev.density(y[5]).shape == ()

    def test_gaussian_moments_closed_forms(self):
        mean, var = np.array([0.0, 1.5, -2.0]), np.array([1.0, 0.25, 3.0])
        m = gaussian_moments(mean, var, 4)
        want = [np.ones(3), mean, mean**2 + var, mean**3 + 3 * mean * var,
                mean**4 + 6 * mean**2 * var + 3 * var**2]
        assert len(m) == 5
        for got, ref in zip(m, want):
            assert np.allclose(got, ref, rtol=1e-14, atol=0)
        assert [float(v) for v in gaussian_moments(0.0, 1.0, 4)] == [1.0, 0.0, 1.0, 0.0, 3.0]
        assert len(gaussian_moments(0.3, 2.0, 0)) == 1


#: (family, s, t) of mixtures with 0, 1, 13, 38 and 386 Gaussian components
_MIXTURES = {
    0: (calibrate(poisson_family()), 1.0, 1.0 + 4.4e-16),
    1: (brownian_family(), 0.5, 2.0),
    13: (calibrate(poisson_family()), 1.0, 2.0),
    38: (calibrate(compound_family([(0.5, 1.0), (2.0, 0.25)])), 0.5, 1.0),
    386: (calibrate(compound_family(MANY_ATOMS)), 0.5, 2.0),
}

#: table sides, none a multiple of a block
_SIDES = st.sampled_from([1, 7, 70, 2049])


class TestComponentMajorEvaluator:
    """The blocked, component-major mixture against an explicit sum of
    ``scipy.stats.norm.pdf`` over its components."""

    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(k=st.sampled_from(sorted(_MIXTURES)), n_x=_SIDES, n_y=_SIDES,
           row=st.integers(0, 2048), tight=st.booleans())
    @example(k=386, n_x=2049, n_y=7, row=1000, tight=False)
    @example(k=13, n_x=2049, n_y=70, row=2047, tight=False)
    @example(k=1, n_x=2049, n_y=2049, row=5, tight=False)
    @example(k=386, n_x=7, n_y=70, row=3, tight=True)
    def test_matches_per_component_sum(self, k, n_x, n_y, row, tight):
        # tight: a cell budget below the component count (or of one cell),
        # so a block holds one row and one point
        assume(max(k, 1) * n_x * n_y <= 2e7 and (not tight or n_x * n_y <= 500))
        fam, s, t = _MIXTURES[k]
        xs = np.linspace(-1.5, 1.5, n_x)
        ys = np.linspace(-3.0, 3.0, n_y) * math.sqrt(t)
        cells = max(1, k // 2) if tight else kernel._MIXTURE_CELLS
        with mock.patch.object(kernel, "_MIXTURE_CELLS", cells):
            got = _density_matrix(fam, s, t, xs, ys)
        u, w, meta = _lattice_law(fam, s, t, 1.5)
        assert meta["components"] == k and got.shape == (n_x, n_y)
        rows = sorted({0, row % n_x, n_x - 1})
        want = np.zeros((len(rows), n_y))
        for uk, wk in zip(u[u > 0.0], w[u > 0.0]):
            loc = math.sqrt(t / s) * math.exp(-0.5 * uk) * xs[rows, None]
            want += wk * stats.norm.pdf(ys, loc=loc, scale=math.sqrt(-t * math.expm1(-uk)))
        assert np.abs(got[rows] - want).max() <= 1e-13 * want.max()

    def test_gamma_integrand_nodes_last(self, gamma_fam, monkeypatch):
        integrands = []

        def record(alpha, rate, g, **kwargs):
            integrands.append(g)
            return gamma_expectation(alpha, rate, g, **kwargs)

        monkeypatch.setattr(kernel, "gamma_expectation", record)
        s, t = 0.5, 2.0
        xs, ys = np.linspace(-2.0, 2.0, 70), np.linspace(-5.0, 5.0, 41)
        _density_matrix(gamma_fam, s, t, xs, ys)
        assert len(integrands) == 2  # one full block of 64 start values, one of 6
        nodes = 0.8 + 0.75 * np.array([-0.99, -0.5, 0.0, 0.3, 0.9])
        values = integrands[1](nodes)
        assert values.shape == (6, 41, nodes.size)
        for j, u in enumerate(nodes):
            want = _phi(math.sqrt(t / s) * math.exp(-0.5 * u) * xs[64:, None],
                        -t * math.expm1(-u), ys)
            assert np.abs(values[..., j] - want).max() <= 1e-13 * want.max()

    def test_ck_grid_memory(self, poisson_fam):
        # the 2,048 x 2,048 output is 32 MiB; the blocks add little to it
        y = np.linspace(-6.0 * math.sqrt(2.0), 6.0 * math.sqrt(2.0), 2048)
        _density_matrix(poisson_fam, 1.0, 2.0, y[:2], y)  # imports and caches first
        tracemalloc.start()
        try:
            _density_matrix(poisson_fam, 1.0, 2.0, y, y)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 36 * 2**20


class TestBrownianKernel:
    def test_single_gaussian_step(self, brownian_fam):
        s, t, x = 0.5, 2.0, 0.7
        ev = kernel_eval(brownian_fam, s, t, x)
        assert ev.atom_weight == 0.0
        y = np.linspace(-5, 5, 41)
        want = np.exp(-0.5 * (y - x) ** 2 / (t - s)) / math.sqrt(2 * math.pi * (t - s))
        assert np.allclose(ev.density(y), want, rtol=1e-12, atol=0)
        for k, m in enumerate((1.0, x, x * x + (t - s))):
            assert kernel_moment(brownian_fam, s, t, x, k) == pytest.approx(m, rel=1e-12)


@pytest.mark.usefixtures("time_limit")
class TestHugeStep:
    """s = 1e-200 to t = 1e60: the no-jump weight exp(-c ln sigma) underflows."""

    def test_density_finite_with_unit_mass(self, poisson_fam):
        s, t = 1e-200, 1e60
        ev = kernel_eval(poisson_fam, s, t, 0.0)
        y = np.linspace(-10.0, 10.0, 4001) * math.sqrt(t)
        dens = ev.density(y)
        assert np.all(np.isfinite(dens))
        assert ev.atom_weight + simpson(dens, x=y) == pytest.approx(1.0, abs=1e-8)

    @pytest.mark.parametrize(
        "atoms, s, t",
        [(None, 1e-150, 1e150), (MANY_ATOMS, 1.0, 1e20)],
        ids=["poisson-1e300", "eight-atoms-1e20"],
    )
    def test_rate_past_exp_underflow(self, poisson_fam, atoms, s, t):
        # lam = nu ln sigma is 877.8 and about 1,038: e^-lam underflows
        fam = poisson_fam if atoms is None else calibrate(compound_family(atoms))
        ev = kernel_eval(fam, s, t, 0.0)
        assert ev.quadrature["tail"] <= POISSON_TAIL and ev.quadrature["components"] > 100
        y = np.linspace(-10.0, 10.0, 4001) * math.sqrt(t)
        dens = ev.density(y)
        assert np.all(np.isfinite(dens))
        assert ev.atom_weight + simpson(dens, x=y) == pytest.approx(1.0, abs=1e-8)

    def test_moments_finite(self, poisson_fam):
        s, t = 1e-200, 1e60
        moments = [kernel_moment(poisson_fam, s, t, 0.0, k) for k in range(5)]
        assert all(math.isfinite(m) for m in moments)
        assert moments[0] == pytest.approx(1.0, abs=1e-12)
        assert moments[2] == pytest.approx(t, rel=1e-12)


class TestChapmanKolmogorov:
    def test_poisson_atom_residual_exact(self, poisson_fam):
        sup, atom = ck_residual(
            poisson_fam, 0.5, 1.0, 2.0, 1.0, GridSpec(n_nodes=256)
        )
        assert atom <= 1e-12

    @pytest.mark.parametrize("x", [0.0, 1.0, -1.0])
    def test_poisson_composition(self, poisson_fam, x):
        sup, atom = ck_residual(poisson_fam, 0.5, 1.0, 2.0, x)
        assert atom <= 1e-12
        assert sup < 1e-6

    def test_from_origin(self, poisson_fam):
        sup, atom = ck_residual(poisson_fam, 0.0, 1.0, 2.0, 0.0)
        assert atom == 0.0
        assert sup < 1e-6

    def test_compound_composition(self, compound_fam):
        sup, atom = ck_residual(compound_fam, 0.5, 1.0, 2.0, 1.0, GridSpec(n_nodes=256))
        assert atom <= 1e-12
        assert sup < 1e-6

    def test_gamma_composition(self, gamma_fam):
        # smooth-shape regime (a ln sigma > 1); below one the AC density has
        # an integrable singularity at sigma*x that defeats uniform Simpson
        sup, atom = ck_residual(gamma_fam, 1.0, 4.0, 16.0, 0.5, GridSpec(n_nodes=256))
        assert atom == 0.0
        assert sup < 1e-5

    def test_domain(self, poisson_fam):
        with pytest.raises(DomainError):
            ck_residual(poisson_fam, 1.0, 0.5, 2.0, 0.0)
        with pytest.raises(DomainError):
            ck_residual(poisson_fam, 0.0, 1.0, 2.0, 1.0)


class TestErrors:
    def test_time_order(self, poisson_fam):
        with pytest.raises(DomainError):
            kernel_eval(poisson_fam, 1.0, 1.0, 0.0)
        with pytest.raises(DomainError):
            kernel_moment(poisson_fam, 2.0, 1.0, 0.0, 2)

    @pytest.mark.parametrize(
        "s, t", [(math.nan, 1.0), (0.5, math.nan), (0.5, math.inf), (0.5, 1e308), (1e-320, 2.0)]
    )
    def test_non_finite_step_rejected(self, poisson_fam, s, t):
        # t/s overflowing to inf would reach the mixture as an infinite mean
        with pytest.raises(DomainError):
            kernel_eval(poisson_fam, s, t, 0.0)
        with pytest.raises(DomainError):
            kernel_moment(poisson_fam, s, t, 0.0, 2)

    def test_moment_order(self, poisson_fam):
        with pytest.raises(DomainError):
            kernel_moment(poisson_fam, 0.5, 1.0, 0.0, 5)
        with pytest.raises(DomainError):
            kernel_moment(poisson_fam, 0.5, 1.0, 0.0, -1)
