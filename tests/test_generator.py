import math

import numpy as np
import pytest
import sympy
from hypothesis import given, settings
from hypothesis import strategies as st

from gaussmart import (
    DomainError,
    FamilyError,
    Polynomial,
    apply_generator,
    calibrate,
    compound_family,
    delta,
    difference_quotient,
    gamma_family,
    gamma_limit_check,
    generator_check,
    kernel_moment_rate,
    poisson_family,
    psi,
    sqrt_taylor_measure,
)

X2 = Polynomial.monomial(2)
X3 = Polynomial.monomial(3)
X4 = Polynomial.monomial(4)
IDENTITY = Polynomial.monomial(1)


def generator_oracle(family, coeffs, s, x):
    """Independent symbolic route to A_s f(x) for drift-free families.

    The Gaussian bracket E[f(x + Z_w)] - f(x) is a polynomial in
    u = e^{-w/2} (mean x(u-1), variance s(1-u^2)) that vanishes at u = 1,
    so integrating u^j against the jump measure telescopes into Laplace
    exponents: integral = -sum_j beta_j psi(j/2).
    """
    u = sympy.Symbol("u")
    mean = x * u
    var = s * (1 - u**2)
    # symbolic Gaussian moments by the same two-term recursion
    moments = [sympy.Integer(1), mean]
    degree = len(coeffs) - 1
    for j in range(2, degree + 1):
        moments.append(sympy.expand(mean * moments[j - 1] + (j - 1) * var * moments[j - 2]))
    bracket = sympy.expand(
        sum(c * moments[j] for j, c in enumerate(coeffs)) - sum(
            c * x**j for j, c in enumerate(coeffs)
        )
    )
    poly = sympy.Poly(bracket, u)
    jump = 0.0
    for j, coeff in enumerate(reversed(poly.all_coeffs())):
        if coeff != 0:
            jump -= float(coeff) * psi(family, j / 2.0)
    fprime = sum(j * c * x ** (j - 1) for j, c in enumerate(coeffs) if j >= 1)
    return x / (2.0 * s) * fprime + jump / (2.0 * s)


class TestApplyGenerator:
    @pytest.mark.parametrize("kind", ["poisson", "gamma", "compound"])
    @pytest.mark.parametrize("s,x", [(0.5, 0.0), (1.0, 0.8), (2.0, -2.0)])
    def test_martingale_annihilation(
        self, kind, s, x, poisson_fam, gamma_fam, compound_fam
    ):
        fam = {"poisson": poisson_fam, "gamma": gamma_fam, "compound": compound_fam}[kind]
        assert abs(apply_generator(fam, IDENTITY, s, x)) < 1e-10

    @pytest.mark.parametrize("kind", ["poisson", "gamma", "compound"])
    @pytest.mark.parametrize("s,x", [(0.5, 0.8), (1.0, 0.0), (1.0, 0.8), (2.0, -2.0)])
    def test_martingale_problem_for_x2(
        self, kind, s, x, poisson_fam, gamma_fam, compound_fam
    ):
        fam = {"poisson": poisson_fam, "gamma": gamma_fam, "compound": compound_fam}[kind]
        d = delta(fam)
        target = d + (1.0 - d) * x * x / s
        assert apply_generator(fam, X2, s, x) == pytest.approx(target, abs=1e-8)

    @pytest.mark.parametrize("kind", ["poisson", "gamma", "compound"])
    @pytest.mark.parametrize("f", [X2, X3, X4])
    def test_against_symbolic_oracle(
        self, kind, f, poisson_fam, gamma_fam, compound_fam
    ):
        fam = {"poisson": poisson_fam, "gamma": gamma_fam, "compound": compound_fam}[kind]
        s, x = 0.7, 1.3
        want = generator_oracle(fam, f.coefficients, s, x)
        tol = 1e-10 if kind != "gamma" else 1e-7  # cubic+ small-jump remainder
        assert apply_generator(fam, f, s, x) == pytest.approx(want, abs=tol, rel=1e-9)

    def test_drift_family_unsupported(self):
        from gaussmart import calibrate, compound_family

        fam = calibrate(compound_family([(1.0, 1.0)], beta=0.2))
        with pytest.raises(FamilyError):
            apply_generator(fam, X2, 1.0, 0.0)

    def test_domain(self, poisson_fam):
        with pytest.raises(DomainError):
            apply_generator(poisson_fam, X2, 0.0, 0.0)

    def test_degree_cap(self):
        with pytest.raises(DomainError):
            Polynomial((0.0,) * 9 + (1.0,))


class TestDifferenceQuotient:
    def test_constant_is_zero(self, poisson_fam):
        assert difference_quotient(poisson_fam, Polynomial((3.0,)), 1.0, 0.5, 0.01) == 0.0

    def test_identity_martingale(self, poisson_fam, gamma_fam):
        for fam in (poisson_fam, gamma_fam):
            assert abs(difference_quotient(fam, IDENTITY, 1.0, 0.8, 0.01)) < 1e-8

    def test_x2_richardson(self, poisson_fam):
        q1 = difference_quotient(poisson_fam, X2, 1.0, 0.8, 0.02)
        q2 = difference_quotient(poisson_fam, X2, 1.0, 0.8, 0.01)
        d = delta(poisson_fam)
        assert 2.0 * q2 - q1 == pytest.approx(d + (1.0 - d) * 0.64, abs=1e-3)

    @pytest.mark.parametrize("f", [X2, X3, X4])
    @pytest.mark.parametrize("s,x", [(0.5, 0.8), (1.0, -0.8), (2.0, 2.0), (1.0, 0.0)])
    def test_generator_vs_semigroup_poisson(self, poisson_fam, f, s, x):
        chk = generator_check(poisson_fam, f, s, x)
        if abs(chk["closed_form"]) > 1e-9:
            assert chk["relative_error"] < 1e-10

    @pytest.mark.parametrize("f", [X2, X3, X4])
    @pytest.mark.parametrize("s,x", [(0.5, 0.8), (1.0, -0.8), (2.0, 2.0)])
    def test_generator_vs_semigroup_gamma(self, gamma_fam, f, s, x):
        chk = generator_check(gamma_fam, f, s, x)
        if abs(chk["closed_form"]) > 1e-9:
            assert chk["relative_error"] < 1e-6

    @pytest.mark.parametrize("k", range(5, 9))
    def test_degree_past_four(self, poisson_fam, k):
        # kernel_moment reaches degree 8, so the quotient does too: its
        # Richardson combination is within O(h^2) of the exact rate
        f = Polynomial.monomial(k)
        q1 = difference_quotient(poisson_fam, f, 1.0, 0.8, 0.002)
        q2 = difference_quotient(poisson_fam, f, 1.0, 0.8, 0.001)
        assert 2.0 * q2 - q1 == pytest.approx(kernel_moment_rate(poisson_fam, 1.0, 0.8, k),
                                              rel=1e-4)

    def test_step_domain(self, poisson_fam):
        with pytest.raises(DomainError):
            difference_quotient(poisson_fam, X2, 1.0, 0.0, 0.0)
        with pytest.raises(DomainError):
            difference_quotient(poisson_fam, X2, 1.0, 0.0, 2.0)


class TestCompensator:
    """The x^2 reference is delta + (1 - delta) x^2 / s, the integrand of
    the predictable quadratic variation."""

    def test_brownian(self, brownian_fam):
        assert kernel_moment_rate(brownian_fam, 3.0, 2.0, 2) == pytest.approx(1.0, rel=1e-15)

    def test_at_origin(self, poisson_fam):
        assert kernel_moment_rate(poisson_fam, 2.0, 0.0, 2) == pytest.approx(
            delta(poisson_fam), rel=1e-15
        )

    def test_poisson_value(self, poisson_fam):
        # delta + (1 - delta) * 4 / 2 with delta = (1 + e^{-1/2}) / 2
        assert kernel_moment_rate(poisson_fam, 2.0, 2.0, 2) == pytest.approx(
            1.1967346701436833, rel=1e-13
        )

    @pytest.mark.parametrize("kind", ["poisson", "gamma", "compound"])
    @pytest.mark.parametrize("s,x", [(0.5, 0.8), (1.0, 0.0), (2.0, -2.0), (1e-3, 0.05)])
    def test_delta_form(self, kind, s, x, poisson_fam, gamma_fam, compound_fam):
        fam = {"poisson": poisson_fam, "gamma": gamma_fam, "compound": compound_fam}[kind]
        d = delta(fam)
        assert kernel_moment_rate(fam, s, x, 2) == pytest.approx(d + (1.0 - d) * x * x / s,
                                                                 rel=1e-13)

    def test_domain(self, poisson_fam):
        for s in (0.0, -1.0, math.inf, math.nan):
            with pytest.raises(DomainError):
                kernel_moment_rate(poisson_fam, s, 1.0, 2)
        for k in (-1, 9):
            with pytest.raises(DomainError):
                kernel_moment_rate(poisson_fam, 1.0, 1.0, k)


#: finite-atom families, and gamma, whose closed-form generator carries the
#: O(eps^2) remainder of its small-jump reduction
_REFERENCE_FAMILIES = {
    "poisson": (calibrate(poisson_family()), 1e-10),
    "compound": (calibrate(compound_family([(0.5, 1.0), (2.0, 0.7)])), 1e-10),
    "eight-atoms": (calibrate(compound_family([(0.01 * i, 1.0) for i in range(1, 9)])), 1e-10),
    "gamma": (calibrate(gamma_family(b=1.0)), 1e-6),
}


class TestExactReference:
    """The t-derivative of the Hermite identity against the jump-measure
    generator, two independent routes to A_s y^k."""

    @pytest.mark.parametrize("kind", sorted(_REFERENCE_FAMILIES))
    @pytest.mark.parametrize("s,x", [(1.0, 0.8), (0.5, -1.3), (2.0, 2.0)])
    def test_degrees_two_to_eight(self, kind, s, x):
        fam, tol = _REFERENCE_FAMILIES[kind]
        for k in range(2, 9):
            f = Polynomial.monomial(k)
            want = apply_generator(fam, f, s, x)
            assert kernel_moment_rate(fam, s, x, k) == pytest.approx(want, rel=tol)
            assert generator_check(fam, f, s, x)["relative_error"] <= tol

    def test_martingale_and_constants(self, poisson_fam, gamma_fam):
        for fam in (poisson_fam, gamma_fam):
            assert kernel_moment_rate(fam, 1.3, 0.7, 0) == 0.0
            assert abs(kernel_moment_rate(fam, 1.3, 0.7, 1)) < 1e-15

    def test_mixed_polynomial(self, compound_fam):
        f = Polynomial((2.0, -1.0, 0.5, 0.0, 0.25))
        assert generator_check(compound_fam, f, 0.7, 1.1)["relative_error"] <= 1e-10


class TestSqrtTaylorMeasure:
    def test_first_weights_exact(self):
        m = sqrt_taylor_measure(10)
        assert m.weights[1] == 0.5
        assert m.weights[2] == 0.125

    def test_recurrence_matches_gamma_ratio(self):
        from scipy.special import gammaln

        m = sqrt_taylor_measure(50)
        n = np.arange(1, 51)
        direct = np.exp(gammaln(n - 0.5) - gammaln(n + 1)) / (2.0 * math.sqrt(math.pi))
        assert np.allclose(m.weights[1:], direct, rtol=1e-13)

    def test_laplace_identity(self):
        m = sqrt_taylor_measure(10_000)
        u = 0.3
        assert abs(m.laplace_sum(u) - m.exact_value(u)) < 1e-10

    @pytest.mark.parametrize("n", [100, 1000, 10_000])
    def test_tail_bound(self, n):
        m = sqrt_taylor_measure(n)
        tail = 1.0 - m.partial_sum()
        assert 0.0 < tail < 1.2 / math.sqrt(math.pi * n)

    def test_weights_positive_and_summable(self):
        m = sqrt_taylor_measure(500)
        assert np.all(m.weights[1:] > 0.0)
        assert m.partial_sum() < 1.0

    def test_domain(self):
        with pytest.raises(DomainError):
            sqrt_taylor_measure(0)


class TestGammaLimit:
    def test_frullani_ln2(self):
        lhs, rhs = gamma_limit_check(1.0, "one_minus_exp", 1e-3)
        assert rhs == pytest.approx(math.log(2.0), rel=1e-10)
        assert abs(lhs - rhs) < 0.01 * rhs

    def test_frullani_ln_3_2(self):
        lhs, rhs = gamma_limit_check(2.0, "one_minus_exp", 1e-3)
        assert rhs == pytest.approx(math.log(1.5), rel=1e-10)
        assert abs(lhs - rhs) < 0.01 * rhs

    @pytest.mark.parametrize("g_id", ["one_minus_exp", "v_over_1pv"])
    def test_error_shrinks_with_p(self, g_id):
        _, rhs = gamma_limit_check(1.0, g_id, 1e-2)
        errs = [
            abs(gamma_limit_check(1.0, g_id, p)[0] - rhs)
            for p in (1e-2, 5e-3, 2.5e-3)
        ]
        assert errs[1] < errs[0] and errs[2] < errs[1]

    def test_unknown_tag(self):
        with pytest.raises(DomainError):
            gamma_limit_check(1.0, "cube", 1e-3)

    def test_domain(self):
        with pytest.raises(DomainError):
            gamma_limit_check(-1.0, "one_minus_exp", 1e-3)


class TestPolynomial:
    @settings(max_examples=40, deadline=None)
    @given(
        coeffs=st.lists(st.floats(-3, 3), min_size=1, max_size=6),
        mean=st.floats(-2, 2),
        var=st.floats(0.01, 4.0),
    )
    def test_gaussian_expectation_matches_hermite_quadrature(self, coeffs, mean, var):
        poly = Polynomial(tuple(coeffs))
        nodes, weights = np.polynomial.hermite_e.hermegauss(24)
        quad = weights @ poly(mean + math.sqrt(var) * nodes) / math.sqrt(2 * math.pi)
        assert float(poly.gaussian_expectation(mean, var)) == pytest.approx(
            quad, rel=1e-9, abs=1e-9
        )

    def test_derivative(self):
        p = Polynomial((1.0, 2.0, 3.0))
        assert p.derivative().coefficients == (2.0, 6.0)
        assert Polynomial((5.0,)).derivative().coefficients == (0.0,)

    def test_callable(self):
        p = Polynomial((1.0, 0.0, 2.0))
        assert p(2.0) == 9.0
