"""Time-inhomogeneous infinitesimal generator on polynomials, its check
against the exact t-derivative of the kernel moments, and two auxiliary
numeric lemmas.

For a drift-free family the generator at (s, x) acts on a polynomial f as

    A_s f(x) = x/(2s) f'(x)
             + 1/(2s) * integral over jump sizes w of
               ( E[f(x + Z_w)] - f(x) )  nu(dw),

with Z_w Gaussian of mean ``(e^{-w/2} - 1) x`` and variance
``s (1 - e^{-w})``.  Finite-atom families evaluate the jump measure as an
exact finite sum; the gamma kind integrates the bracket against
``a w^{-1} e^{-b w} dw`` over (0, 50/b] with one adaptive panel quadrature.
Its infinite activity near 0 needs no special treatment: the bracket is a
polynomial in the jump's mean and variance, both O(w), so the integrand is
analytic at w = 0.
Gaussian expectations of polynomials always use the two-term moment
recursion :func:`gaussmart.kernel.gaussian_moments`, never sampling.
:func:`generator_check` compares the result with the independent route of
:func:`gaussmart.kernel.kernel_moment_rate`, the Hermite identity
differentiated at t = s.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, FamilyError
from .kernel import MAX_DEGREE, gaussian_moments, kernel_moment, kernel_moment_rate
from .quadrature import adaptive_panels, gamma_expectation
from .semigroup import GAMMA, SubordinatorFamily, require_calibrated


@dataclass(frozen=True)
class Polynomial:
    """Real polynomial, ascending coefficients, degree capped at 8."""

    coefficients: tuple[float, ...]

    def __post_init__(self):
        coeffs = tuple(float(c) for c in self.coefficients)
        if not coeffs:
            coeffs = (0.0,)
        if len(coeffs) > MAX_DEGREE + 1:
            raise DomainError(f"polynomial degree is capped at {MAX_DEGREE}")
        if not all(math.isfinite(c) for c in coeffs):
            raise DomainError("polynomial coefficients must be finite")
        object.__setattr__(self, "coefficients", coeffs)

    @classmethod
    def monomial(cls, k: int) -> "Polynomial":
        return cls((0.0,) * k + (1.0,))

    @property
    def degree(self) -> int:
        return len(self.coefficients) - 1

    def __call__(self, x):
        result = 0.0
        for c in reversed(self.coefficients):
            result = result * np.asarray(x, dtype=float) + c
        return result

    def derivative(self) -> "Polynomial":
        if self.degree == 0:
            return Polynomial((0.0,))
        return Polynomial(
            tuple(j * c for j, c in enumerate(self.coefficients) if j > 0)
        )

    def gaussian_expectation(self, mean, var):
        """E[f(Y)] for Y ~ N(mean, var); mean/var may be arrays."""
        moments = gaussian_moments(mean, var, self.degree)
        total = self.coefficients[0] * moments[0]
        for j in range(1, self.degree + 1):
            total = total + self.coefficients[j] * moments[j]
        return total


def _jump_mean_var(omega, x: float, s: float):
    """Mean and variance of the jump size triggered by subordinator jump omega."""
    omega = np.asarray(omega, dtype=float)
    mean = (np.exp(-0.5 * omega) - 1.0) * x
    var = s * -np.expm1(-omega)
    return mean, var


def apply_generator(
    family: SubordinatorFamily, f: Polynomial, s: float, x: float
) -> float:
    """Generator value A_s f(x) for a calibrated drift-free family."""
    if s <= 0:
        raise DomainError("s must be > 0")
    require_calibrated(family)
    if family.beta > 0:
        raise FamilyError("generator is only available for drift-free families")
    drift = x / (2.0 * s) * float(f.derivative()(x))
    fx = float(f(x))

    def bracket(omega):
        mean, var = _jump_mean_var(omega, x, s)
        return f.gaussian_expectation(x + mean, var) - fx

    if family.kind == GAMMA:
        a, b = family.a, family.b
        jump_total, _ = adaptive_panels(
            lambda omega: bracket(omega) * a * np.exp(-b * omega) / omega,
            0.0,
            50.0 / b,
            rel_tol=1e-11,
            abs_tol=1e-13,
        )
    else:
        jump_total = 0.0
        for omega, weight in family.atoms:
            jump_total += weight * float(bracket(omega))
    return drift + float(jump_total) / (2.0 * s)


def difference_quotient(  # traced by perfbench; ROADMAP 6
    family: SubordinatorFamily, f: Polynomial, s: float, x: float, h: float
) -> float:
    """(E[f(X_{s+h}) | X_s = x] - f(x)) / h from the closed-form kernel moments."""
    if s <= 0:
        raise DomainError("s must be > 0")
    if not 0 < h <= s:
        raise DomainError("need 0 < h <= s")
    # the k = 0 term cancels identically (total mass is 1 for any law), so
    # sum the per-order gaps; constants then give exactly 0
    gap = sum(
        c * (kernel_moment(family, s, s + h, x, k) - x**k)
        for k, c in enumerate(f.coefficients)
        if c != 0.0 and k > 0
    )
    return gap / h


def generator_check(family: SubordinatorFamily, f: Polynomial, s: float, x: float) -> dict:
    """Closed-form generator vs the exact t-derivative of the kernel moments."""
    # the reference is Python floats: an overflow raises before any numpy work
    reference = float(sum(c * kernel_moment_rate(family, s, x, k)
                          for k, c in enumerate(f.coefficients) if c != 0.0))
    closed = apply_generator(family, f, s, x)
    scale = max(abs(closed), 1e-12)
    return {
        "closed_form": closed,
        "reference": reference,
        "relative_error": abs(reference - closed) / scale,
    }


@dataclass(frozen=True)
class SqrtTaylorMeasure:
    """Probability weights of the square-root Taylor measure.

    weights[n] (n >= 1) is the coefficient of e^{-n u} in the expansion of
    ``1 - sqrt(1 - e^{-u})``; entry 0 is an unused sentinel so indexing
    matches the mathematical n.
    """

    n_max: int
    weights: np.ndarray

    def partial_sum(self) -> float:
        return float(self.weights.sum())

    def laplace_sum(self, u: float) -> float:
        n = np.arange(1, self.n_max + 1)
        return float(self.weights[1:] @ np.exp(-n * u))

    @staticmethod
    def exact_value(u: float) -> float:
        """The function the weights expand: 1 - sqrt(1 - e^{-u})."""
        return 1.0 - math.sqrt(-math.expm1(-u))


def sqrt_taylor_measure(n_max: int) -> SqrtTaylorMeasure:
    """Weights w_n = Gamma(n - 1/2) / (2 sqrt(pi) n!) by stable recurrence."""
    if n_max < 1:
        raise DomainError("n_max must be >= 1")
    w = np.zeros(n_max + 1)
    w[1] = 0.5
    for n in range(1, n_max):
        w[n + 1] = w[n] * (n - 0.5) / (n + 1)
    return SqrtTaylorMeasure(n_max=n_max, weights=w)


_LIMIT_TEST_FUNCTIONS = {
    # tag -> (g, g(v)/v in a form stable near v = 0)
    "one_minus_exp": (
        lambda v: -np.expm1(-v),
        lambda v: -np.expm1(-v) / v,
    ),
    "v_over_1pv": (
        lambda v: v / (1.0 + v),
        lambda v: 1.0 / (1.0 + v),
    ),
}


def gamma_limit_check(b: float, g_id: str, p: float):
    """Small-shape limit of gamma expectations against its integral form.

    Returns ``(lhs, rhs)`` with lhs = E[g(V_p)] / p for V_p ~ Gamma(p, b)
    and rhs = integral of g(v)/v * e^{-bv} dv; lhs converges to rhs as the
    shape p goes to 0.
    """
    if b <= 0 or p <= 0:
        raise DomainError("need b > 0 and p > 0")
    if g_id not in _LIMIT_TEST_FUNCTIONS:
        raise DomainError(
            f"unknown test-function tag {g_id!r}; "
            f"choose from {sorted(_LIMIT_TEST_FUNCTIONS)}"
        )
    g, g_over_v = _LIMIT_TEST_FUNCTIONS[g_id]
    val, _ = gamma_expectation(p, b, g, rel_tol=1e-10, abs_tol=1e-14)
    lhs = float(val) / p

    def integrand(v):
        return g_over_v(v) * np.exp(-b * v)

    rhs_val, _ = adaptive_panels(integrand, 0.0, 50.0 / b, rel_tol=1e-12, abs_tol=1e-15)
    return lhs, float(rhs_val)
