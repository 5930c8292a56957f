"""Transition-law evaluation: atom plus absolutely continuous density.

For a step from (s, x) to t > s with scale ``sigma = sqrt(t/s)``, the
transition law is a mixture over the mixing variable R = exp(-U) in [0, 1]::

    P(dy) = gamma(sigma) * delta_{sigma x}(dy)
            + E[ phi(sigma sqrt(R) x, t (1 - R), y); R < 1 ] dy,

and the step from s = 0 is exactly Gaussian.

- *moments*: given R the law is Gaussian, so every moment of order k <= 4
  is a finite combination of ``E[R^lam] = sigma^-psi(lam)`` and the
  Gaussian moments of :func:`gaussian_moments` (the one two-term recursion,
  also behind ``Polynomial.gaussian_expectation``); one closed form serves
  every family;
- *finite-atom densities*: ``U = beta ln sigma + sum_i x_i N_i`` with
  independent ``N_i ~ Poisson(w_i ln sigma)``, so the law is an exact
  Gaussian mixture over count vectors.  Components are enumerated
  heaviest-first from the mode with log-space weights until the dropped
  mass is at most 1e-12; a family that would need more than ``_MC_DRAWS``
  components falls back to Monte Carlo over mixing draws;
- *gamma densities*: the mixing density is integrated by adaptive
  Gauss-Kronrod panels; shapes below one are handled by the exact
  ``w = u**shape`` substitution (see
  :func:`gaussmart.quadrature.gamma_expectation`).

One evaluator per step (``_ac_law``) serves a whole table of start values
and evaluation points: :func:`kernel_eval` reads its single row and the
Chapman-Kolmogorov check its matrix.  Densities returned everywhere are the
absolutely continuous part only; the atom (weight, location) is reported
separately.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass
from typing import Callable

import numpy as np
from scipy.integrate import simpson

from .errors import DomainError
from .quadrature import gamma_expectation
from .sampler import sample_subordinator_increment, verify_bundle
from .semigroup import (
    GAMMA,
    SubordinatorFamily,
    gamma_atom,
    laplace,
    require_calibrated,
)

#: mixture components are kept until the dropped mass is at most this
POISSON_TAIL = 1e-12

#: Monte Carlo mixing draws, and the most mixture components built exactly
_MC_DRAWS = 20000

#: start values per gamma quadrature; each block shares one subdivision
_GAMMA_BLOCK = 64

#: (start value, point, component) cells per block of a finite mixture
_MIXTURE_CELLS = 1 << 20


@dataclass(frozen=True)
class GridSpec:
    """Evaluation grid for kernel composition checks."""

    n_nodes: int = 2048  # on [-6 sqrt(u), 6 sqrt(u)] for final time u


@dataclass(frozen=True)
class KernelEval:
    """One evaluated transition law: atom plus a density evaluator."""

    atom_weight: float
    atom_location: float  # nan when the step starts at time 0
    density: Callable[[np.ndarray], np.ndarray]
    quadrature: dict


def _phi(mean, var, y):
    """Gaussian density, broadcasting over all arguments."""
    return np.exp(-0.5 * (y - mean) ** 2 / var) / np.sqrt(2.0 * math.pi * var)


def gaussian_moments(mean, var, k: int) -> list:
    """``[E[Y^0], ..., E[Y^k]]`` for Y ~ N(mean, var), broadcasting mean and
    var, by the two-term recursion ``m_j = mean m_{j-1} + (j-1) var m_{j-2}``."""
    mean = np.asarray(mean, dtype=float)
    var = np.asarray(var, dtype=float)
    ones = np.ones(np.broadcast_shapes(mean.shape, var.shape))
    moments = [ones, mean * ones]
    for j in range(2, k + 1):
        moments.append(mean * moments[j - 1] + (j - 1) * var * moments[j - 2])
    return moments[:k + 1]


#: E[Z^j] for a standard normal Z, j = 0..4
_STANDARD_MOMENTS = tuple(float(m) for m in gaussian_moments(0.0, 1.0, 4))


def _check_step(s: float, t: float) -> None:
    if not 0 <= s < t < math.inf:
        raise DomainError(f"need 0 <= s < t < inf, got s = {s}, t = {t}")
    if s > 0 and math.isinf(t / s):
        raise DomainError(f"the scale t/s = {t}/{s} overflows")


def _count_mixture(family: SubordinatorFamily, log_sigma: float, budget: int):
    """Count vectors of the atoms' Poisson counts, heaviest first.

    Returns ``(weights, jump_sums, dropped_mass)`` once the kept weights
    reach ``1 - POISSON_TAIL``, or None as soon as more than ``budget``
    components would be needed.  The counts are independent Poisson, so
    the joint weight is log-concave and a best-first walk from the mode
    visits count vectors in decreasing weight.
    """
    locs = [x for x, _ in family.atoms]
    means = [w * log_sigma for _, w in family.atoms]

    def log_pmf(i: int, n: int) -> float:
        return (n * math.log(means[i]) if n else 0.0) - means[i] - math.lgamma(n + 1.0)

    start = tuple(int(m) for m in means)
    heap = [(-sum(log_pmf(i, n) for i, n in enumerate(start)), start)]
    seen = {start}
    weights, jump_sums = [], []
    mass = 0.0
    while heap and 1.0 - mass > POISSON_TAIL:
        if len(weights) == budget:
            return None
        neg_logw, counts = heapq.heappop(heap)
        weight = math.exp(-neg_logw)
        weights.append(weight)
        jump_sums.append(sum(x * n for x, n in zip(locs, counts)))
        mass += weight
        for i, n in enumerate(counts):
            for m in (n - 1, n + 1):
                if m < 0 or means[i] == 0.0:
                    continue
                nxt = counts[:i] + (m,) + counts[i + 1:]
                if nxt not in seen:
                    seen.add(nxt)
                    logw = -neg_logw - log_pmf(i, n) + log_pmf(i, m)
                    heapq.heappush(heap, (-logw, nxt))
    return np.array(weights), np.array(jump_sums), max(1.0 - mass, 0.0)


def _ac_law(family: SubordinatorFamily, s: float, t: float):
    """The absolutely continuous part of the step s -> t, s > 0.

    Returns ``(meta, density)``: ``density(xs, ys)[i, j]`` is the AC
    density of the step (s, xs[i]) -> t at ys[j].  Given the mixing
    increment u > 0 the step is Gaussian with mean ``sigma e^{-u/2} x`` and
    variance ``t (1 - e^{-u})``.  Finite atoms sum one Gaussian per kept
    component (the ``u = 0`` component is the atom and is left out); past
    ``_MC_DRAWS`` exact components, the components are ``_MC_DRAWS``
    equally weighted mixing draws instead.  Gamma integrates the mixing
    density, one subdivision per block of start values.
    """
    require_calibrated(family)
    sigma = math.sqrt(t / s)
    log_sigma = math.log(sigma)
    if family.kind == GAMMA:
        alpha = family.a * log_sigma
        abs_tol = 1e-13 / math.sqrt(t)
        meta = {"method": "gamma-quadrature", "shape": alpha, "rel_tol": 1e-8,
                "abs_tol": abs_tol}

        def density(xs, ys):
            out = np.empty((xs.size, ys.size))
            for lo in range(0, xs.size, _GAMMA_BLOCK):
                block = xs[lo:lo + _GAMMA_BLOCK, None, None]

                def g(u, block=block):
                    return _phi(sigma * np.exp(-0.5 * u) * block, t * -np.expm1(-u), ys[:, None])

                out[lo:lo + _GAMMA_BLOCK], _ = gamma_expectation(
                    alpha, family.b, g, rel_tol=1e-8, abs_tol=abs_tol
                )
            return out

        return meta, density

    exact = _count_mixture(family, log_sigma, _MC_DRAWS)
    if exact is None:
        u = sample_subordinator_increment(family, sigma, verify_bundle(0, _MC_DRAWS))
        w = np.full(u.shape, 1.0 / _MC_DRAWS)
        meta = {"method": "monte-carlo", "draws": _MC_DRAWS, "seed": 0}
    else:
        w, jump_sums, tail = exact
        u = family.beta * log_sigma + jump_sums
        meta = {"method": "finite-atom-mixture", "components": int(np.sum(u > 0.0)),
                "tail": tail}
    w, u = w[u > 0.0], u[u > 0.0]
    scale = sigma * np.exp(-0.5 * u)
    var = t * -np.expm1(-u)

    def density(xs, ys):
        out = np.empty((xs.size, ys.size))
        rows = max(1, _MIXTURE_CELLS // max(1, ys.size * w.size))
        for lo in range(0, xs.size, rows):
            out[lo:lo + rows] = _phi(scale * xs[lo:lo + rows, None, None], var, ys[:, None]) @ w
        return out

    return meta, density


def kernel_eval(family: SubordinatorFamily, s: float, t: float, x: float) -> KernelEval:
    """Build the transition law of the step (s, x) -> t as a KernelEval."""
    _check_step(s, t)
    if s == 0.0:
        def density(y):
            return _phi(x, t, np.asarray(y, dtype=float))

        return KernelEval(0.0, math.nan, density, {"method": "exact-gaussian"})

    meta, law = _ac_law(family, s, t)

    def density(y):
        y = np.asarray(y, dtype=float)
        return law(np.array([float(x)]), y.reshape(-1))[0].reshape(y.shape)

    sigma = math.sqrt(t / s)
    return KernelEval(gamma_atom(family, sigma), sigma * x, density, meta)


def kernel_moment(family: SubordinatorFamily, s: float, t: float, x: float, k: int) -> float:
    """k-th moment of the full transition law (atom included), k in 0..4.

    Given R the step lands at ``N(loc sqrt(R), t (1 - R))`` with ``loc =
    sigma x``, so with Z standard normal::

        E[Y^k] = sum over even j of C(k, j) E[Z^j] loc^(k-j) t^(j/2)
                 * E[R^((k-j)/2) (1 - R)^(j/2)],

    and each mixed moment expands binomially into ``E[R^lam] =
    laplace(family, sigma, lam)``.  From s = 0 the law is N(x, t): the same
    sum with ``loc = x`` and both mixing factors equal to one.
    """
    if not isinstance(k, (int, np.integer)) or not 0 <= k <= 4:
        raise DomainError("moment order k must be an integer in 0..4")
    _check_step(s, t)
    if s == 0.0:
        loc = x

        def mixed(lam: float, n: int) -> float:
            return 1.0
    else:
        require_calibrated(family)
        sigma = math.sqrt(t / s)
        loc = sigma * x

        def mixed(lam: float, n: int) -> float:
            # E[R^lam (1 - R)^n]
            return sum(
                math.comb(n, i) * (-1) ** i * laplace(family, sigma, lam + i)
                for i in range(n + 1)
            )

    return float(sum(
        math.comb(k, j) * _STANDARD_MOMENTS[j] * loc ** (k - j) * t ** (j // 2)
        * mixed(0.5 * (k - j), j // 2)
        for j in range(0, k + 1, 2)
    ))


def _density_matrix(family, s: float, t: float, ygrid, zgrid):
    """Matrix D[i, j] = AC density of the step (s, y_i) -> t evaluated at z_j."""
    return _ac_law(family, s, t)[1](ygrid, zgrid)


def ck_residual(
    family: SubordinatorFamily,
    s: float,
    t: float,
    u: float,
    x: float,
    grid: GridSpec = GridSpec(),
):
    """Numerically compose P_{s,t} with P_{t,u} and compare against P_{s,u}.

    Returns ``(sup_residual, atom_residual)``: the sup-norm difference of
    the composed and direct absolutely continuous densities on the grid,
    and the mismatch of the composed atom weight.  The composition handles
    all four cross terms: atom*atom stays an atom, atom*density and
    density*atom rescale, density*density is integrated by Simpson's rule
    on the shared y grid.
    """
    if not 0.0 <= s < t < u:
        raise DomainError("need 0 <= s < t < u")
    if s == 0.0 and x != 0.0:
        raise DomainError("the s = 0 composition starts from x = 0")
    ygrid = np.linspace(-6.0 * math.sqrt(u), 6.0 * math.sqrt(u), grid.n_nodes)
    zgrid = ygrid.copy()
    tau = math.sqrt(u / t)

    first = kernel_eval(family, s, t, x)
    f1 = first.density(ygrid)
    f2 = _density_matrix(family, t, u, ygrid, zgrid)
    direct = kernel_eval(family, s, u, x).density(zgrid)

    composed = simpson(f1[:, None] * f2, x=ygrid, axis=0)
    if s > 0.0:
        g_sigma = gamma_atom(family, math.sqrt(t / s))
        g_both = gamma_atom(family, math.sqrt(u / s))
    else:  # from time 0 the first step is Gaussian: no atom
        g_sigma = g_both = 0.0
    g_tau = gamma_atom(family, tau)
    if g_sigma > 0.0:
        composed = composed + g_sigma * kernel_eval(
            family, t, u, first.atom_location
        ).density(zgrid)
    if g_tau > 0.0:
        composed = composed + g_tau * first.density(zgrid / tau) / tau
    atom_residual = abs(g_sigma * g_tau - g_both)

    sup_residual = float(np.max(np.abs(composed - direct)))
    return sup_residual, atom_residual
