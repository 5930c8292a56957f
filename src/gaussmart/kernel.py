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
  independent ``N_i ~ Poisson(w_i ln sigma)`` is compound Poisson, so the
  law is an exact Gaussian mixture over the values of U.  On the atoms'
  common lattice ``x_i = h j_i`` Panjer's recursion gives those weights,
  coincident sums merged, and the lightest points are dropped while the
  mass left out is at most 1e-12.  Atoms with no lattice within
  ``_LATTICE_POINTS`` points are rounded to one, with a bound on the
  density error they cause; past ``ROUNDING_LIMIT`` the law is refused
  (``LatticeError``).  No random numbers are drawn;
- *gamma densities*: the mixing density is integrated by adaptive
  Gauss-Kronrod panels; shapes below one are handled by the exact
  ``w = u**shape`` substitution (see
  :func:`gaussmart.quadrature.gamma_expectation`).

One evaluator per step (``_ac_law``) serves a whole table of start values
and evaluation points: :func:`kernel_eval` reads its single row and the
Chapman-Kolmogorov check its matrix.  Both kinds build their Gaussians as
(component, start value, point) blocks (:func:`_gaussians`), points last,
the exponent formed in place and ``1 / sqrt(2 pi var)`` folded into the
weights; finite mixtures go in cache-sized blocks of ``_MIXTURE_CELLS``.
Densities returned everywhere are the absolutely continuous part only; the
atom (weight, location) is reported separately.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np
from scipy import stats
from scipy.integrate import simpson

from .errors import DomainError, LatticeError
from .quadrature import gamma_expectation
from .sampler import sample_subordinator_increment  # noqa: F401 (traced by perfbench; ROADMAP 6)
from .semigroup import (
    GAMMA,
    SubordinatorFamily,
    gamma_atom,
    laplace,
    require_calibrated,
)

#: mixture components are kept until the dropped mass is at most this
POISSON_TAIL = 1e-12

#: inert: perfbench records it in its provenance (ROADMAP item 6)
_MC_DRAWS = 20000

#: lattice points the law of U may span before the atoms are rounded
_LATTICE_POINTS = 1 << 16

#: the largest density error, times sqrt(t), that rounding atoms may cause
ROUNDING_LIMIT = 1e-8

#: the lattice recursion runs until at most this mass is left beyond it
_UNSEEN = 1e-3 * POISSON_TAIL

#: start values per gamma quadrature; each block shares one subdivision
_GAMMA_BLOCK = 64

#: (component, start value, point) cells per block of a finite mixture;
#: 1 << 15 to 1 << 18 timed within 25% of each other on a poisson 2048 x
#: 2048 matrix (2-vCPU Xeon VM, 2 MiB L2 per core)
_MIXTURE_CELLS = 1 << 16


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


def _gaussians(scale, var, xs, ys):
    """``block[k, i, j] = exp(-(ys[j] - scale[k] xs[i])**2 / (2 var[k]))``,
    built by one allocation and worked in place; the caller folds ``1 /
    sqrt(2 pi var[k])`` into its weights."""
    block = ys - (scale[:, None] * xs)[:, :, None]
    np.square(block, out=block)
    block *= (-0.5 / var)[:, None, None]
    return np.exp(block, out=block)


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


def _lattice(locs, weights, count_bound: float):
    """``(h, j, offsets)`` with atom i at ``h j_i + offsets_i``, ``j_i >= 1``:
    the coarsest ``h = x_min / k`` that holds every atom to a relative 1e-12
    (offsets then zero), else the one with the least ``sum_i w_i
    |offset_i|``, no finer than keeps ``count_bound`` jumps of the largest
    atom within ``_LATTICE_POINTS`` points."""
    h_floor = locs.max() * count_bound / _LATTICE_POINTS
    k = np.arange(1, int(locs.min() / h_floor) + 1)
    h = locs.min() / k if k.size else np.array([h_floor])
    steps = np.maximum(np.rint(locs[:, None] / h), 1.0)
    offsets = locs[:, None] - h * steps
    exact = np.all(np.abs(offsets) <= 1e-12 * locs[:, None], axis=0)
    best = int(np.argmax(exact)) if exact.any() else int(np.argmin(weights @ np.abs(offsets)))
    return h[best], steps[:, best].astype(np.int64), offsets[:, best] * (not exact[best])


def _panjer(lam: float, p, j, n_max: int):
    """``(g, unseen)``: ``g[n] = P(sum_i j_i N_i = n)`` for independent
    ``N_i ~ Poisson(lam p_i)``, until at most ``unseen <= _UNSEEN`` of the
    mass is left beyond (or past ``n_max``).

    Panjer's recursion ``g_n = (lam / n) sum_i j_i p_i g_{n - j_i}`` (Panjer
    1981, ASTIN Bulletin 12) advances ``min j`` points at a time, since a
    new point reads only points at least that far back.  It runs from 1 in
    place of ``g_0 = e^-lam`` and renormalises on the way, so no weight
    underflows even for lam > 745.  A chunk adds at most ``min(j) lam <=
    n_max`` (about ``_LATTICE_POINTS``) times the largest earlier value, so
    renormalising past 1e300 cannot overflow.
    """
    step, pad = int(j.min()), int(j.max())
    coef, rate = p * j, lam / np.arange(1, n_max + step + 1)
    g = np.zeros(pad + n_max + step + 1)  # the first pad entries are n < 0
    g[pad] = 1.0
    reach = (pad - j)[:, None] + np.arange(step)  # g_{n + r - j_i} at reach + n
    log_scale, total, n = -lam, 1.0, 1  # g = e^log_scale times the stored values
    while n <= n_max and math.log(total) + log_scale < math.log1p(-_UNSEEN):
        g[pad + n:pad + n + step] = coef @ g[reach + n] * rate[n - 1:n - 1 + step]
        total += g[pad + n:pad + n + step].sum()
        if total > 1e300:
            log_scale += math.log(total)
            g, total = g / total, 1.0
        n += step
    mass = math.exp(math.log(total) + log_scale)
    return g[pad:pad + n] * (mass / total), max(1.0 - mass, 0.0)


def _lattice_law(family: SubordinatorFamily, s: float, t: float, x_abs: float):
    """``(u, w, meta)``: the kept values of the finite-atom mixing increment
    of the step s -> t, s > 0 (the atom's u = 0 among them when beta = 0),
    their weights, and the record of the law.

    ``U = beta ln sigma + sum_i x_i N_i`` with ``N_i ~ Poisson(w_i ln
    sigma)`` is compound Poisson with rate ``lam = nu ln sigma``; on the
    atoms' lattice ``x_i = h j_i`` :func:`_panjer` gives its law, and the
    lightest points (empty ones first) are dropped while at most
    ``POISSON_TAIL`` is left out.  Rounding atom i by ``offset_i`` moves U
    by at most ``sum_i |offset_i| N_i``; for |x| <= ``x_abs`` the density,
    in units of ``1/sqrt(t)`` (its scale), moves by at most ``K(u) =
    phi(1) x_abs e^{-u/2} / (2 sqrt(s) r) + phi(0) e^{-u} / (2 r^1.5)`` per
    unit of u, ``r = 1 - e^{-u}``, which decreases in u.  So the rounding
    bound ``K(u_min) ln sigma sum_i w_i |offset_i|`` is a sup-norm density
    error times ``sqrt(t)``, and a law past ``ROUNDING_LIMIT`` is refused.
    """
    log_sigma = 0.5 * math.log(t / s)
    drift = family.beta * log_sigma
    u, w = np.array([drift]), np.ones(1)  # pure drift: one increment
    meta = {"method": "finite-atom-mixture", "lattice": "exact", "h": 0.0, "tail": 0.0,
            "rounding_bound": 0.0}
    if family.atoms:
        locs, weights = np.array(family.atoms).T
        lam = float(weights.sum()) * log_sigma
        count_bound = max(float(stats.poisson.isf(_UNSEEN, lam)), 1.0)
        h, j, offsets = _lattice(locs, weights, count_bound)
        if offsets.any():
            u_min = drift + min(locs.min(), h * j.min())
            r = -math.expm1(-u_min)  # divided in turn, so nothing overflows
            slope = (math.exp(-0.5 - 0.5 * u_min) * x_abs / (2 * math.sqrt(s)) / r
                     + math.exp(-u_min) / 2 / r / math.sqrt(r)) / math.sqrt(2 * math.pi)
            bound = slope * log_sigma * float(weights @ np.abs(offsets))
            if not bound <= ROUNDING_LIMIT:
                raise LatticeError(
                    f"the law of the atoms {family.atoms} at t/s = {t / s:.6g} fits on no "
                    f"lattice of at most {_LATTICE_POINTS} points; rounding them to h = "
                    f"{h:.6g} bounds the density error by {bound:.3g} > {ROUNDING_LIMIT:g}"
                )
            meta.update(lattice="rounded", rounding_bound=bound)
        g, unseen = _panjer(lam, weights / weights.sum(), j, int(j.max() * count_bound))
        order = np.argsort(g, kind="stable")
        dropped = order[np.cumsum(g[order]) <= POISSON_TAIL - unseen]
        keep = g > 0.0
        keep[dropped] = False
        u, w = drift + h * np.flatnonzero(keep), g[keep]
        meta.update(h=float(h), tail=unseen + float(g[dropped].sum()))
    meta["components"] = int(np.count_nonzero(u > 0.0))
    return u, w, meta


def _ac_law(family: SubordinatorFamily, s: float, t: float, x_abs: float):
    """The absolutely continuous part of the step s -> t, s > 0.

    Returns ``(meta, density)``: ``density(xs, ys)[i, j]`` is the AC
    density of the step (s, xs[i]) -> t at ys[j], for start values |xs[i]|
    <= ``x_abs`` (the bound of a rounded lattice holds up to it).  Given
    the mixing increment u > 0 the step is Gaussian with mean ``sigma
    e^{-u/2} x`` and variance ``t (1 - e^{-u})``.  Finite atoms sum one
    Gaussian per kept lattice point of :func:`_lattice_law` (the ``u = 0``
    point is the atom and is left out): each block of ``_MIXTURE_CELLS``
    cells is contracted with the normalised weights.  Gamma integrates the
    mixing density, one subdivision per block of start values, its 15
    Kronrod nodes the block's components, returned nodes-last.  A step
    whose smallest variance is not a normal float is refused.
    """
    require_calibrated(family)
    sigma = math.sqrt(t / s)
    if family.kind == GAMMA:
        alpha = family.a * math.log(sigma)
        abs_tol = 1e-13 / math.sqrt(t)
        meta = {"method": "gamma-quadrature", "shape": alpha, "rel_tol": 1e-8,
                "abs_tol": abs_tol}
        var_min = t  # the variances t (1 - e^-u) fill (0, t)

        def density(xs, ys):
            out = np.empty((xs.size, ys.size))
            for lo in range(0, xs.size, _GAMMA_BLOCK):
                def g(u, rows=xs[lo:lo + _GAMMA_BLOCK]):
                    var = t * -np.expm1(-u)
                    block = _gaussians(sigma * np.exp(-0.5 * u), var, rows, ys)
                    block *= (1.0 / np.sqrt(2.0 * math.pi * var))[:, None, None]
                    return np.moveaxis(block, 0, -1)

                out[lo:lo + _GAMMA_BLOCK], _ = gamma_expectation(
                    alpha, family.b, g, rel_tol=1e-8, abs_tol=abs_tol
                )
            return out
    else:
        u, w, meta = _lattice_law(family, s, t, x_abs)
        w, u = w[u > 0.0], u[u > 0.0]
        scale, var = sigma * np.exp(-0.5 * u), t * -np.expm1(-u)
        var_min = var.min(initial=math.inf)

        def density(xs, ys):
            out = np.empty((xs.size, ys.size))
            w_norm = w / np.sqrt(2.0 * math.pi * var)
            per_point = max(1, w.size)
            cols = max(1, min(ys.size, _MIXTURE_CELLS // per_point))
            rows = max(1, _MIXTURE_CELLS // (cols * per_point))
            for lo in range(0, xs.size, rows):
                for c in range(0, ys.size, cols):
                    block = _gaussians(scale, var, xs[lo:lo + rows], ys[c:c + cols])
                    out[lo:lo + rows, c:c + cols] = np.tensordot(w_norm, block, 1)
            return out

    if not var_min >= np.finfo(float).tiny:  # -0.5 / var would overflow into NaN
        raise FloatingPointError(f"the step s = {s!r} -> t = {t!r} is too short: its variance "
                                 f"t (1 - e^-u) falls to {var_min:.3g}, below a normal float")
    return meta, density


def kernel_eval(family: SubordinatorFamily, s: float, t: float, x: float) -> KernelEval:
    """Build the transition law of the step (s, x) -> t as a KernelEval."""
    _check_step(s, t)
    if s == 0.0:
        def density(y):
            return _phi(x, t, np.asarray(y, dtype=float))

        return KernelEval(0.0, math.nan, density, {"method": "exact-gaussian"})

    meta, law = _ac_law(family, s, t, abs(x))

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
    return _ac_law(family, s, t, float(np.max(np.abs(ygrid), initial=0.0)))[1](ygrid, zgrid)


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
