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
  common lattice ``x_i = h j_i`` those weights are one convolution of the
  counts' Poisson probabilities, each taken only on a window around its
  own mass, so coincident sums merge; the lightest points are dropped
  while the mass left out is at most 1e-12.  The law spans the fewer of
  the windows' points and the total count's reach from zero.  Atoms whose
  law fits on no lattice of ``_LATTICE_POINTS`` points are rounded to one,
  with a bound on the density error they cause; past ``ROUNDING_LIMIT``,
  or with windows that are not finite, the law is refused
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
from scipy import special, stats
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

#: lattice points the law of U may span before the atoms are rounded; a
#: law at the limit took up to 0.2 s (two equal atoms, each count's window
#: half of it; 2-vCPU Xeon VM)
_LATTICE_POINTS = 1 << 16

#: the largest density error, times sqrt(t), that rounding atoms may cause
ROUNDING_LIMIT = 1e-8

#: the counts' windows together leave out at most this mass
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


def _lattice(locs, weights, lo, hi, count_bound: float):
    """``(h, j, offsets, points)`` with atom i at ``h j_i + offsets_i``,
    ``j_i >= 1``, and the law of U kept on the ``points + 1`` lattice points
    from ``h j @ lo``: the fewer of the counts' windows ``j @ (hi - lo)``
    and ``count_bound`` jumps of the largest atom from zero.  The lattice is
    the coarsest ``h = x_min / k`` that holds every atom to a relative 1e-12
    (offsets then zero), else the one with the least ``sum_i w_i
    |offset_i|``, among those of at most ``_LATTICE_POINTS`` points (when
    none is, the caller refuses the one returned)."""
    span = np.fmin(locs @ (hi - lo), locs.max() * count_bound)
    h_floor = max(span, locs.max()) / _LATTICE_POINTS
    k = np.arange(1, int(locs.min() / h_floor) + 1)
    h = locs.min() / k if k.size else np.array([h_floor])
    steps = np.maximum(np.rint(locs[:, None] / h), 1.0)
    offsets = locs[:, None] - h * steps

    def points(j):
        return np.fmin((hi - lo) @ j, j.max(axis=0) * count_bound - lo @ j)

    exact = np.all(np.abs(offsets) <= 1e-12 * locs[:, None], axis=0)
    if exact.any():  # h >= h_floor, so an exact lattice fits
        best = int(np.argmax(exact))
    else:
        misfit = weights @ np.abs(offsets)
        best = int(np.argmin(np.where(points(steps) <= _LATTICE_POINTS, misfit, np.inf)))
    j = steps[:, best]
    return h[best], j.astype(np.int64), offsets[:, best] * (not exact[best]), points(j)


def _spread_convolve(g, p, step: int, n: int):
    """The first n points of g convolved with p spread ``step`` points
    apart, by one np.convolve per residue mod ``step`` or one shifted add
    per entry of p, whichever are fewer (at most about ``sqrt(n)``)."""
    p = p[:(n - 1) // step + 1]
    out = np.zeros(min(g.size + step * (p.size - 1), n))
    if step <= p.size:
        for r in range(min(step, g.size)):
            out[r::step] = np.convolve(g[r::step], p)[:out[r::step].size]
    else:
        for k, pk in enumerate(p):
            out[step * k:step * k + g.size] += pk * g[:n - step * k]
    return out


def _lattice_law(family: SubordinatorFamily, s: float, t: float, x_abs: float):
    """``(u, w, meta)``: the kept values of the finite-atom mixing increment
    of the step s -> t, s > 0 (the atom's u = 0 among them when beta = 0),
    their weights, and the record of the law.

    ``U = beta ln sigma + sum_i x_i N_i`` with independent ``N_i ~
    Poisson(w_i ln sigma)``.  On the atoms' lattice ``x_i = h j_i`` its law
    is the convolution of the counts' probabilities, each count kept on its
    window between its ``_UNSEEN / (2 m)`` quantiles (m atoms; the upper one
    at no less than 2**-53), with the window's exact mass, and spread
    ``j_i`` points apart.  Where the total
    count's ``_UNSEEN`` quantile bounds U more tightly than the windows do
    (small means), the points past it are cut off.  The lightest points
    (empty ones first) are dropped while at most ``POISSON_TAIL`` is left
    out, windows and cut included.  Windows that are not finite, or atoms
    that fit on no lattice of ``_LATTICE_POINTS`` points, are refused
    before anything is allocated.  Rounding atom i by ``offset_i`` moves U
    by at most ``sum_i |offset_i| N_i``; for |x| <= ``x_abs`` the density,
    in units of ``1/sqrt(t)`` (its scale), moves by at most ``K(u) = phi(1)
    x_abs e^{-u/2} / (2 sqrt(s) r) + phi(0) e^{-u} / (2 r^1.5)`` per unit of
    u, ``r = 1 - e^{-u}``, which decreases in u.  So the rounding bound
    ``K(u_min) ln sigma sum_i w_i |offset_i|`` is a sup-norm density error
    times ``sqrt(t)``, and a law past ``ROUNDING_LIMIT`` is refused.
    """
    log_sigma = 0.5 * math.log(t / s)
    drift = family.beta * log_sigma
    u, w = np.array([drift]), np.ones(1)  # pure drift: one increment
    meta = {"method": "finite-atom-mixture", "lattice": "exact", "h": 0.0, "tail": 0.0,
            "rounding_bound": 0.0}
    if family.atoms:
        locs, weights = np.array(family.atoms).T
        means = weights * log_sigma
        q = _UNSEEN / (2 * means.size)
        # the q and 1 - q quantiles; from 10 atoms on 1 - q rounds to 1.0, which
        # has none, so the upper q is held at 2**-53 (the mass outside the
        # windows is counted exactly below)
        lo, hi = np.ceil(special.pdtrik([[q], [1.0 - max(q, 2.0**-53)]], means))
        refused = (f"the law of the atoms {family.atoms} at t/s = {t / s:.6g} (Poisson means "
                   f"up to {means.max():.6g})")
        if not math.isfinite(locs @ (hi - lo)):  # NaN quantiles past means of about 1e11
            raise LatticeError(f"{refused} has count windows that are not finite")
        lam = float(means.sum())
        count_bound = max(float(stats.poisson.isf(_UNSEEN, lam)), 1.0)  # NaN past about 1e11
        h, j, offsets, points = _lattice(locs, weights, lo, hi, count_bound)
        if not points <= _LATTICE_POINTS:
            raise LatticeError(f"{refused} spans more than {_LATTICE_POINTS} points on every "
                               f"lattice it may take")
        if offsets.any():
            u_min = drift + min(locs.min(), h * j.min())
            r = -math.expm1(-u_min)  # divided in turn, so nothing overflows
            slope = (math.exp(-0.5 - 0.5 * u_min) * x_abs / (2 * math.sqrt(s)) / r
                     + math.exp(-u_min) / 2 / r / math.sqrt(r)) / math.sqrt(2 * math.pi)
            bound = slope * log_sigma * float(weights @ np.abs(offsets))
            if not bound <= ROUNDING_LIMIT:
                raise LatticeError(
                    f"{refused} fits on no lattice of at most {_LATTICE_POINTS} points; "
                    f"rounding them to h = {h:.6g} bounds the density error by {bound:.3g} "
                    f"> {ROUNDING_LIMIT:g}"
                )
            meta.update(lattice="rounded", rounding_bound=bound)
        lo, hi = lo.astype(np.int64), hi.astype(np.int64)
        outside = np.where(lo > 0, special.pdtr(lo - 1, means), 0.0) + special.pdtrc(hi, means)
        g = np.ones(1)
        for lam_i, a, b, step, out in zip(means, lo, hi, j, outside):
            # P(N = k) / P(N = a) = prod_{a < i <= k} lam / i, summed as logs
            # and scaled to the window's exact mass: within 2e-13 of exact up
            # to lam = 1.6e7, where k ln lam - ln k! - lam cancels to 4e-8
            log_ratio = np.cumsum(np.log(lam_i / np.arange(a + 1, b + 1)))
            p = np.exp(np.concatenate(([0.0], log_ratio)) - log_ratio.max(initial=0.0))
            g = _spread_convolve(g, p * ((1.0 - out) / p.sum()), int(step), int(points) + 1)
        unseen = float(outside.sum())
        if points < j @ (hi - lo):  # U past count_bound jumps was cut off
            unseen += float(special.pdtrc(count_bound, lam))
        order = np.argsort(g, kind="stable")
        dropped = order[np.cumsum(g[order]) <= POISSON_TAIL - unseen]
        keep = g > 0.0
        keep[dropped] = False
        u, w = drift + h * (j @ lo + np.flatnonzero(keep)), g[keep]
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
