"""Transition-law evaluation: atom plus absolutely continuous density.

For a step from (s, x) to t > s with scale ``sigma = sqrt(t/s)``, the
transition law is a mixture over the mixing variable R = exp(-U) in [0, 1]::

    P(dy) = gamma(sigma) * delta_{sigma x}(dy)
            + E[ phi(sigma sqrt(R) x, t (1 - R), y); R < 1 ] dy,

and the step from s = 0 is exactly Gaussian.

- *moments*: given R, (X_s / sqrt(s), X_t / sqrt(t)) is standard bivariate
  normal with correlation sqrt(R), so by Mehler's formula the step is
  diagonal in Hermite polynomials, ``E[He_n(X_t / sqrt(t)) | X_s = x] =
  E[R^(n/2)] He_n(x / sqrt(s))`` with ``E[R^lam] = sigma^-psi(lam)``.  One
  identity serves every family and every moment of order k <= 8, and its
  t-derivative at t = s is the generator applied to y^k;
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
  :func:`gaussmart.quadrature.gamma_expectation`).  Each block of a table
  starts its subdivision from the previous block's final one, pruned of
  the breakpoints between over-resolved panels, so only the first block
  starts from one panel.

One evaluator per step (``_ac_law``) serves a whole table of start values
and evaluation points: :func:`kernel_eval` reads its single row and the
Chapman-Kolmogorov check its matrix.  Both kinds fill the table in one
loop over cache-sized (start value, point) blocks of at most
``_MIXTURE_CELLS`` cells counting every component, so memory is flat in
the table's size.  Each block's Gaussians are one (component, start
value, point) array (:func:`_gaussians`), the exponent formed in place;
the components are the kept lattice points, with ``1 / sqrt(2 pi var)``
folded into their weights, or the 15 Kronrod nodes of a gamma panel,
which the quadrature takes nodes first.  Densities returned everywhere
are the absolutely continuous part only; the atom (weight, location) is
reported separately.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np
from numpy.polynomial import hermite_e
from scipy import special

from .errors import DomainError, LatticeError, QuadratureError
from .quadrature import gamma_expectation
from .sampler import sample_subordinator_increment  # noqa: F401 (traced by perfbench; ROADMAP 6)
from .semigroup import (
    GAMMA,
    SubordinatorFamily,
    gamma_atom,
    laplace,
    psi,
    require_calibrated,
)

#: the highest moment order and polynomial degree the moments serve
MAX_DEGREE = 8

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

#: (component, start value, point) cells per block of a density table;
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
    sqrt(2 pi var[k])`` into its weights.

    The differences come from one (components rows, 2) by (2, points)
    product, ``[-m, 1] @ [1; ys]`` with ``m = scale xs``: each entry is
    ``-m + ys`` rounded once, the bits of the broadcast subtraction, which
    cost more than the product once a block has more than one row.
    """
    lhs = np.ones((scale.size * xs.size, 2))
    lhs[:, 0] = np.multiply.outer(scale, -xs).ravel()
    rhs = np.ones((2, ys.size))
    rhs[1] = ys
    block = (lhs @ rhs).reshape(scale.size, xs.size, ys.size)
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


def _padded(coefficients) -> np.ndarray:
    out = np.zeros(MAX_DEGREE + 1)
    out[:len(coefficients)] = coefficients
    return out


#: row k: the HermiteE coefficients a_k of y^k (``poly2herme``); with Z
#: standard normal they are also ``a_kj = C(k, j) E[Z^(k-j)]``
_HERME_OF_POWER = np.array([_padded(hermite_e.poly2herme(e)) for e in np.eye(MAX_DEGREE + 1)])
#: row n: the power coefficients of He_n, so ``w @ _POWER_OF_HERME`` is
#: ``herme2poly(w)`` at a hundredth of its cost
_POWER_OF_HERME = np.array([_padded(hermite_e.herme2poly(e)) for e in np.eye(MAX_DEGREE + 1)])


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
    k_max = int(locs.min() / h_floor)
    for n in (1, 16, 256, 4096, k_max):  # the first n candidates, up to an exact one
        k = np.arange(1, min(n, k_max) + 1)
        h = locs.min() / k if k.size else np.array([h_floor])
        steps = np.maximum(np.rint(locs[:, None] / h), 1.0)
        offsets = locs[:, None] - h * steps
        exact = np.all(np.abs(offsets) <= 1e-12 * locs[:, None], axis=0)
        if exact.any() or n >= k_max:
            break

    def points(j):
        return np.fmin((hi - lo) @ j, j.max(axis=0) * count_bound - lo @ j)

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
        count_bound = max(_poisson_isf(_UNSEEN, lam), 1.0)  # NaN past about 1e11
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
    e^{-u/2} x`` and variance ``t (1 - e^{-u})``.  The table is filled in
    (start value, point) blocks of at most ``_MIXTURE_CELLS`` cells
    counting every component, so memory is flat in the table's size.
    Finite atoms sum one Gaussian per kept lattice point of
    :func:`_lattice_law` (the ``u = 0`` point is the atom and is left out),
    contracting each block with the normalised weights.  Gamma integrates
    the mixing density with one subdivision per block, its 15 Kronrod
    nodes the block's components, nodes first; each block starts from the
    previous block's final subdivision, pruned, as
    :func:`gaussmart.quadrature.adaptive_panels` returns it.  That carry
    lives in one ``density`` call, so repeated calls give the same bits,
    and a table of one block starts from one panel.  A step whose smallest
    variance is not a normal float is refused before anything divides by
    it.
    """
    require_calibrated(family)
    sigma = math.sqrt(t / s)
    if family.kind == GAMMA:
        alpha = family.a * math.log(sigma)
        abs_tol = 1e-13 / math.sqrt(t)
        meta = {"method": "gamma-quadrature", "shape": alpha, "rel_tol": 1e-8,
                "abs_tol": abs_tol}
        components = 15  # the Kronrod nodes of one panel

        def fill(xs, ys, subdivision):
            if alpha <= 0.5:
                # at y = sigma x the integrand grows like u**(alpha - 3/2) as u -> 0
                on_flow = (ys[None, :] == sigma * xs[:, None]).any(axis=0)
                if on_flow.any():
                    raise QuadratureError(
                        f"the density of the step s = {s!r} -> t = {t!r} is infinite at y = "
                        f"sigma x = {float(ys[on_flow][0])!r}: the mixing shape a ln sigma = "
                        f"{alpha:.6g} is <= 1/2")

            def g(u):
                # at tiny shapes the nodes u = w**(1/alpha) underflow to 0
                var = t * -np.expm1(-u)
                _require_normal_variance(var.min(), s, t)
                block = _gaussians(sigma * np.exp(-0.5 * u), var, xs, ys)
                block *= (1.0 / np.sqrt(2.0 * math.pi * var))[:, None, None]
                return block

            return gamma_expectation(alpha, family.b, g, rel_tol=1e-8, abs_tol=abs_tol,
                                     subdivision=subdivision)[0]
    else:
        u, w, meta = _lattice_law(family, s, t, x_abs)
        w, u = w[u > 0.0], u[u > 0.0]
        scale, var = sigma * np.exp(-0.5 * u), t * -np.expm1(-u)
        _require_normal_variance(var.min(initial=math.inf), s, t)
        w_norm = w / np.sqrt(2.0 * math.pi * var)
        components = max(1, w.size)

        def fill(xs, ys, subdivision):  # one exact sum: nothing to carry
            return np.tensordot(w_norm, _gaussians(scale, var, xs, ys), 1)

    def density(xs, ys):
        out = np.empty((xs.size, ys.size))
        cols = max(1, min(ys.size, _MIXTURE_CELLS // components))
        rows = max(1, _MIXTURE_CELLS // (cols * components))
        subdivision = []  # gamma: each block starts from the last one's, pruned
        # past |y - mean| of about 1e154 the square overflows to inf, and
        # exp(-inf) = 0 is the correctly rounded density
        with np.errstate(over="ignore"):
            for lo in range(0, xs.size, rows):
                for c in range(0, ys.size, cols):
                    out[lo:lo + rows, c:c + cols] = fill(xs[lo:lo + rows], ys[c:c + cols],
                                                         subdivision)
        return out

    return meta, density


def _require_normal_variance(var_min: float, s: float, t: float) -> None:
    if not var_min >= np.finfo(float).tiny:  # -0.5 / var would overflow into NaN
        raise FloatingPointError(f"the step s = {s!r} -> t = {t!r} is too short: its variance "
                                 f"t (1 - e^-u) falls to {var_min:.3g}, below a normal float")


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


def _check_order(k) -> None:
    if not isinstance(k, (int, np.integer)) or not 0 <= k <= MAX_DEGREE:
        raise DomainError(f"moment order k must be an integer in 0..{MAX_DEGREE}")


def _in_powers(c, base: float, loc: float, k: int, shift: int = 0) -> float:
    """``sum_j c_j base^((k-j)/2 + shift) loc^j`` over the j of k's parity
    (the others' c_j are zero), in Python floats, so an overflow raises
    OverflowError before any numpy work."""
    return float(sum(c[j] * base ** ((k - j) // 2 + shift) * loc ** j
                     for j in range(k % 2, k + 1, 2)))


def kernel_moment(family: SubordinatorFamily, s: float, t: float, x: float, k: int) -> float:
    """k-th moment of the full transition law (atom included), k in 0..8.

    By the Hermite identity, with a the HermiteE coefficients of y^k,
    ``L_n = laplace(family, sigma, n/2)`` and ``loc = sigma x`` (so that
    ``x / sqrt(s) = loc / sqrt(t)``)::

        E[Y^k] = t^(k/2) sum_n a_n L_n He_n(x / sqrt(s))
               = sum_j t^((k-j)/2) loc^j c_j,   c = herme2poly(a L),

    in powers of loc and t, never of x / sqrt(s), which overflows at tiny
    s.  From s = 0 the law is N(x, t), whose moments are the same sum with
    ``loc = x`` and ``c = a``.
    """
    _check_order(k)
    _check_step(s, t)
    a = _HERME_OF_POWER[k]
    if s == 0.0:
        return _in_powers(a.tolist(), t, x, k)
    require_calibrated(family)
    sigma = math.sqrt(t / s)
    # L_0 = 1, and a_n = 0 unless n has k's parity: no laplace call needed there
    mixing = [laplace(family, sigma, 0.5 * n) if n and n % 2 == k % 2 else 1.0
              for n in range(k + 1)]
    c = (a[:k + 1] * mixing) @ _POWER_OF_HERME[:k + 1]
    return _in_powers(c.tolist(), t, sigma * x, k)


def kernel_moment_rate(family: SubordinatorFamily, s: float, x: float, k: int) -> float:
    """``d/dt E[X_t^k | X_s = x]`` at t = s, the generator applied to y^k.

    In :func:`kernel_moment`'s identity only ``t^(k/2) L_n = t^(k/2)
    (s/t)^(psi(n/2)/2)`` depends on t, so at t = s::

        sum_j s^((k-j)/2 - 1) x^j c_j,   c = herme2poly(a (k - psi(n/2)) / 2).

    For k = 2 this is ``delta + (1 - delta) x^2 / s``, the integrand of the
    predictable quadratic variation.
    """
    _check_order(k)
    if not 0.0 < s < math.inf:
        raise DomainError(f"need 0 < s < inf, got s = {s}")
    require_calibrated(family)
    rates = [0.5 * (k - psi(family, 0.5 * n)) for n in range(k + 1)]
    c = (_HERME_OF_POWER[k, :k + 1] * rates) @ _POWER_OF_HERME[:k + 1]
    return _in_powers(c.tolist(), s, x, k, shift=-1)


def _density_matrix(family, s: float, t: float, ygrid, zgrid):
    """Matrix D[i, j] = AC density of the step (s, y_i) -> t evaluated at z_j."""
    return _ac_law(family, s, t, float(np.max(np.abs(ygrid), initial=0.0)))[1](ygrid, zgrid)


def _poisson_isf(p: float, lam: float) -> float:
    """``scipy.stats.poisson.isf(p, lam)`` for 0 < p < 1, bit for bit, by
    scipy's own formula (NaN past lam of about 1e11)."""
    v = float(np.ceil(special.pdtrik(1.0 - p, lam)))
    return v - 1.0 if v >= 1.0 and special.pdtr(v - 1.0, lam) >= 1.0 - p else v


def _simpson_weights(n: int, h: float) -> np.ndarray:
    """Weights ``w`` with ``w @ f == scipy.integrate.simpson(f, dx=h)`` (to
    rounding) on n >= 2 equally spaced nodes: the trapezoid for n = 2, else
    composite Simpson over the first odd number of nodes, and for an even n
    Cartwright's correction (-h/12, 2h/3, 5h/12) on the last three nodes."""
    if n == 2:
        return np.full(2, 0.5 * h)
    m = n - 1 + n % 2  # nodes under composite Simpson
    w = np.zeros(n)
    w[1:m:2], w[2:m - 1:2] = 4.0, 2.0
    w[0] = w[m - 1] = 1.0
    w *= h / 3.0
    if m < n:
        w[-3:] += h * np.array([-1.0 / 12.0, 2.0 / 3.0, 5.0 / 12.0])
    return w


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
    on the shared y grid of at least three nodes.
    """
    if not 0.0 <= s < t < u < math.inf:
        raise DomainError(f"need 0 <= s < t < u < inf, got s = {s}, t = {t}, u = {u}")
    if not math.isfinite(x):
        raise DomainError(f"the start value x = {x} is not finite")
    if s == 0.0 and x != 0.0:
        raise DomainError("the s = 0 composition starts from x = 0")
    if not grid.n_nodes >= 3:
        raise DomainError(f"Simpson's rule needs at least 3 grid nodes, got {grid.n_nodes}")
    reach = 6.0 * math.sqrt(u)
    ygrid = np.linspace(-reach, reach, grid.n_nodes)
    zgrid = ygrid.copy()
    tau = math.sqrt(u / t)

    first = kernel_eval(family, s, t, x)
    f1 = first.density(ygrid)
    f2 = _density_matrix(family, t, u, ygrid, zgrid)
    direct = kernel_eval(family, s, u, x).density(zgrid)

    composed = (_simpson_weights(ygrid.size, 2.0 * reach / (ygrid.size - 1)) * f1) @ f2
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
