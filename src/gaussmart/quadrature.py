"""Globally adaptive Gauss-Kronrod panel quadrature for vectorised integrands.

One engine serves the transition-kernel and generator integrals.  The
integrand maps an array of nodes to values of shape ``(n_nodes, ...)``,
nodes first; the trailing axes are integrated componentwise on a shared
subdivision, which lets a single refinement pass serve a whole block of
evaluation points.  Each panel's Kronrod and Gauss estimates come from one
matrix product of the (2, 15) weight rows with the values.  An integral
may start from a given subdivision and hand back its own, pruned of
over-resolved panels, so a run of similar integrals (the blocks of one
density table) need not refine each from a single panel.
"""

from __future__ import annotations

import heapq
import math

import numpy as np
from scipy import special

from .errors import QuadratureError

# 15-point Kronrod nodes with embedded 7-point Gauss rule (QUADPACK G7K15)
_XK = np.array(
    [
        -0.991455371120813,
        -0.949107912342759,
        -0.864864423359769,
        -0.741531185599394,
        -0.586087235467691,
        -0.405845151377397,
        -0.207784955007898,
        0.0,
        0.207784955007898,
        0.405845151377397,
        0.586087235467691,
        0.741531185599394,
        0.864864423359769,
        0.949107912342759,
        0.991455371120813,
    ]
)
_WK = np.array(
    [
        0.022935322010529,
        0.063092092629979,
        0.104790010322250,
        0.140653259715525,
        0.169004726639267,
        0.190350578064785,
        0.204432940075298,
        0.209482141084728,
        0.204432940075298,
        0.190350578064785,
        0.169004726639267,
        0.140653259715525,
        0.104790010322250,
        0.063092092629979,
        0.022935322010529,
    ]
)
_WG = np.array(
    [
        0.129484966168870,
        0.279705391489277,
        0.381830050505119,
        0.417959183673469,
        0.381830050505119,
        0.279705391489277,
        0.129484966168870,
    ]
)
#: Kronrod weights, then the Gauss weights on their (odd) Kronrod nodes
_WEIGHTS = np.zeros((2, _XK.size))
_WEIGHTS[0], _WEIGHTS[1, 1::2] = _WK, _WG

#: most panels one integral may be split into
MAX_PANELS = 4096

#: gamma mass beyond the upper integration limit
_TAIL_MASS = 1e-18

#: smallest gamma shape :func:`gamma_expectation` takes.  Up to 1.95e-4 the
#: first w-panel's nodes all have u = w**(1/alpha) = 0, so Kronrod and Gauss
#: agree on a flat integrand (at 1e-4, E[1] = 1.000394, error estimate
#: 3.3e-15); from 1.975e-4 to 2.6e-4, E[1] and E[exp(-rate U)] met their
#: closed forms to 2.2e-14 at 13 rates in [1e-3, 1e3]
MIN_GAMMA_SHAPE = 2.5e-4


def _panel(f, a: float, b: float):
    half = 0.5 * (b - a)
    nodes = 0.5 * (a + b) + half * _XK
    fv = np.asarray(f(nodes), dtype=float)
    kron, gauss = (half * _WEIGHTS) @ fv.reshape(_XK.size, -1)
    shape = fv.shape[1:]  # [()] below: a scalar integrand gives scalars
    return kron.reshape(shape)[()], np.abs(kron - gauss).reshape(shape)[()]


def adaptive_panels(
    f,
    a: float,
    b: float,
    rel_tol: float = 1e-8,
    abs_tol: float = 0.0,
    *,
    subdivision: list | None = None,
):
    """Integrate ``f`` over [a, b] to the requested accuracy.

    ``f`` maps the 15 nodes of a panel to values of shape ``(15, ...)``.
    Returns ``(integral, error_estimate)`` with the trailing shape.  The
    worst panel (largest max-component error) is bisected until every
    component satisfies ``err <= max(abs_tol, rel_tol * |integral|)``.
    A :class:`QuadratureError` is raised as soon as a panel's error is not
    finite (no bisection can repair that), or, carrying the best estimate,
    once ``MAX_PANELS`` panels are in use.

    ``subdivision`` is a list of breakpoints to start from: its points
    inside (a, b), sorted and with repeats merged, cut the starting panels,
    and the others are ignored; ``MAX_PANELS`` counts the starting panels
    too.  On return the list holds the final subdivision's breakpoints,
    pruned: a breakpoint goes when the panels on both its sides ended with
    every component's error below ``2**-15`` of its bound, since G7's
    error scales like h**15 on a smooth integrand, so the two would still
    pass as one.  A run of similar integrals threads one list through,
    each starting where the last ended.  When the integral fails the list
    is left as it was given.
    """
    if not b > a:
        raise ValueError("need b > a")
    edges = [a, *sorted({float(x) for x in subdivision or () if a < x < b}), b]
    # a non-finite panel raises QuadratureError, so numpy need not warn first
    with np.errstate(all="ignore"):
        heap = []  # entries (-max_err, seq, a, b, val, err); seq breaks ties
        seq = 0

        def push(lo, hi):
            nonlocal seq
            val, err = _panel(f, lo, hi)
            key = -float(np.max(err))
            if not math.isfinite(key):
                raise QuadratureError(f"integrand is not finite on [{lo!r}, {hi!r}]")
            heapq.heappush(heap, (key, seq, lo, hi, val, err))
            seq += 1
            return val, err

        total, total_err = push(a, edges[1])  # running totals, for the stopping test only
        for lo, hi in zip(edges[1:-1], edges[2:]):
            val, err = push(lo, hi)
            total, total_err = total + val, total_err + err
        n_panels = len(edges) - 1
        while True:
            bound = np.maximum(abs_tol, rel_tol * np.abs(total))
            bound = np.maximum(bound, 1e3 * np.finfo(float).tiny)
            if np.all(total_err <= bound):
                if subdivision is not None:
                    subdivision[:] = _pruned(heap, bound)
                return sum(item[4] for item in heap), sum(item[5] for item in heap)
            if n_panels >= MAX_PANELS:
                total_err = sum(item[5] for item in heap)
                raise QuadratureError(
                    f"quadrature did not converge within {MAX_PANELS} panels "
                    f"(max error {float(np.max(total_err)):.3e})",
                    estimate=sum(item[4] for item in heap),
                    error_bound=total_err,
                )
            _, _, pa, pb, val, err = heapq.heappop(heap)
            mid = 0.5 * (pa + pb)
            (v1, e1), (v2, e2) = push(pa, mid), push(mid, pb)
            total = total - val + v1 + v2
            total_err = total_err - err + e1 + e2
            n_panels += 1


def _pruned(panels, bound) -> list:
    """The breakpoints between ``panels`` (heap entries) in order, less each
    one with an over-resolved panel, every component's error below
    ``2**-15`` of its ``bound``, on both sides."""
    panels = sorted(panels, key=lambda item: item[2])
    fine = [bool(np.all(item[5] < 2.0**-15 * bound)) for item in panels]
    return [item[3] for item, left, right in zip(panels, fine, fine[1:])
            if not (left and right)]


def _tail_limit(alpha: float, rate: float) -> float:
    """The point past which Gamma(alpha, rate) holds ``_TAIL_MASS``: the
    value of ``stats.gamma.isf``, at about a fortieth of its cost."""
    return float(special.gammainccinv(alpha, _TAIL_MASS) * (1.0 / rate))


def gamma_expectation(
    alpha: float,
    rate: float,
    g,
    rel_tol: float = 1e-10,
    abs_tol: float = 0.0,
    *,
    subdivision: list | None = None,
):
    """E[g(V)] for V ~ Gamma(shape=alpha, rate), robust to shapes below one.

    For alpha >= 1 the density is bounded and the u-integral is taken
    directly.  Below one the density blows up at the origin like
    ``u**(alpha-1)``; substituting ``w = u**alpha`` absorbs the singularity
    exactly into the measure (``u**(alpha-1) du = dw / alpha``), leaving a
    bounded integrand on ``(0, u_hi**alpha)``.  ``g`` must map a node array
    to a new float array of shape ``(n_nodes, ...)``, nodes first; the
    trailing axes are vectorised, and the density is applied to that array
    in place.  ``subdivision`` is passed to :func:`adaptive_panels`; its
    breakpoints are in the integration variable, u or w, whose interval
    depends on alpha and rate alone.  A shape below ``MIN_GAMMA_SHAPE``,
    whose mass near u = 0 the nodes miss, raises a QuadratureError.
    """
    if alpha <= 0 or rate <= 0:
        raise ValueError("need alpha > 0 and rate > 0")
    if alpha < MIN_GAMMA_SHAPE:
        raise QuadratureError(f"the gamma shape {alpha!r} is below {MIN_GAMMA_SHAPE}, "
                              "where the quadrature nodes miss its mass near 0")
    u_hi = _tail_limit(alpha, rate)

    def weighted(u, dens):
        values = np.asarray(g(u), dtype=float)
        values *= dens.reshape(dens.shape + (1,) * (values.ndim - 1))
        return values

    if alpha >= 1.0:
        log_norm = alpha * np.log(rate) - special.gammaln(alpha)

        def integrand(u):
            return weighted(u, np.exp(log_norm + (alpha - 1.0) * np.log(u) - rate * u))

        return adaptive_panels(integrand, 0.0, u_hi, rel_tol=rel_tol, abs_tol=abs_tol,
                               subdivision=subdivision)

    const = np.exp(alpha * np.log(rate) - special.gammaln(alpha + 1.0))
    inv_alpha = 1.0 / alpha

    def integrand(w):
        u = np.exp(np.log(w) * inv_alpha)
        return weighted(u, const * np.exp(-rate * u))

    w_hi = float(np.exp(alpha * np.log(u_hi)))
    return adaptive_panels(integrand, 0.0, w_hi, rel_tol=rel_tol, abs_tol=abs_tol,
                           subdivision=subdivision)
