"""Deterministic random streams and the distribution samplers built on them.

The generator is Philox-4x64-10, a counter-based PRNG (Salmon et al.,
"Parallel random numbers: as easy as 1, 2, 3", SC 2011): each 4-word block
is a pure function of a 2-word key and a 4-word counter.  Stream layout 2
uses key ``(seed, 0)`` and counter ``(stream_id + 1, site, attempt, 0)``:

- ``stream_id`` is the lane: lane k of a bundle *is* stream k, not a slice
  of a shared sequence;
- ``site`` counts the draw calls every lane of a bundle sees (a draw or a
  sampler call over the whole bundle), so it is the same under any chunking;
- ``attempt`` counts one lane's own blocks within a site: rejection retries
  and the candidate jumps of an event-driven path.

Every draw is therefore a pure function of ``(seed, stream_id, site,
attempt)``, and ensemble output does not depend on how paths are chunked
across threads.  numpy's C Philox produces every block: the first block of
every lane at a site is one call over the contiguous lane range, and sparse
retries are one call per run of nearby ids.  :class:`StreamBundle` is the
one stream type; a single path is a one-lane bundle.

Stream assignment policy
------------------------
- simulation path ``k`` uses ``stream_id = stream_base + k`` (base 0 for the
  primary run of a subcommand);
- verification-internal randomness (bootstrap resampling, reference draws)
  uses ``stream_id >= VERIFY_STREAM_BASE = 2**63``;
- ``stream_id = 2**64 - 1`` is refused: its counter word would wrap into
  ``site``.

Sampling algorithms are chosen for stream determinism:

- finite-atom increments ``beta ln sigma + sum_i x_i N_i`` with independent
  ``N_i ~ Poisson(w_i ln sigma)``, one whole-bundle Poisson draw per atom;
- Gaussians by inversion of the normal CDF (one uniform per deviate);
- Poisson by inversion for mean <= 10, one cumulative table per distinct
  mean searched with ``np.searchsorted`` (the counts of a sequential search
  of the CDF, bit for bit), and by Hormann's transformed rejection (PTRS)
  above;
- gamma by Marsaglia-Tsang, with shapes below one boosted through
  ``Gamma(a) = Gamma(a + 1) * U**(1/a)`` to avoid rejection pathologies at
  the tiny shapes produced by fine time grids.

Rejection loops consume whole 4-word blocks per round and per lane, so a
lane's draw count never perturbs any other lane.
"""

from __future__ import annotations

import numpy as np
from scipy.special import gammaln, ndtri

from .errors import DomainError
from .semigroup import GAMMA, SubordinatorFamily, require_calibrated

#: stream ids at or above this are reserved for verification-internal draws
VERIFY_STREAM_BASE = 2**63
#: the version of the (key, counter) layout above, recorded in every report
STREAM_LAYOUT = 2

_MAX_STREAM_ID = 2**64 - 2
#: ids further apart than this start a new numpy call: one call costs about
#: as much as generating 500 unneeded blocks (11.5 us per call vs ~23 ns per
#: block, measured on a 2-vCPU VM)
_RUN_GAP = 500
_INV53 = float(2.0**-53)


def _numpy_blocks(key, first_id, site, attempt, n: int) -> np.ndarray:
    """Blocks of ids ``first_id .. first_id + n - 1``, shape (n, 4).

    numpy's C Philox advances its counter before each block, so it starts
    from ``(first_id, site, attempt, 0)`` to emit id ``first_id`` first.
    """
    counter = np.array([first_id, site, attempt, 0], dtype=np.uint64)
    return np.random.Philox(key=key, counter=counter).random_raw(4 * n).reshape(n, 4)


def philox_block(seed, stream_ids, site, attempt) -> np.ndarray:
    """The block at counter ``(stream_id + 1, site, attempt, 0)`` for each id.

    Key ``(seed, 0)``; returns shape (4, n).  ``attempt`` is a scalar or one
    value per id.  An ascending run of consecutive ids sharing one attempt
    is a single call to numpy's C Philox.  Any other request is grouped by
    attempt, its ids sorted and cut wherever neighbours are more than
    ``_RUN_GAP`` apart, and each piece is one numpy call over its span, of
    which the requested blocks are gathered.
    """
    ids = np.asarray(stream_ids, dtype=np.uint64)
    att = np.asarray(attempt, dtype=np.uint64)
    key = np.array([seed, 0], dtype=np.uint64)
    n = ids.shape[0]
    if n == 0:
        return np.empty((4, 0), dtype=np.uint64)
    if att.ndim and att.min() == att.max():
        att = att[0]
    if att.ndim == 0 and np.all(np.diff(ids) == 1):
        return _numpy_blocks(key, ids[0], site, att, n).T
    out = np.empty((4, n), dtype=np.uint64)
    att = np.broadcast_to(att, ids.shape)
    for a in np.unique(att):
        lanes = np.flatnonzero(att == a)
        lanes = lanes[np.argsort(ids[lanes], kind="stable")]
        run_ids = ids[lanes]
        cuts = np.flatnonzero(np.diff(run_ids) > _RUN_GAP) + 1
        for sel, rid in zip(np.split(lanes, cuts), np.split(run_ids, cuts)):
            offset = (rid - rid[0]).astype(np.intp)
            out[:, sel] = _numpy_blocks(key, rid[0], site, a, int(offset[-1]) + 1)[offset].T
    return out


def _to_unit(words: np.ndarray) -> np.ndarray:
    """Map uint64 words to doubles in the open interval (0, 1)."""
    return ((words >> np.uint64(11)).astype(np.float64) + 0.5) * _INV53


class StreamBundle:
    """A vector of independent streams advanced in lockstep.

    Lane ``i`` owns stream ``stream_ids[i]``.  A draw over the whole bundle
    (``idx=None``) opens a new site for every lane; a draw over selected
    lanes stays at the current site and advances only those lanes' attempt
    counters, so a lane's draws never depend on which other lanes draw.
    """

    def __init__(self, seed: int, stream_ids):
        self.seed = int(seed) & (2**64 - 1)
        self._ids = np.asarray(stream_ids, dtype=np.uint64)
        if self._ids.ndim != 1:
            raise ValueError("stream_ids must be one-dimensional")
        if self._ids.size and int(self._ids.max()) > _MAX_STREAM_ID:
            raise DomainError(f"stream ids must be <= 2**64 - 2, got {int(self._ids.max())}")
        self._site = 0
        self._attempt = np.zeros(self._ids.shape, dtype=np.uint64)

    def __len__(self) -> int:
        return self._ids.shape[0]

    @property
    def stream_ids(self) -> np.ndarray:
        return self._ids.copy()

    def new_site(self) -> None:
        """Open the next site: every lane's attempt counter restarts at 0."""
        self._site += 1
        self._attempt.fill(0)

    def blocks(self, idx=None) -> np.ndarray:
        """Next 4-word block for each selected lane, shape (4, m).

        ``idx=None`` opens a new site and draws attempt 0 of every lane;
        otherwise the selected lanes draw their next attempt at this site.
        """
        if idx is None:
            self.new_site()
            self._attempt.fill(1)
            return philox_block(self.seed, self._ids, self._site, 0)
        attempt = self._attempt[idx]
        self._attempt[idx] += np.uint64(1)
        return philox_block(self.seed, self._ids[idx], self._site, attempt)

    def uniforms(self, n_words: int = 1, idx=None) -> np.ndarray:
        """(n_words, m) uniforms in (0,1); one block per lane, n_words <= 4."""
        if not 1 <= n_words <= 4:
            raise ValueError("n_words must be in 1..4")
        return _to_unit(self.blocks(idx)[:n_words])

    def normals(self, idx=None) -> np.ndarray:
        """One standard normal per lane, by inversion of the normal CDF."""
        return ndtri(self.uniforms(1, idx)[0])


def RandomStream(seed: int, stream_id: int = 0) -> StreamBundle:
    """The one-lane bundle of stream ``stream_id``."""
    return StreamBundle(seed, [stream_id])


def path_bundle(seed: int, n_paths: int, stream_base: int = 0) -> StreamBundle:
    """Streams for paths [stream_base, stream_base + n_paths)."""
    if n_paths < 0:
        raise DomainError(f"path count must be >= 0, got {n_paths}")
    return StreamBundle(seed, np.arange(stream_base, stream_base + n_paths, dtype=np.uint64))


def verify_bundle(seed: int, n: int, offset: int = 0) -> StreamBundle:
    """Streams in the reserved verification range (ids >= 2**63)."""
    start = VERIFY_STREAM_BASE + offset
    return StreamBundle(seed, np.arange(start, start + n, dtype=np.uint64))


# ---------------------------------------------------------------------------
# distribution samplers
# ---------------------------------------------------------------------------


def _site_lanes(bundle: StreamBundle, idx) -> np.ndarray:
    """Lanes of a sampler call; a call over the whole bundle opens a new site."""
    if idx is None:
        bundle.new_site()
        return np.arange(len(bundle))
    return np.asarray(idx)


def _poisson_table_inversion(u: np.ndarray, mean: float) -> np.ndarray:
    """Inversion of the Poisson(mean) CDF by one cumulative table.

    The table is ``cdf[k] = cdf[k-1] + p[k]`` with ``p[k] = p[k-1] * (mean / k)``
    from ``p[0] = exp(-mean)``, in that operation order, up to the first
    entry that reaches ``max(u)`` or whose ``p`` underflows to 0.  Each draw
    is the first ``k`` with ``u <= cdf[k]``; a ``u`` beyond the last entry
    (only past an underflow) takes the last index.
    """
    # numpy's exp, not math.exp: the two differ in the last bit
    p = float(np.exp(-np.float64(mean)))
    cdf = [p]
    top = float(u.max())
    while cdf[-1] < top and p > 0.0:
        p *= mean / len(cdf)
        cdf.append(cdf[-1] + p)
    return np.minimum(np.searchsorted(cdf, u, side="left"), len(cdf) - 1)


def _poisson_inversion(u: np.ndarray, mean: np.ndarray) -> np.ndarray:
    """Table inversion per distinct per-lane mean; one uniform per draw."""
    values, group = np.unique(mean, return_inverse=True)
    out = np.empty(u.shape, dtype=np.int64)
    for j, m in enumerate(values.tolist()):
        sel = group == j
        out[sel] = _poisson_table_inversion(u[sel], m)
    return out


def _poisson_ptrs(bundle: StreamBundle, mean: np.ndarray, idx: np.ndarray) -> np.ndarray:
    """Hormann's PTRS transformed rejection; two uniforms per round per lane."""
    mu = mean.astype(float)
    smu = np.sqrt(mu)
    b = 0.931 + 2.53 * smu
    a = -0.059 + 0.02483 * b
    inv_alpha = 1.1239 + 1.1328 / (b - 3.4)
    v_r = 0.9277 - 3.6224 / (b - 2.0)
    log_mu = np.log(mu)
    out = np.zeros(idx.shape[0], dtype=np.int64)
    pend = np.arange(idx.shape[0])
    while pend.size:
        uu = bundle.uniforms(2, idx[pend])
        u = uu[0] - 0.5
        v = uu[1]
        us = 0.5 - np.abs(u)
        kf = np.floor((2.0 * a[pend] / us + b[pend]) * u + mu[pend] + 0.43)
        accept = (us >= 0.07) & (v <= v_r[pend])
        reject = (kf < 0.0) | ((us < 0.013) & (v > us))
        needs_log = ~(accept | reject)
        if np.any(needs_log):
            sel = pend[needs_log]
            lhs = np.log(
                v[needs_log] * inv_alpha[sel] / (a[sel] / us[needs_log] ** 2 + b[sel])
            )
            rhs = kf[needs_log] * log_mu[sel] - mu[sel] - gammaln(kf[needs_log] + 1.0)
            accept[needs_log] = lhs <= rhs
        out[pend[accept]] = kf[accept].astype(np.int64)
        pend = pend[~accept]
    return out


def poisson_draw(bundle: StreamBundle, mean, idx=None) -> np.ndarray:
    """Poisson deviates, one per selected lane; mean may be scalar or per-lane."""
    mean = np.asarray(mean, dtype=float)
    if not np.all((0.0 <= mean) & (mean < np.inf)):  # NaN fails both
        raise DomainError("poisson mean must be finite and >= 0")
    if idx is None and mean.ndim == 0 and mean <= 10.0 and len(bundle):
        # the whole bundle at one mean: attempt 0 of a new site for every lane
        return _poisson_table_inversion(bundle.uniforms(1)[0], float(mean))
    lanes = _site_lanes(bundle, idx)
    mean = np.broadcast_to(mean, lanes.shape)
    out = np.zeros(lanes.shape[0], dtype=np.int64)
    small = mean <= 10.0
    if np.any(small):
        u = bundle.uniforms(1, lanes[small])[0]
        out[small] = _poisson_inversion(u, mean[small])
    if np.any(~small):
        out[~small] = _poisson_ptrs(bundle, mean[~small], lanes[~small])
    return out


def gamma_draw(bundle: StreamBundle, shape, rate=1.0, idx=None) -> np.ndarray:
    """Gamma deviates via Marsaglia-Tsang; three uniforms per round per lane.

    Word 0 feeds the inversion normal, word 1 the acceptance test, word 2
    the ``U**(1/shape)`` boost used when shape < 1.
    """
    lanes = _site_lanes(bundle, idx)
    shape = np.broadcast_to(np.asarray(shape, dtype=float), lanes.shape).copy()
    rate = np.broadcast_to(np.asarray(rate, dtype=float), lanes.shape).copy()
    if not np.all((0.0 < shape) & (shape < np.inf) & (0.0 < rate) & (rate < np.inf)):
        raise DomainError("gamma shape and rate must be finite and > 0")
    boost = shape < 1.0
    d = np.where(boost, shape + 1.0, shape) - 1.0 / 3.0
    cc = 1.0 / np.sqrt(9.0 * d)
    out = np.empty(lanes.shape[0], dtype=float)
    pend = np.arange(lanes.shape[0])
    while pend.size:
        uu = bundle.uniforms(3, lanes[pend])
        x = ndtri(uu[0])
        v = (1.0 + cc[pend] * x) ** 3
        ok = v > 0.0
        logv = np.log(np.where(ok, v, 1.0))
        accept = ok & (
            np.log(uu[1]) < 0.5 * x * x + d[pend] * (1.0 - v + logv)
        )
        if np.any(accept):
            sel = pend[accept]
            val = d[sel] * v[accept]
            bsel = boost[sel]
            if np.any(bsel):
                # Gamma(a) = Gamma(a+1) * U**(1/a); exp/log form keeps tiny
                # shapes finite (underflow to 0 is the correct rounding)
                val[bsel] *= np.exp(np.log(uu[2][accept][bsel]) / shape[sel][bsel])
            out[sel] = val / rate[sel]
        pend = pend[~accept]
    return out


def sample_subordinator_increment(family: SubordinatorFamily, sigma, bundle: StreamBundle):
    """Draw U_sigma = -ln R_sigma, one value per lane, for scale sigma >= 1.

    sigma = 1 returns exactly 0 without consuming any randomness.  Callers
    recover the mixing variable as R = exp(-U).
    """
    require_calibrated(family)
    sig = float(sigma)
    if sig < 1.0:
        raise DomainError(f"sigma must be >= 1, got {sigma}")
    n = len(bundle)
    if sig == 1.0:
        return np.zeros(n)
    log_sigma = np.log(sig)
    if family.kind == GAMMA:
        return gamma_draw(bundle, family.a * log_sigma, family.b)
    out = np.full(n, family.beta * log_sigma)
    if not family.atoms:
        # pure drift draws nothing but still takes one site per step, so
        # Brownian output at a given seed is the same as in schema 2
        bundle.new_site()
    for x, w in family.atoms:
        out += x * poisson_draw(bundle, w * log_sigma)
    return out


def sample_gaussian(bundle: StreamBundle) -> np.ndarray:
    """Standard normal deviates by CDF inversion, one uniform per lane."""
    return bundle.normals()
