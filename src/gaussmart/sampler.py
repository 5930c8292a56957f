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
across threads.  The first block of every lane at a site is one call to
numpy's C Philox over the contiguous lane range; sparse retries and
non-contiguous lanes go through a vectorised numpy copy of the network.

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
- Poisson by sequential-search inversion for mean <= 10 and by Hormann's
  transformed-rejection (PTRS) above;
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
_M0 = np.uint64(0xD2E7470EE14C6C93)
_M1 = np.uint64(0xCA5A826395121157)
_W0 = 0x9E3779B97F4A7C15
_W1 = 0xBB67AE8584CAA73B
_MASK64 = 2**64 - 1
_MASK32 = np.uint64(0xFFFFFFFF)
_SH32 = np.uint64(32)
_INV53 = float(2.0**-53)


def _mulhilo(a: np.uint64, b: np.ndarray):
    """High and low 64-bit halves of the 128-bit product, via 32-bit limbs."""
    lo = a * b
    a_lo = a & _MASK32
    a_hi = a >> _SH32
    b_lo = b & _MASK32
    b_hi = b >> _SH32
    t = ((a_lo * b_lo) >> _SH32) + ((a_hi * b_lo) & _MASK32) + a_lo * b_hi
    hi = a_hi * b_hi + ((a_hi * b_lo) >> _SH32) + (t >> _SH32)
    return hi, lo


def _philox_network(key, counter) -> np.ndarray:
    """Philox-4x64-10 on per-entry 4-word counters; returns shape (4, n).

    ``key`` is the 2-word key; each counter word broadcasts to the common
    length.  This is the block numpy's ``Philox(key=key, counter=c)``
    emits first when ``counter`` is ``c`` advanced by one.
    """
    x0, x1, x2, x3 = (
        np.array(w)
        for w in np.broadcast_arrays(*(np.asarray(w, dtype=np.uint64) for w in counter))
    )
    k0, k1 = int(key[0]), int(key[1])
    for _ in range(10):
        hi0, lo0 = _mulhilo(_M0, x0)
        hi1, lo1 = _mulhilo(_M1, x2)
        x0, x1, x2, x3 = hi1 ^ x1 ^ np.uint64(k0), lo1, hi0 ^ x3 ^ np.uint64(k1), lo0
        k0 = (k0 + _W0) & _MASK64
        k1 = (k1 + _W1) & _MASK64
    return np.stack([x0, x1, x2, x3])


def _is_run(ids: np.ndarray) -> bool:
    """Whether ``ids`` is one run of consecutive integers, ascending."""
    return ids.shape[0] > 0 and bool(np.all(np.diff(ids) == 1))


def philox_block(seed, stream_ids, site, attempt) -> np.ndarray:
    """The block at counter ``(stream_id + 1, site, attempt, 0)`` for each id.

    Key ``(seed, 0)``; returns shape (4, n).  ``attempt`` is a scalar or one
    value per id.  A run of consecutive ids sharing one attempt is a single
    call to numpy's C Philox, which advances its counter before each block;
    any other request goes through the vectorised network.
    """
    ids = np.asarray(stream_ids, dtype=np.uint64)
    att = np.asarray(attempt, dtype=np.uint64)
    key = np.array([seed, 0], dtype=np.uint64)
    if _is_run(ids) and (att.ndim == 0 or np.all(att == att[0])):
        first = att if att.ndim == 0 else att[0]
        counter = np.array([ids[0], site, first, 0], dtype=np.uint64)
        n = ids.shape[0]
        return np.random.Philox(key=key, counter=counter).random_raw(4 * n).reshape(n, 4).T
    return _philox_network(key, (ids + np.uint64(1), site, att, 0))


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


class RandomStream:
    """A single deterministic stream (one per simulated path).

    Thin scalar facade over a one-lane :class:`StreamBundle`; identical
    ``(seed, stream_id)`` always reproduces the same sequence.
    """

    def __init__(self, seed: int, stream_id: int = 0):
        self.seed = int(seed)
        self.stream_id = int(stream_id)
        self._bundle = StreamBundle(seed, [stream_id])

    @property
    def bundle(self) -> StreamBundle:
        return self._bundle

    def uniform(self) -> float:
        return float(self._bundle.uniforms(1)[0, 0])

    def normal(self) -> float:
        return float(self._bundle.normals()[0])


def path_bundle(seed: int, n_paths: int, stream_base: int = 0) -> StreamBundle:
    """Streams for paths [stream_base, stream_base + n_paths)."""
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


def _poisson_inversion(u: np.ndarray, mean: np.ndarray) -> np.ndarray:
    """Sequential-search inversion; exactly one uniform per draw (mean <= ~10)."""
    k = np.zeros(u.shape, dtype=np.int64)
    p = np.exp(-mean)
    cdf = p.copy()
    active = u > cdf
    while np.any(active):
        k[active] += 1
        p[active] *= mean[active] / k[active]
        cdf[active] += p[active]
        # p underflow means u sits beyond representable mass; stop that lane
        active &= (u > cdf) & (p > 0.0)
    return k


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
    lanes = _site_lanes(bundle, idx)
    mean = np.broadcast_to(np.asarray(mean, dtype=float), lanes.shape).copy()
    if np.any(mean < 0):
        raise DomainError("poisson mean must be >= 0")
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
    if np.any(shape <= 0) or np.any(rate <= 0):
        raise DomainError("gamma shape and rate must be > 0")
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


def sample_subordinator_increment(family: SubordinatorFamily, sigma, stream):
    """Draw U_sigma = -ln R_sigma for the given family and scale sigma >= 1.

    Scalar for a :class:`RandomStream`, one value per lane for a
    :class:`StreamBundle`.  sigma = 1 returns exactly 0 without consuming
    any randomness.  Callers recover the mixing variable as R = exp(-U).
    """
    require_calibrated(family)
    scalar = isinstance(stream, RandomStream)
    bundle = stream.bundle if scalar else stream
    sig = float(sigma)
    if sig < 1.0:
        raise DomainError(f"sigma must be >= 1, got {sigma}")
    n = len(bundle)
    if sig == 1.0:
        out = np.zeros(n)
        return 0.0 if scalar else out
    log_sigma = np.log(sig)
    if family.kind == GAMMA:
        out = gamma_draw(bundle, family.a * log_sigma, family.b)
    else:
        out = np.full(n, family.beta * log_sigma)
        if not family.atoms:
            # pure drift draws nothing but still takes one site per step, so
            # Brownian output at a given seed is the same as in schema 2
            bundle.new_site()
        for x, w in family.atoms:
            out += x * poisson_draw(bundle, w * log_sigma)
    return float(out[0]) if scalar else out


def sample_gaussian(stream):
    """Standard normal deviate(s) by CDF inversion, one uniform per value."""
    if isinstance(stream, RandomStream):
        return stream.normal()
    return stream.normals()
