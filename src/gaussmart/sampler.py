"""Deterministic random streams and the distribution samplers built on them.

The generator is Philox-4x64-10, a counter-based PRNG (Salmon et al.,
"Parallel random numbers: as easy as 1, 2, 3", SC 2011): each 4-word block
is a pure function of a 2-word key and a 4-word counter.  Stream layout 3
uses key ``(seed, 0)`` and counter ``(stream_id + 1, site, attempt, 0)``:

- ``stream_id`` is the lane: lane k of a bundle *is* stream k, not a slice
  of a shared sequence;
- ``site`` counts the draw calls every lane of a bundle sees (a draw or a
  sampler call over the whole bundle), so it is the same under any chunking;
- ``attempt`` counts one lane's own blocks within a site: rejection retries
  and the candidate jumps of an event-driven path.

Every draw is therefore a pure function of ``(seed, stream_id, site,
attempt)``, and ensemble output does not depend on how paths are chunked
across threads.  numpy's C Philox produces every block, from one reused
generator per thread: the first block of every lane at a site is one call
over the lane range (a bundle of consecutive ids passes it as a ``range``,
so nothing is checked per id), and a retry round, a subset of the lanes
of the round before at one attempt, is one call per run of nearby ids.
:class:`StreamBundle` is the one stream type; a single path is a one-lane
bundle.  A word ``w`` maps to the open uniform ``(w >> 12) 2**-52 +
2**-53``, so no uniform is 0 or 1 and no normal is infinite.

Words per block.  A draw reads these words of each lane's block:

- :meth:`StreamBundle.normals`, Poisson inversion and the first jump time:
  word 0;
- PTRS: words 0-1 of every round;
- Marsaglia-Tsang: words 0-2 of every round;
- an event candidate: word 0 (waiting time), 1 (jump normal), 2 (atom);
- a grid step after the first (``pathsim``) opens one site and draws its
  attempt-0 block first: the step normal is word 3, and the increment's
  first sampler reads its words 0-2 from the same block instead of
  opening a site of its own.  A Brownian step, or one whose scale rounds
  to 1, opens that one site for the normal alone, and a finite-atom step
  opens one more site for each atom after the first.  Word 3 is drawn by
  every lane but evaluated only where the step uses it: a drift-free
  step skips it on lanes whose increment stayed at 0 (unless their value
  is +-0), when they are at least half of them.

Stream assignment policy
------------------------
- simulation path ``k`` uses ``stream_id = stream_base + k`` (base 0 for the
  primary run of a subcommand);
- verification-internal randomness (bootstrap resampling, reference draws)
  uses ``stream_id >= VERIFY_STREAM_BASE = 2**63``;
- ``stream_id = 2**64 - 1`` is refused: its counter word would wrap into
  ``site``.

Each sampler draws the whole bundle at one scalar parameter and opens one
new site per call, or takes the site whose attempt-0 blocks its caller
passes as ``first``.  Sampling algorithms are chosen for stream determinism:

- finite-atom increments ``beta ln sigma + sum_i x_i N_i`` with independent
  ``N_i ~ Poisson(w_i ln sigma)``, one whole-bundle Poisson draw per atom;
- Gaussians by inversion of the normal CDF (one uniform per deviate);
- Poisson by inversion for mean <= 10, one cumulative table per draw,
  each count the number of table entries below its uniform (the counts of
  a sequential search of the CDF, bit for bit), and by Hormann's
  transformed rejection (PTRS) above;
- gamma by Marsaglia-Tsang, with shapes below one boosted through
  ``Gamma(a) = Gamma(a + 1) * U**(1/a)`` to avoid rejection pathologies at
  the tiny shapes produced by fine time grids.

Rejection loops consume whole 4-word blocks per round and per lane, so a
lane's draw count never perturbs any other lane.
"""

from __future__ import annotations

import threading

import numpy as np
from scipy.special import gammaln, ndtri

from .errors import DomainError
from .semigroup import GAMMA, SubordinatorFamily, require_calibrated

#: stream ids at or above this are reserved for verification-internal draws
VERIFY_STREAM_BASE = 2**63
#: the version of the (key, counter) layout above, recorded in every report
STREAM_LAYOUT = 3

_MAX_STREAM_ID = 2**64 - 2
#: ids further apart than this start a new numpy call.  A run costs about
#: 3.3 us (setting the thread's generator, the call and its gather) against
#: ~20 ns per block, so a call breaks even near a gap of 170 blocks; the gap
#: stays at 500, where it was set when a call cost 11.5 us, because a gap of
#: 100 made the gamma battery slower (measured on a 2-vCPU VM)
_RUN_GAP = 500
#: largest Poisson mean drawn: every count PTRS accepts below it fits int64
POISSON_MEAN_LIMIT = 2.0**62
#: each thread's reused numpy Philox: see :func:`_numpy_blocks`
_THREAD = threading.local()


def _numpy_blocks(key, first_id, site, attempt, n: int) -> np.ndarray:
    """Blocks of ids ``first_id .. first_id + n - 1``, shape (n, 4).

    numpy's C Philox advances its counter before each block, so it starts
    from ``(first_id, site, attempt, 0)`` to emit id ``first_id`` first.
    Each thread keeps one generator and sets its key, counter and empty
    buffer per call, which is a quarter of the cost of building a new one.
    """
    gen = getattr(_THREAD, "philox", None)
    if gen is None:
        gen = _THREAD.philox = np.random.Philox(0)
    gen.state = {"bit_generator": "Philox", "buffer": (0, 0, 0, 0), "buffer_pos": 4,
                 "has_uint32": 0, "uinteger": 0,
                 "state": {"counter": (first_id, site, attempt, 0), "key": key}}
    return gen.random_raw(4 * n).reshape(n, 4)


def philox_block(seed, stream_ids, site, attempt) -> np.ndarray:
    """The block at counter ``(stream_id + 1, site, attempt, 0)`` for each id.

    Key ``(seed, 0)``, one scalar ``attempt``; returns shape (4, n) in
    request order.  A ``range`` of step 1 is one numpy call, with no pass
    over its ids.  An id array is cut into runs wherever the next id does
    not ascend or lies more than ``_RUN_GAP`` past the last, with no sort;
    each run is one numpy call over its span, of which the requested blocks
    are gathered (none when its ids are consecutive).
    """
    key, attempt = (int(seed), 0), int(attempt)
    if isinstance(stream_ids, range) and stream_ids.step == 1:
        return _numpy_blocks(key, stream_ids.start, site, attempt, len(stream_ids)).T
    ids = np.asarray(stream_ids, dtype=np.uint64)
    if not ids.size:
        return np.empty((4, 0), dtype=np.uint64)
    # a fall is cut by the first test (the uint64 difference wraps there),
    # so every run is strictly ascending, and its ids are consecutive
    # exactly when their count equals its span
    cut = (ids[1:] <= ids[:-1]) | (ids[1:] - ids[:-1] > _RUN_GAP)
    bounds = [0, *(cut.nonzero()[0] + 1).tolist(), ids.size]
    rows = []
    for lo, hi in zip(bounds, bounds[1:]):
        first = ids[lo]
        span = int(ids[hi - 1] - first) + 1
        blocks = _numpy_blocks(key, int(first), site, attempt, span)
        rows.append(blocks if span == hi - lo else blocks[ids[lo:hi] - first])
    return (rows[0] if len(rows) == 1 else np.concatenate(rows)).T


def _to_unit(words: np.ndarray) -> np.ndarray:
    """Map uint64 words to the odd multiples of 2**-53 in (0, 1), each exact:
    from 2**-53 (word 0) to 1 - 2**-53 (word 2**64 - 1), equally spaced."""
    return (words >> np.uint64(12)).astype(np.float64) * 2.0**-52 + 2.0**-53


def to_normals(words: np.ndarray) -> np.ndarray:
    """Standard normals from uint64 words, by inversion of the normal CDF at
    their uniforms; always finite."""
    return ndtri(_to_unit(words))


class StreamBundle:
    """A vector of independent streams advanced in lockstep.

    Lane ``i`` owns stream ``stream_ids[i]``.  A draw over the whole bundle
    (``idx=None``) opens a new site for every lane; a draw over selected
    lanes stays at the current site and advances only those lanes' attempt
    counters, so a lane's draws never depend on which other lanes draw.
    Selected lanes must have drawn equally often at the site, to share one
    attempt; a retry round's lanes, a subset of the round before's, have.
    """

    def __init__(self, seed: int, stream_ids):
        self.seed = int(seed) & (2**64 - 1)
        self._ids = np.asarray(stream_ids, dtype=np.uint64)
        if self._ids.ndim != 1:
            raise ValueError("stream_ids must be one-dimensional")
        if self._ids.size and int(self._ids.max()) > _MAX_STREAM_ID:
            raise DomainError(f"stream ids must be <= 2**64 - 2, got {int(self._ids.max())}")
        # what a whole-bundle draw asks philox_block for: consecutive ids
        # as a range, which it emits without a pass over them
        self._whole = self._ids
        if not np.any(np.diff(self._ids) != 1):
            first = int(self._ids[0]) if self._ids.size else 0
            self._whole = range(first, first + self._ids.size)
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
        otherwise the selected lanes draw their next attempt at this site,
        and a DomainError refuses lanes that have drawn unequally often.
        """
        if idx is None:
            self.new_site()
            self._attempt.fill(1)
            return philox_block(self.seed, self._whole, self._site, 0)
        attempt = self._attempt[idx]
        hi = int(attempt.max(initial=0))
        lo = int(attempt.min(initial=hi))
        if lo != hi:
            raise DomainError(f"the selected lanes have drawn {lo} to {hi} times at this site")
        self._attempt[idx] += np.uint64(1)
        return philox_block(self.seed, self._ids[idx], self._site, lo)

    def uniforms(self, n_words: int = 1, idx=None) -> np.ndarray:
        """(n_words, m) uniforms in (0,1); one block per lane, n_words <= 4."""
        if not 1 <= n_words <= 4:
            raise ValueError("n_words must be in 1..4")
        return _to_unit(self.blocks(idx)[:n_words])

    def normals(self) -> np.ndarray:
        """One standard normal per lane, from word 0 of its block at a new site.

        The blocks are released once their uniforms exist, before ``ndtri``
        allocates its output: a (lanes, 4) array less at the draw's peak.
        """
        return ndtri(self.uniforms(1)[0])


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


def _poisson_table_inversion(u: np.ndarray, mean: float) -> np.ndarray:
    """Inversion of the Poisson(mean) CDF by one cumulative table.

    The table is ``cdf[k] = cdf[k-1] + p[k]`` with ``p[k] = p[k-1] * (mean / k)``
    from ``p[0] = exp(-mean)``, in that operation order, up to the first
    entry that reaches ``max(u)`` or whose ``p`` underflows to 0.  Each draw
    is the first ``k`` with ``u <= cdf[k]``; a ``u`` beyond the last entry
    (only past an underflow) takes the last index.  As the table does not
    decrease, that is the count of entries before the last that lie below
    ``u``: one comparison per entry, which at the few entries of a grid
    step's mean is cheaper than a binary search per lane.
    """
    # numpy's exp, not math.exp: the two differ in the last bit
    p = float(np.exp(-np.float64(mean)))
    cdf = [p]
    top = float(u.max(initial=0.0))
    while cdf[-1] < top and p > 0.0:
        p *= mean / len(cdf)
        cdf.append(cdf[-1] + p)
    k = np.zeros(u.shape, dtype=np.int64)
    for c in cdf[:-1]:
        k += u > c
    return k


def _first_uniforms(bundle: StreamBundle, first, n_words: int) -> np.ndarray:
    """(n_words, lanes) uniforms of a sampler's first round: the attempt-0
    block of every lane, ``first`` (at a site the caller opened) or else
    drawn at a new site."""
    return _to_unit((bundle.blocks() if first is None else first)[:n_words])


def _poisson_ptrs(bundle: StreamBundle, mean: float, first=None) -> np.ndarray:
    """Hormann's PTRS transformed rejection; two uniforms per round per lane."""
    # numpy's sqrt and log on float64, not math's: they fix the last bit
    mu = np.float64(mean)
    b = 0.931 + 2.53 * np.sqrt(mu)
    a = -0.059 + 0.02483 * b
    inv_alpha = 1.1239 + 1.1328 / (b - 3.4)
    v_r = 0.9277 - 3.6224 / (b - 2.0)
    log_mu = np.log(mu)
    out = np.zeros(len(bundle), dtype=np.int64)
    uu, pend = _first_uniforms(bundle, first, 2), np.arange(len(bundle))
    while True:
        u = uu[0] - 0.5
        v = uu[1]
        us = 0.5 - np.abs(u)
        kf = np.floor((2.0 * a / us + b) * u + mu + 0.43)
        accept = (us >= 0.07) & (v <= v_r)
        reject = (kf < 0.0) | ((us < 0.013) & (v > us))
        needs_log = ~(accept | reject)
        if np.any(needs_log):
            lhs = np.log(v[needs_log] * inv_alpha / (a / us[needs_log] ** 2 + b))
            rhs = kf[needs_log] * log_mu - mu - gammaln(kf[needs_log] + 1.0)
            accept[needs_log] = lhs <= rhs
        out[pend[accept]] = kf[accept].astype(np.int64)
        pend = pend[~accept]
        if not pend.size:
            return out
        uu = bundle.uniforms(2, pend)


def poisson_draw(bundle: StreamBundle, mean: float, first=None) -> np.ndarray:
    """Poisson(mean) deviates, one per lane, at a new site of the bundle, or
    at the site whose attempt-0 blocks ``first`` the caller drew."""
    mean = float(mean)
    if not 0.0 <= mean < np.inf:  # NaN fails both
        raise DomainError("poisson mean must be finite and >= 0")
    if mean > POISSON_MEAN_LIMIT:
        raise DomainError(f"poisson mean {mean:.6g} is above 2**62: its counts overflow int64")
    if mean <= 10.0:
        return _poisson_table_inversion(_first_uniforms(bundle, first, 1)[0], mean)
    return _poisson_ptrs(bundle, mean, first)


def gamma_draw(bundle: StreamBundle, shape: float, rate: float = 1.0, first=None) -> np.ndarray:
    """Gamma(shape, rate) deviates via Marsaglia-Tsang, one per lane, at a
    new site of the bundle (or at the site of ``first``, as in
    :func:`poisson_draw`); three uniforms per round per lane.

    Word 0 feeds the inversion normal, word 1 the acceptance test, word 2
    the ``U**(1/shape)`` boost used when shape < 1.
    """
    shape, rate = float(shape), float(rate)
    if not (0.0 < shape < np.inf and 0.0 < rate < np.inf):
        raise DomainError("gamma shape and rate must be finite and > 0")
    boost = shape < 1.0
    d = np.float64(shape + 1.0 if boost else shape) - 1.0 / 3.0
    cc = 1.0 / np.sqrt(9.0 * d)
    out = np.empty(len(bundle), dtype=float)
    uu, pend = _first_uniforms(bundle, first, 3), np.arange(len(bundle))
    while True:
        x = ndtri(uu[0])
        v = (1.0 + cc * x) ** 3
        ok = v > 0.0
        logv = np.log(np.where(ok, v, 1.0))
        accept = ok & (np.log(uu[1]) < 0.5 * x * x + d * (1.0 - v + logv))
        val = d * v[accept]
        if boost:
            # Gamma(a) = Gamma(a+1) * U**(1/a); exp/log form keeps tiny
            # shapes finite (underflow to 0 is the correct rounding)
            val *= np.exp(np.log(uu[2][accept]) / shape)
        out[pend[accept]] = val / rate
        pend = pend[~accept]
        if not pend.size:
            return out
        uu = bundle.uniforms(3, pend)


def sample_subordinator_increment(family: SubordinatorFamily, sigma, bundle: StreamBundle,
                                  first=None):
    """Draw U_sigma = -ln R_sigma, one value per lane, for scale sigma >= 1.

    sigma = 1 returns exactly 0 without consuming any randomness; any other
    sigma opens one site per atom, or one for gamma or pure drift.  Given
    ``first``, the attempt-0 blocks of a site the caller opened, the first
    of those sites is that one.  Callers recover the mixing variable as
    R = exp(-U).
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
        return gamma_draw(bundle, family.a * log_sigma, family.b, first)
    out = np.full(n, no_jump_increment(family, sig))
    if not family.atoms and first is None:
        bundle.new_site()  # pure drift draws nothing, but takes its site
    for x, w in family.atoms:
        out += x * poisson_draw(bundle, w * log_sigma, first)
        first = None
    return out


def no_jump_increment(family: SubordinatorFamily, sigma: float) -> float:
    """The U_sigma of :func:`sample_subordinator_increment` on a lane where
    no atom fires: the drift beta ln sigma, by the same numpy operations
    (0 for gamma, whose increment is 0 only where it underflows)."""
    if family.kind == GAMMA or not family.beta:
        return 0.0
    return family.beta * np.log(float(sigma))
