"""Trajectory simulation for the Gaussian-marginal martingale family.

Two simulation modes:

- *grid*: for any calibrated family, the scale recursion
  ``X_t = sqrt(t/s) * (sqrt(R) X_s + sqrt(s) sqrt(1-R) xi)`` applied step by
  step, with an exact Gaussian first step out of the origin (the recursion's
  scale ratio is undefined at s = 0).  On a drift-free step a lane whose
  increment U stayed 0 follows the flow ``X_t = sqrt(t/s) X_s`` exactly,
  as between the jumps of an event path, and its normal can be skipped;
- *event-driven*: exact piecewise-deterministic simulation for every
  drift-free finite-atom family (total jump mass ``nu``).  Between jumps the
  path follows the deterministic flow ``x(u) = x(s) * sqrt(u/s)``; waiting
  times are drawn by exact inversion of the power-law survival
  ``(s/t)**(nu/2)`` (no thinning, no rate bound); a jump picks atom ``x_i``
  with probability ``w_i / nu`` and at time T moves the pre-jump value x to
  ``x + N((e^{-x_i/2}-1) x, T (1 - e^{-x_i}))``.

Event mode records every jump in one columnar :class:`EventPaths`; the law
of the jumps beyond the first follows the generator reading of the dynamics
and is cross-validated against grid mode in distribution, not proven here.

Every path owns one random stream; ensemble routines assign path k the
stream ``stream_base + k``, so results are independent of chunking and
thread count.
"""

from __future__ import annotations

import math
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np
from scipy.special import ndtri

from . import csvtext
from .errors import DomainError, FamilyError
from .sampler import (
    StreamBundle,
    no_jump_increment,
    path_bundle,
    sample_subordinator_increment,
    to_normals,
)
from .semigroup import (
    SubordinatorFamily,
    compound_poisson,
    nu_total,
    require_calibrated,
)


def check_grid_times(times) -> np.ndarray:
    """The grid as a float array: 1-d, at least two times, all finite, >= 0
    and strictly increasing."""
    times = np.asarray(times, dtype=float)
    if times.ndim != 1 or times.size < 2:
        raise DomainError("need a 1-d grid of at least two times")
    if not np.all(np.isfinite(times)) or times[0] < 0.0:
        raise DomainError("grid times must be finite and >= 0")
    if np.any(np.diff(times) <= 0):
        raise DomainError("grid times must be strictly increasing")
    return times


def _grid_values(
    family: SubordinatorFamily,
    times: np.ndarray,
    bundle: StreamBundle,
    start_values=None,
) -> np.ndarray:
    """Core recursion over one bundle; returns values of shape (lanes, len(times)).

    times[0] == 0 starts fresh paths at the origin (exact Gaussian first
    step); otherwise ``start_values`` supplies the state at times[0].  The
    values are filled one time at a time into contiguous rows, and the
    result is the transposed view of those rows: writing a column of a
    (lanes, times) array per step made the 50k-lane grid about a fifth
    slower.

    Every lane draws its block at every step, but word 3 becomes a normal
    only where the update uses it: on a drift-free step where at most half
    of the lanes' U left 0, the others follow the flow sigma X_s (except
    at +-0, where the normal decides the sign).  A step where no U left the
    drift beta ln sigma takes e^{-U/2} and sqrt(1 - e^{-U}) once; with a
    drift and some jumps, a gather and scatter would cost what they save.
    The values are those of the full step, bit for bit.
    """
    require_calibrated(family)
    n = len(bundle)
    vals = np.empty((times.size, n))
    if times[0] == 0.0:
        if start_values is not None:
            raise DomainError("start_values only apply to grids starting after 0")
        vals[0] = 0.0
        vals[1] = math.sqrt(times[1]) * bundle.normals()
        k0 = 2
    else:
        if start_values is None:
            raise DomainError("grids starting after 0 need start_values")
        vals[0] = np.broadcast_to(np.asarray(start_values, dtype=float), (n,))
        k0 = 1
    for k in range(k0, times.size):
        s, t = times[k - 1], times[k]
        sigma = math.sqrt(t / s)
        # stream layout 3: the step's one site gives the normal (word 3) and
        # the increment's first draw (words 0-2) from one block per lane
        first = bundle.blocks()
        u = sample_subordinator_increment(family, sigma, bundle, first)
        x = vals[k - 1]
        u0 = no_jump_increment(family, sigma)
        moved = u != u0
        m = np.count_nonzero(moved)
        if u0 == 0.0 and m <= n // 2:
            # a lane at +-0 takes the full step: x + (+-0) xi has xi's sign
            moved = np.flatnonzero(moved | (x == 0.0))
            xi = to_normals(first[3][moved])
            del first
            np.multiply(sigma, x, out=vals[k])  # the flow X_t = sigma X_s
            vals[k][moved] = _step(sigma, s, u[moved], x[moved], xi)
            continue
        xi = to_normals(first[3])
        del first  # gone before the update allocates its temporaries
        vals[k] = _step(sigma, s, u if m else np.array([u0]), x, xi)
    return vals.T


def _step(sigma: float, s: float, u: np.ndarray, x: np.ndarray, xi: np.ndarray) -> np.ndarray:
    """One recursion step X_t = sigma (e^{-U/2} X_s + sqrt(s) sqrt(1 - e^{-U}) xi);
    a one-element ``u`` is broadcast over the lanes."""
    return sigma * (np.exp(-0.5 * u) * x + math.sqrt(s) * np.sqrt(-np.expm1(-u)) * xi)


#: fewest paths a worker thread is given; smaller chunks cost more to
#: schedule than they save
_MIN_CHUNK = 4096


def _chunks(n: int, threads) -> list[tuple[int, int]]:
    """Path ranges, one per worker: at most one worker per CPU, none short."""
    cpus = os.cpu_count() or 1
    workers = min(threads if threads and threads > 0 else cpus, cpus, n // _MIN_CHUNK)
    if workers <= 1:
        return [(0, n)]
    size = -(-n // workers)
    return [(lo, min(lo + size, n)) for lo in range(0, n, size)]


def simulate_grid_ensemble(
    family: SubordinatorFamily,
    times,
    seed: int,
    n_paths: int,
    stream_base: int = 0,
    threads: int | None = 1,
    start_values=None,
) -> np.ndarray:
    """Values array of shape (n_paths, len(times)); path k uses stream k + base.

    With ``n_paths=1`` and ``stream_base=k`` this is the one path of stream k.

    Identical results for every thread count: lanes are whole streams, so the
    chunking only decides which worker evaluates which counter-keyed block.
    """
    if n_paths < 0:
        raise DomainError(f"path count must be >= 0, got {n_paths}")
    times = check_grid_times(times)
    out = np.empty((n_paths, times.size))
    sv = None if start_values is None else np.broadcast_to(
        np.asarray(start_values, dtype=float), (n_paths,)
    )

    def work(lo: int, hi: int) -> None:
        bundle = path_bundle(seed, hi - lo, stream_base + lo)
        sub = None if sv is None else sv[lo:hi]
        out[lo:hi] = _grid_values(family, times, bundle, start_values=sub)

    parts = _chunks(n_paths, threads)
    if len(parts) == 1:
        work(*parts[0])
    else:
        with ThreadPoolExecutor(max_workers=len(parts)) as pool:
            list(pool.map(lambda p: work(*p), parts))
    return out


def transition_pairs(
    family: SubordinatorFamily,
    s: float,
    t: float,
    seed: int,
    n: int,
    threads: int | None = 1,
):
    """(X_s, X_t) samples on streams 0 .. n - 1: exact Gaussian state at s,
    one recursion step to t."""
    if not 0 < s < t:
        raise DomainError("need 0 < s < t")
    vals = simulate_grid_ensemble(family, [0.0, s, t], seed, n, threads=threads)
    return vals[:, 1], vals[:, 2]


# ---------------------------------------------------------------------------
# event-driven mode (drift-free finite-atom families)
# ---------------------------------------------------------------------------


def _require_event_family(family: SubordinatorFamily) -> None:
    require_calibrated(family)
    if not compound_poisson(family):
        raise FamilyError(
            "event-driven simulation is exact for drift-free finite-atom families only"
        )


#: most jumps an event path may expect, (nu/2) ln(horizon/s0); at the limit
#: ``simulate --mode event`` took 0.4 s for one path and 2.5 s for 100 (the
#: default, CSV included) on a 2-vCPU VM
EVENT_JUMP_LIMIT = 5000


def event_jump_count(family: SubordinatorFamily, s0: float, horizon: float) -> float:
    """The jumps an event path on [s0, horizon] expects, (nu/2) ln(horizon/s0):
    a FamilyError unless the family admits events, a DomainError unless
    0 < s0 < horizon < inf and the count is at most ``EVENT_JUMP_LIMIT``."""
    _require_event_family(family)
    if not 0 < s0 < horizon < math.inf:
        raise DomainError(f"need 0 < s0 < horizon < inf, got s0 = {s0}, horizon = {horizon}")
    expected = 0.5 * nu_total(family) * (math.log(horizon) - math.log(s0))
    if not expected <= EVENT_JUMP_LIMIT:
        raise DomainError(f"an event path on [{s0}, {horizon}] expects (nu/2) ln(horizon/s0) = "
                          f"{expected:.6g} jumps, more than {EVENT_JUMP_LIMIT}")
    return expected


@dataclass(frozen=True)
class EventPaths:
    """Event-driven paths from ``start_time`` to ``horizon`` as columns: per
    lane ``path_ids`` (its stream id), ``start_values`` and ``terminal_values``;
    per jump, sorted by lane and then by time, ``lanes`` (the lane's index),
    ``jump_times``, ``pre_values`` and ``post_values``."""

    start_time: float
    horizon: float
    path_ids: np.ndarray
    start_values: np.ndarray
    terminal_values: np.ndarray
    lanes: np.ndarray
    jump_times: np.ndarray
    pre_values: np.ndarray
    post_values: np.ndarray

    @property
    def jumps(self):
        """Every jump as a (time, pre-jump value, post-jump value) float triple."""
        return zip(self.jump_times.tolist(), self.pre_values.tolist(), self.post_values.tolist())

    def validate(self) -> None:
        """An AssertionError unless the jumps are sorted by lane, each lane's
        times increase strictly within (start_time, horizon], and its pre-jump
        and terminal values follow the flow x(u) = x(s) sqrt(u/s) to a
        relative 1e-12."""
        lanes, t, n = self.lanes, self.jump_times, self.path_ids.size
        first = np.diff(lanes, prepend=-1) != 0
        last = np.diff(lanes, append=n) != 0
        t_prev = np.where(first, self.start_time, np.roll(t, 1))
        if np.any(np.diff(lanes) < 0) or not np.all((t_prev < t) & (t <= self.horizon)):
            raise AssertionError("jumps must be sorted by lane, then by time in (start, horizon]")
        x_prev = np.where(first, self.start_values[lanes], np.roll(self.post_values, 1))
        t_end, x_end = np.full(n, float(self.start_time)), self.start_values.copy()
        t_end[lanes[last]], x_end[lanes[last]] = t[last], self.post_values[last]
        for name, got, want in (
            ("pre-jump", self.pre_values, x_prev * np.sqrt(t / t_prev)),
            ("terminal", self.terminal_values, x_end * np.sqrt(self.horizon / t_end)),
        ):
            if not np.all(np.abs(got - want) <= 1e-12 * np.maximum(1.0, np.abs(want))):
                raise AssertionError(f"a {name} value breaks the sqrt(t/s) flow")


def first_jump_times(family: SubordinatorFamily, s0: float, bundle: StreamBundle) -> np.ndarray:
    """Exact draws of the first jump time after s0 (power-law survival), one
    per lane; an OverflowError when a draw is past the largest float."""
    _require_event_family(family)
    if not 0 < s0 < math.inf:
        raise DomainError("s0 must be finite and > 0")
    with np.errstate(over="ignore"):
        times = s0 * bundle.uniforms(1)[0] ** (-2.0 / nu_total(family))
    if np.isinf(times).any():
        raise OverflowError(f"a first jump time after s0 = {s0!r} overflows a float")
    return times


def simulate_events(
    family: SubordinatorFamily,
    s0: float,
    x0,
    horizon: float,
    bundle: StreamBundle,
) -> EventPaths:
    """One event-driven path per lane from (s0, x0) up to the horizon.

    All paths share one site, and each lane's candidate jump j is its
    attempt j: word 0 of the block gives the waiting time (open interval,
    so the next jump is strictly after the current time), word 1 the jump
    normal and word 2 the atom.  The first candidates are one whole-bundle
    draw at a new site, and each later round draws the lanes that jumped
    in the round before.  The block of the first candidate beyond the
    horizon is consumed as well.
    """
    event_jump_count(family, s0, horizon)
    nu = nu_total(family)
    # scalar libm factors, not numpy's vector exp, which may round another
    # way: they keep unit-atom event paths bit-identical to schema 2
    mean_factor = np.array([math.exp(-0.5 * x) - 1.0 for x, _ in family.atoms])
    var_factor = np.array([-math.expm1(-x) for x, _ in family.atoms])
    atom_edges = np.cumsum([w for _, w in family.atoms])[:-1] / nu
    n = len(bundle)
    t = np.full(n, float(s0))
    start = np.broadcast_to(np.asarray(x0, dtype=float), (n,)).copy()
    x = start.copy()
    idx = np.arange(n)  # the lanes still live: each jumped in every round so far
    rounds = [(np.empty(0, dtype=np.intp),) + (np.empty(0),) * 3]
    uu = bundle.uniforms(3)
    while True:
        # a candidate past the largest float lies beyond every finite
        # horizon, so its overflow to inf ends the path as it should
        with np.errstate(over="ignore"):
            big_t = t[idx] * uu[0] ** (-2.0 / nu)
        jumped = big_t <= horizon
        idx = idx[jumped]
        if not idx.size:
            break
        tj = big_t[jumped]
        atom = np.searchsorted(atom_edges, uu[2][jumped])
        x_pre = x[idx] * np.sqrt(tj / t[idx])
        z = mean_factor[atom] * x_pre + np.sqrt(tj * var_factor[atom]) * ndtri(uu[1][jumped])
        x[idx] = x_pre + z
        t[idx] = tj
        rounds.append((idx, tj, x_pre, x[idx]))
        uu = bundle.uniforms(3, idx)
    columns = [np.concatenate(col) for col in zip(*rounds)]
    order = np.argsort(columns[0], kind="stable")
    return EventPaths(float(s0), float(horizon), bundle.stream_ids, start,
                      x * np.sqrt(horizon / t), *(col[order] for col in columns))


def simulate_event(
    family: SubordinatorFamily,
    s0: float,
    x0: float,
    horizon: float,
    bundle: StreamBundle,
) -> EventPaths:
    """:func:`simulate_events` for a one-lane bundle."""
    if len(bundle) != 1:
        raise DomainError(f"need a one-lane bundle, got {len(bundle)} lanes")
    return simulate_events(family, s0, x0, horizon, bundle)


def simulate_event_terminals(
    family: SubordinatorFamily,
    s0: float,
    x0,
    horizon: float,
    bundle: StreamBundle,
) -> np.ndarray:
    """Terminal values at the horizon for one event-driven path per lane."""
    return simulate_events(family, s0, x0, horizon, bundle).terminal_values


# ---------------------------------------------------------------------------
# CSV serialization
# ---------------------------------------------------------------------------


def write_grid_csv(path, times, values) -> None:
    """Rows ``path_id,time,value`` in ``repr`` form (exact round-trip, so the
    bytes are stable), made into text a block of whole paths at a time
    (``csvtext.CSV_BLOCK`` rows, or one path if it is longer), each
    distinct time once: memory stays flat in the path count.  Values not of
    shape (paths, times >= 1) raise before any write."""
    values = np.atleast_2d(np.asarray(values, dtype=float))
    times = np.asarray(times, dtype=float)
    if values.ndim != 2 or times.ndim != 1 or not 0 < times.size == values.shape[1]:
        raise DomainError(f"grid values {values.shape} do not fit {times.size} times")
    time_text = csvtext.text_block(times)
    block = max(1, csvtext.CSV_BLOCK // times.size)
    # the ids of several blocks' paths at once, as a block of few paths pays
    # more per call than its ids cost; a sixteenth of a block's rows bounds
    # their memory
    id_block = block * max(1, csvtext.CSV_BLOCK // 16 // block)
    with open(path, "wb") as fh:
        fh.write(b"path_id,time,value\n")
        for lo in range(0, len(values), block):
            if lo % id_block == 0:
                ids = csvtext.text_block(np.arange(lo, min(lo + id_block, len(values))))
            rows = values[lo:lo + block]
            fh.write(csvtext.csv_rows(
                rows.shape, ids[lo % id_block:][:len(rows), None], time_text,
                csvtext.text_block(rows.ravel()).reshape(rows.shape + (-1,))))


def write_event_csv(path, records) -> int:
    """Rows ``path_id,event_index,time,pre_value,post_value``, one per jump of
    each :class:`EventPaths` in ``records`` (``path_id`` is the lane's stream
    id), made into text ``csvtext.CSV_BLOCK`` rows at a time; returns the
    row count."""
    rows = 0
    with open(path, "wb") as fh:
        fh.write(b"path_id,event_index,time,pre_value,post_value\n")
        for rec in records:
            lanes = rec.lanes
            for lo in range(0, lanes.size, csvtext.CSV_BLOCK):
                part = lanes[lo:lo + csvtext.CSV_BLOCK]
                hi = lo + part.size
                index = np.arange(lo, hi) - np.searchsorted(lanes, part)
                texts = [csvtext.text_block(c) for c in (
                    rec.path_ids[part], index, rec.jump_times[lo:hi], rec.pre_values[lo:hi],
                    rec.post_values[lo:hi])]
                fh.write(csvtext.csv_rows(part.shape, *texts))
            rows += lanes.size
    return rows
