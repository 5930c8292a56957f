"""Trajectory simulation for the Gaussian-marginal martingale family.

Two simulation modes:

- *grid*: for any calibrated family, the scale recursion
  ``X_t = sqrt(t/s) * (sqrt(R) X_s + sqrt(s) sqrt(1-R) xi)`` applied step by
  step, with an exact Gaussian first step out of the origin (the recursion's
  scale ratio is undefined at s = 0);
- *event-driven*: exact piecewise-deterministic simulation for every
  drift-free finite-atom family (total jump mass ``nu``).  Between jumps the
  path follows the deterministic flow ``x(u) = x(s) * sqrt(u/s)``; waiting
  times are drawn by exact inversion of the power-law survival
  ``(s/t)**(nu/2)`` (no thinning, no rate bound); a jump picks atom ``x_i``
  with probability ``w_i / nu`` and at time T moves the pre-jump value x to
  ``x + N((e^{-x_i/2}-1) x, T (1 - e^{-x_i}))``.

The joint law of (jump time, jump size) beyond the first jump follows the
generator reading of the dynamics; multi-jump horizons are cross-validated
against grid mode distributionally rather than proven here.

Every path owns one random stream; ensemble routines assign path k the
stream ``stream_base + k``, so results are independent of chunking and
thread count.
"""

from __future__ import annotations

import math
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from operator import add

import numpy as np
from scipy.special import ndtri

from .errors import DomainError, FamilyError
from .sampler import StreamBundle, path_bundle, sample_subordinator_increment
from .semigroup import (
    SubordinatorFamily,
    compound_poisson,
    delta,
    nu_total,
    require_calibrated,
)


@dataclass(frozen=True)
class EventPath:
    """One piecewise-deterministic trajectory with its recorded jumps."""

    start_time: float
    start_value: float
    horizon: float
    jump_times: np.ndarray
    pre_values: np.ndarray
    post_values: np.ndarray
    terminal_value: float

    def __post_init__(self):
        jt = np.asarray(self.jump_times, dtype=float)
        object.__setattr__(self, "jump_times", jt)
        object.__setattr__(self, "pre_values", np.asarray(self.pre_values, dtype=float))
        object.__setattr__(self, "post_values", np.asarray(self.post_values, dtype=float))
        if np.any(np.diff(jt) <= 0):
            raise DomainError("jump times must be strictly increasing")
        if jt.size and (jt[0] <= self.start_time or jt[-1] > self.horizon):
            raise DomainError("jump times must lie in (start_time, horizon]")

    @property
    def jumps(self) -> list[tuple[float, float, float]]:
        return list(zip(self.jump_times, self.pre_values, self.post_values))

    def validate(self, rtol: float = 1e-12) -> None:
        """Check the deterministic-flow identities along the path."""
        t_prev = self.start_time
        x_prev = self.start_value
        for t, pre, post in self.jumps:
            expected = x_prev * math.sqrt(t / t_prev)
            if abs(pre - expected) > rtol * max(1.0, abs(expected)):
                raise AssertionError("pre-jump value breaks the sqrt(t/s) flow")
            t_prev, x_prev = t, post
        expected = x_prev * math.sqrt(self.horizon / t_prev)
        if abs(self.terminal_value - expected) > rtol * max(1.0, abs(expected)):
            raise AssertionError("terminal value breaks the sqrt(t/s) flow")


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
    step); otherwise ``start_values`` supplies the state at times[0].
    """
    require_calibrated(family)
    n = len(bundle)
    vals = np.empty((n, times.size))
    if times[0] == 0.0:
        if start_values is not None:
            raise DomainError("start_values only apply to grids starting after 0")
        vals[:, 0] = 0.0
        vals[:, 1] = math.sqrt(times[1]) * bundle.normals()
        k0 = 2
    else:
        if start_values is None:
            raise DomainError("grids starting after 0 need start_values")
        vals[:, 0] = np.broadcast_to(np.asarray(start_values, dtype=float), (n,))
        k0 = 1
    for k in range(k0, times.size):
        s, t = times[k - 1], times[k]
        sigma = math.sqrt(t / s)
        u = sample_subordinator_increment(family, sigma, bundle)
        xi = bundle.normals()
        sqrt_r = np.exp(-0.5 * u)
        sqrt_1mr = np.sqrt(-np.expm1(-u))
        vals[:, k] = sigma * (sqrt_r * vals[:, k - 1] + math.sqrt(s) * sqrt_1mr * xi)
    return vals


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
    stream_base: int = 0,
    threads: int | None = 1,
):
    """(X_s, X_t) samples: exact Gaussian state at s, one recursion step to t."""
    if not 0 < s < t:
        raise DomainError("need 0 < s < t")
    vals = simulate_grid_ensemble(
        family, [0.0, s, t], seed, n, stream_base=stream_base, threads=threads
    )
    return vals[:, 1], vals[:, 2]


def conditional_moments(family: SubordinatorFamily, s, t, x):
    """Mean and second moment of X_t given X_s = x (closed form).

    mean = x (martingale); E[X_t^2 | X_s = x] =
    t (1 - (s/t)**delta) + (t/s)**(1-delta) * x**2.
    """
    s = np.asarray(s, dtype=float)
    t = np.asarray(t, dtype=float)
    if np.any(s <= 0) or np.any(t < s):
        raise DomainError("need 0 < s <= t")
    d = delta(family)
    x = np.asarray(x, dtype=float)
    second = t * (1.0 - (s / t) ** d) + (t / s) ** (1.0 - d) * x**2
    mean = x + np.zeros_like(second)
    if mean.ndim == 0:
        return float(mean), float(second)
    return mean, second


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


def _run_events(family, s0: float, x0, horizon: float, bundle: StreamBundle, record: bool):
    """One event-driven path per lane; returns (jump time, value) after the last jump.

    All paths share one site, and each lane's candidate jump j is its
    attempt j: word 0 of the block gives the waiting time (open interval,
    so the next jump is strictly after the current time), word 1 the jump
    normal and word 2 the atom.  The block of the first candidate beyond
    the horizon is consumed as well.  With ``record`` the jumps come back
    too, as arrays (lane, time, pre-value, post-value) in time order per
    lane.  A path that expects more than ``EVENT_JUMP_LIMIT`` jumps is
    refused before any draw.
    """
    _require_event_family(family)
    if not 0 < s0 < horizon < math.inf:
        raise DomainError(f"need 0 < s0 < horizon < inf, got s0 = {s0}, horizon = {horizon}")
    nu = nu_total(family)
    expected = 0.5 * nu * (math.log(horizon) - math.log(s0))
    if not expected <= EVENT_JUMP_LIMIT:
        raise DomainError(f"an event path on [{s0}, {horizon}] expects (nu/2) ln(horizon/s0) = "
                          f"{expected:.6g} jumps, more than {EVENT_JUMP_LIMIT}")
    # scalar libm factors, not numpy's vector exp, which may round another
    # way: they keep unit-atom event paths bit-identical to schema 2
    mean_factor = np.array([math.exp(-0.5 * x) - 1.0 for x, _ in family.atoms])
    var_factor = np.array([-math.expm1(-x) for x, _ in family.atoms])
    atom_edges = np.cumsum([w for _, w in family.atoms])[:-1] / nu
    n = len(bundle)
    t = np.full(n, float(s0))
    x = np.broadcast_to(np.asarray(x0, dtype=float), (n,)).copy()
    live = np.ones(n, dtype=bool)
    rounds = [(np.empty(0, dtype=np.intp),) + (np.empty(0),) * 3]
    bundle.new_site()
    while np.any(live):
        idx = np.nonzero(live)[0]
        uu = bundle.uniforms(3, idx)
        # a candidate past the largest float lies beyond every finite
        # horizon, so its overflow to inf ends the path as it should
        with np.errstate(over="ignore"):
            big_t = t[idx] * uu[0] ** (-2.0 / nu)
        jumped = big_t <= horizon
        ji = idx[jumped]
        if ji.size:
            tj = big_t[jumped]
            atom = np.searchsorted(atom_edges, uu[2][jumped])
            x_pre = x[ji] * np.sqrt(tj / t[ji])
            z = mean_factor[atom] * x_pre + np.sqrt(
                tj * var_factor[atom]
            ) * ndtri(uu[1][jumped])
            x[ji] = x_pre + z
            t[ji] = tj
            if record:
                rounds.append((ji, tj, x_pre, x[ji]))
        live[idx[~jumped]] = False
    if not record:
        return t, x, None
    columns = [np.concatenate(col) for col in zip(*rounds)]
    order = np.argsort(columns[0], kind="stable")
    return t, x, tuple(col[order] for col in columns)


def simulate_events(
    family: SubordinatorFamily,
    s0: float,
    x0,
    horizon: float,
    bundle: StreamBundle,
) -> list[EventPath]:
    """One event-driven path per lane from (s0, x0) up to the horizon, with its jumps."""
    t, x, (lanes, times, pre, post) = _run_events(family, s0, x0, horizon, bundle, True)
    starts = np.broadcast_to(np.asarray(x0, dtype=float), (len(bundle),))
    cuts = np.searchsorted(lanes, np.arange(len(bundle) + 1))
    terminal = x * np.sqrt(horizon / t)
    return [
        EventPath(
            start_time=s0,
            start_value=float(starts[k]),
            horizon=horizon,
            jump_times=times[lo:hi],
            pre_values=pre[lo:hi],
            post_values=post[lo:hi],
            terminal_value=float(terminal[k]),
        )
        for k, (lo, hi) in enumerate(zip(cuts[:-1], cuts[1:]))
    ]


def simulate_event(
    family: SubordinatorFamily,
    s0: float,
    x0: float,
    horizon: float,
    bundle: StreamBundle,
) -> EventPath:
    """Simulate one event-driven path from (s0, x0) up to the horizon.

    The case of :func:`simulate_events` for a one-lane bundle, so it agrees
    lane for lane with :func:`simulate_event_terminals`.
    """
    if len(bundle) != 1:
        raise DomainError(f"need a one-lane bundle, got {len(bundle)} lanes")
    return simulate_events(family, s0, x0, horizon, bundle)[0]


def simulate_event_terminals(
    family: SubordinatorFamily,
    s0: float,
    x0,
    horizon: float,
    bundle: StreamBundle,
) -> np.ndarray:
    """Terminal values at the horizon for one event-driven path per lane."""
    t, x, _ = _run_events(family, s0, x0, horizon, bundle, False)
    return x * np.sqrt(horizon / t)


# ---------------------------------------------------------------------------
# CSV serialization
# ---------------------------------------------------------------------------


def write_grid_csv(path, times, values) -> None:
    """Rows ``path_id,time,value`` in ``repr`` form (exact round-trip, so the
    bytes are stable), one path at a time: memory stays flat in the path
    count.  Values not of shape (paths, times >= 1) raise before any write."""
    values = np.atleast_2d(np.asarray(values, dtype=float))
    times = np.asarray(times, dtype=float)
    if values.ndim != 2 or times.ndim != 1 or not 0 < times.size == values.shape[1]:
        raise DomainError(f"grid values {values.shape} do not fit {times.size} times")
    cells = [f",{t!r}," for t in times.tolist()]
    with open(path, "w", encoding="ascii") as fh:
        fh.write("path_id,time,value\n")
        for i, row in enumerate(values):
            # every line starts with the path id, so the id joins the lines
            pid = str(i)
            fh.write(pid + f"\n{pid}".join(map(add, cells, map(repr, row.tolist()))) + "\n")


def write_event_csv(path, paths: list[EventPath]) -> None:
    """Rows ``path_id,event_index,time,pre_value,post_value`` (jumps only)."""
    with open(path, "w", encoding="ascii") as fh:
        fh.write("path_id,event_index,time,pre_value,post_value\n")
        for i, p in enumerate(paths):
            for j, (t, pre, post) in enumerate(p.jumps):
                fh.write(f"{i},{j},{float(t)!r},{float(pre)!r},{float(post)!r}\n")
