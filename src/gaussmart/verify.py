"""Statistical test harness: every closed-form law becomes a pass/fail check.

Gate thresholds are fixed package-wide: Kolmogorov-Smirnov p-values must
exceed 0.001 and moment statistics must sit within 4 standard errors, sizes
chosen so the family-wise false-failure rate of a full battery stays well
under 5% at the documented sample sizes.  ``standard_battery`` and
``null_calibration`` iterate one table, ``EXPERIMENTS``: adding a gate is
one row plus its function.  A report records its sample size and sub-seed
``derive_seed(seed, tag)``; a rerun also needs the family, tag and sizes.

Heavy-tail policy: the first-jump-time *mean* is reported but never gated,
because the jump law has an infinite second moment and the sample mean's
error does not concentrate; the distributional checks (KS, median,
survival) gate instead.
"""

from __future__ import annotations

import ctypes
import functools
import hashlib
import math
from collections import namedtuple
from dataclasses import asdict, dataclass, field

import numpy as np

from .errors import DomainError, FamilyError
from .pathsim import (
    check_grid_times,
    first_jump_times,
    simulate_event_terminals,
    simulate_grid_ensemble,
    transition_pairs,
)
from .sampler import path_bundle, verify_bundle
from .semigroup import (
    SubordinatorFamily,
    brownian_family,
    calibrate,
    compound_poisson,
    delta,
    laplace,
    nu_total,
    poisson_family,
    require_calibrated,
)

KS_P_FLOOR = 0.001
Z_BOUND = 4.0

#: smallest samples the gates accept, and the floors of the EXPERIMENTS rows
MIN_MARGINAL = 1000  # gaussian_marginal samples
MIN_PAIRS = 100_000  # cross_moment pairs
MIN_QV_PATHS = 2  # quadratic_variation paths: one has no standard error
MIN_JUMPS = 10_000  # jump_times first jumps
MIN_MODE = 10_000  # mode_agreement samples per mode

#: martingale_binned: quantile bins of X_s, and the fewest pairs per bin
_MARTINGALE_BINS, _MARTINGALE_MIN_COUNT = 10, 20
#: conditional_kurtosis: central-bin half-width in units of sqrt(s),
#: bootstrap resamples, and the fewest pairs in the bin
_KURTOSIS_HALF_WIDTH, _KURTOSIS_BOOT, _KURTOSIS_MIN_BIN = 0.05, 200, 1000


def derive_seed(seed: int, tag: str) -> int:
    """Stable 64-bit sub-seed for a named experiment."""
    digest = hashlib.blake2b(f"{seed}:{tag}".encode(), digest_size=8).digest()
    return int.from_bytes(digest, "big")


@dataclass
class StatReport:
    """Outcome of one statistical or numerical check."""

    test_name: str
    n_samples: int
    statistic: float
    reference: object
    p_value: float | None
    tolerance: str
    passed: bool
    status: str  # pass | fail | inconclusive
    seed: int | None
    details: dict = field(default_factory=dict)

    def to_dict(self) -> dict:
        return _jsonable(asdict(self))


def _jsonable(obj):
    if isinstance(obj, dict):
        return {str(k): _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, np.ndarray):
        obj = obj.tolist()
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    if isinstance(obj, (np.bool_, bool)):  # before int: bool is an int subclass
        return bool(obj)
    if isinstance(obj, (np.floating, float)):
        v = float(obj)
        return v if math.isfinite(v) else repr(v)
    if isinstance(obj, (np.integer, int)):
        return int(obj)
    return obj


def _report(
    name, n, statistic, reference, p_value, tolerance, passed, seed, details, status=None
):
    """One StatReport; ``status`` defaults to pass or fail by ``passed``."""
    return StatReport(
        test_name=name,
        n_samples=int(n),
        statistic=float(statistic),
        reference=reference,
        p_value=None if p_value is None else float(p_value),
        tolerance=tolerance,
        passed=bool(passed),
        status=status or ("pass" if passed else "fail"),
        seed=seed,
        details=details,
    )


def _sample(x) -> np.ndarray:
    """A sample as a float array; it must be 1-d."""
    x = np.asarray(x, dtype=float)
    if x.ndim != 1:
        raise DomainError(f"a sample must be a 1-d array, got shape {x.shape}")
    return x


def _pair_arrays(xs, xt):
    """(X_s, X_t) samples as float arrays; they must be equal-length and 1-d."""
    xs, xt = _sample(xs), _sample(xt)
    if xs.shape != xt.shape:
        raise DomainError(
            f"X_s and X_t must be equal-length 1-d arrays, got shapes {xs.shape} and {xt.shape}"
        )
    return xs, xt


def test_gaussian_marginal(samples, t: float, seed: int | None = None) -> StatReport:
    """KS against N(0, t) plus z-scores for the first four moments."""
    samples = _sample(samples)
    tolerance = "KS p > 0.001 and moment |z| < 4"
    n = samples.size
    if n < MIN_MARGINAL:
        raise DomainError(f"need at least {MIN_MARGINAL} samples")
    if t <= 0:
        raise DomainError("t must be > 0")
    if np.std(samples) == 0.0:
        return _report(
            "gaussian_marginal", n, math.inf, f"N(0, {t})", 0.0,
            tolerance, False, seed, {"error": "degenerate sample with zero variance"},
        )
    from scipy import stats  # imported here: it would double the package's start-up
    ks = stats.kstest(samples, "norm", args=(0.0, math.sqrt(t)))
    m1 = samples.mean()
    m2 = np.mean(samples**2)
    m3 = np.mean(samples**3)
    m4 = np.mean(samples**4)
    # standard errors of raw moments under the exact N(0, t) null
    z = np.array(
        [
            m1 / math.sqrt(t / n),
            (m2 - t) / (t * math.sqrt(2.0 / n)),
            m3 / math.sqrt(15.0 * t**3 / n),
            (m4 - 3.0 * t**2) / math.sqrt(96.0 * t**4 / n),
        ]
    )
    passed = ks.pvalue > KS_P_FLOOR and np.all(np.abs(z) < Z_BOUND)
    return _report(
        "gaussian_marginal", n, ks.statistic, f"N(0, {t})", ks.pvalue,
        tolerance, passed, seed,
        {"moment_z": z.tolist(), "mean": m1, "variance": m2 - m1**2},
    )


def test_martingale_binned(xs, xt, s: float, t: float, seed: int | None = None) -> StatReport:
    """Per-decile mean of X_t - X_s must vanish within 4 standard errors."""
    xs, xt = _pair_arrays(xs, xt)
    tolerance = "all bins within 4 SE of 0"
    edges = np.quantile(xs, np.linspace(0.0, 1.0, _MARTINGALE_BINS + 1))
    idx = np.clip(np.searchsorted(edges, xs, side="right") - 1, 0, _MARTINGALE_BINS - 1)
    diff = xt - xs
    bin_means, bin_ses, counts = [], [], []
    inconclusive = False
    for bin_id in range(_MARTINGALE_BINS):
        sel = diff[idx == bin_id]
        counts.append(sel.size)
        if sel.size < _MARTINGALE_MIN_COUNT:
            inconclusive = True
            bin_means.append(math.nan)
            bin_ses.append(math.nan)
            continue
        bin_means.append(float(sel.mean()))
        bin_ses.append(float(sel.std(ddof=1) / math.sqrt(sel.size)))
    details = {"bin_means": bin_means, "bin_ses": bin_ses, "bin_counts": counts}
    if inconclusive:
        return _report(
            "martingale_binned", xs.size, math.nan, 0.0, None,
            tolerance, False, seed, details, status="inconclusive",
        )
    zs = np.array(
        [abs(m) / se if se > 0 else (0.0 if m == 0 else math.inf)
         for m, se in zip(bin_means, bin_ses)]
    )
    passed = bool(np.all(zs < Z_BOUND))
    return _report(
        "martingale_binned", xs.size, float(zs.max()), 0.0, None,
        tolerance, passed, seed, details,
    )


def test_cross_moment(
    xs, xt, s: float, t: float, family: SubordinatorFamily, seed: int | None = None
) -> StatReport:
    """E[X_s^2 X_t^2] against s t + 2 s^{1+delta} t^{1-delta}.

    Nondegenerate families must also sit at least 4 standard errors above
    the jointly-Gaussian value s t + 2 s^2 (the non-Gaussianity witness).
    """
    xs, xt = _pair_arrays(xs, xt)
    n = xs.size
    if n < MIN_PAIRS:
        raise DomainError(f"cross-moment test needs at least {MIN_PAIRS} pairs")
    d = delta(family)
    target = s * t + 2.0 * s ** (1.0 + d) * t ** (1.0 - d)
    gaussian_value = s * t + 2.0 * s**2
    w = xs**2 * xt**2
    mean = float(w.mean())
    se = float(w.std(ddof=1) / math.sqrt(n))
    match_ok = abs(mean - target) <= Z_BOUND * se
    degenerate = d >= 1.0 - 1e-12
    witness_ok = True if degenerate else (mean - gaussian_value) >= Z_BOUND * se
    passed = match_ok and witness_ok
    return _report(
        "cross_moment", n, mean, target, None,
        "within 4 SE of target; >= 4 SE above Gaussian value", passed, seed,
        {
            "se": se,
            "gaussian_value": gaussian_value,
            "z_target": (mean - target) / se if se else 0.0,
            "z_gaussian": (mean - gaussian_value) / se if se else 0.0,
            "delta": d,
        },
    )


def test_conditional_kurtosis(
    xs, xt, s: float, t: float, family: SubordinatorFamily, seed: int | None = None
) -> StatReport:
    """Kurtosis of X_t over the central X_s bin against the closed form.

    Conditional on X_s = 0 the transition value is a variance mixture of
    Gaussians, so its kurtosis is 3 E[(1-R)^2] / (E[1-R])^2, strictly above
    3 unless the mixing is deterministic.
    """
    xs, xt = _pair_arrays(xs, xt)
    tolerance = "within 4 bootstrap SE"
    sigma = math.sqrt(t / s)
    half_width = _KURTOSIS_HALF_WIDTH * math.sqrt(s)
    sel = xt[np.abs(xs) < half_width]
    details = {"bin_count": int(sel.size), "bin_half_width": half_width}
    l1 = laplace(family, sigma, 1.0)
    l2 = laplace(family, sigma, 2.0)
    target = 3.0 * (1.0 - 2.0 * l1 + l2) / (1.0 - l1) ** 2
    if sel.size < _KURTOSIS_MIN_BIN:
        return _report(
            "conditional_kurtosis", xs.size, math.nan, target, None,
            tolerance, False, seed, details, status="inconclusive",
        )
    # each resample gathers the powers: the same values as raising its draw
    sq, quad = sel**2, sel**4
    kurt = float(np.mean(quad) / np.mean(sq) ** 2)
    boot_seed = derive_seed(seed if seed is not None else 0, "kurtosis-bootstrap")
    bundle = verify_bundle(boot_seed, sel.size)
    boot = np.empty(_KURTOSIS_BOOT)
    for bi in range(_KURTOSIS_BOOT):
        pick = np.minimum((bundle.uniforms(1)[0] * sel.size).astype(int), sel.size - 1)
        boot[bi] = np.mean(quad[pick]) / np.mean(sq[pick]) ** 2
    se = float(boot.std(ddof=1))
    passed = abs(kurt - target) <= Z_BOUND * se
    details.update({"bootstrap_se": se, "z": (kurt - target) / se if se else 0.0})
    return _report(
        "conditional_kurtosis", xs.size, kurt, target, None,
        tolerance, passed, seed, details,
    )


def test_quadratic_variation(
    values, times, family: SubordinatorFamily, seed: int | None = None
) -> StatReport:
    """Discrete compensator sum against delta*t + (1-delta) int X^2/s ds.

    ``values`` has one row per path on the grid ``times``, which starts at
    (0, 0).  Both sides are taken over the window [t_1, t_end] (the
    integral is a trapezoid from the first positive time, and the
    exactly-Gaussian first step contributes t_1 to each side identically,
    so it is dropped from the residual).  Also checks E[qv] = t_end using
    the full expression.  A grid that is not valid, does not start at 0 or
    does not match the values raises DomainError, and so do fewer than 2
    paths, which have no standard error.
    """
    tolerance = "mean residual within 4 SE of 0; E[qv] = t within 4 SE"
    times = check_grid_times(times)
    values = np.asarray(values, dtype=float)
    if values.ndim != 2 or values.shape[1] != times.size:
        raise DomainError(
            f"values must have one row per path and {times.size} columns, got {values.shape}"
        )
    n = values.shape[0]
    if n < MIN_QV_PATHS:
        raise DomainError(
            f"quadratic-variation test needs at least {MIN_QV_PATHS} paths, got {n}"
        )
    if times[0] != 0.0 or np.any(values[:, 0] != 0.0):
        raise DomainError("paths must start at (time, value) = (0, 0)")
    if times.size < 65:
        return _report(
            "quadratic_variation", n, math.nan, 0.0, None,
            tolerance, False, seed,
            {"error": "grid too coarse; need at least 64 steps"}, status="inconclusive",
        )
    d = delta(family)
    t_end = times[-1]
    tk, tk1 = times[1:-1], times[2:]
    const_part = np.sum(tk1 * (1.0 - (tk / tk1) ** d))
    sq_coeff = (tk1 / tk) ** (1.0 - d) - 1.0
    cond_sum = const_part + values[:, 1:-1] ** 2 @ sq_coeff
    integral = np.trapezoid(values[:, 1:] ** 2 / times[1:], times[1:], axis=1)
    window_rhs = d * (t_end - times[1]) + (1.0 - d) * integral
    qv_full = d * t_end + (1.0 - d) * integral
    residual = cond_sum - window_rhs
    mean_res = float(residual.mean())
    se_res = float(residual.std(ddof=1) / math.sqrt(n))
    mean_qv = float(qv_full.mean())
    se_qv = float(qv_full.std(ddof=1) / math.sqrt(n))
    tiny = 1e-12
    residual_ok = abs(mean_res) <= Z_BOUND * se_res + tiny
    expectation_ok = abs(mean_qv - t_end) <= Z_BOUND * se_qv + tiny
    passed = residual_ok and expectation_ok
    return _report(
        "quadratic_variation", n, mean_res, 0.0, None,
        tolerance, passed, seed,
        {
            "se_residual": se_res,
            "mean_qv": mean_qv,
            "se_qv": se_qv,
            "t_end": float(t_end),
            "n_steps": int(times.size - 1),
        },
    )


def test_jump_times(
    jump_times, s: float, family: SubordinatorFamily, seed: int | None = None
) -> StatReport:
    """First-jump times against the exact power-law (Pareto) law.

    With total jump mass nu the survival past q is (s/q)^{nu/2}.  Gates: KS
    p-value, survival at 2s within 4 binomial SE, median within 1% of
    s 2^{2/nu}.  The heavy-tailed sample mean is reported only; it is
    infinite for nu <= 2.

    The law depends on the family only through nu, and the KS statistic of
    draws s u^{-2/nu} against it is that of u against the uniform law, so
    at one seed the poisson and compound batteries report the same
    statistic: the gate checks the waiting-time inversion, which
    :func:`first_jump_times` shares with the event simulator's first jump,
    not the families' jumps.  Jump sizes are gated by ``mode_agreement``.
    """
    require_calibrated(family)
    if not compound_poisson(family):
        raise FamilyError(
            "jump-time law is available for drift-free finite-atom families only"
        )
    t_arr = _sample(jump_times)
    n = t_arr.size
    if n < MIN_JUMPS:
        raise DomainError(f"need at least {MIN_JUMPS} first-jump samples")
    nu = nu_total(family)
    half_nu = 0.5 * nu

    def cdf(q):
        q = np.asarray(q, dtype=float)
        return np.where(q <= s, 0.0, 1.0 - (s / np.maximum(q, s)) ** half_nu)

    from scipy import stats  # imported here: it would double the package's start-up
    ks = stats.kstest(t_arr, cdf)
    surv_target = 2.0**-half_nu
    surv_hat = float(np.mean(t_arr > 2.0 * s))
    surv_se = math.sqrt(surv_target * (1.0 - surv_target) / n)
    median_target = s * 2.0 ** (2.0 / nu)
    median_hat = float(np.median(t_arr))
    mean_target = nu * s / (nu - 2.0) if nu > 2.0 else math.inf
    ks_ok = ks.pvalue > KS_P_FLOOR
    surv_ok = abs(surv_hat - surv_target) <= Z_BOUND * surv_se
    median_ok = abs(median_hat - median_target) <= 0.01 * median_target
    passed = ks_ok and surv_ok and median_ok
    return _report(
        "jump_times", n, ks.statistic, "pareto(s, nu/2)", ks.pvalue,
        "KS p > 0.001; survival within 4 SE; median within 1%", passed, seed,
        {
            "survival_at_2s": surv_hat,
            "survival_target": surv_target,
            "median": median_hat,
            "median_target": median_target,
            "mean_reported_only": float(t_arr.mean()),
            "mean_target": mean_target,
            "min_time": float(t_arr.min()),
        },
    )


def test_mode_agreement(
    samples_grid, samples_event, seed: int | None = None,
    meta_grid: tuple | None = None, meta_event: tuple | None = None,
) -> StatReport:
    """Two-sample KS between grid-mode and event-mode terminal values."""
    if meta_grid != meta_event:
        raise DomainError(
            f"samples come from different setups: {meta_grid} vs {meta_event}"
        )
    a, b = _sample(samples_grid), _sample(samples_event)
    if min(a.size, b.size) < MIN_MODE:
        raise DomainError(f"need at least {MIN_MODE} samples per mode")
    from scipy import stats  # imported here: it would double the package's start-up
    ks = stats.ks_2samp(a, b)
    passed = ks.pvalue > KS_P_FLOOR
    return _report(
        "mode_agreement", a.size + b.size, ks.statistic, "equal laws", ks.pvalue,
        "two-sample KS p > 0.001", passed, seed,
        {"n_grid": int(a.size), "n_event": int(b.size), "meta": meta_grid},
    )


def test_continuity_in_probability(
    xs, xt, s: float, t: float, thresholds, seed: int | None = None
) -> StatReport:
    """Empirical P[|X_t - X_s| > c] <= (t - s)/c^2 plus 4 binomial SE."""
    xs, xt = _pair_arrays(xs, xt)
    n = xs.size
    diff = np.abs(xt - xs)
    rows = []
    ok = True
    for c in thresholds:
        p_hat = float(np.mean(diff > c))
        bound = (t - s) / c**2
        se = math.sqrt(max(p_hat * (1.0 - p_hat), 1.0 / n) / n)
        rows.append({"c": float(c), "p_hat": p_hat, "bound": bound, "se": se})
        ok &= p_hat <= bound + Z_BOUND * se
    worst = max(r["p_hat"] - r["bound"] for r in rows)
    return _report(
        "continuity_in_probability", n, worst, 0.0, None,
        "P[|dX| > c] <= (t-s)/c^2 + 4 SE for all c", ok, seed, {"thresholds": rows},
    )


# ---------------------------------------------------------------------------
# the experiments, and the battery and null calibration that iterate them
# ---------------------------------------------------------------------------

Experiment = namedtuple("Experiment", "tag size floor jumps simulate streams reference gates")


def _pair_row(tag, s, t, streams, gates):
    """Data ``(X_s, X_t, s, t)``: simulated (at least ``MIN_PAIRS``) or Brownian."""

    def simulate(family, sub, n, threads):
        return (*transition_pairs(family, s, t, sub, max(n, MIN_PAIRS), threads=threads), s, t)

    def reference(family, bundle):
        xs = math.sqrt(s) * bundle.normals()
        return xs, xs + math.sqrt(t - s) * bundle.normals(), s, t

    return Experiment(tag, "n_paths", MIN_MARGINAL, False, simulate, streams, reference, gates)


def _mode_row(s, t, streams):
    """Terminal values at t from N(0, s) at s by the grid and the event simulators."""

    def simulate(family, sub, n, threads):
        start = math.sqrt(s) * verify_bundle(sub, n).normals()
        grid = simulate_grid_ensemble(family, np.linspace(s, t, 17), derive_seed(sub, "grid"),
                                      n, start_values=start, threads=threads)
        bundle = path_bundle(derive_seed(sub, "event"), n)
        return grid[:, -1], simulate_event_terminals(family, s, start, t, bundle)

    def reference(family, bundle):
        return math.sqrt(t) * bundle.normals(), math.sqrt(t) * bundle.normals()

    return Experiment("mode", "n_mode", MIN_MODE, True, simulate, streams, reference,
                      lambda terminals, family, seed: [test_mode_agreement(
                          *terminals, seed=seed, meta_grid=(s, t), meta_event=(s, t))])


#: Every sub-experiment, in report order.  The battery draws a row's data by
#: ``simulate(family, sub_seed, size, threads)``, ``size`` being its argument
#: of that name (at least ``floor``); the null calibration by the exact
#: ``reference(family, bundle)`` from the verify streams ``(lanes, offset)``.
#: ``gates(data, family, seed)`` returns the row's reports.  ``jumps`` rows
#: need a drift-free finite-atom family.  Simulators and gates are looked up
#: when called, so replacing one (a tracer, a mutant) reaches every row.
EXPERIMENTS = (
    Experiment("marginal", "n_paths", MIN_MARGINAL, False,
               lambda family, sub, n, threads: simulate_grid_ensemble(
                   family, np.linspace(0.0, 1.0, 21), sub, n, threads=threads)[:, -1],
               (10_000, 0), lambda family, bundle: bundle.normals(),
               lambda z, family, seed: [test_gaussian_marginal(z, 1.0, seed=seed)]),
    _pair_row("pairs", 0.5, 2.0, (100_000, 20_000), lambda pairs, family, seed: [
        test_martingale_binned(*pairs, seed=seed),
        test_cross_moment(*pairs, family, seed=seed),
        test_continuity_in_probability(*pairs, (1.0, 2.0, 3.0), seed=seed),
    ]),
    _pair_row("kurtosis", 1.0, 4.0, (30_000, 150_000),
              lambda pairs, family, seed: [test_conditional_kurtosis(*pairs, family, seed=seed)]),
    Experiment("qv", "n_qv", MIN_QV_PATHS, False,
               lambda family, sub, n, threads: simulate_grid_ensemble(
                   family, np.linspace(0.0, 1.0, 257), sub, n, threads=threads),
               # Brownian grids are exact: paths on the sub-seed's own streams
               (0, 0), lambda family, bundle: simulate_grid_ensemble(
                   family, np.linspace(0.0, 1.0, 65), bundle.seed, 200),
               lambda values, family, seed: [test_quadratic_variation(
                   values, np.linspace(0.0, 1.0, values.shape[1]), family, seed=seed)]),
    Experiment("jumps", "n_jumps", MIN_JUMPS, True,
               lambda family, sub, n, threads: first_jump_times(family, 1.0, path_bundle(sub, n)),
               # the 1% median gate needs 1e5 draws: the median's standard error
               # at 1e4 would be comparable to the band itself
               (100_000, 200_000),
               lambda family, bundle: bundle.uniforms(1)[0] ** (-2.0 / nu_total(family)),
               lambda times, family, seed: [test_jump_times(times, 1.0, family, seed=seed)]),
    _mode_row(1.0, 2.0, (10_000, 300_000)),
)

#: In the battery a row's arrays live until it returns or a row here takes
#: them over; in the null calibration a repetition's streams and draws, until
#: it ends.  Released after their gates they leave glibc's heap untrimmed, and
#: perfbench's reference computation then runs 10-30% faster, moving op*_ref.
_TAKES_OVER = {"kurtosis": "pairs", "qv": "marginal"}


@functools.cache
def _malloc_trim():
    """glibc's ``malloc_trim``, or None where the C library has none."""
    try:
        return ctypes.CDLL(None).malloc_trim
    except (AttributeError, OSError, TypeError):
        return None


def _trims_heap(run):
    """Hand the heap's free pages back to the OS once ``run`` is done.

    Which of a battery's freed draws glibc keeps resident depends on where
    small long-lived blocks happened to land, so later 2 MiB allocations
    reuse pages in one process and fault them in in the next, 10-30% apart.
    """

    @functools.wraps(run)
    def trimmed(*args, **kwargs):
        try:
            return run(*args, **kwargs)
        finally:
            if (trim := _malloc_trim()) is not None:
                trim(0)

    return trimmed


@_trims_heap
def standard_battery(
    family: SubordinatorFamily,
    seed: int,
    n_paths: int = 200_000,
    n_qv: int = 10_000,
    n_jumps: int = 100_000,
    n_mode: int = 10_000,
    threads: int | None = 1,
) -> list[StatReport]:
    """The gated battery for one calibrated family: each row of
    ``EXPERIMENTS`` the family admits, under the sub-seed ``derive_seed(seed,
    tag)``.  A size below its floor raises DomainError before any simulation."""
    require_calibrated(family)
    sizes = {"n_paths": n_paths, "n_qv": n_qv, "n_jumps": n_jumps, "n_mode": n_mode}
    rows = [row for row in EXPERIMENTS if compound_poisson(family) or not row.jumps]
    for row in rows:
        if sizes[row.size] < row.floor:
            raise DomainError(f"{row.size} must be at least {row.floor}, got {sizes[row.size]}")
    reports, kept = [], {}
    for row in rows:
        sub = derive_seed(seed, row.tag)
        data = kept[_TAKES_OVER.get(row.tag, row.tag)] = row.simulate(
            family, sub, sizes[row.size], threads)
        reports += row.gates(data, family, sub)
    return reports


@_trims_heap
def null_calibration(seed: int, reps: int = 100) -> dict:
    """Every row's gates on its exact reference draw (the jump rows' as the
    calibrated poisson family, the others' as Brownian motion): {test_name:
    passing repetitions} plus the repetition count."""
    brown, poisson = brownian_family(), calibrate(poisson_family())
    counts: dict[str, int] = {}
    for rep in range(reps):
        sub = derive_seed(seed, f"null-{rep}")
        kept = []
        for row in EXPERIMENTS:
            family = poisson if row.jumps else brown
            bundle = verify_bundle(sub, *row.streams)
            kept.append((bundle, row.reference(family, bundle)))
            for report in row.gates(kept[-1][1], family, sub):
                counts[report.test_name] = counts.get(report.test_name, 0) + int(report.passed)
    counts["repetitions"] = reps
    return counts
