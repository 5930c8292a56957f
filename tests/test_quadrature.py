import math

import numpy as np
import pytest
from scipy import stats

from gaussmart import QuadratureError, quadrature
from gaussmart.quadrature import (
    _panel,
    _pruned,
    _tail_limit,
    adaptive_panels,
    gamma_expectation,
)


def _closed_forms(x):
    return np.stack([np.sin(x), x**2, np.exp(-x), np.sqrt(x)], axis=-1).reshape(-1, 2, 2)


#: the integrals of ``_closed_forms`` over [0, 2]
_CLOSED_FORMS = np.array([1.0 - math.cos(2.0), 8.0 / 3.0, -math.expm1(-2.0),
                          2.0 / 3.0 * 2.0**1.5]).reshape(2, 2)


def test_vector_integrand_matches_closed_forms():
    val, err = adaptive_panels(_closed_forms, 0.0, 2.0, rel_tol=1e-12)
    assert val.shape == err.shape == (2, 2)
    assert np.allclose(val, _CLOSED_FORMS, rtol=1e-11, atol=0)
    assert np.all(err <= 1e-12 * np.abs(val))


def _centres(log):
    """An integrand that records the centre node of each panel it is
    evaluated on, and is a cubic there (every panel over-resolved)."""
    def f(x):
        log.append(float(x[7]))
        return x**3
    return f


@pytest.mark.parametrize("start", [[], [1.0], [0.3, 0.31, 1.9], list(np.linspace(0, 2, 40))],
                         ids=["cold", "halves", "uneven", "fine"])
def test_warm_start_matches_closed_forms(start):
    cold = adaptive_panels(_closed_forms, 0.0, 2.0, rel_tol=1e-12)
    subdivision = list(start)
    val, err = adaptive_panels(_closed_forms, 0.0, 2.0, rel_tol=1e-12, subdivision=subdivision)
    if not start:  # an empty start is the cold start, to the bit
        assert np.array_equal(val, cold[0]) and np.array_equal(err, cold[1])
    assert np.allclose(val, _CLOSED_FORMS, rtol=1e-11, atol=0)
    assert np.all(err <= 1e-12 * np.abs(val))
    # the returned subdivision: sorted interior breakpoints, and a start
    # from it is within the tolerance again
    assert subdivision == sorted(set(subdivision)) and all(0.0 < x < 2.0 for x in subdivision)
    again = list(subdivision)
    val2, err2 = adaptive_panels(_closed_forms, 0.0, 2.0, rel_tol=1e-12, subdivision=again)
    assert np.allclose(val2, _CLOSED_FORMS, rtol=1e-11, atol=0)
    assert np.all(err2 <= 1e-12 * np.abs(val2))


def test_starting_breakpoints_sorted_merged_and_clipped():
    log = []
    subdivision = [1.5, -1.0, 0.5, 1.5, 2.0, 0.0, 3.0, math.nan, math.inf, 0.5]
    val, _ = adaptive_panels(_centres(log), 0.0, 2.0, subdivision=subdivision)
    # the points inside (0, 2) cut it into [0, 0.5], [0.5, 1.5], [1.5, 2]
    assert log == pytest.approx([0.25, 1.0, 1.75], abs=1e-15)
    assert val == pytest.approx(4.0, rel=1e-14)
    # a cubic: each panel over-resolved, so every breakpoint is pruned
    assert subdivision == []


def test_kept_breakpoints_returned():
    # a kink at 0.3: the panels beside it stay, those far from it merge
    subdivision = []
    adaptive_panels(lambda x: np.sqrt(np.abs(x - 0.3)), 0.0, 1.0, rel_tol=1e-10,
                    subdivision=subdivision)
    assert len(subdivision) >= 2 and min(abs(x - 0.3) for x in subdivision) <= 1e-6
    # a start from them costs fewer panels than the cold start
    counts = []
    for start in ([], subdivision):
        calls = []
        adaptive_panels(lambda x: calls.append(1) or np.sqrt(np.abs(x - 0.3)), 0.0, 1.0,
                        rel_tol=1e-10, subdivision=list(start))
        counts.append(len(calls))
    assert counts[1] < counts[0]


def test_pruning_needs_an_over_resolved_panel_on_both_sides():
    bound = np.array([1.0, 2.0])
    tiny = 2.0**-16  # a component's error below 2**-15 of its bound

    def panels(errors):
        # heap entries (-max_err, seq, lo, hi, val, err) of [k, k + 1], not in order
        entries = [(-float(np.max(e)), k, float(k), float(k + 1), 0.0, np.array(e))
                   for k, e in enumerate(errors)]
        return entries[::-1]

    errors = [
        [0.0, 0.0],  # over-resolved
        [tiny, tiny],  # over-resolved
        [tiny, 4 * tiny],  # the second component at 2**-15 of its bound: not below
        [0.0, 0.0],  # over-resolved
        [2 * tiny, 0.0],  # the first at 2**-15: not below
    ]
    assert _pruned(panels(errors), bound) == [2.0, 3.0, 4.0]
    # a run of over-resolved panels merges into one
    errors[2], errors[4] = [0.0, 0.0], [0.5, 1.0]
    assert _pruned(panels(errors), bound) == [4.0]
    assert _pruned(panels([[0.0, 0.0]]), bound) == []


def test_one_product_panel_degrees():
    # G7 integrates x**13 exactly, K15 also x**14; G7's error on x**14 is
    # (7!)**4 / (15 (14!)**2) (the Gauss-Legendre remainder, f^(14) = 14!)
    val, err = _panel(lambda x: np.stack([x**13, x**14], axis=-1), 0.0, 1.0)
    assert val.shape == err.shape == (2,)
    assert val == pytest.approx([1.0 / 14.0, 1.0 / 15.0], rel=1e-14)
    assert err[0] <= 1e-15
    gauss_error = math.factorial(7) ** 4 / (15 * math.factorial(14) ** 2)
    assert err[1] == pytest.approx(gauss_error, rel=1e-6)
    # a scalar integrand gives scalars
    val, err = _panel(lambda x: x**13, 0.0, 1.0)
    assert np.ndim(val) == np.ndim(err) == 0 and val == pytest.approx(1.0 / 14.0, rel=1e-14)


def test_budget_exhaustion_carries_the_estimate(monkeypatch):
    monkeypatch.setattr(quadrature, "MAX_PANELS", 3)
    with pytest.raises(QuadratureError) as info:
        # the kink at 0.3 needs far more than three panels at this tolerance
        adaptive_panels(lambda x: np.sqrt(np.abs(x - 0.3)), 0.0, 1.0, rel_tol=1e-14)
    exc = info.value
    assert "3 panels" in str(exc)
    want = (0.3**1.5 + 0.7**1.5) * 2.0 / 3.0
    assert exc.estimate == pytest.approx(want, rel=1e-3)
    assert 0.0 < exc.error_bound < 1e-2


@pytest.mark.parametrize("n_start", [3, 5])
def test_budget_counts_the_starting_panels(monkeypatch, n_start):
    # four panels, or six, from the start: no bisection within the budget
    monkeypatch.setattr(quadrature, "MAX_PANELS", 4)
    calls = []

    def f(x):
        calls.append(1)
        return np.sqrt(np.abs(x - 0.3))

    start = list(np.linspace(0.0, 1.0, n_start + 2)[1:-1])
    subdivision = list(start)
    with pytest.raises(QuadratureError) as info:
        adaptive_panels(f, 0.0, 1.0, rel_tol=1e-14, subdivision=subdivision)
    assert len(calls) == n_start + 1
    assert "4 panels" in str(info.value)
    want = (0.3**1.5 + 0.7**1.5) * 2.0 / 3.0
    assert info.value.estimate == pytest.approx(want, rel=1e-3)
    assert subdivision == start  # a failed integral leaves the list as given
    # a start within the budget that converges needs no more
    log = []
    assert adaptive_panels(_centres(log), 0.0, 1.0, subdivision=[0.25, 0.5, 0.75]) == (
        pytest.approx(0.25, rel=1e-14), pytest.approx(0.0, abs=1e-15))
    assert len(log) == 4


@pytest.mark.usefixtures("time_limit")
@pytest.mark.parametrize(
    "f",
    [
        lambda x: 1.0 / x,  # infinite at the panel's centre node
        lambda x: np.where(x > 0.5, np.nan, 1.0),
    ],
    ids=["inf", "nan"],
)
def test_non_finite_integrand_raises_at_once(f):
    calls = 0

    def counted(x):
        nonlocal calls
        calls += 1
        return f(x)

    with pytest.raises(QuadratureError, match="not finite"), np.errstate(all="ignore"):
        adaptive_panels(counted, -1.0, 1.0)
    assert calls == 1


@pytest.mark.parametrize("alpha", [0.01, 0.5, 3.0])
def test_gamma_expectation_first_two_moments(alpha):
    rate = 2.0
    val, err = gamma_expectation(alpha, rate, lambda u: np.stack([u, u * u], axis=-1),
                                 rel_tol=1e-10)
    want = [alpha / rate, alpha * (alpha + 1.0) / rate**2]
    assert val == pytest.approx(want, rel=1e-9)
    assert np.all(err <= 1e-10 * np.abs(val))


@pytest.mark.parametrize("alpha", [0.5, 3.0])
def test_gamma_expectation_passes_the_subdivision(alpha):
    calls = []

    def g(u):
        calls.append(1)
        return np.stack([u, u * u], axis=-1)

    subdivision = []
    cold = gamma_expectation(alpha, 2.0, g, subdivision=subdivision)
    n_cold = len(calls)
    assert subdivision and all(x > 0.0 for x in subdivision)
    warm = gamma_expectation(alpha, 2.0, g, subdivision=subdivision)
    assert len(calls) - n_cold < n_cold  # the second starts where the first ended
    assert warm[0] == pytest.approx(cold[0], rel=1e-9)


def test_gamma_expectation_domain():
    with pytest.raises(ValueError):
        gamma_expectation(0.0, 1.0, lambda u: u)
    with pytest.raises(ValueError):
        adaptive_panels(lambda x: x, 1.0, 1.0)


@pytest.mark.parametrize("alpha", [quadrature.MIN_GAMMA_SHAPE, 3e-4])
@pytest.mark.parametrize("rate", [1e-3, 1.0, 1e3])
def test_gamma_expectation_at_the_shape_floor(alpha, rate):
    # the mass and the Laplace transform E[exp(-rate V)] = 2**-alpha
    val, _ = gamma_expectation(alpha, rate,
                               lambda u: np.stack([np.ones_like(u), np.exp(-rate * u)], axis=-1))
    assert abs(val[0] - 1.0) < 1e-13 and abs(val[1] - 2.0**-alpha) < 1e-13


@pytest.mark.parametrize("alpha", [1e-4, 2.4e-4])
def test_gamma_expectation_below_the_shape_floor_refused(alpha):
    # here the nodes miss the mass near u = 0: at 1e-4 the mass came out
    # 1.000394 with an error estimate of 3.3e-15, so it is refused instead
    with pytest.raises(QuadratureError, match=f"gamma shape {alpha!r} is below"):
        gamma_expectation(alpha, 1.0, np.ones_like)


@pytest.mark.parametrize("alpha", [0.01, 0.5, 0.855, 1.71, 10.0])
@pytest.mark.parametrize("rate", [1.0, 2.5])
def test_tail_limit_matches_scipy_isf(alpha, rate):
    want = stats.gamma.isf(quadrature._TAIL_MASS, alpha, scale=1.0 / rate)
    assert abs(_tail_limit(alpha, rate) - want) <= np.spacing(want)
