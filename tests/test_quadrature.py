import math

import numpy as np
import pytest
from scipy import stats

from gaussmart import QuadratureError, quadrature
from gaussmart.quadrature import _panel, _tail_limit, adaptive_panels, gamma_expectation


def test_vector_integrand_matches_closed_forms():
    def f(x):
        return np.stack([np.sin(x), x**2, np.exp(-x), np.sqrt(x)], axis=-1).reshape(-1, 2, 2)

    val, err = adaptive_panels(f, 0.0, 2.0, rel_tol=1e-12)
    want = np.array([1.0 - math.cos(2.0), 8.0 / 3.0, -math.expm1(-2.0),
                     2.0 / 3.0 * 2.0**1.5]).reshape(2, 2)
    assert val.shape == err.shape == (2, 2)
    assert np.allclose(val, want, rtol=1e-11, atol=0)
    assert np.all(err <= 1e-12 * np.abs(val))


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


def test_gamma_expectation_domain():
    with pytest.raises(ValueError):
        gamma_expectation(0.0, 1.0, lambda u: u)
    with pytest.raises(ValueError):
        adaptive_panels(lambda x: x, 1.0, 1.0)


@pytest.mark.parametrize("alpha", [0.01, 0.5, 0.855, 1.71, 10.0])
@pytest.mark.parametrize("rate", [1.0, 2.5])
def test_tail_limit_matches_scipy_isf(alpha, rate):
    want = stats.gamma.isf(quadrature._TAIL_MASS, alpha, scale=1.0 / rate)
    assert abs(_tail_limit(alpha, rate) - want) <= np.spacing(want)
