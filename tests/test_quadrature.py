import math

import numpy as np
import pytest

from gaussmart import QuadratureError, quadrature
from gaussmart.quadrature import adaptive_panels, gamma_expectation


def test_vector_integrand_matches_closed_forms():
    def f(x):
        return np.stack([np.sin(x), x**2, np.exp(-x), np.sqrt(x)]).reshape(2, 2, -1)

    val, err = adaptive_panels(f, 0.0, 2.0, rel_tol=1e-12)
    want = np.array([1.0 - math.cos(2.0), 8.0 / 3.0, -math.expm1(-2.0),
                     2.0 / 3.0 * 2.0**1.5]).reshape(2, 2)
    assert val.shape == err.shape == (2, 2)
    assert np.allclose(val, want, rtol=1e-11, atol=0)
    assert np.all(err <= 1e-12 * np.abs(val))


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
    val, err = gamma_expectation(alpha, rate, lambda u: np.stack([u, u * u]), rel_tol=1e-10)
    want = [alpha / rate, alpha * (alpha + 1.0) / rate**2]
    assert val == pytest.approx(want, rel=1e-9)
    assert np.all(err <= 1e-10 * np.abs(val))


def test_gamma_expectation_domain():
    with pytest.raises(ValueError):
        gamma_expectation(0.0, 1.0, lambda u: u)
    with pytest.raises(ValueError):
        adaptive_panels(lambda x: x, 1.0, 1.0)
