import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gaussmart import (
    CalibrationError,
    DomainError,
    FamilyError,
    SubordinatorFamily,
    calibrate,
    compound_family,
    delta,
    gamma_atom,
    gamma_family,
    laplace,
    nu_total,
    poisson_family,
    psi,
)

# frozen from 30-digit evaluation of the closed forms
C_POISSON = 2.5414940825367984  # 1 / (1 - e^{-1/2})
A_GAMMA_B1 = 2.4663034623764317  # 1 / ln(3/2)
DELTA_POISSON = 0.8032653298563167  # (1 + e^{-1/2}) / 2
DELTA_GAMMA_B1 = 0.8547556456757274  # ln 2 / (2 ln 1.5)


def families():
    return st.one_of(
        st.floats(0.1, 20.0).map(lambda c: calibrate(poisson_family(c))),
        st.tuples(st.floats(0.1, 10.0), st.floats(0.1, 10.0)).map(
            lambda ab: calibrate(gamma_family(a=ab[0], b=ab[1]))
        ),
        st.lists(
            st.tuples(st.floats(0.05, 5.0), st.floats(0.05, 5.0)),
            min_size=1,
            max_size=4,
        ).map(lambda atoms: calibrate(compound_family(atoms))),
    )


class TestPsi:
    def test_poisson_calibration_identity(self, poisson_fam):
        assert psi(poisson_fam, 0.5) == pytest.approx(1.0, abs=1e-13)

    def test_zero(self, poisson_fam, gamma_fam, compound_fam):
        for fam in (poisson_fam, gamma_fam, compound_fam):
            assert psi(fam, 0.0) == 0.0

    def test_gamma_value(self):
        fam = gamma_family(a=A_GAMMA_B1, b=1.0)
        assert psi(fam, 1.0) == pytest.approx(A_GAMMA_B1 * math.log(2.0), rel=1e-14)
        assert psi(fam, 1.0) == pytest.approx(1.7095112913514548, rel=1e-12)

    def test_negative_lambda_rejected(self, poisson_fam):
        with pytest.raises(DomainError):
            psi(poisson_fam, -0.1)


class TestCalibrate:
    def test_poisson(self):
        fam = calibrate(poisson_family(c=1.0))
        assert nu_total(fam) == pytest.approx(C_POISSON, rel=1e-14)
        assert fam.atoms[0][0] == 1.0
        assert fam.calibrated

    def test_gamma(self):
        fam = calibrate(gamma_family(a=1.0, b=1.0))
        assert fam.a == pytest.approx(A_GAMMA_B1, rel=1e-14)

    def test_idempotent(self, poisson_fam):
        again = calibrate(poisson_fam)
        assert again == poisson_fam

    def test_compound_scales_drift_and_weights(self):
        fam = calibrate(compound_family([(1.0, 2.0)], beta=1.0))
        assert psi(fam, 0.5) == pytest.approx(1.0, abs=1e-13)
        # relative mix of drift and jumps is preserved
        assert fam.beta / fam.atoms[0][1] == pytest.approx(0.5, rel=1e-12)

    def test_degenerate_rejected_without_flag(self):
        with pytest.raises(FamilyError):
            compound_family([], beta=2.0)

    def test_brownian_is_calibrated(self, brownian_fam):
        assert psi(brownian_fam, 0.5) == 1.0
        assert brownian_fam.degenerate


class TestDelta:
    def test_poisson(self, poisson_fam):
        assert delta(poisson_fam) == pytest.approx(DELTA_POISSON, abs=1e-13)

    def test_gamma(self, gamma_fam):
        assert delta(gamma_fam) == pytest.approx(DELTA_GAMMA_B1, abs=1e-13)

    def test_pure_drift_boundary(self, brownian_fam):
        assert delta(brownian_fam) == 1.0

    def test_uncalibrated_rejected(self):
        with pytest.raises(CalibrationError):
            delta(poisson_family())


class TestGammaAtom:
    def test_poisson_sqrt2(self, poisson_fam):
        # sigma^{-c} at sigma = sqrt(2); frozen from 30-digit evaluation
        assert gamma_atom(poisson_fam, math.sqrt(2.0)) == pytest.approx(
            0.4144451136983333, rel=1e-12
        )

    def test_gamma_kind_is_zero(self, gamma_fam):
        assert gamma_atom(gamma_fam, 1.5) == 0.0

    def test_sigma_one(self, poisson_fam, gamma_fam):
        assert gamma_atom(poisson_fam, 1.0) == 1.0
        assert gamma_atom(gamma_fam, 1.0) == 1.0

    def test_drift_kills_atom(self):
        fam = calibrate(compound_family([(1.0, 1.0)], beta=0.5))
        assert gamma_atom(fam, 2.0) == 0.0

    def test_domain(self, poisson_fam):
        with pytest.raises(DomainError):
            gamma_atom(poisson_fam, 0.9)


class TestLaplace:
    def test_martingale_moment(self, poisson_fam, gamma_fam, compound_fam):
        # E[sqrt(R)] = 1/sigma for every calibrated family
        for fam in (poisson_fam, gamma_fam, compound_fam):
            for s, t in ((0.5, 2.0), (1.0, 1.01), (3.0, 9.0)):
                sigma = math.sqrt(t / s)
                assert laplace(fam, sigma, 0.5) == pytest.approx(
                    1.0 / sigma, rel=1e-12
                )

    def test_lambda_zero(self, gamma_fam):
        assert laplace(gamma_fam, 5.0, 0.0) == 1.0

    def test_poisson_value(self, poisson_fam):
        # 2^{-psi(1)} = 2^{-(1+e^{-1/2})}; frozen from 30-digit evaluation
        assert laplace(poisson_fam, 2.0, 1.0) == pytest.approx(
            0.3283870954934342, rel=1e-12
        )


@settings(max_examples=60, deadline=None)
@given(fam=families(), lam1=st.floats(0.0, 20.0), lam2=st.floats(0.0, 20.0))
def test_psi_monotone_and_midpoint_concave(fam, lam1, lam2):
    lo, hi = sorted((lam1, lam2))
    assert psi(fam, lo) <= psi(fam, hi) + 1e-12
    mid = psi(fam, 0.5 * (lo + hi))
    assert mid >= 0.5 * (psi(fam, lo) + psi(fam, hi)) - 1e-12


@settings(max_examples=60, deadline=None)
@given(fam=families())
def test_calibrated_delta_in_range(fam):
    assert abs(psi(fam, 0.5) - 1.0) <= 1e-12
    d = delta(fam)
    assert 0.5 <= d <= 1.0 + 1e-12


@settings(max_examples=60, deadline=None)
@given(
    fam=families(),
    sigma=st.floats(1.0, 10.0),
    tau=st.floats(1.0, 10.0),
    lam=st.floats(0.0, 5.0),
)
def test_laplace_semigroup_law(fam, sigma, tau, lam):
    lhs = laplace(fam, sigma, lam) * laplace(fam, tau, lam)
    rhs = laplace(fam, sigma * tau, lam)
    assert lhs == pytest.approx(rhs, abs=1e-12)


@settings(max_examples=60, deadline=None)
@given(fam=families(), sigma=st.floats(1.0, 10.0), tau=st.floats(1.0, 10.0))
def test_gamma_atom_multiplicative(fam, sigma, tau):
    lhs = gamma_atom(fam, sigma) * gamma_atom(fam, tau)
    rhs = gamma_atom(fam, sigma * tau)
    assert lhs == pytest.approx(rhs, abs=1e-12)


class TestFamilyFromConfig:
    """The constructors every config or flag family goes through refuse
    invalid parameters; the parsing itself is tested in test_cli."""

    def test_poisson(self):
        fam = poisson_family(2.0)
        assert fam.kind == "compound" and fam.atoms == ((1.0, 2.0),)
        assert fam == compound_family([(1.0, 2.0)])

    def test_invalid_parameters_rejected(self):
        with pytest.raises(FamilyError):
            gamma_family(a=-1.0)
        with pytest.raises(FamilyError):
            SubordinatorFamily(kind="compound", atoms=((1.0, -1.0),))

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_parameters_rejected(self, bad):
        # NaN fails every sign test, so it needs its own check
        constructors = [
            lambda: poisson_family(bad),
            lambda: gamma_family(a=bad),
            lambda: gamma_family(b=bad),
            lambda: compound_family([(bad, 1.0)]),
            lambda: compound_family([(1.0, bad)]),
            lambda: compound_family([(1.0, 1.0)], beta=bad),
            lambda: SubordinatorFamily(kind="compound", beta=bad, degenerate=True),
        ]
        for build in constructors:
            with pytest.raises(FamilyError):
                build()

    def test_empty_family_cannot_calibrate(self):
        with pytest.raises(FamilyError):
            calibrate(SubordinatorFamily(kind="compound", degenerate=True))
