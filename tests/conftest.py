import signal

import pytest

from gaussmart import (
    brownian_family,
    calibrate,
    compound_family,
    gamma_family,
    poisson_family,
)


@pytest.fixture(scope="session")
def poisson_fam():
    return calibrate(poisson_family())


@pytest.fixture(scope="session")
def gamma_fam():
    return calibrate(gamma_family(b=1.0))


@pytest.fixture(scope="session")
def compound_fam():
    return calibrate(compound_family([(0.5, 1.0), (2.0, 0.25)]))


@pytest.fixture(scope="session")
def drift_fam():
    return calibrate(compound_family([(0.5, 1.0), (2.0, 0.25)], beta=0.5))


@pytest.fixture(scope="session")
def brownian_fam():
    return brownian_family()


@pytest.fixture
def time_limit():
    """Fail the test, instead of hanging the suite, after 10 s."""

    def expire(signum, frame):
        # pytest.fail, not TimeoutError: that is an OSError, which
        # cli.execute would turn into exit 2
        pytest.fail("the call did not return within 10 s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, 10.0)
    yield
    signal.setitimer(signal.ITIMER_REAL, 0.0)
    signal.signal(signal.SIGALRM, previous)
