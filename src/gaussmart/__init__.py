"""Simulation and numerical verification of martingales with exactly
Gaussian marginals built from log-convolution semigroups of mixing laws."""

__version__ = "0.1.0"

from .errors import CalibrationError, DomainError, FamilyError, LatticeError, QuadratureError
from .generator import (
    Polynomial,
    SqrtTaylorMeasure,
    apply_generator,
    difference_quotient,
    gamma_limit_check,
    generator_check,
    sqrt_taylor_measure,
)
from .kernel import (
    GridSpec,
    KernelEval,
    ck_residual,
    kernel_eval,
    kernel_moment,
    kernel_moment_rate,
)
from .pathsim import (
    EventPaths,
    first_jump_times,
    simulate_event,
    simulate_event_terminals,
    simulate_events,
    simulate_grid_ensemble,
    transition_pairs,
)
from .sampler import (
    RandomStream,
    StreamBundle,
    VERIFY_STREAM_BASE,
    path_bundle,
    sample_subordinator_increment,
    verify_bundle,
)
from .semigroup import (
    SubordinatorFamily,
    brownian_family,
    calibrate,
    compound_family,
    compound_poisson,
    delta,
    gamma_atom,
    gamma_family,
    laplace,
    nu_total,
    poisson_family,
    psi,
)
from .verify import (
    StatReport,
    derive_seed,
    null_calibration,
    standard_battery,
    test_conditional_kurtosis,
    test_continuity_in_probability,
    test_cross_moment,
    test_gaussian_marginal,
    test_jump_times,
    test_martingale_binned,
    test_mode_agreement,
    test_quadratic_variation,
)
