"""Log-convolution semigroups of mixing laws on [0, 1].

A family ``(G_sigma)_{sigma >= 1}`` of probability laws on [0, 1] that is
closed under multiplication of independent draws is represented through the
Laplace exponent ``psi`` of the nonnegative increments ``U_sigma = -ln
R_sigma``::

    E[R_sigma ** lam] = sigma ** (-psi(lam)),
    psi(lam) = beta * lam + integral (1 - exp(-lam * x)) nu(dx),

with drift ``beta >= 0`` and jump measure ``nu``.  Two representations are
supported: a finite atom list with optional drift (``compound``; the unit
atom with intensity ``c`` is the ``poisson`` shorthand, pure drift 2 is the
Brownian baseline), and the ``a * x**-1 * exp(-b*x)`` density (``gamma``,
infinite activity).  A family is *calibrated* when ``psi(1/2) = 1``, the
condition that makes the associated mixing recursion a martingale with
exactly Gaussian marginals.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

from .errors import CalibrationError, DomainError, FamilyError

GAMMA = "gamma"
COMPOUND = "compound"

#: |psi(1/2) - 1| must not exceed this for a family to count as calibrated.
CALIBRATION_TOL = 1e-12


@dataclass(frozen=True)
class SubordinatorFamily:
    """Parameters of one log-convolution semigroup.

    Exactly one parameter group is meaningful per ``kind``:

    - ``gamma``: shape rate ``a`` per unit of log scale, inverse scale ``b``.
    - ``compound``: drift ``beta >= 0`` plus atoms ``(location, weight)``.

    ``degenerate`` marks the pure-drift boundary case (deterministic mixing,
    Brownian motion); constructors reject it unless the flag is set
    explicitly because it exists only as a comparison baseline.
    """

    kind: str
    a: float = 0.0
    b: float = 0.0
    beta: float = 0.0
    atoms: tuple[tuple[float, float], ...] = ()
    calibrated: bool = False
    degenerate: bool = False

    def __post_init__(self):
        if self.kind not in (GAMMA, COMPOUND):
            raise FamilyError(f"unknown family kind: {self.kind!r}")
        params = (self.a, self.b, self.beta, *(v for atom in self.atoms for v in atom))
        if not all(math.isfinite(v) for v in params):
            # NaN would pass every sign test below and stall the samplers
            raise FamilyError("family parameters must be finite")
        if self.kind == GAMMA and (self.a <= 0 or self.b <= 0):
            raise FamilyError("gamma kind needs a > 0 and b > 0")
        if self.kind == COMPOUND:
            if self.beta < 0:
                raise FamilyError("drift beta must be >= 0")
            for x, w in self.atoms:
                if x <= 0 or w <= 0:
                    raise FamilyError("atom locations and weights must be > 0")
            if not self.atoms and not self.degenerate:
                raise FamilyError(
                    "pure-drift family is the degenerate (Brownian) case; "
                    "construct it with degenerate=True"
                )
            if self.atoms and self.degenerate:
                raise FamilyError("degenerate flag is reserved for pure drift")
        elif self.degenerate:
            raise FamilyError("degenerate flag is reserved for pure drift")


def poisson_family(c: float = 1.0) -> SubordinatorFamily:
    """Unit atom with intensity ``c``: Poisson increments with mean c ln sigma."""
    return compound_family([(1.0, c)])


def gamma_family(a: float = 1.0, b: float = 1.0) -> SubordinatorFamily:
    return SubordinatorFamily(kind=GAMMA, a=a, b=b)


def compound_family(atoms, beta: float = 0.0) -> SubordinatorFamily:
    return SubordinatorFamily(
        kind=COMPOUND, beta=beta, atoms=tuple((float(x), float(w)) for x, w in atoms)
    )


def brownian_family() -> SubordinatorFamily:
    """Degenerate pure-drift baseline: deterministic mixing, delta = 1."""
    return SubordinatorFamily(
        kind=COMPOUND, beta=2.0, atoms=(), calibrated=True, degenerate=True
    )


def nu_total(family: SubordinatorFamily) -> float:
    """Total jump-measure mass; inf for the gamma kind."""
    if family.kind == GAMMA:
        return math.inf
    return sum(w for _, w in family.atoms)


def psi(family: SubordinatorFamily, lam: float) -> float:
    """Laplace exponent at ``lam >= 0``; nondecreasing, concave, psi(0) = 0."""
    if lam < 0:
        raise DomainError(f"lambda must be >= 0, got {lam}")
    if family.kind == GAMMA:
        return family.a * math.log1p(lam / family.b)
    return family.beta * lam + sum(
        w * -math.expm1(-lam * x) for x, w in family.atoms
    )


def calibrate(family: SubordinatorFamily) -> SubordinatorFamily:
    """Rescale the family so that psi(1/2) = 1.

    psi is linear in (beta, nu), so a single scale factor applied to the
    intensity parameters (a, or beta and every atom weight) calibrates
    any valid family.  Families already within CALIBRATION_TOL are returned
    unchanged apart from the flag, which makes the operation idempotent.
    """
    raw = psi(family, 0.5)
    if raw <= 0.0:
        raise FamilyError("cannot calibrate a family with psi(1/2) = 0")
    if abs(raw - 1.0) <= CALIBRATION_TOL:
        return family if family.calibrated else replace(family, calibrated=True)
    scale = 1.0 / raw
    if family.kind == GAMMA:
        return replace(family, a=family.a * scale, calibrated=True)
    return replace(
        family,
        beta=family.beta * scale,
        atoms=tuple((x, w * scale) for x, w in family.atoms),
        calibrated=True,
    )


def require_calibrated(family: SubordinatorFamily) -> None:
    if not family.calibrated:
        raise CalibrationError("operation requires a calibrated family")


def delta(family: SubordinatorFamily) -> float:
    """psi(1)/2, the exponent of the conditional second moment.

    Calibration pins psi(1/2) = 1, and concavity then forces
    delta in [1/2, 1]; delta = 1 only for the degenerate pure-drift case.
    """
    require_calibrated(family)
    return psi(family, 1.0) / 2.0


def compound_poisson(family: SubordinatorFamily) -> bool:
    """Whether U is a compound Poisson process: no drift, finite jump measure.

    These are the families with a no-jump atom, exact event-driven paths
    and the power-law first-jump law.
    """
    return family.kind == COMPOUND and family.beta == 0 and bool(family.atoms)


def gamma_atom(family: SubordinatorFamily, sigma: float) -> float:
    """Probability that the mixing variable sticks at 1 over scale ``sigma``.

    Equals sigma ** -nu_total when the jump measure is finite and there is
    no drift; zero otherwise (drift or infinite activity); one at sigma = 1.
    """
    if sigma < 1.0:
        raise DomainError(f"sigma must be >= 1, got {sigma}")
    require_calibrated(family)
    if sigma == 1.0:
        return 1.0
    if not compound_poisson(family):
        return 0.0
    return sigma ** -nu_total(family)


def laplace(family: SubordinatorFamily, sigma: float, lam: float) -> float:
    """E[R_sigma ** lam] = sigma ** -psi(lam)."""
    if sigma < 1.0:
        raise DomainError(f"sigma must be >= 1, got {sigma}")
    return math.exp(-psi(family, lam) * math.log(sigma))


_FAMILY_KEYS = {
    "poisson": {"c"},
    GAMMA: {"a", "b"},
    COMPOUND: {"beta", "atoms", "degenerate"},
    "brownian": set(),
}


def family_from_config(spec: dict) -> SubordinatorFamily:
    """Build an uncalibrated family from the CLI config object.

    Schema: ``{"kind": "poisson"|"gamma"|"compound"|"brownian", ...parameters}``.
    "poisson" is shorthand for the unit-atom compound family and "brownian"
    for the degenerate one.  Keys that do not belong to the kind are rejected.
    """
    if not isinstance(spec, dict) or "kind" not in spec:
        raise FamilyError("family spec must be an object with a 'kind' key")
    spec = dict(spec)
    kind = spec.pop("kind")
    if not isinstance(kind, str) or kind not in _FAMILY_KEYS:
        raise FamilyError(f"unknown family kind: {kind!r}")
    unknown = set(spec) - _FAMILY_KEYS[kind]
    if unknown:
        raise FamilyError(f"keys {sorted(unknown)} do not belong to the {kind} kind")
    if kind == "brownian":
        return brownian_family()
    try:
        num = {k: float(spec[k]) for k in ("c", "a", "b", "beta") if k in spec}
        atoms = [(float(x), float(w)) for x, w in spec.get("atoms", [])]
    except (TypeError, ValueError) as exc:
        raise FamilyError(f"malformed {kind} family parameters: {exc}") from exc
    if kind == "poisson":
        return poisson_family(c=num.get("c", 1.0))
    if kind == GAMMA:
        return gamma_family(a=num.get("a", 1.0), b=num.get("b", 1.0))
    beta = num.get("beta", 0.0)
    if spec.get("degenerate", False):
        return SubordinatorFamily(kind=COMPOUND, beta=beta, atoms=(), degenerate=True)
    return compound_family(atoms, beta=beta)
