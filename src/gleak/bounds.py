"""Distribution-free guarantee calculators for the estimation pipeline.

Covers the two uniform-deviation probabilities (validation-side and
training-side), the expected-error bounds whose closed forms combine an
exponential tail term with an erf integral term, and the (M, N) sample
complexity pair.  All bounds are evaluated verbatim from their derivations;
nothing is re-proved here.  Every calculator takes one ``BoundInputs``,
which has checked every field, and reads the two Bernstein denominators
from it, so (M, N) inverts the two probabilities by construction.
"""

from __future__ import annotations

import math
import sys
from dataclasses import asdict, dataclass

from .core import NumericalError, _require

_SQRT_PI = math.sqrt(math.pi)
POPOVICIU_SLACK = 1e-12  # sigma2 may pass (b-a)^2/4 by this fraction of it, for rounding


def _clip01(p: float) -> float:
    return min(1.0, max(0.0, p))


@dataclass(frozen=True)
class BoundInputs:
    """Inputs shared by the bound calculators.

    sigma2 is a variance proxy for Var(g(f(Y), X)); by Popoviciu it can
    never exceed (b-a)^2/4, which is checked up to a rounding slack relative
    to it, ``POPOVICIU_SLACK``.  hypothesis_count is the (finite)
    hypothesis-class size |H| and must be supplied by the caller;
    for learners over huge observable spaces the resulting bounds are
    documented as vacuous rather than silently truncated.  The closed forms
    are evaluated in floating point, so |H| may not exceed the largest float,
    and every real input must be finite.  The width b-a may still overflow
    to infinity; the calculators then report the bounds it makes infinite.
    """

    m: int
    n: int
    sigma2: float
    range: tuple[float, float]
    hypothesis_count: int
    epsilon: float
    delta: float
    split: float

    def __post_init__(self) -> None:
        a, b = self.range
        reals = (("sigma2", self.sigma2), ("range", a), ("range", b), ("epsilon", self.epsilon),
                 ("delta", self.delta), ("split", self.split))
        for name, value in reals:
            _require(math.isfinite(value), f"{name} must be finite, got {value!r}")
        _require(self.m >= 1 and self.n >= 1, "m and n must be >= 1")
        _require(self.sigma2 > 0, "sigma2 must be positive")
        _require(b > a, "range must satisfy a < b")
        half = self.width / 2  # squared as a product: a float ** raises on overflow
        _require(self.sigma2 <= half * half * (1.0 + POPOVICIU_SLACK),
                 "sigma2 exceeds Popoviciu bound (b-a)^2/4")
        _require(self.hypothesis_count >= 1, "hypothesis count must be >= 1")
        _require(
            self.hypothesis_count <= sys.float_info.max,
            f"hypothesis count must be <= {sys.float_info.max!r}, the largest float",
        )
        _require(self.epsilon > 0, "epsilon must be positive")
        _require(self.delta <= 1, f"delta is a failure probability, must be <= 1, got {self.delta}")
        _require(0 < self.split < self.delta, "need 0 < split < delta")

    @property
    def width(self) -> float:
        return self.range[1] - self.range[0]

    @property
    def eta(self) -> float:
        return 1.0 + self.width / 3.0

    @property
    def validation_denominator(self) -> float:  # D_v = 2 s^2 + 2(b-a) eps / 3
        return 2.0 * self.sigma2 + 2.0 * self.width * self.epsilon / 3.0

    @property
    def training_denominator(self) -> float:  # D_t = 8 s^2 + 4(b-a) eps / 3
        return 8.0 * self.sigma2 + 4.0 * self.width * self.epsilon / 3.0


@dataclass(frozen=True)
class BoundReport:
    validation_deviation_prob: float
    training_suboptimality_prob: float
    expected_validation_gap: float
    expected_training_gap: float
    branch: str
    M: int
    N: int

    def as_dict(self) -> dict:
        return asdict(self)


def validation_deviation_prob(inputs: BoundInputs) -> float:
    """P(|empirical - true| >= eps) <= 2 exp(-n eps^2 / D_v)."""
    return _clip01(2.0 * math.exp(-inputs.n * inputs.epsilon**2 / inputs.validation_denominator))


def training_suboptimality_prob(inputs: BoundInputs) -> float:
    """P(V_g - V(f*_m) >= eps) <= 2|H| exp(-m eps^2 / D_t)."""
    tail = math.exp(-inputs.m * inputs.epsilon**2 / inputs.training_denominator)
    return _clip01(2.0 * inputs.hypothesis_count * tail)


def expected_error_bounds(inputs: BoundInputs) -> tuple[float, float]:
    """Expected validation gap and expected training suboptimality.

    Each gap is the sum of an exponential tail term and an erf integral
    term (the two pieces of the underlying integral, split at sigma^2):

      validation: (4 eta / n) exp(-n s^2 / (2 eta)) + r_n sqrt(pi) erf(s^2 / r_n)
                  with r_n = sqrt(2 s^2 eta / n)
      training:   |H| (8 (1+eta) / m) exp(-m s^2 / (4 (1+eta)))
                  + |H| r_m sqrt(pi) erf(s^2 / r_m)
                  with r_m = sqrt(4 s^2 (1+eta) / m)

    where eta = 1 + (b-a)/3.  The reported branch label states which side
    of the sigma^2 <= epsilon split the inputs fall on.
    """
    s2 = inputs.sigma2
    eta = inputs.eta
    n, m, h = inputs.n, inputs.m, inputs.hypothesis_count

    r_n = math.sqrt(2.0 * s2 * eta / n)
    validation_gap = (4.0 * eta / n) * math.exp(-n * s2 / (2.0 * eta)) + (
        r_n * _SQRT_PI * math.erf(s2 / r_n)
    )

    r_m = math.sqrt(4.0 * s2 * (1.0 + eta) / m)
    training_gap = h * (8.0 * (1.0 + eta) / m) * math.exp(
        -m * s2 / (4.0 * (1.0 + eta))
    ) + h * r_m * _SQRT_PI * math.erf(s2 / r_m)

    return validation_gap, training_gap


def _ceil_size(denominator: float, epsilon: float, log_term: float) -> int | float:
    """ceil(denominator / eps^2 * log_term); inf if eps^2 underflows to 0 or it overflows."""
    eps2 = epsilon**2
    size = denominator / eps2 * log_term if eps2 else math.inf
    return math.ceil(size) if math.isfinite(size) else size


def sample_complexity(inputs: BoundInputs) -> tuple[int | float, int | float]:
    """Smallest (M, N) guaranteeing total failure probability <= delta.

    M = ceil[D_t / eps^2 * ln(2|H| / (delta - split))]
    N = ceil[D_v / eps^2 * ln(2 / split)]

    The log of M is taken as a sum of logs, so no |H| up to the largest
    float overflows the quotient 2|H| / (delta - split).  A size too large
    for a float comes back as inf, which ``bound_report`` names.
    """
    h, delta, split = inputs.hypothesis_count, inputs.delta, inputs.split
    log_m = math.log(2.0) + math.log(h) - math.log(delta - split)
    return (
        _ceil_size(inputs.training_denominator, inputs.epsilon, log_m),
        _ceil_size(inputs.validation_denominator, inputs.epsilon, math.log(2.0 / split)),
    )


def bound_report(inputs: BoundInputs) -> BoundReport:
    """Evaluate every calculator on one BoundInputs.

    A field that comes out infinite or NaN (the expected training gap grows
    with |H| and overflows near the largest float; M and N overflow as eps
    shrinks or b-a grows) is a numerical failure: JSON has no token for it.
    """
    report = BoundReport(
        validation_deviation_prob(inputs),
        training_suboptimality_prob(inputs),
        *expected_error_bounds(inputs),
        "small-variance" if inputs.sigma2 <= inputs.epsilon else "erf",
        *sample_complexity(inputs),
    )
    unbounded = [
        name for name, value in report.as_dict().items()
        if isinstance(value, float) and not math.isfinite(value)
    ]
    if unbounded:
        raise NumericalError(f"bound is not finite: {', '.join(unbounded)}")
    return report
