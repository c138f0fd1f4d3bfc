"""Distribution-free guarantee calculators for the estimation pipeline.

Covers the two uniform-deviation probabilities (validation-side and
training-side), the expected-error bounds whose closed forms combine an
exponential tail term with an erf integral term, and the (M, N) sample
complexity pair.  All bounds are evaluated verbatim from their derivations;
nothing is re-proved here.
"""

from __future__ import annotations

import math
import sys
from dataclasses import asdict, dataclass

from .core import NumericalError, _pair_gains, _require

_SQRT_PI = math.sqrt(math.pi)


def _clip01(p: float) -> float:
    return min(1.0, max(0.0, p))


def plugin_sigma2(predictor, validation, gain) -> float:
    """Plug-in variance of g(f(y), x) for a fixed predictor on held-out
    pairs: the mean squared deviation, dividing by n (ddof 0)."""
    return float((_pair_gains(predictor, [validation], gain)[0] - gain.shift).var())


@dataclass(frozen=True)
class BoundInputs:
    """Inputs shared by the bound calculators.

    sigma2 is a variance proxy for Var(g(f(Y), X)); by Popoviciu it can
    never exceed (b-a)^2/4, which is asserted.  hypothesis_count is the
    (finite) hypothesis-class size |H| and must be supplied by the caller;
    for learners over huge observable spaces the resulting bounds are
    documented as vacuous rather than silently truncated.  The closed forms
    are evaluated in floating point, so |H| may not exceed the largest float.
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
        _require(self.m >= 1 and self.n >= 1, "m and n must be >= 1")
        _require(self.sigma2 > 0, "sigma2 must be positive")
        _require(b > a, "range must satisfy a < b")
        _require(
            self.sigma2 <= (b - a) ** 2 / 4 + 1e-12,
            "sigma2 exceeds Popoviciu bound (b-a)^2/4",
        )
        _require(self.hypothesis_count >= 1, "hypothesis count must be >= 1")
        _require(
            self.hypothesis_count <= sys.float_info.max,
            f"hypothesis count must be <= {sys.float_info.max!r}, the largest float",
        )
        _require(self.epsilon > 0, "epsilon must be positive")
        _require(self.delta <= 1, f"delta is a failure probability, must be <= 1, got {self.delta}")
        _require(0 < self.split < self.delta, "need 0 < split < delta")

    @property
    def eta(self) -> float:
        a, b = self.range
        return 1.0 + (b - a) / 3.0


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


def validation_deviation_prob(
    n: int, sigma2: float, value_range: tuple[float, float], epsilon: float
) -> float:
    """P(|empirical - true| >= eps) <= 2 exp(-n eps^2 / (2 s^2 + 2(b-a) eps / 3))."""
    _require(n >= 1 and sigma2 > 0 and epsilon > 0, "inputs must be positive")
    a, b = value_range
    _require(b > a, "range must satisfy a < b")
    return _clip01(
        2.0
        * math.exp(-n * epsilon**2 / (2.0 * sigma2 + 2.0 * (b - a) * epsilon / 3.0))
    )


def training_suboptimality_prob(
    m: int,
    sigma2: float,
    hypothesis_count: int,
    value_range: tuple[float, float],
    epsilon: float,
) -> float:
    """P(V_g - V(f*_m) >= eps) <= 2|H| exp(-m eps^2 / (8 s^2 + 4(b-a) eps / 3))."""
    _require(m >= 1 and sigma2 > 0 and epsilon > 0, "inputs must be positive")
    _require(hypothesis_count >= 1, "hypothesis count must be >= 1")
    a, b = value_range
    _require(b > a, "range must satisfy a < b")
    return _clip01(
        2.0
        * hypothesis_count
        * math.exp(-m * epsilon**2 / (8.0 * sigma2 + 4.0 * (b - a) * epsilon / 3.0))
    )


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


def sample_complexity(
    epsilon: float,
    delta: float,
    split: float,
    sigma2: float,
    value_range: tuple[float, float],
    hypothesis_count: int,
) -> tuple[int, int]:
    """Smallest (M, N) guaranteeing total failure probability <= delta.

    M = ceil[(8 s^2 + 4(b-a) eps/3) / eps^2 * ln(2|H| / (delta - split))]
    N = ceil[(2 s^2 + 2(b-a) eps/3) / eps^2 * ln(2 / split)]

    The log of M is taken as a sum of logs, so no |H| up to the largest
    float overflows the quotient 2|H| / (delta - split).
    """
    _require(epsilon > 0, "epsilon must be positive")
    _require(delta <= 1, f"delta is a failure probability, must be <= 1, got {delta}")
    _require(0 < split < delta, "need 0 < split < delta")
    _require(sigma2 > 0 and hypothesis_count >= 1, "inputs must be positive")
    a, b = value_range
    _require(b > a, "range must satisfy a < b")
    m_bound = (
        (8.0 * sigma2 + 4.0 * (b - a) * epsilon / 3.0)
        / epsilon**2
        * (math.log(2.0) + math.log(hypothesis_count) - math.log(delta - split))
    )
    n_bound = (
        (2.0 * sigma2 + 2.0 * (b - a) * epsilon / 3.0)
        / epsilon**2
        * math.log(2.0 / split)
    )
    return math.ceil(m_bound), math.ceil(n_bound)


def bound_report(inputs: BoundInputs) -> BoundReport:
    """Evaluate every calculator on one BoundInputs.

    A field that comes out infinite or NaN (the expected training gap grows
    with |H| and overflows near the largest float) is a numerical failure:
    JSON has no token for it.
    """
    v_gap, t_gap = expected_error_bounds(inputs)
    m_req, n_req = sample_complexity(
        inputs.epsilon,
        inputs.delta,
        inputs.split,
        inputs.sigma2,
        inputs.range,
        inputs.hypothesis_count,
    )
    report = BoundReport(
        validation_deviation_prob=validation_deviation_prob(
            inputs.n, inputs.sigma2, inputs.range, inputs.epsilon
        ),
        training_suboptimality_prob=training_suboptimality_prob(
            inputs.m,
            inputs.sigma2,
            inputs.hypothesis_count,
            inputs.range,
            inputs.epsilon,
        ),
        expected_validation_gap=v_gap,
        expected_training_gap=t_gap,
        branch="small-variance" if inputs.sigma2 <= inputs.epsilon else "erf",
        M=m_req,
        N=n_req,
    )
    unbounded = [
        name for name, value in report.as_dict().items()
        if isinstance(value, float) and not math.isfinite(value)
    ]
    if unbounded:
        raise NumericalError(f"bound is not finite: {', '.join(unbounded)}")
    return report
