"""Differential-privacy scenario: noisy histogram release of medical records.

The defender publishes the five severity-class counts of a patient database
after adding i.i.d. two-sided geometric noise to each count.  The adversary
must distinguish the full database from an adjacent one missing a single
record of a known severity class; the gain doubles for the two highest
severity classes.  Four of the five noisy counts are identically distributed
under both secrets, so the exact posterior vulnerability reduces to a 1-D
sum over the differing count, truncated where the geometric tail is
negligible.
"""

from __future__ import annotations

import math

import numpy as np

from ..core import Alphabet, GainFunction, GenerativeChannel, Prior
from ..features import tuple_codec
from ..knn import DistanceMetric
from . import Scenario, geometric_lambda, two_sided_geometric

CLEVELAND_COUNTS = (164, 55, 36, 35, 13)
REMOVED_LABEL = 4  # severity class of the record the adjacent database lacks
NU = 1.0
TAIL_EPS = 1e-12
# the 3-case gain: a correct guess is worth 2 for severity 3-4, else 1
GAIN_VALUE = 2.0 if REMOVED_LABEL in (3, 4) else 1.0


def exact_dp_vulnerability(
    prior: Prior, count: int, nu: float, gain_value: float, tail_eps: float
) -> float:
    """1-D truncated-sum oracle for the posterior g-vulnerability.

    The unchanged counts contribute equal likelihood factors to both secrets
    and cancel inside every per-observable max, leaving
    sum_z max_x pi_x c P(z | count_x) over the differing label's noisy
    count, which is ``count`` in the full database and one less in the
    adjacent one.
    """
    lam = geometric_lambda(nu)
    c_adj = count - 1
    # smallest radius whose remaining geometric tail mass is below tail_eps
    tail = lam * math.exp(-nu) / (1.0 - math.exp(-nu))
    radius = 0
    while tail > tail_eps:
        tail *= math.exp(-nu)
        radius += 1
    zs = np.arange(c_adj - radius, count + radius + 1)
    like_full = lam * np.exp(-nu * np.abs(zs - count))
    like_adj = lam * np.exp(-nu * np.abs(zs - c_adj))
    per_z = np.maximum(prior.probs[0] * like_full, prior.probs[1] * like_adj)
    return gain_value * float(math.fsum(per_z.tolist()))


def build() -> Scenario:
    """Uniform prior over the two adjacent databases, the noisy-counts
    sampler, the 3-case gain and the 1-D oracle's exact V_g."""
    secrets = Alphabet(("full", "minus-one"))
    prior = Prior.uniform(secrets)
    table = np.array([CLEVELAND_COUNTS, CLEVELAND_COUNTS], dtype=np.int64)
    table[1, REMOVED_LABEL] -= 1

    def sampler(xs: np.ndarray, gen: np.random.Generator) -> np.ndarray:
        noisy = two_sided_geometric((len(xs), 5), NU, gen)
        noisy += table[xs]
        return noisy

    exact = exact_dp_vulnerability(
        prior, CLEVELAND_COUNTS[REMOVED_LABEL], NU, GAIN_VALUE, TAIL_EPS
    )
    return Scenario(
        name="dp",
        prior=prior,
        channel=GenerativeChannel(secrets, 5, sampler),
        gain=GainFunction(secrets, secrets, GAIN_VALUE * np.eye(2)),
        exact_vg=exact,
        metric=DistanceMetric("manhattan", tuple_codec(5, 1.0 / sum(CLEVELAND_COUNTS))),
    )
