"""Password-checker timing side channel.

A bit-by-bit checker compares a 128-bit password against the attacker's
probe (the known 6-bit prefix followed by zeros) and stops at the first
mismatch; the attacker sees the stopping time plus a two-sided geometric
delay, clamped to buckets 1..128 (boundary absorption).  The attacker wants
bit 7, so guesses partition the secrets into two classes: passwords whose
bit 7 agrees with the probe and those that disagree.  The reduction to the
two classes is lossless: the gain depends only on bit 7 and the timing law
only on the first disagreeing position.

Under the partition gain the two pre-processings coincide (beta = 1,
tau = prior, R = identity), so the exact vulnerability is the posterior
Bayes vulnerability of the analytic 2 x 128 reduced channel.
"""

from __future__ import annotations

import math

import numpy as np

from ..core import (
    Alphabet,
    Channel,
    GenerativeChannel,
    Prior,
    identity_gain,
    posterior_vulnerability,
)
from ..features import scalar_codec
from ..knn import DistanceMetric
from . import Scenario, geometric_lambda, two_sided_geometric

AGREE, DISAGREE = 0, 1
TOTAL_BITS = 128  # also the number of time buckets, one per checked bit
KNOWN_PREFIX = 6  # so the target is bit 7, the first unknown one
DELAY_NU = 1.0


def base_time_law(total_bits: int, known_prefix: int) -> np.ndarray:
    """(2, total_bits) law of the checker's stop time per target-bit class,
    no delay.

    Disagreeing passwords always stop at the target bit t = known_prefix + 1.
    Agreeing ones stop at bit t+j with probability 2^-j (the remaining bits
    are fair coins) and report the full-scan time for a stop at the last bit
    or a complete match.
    """
    t = known_prefix + 1
    n = total_bits
    law = np.zeros((2, n + 1))  # 1-based columns, column 0 unused
    law[DISAGREE, t] = 1.0
    for j in range(1, n - t):
        law[AGREE, t + j] = 2.0 ** -j
    law[AGREE, n] = 2.0 ** -(n - t - 1)  # stop at last bit, or full match
    return law[:, 1:]


def _delay_kernel(total_bits: int, delay_nu: float) -> np.ndarray:
    """(total_bits, total_bits) transition: true time t -> clamped noisy
    bucket y; ``delay_nu = math.inf`` is no delay."""
    n = total_bits
    if math.isinf(delay_nu):
        return np.eye(n)
    q = math.exp(-delay_nu)
    ts = np.arange(1, n + 1)
    ys = np.arange(1, n + 1)
    kernel = geometric_lambda(delay_nu) * np.power(q, np.abs(ys[None, :] - ts[:, None]))
    # boundary absorption: P(bucket 1) = P(D <= 1 - t) = q^(t-1) / (1 + q)
    # and symmetrically for bucket n; the formulas cover t = 1 and t = n too
    kernel[:, 0] = np.power(q, ts - 1) / (1.0 + q)
    kernel[:, -1] = np.power(q, n - ts) / (1.0 + q)
    return kernel


def reduced_channel(total_bits: int, known_prefix: int, delay_nu: float) -> Channel:
    """Analytic 2 x total_bits channel from target-bit class to observed bucket."""
    rc = base_time_law(total_bits, known_prefix) @ _delay_kernel(total_bits, delay_nu)
    rc /= rc.sum(axis=1, keepdims=True)
    return Channel(
        Alphabet(("agree", "disagree")),
        Alphabet.integers(total_bits, prefix="t"),
        rc,
    )


def build() -> Scenario:
    """Uniform class prior, the timing sampler, the partition gain and the
    exact V_g of the reduced channel.

    The sampler simulates the checker honestly on the class-conditioned bit
    law: a geometric draw gives the first mismatch among the fair suffix
    bits, then the delay is added and clamped.  Observables are encoded as
    the 1-based bucket index.
    """
    classes = Alphabet(("agree", "disagree"))
    prior = Prior.uniform(classes)
    gain = identity_gain(classes)
    t = KNOWN_PREFIX + 1
    n = TOTAL_BITS

    def sampler(xs: np.ndarray, gen: np.random.Generator) -> np.ndarray:
        count = len(xs)
        times = np.full(count, t, dtype=np.int64)
        agree = xs == AGREE
        # first mismatch among the remaining fair bits; a draw beyond the
        # last checkable position means a stop there or a full match
        firsts = gen.geometric(0.5, size=count)
        times[agree] = np.minimum(t + firsts[agree], n)
        noisy = np.clip(times + two_sided_geometric(count, DELAY_NU, gen), 1, n)
        return noisy[:, None]

    exact = posterior_vulnerability(
        prior, reduced_channel(TOTAL_BITS, KNOWN_PREFIX, DELAY_NU), gain
    )
    return Scenario(
        name="password",
        prior=prior,
        channel=GenerativeChannel(classes, 1, sampler),
        gain=gain,
        exact_vg=exact,
        metric=DistanceMetric(
            "absolute", scalar_codec(scale=1.0 / (n - 1), offset=-1.0 / (n - 1))
        ),
    )
