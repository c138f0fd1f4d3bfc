"""Multiple-guesses scenario: geometric channel, two-tries gain.

The channel puts a truncated two-sided geometric distribution over a large
observable grid around a per-secret center r(x) = scale*x + offset; the
adversary may name a k-subset of secrets and gains 1 if the secret is in it.
"""

from __future__ import annotations

import itertools

import numpy as np

from ..core import (
    Alphabet,
    Channel,
    GainFunction,
    Prior,
    _require,
    posterior_vulnerability,
)
from ..features import scalar_codec
from ..knn import DistanceMetric
from . import Scenario, geometric_lambda

NU = 0.002
SECRETS = 10
# profile -> observable grid size and spacing of the secret centers: the
# desk grid spreads the centers evenly, the paper grid rescales them
OBSERVABLES = {"desk": 1600, "paper": 16000}
SCALE = {"desk": 160.0, "paper": 1000.0}


def geometric_channel(nu: float, secrets: int, observables: int, scale: float) -> Channel:
    """C[x, y] proportional to lambda * exp(-nu |r(x) - y|), rows renormalized.

    The centers r(x) = scale*x + offset form a block centered on the
    observable grid, offset = (observables-1)/2 - scale (secrets-1)/2.
    Renormalization completes the truncation to the finite grid; with the
    paper parameters the off-grid tail is far below the row tolerance.
    """
    ys = np.arange(observables, dtype=np.float64)
    offset = (observables - 1) / 2.0 - scale * (secrets - 1) / 2.0
    centers = scale * np.arange(secrets) + offset
    rows = geometric_lambda(nu) * np.exp(-nu * np.abs(centers[:, None] - ys[None, :]))
    rows /= rows.sum(axis=1, keepdims=True)
    return Channel(Alphabet.integers(secrets), Alphabet.integers(observables), rows)


def two_tries_gain(num_secrets: int, k: int) -> GainFunction:
    """Guesses are all k-subsets of secrets; gain 1 iff the secret is in the set."""
    _require(1 <= k < num_secrets, "need 1 <= k < num_secrets")
    secrets = Alphabet.integers(num_secrets)
    subsets = list(itertools.combinations(range(num_secrets), k))
    guesses = Alphabet(tuple("+".join(str(i) for i in sub) for sub in subsets))
    matrix = np.zeros((len(subsets), num_secrets))
    for w, subset in enumerate(subsets):
        matrix[w, list(subset)] = 1.0
    return GainFunction(guesses, secrets, matrix)


def build(profile: str) -> Scenario:
    observables = OBSERVABLES[profile]
    channel = geometric_channel(NU, SECRETS, observables, SCALE[profile])
    prior = Prior.uniform(channel.input)
    gain = two_tries_gain(SECRETS, 2)
    return Scenario(
        name="multi-guess",
        prior=prior,
        channel=channel,
        gain=gain,
        exact_vg=posterior_vulnerability(prior, channel, gain),
        metric=DistanceMetric("absolute", scalar_codec(scale=1.0 / (observables - 1))),
    )
