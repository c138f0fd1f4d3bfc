"""Multiple-guesses scenario: geometric channel, two-tries gain.

The channel puts a truncated two-sided geometric distribution over a large
observable grid around a per-secret center r(x) = scale*x + offset; the
adversary may name a k-subset of secrets and gains 1 if the secret is in it.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

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
from . import Scenario


@dataclass(frozen=True)
class GeometricChannelConfig:
    """Decay nu, grid sizes, and the secret-center rescale r(x) = scale*x + offset.

    When scale is omitted the centers are spread evenly, scale = |Y| / |X|;
    the block of centers is always centered on the observable grid,
    offset = (|Y|-1)/2 - scale (|X|-1)/2.
    """

    nu: float = 0.002
    secrets: int = 10
    observables: int = 16000
    scale: float | None = None

    def __post_init__(self) -> None:
        _require(self.nu > 0, "nu must be positive")
        _require(self.secrets >= 1 and self.observables >= 1, "sizes must be >= 1")

    @property
    def lam(self) -> float:
        return (math.exp(self.nu) - 1.0) / (math.exp(self.nu) + 1.0)

    @property
    def resolved_scale(self) -> float:
        return self.observables / self.secrets if self.scale is None else self.scale

    @property
    def resolved_offset(self) -> float:
        s = self.resolved_scale
        return (self.observables - 1) / 2.0 - s * (self.secrets - 1) / 2.0

    def center(self, x: int) -> float:
        return self.resolved_scale * x + self.resolved_offset


def geometric_channel(config: GeometricChannelConfig) -> Channel:
    """C[x, y] proportional to lambda * exp(-nu |r(x) - y|), rows renormalized.

    Renormalization completes the truncation to the finite grid; with the
    paper parameters the off-grid tail is far below the row tolerance.
    """
    ys = np.arange(config.observables, dtype=np.float64)
    centers = np.array([config.center(x) for x in range(config.secrets)])
    rows = config.lam * np.exp(-config.nu * np.abs(centers[:, None] - ys[None, :]))
    rows /= rows.sum(axis=1, keepdims=True)
    return Channel(
        Alphabet.integers(config.secrets),
        Alphabet.integers(config.observables),
        rows,
    )


def two_tries_gain(num_secrets: int, k: int = 2) -> GainFunction:
    """Guesses are all k-subsets of secrets; gain 1 iff the secret is in the set."""
    _require(1 <= k < num_secrets, "need 1 <= k < num_secrets")
    secrets = Alphabet.integers(num_secrets)
    subsets = list(itertools.combinations(range(num_secrets), k))
    guesses = Alphabet(tuple("+".join(str(i) for i in sub) for sub in subsets))
    matrix = np.zeros((len(subsets), num_secrets))
    for w, subset in enumerate(subsets):
        matrix[w, list(subset)] = 1.0
    return GainFunction(guesses, secrets, matrix)


def build(profile: str = "desk", **overrides) -> Scenario:
    if profile == "paper":
        config = GeometricChannelConfig(scale=1000.0, **overrides)
    else:
        config = GeometricChannelConfig(observables=1600, **overrides)
    channel = geometric_channel(config)
    prior = Prior.uniform(channel.input)
    gain = two_tries_gain(config.secrets, 2)
    return Scenario(
        name="multi-guess",
        prior=prior,
        channel=channel,
        gain=gain,
        exact_vg=posterior_vulnerability(prior, channel, gain),
        codec=scalar_codec(scale=1.0 / (config.observables - 1)),
        metric_kind="absolute",
    )
