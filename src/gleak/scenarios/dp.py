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
from dataclasses import dataclass

import numpy as np

from ..core import (
    Alphabet,
    GainFunction,
    GenerativeChannel,
    Prior,
    _require,
)
from ..features import tuple_codec
from . import Scenario

CLEVELAND_COUNTS = (164, 55, 36, 35, 13)


@dataclass(frozen=True)
class DpScenarioConfig:
    label_counts: tuple[int, ...] = CLEVELAND_COUNTS
    removed_label: int = 4
    nu: float = 1.0
    tail_eps: float = 1e-12

    def __post_init__(self) -> None:
        _require(len(self.label_counts) == 5, "expected 5 severity-class counts")
        _require(all(c >= 0 for c in self.label_counts), "counts must be >= 0")
        _require(0 <= self.removed_label <= 4, "removed label must be in 0..4")
        _require(
            self.label_counts[self.removed_label] >= 1,
            "cannot remove a record from an empty class",
        )
        _require(self.nu > 0, "nu must be positive")

    @property
    def total(self) -> int:
        return sum(self.label_counts)

    @property
    def gain_value(self) -> float:
        # the 3-case gain: correct guess worth 2 for severity 3-4, else 1
        return 2.0 if self.removed_label in (3, 4) else 1.0


def _geometric_noise(
    shape: tuple[int, ...], nu: float, gen: np.random.Generator
) -> np.ndarray:
    """Two-sided geometric (discrete Laplace) with P(d) ~ exp(-nu |d|),
    sampled as the difference of two geometrics."""
    p = 1.0 - math.exp(-nu)
    return (gen.geometric(p, size=shape) - gen.geometric(p, size=shape)).astype(
        np.int64
    )


def exact_dp_vulnerability(config: DpScenarioConfig, prior: Prior) -> float:
    """1-D truncated-sum oracle for the posterior g-vulnerability.

    The unchanged counts contribute equal likelihood factors to both secrets
    and cancel inside every per-observable max, leaving
    sum_z max_x pi_x c P(z | count_x) over the differing label's noisy count.
    """
    lam = (math.exp(config.nu) - 1.0) / (math.exp(config.nu) + 1.0)
    c_full = config.label_counts[config.removed_label]
    c_adj = c_full - 1
    # smallest radius whose remaining geometric tail mass is below tail_eps
    tail = lam * math.exp(-config.nu) / (1.0 - math.exp(-config.nu))
    radius = 0
    while tail > config.tail_eps:
        tail *= math.exp(-config.nu)
        radius += 1
    zs = np.arange(c_adj - radius, c_full + radius + 1)
    like_full = lam * np.exp(-config.nu * np.abs(zs - c_full))
    like_adj = lam * np.exp(-config.nu * np.abs(zs - c_adj))
    per_z = np.maximum(prior.probs[0] * like_full, prior.probs[1] * like_adj)
    return config.gain_value * float(math.fsum(per_z.tolist()))


def build(profile: str = "desk", **overrides) -> Scenario:
    """Uniform prior over the two adjacent databases, the noisy-counts
    sampler, the 3-case gain and the 1-D oracle's exact V_g."""
    config = DpScenarioConfig(**overrides)
    secrets = Alphabet(("full", "minus-one"))
    prior = Prior.uniform(secrets)
    counts = np.array(config.label_counts, dtype=np.int64)
    table = np.stack([counts, counts.copy()])
    table[1, config.removed_label] -= 1

    def sampler(xs: np.ndarray, gen: np.random.Generator) -> np.ndarray:
        noise = _geometric_noise((len(xs), 5), config.nu, gen)
        return table[xs] + noise

    return Scenario(
        name="dp",
        prior=prior,
        channel=GenerativeChannel(secrets, 5, sampler),
        gain=GainFunction(secrets, secrets, config.gain_value * np.eye(2)),
        exact_vg=exact_dp_vulnerability(config, prior),
        codec=tuple_codec(5, 1.0 / config.total),
        metric_kind="manhattan",
    )
