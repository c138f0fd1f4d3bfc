"""Experiment scenario generators.

Each scenario bundles a prior, a channel (matrix or generative), a gain, the
exact g-vulnerability (closed form or analytic oracle), and the distance
metric, with its feature codec, that the learners use on its observables.
Every scenario's setup is fixed by its module's constants.
"""

from __future__ import annotations

import importlib
import math
from dataclasses import dataclass
from typing import Union

import numpy as np

from ..core import Channel, GainFunction, GenerativeChannel, Prior, ValidationError
from ..knn import DistanceMetric


@dataclass(frozen=True)
class Scenario:
    name: str
    prior: Prior
    channel: Union[Channel, GenerativeChannel]
    gain: GainFunction
    exact_vg: float
    metric: DistanceMetric


def geometric_lambda(nu: float) -> float:
    """Normalizer of the two-sided geometric law P(d) = lambda exp(-nu |d|)
    over the integers."""
    return (math.exp(nu) - 1.0) / (math.exp(nu) + 1.0)


def two_sided_geometric(
    shape: int | tuple[int, ...], nu: float, gen: np.random.Generator
) -> np.ndarray:
    """Two-sided geometric (discrete Laplace) draws with P(d) ~ exp(-nu |d|),
    sampled as the difference of two int64 geometrics, in the first one's
    buffer."""
    p = 1.0 - math.exp(-nu)
    noise = gen.geometric(p, size=shape)
    noise -= gen.geometric(p, size=shape)
    return noise


SCENARIO_NAMES = ("multi-guess", "location", "dp", "password")


def build_scenario(
    name: str, profile: str = "desk", gowalla_path: str | None = None
) -> Scenario:
    """Build one of: multi-guess, location, dp, password.

    ``profile`` is "desk" or "paper"; only multi-guess changes size with it.
    ``gowalla_path`` is a check-in dump for the location prior and is read
    by no other scenario.
    """
    if name not in SCENARIO_NAMES:
        raise ValidationError(
            f"unknown scenario {name!r}; expected one of {sorted(SCENARIO_NAMES)}"
        )
    if profile not in ("desk", "paper"):
        raise ValidationError(f"unknown profile {profile!r}")
    if gowalla_path is not None and name != "location":
        raise ValidationError(
            f"gowalla_path is read only by the location scenario, not {name!r}"
        )
    # only the named scenario's module is imported
    module = importlib.import_module(f".{name.replace('-', '_')}", __name__)
    if name == "multi-guess":
        return module.build(profile)
    if name == "location":
        return module.build(gowalla_path)
    return module.build()

