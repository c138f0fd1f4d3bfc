"""Experiment scenario generators.

Each scenario bundles a prior, a channel (matrix or generative), a gain, the
exact g-vulnerability (closed form or analytic oracle), and the feature
codec / distance-metric choices the learners use on its observables.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Union

from ..core import Channel, GainFunction, GenerativeChannel, Prior, ValidationError
from ..features import FeatureCodec


@dataclass(frozen=True)
class Scenario:
    name: str
    prior: Prior
    channel: Union[Channel, GenerativeChannel]
    gain: GainFunction
    exact_vg: float
    codec: FeatureCodec
    metric_kind: str


def build_scenario(name: str, profile: str = "desk", **kwargs) -> Scenario:
    """Build one of: multi-guess, location, dp, password.

    ``profile`` is "desk" or "paper"; only multi-guess changes size with it.
    ``kwargs`` override fields of the scenario's config dataclass; location
    has none and takes only ``gowalla_path``.
    """
    from . import dp, location, multi_guess, password

    builders = {
        "multi-guess": multi_guess.build,
        "location": location.build,
        "dp": dp.build,
        "password": password.build,
    }
    if name not in builders:
        raise ValidationError(
            f"unknown scenario {name!r}; expected one of {sorted(builders)}"
        )
    if profile not in ("desk", "paper"):
        raise ValidationError(f"unknown profile {profile!r}")
    return builders[name](profile=profile, **kwargs)


SCENARIO_NAMES = ("multi-guess", "location", "dp", "password")
