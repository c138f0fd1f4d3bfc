"""gleak: exact and black-box estimation of g-vulnerability and g-leakage.

Exact computation works on explicit channel matrices.  Black-box estimation
reduces the problem to Bayes classification through two pre-processing
transformations (sample rewriting and channel prepending), trains k-NN or
neural-network classifiers, and reports normalized estimation errors with
distribution-free deviation bounds.

The names exported here are the library surface that README "Library use"
documents; everything else is imported from its submodule.
"""

from .core import (
    Alphabet,
    Channel,
    GainFunction,
    GenerativeChannel,
    NumericalError,
    Prior,
    SampleSet,
    ValidationError,
    empirical_functional,
    identity_gain,
    leakage,
    plugin_sigma2,
    posterior_vulnerability,
    prior_vulnerability,
    sample_joint,
    strategy_gain,
)
from .estimation import EstimateReport, TablePredictor, estimate, fit
from .features import scalar_codec
from .knn import DistanceMetric
from .mlp import MlpConfig
from .rng import stream

__version__ = "0.1.0"

__all__ = [
    "Alphabet",
    "Channel",
    "DistanceMetric",
    "EstimateReport",
    "GainFunction",
    "GenerativeChannel",
    "MlpConfig",
    "NumericalError",
    "Prior",
    "SampleSet",
    "TablePredictor",
    "ValidationError",
    "empirical_functional",
    "estimate",
    "fit",
    "identity_gain",
    "leakage",
    "plugin_sigma2",
    "posterior_vulnerability",
    "prior_vulnerability",
    "sample_joint",
    "scalar_codec",
    "strategy_gain",
    "stream",
]
