"""End-to-end black-box estimation pipelines and the frequentist baseline.

Both learner pipelines train a Bayes classifier on pre-processed (guess,
observable) data and evaluate it with the ORIGINAL gain on held-out
(secret, observable) pairs — the scaling constants of the reductions are
then implicit in the evaluation and never multiplied in explicitly.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Union

import numpy as np

from .core import (
    Channel,
    GainFunction,
    GenerativeChannel,
    NumericalError,
    Prior,
    SampleSet,
    _inverse_cdf,
    _require,
    empirical_functional,
    sample_joint,
)
from .knn import KnnConfig, knn_train
from .mlp import MlpConfig, mlp_train
from .preprocess import (
    WeightedSampleSet,
    channel_preprocess,
    data_preprocess,
    rationalize_gain,
)
from .rng import Stream

LearnerConfig = Union[KnnConfig, MlpConfig]

RANGE_SLACK = 1e-9


@dataclass(frozen=True)
class EstimateReport:
    """One pipeline run: the estimate plus everything needed to replay it."""

    estimate: float
    method: str
    learner: str
    m: int
    n: int
    seeds: dict = field(default_factory=dict)
    wall_time: float = 0.0
    details: dict = field(default_factory=dict)

    def as_dict(self) -> dict:
        return {
            "estimate": self.estimate,
            "method": self.method,
            "learner": self.learner,
            "m": self.m,
            "n": self.n,
            "seeds": {
                key: {"master_seed": prov.master_seed, "stream": prov.stream}
                for key, prov in self.seeds.items()
            },
            "wall_time": self.wall_time,
            "details": dict(self.details),
        }


def _learner_name(config: LearnerConfig) -> str:
    return "knn" if isinstance(config, KnnConfig) else "mlp"


def train_model(config: LearnerConfig, data: WeightedSampleSet, stream: Stream | None):
    """Train the learner ``config`` names; only the MLP draws from ``stream``."""
    if isinstance(config, KnnConfig):
        return knn_train(data, config)
    _require(stream is not None, "MLP training requires an RNG stream")
    return mlp_train(data, config, stream)


def _check_range(estimate: float, gain: GainFunction) -> None:
    a, b = gain.range
    if not a - RANGE_SLACK <= estimate <= b + RANGE_SLACK:
        raise NumericalError(f"estimate {estimate} escaped gain range [{a}, {b}]")


def train_data_preproc(
    train: SampleSet,
    gain: GainFunction,
    learner_config: LearnerConfig,
    stream: Stream | None = None,
) -> tuple[object, int, int]:
    """Data pre-processing training step: rationalize, expand, train.

    Returns the model, the rationalization scale and the expanded weight.
    """
    rational, scale = rationalize_gain(gain)
    weighted = data_preprocess(train, rational)
    return train_model(learner_config, weighted, stream), scale, weighted.total_weight


def estimate_data_preproc(
    train: SampleSet,
    valid: SampleSet,
    gain: GainFunction,
    learner_config: LearnerConfig,
    stream: Stream | None = None,
) -> EstimateReport:
    """Data pre-processing pipeline: rationalize, expand, train, evaluate."""
    _require(train.size > 0 and valid.size > 0, "train and valid must be non-empty")
    started = time.perf_counter()
    model, scale, total_weight = train_data_preproc(train, gain, learner_config, stream)
    estimate = empirical_functional(model, valid, gain)
    _check_range(estimate, gain)
    seeds = {}
    if train.provenance is not None:
        seeds["train"] = train.provenance
    if valid.provenance is not None:
        seeds["valid"] = valid.provenance
    if stream is not None:
        seeds["learner"] = stream.provenance
    return EstimateReport(
        estimate=estimate,
        method="data-preproc",
        learner=_learner_name(learner_config),
        m=train.size,
        n=valid.size,
        seeds=seeds,
        wall_time=time.perf_counter() - started,
        details={
            "rationalize_scale": scale,
            "descale": "not needed: evaluation uses the original gain",
            "expanded_total_weight": total_weight,
            "expansion_factor": total_weight / train.size,
        },
    )


def sample_preprocessed_pairs(
    prior: Prior,
    channel: Channel | GenerativeChannel,
    gain: GainFunction,
    m: int,
    stream: Stream,
) -> WeightedSampleSet:
    """Draw m training pairs (w, y) from tau |> RC: w ~ tau, x ~ R[w], y ~ C[x].

    Duplicate (w, y) pairs are merged into weights; weight k is equivalent
    to k copies for every consumer.
    """
    _require(m >= 1, "m must be >= 1")
    deriv = channel_preprocess(prior, gain)
    gen = stream.gen
    ws = _inverse_cdf(deriv.tau.probs, gen.random(m))
    xs = deriv.R.sample(ws, gen)[:, 0]
    ys = channel.sample(xs, gen)
    combined = np.concatenate([ws[:, None], ys], axis=1)
    distinct, counts = np.unique(combined, axis=0, return_counts=True)
    return WeightedSampleSet(
        gain.guesses,
        distinct[:, 0],
        distinct[:, 1:],
        counts,
        stream.provenance,
    )


def estimate_channel_preproc(
    prior: Prior,
    channel: Channel | GenerativeChannel,
    gain: GainFunction,
    m: int,
    valid: SampleSet | int,
    learner_config: LearnerConfig,
    stream: Stream,
) -> EstimateReport:
    """Channel pre-processing pipeline with black-box sampling access to C.

    ``valid`` may be a prepared SampleSet of (x, y) pairs or a size to draw
    from pi |> C.  The beta factor never multiplies the result: evaluating
    the trained classifier with the original gain on (x, y) pairs already
    yields V_g units.
    """
    started = time.perf_counter()
    deriv = channel_preprocess(prior, gain)
    weighted = sample_preprocessed_pairs(
        prior, channel, gain, m, stream.child("pairs")
    )
    if isinstance(valid, int):
        valid = sample_joint((prior, channel), valid, stream.child("valid"))
    _require(valid.size > 0, "validation set is empty")
    model = train_model(learner_config, weighted, stream.child("learner"))
    estimate = empirical_functional(model, valid, gain)
    _check_range(estimate, gain)
    seeds = {"pipeline": stream.provenance}
    if valid.provenance is not None:
        seeds["valid"] = valid.provenance
    return EstimateReport(
        estimate=estimate,
        method="channel-preproc",
        learner=_learner_name(learner_config),
        m=m,
        n=valid.size,
        seeds=seeds,
        wall_time=time.perf_counter() - started,
        details={
            "beta": deriv.beta,
            "beta_handling": "implicit: evaluation uses the original gain on (x, y) pairs",
        },
    )


class TablePredictor:
    """Frequentist decision table: one guess per seen observable, a fallback
    guess for unseen ones."""

    __slots__ = ("table", "fallback")

    def __init__(self, table: dict[bytes, int], fallback: int) -> None:
        self.table = table
        self.fallback = fallback

    def predict(self, ys: np.ndarray) -> np.ndarray:
        ys = np.ascontiguousarray(np.asarray(ys, dtype=np.int64))
        out = np.empty(ys.shape[0], dtype=np.int64)
        for i in range(ys.shape[0]):
            out[i] = self.table.get(ys[i].tobytes(), self.fallback)
        return out


def frequentist_predictor(train: SampleSet, gain: GainFunction) -> TablePredictor:
    """Decision table from empirical conditionals on the training set.

    For each seen y: w(y) = argmax_w sum_x P_hat(x|y) g(w, x).  Observables
    never seen in training are assigned the most frequent training secret
    with probability one, so their guess is argmax_w g(w, x_mode).  Ties
    break toward the lowest index throughout.
    """
    _require(train.size > 0, "training set is empty")
    combined = np.concatenate([train.ys, train.xs[:, None]], axis=1)
    distinct, counts = np.unique(combined, axis=0, return_counts=True)
    y_rows = distinct[:, :-1]
    x_vals = distinct[:, -1]
    y_distinct, y_inverse = np.unique(y_rows, axis=0, return_inverse=True)
    cond_counts = np.zeros((y_distinct.shape[0], train.secrets.size))
    np.add.at(cond_counts, (y_inverse, x_vals), counts.astype(np.float64))
    # argmax_w sum_x counts(x|y) g(w,x); normalization by count(y) cancels
    scores = cond_counts @ gain.matrix.T
    best = np.argmax(scores, axis=1)
    table = {
        np.ascontiguousarray(y_distinct[i]).tobytes(): int(best[i])
        for i in range(y_distinct.shape[0])
    }
    x_mode = int(np.argmax(np.bincount(train.xs, minlength=train.secrets.size)))
    fallback = int(np.argmax(gain.matrix[:, x_mode]))
    return TablePredictor(table, fallback)


def frequentist_estimate(
    train: SampleSet, valid: SampleSet, gain: GainFunction
) -> EstimateReport:
    """Counting baseline: empirical conditionals pick w(y), evaluated on valid."""
    started = time.perf_counter()
    predictor = frequentist_predictor(train, gain)
    estimate = empirical_functional(predictor, valid, gain)
    _check_range(estimate, gain)
    seeds = {}
    if train.provenance is not None:
        seeds["train"] = train.provenance
    if valid.provenance is not None:
        seeds["valid"] = valid.provenance
    return EstimateReport(
        estimate=estimate,
        method="frequentist",
        learner="none",
        m=train.size,
        n=valid.size,
        seeds=seeds,
        wall_time=time.perf_counter() - started,
    )
