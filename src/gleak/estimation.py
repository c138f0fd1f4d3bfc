"""End-to-end black-box estimation pipelines and the frequentist baseline.

Every pipeline trains a Bayes classifier on pre-processed (guess,
observable) data and evaluates it with the ORIGINAL gain on held-out
(secret, observable) pairs — the scaling constants of the reductions are
then implicit in the evaluation and never multiplied in explicitly.

All three learners read one (guess, observable) table, ``PairTable``: the
data pre-processing of the pi |> C samples (``data_table``) under the
rationalized gain for the data method and under the original gain for the
frequentist, or the (w, y) pairs of tau |> RC with their count table as
the weights.  The k-NN and the MLP train on it; the frequentist is its
argmax per row.  Every table reads a set's count table,
``SampleSet.counts``, which one set counts once for all of its learners.
A set builds one data table per gain object, which its frequentist and
data fits share when the rationalized gain is the gain itself, as under
every built-in scenario; a gain of scale above 1 builds two, because the
frequentist keeps the float ties of the original gain.
"""

from __future__ import annotations

import time
from dataclasses import asdict, dataclass
from typing import Union

import numpy as np

from .core import (
    Channel,
    GainFunction,
    GenerativeChannel,
    PairTable,
    Prior,
    SampleSet,
    _freeze,
    _require,
    empirical_functional,
    joint_cdf,
    sample_joint,
    sample_prior,
)
from .knn import DistanceMetric, knn_train
from .mlp import MlpConfig, mlp_train
from .preprocess import (
    ChannelPreprocDerivation,
    channel_preprocess,
    data_table,
    rationalize_gain,
)
from .rng import Stream

LearnerConfig = Union[DistanceMetric, MlpConfig]  # kNN is configured by its metric

# method name -> the name its reports carry
METHOD_NAMES = {
    "data": "data-preproc",
    "channel": "channel-preproc",
    "frequentist": "frequentist",
}


@dataclass(frozen=True)
class EstimateReport:
    """One pipeline run: the estimate plus everything needed to replay it."""

    estimate: float
    method: str
    learner: str
    m: int
    n: int
    seeds: dict
    wall_time: float
    details: dict

    def as_dict(self) -> dict:
        return asdict(self)


def sample_preprocessed_pairs(
    deriv: ChannelPreprocDerivation,
    channel: Channel | GenerativeChannel,
    m: int,
    stream: Stream,
) -> SampleSet:
    """Draw m training pairs (w, y) from tau |> RC: w ~ tau, x ~ R[w], y ~ C[x].

    The pairs are a ``SampleSet`` over the guess alphabet, whose Bayes
    vulnerability is V_gid(tau, RC) = V_g(pi, C) / beta.
    """
    _require(m >= 1, "m must be >= 1")
    gen = stream.gen
    ws = sample_prior(deriv.tau, m, gen)
    xs = deriv.R.sample(ws, gen)[:, 0]
    ys = channel.sample(xs, gen)
    return SampleSet(deriv.tau.alphabet, ws, ys)


def fit(
    method: str,
    prior: Prior,
    channel: Channel | GenerativeChannel,
    gain: GainFunction,
    m: int,
    learner_config: LearnerConfig | None,
    train_stream: Stream,
    learner_stream: Stream | None = None,
    train: SampleSet | None = None,
) -> tuple[object, dict]:
    """Draw m training samples for ``method`` and train its predictor.

    ``"data"`` samples pi |> C and rationalizes the gain; ``"channel"``
    samples (w, y) pairs from tau |> RC, whose gain is the identity;
    ``"frequentist"`` takes, for each observable of the data table under
    the original gain, its best guess, and needs no learner.  Only the MLP
    draws from ``learner_stream``.  ``train`` is the m samples of pi |> C
    already drawn from ``train_stream``, for a caller that fits the data
    and frequentist methods on one set or draws it from a shared CDF.
    Returns the predictor and the method's report details.
    """
    _require(method in METHOD_NAMES, f"unknown method {method!r}")
    knn = isinstance(learner_config, DistanceMetric)
    _require(
        method == "frequentist"
        or knn
        or (isinstance(learner_config, MlpConfig) and learner_stream is not None),
        f"method {method!r} needs a DistanceMetric, or an MlpConfig and a learner stream",
    )
    if method == "channel":
        _require(train is None, "the channel method draws its own (w, y) pairs")
        deriv = channel_preprocess(prior, gain)
        train = sample_preprocessed_pairs(deriv, channel, m, train_stream)
        handling = "implicit: evaluation uses the original gain on (x, y) pairs"
        details = {"beta": deriv.beta, "beta_handling": handling}
    else:
        if train is None:
            train = sample_joint((prior, channel), m, train_stream)
        _require(train.size == m, f"training set has {train.size} samples, expected m = {m}")
        details = {}
        if method == "data":
            rational, scale = rationalize_gain(gain)
            details = {
                "rationalize_scale": scale,
                "descale": "not needed: evaluation uses the original gain",
            }
        elif method == "frequentist":
            # an unseen observable is taken for the most frequent training
            # secret, so its guess is argmax_w g(w, x_mode); ties break low
            x_mode = int(np.argmax(train.counts[1].sum(axis=0)))
            fallback = int(np.argmax(gain.matrix[:, x_mode]))
    table = (
        PairTable(train.secrets, *train.counts) if method == "channel"  # each pair weighs 1
        # the frequentist's table takes the gain as given, never rationalized
        else data_table(train, rational if method == "data" else gain)
    )
    if method == "data":
        total = table.total_weight
        details.update(expanded_total_weight=total, expansion_factor=total / m)
    model = (
        TablePredictor(table.distinct, np.argmax(table.tallies, axis=1), fallback)
        if method == "frequentist"
        else knn_train(table.distinct, table.tallies, learner_config) if knn
        else mlp_train(table, learner_config, learner_stream)
    )
    return model, details


def estimate(
    method: str,
    prior: Prior,
    channel: Channel | GenerativeChannel,
    gain: GainFunction,
    m: int,
    n: int,
    learner_config: LearnerConfig | None,
    stream: Stream,
) -> EstimateReport:
    """One black-box estimate of V_g(pi, C) by ``method``.

    Fits on m training samples and evaluates with the ORIGINAL gain on n
    fresh (x, y) pairs from pi |> C, so neither the rationalization scale
    nor beta ever multiplies the result.  Draws from the children ``train``
    (``pairs`` for the channel method), ``valid`` and ``learner`` of
    ``stream``.  The validation set and the pi |> C training set are drawn
    from one ``joint_cdf``, which is dropped before the fit.
    """
    started = time.perf_counter()
    seeds = {
        "train": stream.child("pairs" if method == "channel" else "train"),
        "valid": stream.child("valid"),
        "learner": stream.child("learner"),
    }
    source = (prior, channel)
    cdf = joint_cdf(source)
    valid = sample_joint(source, n, seeds["valid"], cdf)
    train = None if method == "channel" else sample_joint(source, m, seeds["train"], cdf)
    del cdf  # the fit runs without it
    predictor, details = fit(
        method, prior, channel, gain, m, learner_config, seeds["train"], seeds["learner"],
        train=train,
    )
    value = empirical_functional(predictor, valid, gain)
    if method == "frequentist":
        learner = "none"
        del seeds["learner"]
    else:
        learner = "knn" if isinstance(learner_config, DistanceMetric) else "mlp"
    return EstimateReport(
        estimate=value,
        method=METHOD_NAMES[method],
        learner=learner,
        m=m,
        n=n,
        seeds={key: child.provenance for key, child in seeds.items()},
        wall_time=time.perf_counter() - started,
        details=details,
    )


class TablePredictor:
    """Decision table: one guess per listed observable row, a fallback guess
    for every other row.  ``keys`` are the distinct rows, ``guesses`` their
    guesses.  The frequentist baseline is such a table over the rows of its
    data table; a fixed strategy of a matrix channel is one keyed by output
    index, ``keys = arange(|Y|)[:, None]``."""

    __slots__ = ("keys", "guesses", "fallback", "_sorted", "_sorted_guesses")

    def __init__(self, keys: np.ndarray, guesses: np.ndarray, fallback: int) -> None:
        keys = np.asarray(keys, dtype=np.int64)
        guesses = np.asarray(guesses, dtype=np.int64)
        _require(
            keys.ndim == 2 and keys.shape[0] >= 1 and guesses.shape == keys.shape[:1],
            "table needs one guess per key row",
        )
        self.keys = _freeze(keys)
        self.guesses = _freeze(guesses)
        self.fallback = fallback
        # rows sorted as byte strings, so a lookup is one binary search per
        # query row; only equality matters, not numeric order
        packed = _as_bytes(self.keys)
        order = np.argsort(packed)
        self._sorted = packed[order]
        _require(
            bool((self._sorted[1:] != self._sorted[:-1]).all()),
            "table keys must be distinct",
        )
        self._sorted_guesses = self.guesses[order]

    def predict(self, ys: np.ndarray) -> np.ndarray:
        ys = np.asarray(ys, dtype=np.int64)
        _require(
            ys.ndim == 2 and ys.shape[1] == self.keys.shape[1], "table key width mismatch"
        )
        packed = _as_bytes(ys)
        at = np.minimum(np.searchsorted(self._sorted, packed), self._sorted.size - 1)
        hit = self._sorted[at] == packed
        return np.where(hit, self._sorted_guesses[at], self.fallback)


def _as_bytes(rows: np.ndarray) -> np.ndarray:
    """One fixed-size byte string per int64 row; equal rows, equal strings."""
    rows = np.ascontiguousarray(rows)
    return rows.view(np.dtype((np.void, rows.itemsize * rows.shape[1]))).reshape(-1)
