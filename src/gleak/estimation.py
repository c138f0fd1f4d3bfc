"""End-to-end black-box estimation pipelines and the frequentist baseline.

Both learner pipelines train a Bayes classifier on pre-processed (guess,
observable) data and evaluate it with the ORIGINAL gain on held-out
(secret, observable) pairs — the scaling constants of the reductions are
then implicit in the evaluation and never multiplied in explicitly.

Both methods give their learners a ``SampleSet`` and an integer gain: the
pi |> C samples and the rationalized gain, or the (w, y) pairs of tau |>
RC and the identity.  The counting learners read the set's count table,
``SampleSet.counts``, which one set counts once for all of them; only the
MLP, which draws batches from weighted entries, trains on the data
pre-processing expansion, which lists its pairs from the same table.
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
    Prior,
    SampleSet,
    ValidationError,
    _freeze,
    _require,
    empirical_functional,
    identity_gain,
    sample_joint,
    sample_prior,
)
from .knn import DistanceMetric, KnnClassifier, knn_train
from .mlp import MlpConfig, mlp_train
from .preprocess import (
    ChannelPreprocDerivation,
    channel_preprocess,
    data_preprocess,
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
    ``"frequentist"`` counts pi |> C samples into a decision table and
    needs no learner.  Only the MLP draws from ``learner_stream``.
    ``train`` is the m samples of pi |> C already drawn from
    ``train_stream``, for a caller that fits the data and frequentist
    methods on one set.  Returns the predictor and the method's report
    details.
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
        if method == "frequentist":
            return frequentist_predictor(train, gain), {}
        rational, scale = rationalize_gain(gain)
        details = {
            "rationalize_scale": scale,
            "descale": "not needed: evaluation uses the original gain",
        }
    if not knn:
        # the channel method's pairs under the identity gain: each has weight 1
        integer_gain = rational if method == "data" else identity_gain(train.secrets)
        data = data_preprocess(train, integer_gain)
        del train  # a set drawn here goes, with its count table, before training
        model = mlp_train(data, learner_config, learner_stream)
        total = data.total_weight
    elif method == "channel":
        # each pair's weight is 1: the tallies are its (observable, guess) counts
        model = knn_train(*train.counts, learner_config)
    else:
        model = data_knn_train(train, rational, learner_config)
        # each column sum is exact (KnnClassifier checks it is below 2**53)
        total = sum(int(v) for v in model.tallies.sum(axis=0).tolist())
    if method == "data":
        details.update(expanded_total_weight=total, expansion_factor=total / m)
    return model, details


def data_knn_train(
    train: SampleSet, gain: GainFunction, metric: DistanceMetric
) -> KnnClassifier:
    """k-NN on the data pre-processing of ``train`` under the integer-valued
    ``gain``, without building it.

    The expansion gives (w, y) the total weight sum_x n(x, y) g(w, x), so
    the tallies are the (l, X) secret counts of the training set times
    G^T.  An observable seen only with secrets of zero gain is not in the
    expansion; its all-zero row is dropped.  The products and partial sums
    are non-negative integers below 2**53 (``KnnClassifier`` checks the
    totals), so they are exact in any summation order, and equal the
    expansion's weights summed per (observable, guess) bit for bit.
    """
    distinct, tallies = _secret_scores(train, gain.matrix)
    seen = tallies.any(axis=1)
    if not seen.any():
        raise ValidationError("gain is zero on every sampled secret")
    if not seen.all():  # otherwise no copy: the set keeps its count table meanwhile
        distinct, tallies = distinct[seen], tallies[seen]
    return knn_train(distinct, tallies, metric)


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
    ``stream``.
    """
    started = time.perf_counter()
    seeds = {
        "train": stream.child("pairs" if method == "channel" else "train"),
        "valid": stream.child("valid"),
        "learner": stream.child("learner"),
    }
    valid = sample_joint((prior, channel), n, seeds["valid"])
    predictor, details = fit(
        method, prior, channel, gain, m, learner_config, seeds["train"], seeds["learner"]
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
    guesses.  The frequentist baseline is such a table over the seen rows; a
    fixed strategy of a matrix channel is one keyed by output index,
    ``keys = arange(|Y|)[:, None]``."""

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


def frequentist_predictor(train: SampleSet, gain: GainFunction) -> TablePredictor:
    """Decision table from empirical conditionals on the training set.

    For each seen y: w(y) = argmax_w sum_x P_hat(x|y) g(w, x).  Observables
    never seen in training are assigned the most frequent training secret
    with probability one, so their guess is argmax_w g(w, x_mode).  Ties
    break toward the lowest index throughout.
    """
    _require(train.size > 0, "training set is empty")
    # argmax_w sum_x counts(x|y) g(w,x); normalization by count(y) cancels
    y_distinct, scores = _secret_scores(train, gain.matrix)
    # the count table's column sums are each secret's count in training
    x_mode = int(np.argmax(train.counts[1].sum(axis=0)))
    fallback = int(np.argmax(gain.matrix[:, x_mode]))
    return TablePredictor(y_distinct, np.argmax(scores, axis=1), fallback)


def _secret_scores(train: SampleSet, matrix: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Distinct observables y of ``train`` and their (l, W) scores
    sum_x n(x, y) matrix[w, x], from the set's (l, X) table of secret
    counts n."""
    distinct, counts = train.counts
    return distinct, counts.astype(np.float64) @ matrix.T
