"""Modified k-nearest-neighbors over distinct observables.

Instead of searching neighbors among all training samples, the index holds
the l distinct observables with per-observable weighted guess tallies;
k = max(1, floor(ln l)).  A query aggregates the tallies of its k nearest
distinct observables (all observables tied at the k-th distance included)
and returns the weighted majority guess, lowest index on ties.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import ValidationError, _freeze, _require
from .features import FeatureCodec
from .preprocess import WeightedSampleSet

METRIC_KINDS = ("absolute", "euclidean", "manhattan")
QUERY_CHUNK = 256  # queries per (q, l) distance block


@dataclass(frozen=True)
class DistanceMetric:
    """Named metric over codec features: absolute (1-D), euclidean, manhattan."""

    kind: str
    codec: FeatureCodec

    def __post_init__(self) -> None:
        _require(self.kind in METRIC_KINDS, f"unknown metric kind {self.kind!r}")
        if self.kind == "absolute":
            _require(self.codec.dim == 1, "absolute metric needs scalar features")

    def pairwise(self, queries: np.ndarray, points: np.ndarray) -> np.ndarray:
        """(q, dim) x (l, dim) -> (q, l) distances."""
        if self.kind == "absolute":
            return np.abs(queries[:, 0][:, None] - points[:, 0][None, :])
        diff = queries[:, None, :] - points[None, :, :]
        if self.kind == "manhattan":
            return np.abs(diff).sum(axis=2)
        return np.sqrt((diff * diff).sum(axis=2))


@dataclass(frozen=True)
class KnnConfig:
    metric: DistanceMetric


def k_for(l: int) -> int:
    """Neighbor count rule: max(1, floor(ln l))."""
    _require(l >= 1, "l must be >= 1")
    return max(1, int(math.floor(math.log(l))))


class KnnClassifier:
    """Immutable trained model: distinct-observable index + tallies."""

    __slots__ = ("features", "tallies", "k", "metric", "n_guesses")

    def __init__(
        self,
        features: np.ndarray,
        tallies: np.ndarray,
        k: int,
        metric: DistanceMetric,
    ) -> None:
        self.features = _freeze(features)
        self.tallies = _freeze(tallies)
        self.k = k
        self.metric = metric
        self.n_guesses = tallies.shape[1]

    @property
    def n_indexed(self) -> int:
        return int(self.features.shape[0])

    def predict(self, ys: np.ndarray) -> np.ndarray:
        queries = self.metric.codec.encode(ys)
        out = np.empty(queries.shape[0], dtype=np.int64)
        k = min(self.k, self.n_indexed)
        for start in range(0, queries.shape[0], QUERY_CHUNK):
            block = queries[start : start + QUERY_CHUNK]
            dists = self.metric.pairwise(block, self.features)
            kth = np.partition(dists, k - 1, axis=1)[:, k - 1]
            included = dists <= kth[:, None]  # all ties at the k-th distance
            votes = included.astype(np.float64) @ self.tallies
            out[start : start + QUERY_CHUNK] = np.argmax(votes, axis=1)
        return out


def knn_train(data: WeightedSampleSet, config: KnnConfig) -> KnnClassifier:
    """Build the deduplicated index and weighted guess tallies."""
    if data.size == 0:
        raise ValidationError("cannot train k-NN on empty data")
    distinct, inverse = np.unique(data.ys, axis=0, return_inverse=True)
    l = distinct.shape[0]
    tallies = np.zeros((l, data.guesses.size))
    np.add.at(tallies, (inverse, data.ws), data.weights.astype(np.float64))
    features = config.metric.codec.encode(distinct)
    return KnnClassifier(features, tallies, k_for(l), config.metric)
