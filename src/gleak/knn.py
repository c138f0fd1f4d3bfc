"""Modified k-nearest-neighbors over distinct observables.

Instead of searching neighbors among all training samples, the index holds
the l distinct observables with per-observable weighted guess tallies;
k = max(1, floor(ln l)).  A query aggregates the tallies of its k nearest
distinct observables (all observables tied at the k-th distance included)
and returns the weighted majority guess, lowest index on ties.

Queries are answered in blocks of ``QUERY_CHUNK`` against every indexed
observable, except under the 1-D ``absolute`` metric, where a window of
the sorted features around each query finds its k-th distance and its tied
run, with no (q, l) matrix at all.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import _freeze, _require, _unique_rows
from .features import FeatureCodec
from .preprocess import WeightedSampleSet

METRIC_KINDS = ("absolute", "euclidean", "manhattan")
QUERY_CHUNK = 32  # queries per (q, l) distance block: 1 MB at l = 4,000, in cache
EXACT_COUNT = 2**53  # float64 holds every integer count below this exactly


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
        """(q, dim) x (l, dim) -> (q, l) distances.

        One (q, l) buffer is filled a dimension at a time: difference, abs
        (or square), then added to the sum, so no (q, l, dim) temporary is
        built.  The terms are summed left to right, which is the order of
        ``.sum(axis=2)`` over fewer than eight dimensions; from eight on,
        numpy's pairwise sum groups them differently.
        """
        out = np.empty((queries.shape[0], points.shape[0]))
        term = np.empty_like(out) if queries.shape[1] > 1 else out
        magnitude = np.square if self.kind == "euclidean" else np.abs
        columns = np.ascontiguousarray(points.T)
        for d in range(queries.shape[1]):
            dest = out if d == 0 else term
            np.subtract(queries[:, d, None], columns[d], out=dest)
            magnitude(dest, out=dest)
            if d:
                np.add(out, term, out=out)
        if self.kind == "euclidean":
            np.sqrt(out, out=out)
        return out


def k_for(l: int) -> int:
    """Neighbor count rule: max(1, floor(ln l))."""
    _require(l >= 1, "l must be >= 1")
    return max(1, int(math.floor(math.log(l))))


class KnnClassifier:
    """Immutable trained model: distinct-observable index + tallies.

    ``tallies`` are weighted counts: non-negative integers, each guess's
    total below 2**53, so every sum of them is exact in float64 whatever
    its order.  Under the 1-D ``absolute`` metric the features are also
    kept sorted, with prefix sums of their tallies.
    """

    __slots__ = ("features", "tallies", "k", "metric", "n_guesses", "_sorted", "_cum")

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
        _require(
            bool((self.tallies >= 0).all())
            and bool((self.tallies == np.round(self.tallies)).all())
            and bool((self.tallies.sum(axis=0) < EXACT_COUNT).all()),
            "k-NN tallies must be non-negative integer counts below 2**53",
        )
        if metric.kind == "absolute":
            order = np.argsort(self.features[:, 0], kind="stable")
            self._sorted = self.features[order, 0]
            self._cum = np.zeros((order.size + 1, self.n_guesses))
            np.cumsum(self.tallies[order], axis=0, out=self._cum[1:])

    @property
    def n_indexed(self) -> int:
        return int(self.features.shape[0])

    def predict(self, ys: np.ndarray) -> np.ndarray:
        queries = self.metric.codec.encode(ys)
        k = min(self.k, self.n_indexed)
        if self.metric.kind == "absolute":
            return np.argmax(self._run_votes(queries[:, 0], k), axis=1)
        out = np.empty(queries.shape[0], dtype=np.int64)
        for start in range(0, queries.shape[0], QUERY_CHUNK):
            block = queries[start : start + QUERY_CHUNK]
            dists = self.metric.pairwise(block, self.features)
            kth = np.partition(dists, k - 1, axis=1)[:, k - 1]
            # 1.0 where a row is within the k-th distance (all ties included),
            # written over the distances; then each guess's vote is one product
            included = np.less_equal(dists, kth[:, None], out=dists)
            out[start : start + QUERY_CHUNK] = np.argmax(included @ self.tallies, axis=1)
        return out

    def _run_votes(self, q: np.ndarray, k: int) -> np.ndarray:
        """Votes of 1-D queries without a (q, l) matrix.

        Along the sorted features f, |f_i - q| falls to the insertion point
        of q and rises after it, so the k nearest lie among the k features
        on either side, and {i : |f_i - q| <= kth} is one run [lo, hi)
        around it.  Its votes are a difference of prefix sums, exact for
        integer counts.
        """
        f = self._sorted
        l = f.size
        pos = np.searchsorted(f, q)
        window = pos[:, None] + np.arange(-k, k)
        near = np.abs(f[np.clip(window, 0, l - 1)] - q[:, None])
        near[(window < 0) | (window >= l)] = np.inf
        kth = np.partition(near, k - 1, axis=1)[:, k - 1]

        def within(i: np.ndarray) -> np.ndarray:
            return np.abs(f[np.clip(i, 0, l - 1)] - q) <= kth

        # the searches round q -/+ kth; move each edge until the exact
        # comparison holds just inside it and fails just outside
        lo = np.searchsorted(f, q - kth)
        hi = np.searchsorted(f, q + kth, side="right")
        while True:
            lo_in = (lo < pos) & ~within(lo)
            lo_out = (lo > 0) & within(lo - 1)
            hi_out = (hi < l) & within(hi)
            hi_in = (hi > pos) & ~within(hi - 1)
            if not (lo_in.any() or lo_out.any() or hi_out.any() or hi_in.any()):
                return self._cum[hi] - self._cum[lo]
            lo += lo_in.astype(np.intp) - lo_out
            hi += hi_out.astype(np.intp) - hi_in


def _count_table(
    ys: np.ndarray, labels: np.ndarray, n_labels: int, weights: np.ndarray | None = None
) -> tuple[np.ndarray, np.ndarray]:
    """Distinct rows of ``ys`` and the (l, n_labels) table of how often (or
    with what total weight) each label occurs with each of them."""
    distinct, inverse = _unique_rows(ys, return_inverse=True)
    l = distinct.shape[0]
    table = np.bincount(inverse * n_labels + labels, weights=weights, minlength=l * n_labels)
    return distinct, table.reshape(l, n_labels)


def _knn_index(
    distinct: np.ndarray, tallies: np.ndarray, metric: DistanceMetric
) -> KnnClassifier:
    """The classifier over distinct observable rows and their guess tallies."""
    return KnnClassifier(metric.codec.encode(distinct), tallies, k_for(distinct.shape[0]), metric)


def knn_train(data: WeightedSampleSet, metric: DistanceMetric) -> KnnClassifier:
    """Build the deduplicated index and weighted guess tallies under ``metric``."""
    distinct, tallies = _count_table(data.ys, data.ws, data.guesses.size, data.weights)
    return _knn_index(distinct, tallies, metric)
