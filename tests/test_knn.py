"""Modified k-NN: k rule, tie inclusion, weighted voting."""

import math

import numpy as np
import pytest

from gleak import (
    Alphabet,
    DistanceMetric,
    KnnConfig,
    ValidationError,
    WeightedSampleSet,
    k_for,
    knn_train,
    scalar_codec,
    tuple_codec,
)
from gleak import knn


def weighted(ws, ys, weights, n_guesses=None):
    ws = np.asarray(ws)
    n = int(ws.max()) + 1 if n_guesses is None else n_guesses
    return WeightedSampleSet(
        Alphabet.integers(n, "w"), ws, np.asarray(ys), np.asarray(weights)
    )


def scalar_config():
    return KnnConfig(DistanceMetric("absolute", scalar_codec(1.0)))


class TestKRule:
    def test_small_counts_exhaustively(self):
        for l in range(1, 200):
            expected = max(1, int(math.floor(math.log(l))))
            assert k_for(l) == expected

    def test_boundary_values(self):
        # e^k thresholds: floor(ln l) steps at l = 3, 8, 21, 55, ...
        assert k_for(1) == 1
        assert k_for(2) == 1
        assert k_for(3) == 1
        assert k_for(7) == 1
        assert k_for(8) == 2
        assert k_for(20) == 2
        assert k_for(21) == 3
        assert k_for(10000) == 9

    def test_invalid(self):
        with pytest.raises(ValidationError):
            k_for(0)


class TestTraining:
    def test_tallies_are_weighted_counts(self):
        data = weighted(
            ws=[0, 1, 0, 1],
            ys=[[3], [3], [5], [3]],
            weights=[2, 1, 4, 6],
        )
        model = knn_train(data, scalar_config())
        assert model.n_indexed == 2  # distinct observables {3, 5}
        assert model.k == 1
        np.testing.assert_array_equal(model.tallies, [[2.0, 7.0], [4.0, 0.0]])

    def test_weight_equivalence_with_physical_copies(self):
        gen = np.random.default_rng(2)
        ws = gen.integers(0, 3, size=40)
        ys = gen.integers(0, 6, size=(40, 1))
        weights = gen.integers(1, 5, size=40)
        compact = weighted(ws, ys, weights, n_guesses=3)
        ws_dup = np.repeat(ws, weights)
        ys_dup = np.repeat(ys, weights, axis=0)
        duplicated = weighted(ws_dup, ys_dup, np.ones(ws_dup.size, dtype=int), 3)
        a = knn_train(compact, scalar_config())
        b = knn_train(duplicated, scalar_config())
        assert a.k == b.k
        np.testing.assert_array_equal(a.features, b.features)
        np.testing.assert_array_equal(a.tallies, b.tallies)
        queries = gen.integers(0, 6, size=(64, 1))
        np.testing.assert_array_equal(a.predict(queries), b.predict(queries))


class TestPrediction:
    def test_single_neighbor_vote(self):
        data = weighted(ws=[0, 1], ys=[[0], [10]], weights=[1, 1])
        model = knn_train(data, scalar_config())
        assert model.predict(np.array([[1], [9]])).tolist() == [0, 1]

    def test_distance_ties_include_all(self):
        # l = 8 -> k = 2; query 5 sits at distance 1 from {4, 6} and
        # distance 3 from {2, 8}: the 2-NN set is {4, 6} exactly
        data = weighted(
            ws=[0, 0, 1, 1, 0, 1, 0, 1],
            ys=[[0], [1], [2], [4], [6], [8], [11], [12]],
            weights=[1, 1, 1, 3, 1, 3, 1, 1],
        )
        model = knn_train(data, scalar_config())
        assert model.k == 2
        # query 3: distances to 2 and 4 are both 1 = kth distance -> both in;
        # votes w1: 1 (from 2) + 3 (from 4) vs w0: 0 -> guess 1
        assert model.predict(np.array([[3]])).tolist() == [1]
        # query 5: 4 and 6 at distance 1; votes w1=3 vs w0=1 -> guess 1
        assert model.predict(np.array([[5]])).tolist() == [1]

    def test_kth_distance_tie_pulls_in_extra_neighbors(self):
        # k = 1 (l = 3) but two points tie at the nearest distance
        data = weighted(ws=[0, 1, 1], ys=[[4], [6], [20]], weights=[1, 2, 1])
        model = knn_train(data, scalar_config())
        assert model.k == 1
        # query 5: both 4 and 6 at distance 1; votes w0=1, w1=2 -> 1
        assert model.predict(np.array([[5]])).tolist() == [1]

    def test_vote_ties_break_to_lowest_guess_index(self):
        data = weighted(ws=[2, 1], ys=[[4], [6]], weights=[5, 5], n_guesses=3)
        model = knn_train(data, scalar_config())
        # query 5: equidistant, equal votes for guesses 1 and 2 -> lowest (1)
        assert model.predict(np.array([[5]])).tolist() == [1]

    def test_k_capped_by_index_size(self):
        data = weighted(ws=[0], ys=[[7]], weights=[9])
        model = knn_train(data, scalar_config())
        assert model.predict(np.array([[0], [100]])).tolist() == [0, 0]

    def test_chunked_prediction_matches_unchunked(self, monkeypatch):
        gen = np.random.default_rng(11)
        data = weighted(
            gen.integers(0, 4, size=300),
            gen.integers(0, 50, size=(300, 1)),
            gen.integers(1, 6, size=300),
            n_guesses=4,
        )
        model = knn_train(data, scalar_config())
        queries = gen.integers(0, 50, size=(700, 1))
        monkeypatch.setattr(knn, "QUERY_CHUNK", 7)
        chunked = model.predict(queries)
        monkeypatch.setattr(knn, "QUERY_CHUNK", 10_000)
        np.testing.assert_array_equal(chunked, model.predict(queries))


class TestMetrics:
    def test_euclidean_and_manhattan_disagree_when_they_should(self):
        codec = tuple_codec(2, 1.0)
        e = DistanceMetric("euclidean", codec)
        m = DistanceMetric("manhattan", codec)
        q = codec.encode(np.array([[0, 0]]))
        pts = codec.encode(np.array([[3, 4], [6, 0]]))
        np.testing.assert_allclose(e.pairwise(q, pts), [[5.0, 6.0]])
        np.testing.assert_allclose(m.pairwise(q, pts), [[7.0, 6.0]])

    def test_absolute_requires_scalar_codec(self):
        with pytest.raises(ValidationError):
            DistanceMetric("absolute", tuple_codec(2, 1.0))

    def test_unknown_kind(self):
        with pytest.raises(ValidationError):
            DistanceMetric("chebyshev", scalar_codec(1.0))

    def test_tuple_metric_prediction(self):
        codec = tuple_codec(2, 1.0)
        config = KnnConfig(DistanceMetric("manhattan", codec))
        data = WeightedSampleSet(
            Alphabet.integers(2, "w"),
            np.array([0, 1]),
            np.array([[0, 0], [10, 10]]),
            np.array([1, 1]),
        )
        model = knn_train(data, config)
        got = model.predict(np.array([[1, 2], [9, 8]]))
        assert got.tolist() == [0, 1]
