"""From-scratch network: gradients, determinism, weight equivalence."""

import numpy as np
import pytest

from gleak import Alphabet, DistanceMetric, MlpConfig, ValidationError, scalar_codec, stream
from gleak.core import PairTable
from gleak.features import grid_codec, tuple_codec
from gleak.knn import knn_train
from gleak.mlp import MlpClassifier, TrainingDiverged, _Network, mlp_train
from oracles import (
    Entries,
    entries_table,
    expanded_entries,
    gradient_check,
    reference_mlp_train,
    table_entries,
)


def make_weighted(ws, ys, weights, n_guesses):
    """The (guess, observable) table of the entries, weights summed per pair."""
    guesses = Alphabet.integers(n_guesses, "w")
    return entries_table(Entries(guesses, np.asarray(ws), np.asarray(ys), np.asarray(weights)))


def assert_same_weights(a, b):
    for wa, wb in zip(a.weights + a.biases, b.weights + b.biases):
        np.testing.assert_array_equal(wa, wb)


def separable_data(n_per_class=30):
    """Two scalar clusters: y < 10 labeled 0, y > 90 labeled 1."""
    ys = np.concatenate(
        [np.arange(n_per_class) % 10, 90 + (np.arange(n_per_class) % 10)]
    )[:, None]
    ws = np.concatenate(
        [np.zeros(n_per_class, dtype=int), np.ones(n_per_class, dtype=int)]
    )
    return make_weighted(ws, ys, np.ones(2 * n_per_class, dtype=int), 2)


class TestGradients:
    def test_ten_random_architectures(self):
        gen = np.random.default_rng(61)
        for trial in range(10):
            depth = int(gen.integers(1, 4))
            sizes = (
                int(gen.integers(1, 5)),
                *(int(gen.integers(2, 8)) for _ in range(depth)),
                int(gen.integers(2, 5)),
            )
            x = gen.standard_normal((6, sizes[0]))
            labels = gen.integers(0, sizes[-1], size=6)
            err = gradient_check(sizes, x, labels, stream(trial, "t/grad"))
            assert err <= 1e-4, f"architecture {sizes}: gradient error {err}"

    def test_gradient_of_constant_input(self):
        # all-equal inputs still give consistent finite differences
        x = np.ones((4, 2))
        labels = np.array([0, 1, 0, 1])
        err = gradient_check((2, 5, 2), x, labels, stream(0, "t/grad-const"))
        assert err <= 1e-4

    def test_repeated_draws(self):
        # the distinct-row step weights each row and cell by its draws
        gen = np.random.default_rng(62)
        x = gen.standard_normal((5, 2))
        labels = np.array([0, 2, 1, 1, 0])
        idx = np.array([0, 0, 3, 1, 0, 4, 4, 1, 0])
        err = gradient_check((2, 6, 3), x, labels, stream(0, "t/grad-draws"), idx=idx)
        assert err <= 1e-4

    def test_zero_weight_network_symmetry(self):
        # balanced labels + zero parameters: output gradients cancel exactly
        x = np.array([[0.4], [-0.2], [0.9], [-0.7]])
        labels = np.array([0, 1, 1, 0])
        net = _Network((1, 3, 2), x.shape[0], np.random.default_rng(0))
        net.params[:] = 0.0
        net.grads[:] = np.nan  # every gradient must be written by the pass
        cells = np.arange(4)
        net.loss_and_grads(x, cells, labels, cells)
        assert np.isfinite(net.grads).all()
        np.testing.assert_allclose(net.grads_b[-1], 0.0, atol=1e-15)
        np.testing.assert_allclose(net.grads_w[-1], 0.0, atol=1e-15)


class TestTraining:
    def test_learns_separable_toy_problem(self):
        config = MlpConfig(
            codec=scalar_codec(0.01),
            hidden=(16,),
            learning_rate=1e-2,
            epochs=60,
            batch_size=20,
        )
        model = mlp_train(separable_data(), config, stream(4, "t/toy"))
        queries = np.array([[2], [5], [95], [99]])
        assert model.predict(queries).tolist() == [0, 0, 1, 1]
        assert model.loss_final_epoch < model.loss_first_epoch

    def test_bitwise_determinism(self):
        config = MlpConfig(scalar_codec(0.01), (8,), 1e-3, epochs=5, batch_size=16)
        a = mlp_train(separable_data(), config, stream(7, "t/det"))
        b = mlp_train(separable_data(), config, stream(7, "t/det"))
        for wa, wb in zip(a.weights, b.weights):
            np.testing.assert_array_equal(wa, wb)
        c = mlp_train(separable_data(), config, stream(8, "t/det"))
        assert any(
            not np.array_equal(wa, wc) for wa, wc in zip(a.weights, c.weights)
        )

    def test_weighted_equals_expanded_multiset_bitwise(self):
        # a pair of weight k trains as k physical copies of it: the table
        # against the reference loop on the expansion, every weight 1
        gen = np.random.default_rng(17)
        ws = gen.integers(0, 3, size=25)
        ys = gen.integers(0, 40, size=(25, 1))
        weights = gen.integers(1, 6, size=25)
        table = make_weighted(ws, ys, weights, 3)
        listing = expanded_entries(table_entries(table))
        assert listing.weights.size == table.total_weight == int(weights.sum())
        config = MlpConfig(scalar_codec(0.025), (8,), 1e-3, epochs=4, batch_size=10)
        assert_same_weights(
            mlp_train(table, config, stream(3, "t/weq")),
            reference_mlp_train(listing, config, stream(3, "t/weq")),
        )

    def test_weight_equivalence_requires_sorted_expansion_order(self):
        # the equivalence relies on cumulative-weight inversion: entry order
        # changes the draw mapping, so the expansion must list the cells
        # guess-major, then by observable; this documents the contract
        # rather than luck
        data = make_weighted([0, 1], [[0], [50]], [3, 1], 2)
        config = MlpConfig(scalar_codec(0.02), (4,), 1e-3, epochs=2, batch_size=4)
        a = mlp_train(data, config, stream(1, "t/order"))

        def listing(ws, ys):
            return Entries(data.guesses, np.array(ws), np.array(ys)[:, None], np.ones(4, int))

        expanded = listing([0, 0, 0, 1], [0, 0, 0, 50])
        assert_same_weights(a, reference_mlp_train(expanded, config, stream(1, "t/order")))
        permuted = listing([1, 0, 0, 0], [50, 0, 0, 0])
        b = reference_mlp_train(permuted, config, stream(1, "t/order"))
        assert any(not np.array_equal(wa, wb) for wa, wb in zip(a.weights, b.weights))

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_non_finite_loss_raises_with_epoch(self):
        # feature overflow drives the forward pass to inf - inf = NaN
        config = MlpConfig(
            scalar_codec(1e305), (8,), learning_rate=1e-3, epochs=5, batch_size=8
        )
        data = make_weighted([0, 1], [[0], [1000000]], [1, 1], 2)
        with pytest.raises(TrainingDiverged) as err:
            mlp_train(data, config, stream(0, "t/div"))
        assert err.value.epoch == 0

    def test_two_observable_separable_set_reaches_full_accuracy(self):
        # two observables with disjoint guesses
        data = make_weighted([0, 1], [[0], [100]], [5, 5], 2)
        config = MlpConfig(scalar_codec(0.01), (8,), 1e-2, epochs=200, batch_size=4)
        model = mlp_train(data, config, stream(1, "t/sep2"))
        assert model.predict(np.array([[0], [100]])).tolist() == [0, 1]

    def test_published_large_config_accepted_and_runs(self):
        # 3 hidden layers x 100 units, lr 1e-3, batch 1000, 700 epochs
        config = MlpConfig(
            scalar_codec(0.01), (100, 100, 100), 1e-3, epochs=700, batch_size=1000
        )
        data = make_weighted([0, 1], [[0], [100]], [1, 1], 2)
        model = mlp_train(data, config, stream(9, "t/big"))
        assert model.layer_sizes == (1, 100, 100, 100, 2)
        assert np.isfinite(model.loss_final_epoch)

    def test_exact_softmax_tie_predicts_lowest_index(self):
        codec = scalar_codec(0.5)
        zero = MlpClassifier(codec, [np.zeros((1, 4)), np.zeros((4, 3))],
                             [np.zeros(4), np.zeros(3)])
        queries = np.array([[1], [7], [-2]])
        proba = zero.predict_proba(queries)
        np.testing.assert_allclose(proba, 1.0 / 3.0, atol=1e-15)
        assert zero.predict(queries).tolist() == [0, 0, 0]

    def test_logit_shift_leaves_predictions_unchanged(self):
        config = MlpConfig(scalar_codec(0.01), (6,), 1e-3, epochs=3, batch_size=8)
        model = mlp_train(separable_data(), config, stream(12, "t/shift"))
        shifted = MlpClassifier(
            model.codec,
            list(model.weights),
            [model.biases[0], model.biases[1] + 13.5],
        )
        queries = np.arange(0, 100, 4)[:, None]
        np.testing.assert_array_equal(
            shifted.predict(queries), model.predict(queries)
        )

    def test_softmax_rows_sum_to_one(self):
        config = MlpConfig(scalar_codec(0.01), (8,), 1e-3, epochs=2, batch_size=8)
        model = mlp_train(separable_data(), config, stream(2, "t/sm"))
        proba = model.predict_proba(np.arange(0, 100, 7)[:, None])
        np.testing.assert_allclose(proba.sum(axis=1), 1.0, atol=1e-6)
        assert (proba >= 0).all()

    @pytest.mark.parametrize(
        "tallies",
        [
            [[0.5, 0.0], [0.0, 1.0]],  # int64 would truncate the half weight
            [[1.0, 0.0], [0.0, -1.0]],
            [[2.0**53, 0.0], [0.0, 1.0]],  # a guess's total past float64's integers
            [[1.0, np.nan], [0.0, 1.0]],
        ],
    )
    @pytest.mark.parametrize("learner", ["k-NN", "MLP"])
    def test_both_learners_take_only_counts(self, tallies, learner):
        table = PairTable(Alphabet.integers(2, "w"), np.array([[0], [5]]), np.array(tallies))
        with pytest.raises(ValidationError, match=f"{learner} tallies must be non-negative"):
            if learner == "MLP":
                config = MlpConfig(scalar_codec(0.1), (4,), epochs=1, batch_size=2)
                mlp_train(table, config, stream(0, "t/counts"))
            else:
                metric = DistanceMetric("absolute", scalar_codec())
                knn_train(table.distinct, table.tallies, metric)

    def test_table_without_weight_rejected(self):
        table = PairTable(Alphabet.integers(2, "w"), np.array([[0], [5]]), np.zeros((2, 2)))
        config = MlpConfig(scalar_codec(0.1), (4,), epochs=1, batch_size=2)
        with pytest.raises(ValidationError, match="no positive weight"):
            mlp_train(table, config, stream(0, "t/empty"))

    def test_config_validation(self):
        codec = scalar_codec(1.0)
        with pytest.raises(ValidationError):
            MlpConfig(codec, hidden=(), epochs=1, batch_size=1)
        with pytest.raises(ValidationError):
            MlpConfig(codec, hidden=(4,), epochs=0, batch_size=1)
        with pytest.raises(ValidationError):
            MlpConfig(codec, hidden=(4,), epochs=1, batch_size=0)
        with pytest.raises(ValidationError):
            MlpConfig(codec, hidden=(4,), learning_rate=0.0, epochs=1, batch_size=1)


class TestFeatureCodecs:
    def test_scalar_codec(self):
        codec = scalar_codec(0.5, offset=1.0)
        out = codec.encode(np.array([[0], [2], [4]]))
        np.testing.assert_allclose(out, [[1.0], [2.0], [3.0]])
        assert codec.points(np.array([[4], [-2]])).tolist() == [[4], [-2]]
        with pytest.raises(ValidationError):
            codec.points(np.array([[1, 2]]))

    def test_grid_codec(self):
        codec = grid_codec(4, 5)
        cells = np.array([[0], [7], [19], [-1]])
        points = codec.points(cells)
        assert points.dtype == np.int64
        assert points.tolist() == [[0, 0], [1, 2], [3, 4], [-1, 4]]
        # divided by the grid size, not multiplied by its inverse
        np.testing.assert_array_equal(codec.encode(cells), points / 5)
        with pytest.raises(ValidationError):
            codec.points(np.array([[1, 2]]))

    def test_tuple_codec(self):
        codec = tuple_codec(3, 0.1)
        out = codec.encode(np.array([[1, 2, 3]]))
        np.testing.assert_allclose(out, [[0.1, 0.2, 0.3]])
        with pytest.raises(ValidationError):
            codec.encode(np.array([[1, 2]]))
