"""Black-box estimation pipelines and the frequentist baseline."""

import json

import numpy as np
import pytest

from gleak import (
    Alphabet,
    Channel,
    GainFunction,
    GenerativeChannel,
    DistanceMetric,
    MlpConfig,
    NumericalError,
    Prior,
    SampleSet,
    ValidationError,
    empirical_functional,
    estimate,
    fit,
    identity_gain,
    posterior_vulnerability,
    sample_joint,
    scalar_codec,
    stream,
)
from gleak.core import _check_range
from gleak.estimation import (
    TablePredictor,
    frequentist_predictor,
    sample_preprocessed_pairs,
)
from gleak.preprocess import channel_preprocess

from conftest import random_channel, random_gain, random_prior


def scalar_knn():
    return DistanceMetric("absolute", scalar_codec())


def euclid_knn():
    return DistanceMetric("euclidean", scalar_codec())


@pytest.fixture
def two_secret():
    X = Alphabet.integers(2)
    Y = Alphabet.integers(2, "y")
    prior = Prior(X, np.array([0.3, 0.7]))
    channel = Channel(X, Y, np.array([[0.8, 0.2], [0.4, 0.6]]))
    return prior, channel, identity_gain(X)


class TestDataPipeline:
    def test_knn_recovers_posterior_vulnerability(self, two_secret):
        prior, channel, gain = two_secret
        report = estimate(
            "data", prior, channel, gain, 5000, 5000, scalar_knn(), stream(0, "t/est")
        )
        exact = posterior_vulnerability(prior, channel, gain)
        assert abs(report.estimate - exact) / exact < 0.05
        assert report.method == "data-preproc"
        assert report.learner == "knn"
        assert report.m == 5000 and report.n == 5000

    def test_fractional_gain_matches_integer_path(self, two_secret):
        """Rationalization makes the trained model scale-free; only the
        evaluation gain carries units, so estimates scale exactly by 1/K."""
        prior, channel, gain = two_secret
        frac = GainFunction(gain.guesses, gain.secrets, gain.matrix / 2.0)
        # one stream, so both runs draw the same training and validation sets
        r_int, r_frac = (
            estimate(
                "data", prior, channel, g, 800, 800, scalar_knn(), stream(3, "t/est/k")
            )
            for g in (gain, frac)
        )
        assert r_frac.estimate * 2.0 == pytest.approx(r_int.estimate, abs=1e-12)
        assert r_frac.details["rationalize_scale"] == 2
        assert r_int.details["rationalize_scale"] == 1

    def test_noiseless_channel_estimates_one(self):
        X = Alphabet.integers(4)
        prior = Prior.uniform(X)
        channel = Channel(X, Alphabet.integers(4, "y"), np.eye(4))
        report = estimate(
            "data", prior, channel, identity_gain(X), 400, 400, scalar_knn(),
            stream(1, "t/est/nl"),
        )
        assert report.estimate == 1.0

    def test_expansion_factor_reported(self, two_secret):
        prior, channel, _ = two_secret
        X = prior.alphabet
        gain = GainFunction(Alphabet.integers(2, "w"), X, np.array([[3.0, 0.0], [0.0, 2.0]]))
        report = estimate(
            "data", prior, channel, gain, 200, 200, scalar_knn(), stream(2, "t/est/exp")
        )
        # the training set estimate() drew from its "train" child stream
        train = sample_joint((prior, channel), 200, stream(2, "t/est/exp/train"))
        weights = gain.matrix[:, train.xs].sum(axis=0)
        assert report.details["expanded_total_weight"] == int(weights.sum())
        assert report.details["expansion_factor"] == weights.sum() / 200

    def test_empty_sets_rejected(self, two_secret):
        prior, channel, gain = two_secret
        for method in ("data", "channel", "frequentist"):
            for m, n in ((0, 10), (10, 0)):
                with pytest.raises(ValidationError):
                    estimate(
                        method, prior, channel, gain, m, n, scalar_knn(),
                        stream(0, "t/est/e"),
                    )

    def test_learner_method_needs_a_learner(self, two_secret):
        prior, channel, gain = two_secret
        mlp = MlpConfig(scalar_codec(), (4,), 1e-3, epochs=1, batch_size=8)
        for config, learner_stream in ((None, stream(0, "t/est/l")), (mlp, None)):
            with pytest.raises(ValidationError, match="needs a DistanceMetric"):
                fit(
                    "data", prior, channel, gain, 50, config, stream(0, "t/est/t"),
                    learner_stream,
                )

    def test_report_round_trips_through_json(self, two_secret):
        prior, channel, gain = two_secret
        report = estimate(
            "data", prior, channel, gain, 100, 100, scalar_knn(), stream(7, "t/est/j")
        )
        payload = json.loads(json.dumps(report.as_dict()))
        assert payload["seeds"]["train"] == {
            "master_seed": 7,
            "stream": "t/est/j/train",
        }
        assert payload["estimate"] == report.estimate


class TestChannelPipeline:
    def test_sampled_guesses_follow_tau(self):
        X = Alphabet.integers(3)
        prior = Prior(X, np.array([0.5, 0.3, 0.2]))
        gain = identity_gain(X)
        channel = Channel(X, Alphabet.integers(3, "y"), np.eye(3))
        m = 20_000
        pairs = sample_preprocessed_pairs(
            channel_preprocess(prior, gain), channel, m, stream(0, "t/est/tau")
        )
        assert pairs.size == m and pairs.secrets == gain.guesses
        # identity gain: tau == prior, R == identity, so y == w on a
        # noiseless channel and the guess marginal estimates tau
        freq = np.bincount(pairs.xs, minlength=3) / m
        sigma = np.sqrt(prior.probs * (1 - prior.probs) / m)
        assert (np.abs(freq - prior.probs) < 4 * sigma).all()
        assert (pairs.xs == pairs.ys[:, 0]).all()

    def test_knn_recovers_posterior_vulnerability(self, two_secret):
        prior, channel, gain = two_secret
        report = estimate(
            "channel", prior, channel, gain, 5000, 5000, scalar_knn(),
            stream(0, "t/est/chan"),
        )
        exact = posterior_vulnerability(prior, channel, gain)
        assert abs(report.estimate - exact) / exact < 0.05
        assert report.method == "channel-preproc"
        assert report.details["beta_handling"].startswith("implicit")

    def test_beta_reported_for_scaled_gain(self, two_secret):
        prior, channel, _ = two_secret
        X = prior.alphabet
        gain = GainFunction(Alphabet.integers(2, "w"), X, 2.0 * np.eye(2))
        report = estimate(
            "channel", prior, channel, gain, 2000, 2000, scalar_knn(),
            stream(1, "t/est/beta"),
        )
        assert report.details["beta"] == pytest.approx(2.0)
        exact = posterior_vulnerability(prior, channel, gain)
        assert abs(report.estimate - exact) / exact < 0.1

    def test_generative_channel_path(self, two_secret):
        prior, channel, gain = two_secret
        rows = channel.rows

        def sampler(xs, gen):
            u = gen.random(len(xs))
            cum = np.cumsum(rows, axis=1)
            out = np.empty((len(xs), 1), dtype=np.int64)
            for i, x in enumerate(xs):
                out[i, 0] = np.searchsorted(cum[x], u[i] * cum[x, -1], side="right")
            return np.minimum(out, rows.shape[1] - 1)

        gen_channel = GenerativeChannel(prior.alphabet, 1, sampler)
        report = estimate(
            "channel", prior, gen_channel, gain, 4000, 4000, scalar_knn(),
            stream(2, "t/est/gen"),
        )
        exact = posterior_vulnerability(prior, channel, gain)
        assert abs(report.estimate - exact) / exact < 0.1

    def test_deterministic_given_stream(self, two_secret):
        prior, channel, gain = two_secret
        runs = [
            estimate(
                "channel", prior, channel, gain, 500, 500, scalar_knn(),
                stream(9, "t/est/det"),
            ).estimate
            for _ in range(2)
        ]
        assert runs[0] == runs[1]

    @pytest.mark.parametrize("trial", range(15))
    def test_random_instances_with_general_gains(self, trial):
        gen = np.random.default_rng(600 + trial)
        X = Alphabet.integers(int(gen.integers(2, 4)))
        prior = random_prior(gen, X.size)
        channel = random_channel(gen, X, int(gen.integers(2, 5)))
        gain = random_gain(gen, int(gen.integers(2, 4)), X)
        exact = posterior_vulnerability(prior, channel, gain)
        report = estimate(
            "channel", prior, channel, gain, 6000, 6000, scalar_knn(),
            stream(trial, "t/est/rand"),
        )
        scale = max(abs(exact), 1.0)
        assert abs(report.estimate - exact) / scale < 0.1


class TestFrequentist:
    def test_decision_table_from_counts(self):
        X = Alphabet.integers(2)
        xs = np.array([0, 0, 1, 1, 1, 0])
        ys = np.array([[0], [0], [0], [1], [1], [1]])
        train = SampleSet(X, xs, ys)
        predictor = frequentist_predictor(train, identity_gain(X))
        # y=0 saw x: {0: 2, 1: 1} -> guess 0; y=1 saw {0: 1, 1: 2} -> guess 1
        assert predictor.predict(np.array([[0], [1]])).tolist() == [0, 1]

    def test_unseen_observable_falls_back_to_mode_secret(self):
        X = Alphabet.integers(3)
        xs = np.array([1, 1, 1, 0, 2])
        ys = np.array([[0], [0], [1], [2], [3]])
        train = SampleSet(X, xs, ys)
        predictor = frequentist_predictor(train, identity_gain(X))
        assert predictor.fallback == 1  # argmax_w g(w, x_mode) with x_mode = 1
        assert predictor.predict(np.array([[9]])).tolist() == [1]

    def test_fallback_respects_gain_not_just_mode(self):
        X = Alphabet.integers(2)
        # guess 1 is worth more against the mode secret 0
        gain = GainFunction(
            Alphabet.integers(2, "w"), X, np.array([[1.0, 0.0], [5.0, 1.0]])
        )
        train = SampleSet(X, np.array([0, 0, 1]), np.array([[0], [1], [2]]))
        predictor = frequentist_predictor(train, gain)
        assert predictor.fallback == 1

    def test_score_ties_break_low(self):
        X = Alphabet.integers(2)
        gain = GainFunction(
            Alphabet.integers(2, "w"), X, np.array([[1.0, 1.0], [1.0, 1.0]])
        )
        train = SampleSet(X, np.array([0, 1]), np.array([[0], [0]]))
        predictor = frequentist_predictor(train, gain)
        assert predictor.predict(np.array([[0]])).tolist() == [0]

    def test_estimate_converges_on_small_example(self, two_secret):
        prior, channel, gain = two_secret
        report = estimate(
            "frequentist", prior, channel, gain, 8000, 8000, None, stream(0, "t/freq")
        )
        exact = posterior_vulnerability(prior, channel, gain)
        assert abs(report.estimate - exact) / exact < 0.05
        assert report.method == "frequentist" and report.learner == "none"

    def test_table_predictor_lookup(self):
        predictor = TablePredictor(np.array([[3]]), np.array([7]), fallback=2)
        got = predictor.predict(np.array([[3], [4]]))
        assert got.tolist() == [7, 2]

    @pytest.mark.parametrize("width", [1, 5])
    def test_table_predictor_matches_dict_reference(self, width):
        gen = np.random.default_rng(width)
        xs = gen.integers(0, 4, size=300)
        train = SampleSet(
            Alphabet.integers(4), xs, gen.integers(0, 3, size=(300, width)) + xs[:, None] % 2
        )
        gain = random_gain(gen, 5, train.secrets)
        predictor = frequentist_predictor(train, gain)
        # queries hold seen and unseen rows, repeats, and rows beyond the seen range
        queries = gen.integers(-1, 5, size=(500, width))
        assert (predictor.predict(queries) == reference_table_predict(predictor, queries)).all()
        assert predictor.predict(queries[:0]).shape == (0,)
        # a fixed strategy: the table keyed by output index, queried over Y
        strategy = TablePredictor(np.arange(300)[:, None], gen.integers(0, 5, size=300), 2)
        outputs = gen.integers(-3, 303, size=(500, 1))
        assert (strategy.predict(outputs) == reference_table_predict(strategy, outputs)).all()

    def test_table_predictor_rejects_malformed_tables(self):
        with pytest.raises(ValidationError, match="distinct"):
            TablePredictor(np.array([[1, 2], [1, 2]]), np.array([0, 1]), 0)
        with pytest.raises(ValidationError, match="one guess per key"):
            TablePredictor(np.array([[1], [2]]), np.array([0]), 0)
        with pytest.raises(ValidationError, match="width"):
            TablePredictor(np.array([[1, 2]]), np.array([0]), 0).predict(np.array([[1]]))


def reference_table_predict(predictor, ys):
    """The original lookup: row bytes as dict keys, one query at a time."""
    table = {
        np.ascontiguousarray(key).tobytes(): int(guess)
        for key, guess in zip(predictor.keys, predictor.guesses)
    }
    ys = np.ascontiguousarray(ys, dtype=np.int64)
    return np.array([table.get(row.tobytes(), predictor.fallback) for row in ys])


class TestRangeCheck:
    gain = identity_gain(Alphabet.integers(2))

    def test_slack_accepted(self):
        _check_range(1.0 + 1e-10, self.gain)
        _check_range(-1e-10, self.gain)

    @pytest.mark.parametrize("estimate", [1.5, -0.1, float("nan")])
    def test_escape_is_numerical_error(self, estimate):
        with pytest.raises(NumericalError, match="escaped gain range"):
            _check_range(estimate, self.gain)


class TestFrequentistVersusTruthDirection:
    def test_small_sample_overfits_upward_on_sparse_observables(self):
        """With many rarely-seen observables the counting baseline memorizes
        noise; its validation score should sit farther from truth than a
        large-sample run of the same baseline."""
        gen = np.random.default_rng(11)
        X = Alphabet.integers(3)
        prior = random_prior(gen, 3)
        channel = random_channel(gen, X, 40)
        gain = identity_gain(X)
        exact = posterior_vulnerability(prior, channel, gain)
        valid = sample_joint((prior, channel), 20_000, stream(0, "t/freq/big-v"))
        small, large = (
            empirical_functional(
                fit("frequentist", prior, channel, gain, m, None, stream(0, name))[0],
                valid,
                gain,
            )
            for m, name in ((50, "t/freq/small"), (50_000, "t/freq/large"))
        )
        assert abs(large - exact) < abs(small - exact)
