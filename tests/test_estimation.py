"""Black-box estimation pipelines and the frequentist baseline."""

import json

import numpy as np
import pytest

from gleak import (
    Alphabet,
    Channel,
    GainFunction,
    GenerativeChannel,
    KnnConfig,
    DistanceMetric,
    NumericalError,
    Prior,
    SampleSet,
    ValidationError,
    estimate_channel_preproc,
    estimate_data_preproc,
    frequentist_estimate,
    frequentist_predictor,
    identity_gain,
    joint_from,
    posterior_vulnerability,
    sample_joint,
    sample_preprocessed_pairs,
    scalar_codec,
    stream,
)
from gleak.estimation import TablePredictor, _check_range

from conftest import random_channel, random_gain, random_prior


def scalar_knn():
    return KnnConfig(DistanceMetric("absolute", scalar_codec()))


def euclid_knn():
    return KnnConfig(DistanceMetric("euclidean", scalar_codec()))


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
        joint = joint_from(prior, channel)
        train = sample_joint(joint, 5000, stream(0, "t/est/train"))
        valid = sample_joint(joint, 5000, stream(0, "t/est/valid"))
        report = estimate_data_preproc(train, valid, gain, scalar_knn())
        exact = posterior_vulnerability(prior, channel, gain)
        assert abs(report.estimate - exact) / exact < 0.05
        assert report.method == "data-preproc"
        assert report.learner == "knn"
        assert report.m == 5000 and report.n == 5000

    def test_fractional_gain_matches_integer_path(self, two_secret):
        """Rationalization makes the trained model scale-free; only the
        evaluation gain carries units, so estimates scale exactly by 1/K."""
        prior, channel, gain = two_secret
        joint = joint_from(prior, channel)
        train = sample_joint(joint, 800, stream(3, "t/est/ktrain"))
        valid = sample_joint(joint, 800, stream(3, "t/est/kvalid"))
        frac = GainFunction(gain.guesses, gain.secrets, gain.matrix / 2.0)
        r_int = estimate_data_preproc(train, valid, gain, scalar_knn())
        r_frac = estimate_data_preproc(train, valid, frac, scalar_knn())
        assert r_frac.estimate * 2.0 == pytest.approx(r_int.estimate, abs=1e-12)
        assert r_frac.details["rationalize_scale"] == 2
        assert r_int.details["rationalize_scale"] == 1

    def test_noiseless_channel_estimates_one(self):
        X = Alphabet.integers(4)
        prior = Prior.uniform(X)
        channel = Channel(X, Alphabet.integers(4, "y"), np.eye(4))
        joint = joint_from(prior, channel)
        train = sample_joint(joint, 400, stream(1, "t/est/nl-train"))
        valid = sample_joint(joint, 400, stream(1, "t/est/nl-valid"))
        report = estimate_data_preproc(train, valid, identity_gain(X), scalar_knn())
        assert report.estimate == 1.0

    def test_expansion_factor_reported(self, two_secret):
        prior, channel, _ = two_secret
        X = prior.alphabet
        gain = GainFunction(Alphabet.integers(2, "w"), X, np.array([[3.0, 0.0], [0.0, 2.0]]))
        joint = joint_from(prior, channel)
        train = sample_joint(joint, 200, stream(2, "t/est/exp-train"))
        valid = sample_joint(joint, 200, stream(2, "t/est/exp-valid"))
        report = estimate_data_preproc(train, valid, gain, scalar_knn())
        weights = gain.matrix[:, train.xs].sum(axis=0)
        assert report.details["expanded_total_weight"] == int(weights.sum())
        assert report.details["expansion_factor"] == weights.sum() / 200

    def test_empty_sets_rejected(self, two_secret):
        prior, channel, gain = two_secret
        joint = joint_from(prior, channel)
        some = sample_joint(joint, 10, stream(0, "t/est/e"))
        empty = SampleSet(
            prior.alphabet,
            np.empty(0, dtype=np.int64),
            np.empty((0, 1), dtype=np.int64),
        )
        with pytest.raises(ValidationError):
            estimate_data_preproc(empty, some, gain, scalar_knn())
        with pytest.raises(ValidationError):
            estimate_data_preproc(some, empty, gain, scalar_knn())

    def test_report_round_trips_through_json(self, two_secret):
        prior, channel, gain = two_secret
        joint = joint_from(prior, channel)
        train = sample_joint(joint, 100, stream(7, "t/est/j-train"))
        valid = sample_joint(joint, 100, stream(7, "t/est/j-valid"))
        report = estimate_data_preproc(train, valid, gain, scalar_knn())
        payload = json.loads(json.dumps(report.as_dict()))
        assert payload["seeds"]["train"] == {
            "master_seed": 7,
            "stream": "t/est/j-train",
        }
        assert payload["estimate"] == report.estimate


class TestChannelPipeline:
    def test_sampled_guesses_follow_tau(self):
        X = Alphabet.integers(3)
        prior = Prior(X, np.array([0.5, 0.3, 0.2]))
        gain = identity_gain(X)
        channel = Channel(X, Alphabet.integers(3, "y"), np.eye(3))
        m = 20_000
        weighted = sample_preprocessed_pairs(
            prior, channel, gain, m, stream(0, "t/est/tau")
        )
        assert int(weighted.weights.sum()) == m
        # identity gain: tau == prior, R == identity, so y == w on a
        # noiseless channel and the guess marginal estimates tau
        freq = np.zeros(3)
        np.add.at(freq, weighted.ws, weighted.weights)
        freq /= m
        sigma = np.sqrt(prior.probs * (1 - prior.probs) / m)
        assert (np.abs(freq - prior.probs) < 4 * sigma).all()
        assert (weighted.ws == weighted.ys[:, 0]).all()

    def test_knn_recovers_posterior_vulnerability(self, two_secret):
        prior, channel, gain = two_secret
        report = estimate_channel_preproc(
            prior, channel, gain, 5000, 5000, scalar_knn(), stream(0, "t/est/chan")
        )
        exact = posterior_vulnerability(prior, channel, gain)
        assert abs(report.estimate - exact) / exact < 0.05
        assert report.method == "channel-preproc"
        assert report.details["beta_handling"].startswith("implicit")

    def test_beta_reported_for_scaled_gain(self, two_secret):
        prior, channel, _ = two_secret
        X = prior.alphabet
        gain = GainFunction(Alphabet.integers(2, "w"), X, 2.0 * np.eye(2))
        report = estimate_channel_preproc(
            prior, channel, gain, 2000, 2000, scalar_knn(), stream(1, "t/est/beta")
        )
        assert report.details["beta"] == pytest.approx(2.0)
        exact = posterior_vulnerability(prior, channel, gain)
        assert abs(report.estimate - exact) / exact < 0.1

    def test_prepared_validation_set_accepted(self, two_secret):
        prior, channel, gain = two_secret
        valid = sample_joint(joint_from(prior, channel), 1000, stream(5, "t/est/pv"))
        report = estimate_channel_preproc(
            prior, channel, gain, 1000, valid, scalar_knn(), stream(5, "t/est/pc")
        )
        assert report.n == 1000
        assert report.seeds["valid"].stream == "t/est/pv"

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

        gen_channel = GenerativeChannel(prior.alphabet, 1, sampler, "boxed")
        report = estimate_channel_preproc(
            prior, gen_channel, gain, 4000, 4000, scalar_knn(), stream(2, "t/est/gen")
        )
        exact = posterior_vulnerability(prior, channel, gain)
        assert abs(report.estimate - exact) / exact < 0.1

    def test_deterministic_given_stream(self, two_secret):
        prior, channel, gain = two_secret
        runs = [
            estimate_channel_preproc(
                prior, channel, gain, 500, 500, scalar_knn(), stream(9, "t/est/det")
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
        report = estimate_channel_preproc(
            prior, channel, gain, 6000, 6000, scalar_knn(),
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
        joint = joint_from(prior, channel)
        train = sample_joint(joint, 8000, stream(0, "t/freq/train"))
        valid = sample_joint(joint, 8000, stream(0, "t/freq/valid"))
        report = frequentist_estimate(train, valid, gain)
        exact = posterior_vulnerability(prior, channel, gain)
        assert abs(report.estimate - exact) / exact < 0.05
        assert report.method == "frequentist" and report.learner == "none"

    def test_table_predictor_lookup(self):
        table = {np.array([3], dtype=np.int64).tobytes(): 7}
        predictor = TablePredictor(table, fallback=2)
        got = predictor.predict(np.array([[3], [4]]))
        assert got.tolist() == [7, 2]


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
        joint = joint_from(prior, channel)
        exact = posterior_vulnerability(prior, channel, gain)
        valid = sample_joint(joint, 20_000, stream(0, "t/freq/big-v"))
        small = frequentist_estimate(
            sample_joint(joint, 50, stream(0, "t/freq/small")), valid, gain
        )
        large = frequentist_estimate(
            sample_joint(joint, 50_000, stream(0, "t/freq/large")), valid, gain
        )
        assert abs(large.estimate - exact) < abs(small.estimate - exact)
