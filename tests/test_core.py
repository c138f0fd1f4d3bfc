"""Exact vulnerability, leakage, strategies and sampling."""

import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from gleak import (
    Alphabet,
    Channel,
    GainFunction,
    GenerativeChannel,
    Prior,
    SampleSet,
    ValidationError,
    empirical_functional,
    identity_gain,
    leakage,
    posterior_vulnerability,
    prior_vulnerability,
    sample_joint,
    stream,
    strategy_gain,
)
from gleak.core import COUNT_CHECK_ENTRIES, _as_counts, _unique_rows, leakage_of
from gleak.estimation import TablePredictor
from oracles import enumerate_strategies_vulnerability, fixed_strategy, optimal_strategy
from conftest import (
    identity_channel,
    loop_posterior_vulnerability,
    loop_prior_vulnerability,
    original_gain,
    random_channel,
    random_gain,
    random_prior,
)


class TestDomainTypes:
    def test_alphabet_round_trip(self):
        a = Alphabet(("low", "mid", "high"))
        assert a.size == 3
        assert a.index("mid") == 1
        assert a.label(2) == "high"

    def test_alphabet_rejects_duplicates(self):
        with pytest.raises(ValidationError):
            Alphabet(("a", "a"))

    def test_prior_must_sum_to_one(self):
        X = Alphabet.integers(2)
        with pytest.raises(ValidationError):
            Prior(X, np.array([0.5, 0.6]))
        with pytest.raises(ValidationError):
            Prior(X, np.array([1.1, -0.1]))

    def test_channel_must_be_row_stochastic(self):
        X = Alphabet.integers(2)
        with pytest.raises(ValidationError):
            Channel(X, X, np.array([[0.5, 0.4], [0.5, 0.5]]))
        with pytest.raises(ValidationError):
            Channel(X, X, np.array([[1.5, -0.5], [0.5, 0.5]]))

    def test_gain_shift_and_original_units(self):
        X = Alphabet.integers(2)
        g = GainFunction(Alphabet.integers(2, "w"), X, np.array([[-1.0, 1.0], [0.5, -0.5]]))
        assert g.shift == 1.0
        assert (g.matrix >= 0).all()
        np.testing.assert_allclose(original_gain(g), [[-1.0, 1.0], [0.5, -0.5]])
        assert g.range == (-1.0, 1.0)

    def test_sample_set_validation(self):
        X = Alphabet.integers(2)
        with pytest.raises(ValidationError):
            SampleSet(X, np.array([0, 5]), np.array([[0], [0]]))
        with pytest.raises(ValidationError):
            SampleSet(X, np.array([0, 1]), np.array([0, 0]))  # ys not 2-D

    def test_sample_set_counts_once_read_only(self):
        samples = SampleSet(
            Alphabet.integers(3), np.array([2, 0, 2, 1, 2]), np.array([[4, 1], [0, 0], [4, 1], [4, 1], [0, 0]])
        )
        distinct, table = samples.counts
        assert samples.counts[0] is distinct and samples.counts[1] is table
        assert not distinct.flags.writeable and not table.flags.writeable
        np.testing.assert_array_equal(distinct, [[0, 0], [4, 1]])
        np.testing.assert_array_equal(table, [[1, 0, 1], [0, 1, 2]])
        with pytest.raises(ValueError):
            table[0, 0] = 5


class TestPriorVulnerability:
    def test_diagonal_gain_hand_value(self):
        X = Alphabet.integers(2)
        prior = Prior(X, np.array([0.5, 0.5]))
        g = GainFunction(Alphabet.integers(2, "w"), X, np.array([[2.0, 0.0], [0.0, 4.0]]))
        assert prior_vulnerability(prior, g) == pytest.approx(2.0, abs=1e-12)

    def test_identity_gain_is_max_prob(self):
        X = Alphabet.integers(4)
        prior = Prior(X, np.array([0.1, 0.4, 0.3, 0.2]))
        assert prior_vulnerability(prior, identity_gain(X)) == pytest.approx(0.4)

    def test_matches_loop_reference(self):
        gen = np.random.default_rng(11)
        for _ in range(50):
            prior = random_prior(gen, int(gen.integers(2, 7)))
            gain = random_gain(gen, int(gen.integers(2, 7)), prior.alphabet, integer=False)
            assert prior_vulnerability(prior, gain) == pytest.approx(
                loop_prior_vulnerability(prior, gain), abs=1e-12
            )

    def test_negative_gain_shift_is_undone(self):
        X = Alphabet.integers(2)
        prior = Prior(X, np.array([0.5, 0.5]))
        g = GainFunction(Alphabet.integers(2, "w"), X, np.array([[-1.0, -3.0], [-2.0, -2.0]]))
        assert prior_vulnerability(prior, g) == pytest.approx(-2.0, abs=1e-12)


class TestPosteriorVulnerability:
    def test_worked_example(self, two_secret_example):
        prior, channel = two_secret_example
        g = identity_gain(prior.alphabet)
        assert posterior_vulnerability(prior, channel, g) == pytest.approx(0.70, abs=1e-12)

    def test_worked_example_optimal_strategy(self, two_secret_example):
        prior, channel = two_secret_example
        g = identity_gain(prior.alphabet)
        best = optimal_strategy(prior, channel, g)
        # joint columns: (0.24, 0.28) and (0.06, 0.42) -> guess x2 both times
        assert best.guesses.tolist() == [1, 1]
        assert strategy_gain(best, prior, channel, g) == pytest.approx(0.70, abs=1e-12)
        worst = fixed_strategy([0, 0])
        assert strategy_gain(worst, prior, channel, g) == pytest.approx(0.30, abs=1e-12)

    def test_noiseless_channel_reaches_max_gain(self):
        X = Alphabet.integers(3)
        prior = Prior(X, np.array([0.2, 0.5, 0.3]))
        g = identity_gain(X)
        assert posterior_vulnerability(prior, identity_channel(X), g) == pytest.approx(1.0)

    def test_constant_channel_equals_prior_vulnerability(self):
        X = Alphabet.integers(3)
        prior = Prior(X, np.array([0.2, 0.5, 0.3]))
        channel = Channel(X, Alphabet.integers(2, "y"), np.tile([0.5, 0.5], (3, 1)))
        g = identity_gain(X)
        assert posterior_vulnerability(prior, channel, g) == pytest.approx(
            prior_vulnerability(prior, g), abs=1e-12
        )

    def test_matches_loop_reference(self):
        gen = np.random.default_rng(23)
        for _ in range(50):
            prior = random_prior(gen, int(gen.integers(2, 6)))
            channel = random_channel(gen, prior.alphabet, int(gen.integers(2, 6)))
            gain = random_gain(gen, int(gen.integers(2, 6)), prior.alphabet, integer=False)
            assert posterior_vulnerability(prior, channel, gain) == pytest.approx(
                loop_posterior_vulnerability(prior, channel, gain), abs=1e-12
            )

    def test_secret_permutation_equivariance(self):
        gen = np.random.default_rng(31)
        for _ in range(20):
            n = int(gen.integers(2, 6))
            prior = random_prior(gen, n)
            channel = random_channel(gen, prior.alphabet, int(gen.integers(2, 6)))
            gain = random_gain(gen, int(gen.integers(2, 6)), prior.alphabet)
            perm = gen.permutation(n)
            prior_p = Prior(prior.alphabet, prior.probs[perm])
            channel_p = Channel(channel.input, channel.output, channel.rows[perm])
            gain_p = GainFunction(gain.guesses, gain.secrets, original_gain(gain)[:, perm])
            assert posterior_vulnerability(prior_p, channel_p, gain_p) == pytest.approx(
                posterior_vulnerability(prior, channel, gain), abs=1e-12
            )

    def test_observable_permutation_invariance(self):
        gen = np.random.default_rng(37)
        for _ in range(20):
            prior = random_prior(gen, 4)
            channel = random_channel(gen, prior.alphabet, 5)
            gain = random_gain(gen, 3, prior.alphabet)
            perm = gen.permutation(5)
            channel_p = Channel(channel.input, channel.output, channel.rows[:, perm])
            assert posterior_vulnerability(prior, channel_p, gain) == pytest.approx(
                posterior_vulnerability(prior, channel, gain), abs=1e-12
            )

    def test_never_below_prior_vulnerability(self):
        gen = np.random.default_rng(41)
        for _ in range(30):
            prior = random_prior(gen, int(gen.integers(2, 6)))
            channel = random_channel(gen, prior.alphabet, int(gen.integers(2, 6)))
            gain = random_gain(gen, int(gen.integers(2, 6)), prior.alphabet, integer=False)
            assert posterior_vulnerability(prior, channel, gain) >= (
                prior_vulnerability(prior, gain) - 1e-12
            )


class TestStrategyEnumeration:
    def test_matches_posterior_on_random_instances(self):
        gen = np.random.default_rng(43)
        for _ in range(60):
            prior = random_prior(gen, int(gen.integers(2, 5)))
            channel = random_channel(gen, prior.alphabet, int(gen.integers(2, 5)))
            gain = random_gain(gen, int(gen.integers(2, 5)), prior.alphabet, integer=False)
            exact = posterior_vulnerability(prior, channel, gain)
            brute = enumerate_strategies_vulnerability(prior, channel, gain)
            assert brute == pytest.approx(exact, abs=1e-12)

    def test_no_strategy_beats_the_optimum(self):
        gen = np.random.default_rng(47)
        prior = random_prior(gen, 3)
        channel = random_channel(gen, prior.alphabet, 3)
        gain = random_gain(gen, 3, prior.alphabet)
        best = posterior_vulnerability(prior, channel, gain)
        for _ in range(100):
            mapping = gen.integers(0, 3, size=3)
            assert strategy_gain(fixed_strategy(mapping), prior, channel, gain) <= best + 1e-12

    def test_enumeration_cap(self):
        X = Alphabet.integers(4)
        prior = Prior.uniform(X)
        channel = random_channel(np.random.default_rng(0), X, 12)
        with pytest.raises(ValidationError, match="cap"):
            enumerate_strategies_vulnerability(prior, channel, identity_gain(X))


class TestLeakage:
    def test_both_modes(self, two_secret_example):
        prior, channel = two_secret_example
        g = identity_gain(prior.alphabet)
        assert leakage(prior, channel, g, "multiplicative") == pytest.approx(0.7 / 0.7)
        assert leakage(prior, channel, g, "additive") == pytest.approx(0.0, abs=1e-12)

    def test_multiplicative_undefined_on_zero_prior_vulnerability(self):
        X = Alphabet.integers(2)
        prior = Prior(X, np.array([1.0, 0.0]))
        channel = identity_channel(X)
        # only guess w0 pays, and only on the zero-probability secret
        g = GainFunction(Alphabet.integers(1, "w"), X, np.array([[0.0, 1.0]]))
        with pytest.raises(ValidationError, match="undefined"):
            leakage(prior, channel, g, "multiplicative")
        assert leakage(prior, channel, g, "additive") == pytest.approx(0.0)

    def test_multiplicative_needs_positive_prior_vulnerability(self, two_secret_example):
        prior, channel = two_secret_example
        g = GainFunction(
            Alphabet.integers(2, "w"), prior.alphabet, np.array([[-0.2, -2.0], [-2.0, -0.5]])
        )
        pri = prior_vulnerability(prior, g)
        post = posterior_vulnerability(prior, channel, g)
        # the channel leaks, yet the ratio of the negative values is below 1
        assert pri < post < 0.0 and post / pri < 1.0
        with pytest.raises(ValidationError, match="positive prior vulnerability"):
            leakage(prior, channel, g, "multiplicative")
        assert leakage(prior, channel, g, "additive") == post - pri

    def test_unknown_mode(self, two_secret_example):
        prior, channel = two_secret_example
        with pytest.raises(ValidationError):
            leakage(prior, channel, identity_gain(prior.alphabet), "geometric")

    def test_leakage_of_is_the_arithmetic_of_leakage(self, two_secret_example):
        prior, channel = two_secret_example
        g = identity_gain(prior.alphabet)
        pri = prior_vulnerability(prior, g)
        post = posterior_vulnerability(prior, channel, g)
        for mode in ("multiplicative", "additive"):
            assert leakage_of(pri, post, mode) == leakage(prior, channel, g, mode)

    def test_leakage_of_zero_prior_vulnerability(self):
        with pytest.raises(
            ValidationError,
            match="^multiplicative leakage undefined: prior vulnerability is 0$",
        ):
            leakage_of(0.0, 0.5, "multiplicative")
        assert leakage_of(0.0, 0.5, "additive") == 0.5
        with pytest.raises(ValidationError, match="unknown mode"):
            leakage_of(0.5, 0.5, "geometric")

    def test_leakage_of_negative_prior_vulnerability(self):
        with pytest.raises(
            ValidationError,
            match="^multiplicative leakage needs a positive prior vulnerability, got -0.5$",
        ):
            leakage_of(-0.5, -0.25, "multiplicative")
        assert leakage_of(-0.5, -0.25, "additive") == 0.25


class TestSampling:
    def test_sample_joint_determinism(self):
        X = Alphabet.integers(3)
        joint = (
            Prior(X, np.array([0.2, 0.3, 0.5])),
            random_channel(np.random.default_rng(1), X, 4),
        )
        a = sample_joint(joint, 500, stream(9, "t/samples"))
        b = sample_joint(joint, 500, stream(9, "t/samples"))
        c = sample_joint(joint, 500, stream(9, "t/other"))
        assert np.array_equal(a.xs, b.xs) and np.array_equal(a.ys, b.ys)
        assert not np.array_equal(a.xs, c.xs)

    def test_sample_joint_frequencies(self):
        X = Alphabet.integers(2)
        probs = np.array([[0.5, 0.1], [0.1, 0.3]])
        prior = Prior(X, probs.sum(axis=1))
        channel = Channel(X, Alphabet.integers(2, "y"), probs / probs.sum(axis=1)[:, None])
        s = sample_joint((prior, channel), 200_000, stream(5, "t/freq"))
        counts = np.zeros((2, 2))
        np.add.at(counts, (s.xs, s.ys[:, 0]), 1.0)
        # binomial 4-sigma envelope per cell
        for x in range(2):
            for y in range(2):
                p = probs[x, y]
                sigma = np.sqrt(p * (1 - p) * s.size)
                assert abs(counts[x, y] - p * s.size) < 4 * sigma + 1

    def test_matrix_pair_draws_from_the_flat_joint(self):
        X = Alphabet.integers(3)
        prior = Prior(X, np.array([0.2, 0.3, 0.5]))
        channel = random_channel(np.random.default_rng(1), X, 4)
        a = sample_joint((prior, channel), 500, stream(9, "t/pair"))
        # reference: one uniform per sample, inverted through the CDF of the
        # row-major flat joint pi_x C[x, y]
        flat = [prior.probs[x] * channel.rows[x, y] for x in range(3) for y in range(4)]
        cum = np.cumsum(flat)
        u = stream(9, "t/pair").gen.random(500)
        idx = np.minimum(np.searchsorted(cum, u * cum[-1], side="right"), len(flat) - 1)
        assert np.array_equal(a.xs, idx // 4) and np.array_equal(a.ys[:, 0], idx % 4)
        assert a.secrets == prior.alphabet

    def test_matrix_pair_alphabet_mismatch(self):
        prior = Prior.uniform(Alphabet.integers(2))
        channel = identity_channel(Alphabet.integers(3))
        with pytest.raises(ValidationError, match="channel input"):
            sample_joint((prior, channel), 10, stream(0, "t/bad"))

    def test_channel_sample_inverts_row_cdf(self):
        # reference: one uniform per sample, inverted through its row's CDF
        X = Alphabet.integers(3)
        channel = random_channel(np.random.default_rng(3), X, 5)
        xs = np.random.default_rng(4).integers(0, 3, 1000)
        ys = channel.sample(xs, np.random.default_rng(5))
        assert ys.shape == (1000, 1) and ys.dtype == np.int64
        u = np.random.default_rng(5).random(1000)
        for x, y, ui in zip(xs, ys[:, 0], u):
            cum = np.cumsum(channel.rows[x])
            expected = min(int(np.searchsorted(cum, ui * cum[-1], side="right")), 4)
            assert y == expected

    def test_generative_channel_path(self):
        X = Alphabet.integers(2)

        def sampler(xs, gen):
            noise = (gen.random(len(xs)) < 0.1).astype(np.int64)
            return ((xs + noise) % 2)[:, None]

        gch = GenerativeChannel(X, 1, sampler)
        s = sample_joint((Prior.uniform(X), gch), 1000, stream(2, "t/gen"))
        assert s.ys.shape == (1000, 1)
        agree = (s.xs == s.ys[:, 0]).mean()
        assert agree > 0.8

    def test_generative_shape_validation(self):
        X = Alphabet.integers(2)
        bad = GenerativeChannel(X, 2, lambda xs, gen: xs[:, None])
        with pytest.raises(ValidationError, match="shape"):
            bad.sample(np.array([0, 1]), np.random.default_rng(0))


class TestEmpiricalFunctional:
    def test_strategy_oracle_on_exhaustive_set(self):
        # validation set that enumerates the joint exactly -> empirical == exact
        X = Alphabet.integers(2)
        prior = Prior(X, np.array([0.3, 0.7]))
        channel = Channel(
            X, Alphabet.integers(2, "y"), np.array([[0.8, 0.2], [0.4, 0.6]])
        )
        g = identity_gain(X)
        xs, ys = [], []
        for x in range(2):
            for y in range(2):
                reps = int(round(prior.probs[x] * channel.rows[x, y] * 100))
                xs += [x] * reps
                ys += [[y]] * reps
        valid = SampleSet(X, np.array(xs), np.array(ys))
        best = optimal_strategy(prior, channel, g)
        assert empirical_functional(best, valid, g) == pytest.approx(0.70, abs=1e-12)

    def test_unbiasedness_binomial_envelope(self):
        gen = np.random.default_rng(53)
        X = Alphabet.integers(3)
        prior = random_prior(gen, 3)
        channel = random_channel(gen, X, 3)
        gain = random_gain(gen, 3, X)
        strategy = optimal_strategy(prior, channel, gain)
        joint = (prior, channel)
        truth = strategy_gain(strategy, prior, channel, gain)
        n, reps = 400, 300
        values = [
            empirical_functional(
                strategy, sample_joint(joint, n, stream(s, "t/unbias")), gain
            )
            for s in range(reps)
        ]
        a, b = gain.range
        sem = (b - a) / 2 / np.sqrt(n * reps)  # conservative scale bound
        assert abs(np.mean(values) - truth) < 5 * sem

    def test_prediction_shape_mismatch(self):
        X = Alphabet.integers(2)
        valid = SampleSet(X, np.array([0, 1]), np.array([[0], [1]]))

        class Bad:
            def predict(self, ys):
                return np.zeros((len(ys), 2), dtype=np.int64)

        with pytest.raises(ValidationError):
            empirical_functional(Bad(), valid, identity_gain(X))

    @pytest.mark.parametrize("guess", [-1, 2])
    def test_guess_outside_gain_is_rejected(self, two_secret_example, guess):
        # a negative guess used to wrap around to the last row of the gain,
        # a guess of |W| to escape as an IndexError
        prior, channel = two_secret_example
        g = identity_gain(prior.alphabet)
        f = TablePredictor(np.array([[0], [1]]), np.array([guess, guess]), 0)
        valid = sample_joint((prior, channel), 50, stream(0, "t/range"))
        with pytest.raises(ValidationError, match="outside gain"):
            empirical_functional(f, valid, g)
        with pytest.raises(ValidationError, match="outside gain"):
            strategy_gain(f, prior, channel, g)

    def test_strategy_gain_scores_any_predictor(self, two_secret_example):
        prior, channel = two_secret_example
        g = identity_gain(prior.alphabet)

        class Constant:
            def predict(self, ys):
                return np.ones(len(ys), dtype=np.int64)

        # a predictor over output indices is a strategy: y -> 1 for both y
        expected = strategy_gain(fixed_strategy([1, 1]), prior, channel, g)
        assert strategy_gain(Constant(), prior, channel, g) == expected


def _row_arrays():
    """(n, width) int64 arrays: widths 1 to 6, negative values, few
    distinct values so rows repeat, n = 0 and a single row included."""
    return st.integers(1, 6).flatmap(
        lambda width: st.lists(
            st.lists(st.integers(-4, 4), min_size=width, max_size=width), max_size=40
        ).map(lambda rows: np.array(rows, dtype=np.int64).reshape(-1, width))
    )


class TestUniqueRows:
    @settings(max_examples=200, deadline=None)
    @given(a=_row_arrays())
    @example(a=np.zeros((0, 1), dtype=np.int64))
    @example(a=np.zeros((0, 4), dtype=np.int64))
    @example(a=np.array([[-3, 5, 0]]))
    @example(a=np.array([[7]]))
    @example(a=np.full((9, 2), -2))
    @example(a=np.full((9, 1), 4))
    @example(a=np.array([[2**40, -(2**40)], [-(2**40), 2**40], [2**40, -(2**40)]]))
    def test_matches_numpy_unique_over_rows(self, a):
        expected = np.unique(a, axis=0, return_inverse=True)
        got = _unique_rows(a)
        assert len(got) == len(expected)
        for g, e in zip(got, expected):
            assert g.dtype == e.dtype and g.shape == e.shape
            np.testing.assert_array_equal(g, e)


class TestAsCounts:
    """``_as_counts`` checks a table in blocks of rows, never all at once."""

    SHAPE = (3 * COUNT_CHECK_ENTRIES // 40 + 7, 40)  # four blocks, the last one short

    @pytest.mark.parametrize("bad", [0.5, -1.0, np.nan, np.inf])
    def test_last_entry_of_last_block_is_checked(self, bad):
        tallies = np.ones(self.SHAPE)
        tallies[-1, -1] = bad
        with pytest.raises(ValidationError, match="non-negative integer counts"):
            _as_counts(tallies, "k-NN")

    def test_a_non_contiguous_table(self):
        tallies = np.ones((self.SHAPE[1], self.SHAPE[0])).T
        assert _as_counts(tallies, "k-NN") is tallies
        tallies = tallies.copy(order="F")
        tallies[-1, -1] = 0.5
        with pytest.raises(ValidationError):
            _as_counts(tallies, "k-NN")

    def test_no_full_size_temporary(self):
        tallies = np.ones((2000, 45))  # 720 KB
        tracemalloc.start()
        try:
            _as_counts(tallies, "MLP")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < tallies.nbytes / 4, peak
