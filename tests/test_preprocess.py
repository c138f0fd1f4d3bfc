"""Reductions to Bayes classification and their correctness equalities."""

import math
from fractions import Fraction

import numpy as np
import pytest

from gleak import (
    Alphabet,
    Channel,
    DistanceMetric,
    GainFunction,
    MlpConfig,
    Prior,
    SampleSet,
    ValidationError,
    fit,
    identity_gain,
    posterior_vulnerability,
    sample_joint,
    scalar_codec,
    stream,
)
from gleak import preprocess
from gleak.io import read_gain
from gleak.knn import knn_train
from gleak.mlp import mlp_train
from gleak.preprocess import (
    SNAP_DENOMINATOR,
    SNAP_TOL,
    channel_preprocess,
    data_table,
    rationalize_gain,
)
from gleak.scenarios import build_scenario
from gleak.scenarios.multi_guess import two_tries_gain
from conftest import identity_channel, random_channel, random_gain, random_prior
from oracles import compose, ideal_derivation, reference_rationalize_gain, table_entries


def random_instance(gen, max_size=8, max_gain=5):
    prior = random_prior(gen, int(gen.integers(2, max_size + 1)))
    channel = random_channel(gen, prior.alphabet, int(gen.integers(2, max_size + 1)))
    gain = random_gain(
        gen, int(gen.integers(2, max_size + 1)), prior.alphabet, max_value=max_gain
    )
    return prior, channel, gain


def positive_cells(train, gain):
    """The positive cells of the data pre-processing table, as entries."""
    return table_entries(data_table(train, gain))


class TestDataPreprocess:
    def test_single_sample_two_tries_hand_example(self):
        X = Alphabet.integers(3)
        gain = two_tries_gain(3, 2)
        train = SampleSet(X, np.array([0]), np.array([[5]]))
        assert data_table(train, gain).total_weight == 2
        weighted = positive_cells(train, gain)
        got = sorted(
            (gain.guesses.label(int(w)), int(y), int(u))
            for w, y, u in zip(weighted.ws, weighted.ys[:, 0], weighted.weights)
        )
        assert got == [("0+1", 5, 1), ("0+2", 5, 1)]

    def test_identity_gain_is_isomorphic_to_input(self):
        gen = np.random.default_rng(3)
        X = Alphabet.integers(4)
        xs = gen.integers(0, 4, size=200)
        ys = gen.integers(0, 6, size=(200, 1))
        train = SampleSet(X, xs, ys)
        assert data_table(train, identity_gain(X)).total_weight == 200
        weighted = positive_cells(train, identity_gain(X))
        # every (w, y) weight equals the multiplicity of (x=w, y)
        for w, y, u in zip(weighted.ws, weighted.ys[:, 0], weighted.weights):
            assert int(u) == int(((xs == w) & (ys[:, 0] == y)).sum())

    def test_weight_total_identity(self):
        gen = np.random.default_rng(5)
        for _ in range(20):
            prior, channel, gain = random_instance(gen, max_size=5)
            train = sample_joint(
                (prior, channel), 300, stream(int(gen.integers(1 << 30)), "t")
            )
            g = gain.matrix.astype(np.int64)
            expected = int(g.sum(axis=0)[train.xs].sum())
            assert data_table(train, gain).total_weight == expected

    def test_equivalent_to_physical_duplication(self):
        gen = np.random.default_rng(7)
        prior, channel, gain = random_instance(gen, max_size=4)
        train = sample_joint((prior, channel), 150, stream(1, "t/dup"))
        weighted = positive_cells(train, gain)
        g = gain.matrix.astype(np.int64)
        expanded = []
        for x, y in zip(train.xs, train.ys[:, 0]):
            for w in range(gain.guesses.size):
                expanded.extend([(w, int(y))] * int(g[w, x]))
        expected = {}
        for pair in expanded:
            expected[pair] = expected.get(pair, 0) + 1
        # entries may repeat a (w, y) key when several secrets map to the
        # same observable; the multiset semantics is the weight sum
        got = {}
        for w, y, u in zip(weighted.ws, weighted.ys[:, 0], weighted.weights):
            key = (int(w), int(y))
            got[key] = got.get(key, 0) + int(u)
        assert got == expected

    def test_non_integer_gain_is_refused_by_the_learners(self):
        # the table takes any gain (the frequentist reads its argmax); its
        # weights are then no counts, which both learners refuse
        X = Alphabet.integers(2)
        train = SampleSet(X, np.array([0, 1]), np.array([[0], [0]]))
        frac = GainFunction(X, X, np.array([[0.5, 0.0], [0.0, 1.0]]))
        table = data_table(train, frac)
        np.testing.assert_array_equal(table.tallies, [[0.5, 1.0]])
        with pytest.raises(ValidationError, match="integer counts"):
            knn_train(table.distinct, table.tallies, DistanceMetric("absolute", scalar_codec()))
        config = MlpConfig(scalar_codec(), (4,), epochs=1, batch_size=2)
        with pytest.raises(ValidationError, match="integer counts"):
            mlp_train(table, config, stream(0, "t/pre/frac"))


def count_tables(monkeypatch) -> list:
    """The tallies of each table ``data_table`` builds from now on."""
    built, real = [], preprocess.PairTable

    def spy(guesses, distinct, tallies):
        built.append(tallies.copy())
        return real(guesses, distinct, tallies)

    monkeypatch.setattr(preprocess, "PairTable", spy)
    return built


class TestDataTableIsKept:
    """A set builds one data table per gain object and keeps the last one."""

    @pytest.fixture
    def train(self):
        gen = np.random.default_rng(11)
        xs, ys = gen.integers(0, 4, 300), gen.integers(0, 9, (300, 1))
        return SampleSet(Alphabet.integers(4), xs, ys)

    def test_same_gain_object_returns_the_kept_table(self, train, monkeypatch):
        gain = random_gain(np.random.default_rng(2), 3, train.secrets, max_value=5)
        built = count_tables(monkeypatch)
        table = data_table(train, gain)
        assert data_table(train, gain) is table and len(built) == 1
        for array in (table.distinct, table.tallies):
            assert not array.flags.writeable
            with pytest.raises(ValueError, match="read-only"):
                array[0] = 0

    def test_equal_or_other_gain_rebuilds(self, train, monkeypatch):
        gain = random_gain(np.random.default_rng(2), 3, train.secrets, max_value=5)
        equal = GainFunction(gain.guesses, gain.secrets, gain.matrix.copy())
        built = count_tables(monkeypatch)
        first = data_table(train, gain)
        again = data_table(train, equal)  # equal values, another object
        assert again is not first and len(built) == 2
        assert again.tallies.tobytes() == first.tallies.tobytes()
        other = data_table(train, identity_gain(train.secrets))
        assert len(built) == 3 and other.tallies.shape[1] == 4
        # one kept pair: the first gain now builds its table again
        assert data_table(train, gain) is not first and len(built) == 4

    def test_gain_of_halves_builds_two_tables(self, train, monkeypatch, tmp_path):
        # scale 2: the data table takes the rationalized gain, the frequentist
        # the float table of the original gain, which the set does not share
        path = tmp_path / "gain.txt"
        path.write_text("3 4\n1.0 0.5 0.0 0.0\n0.0 0.5 1.0 0.5\n0.5 0.0 0.5 1.0\n")
        gain = read_gain(path, train.secrets)
        rational, scale = rationalize_gain(gain)
        assert scale == 2 and rational is not gain
        built = count_tables(monkeypatch)
        prior = Prior.uniform(train.secrets)
        channel = Channel(train.secrets, Alphabet.integers(9), np.full((4, 9), 1 / 9))
        metric = DistanceMetric("absolute", scalar_codec())
        frequentist, _ = fit(
            "frequentist", prior, channel, gain, 300, None, stream(0, "t/unused"), train=train
        )
        fit("data", prior, channel, gain, 300, metric, stream(0, "t/unused"), train=train)
        distinct, counts = train.counts
        product = counts.astype(np.float64) @ gain.matrix.T
        assert [t.tobytes() for t in built] == [product.tobytes(), (product * 2).tobytes()]
        np.testing.assert_array_equal(frequentist.keys, distinct)
        np.testing.assert_array_equal(frequentist.guesses, np.argmax(product, axis=1))


class TestRationalizeGain:
    def test_integer_gain_unchanged(self):
        X = Alphabet.integers(3)
        gain = identity_gain(X)
        scaled, k = rationalize_gain(gain)
        assert k == 1
        np.testing.assert_array_equal(scaled.matrix, gain.matrix)

    def test_halves_and_thirds(self):
        X = Alphabet.integers(2)
        gain = GainFunction(Alphabet.integers(1, "w"), X, np.array([[0.5, 1 / 3]]))
        scaled, k = rationalize_gain(gain)
        assert k == 6
        np.testing.assert_array_equal(scaled.matrix, [[3.0, 2.0]])

    def test_snaps_nearby_reals(self):
        X = Alphabet.integers(2)
        gain = GainFunction(
            Alphabet.integers(1, "w"), X, np.array([[1 / 3 + 1e-13, 0.25]])
        )
        scaled, k = rationalize_gain(gain)
        assert k == 12
        np.testing.assert_array_equal(scaled.matrix, [[4.0, 3.0]])

    def test_denominator_beyond_snap_limit(self):
        X = Alphabet.integers(2)
        gain = GainFunction(
            Alphabet.integers(1, "w"), X, np.array([[1.0 / 10**7, 1.0]])
        )
        with pytest.raises(ValidationError, match="rational"):
            rationalize_gain(gain)

    def test_expansion_cap_on_lcm(self):
        X = Alphabet.integers(2)
        # denominators snap fine individually but their lcm blows the cap
        gain = GainFunction(
            Alphabet.integers(1, "w"), X, np.array([[1.0 / 3.0, 1.0 / 999983.0]])
        )
        with pytest.raises(ValidationError, match="cap"):
            rationalize_gain(gain)

    def test_expansion_cap_on_entry_magnitude(self):
        X = Alphabet.integers(2)
        # K is small but the scaled entries overflow the cap
        gain = GainFunction(
            Alphabet.integers(1, "w"), X, np.array([[2e6, 0.5]])
        )
        with pytest.raises(ValidationError, match="cap"):
            rationalize_gain(gain)

    def test_vulnerability_scales_by_k(self):
        gen = np.random.default_rng(13)
        denominators = (2, 3, 4, 5)
        for _ in range(20):
            prior, channel, _ = random_instance(gen, max_size=5)
            numer = gen.integers(0, 7, size=(3, prior.alphabet.size))
            denom = gen.choice(denominators, size=(3, prior.alphabet.size))
            gain = GainFunction(
                Alphabet.integers(3, "w"), prior.alphabet, numer / denom
            )
            scaled, k = rationalize_gain(gain)
            assert posterior_vulnerability(prior, channel, scaled) == pytest.approx(
                k * posterior_vulnerability(prior, channel, gain), rel=1e-9
            )


    def test_matches_per_entry_reference(self):
        gen = np.random.default_rng(29)
        for _ in range(20):
            shape = tuple(int(v) for v in gen.integers(1, 6, size=2))
            numer = gen.integers(0, 9, size=shape)
            denom = gen.choice((1, 2, 3, 4, 6, 7), size=shape)
            gain = GainFunction(
                Alphabet.integers(shape[0], "w"), Alphabet.integers(shape[1]), numer / denom
            )
            scaled, k = rationalize_gain(gain)
            ref_matrix, ref_k = reference_rationalize(gain)
            assert k == ref_k
            np.testing.assert_array_equal(scaled.matrix, ref_matrix)

    def test_snaps_each_distinct_entry_once(self, monkeypatch):
        gain = build_scenario("location").gain
        calls = []
        snap = Fraction.limit_denominator

        def counting(self, max_denominator=10**6):
            calls.append(1)
            return snap(self, max_denominator)

        monkeypatch.setattr(Fraction, "limit_denominator", counting)
        rationalize_gain(gain)
        assert len(calls) == np.unique(gain.matrix).size < gain.matrix.size


class TestIntegerGainIsItsOwnRationalization:
    @pytest.mark.parametrize("name", ["multi-guess", "location", "dp", "password"])
    def test_scenario_gains(self, name):
        gain = build_scenario(name).gain
        rational, scale = rationalize_gain(gain)
        assert rational is gain and scale == 1
        reference, reference_scale = reference_rationalize_gain(gain)
        assert reference_scale == 1
        assert rational.matrix.tobytes() == reference.matrix.tobytes()
        assert (rational.shift, rational.range) == (reference.shift, reference.range)

    def test_file_gain_of_halves_and_thirds(self, tmp_path):
        path = tmp_path / "gain.txt"
        path.write_text(
            "3 4\n"
            "1.0 0.5 0.0 0.3333333333333333\n"
            "0.0 0.0 0.0 0.0\n"
            "0.5 1.0 0.6666666666666666 0.25\n"
        )
        gain = read_gain(path)
        rational, scale = rationalize_gain(gain)
        reference, reference_scale = reference_rationalize_gain(gain)
        assert rational is not gain and scale == reference_scale == 12
        assert rational.matrix.tobytes() == reference.matrix.tobytes()

    def test_entry_within_the_snap_tolerance_is_rounded(self):
        # 2 + 1e-10 snaps to 2 with scale 1, but the stored entry is not 2:
        # the gain returned is a new one, holding the rounded integer
        entry = 2.0 + 1e-10
        assert abs(entry - 2.0) <= SNAP_TOL * entry
        gain = GainFunction(
            Alphabet.integers(2, "w"), Alphabet.integers(2), [[1.0, entry], [0.0, 3.0]]
        )
        rational, scale = rationalize_gain(gain)
        assert rational is not gain and scale == 1
        np.testing.assert_array_equal(rational.matrix, [[1.0, 2.0], [0.0, 3.0]])
        assert (gain.matrix != np.rint(gain.matrix)).any()

    def test_shifted_integer_gain_is_rebuilt(self):
        # stored entries shifted to be non-negative: the rationalized gain
        # holds them unshifted, as before
        gain = GainFunction(Alphabet.integers(1, "w"), Alphabet.integers(2), [[-1.0, 2.0]])
        rational, scale = rationalize_gain(gain)
        assert rational is not gain and scale == 1
        assert rational.shift == 0.0 and rational.range == (0.0, 3.0)
        np.testing.assert_array_equal(rational.matrix, gain.matrix)


def reference_rationalize(gain):
    """Per-entry snap and scale, in row-major order: the original loop."""
    fracs = [
        Fraction(v).limit_denominator(SNAP_DENOMINATOR) for v in gain.matrix.ravel().tolist()
    ]
    scale = math.lcm(*(frac.denominator for frac in fracs))
    scaled = np.array([int(frac * scale) for frac in fracs], dtype=np.int64)
    return scaled.reshape(gain.matrix.shape).astype(np.float64), scale


class TestIdealDerivation:
    def test_identity_gain_fixed_point(self):
        gen = np.random.default_rng(17)
        prior = random_prior(gen, 4)
        channel = random_channel(gen, prior.alphabet, 5)
        deriv = ideal_derivation(prior, channel, identity_gain(prior.alphabet))
        assert deriv.alpha == pytest.approx(1.0, abs=1e-12)
        np.testing.assert_allclose(deriv.xi.probs, prior.probs, atol=1e-12)
        np.testing.assert_allclose(deriv.E.rows, channel.rows, atol=1e-12)

    def test_two_by_two_hand_example(self):
        X = Alphabet.integers(2)
        prior = Prior.uniform(X)
        gain = GainFunction(
            Alphabet.integers(2, "w"), X, np.array([[2.0, 0.0], [0.0, 2.0]])
        )
        deriv = ideal_derivation(prior, identity_channel(X), gain)
        assert deriv.alpha == pytest.approx(2.0, abs=1e-12)
        np.testing.assert_allclose(deriv.xi.probs, [0.5, 0.5], atol=1e-12)
        np.testing.assert_allclose(deriv.E.rows, np.eye(2), atol=1e-12)

    def test_joint_normalization_and_marginal(self):
        gen = np.random.default_rng(19)
        for _ in range(20):
            prior, channel, gain = random_instance(gen, max_size=6)
            deriv = ideal_derivation(prior, channel, gain)
            p_wy = deriv.U / deriv.alpha
            assert p_wy.sum() == pytest.approx(1.0, abs=1e-9)
            np.testing.assert_allclose(deriv.xi.probs, p_wy.sum(axis=1), atol=1e-12)

    def test_theorem_equality_data_preproc(self):
        gen = np.random.default_rng(29)
        for _ in range(100):
            prior, channel, gain = random_instance(gen)
            deriv = ideal_derivation(prior, channel, gain)
            lhs = posterior_vulnerability(prior, channel, gain)
            rhs = deriv.alpha * posterior_vulnerability(
                deriv.xi, deriv.E, identity_gain(gain.guesses)
            )
            assert rhs == pytest.approx(lhs, abs=1e-9)

    def test_zero_effective_gain_rejected(self):
        X = Alphabet.integers(2)
        prior = Prior(X, np.array([1.0, 0.0]))
        channel = identity_channel(X)
        gain = GainFunction(Alphabet.integers(1, "w"), X, np.array([[0.0, 3.0]]))
        with pytest.raises(ValidationError, match="degenerate|alpha"):
            ideal_derivation(prior, channel, gain)


class TestChannelPreprocess:
    def test_identity_gain_fixed_point(self):
        gen = np.random.default_rng(31)
        prior = random_prior(gen, 5)
        deriv = channel_preprocess(prior, identity_gain(prior.alphabet))
        assert deriv.beta == pytest.approx(1.0, abs=1e-12)
        np.testing.assert_allclose(deriv.tau.probs, prior.probs, atol=1e-12)
        np.testing.assert_allclose(deriv.R.rows, np.eye(5), atol=1e-12)

    def test_two_by_two_hand_example(self):
        X = Alphabet.integers(2)
        gain = GainFunction(
            Alphabet.integers(2, "w"), X, np.array([[1.0, 1.0], [0.0, 2.0]])
        )
        deriv = channel_preprocess(Prior.uniform(X), gain)
        assert deriv.beta == pytest.approx(2.0, abs=1e-12)
        np.testing.assert_allclose(deriv.tau.probs, [0.5, 0.5], atol=1e-12)
        np.testing.assert_allclose(deriv.R.rows, [[0.5, 0.5], [0.0, 1.0]], atol=1e-12)

    def test_factorization_identity(self):
        gen = np.random.default_rng(37)
        for _ in range(30):
            prior, _, gain = random_instance(gen, max_size=6)
            deriv = channel_preprocess(prior, gain)
            lhs = deriv.beta * deriv.tau.probs[:, None] * deriv.R.rows
            rhs = gain.matrix * prior.probs[None, :]
            # rows with tau_w = 0 are uniform placeholders, excluded by lhs == 0
            np.testing.assert_allclose(
                lhs[deriv.tau.probs > 0], rhs[deriv.tau.probs > 0], atol=1e-9
            )

    def test_zero_tau_rows_are_uniform(self):
        X = Alphabet.integers(3)
        prior = Prior.uniform(X)
        gain = GainFunction(
            Alphabet.integers(2, "w"), X, np.array([[0.0, 0.0, 0.0], [1.0, 2.0, 0.0]])
        )
        deriv = channel_preprocess(prior, gain)
        assert deriv.tau.probs[0] == 0.0
        np.testing.assert_allclose(deriv.R.rows[0], np.full(3, 1 / 3), atol=1e-12)

    def test_theorem_equality_channel_preproc(self):
        gen = np.random.default_rng(41)
        for _ in range(100):
            prior, channel, gain = random_instance(gen)
            deriv = channel_preprocess(prior, gain)
            lhs = posterior_vulnerability(prior, channel, gain)
            rhs = deriv.beta * posterior_vulnerability(
                deriv.tau, compose(deriv.R, channel), identity_gain(gain.guesses)
            )
            assert rhs == pytest.approx(lhs, abs=1e-9)


class TestCompose:
    def test_hand_product(self):
        W = Alphabet.integers(2, "w")
        X = Alphabet.integers(2)
        Y = Alphabet.integers(2, "y")
        r = Channel(W, X, np.array([[0.5, 0.5], [0.0, 1.0]]))
        c = Channel(X, Y, np.array([[0.8, 0.2], [0.4, 0.6]]))
        np.testing.assert_allclose(
            compose(r, c).rows, [[0.6, 0.4], [0.4, 0.6]], atol=1e-12
        )

    def test_identity_left_and_right(self):
        gen = np.random.default_rng(43)
        X = Alphabet.integers(3)
        c = random_channel(gen, X, 4)
        np.testing.assert_allclose(compose(identity_channel(X), c).rows, c.rows)
        r = Channel(Alphabet.integers(2, "w"), X, np.array([[0.2, 0.3, 0.5], [1.0, 0, 0]]))
        ident_out = Channel(X, X, np.eye(3))
        np.testing.assert_allclose(compose(r, ident_out).rows, r.rows)

    def test_dimension_mismatch(self):
        X = Alphabet.integers(3)
        Z = Alphabet.integers(2, "z")
        r = Channel(Z, Z, np.eye(2))
        c = Channel(X, X, np.eye(3))
        with pytest.raises(ValidationError):
            compose(r, c)


class TestEmpiricalIdealConsistency:
    def test_weights_converge_to_ideal_joint(self):
        gen = np.random.default_rng(47)
        prior, channel, gain = random_instance(gen, max_size=5)
        deriv = ideal_derivation(prior, channel, gain)
        train = sample_joint((prior, channel), 100_000, stream(12, "t/tv"))
        weighted = positive_cells(train, gain)
        empirical = np.zeros_like(deriv.U)
        np.add.at(
            empirical,
            (weighted.ws, weighted.ys[:, 0]),
            weighted.weights.astype(np.float64),
        )
        empirical /= empirical.sum()
        ideal = deriv.U / deriv.alpha
        tv = 0.5 * np.abs(empirical - ideal).sum()
        assert tv <= 0.02
