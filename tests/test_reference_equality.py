"""Pre-processing, channel sampling and MLP training against the
implementations they replaced (``oracles``), bit for bit.

- ``data_preprocess`` enumerates each secret's positive-gain guesses instead
  of building the dense (guess, distinct pair) weight matrix.  Its entries
  must come out in that matrix's row-major order, guess-major and then
  pair, because the MLP batch draw inverts the cumulative weights.
- ``Channel.sample`` inverts every row in one search instead of one mask
  per distinct secret.
- ``mlp_train`` writes into buffers allocated once per call and updates one
  flat parameter vector, instead of fresh temporaries every step and a
  per-array optimizer update.
"""

import numpy as np
import pytest

from gleak import (
    Alphabet,
    Channel,
    GainFunction,
    MlpConfig,
    SampleSet,
    ValidationError,
    sample_joint,
    scalar_codec,
    stream,
)
from gleak.core import sample_prior
from gleak.features import tuple_codec
from gleak.mlp import mlp_train
from gleak.preprocess import (
    WeightedSampleSet,
    channel_preprocess,
    data_preprocess,
    rationalize_gain,
)
from gleak.scenarios import build_scenario
from oracles import (
    reference_channel_sample,
    reference_data_preprocess,
    reference_mlp_train,
)

SCENARIOS = ("multi-guess", "location", "dp", "password")


@pytest.fixture(scope="module", params=SCENARIOS)
def scenario(request):
    return build_scenario(request.param)


def assert_same_entries(fast, reference):
    assert fast.guesses == reference.guesses
    for field in ("ws", "ys", "weights"):
        a, b = getattr(fast, field), getattr(reference, field)
        assert a.dtype == b.dtype and a.shape == b.shape, field
        assert np.array_equal(a, b), field


def assert_same_network(fast, reference):
    assert fast.layer_sizes == reference.layer_sizes
    for a, b in zip(fast.weights + fast.biases, reference.weights + reference.biases):
        assert a.tobytes() == b.tobytes()
    assert fast.loss_first_epoch == reference.loss_first_epoch
    assert fast.loss_final_epoch == reference.loss_final_epoch


def scenario_training_set(scenario, m):
    gain, _ = rationalize_gain(scenario.gain)
    train = sample_joint((scenario.prior, scenario.channel), m, stream(0, "t/ref/train"))
    return train, gain


def sparse_gain(gen, n_w, n_x, sampled):
    """Integer gain, about 70% zeros, with an all-zero row (when n_w > 1) and
    an all-zero column, positive somewhere on a sampled secret."""
    values = gen.integers(1, 5, size=(n_w, n_x)) * (gen.random((n_w, n_x)) < 0.3)
    values[:, gen.integers(n_x)] = 0
    if n_w > 1:
        values[gen.integers(n_w), :] = 0
    rows = np.flatnonzero(values.any(axis=1)) if n_w > 1 else np.arange(1)
    if rows.size == 0:
        rows = np.arange(1)
    values[gen.choice(rows), gen.choice(sampled)] = int(gen.integers(1, 5))
    return GainFunction(
        Alphabet.integers(n_w, "w"), Alphabet.integers(n_x), values.astype(np.float64)
    )


class TestDataPreprocess:
    def test_scenarios(self, scenario):
        train, gain = scenario_training_set(scenario, 3000)
        assert_same_entries(
            data_preprocess(train, gain), reference_data_preprocess(train, gain)
        )

    @pytest.mark.parametrize("seed", range(24))
    def test_sparse_random_gains(self, seed):
        gen = np.random.default_rng(seed)
        n_w = 1 if seed % 6 == 0 else int(gen.integers(2, 12))  # single guess
        n_x = int(gen.integers(2, 12))
        m = int(gen.integers(1, 300))
        # secrets drawn from a subset, so some columns are never sampled
        xs = gen.choice(gen.permutation(n_x)[: int(gen.integers(1, n_x + 1))], size=m)
        ys = gen.integers(0, 4, size=(m, int(gen.integers(1, 3))))
        gain = sparse_gain(gen, n_w, n_x, np.unique(xs))
        train = SampleSet(gain.secrets, xs, ys)
        assert_same_entries(
            data_preprocess(train, gain), reference_data_preprocess(train, gain)
        )

    def test_zero_gain_on_every_sampled_secret(self):
        # the gain is positive, but only on a secret that was never sampled
        secrets = Alphabet.integers(3)
        gain = GainFunction(
            Alphabet.integers(2, "w"), secrets, [[0.0, 0.0, 2.0], [0.0, 0.0, 1.0]]
        )
        train = SampleSet(secrets, np.array([0, 1, 1, 0]), np.arange(4)[:, None])
        for preprocess in (data_preprocess, reference_data_preprocess):
            with pytest.raises(ValidationError, match="zero on every sampled secret"):
                preprocess(train, gain)


class FixedUniforms:
    """A generator stand-in whose ``random(n)`` returns given uniforms."""

    def __init__(self, u):
        self.u = np.asarray(u, dtype=np.float64)

    def random(self, n):
        assert n == self.u.size
        return self.u.copy()


def sample_both(channel, xs, seed):
    fast = channel.sample(xs, np.random.default_rng(seed))
    reference = reference_channel_sample(channel, xs, np.random.default_rng(seed))
    assert fast.dtype == reference.dtype and fast.shape == reference.shape
    return fast, reference


class TestChannelSample:
    def test_scenarios(self, scenario):
        deriv = channel_preprocess(scenario.prior, scenario.gain)
        ws = sample_prior(deriv.tau, 5000, np.random.default_rng(1))
        assert np.array_equal(*sample_both(deriv.R, ws, 2))
        if isinstance(scenario.channel, Channel):
            xs = sample_prior(scenario.prior, 5000, np.random.default_rng(3))
            assert np.array_equal(*sample_both(scenario.channel, xs, 4))

    @pytest.mark.parametrize("seed", range(24))
    def test_random_channels_with_zeros(self, seed):
        gen = np.random.default_rng(100 + seed)
        n_x = int(gen.integers(1, 10))
        n_y = 1 if seed % 6 == 0 else int(gen.integers(2, 12))  # single output
        raw = gen.random((n_x, n_y)) * (gen.random((n_x, n_y)) < 0.6)
        if n_y > 2:
            lead, trail = gen.integers(0, n_y // 2, size=2)
            raw[0, :lead] = 0.0  # leading zero plateau
            raw[-1, n_y - trail :] = 0.0  # trailing zero plateau
        raw[np.arange(n_x), gen.integers(0, n_y, size=n_x)] += 0.1
        channel = Channel(
            Alphabet.integers(n_x), Alphabet.integers(n_y, "y"), raw / raw.sum(axis=1)[:, None]
        )
        xs = gen.integers(0, n_x, size=int(gen.integers(0, 400)))
        assert np.array_equal(*sample_both(channel, xs, seed))

    def test_uniforms_on_cdf_steps_and_ends(self):
        # dyadic rows put u * cdf[-1] exactly on a step; u = 0 and the
        # largest uniform reach both ends, across zero plateaus
        rows = np.array(
            [[0.0, 0.25, 0.5, 0.0, 0.25, 0.0], [0.5, 0.0, 0.0, 0.5, 0.0, 0.0]]
        )
        channel = Channel(Alphabet.integers(2), Alphabet.integers(6, "y"), rows)
        u = np.array([0.0, 0.25, 0.75, 0.5, 1.0 - 2.0**-53, 0.2499999999])
        xs = np.array([0, 0, 0, 1, 1, 1])
        fast = channel.sample(xs, FixedUniforms(u))
        reference = reference_channel_sample(channel, xs, FixedUniforms(u))
        assert np.array_equal(fast, reference)
        assert fast[:, 0].tolist() == [1, 2, 4, 3, 3, 0]


class TestMlpTrain:
    def test_scenarios(self, scenario):
        train, gain = scenario_training_set(scenario, 1500)
        data = data_preprocess(train, gain)
        config = MlpConfig(scenario.metric.codec, (12, 7), epochs=2, batch_size=64)
        assert_same_network(
            mlp_train(data, config, stream(5, "t/ref/mlp")),
            reference_mlp_train(data, config, stream(5, "t/ref/mlp")),
        )

    @pytest.mark.parametrize("seed", range(8))
    def test_random_architectures(self, seed):
        gen = np.random.default_rng(200 + seed)
        dim = 1 if seed % 2 == 0 else int(gen.integers(2, 5))
        hidden = tuple(int(h) for h in gen.integers(1, 24, size=int(gen.integers(1, 4))))
        n_w = int(gen.integers(2, 9))
        n = int(gen.integers(5, 60))
        codec = scalar_codec(0.1) if dim == 1 else tuple_codec(dim, 0.1)
        data = WeightedSampleSet(
            Alphabet.integers(n_w, "w"),
            gen.integers(0, n_w, size=n),
            gen.integers(-20, 20, size=(n, dim)),
            gen.integers(1, 6, size=n),
        )
        config = MlpConfig(
            codec, hidden, learning_rate=1e-2, epochs=3, batch_size=int(gen.integers(1, 40))
        )
        assert_same_network(
            mlp_train(data, config, stream(seed, "t/ref/arch")),
            reference_mlp_train(data, config, stream(seed, "t/ref/arch")),
        )
