"""Counting kernels, pre-processing, channel sampling and MLP training
against the implementations they replaced (``oracles``), bit for bit.

- ``core._unique_rows`` maps each integer row to one int64 mixed-radix key
  and counts the keys over their span with ``np.bincount`` when the span is
  small against the row count, else sorts them once; oversized spans go to
  ``np.unique(axis=0)``.  The reference sorts the rows themselves.
- The k-NN tallies of unit-weight pairs and ``frequentist_predictor``'s
  counts are one ``np.bincount`` instead of ``np.add.at``.
- The data method's k-NN tallies are the (observable, secret) counts of the
  training set times the rationalized gain, instead of the tallies of its
  data pre-processing expansion.
- The channel method's (w, y) pairs are a ``SampleSet``, not pairs merged
  into a weighted set: their data pre-processing under the identity gain
  is the merged set, and their channel k-NN tallies are their
  (observable, guess) count table.
- ``core._inverse_cdf`` searches the targets in sorted order and scatters
  the indices back, instead of searching them in the uniforms' order.

- ``data_preprocess`` lists the distinct (x, y) pairs from the set's count
  table instead of taking the distinct rows of ``[x | y]``, and enumerates
  each secret's positive-gain guesses instead of building the dense
  (guess, distinct pair) weight matrix.  Its entries
  must come out in that matrix's row-major order, guess-major and then
  pair, because the MLP batch draw inverts the cumulative weights.
- ``Channel.sample`` inverts every row in one search instead of one mask
  per distinct secret.
- ``mlp_train`` writes into buffers allocated once per call and updates one
  flat parameter vector, instead of fresh temporaries every step and a
  per-array optimizer update.
- ``MlpClassifier.predict_proba`` runs the training forward pass into
  buffers sized to its queries, instead of a pass of fresh temporaries.
- ``rationalize_gain`` scales the whole matrix with ``rint(G * K)`` instead
  of gathering the scaled distinct values through an inverse index.
- The location gain and mechanism are evaluated once per (row, column)
  offset and gathered, instead of on every cell pair.
"""

import math

import numpy as np
import pytest

from gleak import (
    Alphabet,
    Channel,
    GainFunction,
    MlpConfig,
    Prior,
    identity_gain,
    SampleSet,
    ValidationError,
    posterior_vulnerability,
    sample_joint,
    scalar_codec,
    stream,
)
from gleak.core import (
    DENSE_SPAN_PER_ROW,
    DENSE_SPAN_SLACK,
    KEY_LIMIT,
    _count_table,
    _inverse_cdf,
    _unique_rows,
    sample_prior,
)
from gleak.estimation import fit, frequentist_predictor, sample_preprocessed_pairs
from gleak.features import tuple_codec
from gleak.knn import DistanceMetric, knn_train
from gleak.mlp import MlpClassifier, mlp_train
from gleak.preprocess import (
    EXPANSION_CAP,
    SNAP_TOL,
    WeightedSampleSet,
    channel_preprocess,
    data_preprocess,
    rationalize_gain,
)
from gleak.scenarios import build_scenario
from gleak.scenarios.location import (
    CELL_M,
    GRID_SIDE,
    MECHANISM_NU,
    _by_offset,
    _offset_distances,
    diamond_gain,
    grid_geometric_mechanism,
)
from oracles import (
    reference_center_distances,
    reference_channel_sample,
    reference_data_knn_train,
    reference_data_preprocess,
    reference_diamond_gain,
    reference_frequentist_predictor,
    reference_grid_geometric_mechanism,
    reference_inverse_cdf,
    reference_knn_train,
    reference_mlp_train,
    reference_predict_proba,
    reference_rationalize_gain,
    reference_sample_preprocessed_pairs,
    reference_unique_rows,
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


def assert_same_proba(model, ys):
    fast, reference = model.predict_proba(ys), reference_predict_proba(model, ys)
    assert fast.dtype == reference.dtype and fast.shape == reference.shape
    assert fast.tobytes() == reference.tobytes()


class TestMlpPredict:
    @pytest.mark.parametrize("method", ["data", "channel"])
    def test_scenarios(self, scenario, method):
        config = MlpConfig(scenario.metric.codec, (12, 7), epochs=1, batch_size=64)
        source = (scenario.prior, scenario.channel)
        model, _ = fit(
            method, *source, scenario.gain, 1500, config,
            stream(0, "t/ref/predict/train"), stream(0, "t/ref/predict/learner"),
        )
        valid = sample_joint(source, 3000, stream(0, "t/ref/predict/valid"))
        ys, _ = _unique_rows(valid.ys)
        assert_same_proba(model, ys)

    @pytest.mark.parametrize("seed", range(6))
    def test_desk_architecture(self, scenario, seed):
        # the desk profile's widths, with random parameters, on query blocks
        # from a single row up
        gen = np.random.default_rng(seed)
        sizes = (scenario.metric.codec.dim, 100, 100, 100, int(gen.integers(2, 50)))
        weights = [gen.standard_normal((a, b)) / np.sqrt(a) for a, b in zip(sizes, sizes[1:])]
        biases = [0.1 * gen.standard_normal(b) for b in sizes[1:]]
        model = MlpClassifier(scenario.metric.codec, weights, biases)
        ys = sample_joint((scenario.prior, scenario.channel), 500, stream(seed, "t/ref/proba")).ys
        for count in (1, 7, 500):
            assert_same_proba(model, ys[:count])


def assert_same_unique(a):
    fast, reference = _unique_rows(a), reference_unique_rows(a, return_inverse=True)
    assert len(fast) == len(reference)
    for f, r in zip(fast, reference):
        assert f.dtype == r.dtype and f.shape == r.shape
        assert np.array_equal(f, r)


def unique_rows_path(a):
    """The path ``_unique_rows`` takes on ``a``: "dense" (one bincount over
    the key span), "sort" (a 1-D unique of the keys) or "rows" (numpy's
    unique over rows)."""
    taken = []
    bincount, unique = np.bincount, np.unique

    def spy_bincount(*args, **kwargs):
        taken.append("dense")
        return bincount(*args, **kwargs)

    def spy_unique(*args, **kwargs):
        taken.append("sort" if kwargs.get("axis") is None else "rows")
        return unique(*args, **kwargs)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(np, "bincount", spy_bincount)
        patch.setattr(np, "unique", spy_unique)
        _unique_rows(a)
    assert len(taken) == 1, taken
    return taken[0]


def with_spans(spans, n, seed, low=0):
    """(n, len(spans)) int64 rows whose column d spans exactly spans[d]
    values from ``low``: the first two rows hold each column's ends."""
    gen = np.random.default_rng(seed)
    a = np.stack(
        [low + gen.integers(0, s, size=n, dtype=np.int64) for s in spans], axis=1
    )
    a[0] = low
    a[1] = [low + s - 1 for s in spans]
    return a


class TestUniqueRows:
    def test_scenarios(self, scenario):
        train = sample_joint((scenario.prior, scenario.channel), 3000, stream(0, "t/ref/rows"))
        valid = sample_joint((scenario.prior, scenario.channel), 2000, stream(1, "t/ref/rows"))
        deriv = channel_preprocess(scenario.prior, scenario.gain)
        gen = stream(2, "t/ref/rows").gen
        ws = sample_prior(deriv.tau, 3000, gen)
        ys = scenario.channel.sample(deriv.R.sample(ws, gen)[:, 0], gen)
        for a in (
            train.ys,  # k-NN index and frequentist table
            np.concatenate([train.xs[:, None], train.ys], axis=1),  # data pre-processing
            np.concatenate([ws[:, None], ys], axis=1),  # channel pre-processing pairs
            np.concatenate([valid.ys, train.ys]),  # union of validation sets
        ):
            assert_same_unique(a)

    @pytest.mark.parametrize("seed", range(30))
    def test_random_rows(self, seed):
        gen = np.random.default_rng(300 + seed)
        width = 1 + seed % 6
        n = 1 if seed % 10 == 3 else int(gen.integers(2, 400))
        spread = int(gen.choice([2, 5, 40, 10**4, 10**9]))
        low = int(gen.integers(-(10**6), 10**6))
        assert_same_unique(low + gen.integers(0, spread, size=(n, width)))

    @pytest.mark.parametrize("width", range(1, 7))
    def test_dense_and_sorted_paths(self, width):
        few = with_spans([3] * width, 500, width, low=-2)
        assert unique_rows_path(few) == "dense"
        assert_same_unique(few)
        wide = with_spans([10**3] * width, 500, width, low=-500)
        assert unique_rows_path(wide) == ("dense" if width == 1 else "sort")
        assert_same_unique(wide)

    @pytest.mark.parametrize(
        "n, at_limit, past_limit",
        [
            (2, [2, 2, 2, 513], [5, 821]),
            (3, [2, 2, 13, 79], [7, 587]),
            (10, [4136], [4137]),
            (16, [2, 2, 2, 2, 4, 65], [3, 19, 73]),
            (25, [2, 2, 1049], [3, 1399]),
            (2000, [12096], [12097]),
        ],
    )
    def test_both_sides_of_the_dense_threshold(self, n, at_limit, past_limit):
        limit = DENSE_SPAN_PER_ROW * n + DENSE_SPAN_SLACK
        assert math.prod(at_limit) == limit and math.prod(past_limit) == limit + 1
        dense = with_spans(at_limit, n, n, low=-7)
        assert unique_rows_path(dense) == "dense"
        assert_same_unique(dense)
        above = with_spans(past_limit, n, n + 1, low=-7)
        assert unique_rows_path(above) == "sort"
        assert_same_unique(above)

    @pytest.mark.parametrize(
        "spans, path",
        [
            ([2**62 - 1], "sort"),
            ([2**62], "rows"),
            ([2**31, 2**31 - 1], "sort"),
            ([2**31, 2**31], "rows"),
            ([2**20, 2**21, 2**21 - 1], "sort"),
            ([2**20, 2**21, 2**21], "rows"),
        ],
    )
    def test_key_overflow_falls_back(self, spans, path):
        assert (math.prod(spans) >= KEY_LIMIT) == (path == "rows")
        a = with_spans(spans, 300, len(spans), low=-(2**40))
        assert unique_rows_path(a) == path
        assert_same_unique(a)

    def test_int64_extremes(self):
        lo, hi = np.iinfo(np.int64).min, np.iinfo(np.int64).max
        a = np.array([[hi, lo], [lo, hi], [hi, lo], [0, 0], [lo, lo]], dtype=np.int64)
        assert unique_rows_path(a) == "rows"
        assert_same_unique(a)
        assert_same_unique(a[:, :1])

    def test_single_row_and_empty(self):
        for width in range(1, 7):
            single = np.arange(-3, width - 3, dtype=np.int64)[None, :]
            assert unique_rows_path(single) == "dense"
            assert_same_unique(single)
            empty = np.zeros((0, width), dtype=np.int64)
            assert unique_rows_path(empty) == "rows"
            assert_same_unique(empty)


def assert_same_knn(fast, reference):
    assert fast.k == reference.k
    for field in ("features", "tallies"):
        a, b = getattr(fast, field), getattr(reference, field)
        assert a.dtype == b.dtype and a.shape == b.shape, field
        assert a.tobytes() == b.tobytes(), field


def assert_same_table(fast, reference):
    assert fast.fallback == reference.fallback
    for field in ("keys", "guesses"):
        a, b = getattr(fast, field), getattr(reference, field)
        assert a.dtype == b.dtype and a.shape == b.shape, field
        assert np.array_equal(a, b), field


def fit_channel(scenario, m, config, learner_stream=None):
    """``fit("channel", ...)``, with its pairs drawn from stream (0, "t/ref/pairs")."""
    return fit(
        "channel", scenario.prior, scenario.channel, scenario.gain, m, config,
        stream(0, "t/ref/pairs"), learner_stream,
    )


def reference_pairs(scenario, m):
    """The pairs ``fit_channel`` draws, merged into a weighted set."""
    deriv = channel_preprocess(scenario.prior, scenario.gain)
    return reference_sample_preprocessed_pairs(deriv, scenario.channel, m, stream(0, "t/ref/pairs"))


class TestChannelPairs:
    @pytest.mark.parametrize("m", [2000, 10000])
    def test_expansion_is_the_merged_pairs(self, scenario, m):
        deriv = channel_preprocess(scenario.prior, scenario.gain)
        pairs = sample_preprocessed_pairs(deriv, scenario.channel, m, stream(0, "t/ref/pairs"))
        assert pairs.secrets == deriv.tau.alphabet and pairs.size == m
        expanded = data_preprocess(pairs, identity_gain(pairs.secrets))
        assert_same_entries(expanded, reference_pairs(scenario, m))

    @pytest.mark.parametrize("m", [2000, 10000])
    def test_knn_fit(self, scenario, m):
        model, _ = fit_channel(scenario, m, scenario.metric)
        assert_same_knn(model, reference_knn_train(reference_pairs(scenario, m), scenario.metric))

    def test_mlp_fit(self, scenario):
        config = MlpConfig(scenario.metric.codec, (12, 7), epochs=1, batch_size=64)
        model, _ = fit_channel(scenario, 2000, config, stream(0, "t/ref/pairs/learner"))
        reference = reference_mlp_train(
            reference_pairs(scenario, 2000), config, stream(0, "t/ref/pairs/learner")
        )
        assert_same_network(model, reference)


class TestTallies:

    def test_frequentist_scenarios(self, scenario):
        train, _ = scenario_training_set(scenario, 3000)
        assert_same_table(
            frequentist_predictor(train, scenario.gain),
            reference_frequentist_predictor(train, scenario.gain),
        )

    @pytest.mark.parametrize("seed", range(16))
    def test_random_sets(self, seed):
        gen = np.random.default_rng(400 + seed)
        width = 1 + seed % 3
        n = 1 if seed % 8 == 5 else int(gen.integers(2, 500))
        n_w = int(gen.integers(1, 9))
        ys = gen.integers(-30, 30, size=(n, width)) * int(gen.choice([1, 10**7]))
        data = WeightedSampleSet(
            Alphabet.integers(n_w, "w"),
            gen.integers(0, n_w, size=n),
            ys,
            gen.integers(1, 6, size=n),
        )
        codec = scalar_codec(0.1) if width == 1 else tuple_codec(width, 0.1)
        metric = DistanceMetric("absolute" if width == 1 else "manhattan", codec)
        # the weighted entries as physical copies, counted by the library
        copies = _count_table(
            np.repeat(data.ys, data.weights, axis=0), np.repeat(data.ws, data.weights), n_w
        )
        assert_same_knn(knn_train(*copies, metric), reference_knn_train(data, metric))
        gain = GainFunction(data.guesses, data.guesses, gen.integers(-3, 5, size=(n_w, n_w)))
        train = SampleSet(data.guesses, data.ws, ys)
        assert_same_table(
            frequentist_predictor(train, gain), reference_frequentist_predictor(train, gain)
        )


def fit_data_knn(train, gain, metric, prior=None, channel=None):
    """``fit("data", ...)`` on a drawn set; the source is nominal, as a set is given."""
    prior = prior or Prior.uniform(gain.secrets)
    channel = channel or Channel.identity(gain.secrets)
    return fit(
        "data", prior, channel, gain, train.size, metric, stream(0, "t/ref/unused"), train=train
    )


def assert_same_data_fit(train, gain, metric, prior=None, channel=None):
    """The fit on counts and the fit on the expansion: same model, same details."""
    model, details = fit_data_knn(train, gain, metric, prior, channel)
    reference, reference_details = reference_data_knn_train(train, gain, metric)
    assert_same_knn(model, reference)
    assert details == reference_details
    assert [type(v) for v in details.values()] == [type(v) for v in reference_details.values()]
    return model


def zero_column_set(gen, width):
    """A random integer gain whose all-zero column is a sampled secret, and a
    training set in which one observable is seen only with that secret."""
    n_w, n_x = int(gen.integers(1, 9)), int(gen.integers(2, 9))
    values = gen.integers(1, 50, size=(n_w, n_x)) * (gen.random((n_w, n_x)) < 0.5)
    dead, live = gen.permutation(n_x)[:2]
    values[:, dead] = 0
    values[gen.integers(n_w), live] = int(gen.integers(1, 50))
    m = int(gen.integers(2, 400))
    xs = gen.integers(0, n_x, size=m)
    ys = gen.integers(-20, 20, size=(m, width))
    xs[:2] = dead, live
    ys[0] = 99  # this row is seen with the zero-gain secret only
    gain = GainFunction(Alphabet.integers(n_w, "w"), Alphabet.integers(n_x), values)
    return SampleSet(gain.secrets, xs, ys), gain


def metric_for(width):
    if width == 1:
        return DistanceMetric("absolute", scalar_codec(0.5))
    return DistanceMetric("manhattan", tuple_codec(width, 0.5))


class TestDataKnnTrain:
    @pytest.mark.parametrize("profile", ["desk", "paper"])
    @pytest.mark.parametrize("name", SCENARIOS)
    def test_scenarios(self, name, profile):
        scenario = build_scenario(name, profile)
        train = sample_joint(
            (scenario.prior, scenario.channel), 3000, stream(0, f"t/ref/{profile}/train")
        )
        assert_same_data_fit(
            train, scenario.gain, scenario.metric, scenario.prior, scenario.channel
        )

    @pytest.mark.parametrize("seed", range(16))
    def test_random_gains_with_a_zero_column(self, seed):
        gen = np.random.default_rng(900 + seed)
        width = 1 + seed % 3
        train, gain = zero_column_set(gen, width)
        model = assert_same_data_fit(train, gain, metric_for(width))
        # the row seen only with the zero-gain secret is not indexed
        assert model.n_indexed < _unique_rows(train.ys)[0].shape[0]

    def test_zero_gain_on_every_sampled_secret(self):
        secrets = Alphabet.integers(3)
        gain = GainFunction(
            Alphabet.integers(2, "w"), secrets, [[0.0, 0.0, 2.0], [0.0, 0.0, 1.0]]
        )
        train = SampleSet(secrets, np.array([0, 1, 1, 0]), np.arange(4)[:, None])
        errors = []
        for train_fn in (fit_data_knn, reference_data_knn_train):
            with pytest.raises(ValidationError) as caught:
                train_fn(train, gain, metric_for(1))
            errors.append((type(caught.value), str(caught.value)))
        assert errors[0] == errors[1]
        assert errors[0][1] == "gain is zero on every sampled secret"

    @pytest.mark.parametrize(
        "values",
        [
            [[1.0, 1.0 / EXPANSION_CAP, 0.0], [0.5, 0.0, 0.25]],  # scale at the cap
            [[float(EXPANSION_CAP), 1.0, 0.0], [0.0, 3.0, 0.0]],  # entry at the cap
        ],
    )
    def test_rationalized_gain_at_the_cap(self, values):
        gen = np.random.default_rng(7)
        secrets = Alphabet.integers(3)
        gain = GainFunction(Alphabet.integers(2, "w"), secrets, values)
        xs = gen.integers(0, 3, size=5000)
        train = SampleSet(secrets, xs, gen.integers(0, 40, size=(5000, 1)))
        _, scale = rationalize_gain(gain)
        model = assert_same_data_fit(train, gain, metric_for(1))
        assert scale * gain.matrix.max() == EXPANSION_CAP
        assert model.tallies.max() > 2**24  # past float32's exact integers


def assert_same_inversion(probs, u):
    fast, reference = _inverse_cdf(probs, u), reference_inverse_cdf(probs, u)
    assert fast.dtype == reference.dtype == np.intp and fast.shape == reference.shape
    assert np.array_equal(fast, reference)


class TestInverseCdf:
    def test_scenarios(self, scenario):
        gen = np.random.default_rng(5)
        u = np.concatenate([gen.random(10000), [0.0, 1.0 - 2.0**-53], gen.random(50).repeat(3)])
        laws = [scenario.prior.probs, channel_preprocess(scenario.prior, scenario.gain).tau.probs]
        if isinstance(scenario.channel, Channel):  # the flat joint sample_joint inverts
            laws.append((scenario.prior.probs[:, None] * scenario.channel.rows).ravel())
        for probs in laws:
            assert_same_inversion(probs, u)

    @pytest.mark.parametrize("seed", range(20))
    def test_random_laws_with_zeros(self, seed):
        gen = np.random.default_rng(500 + seed)
        size = 1 if seed % 5 == 0 else int(gen.integers(2, 3000))
        probs = gen.random(size) * (gen.random(size) < 0.5)
        probs[:: max(1, size // 3)] = 0.0  # zero plateaus, the first entry among them
        probs[int(gen.integers(size))] += 0.25
        probs /= probs.sum()
        u = gen.random(int(gen.integers(0, 2000)))
        u[: u.size // 4] = u[u.size // 4 : 2 * (u.size // 4)]  # repeated uniforms
        assert_same_inversion(probs, u)

    def test_targets_on_cdf_steps_and_ends(self):
        probs = np.array([0.0, 0.25, 0.5, 0.0, 0.25, 0.0])
        u = np.array([0.75, 0.0, 0.25, 1.0 - 2.0**-53, 0.5, 0.2499999999, 0.0, 0.75])
        assert_same_inversion(probs, u)
        assert _inverse_cdf(probs, u).tolist() == [4, 1, 2, 4, 2, 1, 1, 4]
        assert_same_inversion(probs, np.empty(0))


def rationalized(rationalize, gain):
    """(matrix bytes, scale) or (error type, message) of one rationalization."""
    try:
        rational, scale = rationalize(gain)
    except ValidationError as exc:
        return type(exc), str(exc)
    assert rational.matrix.dtype == np.float64 and rational.shift == 0.0
    return rational.matrix.tobytes(), scale


def assert_same_rationalization(values):
    values = np.asarray(values, dtype=np.float64)
    n_w, n_x = values.shape
    gain = GainFunction(Alphabet.integers(n_w, "w"), Alphabet.integers(n_x), values)
    fast = rationalized(rationalize_gain, gain)
    assert fast == rationalized(reference_rationalize_gain, gain)
    return fast


def random_rational(gen, shape, denominators):
    """Non-negative rationals on a few denominators, with repeats and zeros."""
    dens = gen.choice(denominators, size=shape)
    nums = gen.integers(0, 3 * dens + 1)
    values = nums / dens
    values[gen.random(shape) < 0.2] = 0.0
    return values


class TestRationalizeGain:
    def test_scenarios(self, scenario):
        assert isinstance(
            assert_same_rationalization(scenario.gain.original())[1], int
        )

    @pytest.mark.parametrize("seed", range(40))
    def test_random_rational_gains(self, seed):
        gen = np.random.default_rng(700 + seed)
        shape = tuple(int(d) for d in gen.integers(1, 30, size=2))
        denominators = gen.choice([1, 2, 3, 4, 7, 10, 12, 64, 125, 999, 1000], size=3)
        assert_same_rationalization(random_rational(gen, shape, denominators))

    @pytest.mark.parametrize("seed", range(40))
    def test_entries_perturbed_up_to_the_snap_tolerance(self, seed):
        gen = np.random.default_rng(800 + seed)
        shape = tuple(int(d) for d in gen.integers(1, 30, size=2))
        denominators = gen.choice([1, 2, 3, 4, 8, 10, 250, 999], size=3, replace=False)
        values = random_rational(gen, shape, denominators)
        # relative to max(1, |v|); near a fraction over 250 or 999 that can
        # snap to a neighbour with a larger denominator.  Every fourth case
        # pushes one entry just past the tolerance, where both must refuse the
        # same entry.
        factor = gen.uniform(-1.0, 1.0, size=shape)
        if seed % 4 == 3:
            factor[tuple(gen.integers(shape))] = 1.05
        values = values + SNAP_TOL * np.maximum(1.0, values) * factor
        assert_same_rationalization(np.abs(values))

    def test_denominator_lcm_at_and_past_the_cap(self):
        # 64 * 15625 = 10**6; 101 * 9901 = 10**6 + 1
        assert assert_same_rationalization([[1 / 64, 1 / 15625, 0.0]])[1] == EXPANSION_CAP
        error, message = assert_same_rationalization([[1 / 101, 1 / 9901, 0.0]])
        assert error is ValidationError and "denominator lcm" in message

    @pytest.mark.parametrize(
        "values, refused",
        [
            ([[1e6, 0.0]], False),
            ([[1e6 + 1, 0.0]], True),
            ([[500000.0, 0.5]], False),
            ([[500000.5, 0.5]], True),
        ],
    )
    def test_largest_scaled_entry_at_and_past_the_cap(self, values, refused):
        result = assert_same_rationalization(values)
        assert (result[0] is ValidationError) == refused

    def test_not_rationalizable(self):
        error, message = assert_same_rationalization([[0.5 + 1e-8, 1.0]])
        assert error is ValidationError and "cannot rationalize" in message

    def test_all_zero_and_single_entry(self):
        assert assert_same_rationalization(np.zeros((3, 4)))[1] == 1
        assert assert_same_rationalization([[0.75]])[1] == 4

    def test_no_inverse_index(self, scenario):
        calls = []
        unique = np.unique

        def spy_unique(*args, **kwargs):
            calls.append(kwargs)
            return unique(*args, **kwargs)

        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(np, "unique", spy_unique)
            rationalize_gain(scenario.gain)
        assert calls and not any(kwargs.get("return_inverse") for kwargs in calls)


LOCATION_SHAPES = ((1, 1), (2, 3), (5, 7), (7, 5), (13, 4), (GRID_SIDE, GRID_SIDE))
LOCATION_NUS = (1e-9, 0.5, 1.0, 60.0)


class TestLocationBuilders:
    @pytest.mark.parametrize("shape", LOCATION_SHAPES)
    @pytest.mark.parametrize("cell_m", [CELL_M, 1.0])
    def test_offset_distances(self, shape, cell_m):
        fast = _by_offset(_offset_distances(*shape, cell_m))
        reference = reference_center_distances(*shape, cell_m)
        assert fast.dtype == reference.dtype and fast.shape == reference.shape
        assert fast.tobytes() == reference.tobytes()

    @pytest.mark.parametrize("shape", LOCATION_SHAPES)
    def test_diamond_gain(self, shape):
        fast, reference = diamond_gain(*shape), reference_diamond_gain(*shape)
        assert fast.matrix.tobytes() == reference.matrix.tobytes()
        assert fast.guesses == reference.guesses and fast.secrets == reference.secrets

    @pytest.mark.parametrize("shape", LOCATION_SHAPES)
    @pytest.mark.parametrize("nu", LOCATION_NUS)
    def test_grid_geometric_mechanism(self, shape, nu):
        fast = grid_geometric_mechanism(*shape, nu)
        reference = reference_grid_geometric_mechanism(*shape, nu)
        assert fast.rows.tobytes() == reference.rows.tobytes()

    def test_scenario_exact_vg(self):
        built = build_scenario("location")
        channel = reference_grid_geometric_mechanism(GRID_SIDE, GRID_SIDE, MECHANISM_NU)
        gain = reference_diamond_gain()
        assert built.channel.rows.tobytes() == channel.rows.tobytes()
        assert built.gain.matrix.tobytes() == gain.matrix.tobytes()
        assert built.exact_vg == posterior_vulnerability(built.prior, channel, gain)
