"""Counting kernels, pre-processing, channel sampling and MLP training
against the implementations they replaced (``oracles``), bit for bit.

- ``core._unique_rows`` maps each integer row to one int64 mixed-radix key
  and counts the keys over their span with ``np.bincount`` when the span is
  small against the row count, else sorts them once; oversized spans go to
  ``np.unique(axis=0)``.  The reference sorts the rows themselves.
- The k-NN tallies of unit-weight pairs and the frequentist's counts are
  one ``np.bincount`` instead of ``np.add.at``.
- The data method's k-NN tallies are the (observable, secret) counts of the
  training set times the rationalized gain, instead of the tallies of its
  data pre-processing expansion.
- The channel method's (w, y) pairs are a ``SampleSet``, not pairs merged
  into weighted entries: both learners take their (observable, guess)
  count table, whose positive cells are the merged entries.
- ``core._inverse_cdf`` searches the targets in sorted order and scatters
  the indices back, instead of searching them in the uniforms' order.
- ``sample_joint`` inverts a ``joint_cdf`` that its caller built once for
  several draws, instead of the flat joint's CDF built per draw.
- ``channel_preprocess`` normalizes R's rows over its score buffer,
  instead of into a uniform buffer and then a renormalized copy.

- ``data_table`` is the (observable, guess) table that both learners
  take, the set's count table times G^T, instead of the dense (guess,
  distinct (x, y) pair) weight matrix with its entries merged per (guess,
  observable).  Its positive cells, read guess-major and then by
  observable as the MLP batch draw reads them, must come out in the merged
  order, because the draw inverts their cumulative weights.
- The frequentist is the row argmax of ``data_table`` under the original
  gain, instead of its own product of the count table and G^T.  The
  reference keeps that product and drops its all-zero rows as the table
  does.
- ``Channel.sample`` inverts every row in one search instead of one mask
  per distinct secret.
- ``mlp_train`` writes into buffers allocated once per call and updates one
  flat parameter vector, instead of fresh temporaries every step and a
  per-array optimizer update.  Both run each step once per distinct
  observable of the batch; the reference finds them by sorting the drawn
  observables and counts the draws in a dense matrix.  The distinct-row
  step is also checked against the step run once per draw, which sums in
  another order: within 1e-12 of the largest gradient entry, and bit for
  bit at batch size 1.
- ``MlpClassifier.predict_proba`` runs the training forward pass into
  buffers sized to its queries, instead of a pass of fresh temporaries.
- ``rationalize_gain`` scales the whole matrix with ``rint(G * K)`` instead
  of gathering the scaled distinct values through an inverse index.
- ``preprocess._distinct_values`` sorts a gain's entries and masks each
  that equals the one before it, instead of ``np.unique``, and
  ``harness._quartiles`` interpolates the sorted deltas as numpy's "linear"
  method does, instead of ``np.quantile``: both numpy calls import
  ``numpy.ma``.
- The location gain and mechanism are evaluated once per (row, column)
  offset and gathered, instead of on every cell pair.
- The k-NN's blocked path sums, per block of queries, the tallies of the
  rows some query of the block includes, instead of every row's through
  one dense (queries, l) @ (l, guesses) product.
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
    PairTable,
    _count_table,
    _inverse_cdf,
    _score_matrix,
    _unique_rows,
    joint_cdf,
    sample_prior,
)
from gleak.estimation import fit, sample_preprocessed_pairs
from gleak.harness import PROFILES, _quartiles
from gleak.features import tuple_codec
from gleak.io import read_channel, read_prior, write_channel, write_prior
from gleak.knn import EXACT_INTEGER, MAX_RADIUS, DistanceMetric, KnnClassifier, knn_train
from gleak.mlp import MlpClassifier, _Network, mlp_train
from gleak.preprocess import (
    EXPANSION_CAP,
    SNAP_TOL,
    _distinct_values,
    channel_preprocess,
    data_table,
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
    Entries,
    entries_table,
    ideal_derivation,
    reference_center_distances,
    reference_channel_preprocess,
    reference_channel_sample,
    reference_data_knn_train,
    reference_data_preprocess,
    reference_diamond_gain,
    reference_frequentist_predictor,
    reference_grid_geometric_mechanism,
    reference_inverse_cdf,
    reference_knn_predict,
    reference_knn_train,
    reference_mlp_train,
    reference_pair_expansion,
    reference_per_draw_loss_and_grads,
    reference_predict_proba,
    reference_rationalize_gain,
    reference_sample_preprocessed_pairs,
    reference_unique_rows,
    table_entries,
)
from conftest import fit_frequentist, identity_channel, original_gain

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


def weight_per_pair(data):
    """(w, y) -> the total weight of its entries."""
    totals = {}
    for w, y, weight in zip(data.ws.tolist(), data.ys.tolist(), data.weights.tolist()):
        totals[w, tuple(y)] = totals.get((w, tuple(y)), 0) + weight
    return totals


def assert_same_preprocessing(train, gain):
    """The fast path equals the merged reference, which holds every (w, y)
    at the weight of its per-(w, x, y) entries."""
    merged = reference_data_preprocess(train, gain)
    table = data_table(train, gain)
    assert table.tallies.dtype == np.float64 and table.guesses == gain.guesses
    assert_same_entries(table_entries(table), merged)
    assert table.total_weight == int(merged.weights.sum())
    pairs = reference_pair_expansion(train, gain)
    assert weight_per_pair(pairs) == weight_per_pair(merged)
    assert merged.ws.size == len(weight_per_pair(pairs)) <= pairs.ws.size


class TestDataPreprocess:
    def test_scenarios(self, scenario):
        train, gain = scenario_training_set(scenario, 3000)
        assert_same_preprocessing(train, gain)

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
        assert_same_preprocessing(train, gain)

    def test_zero_gain_on_every_sampled_secret(self):
        # the gain is positive, but only on a secret that was never sampled
        secrets = Alphabet.integers(3)
        gain = GainFunction(
            Alphabet.integers(2, "w"), secrets, [[0.0, 0.0, 2.0], [0.0, 0.0, 1.0]]
        )
        train = SampleSet(secrets, np.array([0, 1, 1, 0]), np.arange(4)[:, None])
        for preprocess in (data_table, reference_data_preprocess, reference_pair_expansion):
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
        table = data_table(train, gain)
        config = MlpConfig(scenario.metric.codec, (12, 7), epochs=2, batch_size=64)
        assert_same_network(
            mlp_train(table, config, stream(5, "t/ref/mlp")),
            reference_mlp_train(table_entries(table), config, stream(5, "t/ref/mlp")),
        )

    @pytest.mark.parametrize("seed", range(8))
    def test_random_architectures(self, seed):
        gen = np.random.default_rng(200 + seed)
        dim = 1 if seed % 2 == 0 else int(gen.integers(2, 5))
        hidden = tuple(int(h) for h in gen.integers(1, 24, size=int(gen.integers(1, 4))))
        n_w = int(gen.integers(2, 9))
        n = int(gen.integers(5, 60))
        codec = scalar_codec(0.1) if dim == 1 else tuple_codec(dim, 0.1)
        table = entries_table(Entries(
            Alphabet.integers(n_w, "w"),
            gen.integers(0, n_w, size=n),
            gen.integers(-20, 20, size=(n, dim)),
            gen.integers(1, 6, size=n),
        ))
        config = MlpConfig(
            codec, hidden, learning_rate=1e-2, epochs=3, batch_size=int(gen.integers(1, 40))
        )
        assert_same_network(
            mlp_train(table, config, stream(seed, "t/ref/arch")),
            reference_mlp_train(table_entries(table), config, stream(seed, "t/ref/arch")),
        )


def channel_table(scenario, m):
    """The channel method's (guess, observable) table at m pairs."""
    deriv = channel_preprocess(scenario.prior, scenario.gain)
    pairs = sample_preprocessed_pairs(deriv, scenario.channel, m, stream(0, "t/ref/pairs"))
    return PairTable(pairs.secrets, *pairs.counts)


def batch_draws(table, batch, gen):
    """A batch of cell indices drawn as ``mlp_train`` draws them."""
    cells = np.asarray(table.tallies).T
    cum_weights = np.cumsum(cells[cells > 0].astype(np.int64))
    return np.searchsorted(cum_weights, gen.integers(0, cum_weights[-1], size=batch), side="right")


def both_steps(table, codec, idx, seed, hidden=(16, 9)):
    """The network's step on the cells ``idx`` of ``table`` and the
    per-draw reference step on the same weights: (loss, gradients) each."""
    labels, rows = np.nonzero(np.asarray(table.tallies).T)
    x_rows = codec.encode(table.distinct)
    sizes = (codec.dim, *hidden, table.guesses.size)
    net = _Network(sizes, idx.size, np.random.default_rng(seed))
    loss = net.loss_and_grads(x_rows, rows, labels, idx)
    ref_loss, grads_w, grads_b = reference_per_draw_loss_and_grads(
        net.weights, net.biases, x_rows[rows[idx]], labels[idx]
    )
    return (loss, net.grads), (ref_loss, np.concatenate([g.ravel() for g in grads_w + grads_b]))


def assert_close_to_per_draw(table, codec, idx, seed, hidden=(16, 9)):
    """Within 1e-12 of the largest gradient entry, and of the loss."""
    (loss, grads), (ref_loss, reference) = both_steps(table, codec, idx, seed, hidden)
    assert np.abs(grads - reference).max() <= 1e-12 * np.abs(reference).max()
    assert abs(loss - ref_loss) <= 1e-12 * abs(ref_loss)


class TestMlpStepAgainstPerDraw:
    @pytest.mark.parametrize("method", ["data", "channel"])
    def test_scenario_tables(self, scenario, method):
        if method == "data":
            table = data_table(*scenario_training_set(scenario, 2000))
        else:
            table = channel_table(scenario, 2000)
        idx = batch_draws(table, 500, np.random.default_rng(3))
        assert_close_to_per_draw(table, scenario.metric.codec, idx, 0)

    @pytest.mark.parametrize("seed", range(20))
    def test_random_shapes(self, seed):
        gen = np.random.default_rng(700 + seed)
        dim = int(gen.integers(1, 4))
        n_w = int(gen.integers(2, 9))
        n = int(gen.integers(2, 80))
        table = entries_table(Entries(
            Alphabet.integers(n_w, "w"),
            gen.integers(0, n_w, size=n),
            gen.integers(-6, 6, size=(n, dim)),
            gen.integers(1, 9, size=n),
        ))
        hidden = tuple(int(h) for h in gen.integers(1, 30, size=int(gen.integers(1, 4))))
        idx = batch_draws(table, int(gen.integers(1, 300)), gen)
        codec = scalar_codec(0.1) if dim == 1 else tuple_codec(dim, 0.1)
        assert_close_to_per_draw(table, codec, idx, seed, hidden)

    def test_every_draw_on_one_row(self, scenario):
        # d = 1: the batch draws only the cells of the table's busiest row
        table = data_table(*scenario_training_set(scenario, 2000))
        _, rows = np.nonzero(np.asarray(table.tallies).T)
        busiest = np.flatnonzero(rows == np.bincount(rows).argmax())
        idx = np.random.default_rng(1).choice(busiest, size=64)
        assert np.unique(rows[idx]).size == 1
        assert_close_to_per_draw(table, scenario.metric.codec, idx, 1)

    def test_no_repeated_row(self, scenario):
        # d = B: the first cell of each of up to 64 rows, in shuffled order
        table = data_table(*scenario_training_set(scenario, 2000))
        _, rows = np.nonzero(np.asarray(table.tallies).T)
        _, first = np.unique(rows, return_index=True)
        idx = first[:64]
        np.random.default_rng(2).shuffle(idx)
        assert np.unique(rows[idx]).size == idx.size > 1
        assert_close_to_per_draw(table, scenario.metric.codec, idx, 2)

    @pytest.mark.parametrize("seed", range(4))
    def test_batch_of_one_is_the_per_draw_step(self, scenario, seed):
        table = data_table(*scenario_training_set(scenario, 2000))
        idx = batch_draws(table, 1, np.random.default_rng(seed))
        (loss, grads), (ref_loss, reference) = both_steps(table, scenario.metric.codec, idx, seed)
        assert grads.tobytes() == reference.tobytes() and loss == ref_loss


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
    """The pairs ``fit_channel`` draws, merged into weighted entries."""
    deriv = channel_preprocess(scenario.prior, scenario.gain)
    return reference_sample_preprocessed_pairs(deriv, scenario.channel, m, stream(0, "t/ref/pairs"))


class TestChannelPairs:
    @pytest.mark.parametrize("m", [2000, 10000])
    def test_expansion_is_the_merged_pairs(self, scenario, m):
        deriv = channel_preprocess(scenario.prior, scenario.gain)
        pairs = sample_preprocessed_pairs(deriv, scenario.channel, m, stream(0, "t/ref/pairs"))
        assert pairs.secrets == deriv.tau.alphabet and pairs.size == m
        table = PairTable(pairs.secrets, *pairs.counts)  # the table ``fit`` trains on
        assert_same_entries(table_entries(table), reference_pairs(scenario, m))

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


def assert_same_derivation(prior, gain):
    fast, reference = channel_preprocess(prior, gain), reference_channel_preprocess(prior, gain)
    assert np.float64(fast.beta).tobytes() == np.float64(reference.beta).tobytes()
    assert fast.tau.probs.tobytes() == reference.tau.probs.tobytes()
    assert fast.R.rows.tobytes() == reference.R.rows.tobytes()
    assert fast.tau.alphabet == reference.tau.alphabet and fast.R.output == reference.R.output
    assert not fast.R.rows.flags.writeable
    return fast


class TestChannelPreprocess:
    def test_scenarios(self, scenario):
        assert_same_derivation(scenario.prior, scenario.gain)

    def test_all_zero_guess_row_gets_a_uniform_row(self):
        secrets = Alphabet.integers(4)
        gain = GainFunction(Alphabet.integers(3, "w"), secrets, [
            [1.0, 0.5, 0.0, 2.0],
            [0.0, 0.0, 0.0, 0.0],  # a guess that gains nothing
            [0.25, 0.0, 3.0, 1.0],
        ])
        deriv = assert_same_derivation(Prior.uniform(secrets), gain)
        assert deriv.tau.probs[1] == 0.0
        assert deriv.R.rows[1].tolist() == [0.25] * 4

    def test_prior_with_zero_entries(self):
        secrets = Alphabet.integers(5)
        prior = Prior(secrets, [0.5, 0.0, 0.25, 0.0, 0.25])
        gain = GainFunction(Alphabet.integers(3, "w"), secrets, [
            [0.0, 3.0, 0.0, 1.0, 0.0],  # positive only on zero-probability secrets
            [1.0, 1.0, 0.5, 0.0, 0.0],
            [0.0, 0.0, 1.0, 2.0, 1.0],
        ])
        deriv = assert_same_derivation(prior, gain)
        assert deriv.R.rows[0].tolist() == [0.2] * 5

    @pytest.mark.parametrize("seed", range(10))
    def test_random_gains(self, seed):
        gen = np.random.default_rng(900 + seed)
        n_w, n_x = (int(v) for v in gen.integers(1, 40, size=2))
        probs = gen.random(n_x) * (gen.random(n_x) < 0.7)
        probs[0] += 0.1
        prior = Prior(Alphabet.integers(n_x), probs / probs.sum())
        values = gen.random((n_w, n_x)) * (gen.random((n_w, n_x)) < 0.5) - 0.3 * (seed % 2)
        values[:, 0] += 0.5  # every row positive on the secret of positive probability
        values[gen.random(n_w) < 0.2] = -0.3 * (seed % 2)  # rows at the stored zero
        assert_same_derivation(prior, GainFunction(Alphabet.integers(n_w, "w"), prior.alphabet, values))

    def test_degenerate_input_is_refused_by_both(self):
        secrets = Alphabet.integers(2)
        gain = GainFunction(Alphabet.integers(2, "w"), secrets, [[0.0, 1.0], [0.0, 2.0]])
        prior = Prior(secrets, [1.0, 0.0])
        for derive in (channel_preprocess, reference_channel_preprocess):
            with pytest.raises(ValidationError, match="zero everywhere"):
                derive(prior, gain)

    @pytest.mark.parametrize("name", ["multi-guess", "location"])  # the matrix channels
    def test_ideal_derivation_keeps_its_scores(self, name):
        # ``_split`` normalizes into a new array unless it is given ``out``
        scenario = build_scenario(name)
        prior, channel, gain = scenario.prior, scenario.channel, scenario.gain
        deriv = ideal_derivation(prior, channel, gain)
        assert deriv.U.tobytes() == _score_matrix(prior, channel, gain).tobytes()


class TestTallies:

    def test_frequentist_scenarios(self, scenario):
        train, _ = scenario_training_set(scenario, 3000)
        assert_same_table(
            fit_frequentist(train, scenario.gain),
            reference_frequentist_predictor(train, scenario.gain),
        )

    @pytest.mark.parametrize("seed", range(16))
    def test_random_sets(self, seed):
        gen = np.random.default_rng(400 + seed)
        width = 1 + seed % 3
        n = 1 if seed % 8 == 5 else int(gen.integers(2, 500))
        n_w = int(gen.integers(1, 9))
        ys = gen.integers(-30, 30, size=(n, width)) * int(gen.choice([1, 10**7]))
        data = Entries(
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
        try:
            reference = reference_frequentist_predictor(train, gain)
        except ValidationError as refusal:  # the gain is zero on every sampled secret
            with pytest.raises(ValidationError, match=str(refusal)):
                fit_frequentist(train, gain)
        else:
            assert_same_table(fit_frequentist(train, gain), reference)


def fit_data_knn(train, gain, metric, prior=None, channel=None):
    """``fit("data", ...)`` on a drawn set; the source is nominal, as a set is given."""
    prior = prior or Prior.uniform(gain.secrets)
    channel = channel or identity_channel(gain.secrets)
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


def assert_same_predictions(model, queries):
    got = model.predict(queries)
    np.testing.assert_array_equal(got, reference_knn_predict(model, queries))
    return got


def tallies_near_the_limit(gen, l, totals):
    """(l, len(totals)) integer tallies whose column sums are ``totals``."""
    columns = []
    for total in totals:
        column = [int(v) for v in gen.integers(0, total // l, size=l - 1)]
        columns.append(column + [total - sum(column)])
    return np.array(columns, dtype=np.float64).T


class TestKnnPredict:
    @pytest.mark.parametrize("m", [500, 2000, 10000, 30000])
    def test_location(self, m):
        # every cell and a validation draw, against the data and the channel
        # k-NN; the grid codec is euclidean, so the blocked path answers all
        scenario = build_scenario("location")
        source = (scenario.prior, scenario.channel)
        train = sample_joint(source, m, stream(0, f"t/ref/knn/{m}/train"))
        valid = sample_joint(source, 2000, stream(0, f"t/ref/knn/{m}/valid"))
        cells = np.arange(scenario.channel.output.size)[:, None]
        data, _ = fit_data_knn(train, scenario.gain, scenario.metric, *source)
        channel, _ = fit_channel(scenario, m, scenario.metric)
        for model in (data, channel):
            assert model._sorted is None and model._lattice is None
            assert model.n_guesses == scenario.gain.guesses.size
            assert_same_predictions(model, cells)
            assert_same_predictions(model, valid.ys)

    def test_dp_queries_outside_the_lattice(self):
        scenario = build_scenario("dp")
        train = sample_joint(
            (scenario.prior, scenario.channel), 2000, stream(0, "t/ref/knn/dp/train")
        )
        model, _ = fit_data_knn(
            train, scenario.gain, scenario.metric, scenario.prior, scenario.channel
        )
        assert model._lattice is not None
        # each query leaves the rows' box, widened by far more than the
        # lattice's frame, in one coordinate or in all of them
        gen = np.random.default_rng(11)
        rows = train.ys[gen.integers(0, train.size, size=300)]
        past = np.ptp(train.ys, axis=0) + 4 * MAX_RADIUS
        sign = gen.choice([-1, 1], size=rows.shape)
        one = np.eye(rows.shape[1], dtype=np.int64)[gen.integers(0, rows.shape[1], size=300)]
        queries = np.concatenate([rows + sign * one * past, rows + sign * past, rows - 10**6])
        answered, _ = model._lattice_votes(queries.astype(np.float64), model.k)
        assert not answered.any()  # the blocked fallback answers every query
        assert_same_predictions(model, queries)

    @pytest.mark.parametrize("kind", ["euclidean", "manhattan"])
    def test_every_row_ties_with_tallies_near_two_to_the_53(self, kind):
        # rows on the integer circle x^2 + y^2 = 5525 (48 points) or the L1
        # sphere |x| + |y| = 20 (80 points): from the origin every row lies
        # at the k-th distance and votes.  The column totals sit just below
        # 2**53, guess 1 ahead of guess 2 by one and of guess 0 by two, so
        # any rounded partial sum would change the winner.
        span = np.arange(-75, 76)
        xs, ys = np.meshgrid(span, span)
        if kind == "euclidean":
            on = xs * xs + ys * ys == 5525
        else:
            on = np.abs(xs) + np.abs(ys) == 20
        points = np.column_stack([xs[on], ys[on]]).astype(np.float64)
        l = points.shape[0]
        assert l == (48 if kind == "euclidean" else 80)
        totals = [EXACT_INTEGER - 3, EXACT_INTEGER - 1, EXACT_INTEGER - 2]
        tallies = tallies_near_the_limit(np.random.default_rng(3), l, totals)
        assert tallies.sum(axis=0).tolist() == [float(t) for t in totals]
        metric = DistanceMetric(kind, tuple_codec(2, 1.0))
        model = KnnClassifier(points, tallies, math.floor(math.log(l)), metric)
        gen = np.random.default_rng(4)
        queries = np.concatenate([
            np.zeros((40, 2), dtype=np.int64),
            gen.integers(-3, 4, size=(60, 2)),  # off the centre: the nearest few vote
            gen.integers(-90, 91, size=(60, 2)),  # anywhere, also outside the rows
        ])
        queries = gen.permutation(queries)  # blocks mix all three kinds
        got = assert_same_predictions(model, queries)
        assert (got[(queries == 0).all(axis=1)] == 1).all()


def assert_same_inversion(probs, u):
    fast, reference = _inverse_cdf(np.cumsum(probs), u), reference_inverse_cdf(probs, u)
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
        assert _inverse_cdf(np.cumsum(probs), u).tolist() == [4, 1, 2, 4, 2, 1, 1, 4]
        assert_same_inversion(probs, np.empty(0))


def assert_same_set(fast, reference):
    assert fast.secrets == reference.secrets
    for field in ("xs", "ys"):
        a, b = getattr(fast, field), getattr(reference, field)
        assert a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


def parent_joint_draw(source, count, draw_stream):
    """The pairs the flat joint's CDF, built for this one draw, inverts to."""
    prior, channel = source
    n_y = channel.output.size
    flat = (prior.probs[:, None] * channel.rows).ravel()
    idx = reference_inverse_cdf(flat, draw_stream.gen.random(count))
    return SampleSet(prior.alphabet, idx // n_y, (idx % n_y)[:, None])


def assert_shared_cdf_draws(source, m, name):
    cdf = joint_cdf(source)
    matrix = isinstance(source[1], Channel)
    assert (cdf is not None) == matrix
    if matrix:
        flat = (source[0].probs[:, None] * source[1].rows).ravel()
        assert not cdf.flags.writeable and cdf.tobytes() == np.cumsum(flat).tobytes()
    for k in range(3):  # several sets from the one CDF
        label = f"t/ref/cdf/{name}/{m}/{k}"
        shared = sample_joint(source, m, stream(0, label), cdf)
        assert_same_set(shared, sample_joint(source, m, stream(0, label)))
        if matrix:
            assert_same_set(shared, parent_joint_draw(source, m, stream(0, label)))


class TestSharedJointCdf:
    @pytest.mark.parametrize("m", [1, 7, 500, 10000])
    def test_scenarios(self, scenario, m):
        assert_shared_cdf_draws((scenario.prior, scenario.channel), m, scenario.name)

    @pytest.mark.parametrize("m", [1, 7, 500, 10000])
    def test_file_channel_with_zero_probability_cells(self, tmp_path, m):
        secrets, outputs = Alphabet.integers(4), Alphabet.integers(5, "y")
        rows = np.array([
            [0.0, 0.5, 0.0, 0.5, 0.0],
            [0.2, 0.2, 0.2, 0.2, 0.2],  # a secret of prior 0
            [1.0, 0.0, 0.0, 0.0, 0.0],
            [0.0, 0.0, 0.0, 0.25, 0.75],
        ])
        write_prior(Prior(secrets, [0.25, 0.0, 0.5, 0.25]), tmp_path / "prior.txt")
        write_channel(Channel(secrets, outputs, rows), tmp_path / "channel.txt")
        channel = read_channel(tmp_path / "channel.txt")
        source = (read_prior(tmp_path / "prior.txt", channel.input), channel)
        assert_shared_cdf_draws(source, m, "file")
        drawn = sample_joint(source, m, stream(1, "t/ref/cdf/zeros"), joint_cdf(source))
        joint = source[0].probs[:, None] * channel.rows
        assert (joint[drawn.xs, drawn.ys[:, 0]] > 0.0).all()  # no zero-probability cell

    def test_a_cdf_of_another_shape_is_refused(self):
        source = (Prior.uniform(Alphabet.integers(3)), Channel(
            Alphabet.integers(3), Alphabet.integers(2, "y"), np.full((3, 2), 0.5)
        ))
        with pytest.raises(ValidationError, match="joint CDF shape"):
            sample_joint(source, 5, stream(0, "t/ref/cdf/shape"), np.linspace(0.1, 1.0, 5))


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
            assert_same_rationalization(original_gain(scenario.gain))[1], int
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
        assert not calls  # np.unique is not called at all, with or without an inverse


def assert_same_distinct(matrix):
    fast, reference = _distinct_values(matrix), np.unique(matrix)
    assert fast.dtype == reference.dtype and fast.shape == reference.shape
    assert fast.tobytes() == reference.tobytes()


class TestDistinctValues:
    def test_scenarios(self, scenario):
        assert_same_distinct(scenario.gain.matrix)

    def test_file_gain_of_halves_and_thirds(self):
        assert_same_distinct(
            np.array([
                [1.0, 0.5, 0.0, 0.3333333333333333],
                [0.0, 0.0, 0.0, 0.0],
                [0.5, 1.0, 0.6666666666666666, 0.25],
            ])
        )

    @pytest.mark.parametrize("seed", range(20))
    def test_random_gains_with_repeated_entries(self, seed):
        gen = np.random.default_rng(900 + seed)
        shape = tuple(int(d) for d in gen.integers(1, 30, size=2))
        denominators = gen.choice([1, 2, 3, 7, 10], size=2)
        assert_same_distinct(random_rational(gen, shape, denominators))

    def test_single_entry_signed_zeros_and_one_value(self):
        for values in ([[0.75]], [[0.0, -0.0, 1.0]], [[-0.0, 0.0, 1.0]], np.full((4, 5), 2.5)):
            assert_same_distinct(np.array(values))


def assert_same_quartiles(values):
    reference = np.quantile(values.ravel(), [0.0, 0.25, 0.5, 0.75, 1.0])
    assert np.array(_quartiles(values)).tobytes() == reference.tobytes()


class TestQuartiles:
    def test_sizes_one_to_three_hundred(self):
        gen = np.random.default_rng(950)
        for n in range(1, 301):
            assert_same_quartiles(np.abs(gen.standard_normal(n)))  # distinct values
            assert_same_quartiles(gen.integers(0, 3, n) / 3)  # ties
            # magnitudes far apart, where the two lerp branches round differently
            assert_same_quartiles(gen.random(n) * 10.0 ** gen.integers(-12, 13, n))

    @pytest.mark.parametrize("profile", sorted(PROFILES))
    @pytest.mark.parametrize("seed", range(10))
    def test_trial_matrix_shapes(self, profile, seed):
        gen = np.random.default_rng(960 + seed)
        shape = (PROFILES[profile].num_train_sets, PROFILES[profile].num_valid_sets)
        assert_same_quartiles(np.abs(gen.standard_normal(shape)) * 0.02)
        assert_same_quartiles(gen.integers(0, 4, shape) / 7)
        assert_same_quartiles(np.zeros(shape))


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
