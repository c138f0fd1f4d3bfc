"""Modified k-NN: k rule, tie inclusion, weighted voting.

The query kernels (a (q, l) distance buffer filled a dimension at a time,
a sorted-feature window for the 1-D metric and the integer L1 ball search)
are checked against ``oracles.reference_knn_predict``, every (q, l)
distance through a (q, l, dim) temporary, a partition for the k-th and the
included rows' tallies summed by one product.  The ball search is also
checked against ``oracles.reference_blocked_knn_predict``, the blocked
kernel it falls back to, while a spy counts the queries each path answers;
its occupancy-filtered key lookup against a sorted search of every key,
and its shell tables against shells built afresh and sorted by key.
"""

import contextlib
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gleak import DistanceMetric, ValidationError, scalar_codec
from gleak import knn
from gleak.core import KEY_LIMIT, _count_table, _key_frame, sample_joint
from gleak.features import FeatureCodec, grid_codec, tuple_codec
from gleak.knn import METRIC_KINDS, KnnClassifier, k_for, knn_train
from gleak.rng import stream
from gleak.scenarios import build_scenario
from oracles import (
    reference_blocked_knn_predict,
    reference_knn_predict,
    reference_lattice_find,
    reference_pairwise,
    reference_points,
    reference_shell,
)


def scalar_metric():
    return DistanceMetric("absolute", scalar_codec(1.0))


def trained(ws, ys, copies, n_guesses=None, metric=None):
    """``knn_train`` on the (observable, guess) count table of the pairs
    (ws[i], ys[i]), each taken copies[i] times."""
    ws, copies = np.asarray(ws), np.asarray(copies)
    n = int(ws.max()) + 1 if n_guesses is None else n_guesses
    table = _count_table(np.repeat(np.asarray(ys), copies, axis=0), np.repeat(ws, copies), n)
    return knn_train(*table, metric or scalar_metric())


# scalar codecs whose features round: thirds and tenths, and offsets at which
# neighbouring integers land one float apart or on the same float; keyed by
# a label of their scale and offset
SCALAR_CODECS = {
    f"scalar(x{scale:g}{offset:+g})": scalar_codec(scale, offset)
    for scale, offset in [
        (1.0, 0.0), (0.5, 0.0), (0.1, 0.3), (1 / 3, -7.25), (1.0, 3e15), (1.0, 1e16)
    ]
}


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
        model = trained(
            ws=[0, 1, 0, 1],
            ys=[[3], [3], [5], [3]],
            copies=[2, 1, 4, 6],
        )
        assert model.n_indexed == 2  # distinct observables {3, 5}
        assert model.k == 1
        np.testing.assert_array_equal(model.tallies, [[2.0, 7.0], [4.0, 0.0]])

    def test_weight_equivalence_with_physical_copies(self):
        gen = np.random.default_rng(2)
        ws = gen.integers(0, 3, size=40)
        ys = gen.integers(0, 6, size=(40, 1))
        weights = gen.integers(1, 5, size=40)
        # each pair's weight summed per (observable, guess), one entry at a time
        distinct, inverse = np.unique(ys, axis=0, return_inverse=True)
        summed = np.zeros((distinct.shape[0], 3))
        np.add.at(summed, (inverse.ravel(), ws), weights)
        a = knn_train(distinct, summed, scalar_metric())
        b = trained(ws, ys, weights, n_guesses=3)
        assert a.k == b.k
        np.testing.assert_array_equal(a.features, b.features)
        np.testing.assert_array_equal(a.tallies, b.tallies)
        queries = gen.integers(0, 6, size=(64, 1))
        np.testing.assert_array_equal(a.predict(queries), b.predict(queries))


class TestPrediction:
    def test_single_neighbor_vote(self):
        model = trained(ws=[0, 1], ys=[[0], [10]], copies=[1, 1])
        assert model.predict(np.array([[1], [9]])).tolist() == [0, 1]

    def test_distance_ties_include_all(self):
        # l = 8 -> k = 2; query 5 sits at distance 1 from {4, 6} and
        # distance 3 from {2, 8}: the 2-NN set is {4, 6} exactly
        model = trained(
            ws=[0, 0, 1, 1, 0, 1, 0, 1],
            ys=[[0], [1], [2], [4], [6], [8], [11], [12]],
            copies=[1, 1, 1, 3, 1, 3, 1, 1],
        )
        assert model.k == 2
        # query 3: distances to 2 and 4 are both 1 = kth distance -> both in;
        # votes w1: 1 (from 2) + 3 (from 4) vs w0: 0 -> guess 1
        assert model.predict(np.array([[3]])).tolist() == [1]
        # query 5: 4 and 6 at distance 1; votes w1=3 vs w0=1 -> guess 1
        assert model.predict(np.array([[5]])).tolist() == [1]

    def test_kth_distance_tie_pulls_in_extra_neighbors(self):
        # k = 1 (l = 3) but two points tie at the nearest distance
        model = trained(ws=[0, 1, 1], ys=[[4], [6], [20]], copies=[1, 2, 1])
        assert model.k == 1
        # query 5: both 4 and 6 at distance 1; votes w0=1, w1=2 -> 1
        assert model.predict(np.array([[5]])).tolist() == [1]

    def test_vote_ties_break_to_lowest_guess_index(self):
        model = trained(ws=[2, 1], ys=[[4], [6]], copies=[5, 5], n_guesses=3)
        # query 5: equidistant, equal votes for guesses 1 and 2 -> lowest (1)
        assert model.predict(np.array([[5]])).tolist() == [1]

    def test_k_capped_by_index_size(self):
        model = trained(ws=[0], ys=[[7]], copies=[9])
        assert model.predict(np.array([[0], [100]])).tolist() == [0, 0]

    def test_chunked_prediction_matches_unchunked(self, monkeypatch):
        gen = np.random.default_rng(11)
        for config, width in (
            (scalar_metric(), 1),
            (DistanceMetric("manhattan", tuple_codec(3, 0.5)), 3),
        ):
            model = trained(
                gen.integers(0, 4, size=300),
                gen.integers(0, 50, size=(300, width)),
                gen.integers(1, 6, size=300),
                n_guesses=4,
                metric=config,
            )
            queries = gen.integers(0, 50, size=(700, width))
            monkeypatch.setattr(knn, "QUERY_CHUNK", 7)
            chunked = model.predict(queries)
            monkeypatch.setattr(knn, "QUERY_CHUNK", 10_000)
            np.testing.assert_array_equal(chunked, model.predict(queries))

    @pytest.mark.parametrize("query", [5, -1, 11])
    def test_one_dimensional_ties_on_both_sides(self, query):
        # features 2, 4 left of 5 and 6, 8 right of it: with k = 1 the two
        # at distance 1 both vote, and for queries outside the range the
        # nearest edge feature alone does
        model = KnnClassifier(
            np.array([[2.0], [4.0], [6.0], [8.0]]),
            np.array([[0.0, 3.0], [2.0, 0.0], [0.0, 1.0], [4.0, 0.0]]),
            1,
            scalar_metric(),
        )
        expected = {5: 0, -1: 1, 11: 0}[query]
        assert model.predict(np.array([[query]])).tolist() == [expected]
        assert reference_knn_predict(model, np.array([[query]])).tolist() == [expected]

    @pytest.mark.parametrize("codec", SCALAR_CODECS.values(), ids=SCALAR_CODECS.keys())
    def test_one_dimensional_runs_include_what_the_reference_includes(self, codec):
        # one guess per feature, so the votes are the inclusion mask itself;
        # on these grids the searched run edges are off in every direction
        # for some query and k, and must be settled by the exact comparison
        features = codec.encode(np.arange(-60, 61)[:, None])
        queries = codec.encode(np.arange(-70, 71)[:, None])[:, 0]
        metric = DistanceMetric("absolute", codec)
        model = KnnClassifier(features, np.eye(features.shape[0]), 1, metric)
        dists = reference_pairwise(metric, queries[:, None], features)
        for k in range(1, 9):
            kth = np.partition(dists, k - 1, axis=1)[:, k - 1]
            expected = (dists <= kth[:, None]).astype(np.float64)
            np.testing.assert_array_equal(model._run_votes(queries, k), expected)

    def test_features_under_a_scale_must_be_integer_encodings(self):
        metric = DistanceMetric("manhattan", tuple_codec(2, 0.5))
        with pytest.raises(ValidationError, match="integer encodings"):
            KnnClassifier(np.array([[0.5, 1.0]]), np.array([[1.0]]), 1, metric)
        KnnClassifier(np.array([[-3.0, 1.0]]), np.array([[1.0]]), 1, metric)

    def test_tallies_must_be_counts(self):
        metric = scalar_metric()
        for tallies in ([[0.5, 1.0]], [[-1.0, 2.0]], [[2.0**53, 0.0]]):
            with pytest.raises(ValidationError):
                KnnClassifier(np.array([[0.0]]), np.array(tallies), 1, metric)


@st.composite
def knn_case(draw, kind):
    """A kNN model and queries over small integer ranges, so distances tie
    often: repeated and collinear features, l below k and l = 1, queries
    outside the features' range and queries equal to a feature.  Under
    ``manhattan`` the features are distinct, as ``knn_train`` builds them,
    and l reaches 80, so integer L1 balls of a few radii fit within l."""
    if kind == "absolute":
        width = 1
        codec = draw(st.sampled_from(list(SCALAR_CODECS.values())))
    else:
        width = draw(st.integers(1, 6))
        codec = tuple_codec(width, draw(st.sampled_from([1.0, 0.5, 0.1, 1 / 3])))
    # a small range makes ties, a wide one inexact differences under the
    # rounding codecs, which the 1-D run edges must settle exactly
    hi = draw(st.integers(1, 6) | st.just(60))
    row = st.lists(st.integers(-hi, hi), min_size=width, max_size=width)
    sizes = st.integers(1, 14)
    l = draw(sizes | st.integers(15, 80) if kind == "manhattan" else sizes)
    if draw(st.booleans()):  # collinear: multiples of one direction
        direction = np.array(draw(row))
        steps = draw(st.lists(st.integers(-3, 3), min_size=l, max_size=l))
        keys = np.array([t * direction for t in steps])
    else:
        keys = np.array(draw(st.lists(row, min_size=l, max_size=l)))
    if kind == "manhattan":
        keys = np.unique(keys, axis=0)
        l = keys.shape[0]
    n_guesses = draw(st.integers(1, 4))
    size = l * n_guesses
    tallies = draw(st.lists(st.integers(0, 3), min_size=size, max_size=size))
    metric = DistanceMetric(kind, codec)
    model = KnnClassifier(
        reference_points(metric, keys),
        np.reshape(tallies, (l, n_guesses)).astype(np.float64),
        draw(st.integers(1, 8)),
        metric,
    )
    wide = st.lists(st.integers(-hi - 3, hi + 3), min_size=width, max_size=width)
    query = st.one_of(wide, st.sampled_from(keys.tolist()))
    queries = draw(st.lists(query, min_size=1, max_size=40))
    return model, np.array(queries)


@pytest.mark.parametrize("kind", METRIC_KINDS)
@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_predict_matches_reference_kernel(kind, data):
    model, queries = data.draw(knn_case(kind))
    chunk = data.draw(st.integers(1, 5))  # several blocks and a short last one
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(knn, "QUERY_CHUNK", chunk)
        got = model.predict(queries)
    np.testing.assert_array_equal(got, reference_knn_predict(model, queries))


@contextlib.contextmanager
def path_spy():
    """Counts the queries the lattice search answers and those the blocked
    (q, l) path answers."""
    seen = {"lattice": 0, "blocked": 0}
    lattice, blocked = KnnClassifier._lattice_votes, KnnClassifier._blocked_guesses

    def lattice_spy(self, queries, k):
        answered, votes = lattice(self, queries, k)
        seen["lattice"] += int(answered.sum())
        return answered, votes

    def blocked_spy(self, queries, k):
        seen["blocked"] += queries.shape[0]
        return blocked(self, queries, k)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(KnnClassifier, "_lattice_votes", lattice_spy)
        patch.setattr(KnnClassifier, "_blocked_guesses", blocked_spy)
        yield seen


def ball_points(dim, r):
    """Integer points within L1 distance r of the origin, by enumeration."""
    axes = np.meshgrid(*[np.arange(-r, r + 1)] * dim)
    return int((sum(np.abs(a) for a in axes) <= r).sum())


def lattice_reach(model, ys):
    """Which queries the ball search answers: those whose k-th nearest row
    lies within the largest radius (at most ``MAX_RADIUS``) whose ball holds
    at most l points.  Brute force over the integer rows."""
    rows = model.features.astype(np.int64)
    l, dim = rows.shape
    radius = 0
    while radius < knn.MAX_RADIUS and ball_points(dim, radius + 1) <= l:
        radius += 1
    k = min(model.k, l)
    kth = [
        np.partition(np.abs(block[:, None, :] - rows[None]).sum(axis=2), k - 1, axis=1)[:, k - 1]
        for block in np.array_split(np.asarray(ys), -(-len(ys) // 64))
    ]
    return np.concatenate(kth) <= radius


def assert_paths(model, queries, lattice, blocked):
    """Equal to the blocked reference, with each path answering as many
    queries as given."""
    queries = np.asarray(queries)
    with path_spy() as seen:
        got = model.predict(queries)
    np.testing.assert_array_equal(got, reference_blocked_knn_predict(model, queries))
    np.testing.assert_array_equal(got, reference_knn_predict(model, queries))
    assert seen == {"lattice": lattice, "blocked": blocked}
    return got


@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_lattice_search_matches_blocked_reference(data):
    model, queries = data.draw(knn_case("manhattan"))
    near = lattice_reach(model, queries)
    assert_paths(model, queries, int(near.sum()), int((~near).sum()))


def manhattan_model(rows, tallies, k, scale=1.0, codec=None):
    codec = tuple_codec(np.shape(rows)[1], scale) if codec is None else codec
    metric = DistanceMetric("manhattan", codec)
    points = reference_points(metric, np.asarray(rows))
    return KnnClassifier(points, np.asarray(tallies, dtype=np.float64), k, metric)


# dp's scale, tenths, one and a scale above one
SCALES = [1 / 303, 0.1, 1.0, 3.0]


@settings(max_examples=100, deadline=None)
@given(data=st.data())
def test_guesses_do_not_depend_on_the_scale(data):
    """The same integer rows, tallies and queries under ``tuple_codec(dim,
    s)`` for each of ``SCALES`` give the same guesses, through the lattice
    and through the blocked path alike."""
    model, queries = data.draw(knn_case("manhattan"))
    dim = queries.shape[1]
    rows, tallies = model.features.astype(np.int64), model.tallies
    guesses = []
    for scale in SCALES:
        scaled = knn_train(rows, tallies, DistanceMetric("manhattan", tuple_codec(dim, scale)))
        guesses.append(scaled.predict(queries))
        scaled._lattice = None  # every query on the blocked path
        guesses.append(scaled.predict(queries))
    for got in guesses[1:]:
        np.testing.assert_array_equal(got, guesses[0])


def far_rows(count, width):
    """Distinct filler rows far from the origin, which only raise l."""
    return [[50 + i] + [50] * (width - 1) for i in range(count)]


class TestLatticeSearch:
    def test_both_paths_in_one_call(self):
        # l = 5 in 1-D: radius 2; the query at 0 has its nearest at 0, the
        # one at 20 at distance 14
        model = manhattan_model([[-2], [0], [1], [3], [6]], np.eye(5), 1)
        assert_paths(model, [[0], [20], [4]], lattice=2, blocked=1)

    @pytest.mark.parametrize("scale", SCALES)
    def test_equal_integer_distances_tie(self, scale):
        # (-5, -3) and (-4, -2) are both one step from (-4, -3); scaled by
        # 0.1 they would measure 0.09999999999999998 and 0.10000000000000003,
        # but the integer rows tie, so with k = 1 both vote
        rows = [[-5, -3], [-4, -2]] + far_rows(3, 2)
        tallies = [[1, 0], [0, 5]] + [[0, 0]] * 3
        model = manhattan_model(rows, tallies, 1, scale=scale)
        dists = model.metric.pairwise(model.features[[0]] + [[1, 0]], model.features)[0, :2]
        assert dists.tolist() == [1.0, 1.0]
        assert assert_paths(model, [[-4, -3]], lattice=1, blocked=0).tolist() == [1]

    def test_radius_at_the_cap_and_one_past_it(self):
        # l = 25 = ball(2, 3): the cap is radius 3; the query at (0, 0) has
        # its nearest at distance 3, the one at (-1, 0) at distance 4
        rows = [[1, 2], [3, 0]] + far_rows(23, 2)
        model = manhattan_model(rows, np.eye(25)[:, :3], 1, scale=0.1)
        assert_paths(model, [[0, 0]], lattice=1, blocked=0)
        assert_paths(model, [[-1, 0]], lattice=0, blocked=1)

    def test_fewer_rows_than_k(self):
        # k = 8 over 3 rows: every row votes; the ball of radius 1 holds them
        model = manhattan_model([[0], [1], [2]], [[1, 0], [0, 1], [0, 1]], 8)
        assert assert_paths(model, [[1], [9]], lattice=1, blocked=1).tolist() == [1, 1]

    def test_single_row(self):
        model = manhattan_model([[3, -4, 5]], [[0, 2]], 1)
        assert_paths(model, [[3, -4, 5], [3, -4, 6], [-30, 0, 0]], lattice=1, blocked=2)

    def test_negative_components_and_queries_outside_the_box(self):
        gen = np.random.default_rng(5)
        rows = np.unique(gen.integers(-9, -1, size=(400, 3)), axis=0)
        model = manhattan_model(rows, gen.integers(0, 4, size=(rows.shape[0], 3)), 3, scale=1 / 3)
        queries = gen.integers(-14, 4, size=(300, 3))
        near = lattice_reach(model, queries)
        outside = ((queries < -9) | (queries > -2)).any(axis=1)
        assert (near & outside).any() and (~near).any()
        assert_paths(model, queries, int(near.sum()), int((~near).sum()))

    def test_key_frame_at_the_limit(self):
        # l = 2 keeps the radius at 0, so the frame is the rows' box:
        # 2**31 x 2**31 reaches KEY_LIMIT, one less in a span does not
        top = 2**31 - 1
        assert 2**31 * 2**31 == KEY_LIMIT
        at_limit = manhattan_model([[0, 0], [top, top]], [[1, 0], [0, 1]], 1)
        assert_paths(at_limit, [[0, 0], [top, top]], lattice=0, blocked=2)
        below = manhattan_model([[0, 0], [top, top - 1]], [[1, 0], [0, 1]], 1)
        assert_paths(below, [[0, 0], [top, top - 1]], lattice=2, blocked=0)

    @pytest.mark.parametrize("dim", [1, 3])
    def test_coordinates_at_the_exact_distance_bound_and_past_it(self, dim):
        # l = 2 keeps the radius at 0, so |c| may reach 2**52 // dim
        bound = 2**52 // dim
        tallies = [[1, 0], [0, 1]]
        inside = [[0] * dim, [bound] + [0] * (dim - 1)]
        past = [[0] * dim, [-bound - 1] + [0] * (dim - 1)]
        assert_paths(manhattan_model(inside, tallies, 1), inside, lattice=2, blocked=0)
        assert_paths(manhattan_model(past, tallies, 1), past, lattice=0, blocked=2)

    def test_codecs_with_a_scale_measure_the_encodings(self):
        # the k-NN reads a codec's scale, never its transform: an offset or
        # a bent transform leaves the guesses of the integer rows
        rows = [[0, 0], [1, 0], [0, 1], [2, 2], [5, 5]]
        tallies = np.eye(5)[:, :2]
        # l = 5: radius 1, so (3, 3), two steps from (2, 2), is not searched
        queries = [[0, 0], [6, 5], [3, 3]]
        plain = assert_paths(manhattan_model(rows, tallies, 1), queries, 2, 1)
        offset = FeatureCodec(2, lambda ys: ys * 0.5 + 0.3, 0.5)
        bent = FeatureCodec(2, lambda ys: np.where(ys > 5, ys + 0.25, ys) * 0.5, 0.5)
        for codec in (offset, bent):
            got = assert_paths(manhattan_model(rows, tallies, 1, codec=codec), queries, 2, 1)
            np.testing.assert_array_equal(got, plain)
        unscaled = grid_codec(3, 3)  # flat cell indices, no scale
        model = manhattan_model([[0], [4], [8]], np.eye(3)[:, :2], 1, codec=unscaled)
        assert_paths(model, [[0], [5]], lattice=0, blocked=2)

    def test_repeated_rows_are_not_searched(self):
        model = manhattan_model([[0, 1], [2, 2], [0, 1]], np.eye(3)[:, :2], 1)
        assert_paths(model, [[0, 1], [2, 2]], lattice=0, blocked=2)

    @pytest.mark.parametrize("kind", ["absolute", "euclidean"])
    def test_other_metrics_never_search(self, kind):
        codec = tuple_codec(1, 1.0)
        metric = DistanceMetric(kind, codec)
        rows = reference_points(metric, np.arange(9)[:, None])
        model = KnnClassifier(rows, np.eye(9)[:, :2], 2, metric)
        with path_spy() as seen:
            model.predict(np.arange(-2, 12)[:, None])
        assert seen["lattice"] == 0

    @pytest.mark.parametrize("m", [2000, 10000, 30000])
    def test_dp_inputs(self, m):
        scenario = build_scenario("dp")
        source = (scenario.prior, scenario.channel)
        train = sample_joint(source, m, stream(0, f"t/knn/lattice/{m}"))
        model = knn_train(*_count_table(train.ys, train.xs, 2), scenario.metric)
        queries = np.unique(sample_joint(source, 4000, stream(1, "t/knn/lattice")).ys, axis=0)
        near = lattice_reach(model, queries)
        assert near.mean() > 0.8
        assert_paths(model, queries, int(near.sum()), int((~near).sum()))


def dp_lattice(m):
    """The lattice of a dp data-method k-NN over m training pairs."""
    scenario = build_scenario("dp")
    train = sample_joint((scenario.prior, scenario.channel), m, stream(0, f"t/knn/occupancy/{m}"))
    return knn_train(*train.counts, scenario.metric)._lattice


def slot_aliases(lat, keys):
    """Those of ``keys`` that find their slot set but are no row's key."""
    stored = lat.keys[:-1]
    return keys[lat.occupied[lat.slots(keys)] & ~np.isin(keys, stored)]


def assert_finds_as_sorted_search(lat, wanted):
    got_flat, got_rows = lat.find(wanted)
    want_flat, want_rows = reference_lattice_find(lat, wanted)
    np.testing.assert_array_equal(got_flat, want_flat)
    np.testing.assert_array_equal(got_rows, want_rows)
    return got_flat


class TestOccupancyPrefilter:
    @pytest.mark.parametrize("l", [1, 2, 5, 16, 17, 300])
    def test_table_size_and_every_row_key_set(self, l):
        rows = np.stack([np.arange(l), np.arange(l) % 7], axis=1)
        lat = manhattan_model(rows, np.ones((l, 2)), 1)._lattice
        size = lat.occupied.size
        assert size >= 16 * l and size // 2 < 16 * l and size & (size - 1) == 0
        assert lat.occupied[lat.slots(lat.keys[:-1])].all()
        assert lat.occupied.sum() <= l

    @pytest.mark.parametrize("m", [2000, 10000])
    def test_dp_keys_found_as_by_the_sorted_search(self, m):
        lat = dp_lattice(m)
        stored = lat.keys[:-1]
        gen = np.random.default_rng(m)
        inside = gen.integers(0, lat.frame.size, 20000)
        aliases = slot_aliases(lat, np.arange(200000))
        negative = -np.arange(1, 200000)
        negative_aliases = slot_aliases(lat, negative)
        assert aliases.size > 100 and negative_aliases.size > 100
        extremes = np.array(
            [np.iinfo(np.int64).min, -1, 0, lat.frame.size, np.iinfo(np.int64).max - 1]
        )
        wanted = np.concatenate(
            [stored, stored + 1, inside, aliases, negative[::97], negative_aliases, extremes]
        )
        gen.shuffle(wanted)
        flat = assert_finds_as_sorted_search(lat, wanted[: wanted.size // 64 * 64].reshape(64, -1))
        assert flat.size >= stored.size

    @settings(max_examples=100, deadline=None)
    @given(data=st.data())
    def test_any_keys_found_as_by_the_sorted_search(self, data):
        width = data.draw(st.integers(1, 4))
        rows = np.unique(
            np.array(
                data.draw(
                    st.lists(
                        st.lists(st.integers(-6, 6), min_size=width, max_size=width),
                        min_size=1,
                        max_size=40,
                    )
                )
            ),
            axis=0,
        )
        lat = manhattan_model(rows, np.ones((rows.shape[0], 2)), 1)._lattice
        stored = lat.keys[:-1]
        near = st.tuples(st.sampled_from(stored.tolist()), st.integers(-3, 3)).map(sum)
        anywhere = st.integers(np.iinfo(np.int64).min, np.iinfo(np.int64).max - 1)
        wanted = data.draw(st.lists(near | anywhere, min_size=1, max_size=60))
        assert_finds_as_sorted_search(lat, np.array(wanted, dtype=np.int64))


class TestShell:
    @pytest.mark.parametrize("dim", [1, 2, 3, 4, 5])
    def test_tables_are_the_shells_in_key_order(self, dim):
        gen = np.random.default_rng(dim)
        for r in range(knn.MAX_RADIUS + 1):
            table = knn._shell(dim, r)
            assert knn._shell(dim, r) is table and not table.flags.writeable
            size = knn._ball_size(dim, r) - knn._ball_size(dim, r - 1)
            assert table.shape == (size, dim)
            assert (np.abs(table).sum(axis=1) == r).all()
            # distinct, and in lexicographic order
            np.testing.assert_array_equal(np.unique(table, axis=0), table)
            reference = reference_shell(dim, r)
            np.testing.assert_array_equal(np.unique(reference, axis=0), table)
            for extra in (np.zeros(dim, dtype=np.int64), gen.integers(0, 4, dim)):
                lows = gen.integers(-9, 9, dim)
                frame = _key_frame(lows, lows + 4 * r + extra)
                np.testing.assert_array_equal(
                    table @ frame.strides, np.sort(reference @ frame.strides)
                )


@pytest.mark.parametrize("kind", ["euclidean", "manhattan"])
@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_pairwise_matches_reference_distances(kind, data):
    """Bit-identical to the (q, l, dim) sum for up to seven dimensions, the
    range over which ``.sum(axis=2)`` adds left to right."""
    width = data.draw(st.integers(1, 7))
    rows = st.lists(
        st.lists(st.integers(-50, 50), min_size=width, max_size=width),
        min_size=1,
        max_size=8,
    )
    queries, points = np.array(data.draw(rows)), np.array(data.draw(rows))
    codec = tuple_codec(width, 1 / 7)
    metric = DistanceMetric(kind, codec)
    q, p = codec.encode(queries), codec.encode(points)
    np.testing.assert_array_equal(metric.pairwise(q, p), reference_pairwise(metric, q, p))


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
        config = DistanceMetric("manhattan", codec)
        model = trained([0, 1], [[0, 0], [10, 10]], [1, 1], metric=config)
        got = model.predict(np.array([[1, 2], [9, 8]]))
        assert got.tolist() == [0, 1]
