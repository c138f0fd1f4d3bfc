"""Modified k-NN: k rule, tie inclusion, weighted voting.

Every codec's observables are measured as its integer points, so equal
distances tie exactly whatever the codec's float map; the 1-D run search is
checked against inclusion sets counted in Python integers, and an index
whose points or queries reach distances past float64's exact integers
raises instead of answering.  The query
kernels (a (q, l) distance buffer filled a dimension at a time, a
sorted-point window for the 1-D metric and the integer L1 ball search)
are checked against ``oracles.reference_knn_predict``, every (q, l)
distance through a (q, l, dim) temporary, a partition for the k-th and the
included rows' tallies summed by one product.  The ball search is also
checked against ``oracles.reference_blocked_knn_predict``, the blocked
kernel it falls back to, while a spy counts the queries each path answers;
its key lookup (a row table of hashed keys, with a sorted search for the
slots that rows' keys share) against a sorted search of every key,
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
# neighbouring integers land one float apart or on the same float, none of
# which the k-NN, measuring the integer points, may see; keyed by a label of
# their scale and offset
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

    @pytest.mark.parametrize(
        "points, queries",
        [
            # repeated gaps of 1 to 3, so distances tie on both sides
            (np.cumsum([1, 2, 3, 1, 1, 3, 2, 2, 1] * 5) - 40, np.arange(-50, 51)),
            # points 2**53 apart, the most the index takes: q -/+ kth reaches
            # 3 * 2**52, past float64's exact integers
            (
                np.array([-(2**52), 1 - 2**52, -1, 0, 3, 2**52 - 2, 2**52]),
                np.array([-(2**52), -(2**51), 1, 2, 2**51 - 1, 2**52 - 1, 2**52]),
            ),
        ],
    )
    def test_one_dimensional_runs_are_the_exact_ties(self, points, queries):
        # one guess per point, so the votes are the inclusion mask itself:
        # for every k, exactly the points whose integer distance is at most
        # the k-th, counted in Python integers
        model = knn_train(points[:, None], np.eye(points.size), scalar_metric())
        assert model._sorted is not None
        for k in range(1, points.size + 1):
            expected = []
            for q in queries.tolist():
                dists = [abs(f - q) for f in points.tolist()]
                kth = sorted(dists)[k - 1]
                expected.append([float(d <= kth) for d in dists])
            got = model._run_votes(queries.astype(np.float64), k)
            np.testing.assert_array_equal(got, expected)

    def test_runs_at_the_exact_distance_bound(self):
        # the index spans 2**53 - 2 and a query at -7 extends it to 2**53:
        # the run search answers, equal to the reference
        points = np.array([[-5], [0], [2**53 - 7]])
        model = knn_train(points, np.eye(3), scalar_metric())
        queries = np.array([[-3], [1], [2**52], [2**53 - 8], [-7], [2**53 - 7]])
        np.testing.assert_array_equal(model.predict(queries), [0, 1, 2, 2, 0, 2])
        np.testing.assert_array_equal(model.predict(queries), reference_knn_predict(model, queries))
        with pytest.raises(ValidationError, match="exact integers"):
            model.predict(np.array([[-8]]))  # a span of 2**53 + 1

    @pytest.mark.parametrize("codec", [scalar_codec(0.1), scalar_codec(1 / 1599), scalar_codec()])
    def test_scalar_codecs_tie_exactly(self, codec):
        # 1 and 5 are both 2 from 3; scaled by 0.1, 0.5 - 0.3 and 0.3 - 0.1
        # round apart, but the integer points tie, so with k = 1 both vote
        tallies = np.array([[3.0, 0.0], [0.0, 2.0]])
        model = knn_train(np.array([[1], [5]]), tallies, DistanceMetric("absolute", codec))
        assert model.k == 1
        assert model.predict(np.array([[3]])).tolist() == [0]

    def test_grid_codec_ties_exactly(self):
        # location's cells 23 = (1, 3) and 42 = (2, 2) both lie at squared
        # distance 5 from cell 1 = (0, 1); divided by 20 they round apart
        metric = build_scenario("location").metric
        model = knn_train(np.array([[23], [42]]), np.array([[2.0, 0.0], [0.0, 3.0]]), metric)
        assert model.k == 1
        assert model.predict(np.array([[1]])).tolist() == [1]

    def test_features_must_be_integer_points(self):
        for metric in (scalar_metric(), DistanceMetric("manhattan", tuple_codec(2, 0.5))):
            width = metric.codec.dim
            with pytest.raises(ValidationError, match="integer points"):
                KnnClassifier(np.full((1, width), 0.5), np.array([[1.0]]), 1, metric)
            KnnClassifier(np.full((1, width), -3.0), np.array([[1.0]]), 1, metric)

    @pytest.mark.parametrize(
        "kind, rows",
        [
            # the squared distances a**2 and a**2 + 1, a = 225015001, round
            # to one float
            ("euclidean", [[225015001, 0], [225014999, 30001]]),
            # the L1 distances 2**53 and 2**53 + 1 round to one float
            ("manhattan", [[2**53, 0], [2**53 - 1, 2]]),
        ],
    )
    def test_distances_past_exact_floats_raise(self, kind, rows):
        # the exact nearest row of (0, 0) is the first, guess 0; with
        # rounded distances both rows tie and the second's 5 votes won
        metric = DistanceMetric(kind, tuple_codec(2, 1.0))
        with pytest.raises(ValidationError, match="exact integers"):
            model = knn_train(np.array(rows), np.array([[1.0, 0.0], [0.0, 5.0]]), metric)
            assert model.k == 1
            model.predict(np.array([[0, 0]]))

    @pytest.mark.parametrize(
        "kind, point, query",
        [
            ("absolute", [-2], [2**53 - 2]),
            ("manhattan", [0, 0], [2**52, -(2**52)]),
            ("euclidean", [0, 0], [2**26, 2**26]),  # squared: 2**52 + 2**52
        ],
    )
    def test_queries_checked_at_the_exact_distance_bound(self, kind, point, query):
        # a query at distance 2**53 from the one point is answered, one a
        # unit farther raises; no coordinate reaches 2**53
        codec = scalar_codec(1.0) if len(point) == 1 else tuple_codec(2, 1.0)
        model = knn_train(np.array([point]), np.ones((1, 1)), DistanceMetric(kind, codec))
        assert model.predict(np.array([query])).tolist() == [0]
        with pytest.raises(ValidationError, match="exact integers"):
            model.predict(np.array([query]) + np.eye(len(point), dtype=np.int64)[:1])

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


@pytest.mark.parametrize("kind", ["absolute", "manhattan"])
@settings(max_examples=100, deadline=None)
@given(data=st.data())
def test_guesses_do_not_depend_on_the_float_map(kind, data):
    """The same integer rows, tallies and queries give the same guesses
    under every ``SCALAR_CODECS`` codec in 1-D, and under ``tuple_codec(dim,
    s)`` for each of ``SCALES`` in ``manhattan``, through the run or lattice
    search and through the blocked path alike."""
    model, queries = data.draw(knn_case(kind))
    dim = queries.shape[1]
    rows, tallies = model.features.astype(np.int64), model.tallies
    if kind == "absolute":
        codecs = list(SCALAR_CODECS.values())
    else:
        codecs = [tuple_codec(dim, scale) for scale in SCALES]
    guesses = []
    for codec in codecs:
        scaled = knn_train(rows, tallies, DistanceMetric(kind, codec))
        guesses.append(scaled.predict(queries))
        scaled._sorted = scaled._lattice = None  # every query on the blocked path
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
        # l = 2 keeps the radius at 0, so the frame is the rows' box; at an
        # L1 distance of 2**53 both rows are searched, one more raises
        tallies = [[1, 0], [0, 1]]
        far = [2**53 - 1] + [0] * (dim - 1)
        inside = [[-1] + [0] * (dim - 1), far]
        assert_paths(manhattan_model(inside, tallies, 1), inside, lattice=2, blocked=0)
        with pytest.raises(ValidationError, match="exact integers"):
            manhattan_model([[-2] + [0] * (dim - 1), far], tallies, 1)

    def test_every_codec_searches_its_integer_points(self):
        # the k-NN reads a codec's integer points, never its features: an
        # offset, a divisor or a grid's flat cell index leaves the lattice
        # search and the guesses of the integer rows
        rows = [[0, 0], [1, 0], [0, 1], [2, 2], [5, 5]]
        tallies = np.eye(5)[:, :2]
        # l = 5: radius 1, so (3, 3), two steps from (2, 2), is not searched
        queries = [[0, 0], [6, 5], [3, 3]]
        plain = assert_paths(manhattan_model(rows, tallies, 1), queries, 2, 1)
        shifted = FeatureCodec(2, scale=0.5, offset=0.3, divisor=7.0)
        got = assert_paths(manhattan_model(rows, tallies, 1, codec=shifted), queries, 2, 1)
        np.testing.assert_array_equal(got, plain)
        # cell r * 7 + c of a 7 x 7 grid is (r, c)
        cells = [[r * 7 + c] for r, c in rows]
        model = manhattan_model(cells, tallies, 1, codec=grid_codec(7, 7))
        got = assert_paths(model, [[r * 7 + c] for r, c in queries], 2, 1)
        np.testing.assert_array_equal(got, plain)

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
    """Those of ``keys`` whose slot is not empty but that are no row's key."""
    stored = lat.keys[:-1]
    return keys[(lat.occupied[lat.slots(keys)] != knn.EMPTY) & ~np.isin(keys, stored)]


def assert_finds_as_sorted_search(lat, wanted):
    got_flat, got_rows = lat.find(wanted)
    want_flat, want_rows = reference_lattice_find(lat, wanted)
    np.testing.assert_array_equal(got_flat, want_flat)
    np.testing.assert_array_equal(got_rows, want_rows)
    return got_flat


def assert_row_table(lat, l):
    """The table has the least power-of-two number of slots >= 16 l; each
    row's key lies in a slot holding that row or ``SHARED``, ``SHARED``
    marks exactly the slots of two or more row keys, and every slot of no
    row key is ``EMPTY``."""
    size = lat.occupied.size
    assert size >= 16 * l and size // 2 < 16 * l and size & (size - 1) == 0
    assert lat.occupied.dtype == np.int32
    np.testing.assert_array_equal(lat.row_keys[lat.order], lat.keys[:-1])
    slots = lat.slots(lat.row_keys)
    entries = lat.occupied[slots]
    assert ((entries == np.arange(l)) | (entries == knn.SHARED)).all()
    sharers = np.bincount(slots, minlength=size)
    np.testing.assert_array_equal(
        np.flatnonzero(lat.occupied == knn.SHARED), np.flatnonzero(sharers >= 2)
    )
    np.testing.assert_array_equal(
        np.flatnonzero(lat.occupied != knn.EMPTY), np.flatnonzero(sharers)
    )
    assert (lat.occupied != knn.EMPTY).sum() <= l


class TestOccupancyPrefilter:
    @pytest.mark.parametrize("l", [1, 2, 5, 16, 17, 300])
    def test_table_size_and_every_row_key_set(self, l):
        rows = np.stack([np.arange(l), np.arange(l) % 7], axis=1)
        assert_row_table(manhattan_model(rows, np.ones((l, 2)), 1)._lattice, l)

    @pytest.mark.parametrize("m", [2000, 10000])
    def test_dp_keys_found_as_by_the_sorted_search(self, m):
        lat = dp_lattice(m)
        stored = lat.keys[:-1]
        assert_row_table(lat, stored.size)
        # some rows' keys share a slot, so the sorted search runs
        assert (lat.occupied == knn.SHARED).any()
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
        wanted = wanted[: wanted.size // 64 * 64]
        shared = lat.occupied[lat.slots(wanted)] == knn.SHARED
        assert np.isin(wanted[shared], stored).any() and not np.isin(wanted[shared], stored).all()
        flat = assert_finds_as_sorted_search(lat, wanted.reshape(64, -1))
        assert flat.size >= stored.size

    @pytest.mark.parametrize("dim", [1, 2, 3])
    def test_rows_sharing_a_slot_are_found_and_aliases_turned_away(self, dim):
        """Two rows whose keys share a slot, found by searching the slots of
        every point of a box whose corners are rows: both are found, and
        other keys of that slot are not."""
        side = {1: 80, 2: 10, 3: 5}[dim]  # more points than the 64 slots of l = 4
        corners = np.stack([np.zeros(dim, dtype=np.int64), np.full(dim, side - 1)])
        # a lattice over the corners and two more rows has the frame and the
        # slots of any such lattice, as it has the same box and l
        box = np.stack(np.meshgrid(*[np.arange(side)] * dim, indexing="ij"), -1).reshape(-1, dim)
        box = box[1:-1]  # the corners are first and last
        probe = manhattan_model(np.concatenate([corners, box[:2]]), np.ones((4, 2)), 1)._lattice
        slots = probe.slots(probe.frame.keys(box))
        order = np.argsort(slots, kind="stable")
        first = np.flatnonzero(slots[order][1:] == slots[order][:-1])[0]
        pair = box[order[first : first + 2]]
        rows = np.concatenate([corners, pair])
        lat = manhattan_model(rows, np.ones((4, 2)), 1)._lattice
        assert lat.shift == probe.shift
        np.testing.assert_array_equal(lat.frame.keys(box), probe.frame.keys(box))
        assert_row_table(lat, 4)
        keys = lat.frame.keys(pair)
        (slot,) = np.unique(lat.slots(keys))
        assert lat.occupied[slot] == knn.SHARED
        near = np.arange(-(2**20), 2**20)
        aliases = near[(lat.slots(near) == slot) & ~np.isin(near, lat.keys[:-1])]
        assert aliases.size > 100
        wanted = np.concatenate([aliases[:50], keys[::-1], aliases[50:]])
        flat, found = lat.find(wanted)
        np.testing.assert_array_equal(flat, [50, 51])
        np.testing.assert_array_equal(found, [3, 2])
        assert_finds_as_sorted_search(lat, wanted)
        assert_finds_as_sorted_search(lat, np.concatenate([lat.keys[:-1], aliases]))

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
    """Bit-identical to the (q, l, dim) sum, of absolute differences or of
    squares, for up to seven dimensions, the range over which
    ``.sum(axis=2)`` adds left to right."""
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
    diff = q[:, None, :] - p[None, :, :]
    expected = np.abs(diff).sum(axis=2) if kind == "manhattan" else (diff * diff).sum(axis=2)
    np.testing.assert_array_equal(metric.pairwise(q, p), expected)


class TestMetrics:
    def test_euclidean_and_manhattan_disagree_when_they_should(self):
        codec = tuple_codec(2, 1.0)
        e = DistanceMetric("euclidean", codec)
        m = DistanceMetric("manhattan", codec)
        q = np.array([[0.0, 0.0]])
        pts = np.array([[3.0, 4.0], [6.0, 0.0]])
        # euclidean distances 5 and 6, squared
        np.testing.assert_array_equal(e.pairwise(q, pts), [[25.0, 36.0]])
        np.testing.assert_array_equal(m.pairwise(q, pts), [[7.0, 6.0]])

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
