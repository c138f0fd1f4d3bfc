"""Test-only oracles: brute-force and finite-difference references that the
package's exact and analytic computations are checked against, the ideal
joints of the two pre-processing theorems, the strategy tables the tests
score, and the straightforward implementations that the package's fast
paths must match bit for bit: distinct rows by sorting, tallies by
``np.add.at``, the k-NN scoring every (query, observable) pair, the
lattice search's integer L1 shells built afresh in a sorting order of
their own and its keys found by a sorted search alone, the data
pre-processing listed per (guess, secret, observable) through a dense
matrix and then merged, the data method's k-NN tallies from that listing,
CDF inversion in the uniforms' own order, rationalization through an
entry-to-value index, the location matrices evaluated on every cell pair,
the channel method's pairs merged into weighted entries, the channel
pre-processing's rows normalized into fresh arrays, the network's
forward pass with fresh temporaries and its training step on a dense
matrix of the batch's draws per distinct observable among them.  The
training step run once per draw is kept as a check of the distinct-row
step that sums in another order.  The references take
plain weighted entries (``Entries``); ``table_entries`` lists a
(guess, observable) table's positive cells in the order the MLP reads them
and ``expanded_entries`` writes each entry of weight k as k copies.

They are kept out of the package because no command, scenario or pipeline
uses them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import NamedTuple

import numpy as np

from gleak.core import (
    Alphabet,
    Channel,
    GainFunction,
    NumericalError,
    PairTable,
    Prior,
    SampleSet,
    ValidationError,
    _check_triple,
    _freeze,
    _require,
    _score_matrix,
    sample_prior,
)
from gleak.estimation import TablePredictor
from gleak.knn import DistanceMetric, KnnClassifier, k_for
from gleak.mlp import (
    ADAM_BETA1,
    ADAM_BETA2,
    ADAM_EPS,
    MlpClassifier,
    MlpConfig,
    TrainingDiverged,
    _Network,
)
from gleak.preprocess import (
    EXPANSION_CAP,
    ChannelPreprocDerivation,
    SNAP_DENOMINATOR,
    SNAP_TOL,
    _renormalize,
    _split,
    rationalize_gain,
)
from gleak.rng import Stream
from gleak.scenarios.location import ALPHA, CELL_M, GAMMA, GRID_SIDE


class Entries(NamedTuple):
    """(guess, observable, weight) entries over ``guesses``, unchecked: entry
    i is ``weights[i]`` copies of the pair (``ws[i]``, ``ys[i]``)."""

    guesses: Alphabet
    ws: np.ndarray
    ys: np.ndarray
    weights: np.ndarray


def table_entries(table: PairTable) -> Entries:
    """The positive cells of a (guess, observable) table, in the order the
    MLP's batch draw and ``leak preprocess`` read them: guess-major, then in
    the order of the table's distinct observables; int64 weights."""
    ws, rows = np.nonzero(np.asarray(table.tallies).T)
    weights = np.asarray(table.tallies)[rows, ws].astype(np.int64)
    return Entries(table.guesses, ws, np.asarray(table.distinct)[rows], weights)


def entries_table(entries: Entries) -> PairTable:
    """The (guess, observable) table of weighted entries: their weights
    summed per pair, over their distinct observables in sorted order."""
    distinct, inverse = reference_unique_rows(np.asarray(entries.ys), return_inverse=True)
    tallies = np.zeros((distinct.shape[0], entries.guesses.size))
    np.add.at(tallies, (inverse, np.asarray(entries.ws)), np.asarray(entries.weights))
    return PairTable(entries.guesses, distinct, tallies)


def expanded_entries(entries: Entries) -> Entries:
    """Each entry of weight k as k physical copies of weight 1, in order."""
    ones = np.ones(int(entries.weights.sum()), dtype=np.int64)
    return Entries(
        entries.guesses,
        np.repeat(entries.ws, entries.weights),
        np.repeat(entries.ys, entries.weights, axis=0),
        ones,
    )


def fixed_strategy(mapping) -> TablePredictor:
    """The strategy y -> mapping[y]: a decision table keyed by output index."""
    mapping = np.asarray(mapping)
    return TablePredictor(np.arange(mapping.size)[:, None], mapping, fallback=0)


def optimal_strategy(
    prior: Prior, channel: Channel, gain: GainFunction
) -> TablePredictor:
    """Per-observable argmax_w sum_x pi_x C[x,y] g(w,x); lowest index on ties."""
    _check_triple(prior, channel, gain)
    scores = _score_matrix(prior, channel, gain)
    return fixed_strategy(np.argmax(scores, axis=0))


def reference_empirical_functional(predictor, validation, gain) -> float:
    """The per-row path: predict on every validation row, then the mean."""
    guesses = np.asarray(predictor.predict(validation.ys), dtype=np.int64)
    return float(gain.matrix[guesses, validation.xs].mean()) - gain.shift


REFERENCE_CHUNK = 256  # queries per (q, l) distance block


def reference_pairwise(metric, queries: np.ndarray, points: np.ndarray) -> np.ndarray:
    """(q, dim) x (l, dim) -> (q, l) distances through a (q, l, dim) difference."""
    if metric.kind == "absolute":
        return np.abs(queries[:, 0][:, None] - points[:, 0][None, :])
    diff = queries[:, None, :] - points[None, :, :]
    if metric.kind == "manhattan":
        return np.abs(diff).sum(axis=2)
    return np.sqrt((diff * diff).sum(axis=2))


def reference_points(metric, ys: np.ndarray) -> np.ndarray:
    """What the k-NN measures: the codec's integer points, as floats."""
    return np.array(metric.codec.points(ys), dtype=np.float64)


def reference_knn_predict(model, ys: np.ndarray) -> np.ndarray:
    """The k-NN vote over every indexed observable: all (q, l) distances, a
    partition for the k-th, and the included rows' tallies summed by one
    product; ties at the k-th distance are all included, the argmax takes
    the lowest guess index."""
    queries = reference_points(model.metric, ys)
    out = np.empty(queries.shape[0], dtype=np.int64)
    k = min(model.k, model.n_indexed)
    for start in range(0, queries.shape[0], REFERENCE_CHUNK):
        block = queries[start : start + REFERENCE_CHUNK]
        dists = reference_pairwise(model.metric, block, model.features)
        kth = np.partition(dists, k - 1, axis=1)[:, k - 1]
        included = dists <= kth[:, None]  # all ties at the k-th distance
        votes = included.astype(np.float64) @ model.tallies
        out[start : start + REFERENCE_CHUNK] = np.argmax(votes, axis=1)
    return out


def reference_shell(dim: int, r: int) -> np.ndarray:
    """The (n, dim) integer offsets of L1 norm exactly r, one coordinate at a
    time: each prefix with budget b left takes every value in [-b, b], and
    the last coordinate takes -b and +b.  The rows are not in key order;
    the search sorted their keys on every predict."""
    rows = np.zeros((1, 0), dtype=np.int64)
    left = np.array([r], dtype=np.int64)
    for _ in range(dim - 1):
        reach = 2 * left + 1
        parent = np.repeat(np.arange(left.size), reach)
        value = np.arange(parent.size) - np.repeat(np.cumsum(reach) - reach, reach) - left[parent]
        rows = np.column_stack([rows[parent], value])
        left = left[parent] - np.abs(value)
    two = left > 0
    return np.concatenate(
        [np.column_stack([rows, -left]), np.column_stack([rows[two], left[two]])]
    )


def reference_lattice_find(lattice, wanted: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The flat positions in ``wanted`` of the lattice's row keys and those
    rows, by one sorted search of every key (the keys end in a sentinel
    above every key, so each search lands on an entry)."""
    pos = np.searchsorted(lattice.keys, wanted)
    flat = np.flatnonzero(lattice.keys[pos] == wanted)
    return flat, lattice.order[pos.ravel()[flat]]


BLOCKED_CHUNK = 32  # queries per (q, l) distance block


def reference_blocked_knn_predict(model, ys: np.ndarray) -> np.ndarray:
    """The k-NN query kernel before the lattice search: every query, under
    ``euclidean`` and ``manhattan``, scored against every indexed
    observable by ``pairwise`` in blocks of ``BLOCKED_CHUNK``."""
    queries = reference_points(model.metric, ys)
    k = min(model.k, model.n_indexed)
    if model.metric.kind == "absolute":
        return np.argmax(model._run_votes(queries[:, 0], k), axis=1)
    out = np.empty(queries.shape[0], dtype=np.int64)
    for start in range(0, queries.shape[0], BLOCKED_CHUNK):
        block = queries[start : start + BLOCKED_CHUNK]
        dists = model.metric.pairwise(block, model.features)
        kth = np.partition(dists, k - 1, axis=1)[:, k - 1]
        # 1.0 where a row is within the k-th distance (all ties included),
        # written over the distances; then each guess's vote is one dense
        # product over every row, included or not
        included = np.less_equal(dists, kth[:, None], out=dists)
        out[start : start + BLOCKED_CHUNK] = np.argmax(included @ model.tallies, axis=1)
    return out


@dataclass(frozen=True, eq=False)
class DataPreprocDerivation:
    """Ideal counterpart of data pre-processing: U, alpha, xi, E.

    U(w, y) = sum_x pi_x C[x, y] g(w, x) is the ideal copy proportion,
    alpha its total mass, xi the row marginal of U/alpha, and E the
    normalized rows, so that V_g(pi, C) = alpha * V_gid(xi, E).
    """

    U: np.ndarray
    alpha: float
    xi: Prior
    E: Channel


def ideal_derivation(
    prior: Prior, channel: Channel, gain: GainFunction
) -> DataPreprocDerivation:
    """Ideal joint of data pre-processing (U, alpha, xi, E).

    Computed from the stored non-negative gain; when the gain was shifted at
    construction the identity alpha * V_gid(xi, E) = V_g(pi, C) holds for the
    shifted gain, i.e. equals the original-unit value plus the shift.
    """
    _check_triple(prior, channel, gain)
    U = _score_matrix(prior, channel, gain)
    alpha, xi, E = _split(U, gain.guesses, channel.output)
    return DataPreprocDerivation(U=_freeze(U), alpha=alpha, xi=xi, E=E)


def reference_channel_preprocess(prior: Prior, gain: GainFunction) -> ChannelPreprocDerivation:
    """(beta, tau, R) with R's rows in fresh arrays: a uniform buffer that
    the positive rows of the scores are divided into, then renormalized
    into another, leaving the scores as they were."""
    _require(gain.secrets == prior.alphabet, "gain secrets != prior alphabet")
    scores = gain.matrix * prior.probs[None, :]
    mass = math.fsum(scores[scores != 0.0].tolist())
    if mass <= 0.0:
        raise ValidationError("degenerate input: pi_x * g(w,x) is zero everywhere")
    row_sums = scores.sum(axis=1)
    rows = np.full_like(scores, 1.0 / prior.alphabet.size)
    np.divide(scores, row_sums[:, None], out=rows, where=row_sums[:, None] > 0.0)
    marginal = row_sums / mass
    tau = Prior(gain.guesses, marginal / marginal.sum())
    R = Channel(gain.guesses, prior.alphabet, rows / rows.sum(axis=1, keepdims=True))
    return ChannelPreprocDerivation(beta=mass, tau=tau, R=R)


def compose(r: Channel, c: Channel) -> Channel:
    """Matrix product of two channels: (RC)[w, y] = sum_x R[w,x] C[x,y]."""
    _require(r.output == c.input, "inner alphabets do not match")
    return Channel(r.input, c.output, _renormalize(r.rows @ c.rows))


def enumerate_strategies_vulnerability(
    prior: Prior, channel: Channel, gain: GainFunction, cap: int = 10**6
) -> float:
    """Brute-force max of strategy_gain over all |W|^|Y| total strategies.

    Test oracle for posterior_vulnerability; refuses instances with more
    than ``cap`` strategies.
    """
    _check_triple(prior, channel, gain)
    n_w = gain.guesses.size
    n_y = channel.output.size
    if n_w**n_y > cap:
        raise ValidationError(
            f"strategy space {n_w}^{n_y} exceeds enumeration cap {cap}"
        )
    joint = prior.probs[:, None] * channel.rows
    contrib = gain.matrix @ joint  # (W, Y): per-observable contribution
    # Outer-sum expansion: totals holds the value of every strategy prefix.
    totals = np.zeros(1)
    for y in range(n_y):
        totals = (totals[:, None] + contrib[:, y][None, :]).ravel()
    return float(totals.max()) - gain.shift


def reference_unique_rows(
    a: np.ndarray, return_inverse: bool = False, return_counts: bool = False
):
    """Distinct rows as ``np.unique(a, axis=0, ...)`` returns them: a single
    column through ``np.unique`` on the column, wider rows through one
    ``np.lexsort`` and a mask of where each run of equal rows starts."""
    a = np.asarray(a)
    if a.shape[1] == 1:
        out = np.unique(a[:, 0], return_inverse=return_inverse, return_counts=return_counts)
        if not (return_inverse or return_counts):
            return out[:, None]
        return (out[0][:, None], *out[1:])
    order = np.lexsort(a.T[::-1])  # the last key sorts first: column 0 leads
    ordered = a[order]
    starts = np.ones(ordered.shape[0], dtype=bool)
    starts[1:] = (ordered[1:] != ordered[:-1]).any(axis=1)
    out = [ordered[starts]]
    if return_inverse:
        inverse = np.empty(order.size, dtype=np.intp)
        inverse[order] = np.cumsum(starts) - 1
        out.append(inverse)
    if return_counts:
        out.append(np.diff(np.append(np.flatnonzero(starts), order.size)))
    return out[0] if len(out) == 1 else tuple(out)


def reference_inverse_cdf(probs: np.ndarray, u: np.ndarray) -> np.ndarray:
    """The number of CDF entries <= u * cdf[-1], capped at the last index,
    searched in the uniforms' own order."""
    cum = np.cumsum(probs)
    idx = np.searchsorted(cum, u * cum[-1], side="right")
    return np.minimum(idx, probs.size - 1)


def reference_sample_preprocessed_pairs(
    deriv: ChannelPreprocDerivation, channel, m: int, stream: Stream
) -> Entries:
    """The channel method's training pairs as weighted entries: m draws
    w ~ tau, x ~ R[w], y ~ C[x], with duplicate (w, y) pairs merged into
    weights."""
    _require(m >= 1, "m must be >= 1")
    gen = stream.gen
    ws = sample_prior(deriv.tau, m, gen)
    xs = deriv.R.sample(ws, gen)[:, 0]
    ys = channel.sample(xs, gen)
    combined = np.concatenate([ws[:, None], ys], axis=1)
    distinct, counts = reference_unique_rows(combined, return_counts=True)
    return Entries(deriv.tau.alphabet, distinct[:, 0], distinct[:, 1:], counts)


def reference_knn_train(data: Entries, metric: DistanceMetric) -> KnnClassifier:
    """The k-NN index with its tallies accumulated one entry at a time."""
    distinct, inverse = reference_unique_rows(data.ys, return_inverse=True)
    l = distinct.shape[0]
    tallies = np.zeros((l, data.guesses.size))
    np.add.at(tallies, (inverse, data.ws), data.weights.astype(np.float64))
    return KnnClassifier(reference_points(metric, distinct), tallies, k_for(l), metric)


def reference_data_knn_train(
    train: SampleSet, gain: GainFunction, metric: DistanceMetric
) -> tuple[KnnClassifier, dict]:
    """The data method's k-NN fit on a drawn training set by the expansion:
    rationalize the gain, expand the set into one entry per (w, x, y), then
    tally the expanded entries per distinct observable.  Returns the
    classifier and the fit's report details."""
    rational, scale = rationalize_gain(gain)
    data = reference_pair_expansion(train, rational)
    distinct, inverse = reference_unique_rows(data.ys, return_inverse=True)
    l, n_guesses = distinct.shape[0], data.guesses.size
    tallies = np.bincount(
        inverse * n_guesses + data.ws, weights=data.weights, minlength=l * n_guesses
    ).reshape(l, n_guesses)
    features = reference_points(metric, distinct)
    details = {
        "rationalize_scale": scale,
        "descale": "not needed: evaluation uses the original gain",
        "expanded_total_weight": int(data.weights.sum()),
        "expansion_factor": int(data.weights.sum()) / train.size,
    }
    return KnnClassifier(features, tallies, k_for(l), metric), details


def reference_frequentist_predictor(train: SampleSet, gain: GainFunction) -> TablePredictor:
    """The frequentist decision table with its (y, x) counts accumulated one
    pair at a time.  An observable whose scores are all zero is left out of
    the table, to take the fallback; raises if every one is."""
    y_distinct, y_inverse = reference_unique_rows(train.ys, return_inverse=True)
    cond_counts = np.zeros((y_distinct.shape[0], train.secrets.size))
    np.add.at(cond_counts, (y_inverse, train.xs), 1.0)
    scores = cond_counts @ gain.matrix.T
    kept = scores.any(axis=1)
    if not kept.any():
        raise ValidationError("gain is zero on every sampled secret")
    x_mode = int(np.argmax(np.bincount(train.xs, minlength=train.secrets.size)))
    fallback = int(np.argmax(gain.matrix[:, x_mode]))
    return TablePredictor(y_distinct[kept], np.argmax(scores[kept], axis=1), fallback)


def reference_pair_expansion(train: SampleSet, gain: GainFunction) -> Entries:
    """Data pre-processing through the dense (W, P) weight matrix over the
    distinct (x, y) pairs: one entry per (w, x, y), its non-zeros in
    row-major order, guess-major, then distinct pair."""
    g_int = np.round(gain.matrix).astype(np.int64)
    combined = np.concatenate([train.xs[:, None], train.ys], axis=1)
    distinct, counts = reference_unique_rows(combined, return_counts=True)
    xs_d = distinct[:, 0]
    ys_d = distinct[:, 1:]
    weights_full = counts[None, :] * g_int[:, xs_d]
    w_idx, p_idx = np.nonzero(weights_full)
    if w_idx.size == 0:
        raise ValidationError("gain is zero on every sampled secret")
    return Entries(gain.guesses, w_idx, ys_d[p_idx], weights_full[w_idx, p_idx])


def reference_data_preprocess(train: SampleSet, gain: GainFunction) -> Entries:
    """The per-(w, x, y) entries of ``reference_pair_expansion`` merged per
    (w, y), their weights summed: one entry per distinct [w | y] row, in
    sorted order, guess-major and then observable."""
    pairs = reference_pair_expansion(train, gain)
    keyed = np.concatenate([pairs.ws[:, None], pairs.ys], axis=1)
    merged, inverse = reference_unique_rows(keyed, return_inverse=True)
    weights = np.zeros(merged.shape[0], dtype=np.int64)
    np.add.at(weights, inverse, pairs.weights)
    return Entries(gain.guesses, merged[:, 0], merged[:, 1:], weights)


def reference_channel_sample(
    channel: Channel, xs: np.ndarray, gen: np.random.Generator
) -> np.ndarray:
    """Channel sampling one distinct secret at a time, through a mask."""
    u = gen.random(len(xs))
    ys = np.empty(len(xs), dtype=np.int64)
    for x in np.unique(xs):
        mask = xs == x
        ys[mask] = reference_inverse_cdf(channel.rows[x], u[mask])
    return ys[:, None]


def reference_rationalize_gain(gain: GainFunction) -> tuple[GainFunction, int]:
    """Rationalization through an inverse index from every entry to its
    distinct value: the scaled distinct values gathered back per entry."""
    values, inverse = np.unique(gain.matrix, return_inverse=True)
    fracs = []
    for v in values.tolist():
        frac = Fraction(v).limit_denominator(SNAP_DENOMINATOR)
        if abs(float(frac) - v) > SNAP_TOL * max(1.0, abs(v)):
            raise ValidationError(
                f"gain entry {v!r} is not a rational with denominator <= "
                f"{SNAP_DENOMINATOR}; cannot rationalize"
            )
        fracs.append(frac)
    scale = math.lcm(*(frac.denominator for frac in fracs))
    if scale > EXPANSION_CAP:
        raise ValidationError(
            f"denominator lcm {scale} exceeds expansion cap {EXPANSION_CAP}; "
            "use channel pre-processing"
        )
    scaled = np.array([int(frac * scale) for frac in fracs], dtype=np.int64)
    if int(scaled.max()) > EXPANSION_CAP:
        raise ValidationError(
            f"scaled gain entry {int(scaled.max())} exceeds expansion cap "
            f"{EXPANSION_CAP}; use channel pre-processing"
        )
    matrix = scaled[inverse].reshape(gain.matrix.shape).astype(np.float64)
    return GainFunction(gain.guesses, gain.secrets, matrix), scale


def reference_center_distances(rows: int, cols: int, cell_m: float) -> np.ndarray:
    """(cells, cells) Euclidean distances between the centers of cell_m cells."""
    r, c = np.divmod(np.arange(rows * cols), cols)
    r = r * cell_m + cell_m / 2.0
    c = c * cell_m + cell_m / 2.0
    dr = r[:, None] - r[None, :]
    dc = c[:, None] - c[None, :]
    return np.sqrt(dr * dr + dc * dc)


def reference_diamond_gain(rows: int = GRID_SIDE, cols: int = GRID_SIDE) -> GainFunction:
    """The diamond gain evaluated on every (guess, secret) cell pair."""
    dist = reference_center_distances(rows, cols, CELL_M)
    values = np.floor(GAMMA * np.exp(-ALPHA * dist / CELL_M) + 0.5)
    alphabet = Alphabet.integers(rows * cols)
    return GainFunction(alphabet, alphabet, values)


def reference_grid_geometric_mechanism(rows: int, cols: int, nu: float) -> Channel:
    """The grid mechanism's weights evaluated on every cell pair."""
    _require(nu > 0, "nu must be positive")
    dist = reference_center_distances(rows, cols, 1.0)
    rows_mat = np.exp(-nu * dist)
    rows_mat /= rows_mat.sum(axis=1, keepdims=True)
    alphabet = Alphabet.integers(rows * cols)
    return Channel(alphabet, alphabet, rows_mat)


def reference_forward(
    weights: list[np.ndarray], biases: list[np.ndarray], x: np.ndarray
) -> tuple[list[np.ndarray], np.ndarray]:
    """The forward pass with fresh temporaries: hidden activations (inputs
    first) and output log-probabilities."""
    acts = [x]
    h = x
    for w, b in zip(weights[:-1], biases[:-1]):
        h = np.maximum(h @ w + b, 0.0)
        acts.append(h)
    logits = h @ weights[-1] + biases[-1]
    logits = logits - logits.max(axis=1, keepdims=True)
    log_norm = np.log(np.exp(logits).sum(axis=1, keepdims=True))
    return acts, logits - log_norm


def reference_predict_proba(model: MlpClassifier, ys: np.ndarray) -> np.ndarray:
    """Output probabilities of a trained network through ``reference_forward``."""
    _, logp = reference_forward(model.weights, model.biases, model.codec.encode(ys))
    return np.exp(logp)


def _reference_backward(weights, acts, delta):
    grads_w = [np.empty(0)] * len(weights)
    grads_b = [np.empty(0)] * len(weights)
    for layer in range(len(weights) - 1, -1, -1):
        grads_w[layer] = acts[layer].T @ delta
        grads_b[layer] = delta.sum(axis=0)
        if layer > 0:
            delta = (delta @ weights[layer].T) * (acts[layer] > 0.0)
    return grads_w, grads_b


def reference_per_draw_loss_and_grads(weights, biases, x, labels):
    """The training step once per draw: the batch's rows ``x`` with their
    ``labels``, repeated rows and all.  Returns the mean cross-entropy and
    the weight and bias gradients."""
    acts, logp = reference_forward(weights, biases, x)
    batch = x.shape[0]
    loss = -float(logp[np.arange(batch), labels].mean())
    delta = np.exp(logp)
    delta[np.arange(batch), labels] -= 1.0
    delta /= batch
    return (loss, *_reference_backward(weights, acts, delta))


def reference_distinct_loss_and_grads(weights, biases, codec, ys, labels, n_labels):
    """The training step once per distinct row of the drawn observables
    ``ys``, in lexicographic order, on the dense count matrix of the draws:
    row u, drawn c_u times, takes c_u·softmax_u less its label counts, over
    the batch size; the loss sums count × log-probability over the drawn
    (row, label) cells, guess-major."""
    distinct, inverse = reference_unique_rows(ys, return_inverse=True)
    counts = np.zeros((distinct.shape[0], n_labels))
    np.add.at(counts, (inverse, labels), 1.0)
    acts, logp = reference_forward(weights, biases, codec.encode(distinct))
    batch = ys.shape[0]
    cell_labels, cell_rows = np.nonzero(counts.T)
    loss = -float((counts[cell_rows, cell_labels] * logp[cell_rows, cell_labels]).sum()) / batch
    delta = (counts.sum(axis=1)[:, None] * np.exp(logp) - counts) / batch
    return (loss, *_reference_backward(weights, acts, delta))


def reference_mlp_train(
    data: Entries, config: MlpConfig, stream: Stream
) -> MlpClassifier:
    """The training loop with per-layer arrays, fresh temporaries every step
    and a per-array optimizer update; each step runs once per distinct
    drawn observable (``reference_distinct_loss_and_grads``)."""
    cum_weights = np.cumsum(data.weights)
    total = int(cum_weights[-1])
    layer_sizes = (config.codec.dim, *config.hidden, data.guesses.size)
    gen = stream.gen
    weights, biases = [], []
    for fan_in, fan_out in zip(layer_sizes[:-1], layer_sizes[1:]):
        limit = math.sqrt(6.0 / (fan_in + fan_out))
        weights.append(gen.uniform(-limit, limit, size=(fan_in, fan_out)))
        biases.append(np.zeros(fan_out))
    params = weights + biases
    moments = [(np.zeros_like(p), np.zeros_like(p)) for p in params]
    steps_per_epoch = max(1, math.ceil(total / config.batch_size))
    step_count = 0
    loss_first = loss_final = math.nan
    for epoch in range(config.epochs):
        epoch_losses = np.empty(steps_per_epoch)
        for step in range(steps_per_epoch):
            draws = gen.integers(0, total, size=config.batch_size)
            idx = np.searchsorted(cum_weights, draws, side="right")
            loss, grads_w, grads_b = reference_distinct_loss_and_grads(
                weights, biases, config.codec, data.ys[idx], data.ws[idx], data.guesses.size
            )
            epoch_losses[step] = loss
            step_count += 1
            for p, g, (m1, m2) in zip(params, grads_w + grads_b, moments):
                m1 *= ADAM_BETA1
                m1 += (1 - ADAM_BETA1) * g
                m2 *= ADAM_BETA2
                m2 += (1 - ADAM_BETA2) * (g * g)
                hat1 = m1 / (1 - ADAM_BETA1**step_count)
                hat2 = m2 / (1 - ADAM_BETA2**step_count)
                p -= config.learning_rate * hat1 / (np.sqrt(hat2) + ADAM_EPS)
        mean_loss = float(epoch_losses.mean())
        if not math.isfinite(mean_loss):
            raise TrainingDiverged(epoch)
        if epoch == 0:
            loss_first = mean_loss
        loss_final = mean_loss
    return MlpClassifier(config.codec, weights, biases, loss_first, loss_final)


def _loss_and_pattern(net: _Network, x, cells, labels, idx) -> tuple[float, bytes]:
    loss = net.loss_and_grads(x, cells, labels, idx)
    pattern = b"".join((a > 0.0).tobytes() for a in net.acts)
    return loss, pattern


def gradient_check(
    layer_sizes: tuple[int, ...],
    x: np.ndarray,
    labels: np.ndarray,
    stream: Stream,
    h: float = 1e-5,
    idx: np.ndarray | None = None,
) -> float:
    """Max relative error of the training step's analytic gradients against
    central finite differences of its loss.

    Both come from ``_Network.loss_and_grads``, the buffered forward and
    backward pass that ``mlp_train`` runs every step, on the batch that
    draws row i of ``x`` with label ``labels[i]`` as often as ``idx`` lists
    i (default: each once).  Relative to gradient
    magnitude floored at 1, so near-zero components are compared absolutely.
    Coordinates whose +/-h perturbations land on different rectifier
    activation patterns are skipped: the loss is not differentiable across
    a kink, so the central difference is meaningless there.  Intended for
    small architectures (a few dozen parameters); cost is two passes per
    parameter.
    """
    cells = np.arange(x.shape[0])
    idx = cells if idx is None else idx
    net = _Network(layer_sizes, x.shape[0], stream.gen)
    net.loss_and_grads(x, cells, labels, idx)
    analytic = net.grads.copy()
    flat = net.params
    worst = 0.0
    checked = 0
    for i in range(flat.size):
        orig = flat[i]
        flat[i] = orig + h
        up, pattern_up = _loss_and_pattern(net, x, cells, labels, idx)
        flat[i] = orig - h
        down, pattern_down = _loss_and_pattern(net, x, cells, labels, idx)
        flat[i] = orig
        if pattern_up != pattern_down:
            continue
        checked += 1
        numeric = (up - down) / (2 * h)
        ga = float(analytic[i])
        err = abs(ga - numeric) / max(1.0, abs(ga) + abs(numeric))
        worst = max(worst, err)
    if checked == 0:
        raise NumericalError("every coordinate crossed a rectifier kink")
    return worst
