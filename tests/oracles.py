"""Test-only oracles: brute-force and finite-difference references that the
package's exact and analytic computations are checked against, the ideal
joints of the two pre-processing theorems, and the strategy tables the
tests score.

They are kept out of the package because no command, scenario or pipeline
uses them.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from gleak.core import (
    Channel,
    GainFunction,
    NumericalError,
    Prior,
    ValidationError,
    _check_triple,
    _freeze,
    _require,
    _score_matrix,
)
from gleak.estimation import TablePredictor
from gleak.mlp import _forward, _init_params, _loss_and_grads
from gleak.preprocess import _renormalize, _split
from gleak.rng import Stream


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


def reference_knn_predict(model, ys: np.ndarray) -> np.ndarray:
    """The k-NN vote over every indexed observable: all (q, l) distances, a
    partition for the k-th, and the included rows' tallies summed by one
    product; ties at the k-th distance are all included, the argmax takes
    the lowest guess index."""
    queries = model.metric.codec.encode(ys)
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


def _loss_and_pattern(
    weights: list[np.ndarray], biases: list[np.ndarray], x, labels
) -> tuple[float, bytes]:
    acts, logp = _forward(weights, biases, x)
    loss = -float(logp[np.arange(x.shape[0]), labels].mean())
    pattern = b"".join((a > 0.0).tobytes() for a in acts[1:])
    return loss, pattern


def gradient_check(
    layer_sizes: tuple[int, ...],
    x: np.ndarray,
    labels: np.ndarray,
    stream: Stream,
    h: float = 1e-5,
) -> float:
    """Max relative error of analytic vs central-finite-difference gradients.

    Relative to gradient magnitude floored at 1, so near-zero components are
    compared absolutely.  Coordinates whose +/-h perturbations land on
    different rectifier activation patterns are skipped: the loss is not
    differentiable across a kink, so the central difference is meaningless
    there.  Intended for small architectures (a few dozen parameters); cost
    is two forward passes per parameter.
    """
    weights, biases = _init_params(layer_sizes, stream.gen)
    _, grads_w, grads_b = _loss_and_grads(weights, biases, x, labels)
    analytic = grads_w + grads_b
    params = weights + biases
    worst = 0.0
    checked = 0
    for p, g in zip(params, analytic):
        flat = p.ravel()
        for i in range(flat.size):
            orig = flat[i]
            flat[i] = orig + h
            up, pattern_up = _loss_and_pattern(weights, biases, x, labels)
            flat[i] = orig - h
            down, pattern_down = _loss_and_pattern(weights, biases, x, labels)
            flat[i] = orig
            if pattern_up != pattern_down:
                continue
            checked += 1
            numeric = (up - down) / (2 * h)
            ga = float(g.ravel()[i])
            err = abs(ga - numeric) / max(1.0, abs(ga) + abs(numeric))
            worst = max(worst, err)
    if checked == 0:
        raise NumericalError("every coordinate crossed a rectifier kink")
    return worst
