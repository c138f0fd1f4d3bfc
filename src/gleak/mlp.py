"""Feed-forward network trained from scratch for the Bayes-classifier step.

Architecture: fully connected, rectifier hidden layers, softmax output,
cross-entropy loss.  It trains on a (guess, observable) table,
``core.PairTable``, drawing mini-batches with probability proportional to
weight by inverting the cumulative weights of its positive cells, read
guess-major and then by observable: bitwise the same as training on the
expanded multiset listed in that order, with the same stream.  A batch
repeats observable rows, and everything up to the logits is a function of
the row alone, so each step runs its forward and backward pass once per
distinct row of the batch, in table-row order; row u, drawn c_u times,
takes the output delta c_u·softmax_u less the draws of each of its labels,
over the batch size.  In exact arithmetic that is the gradient of the
per-draw step; in floating point it sums in another order.  Parameters
update with mini-batch gradient descent using first/second-moment adaptive
scaling (decay 0.9/0.999, epsilon 1e-8) — the paper-silent optimizer
choice, flagged in reports.
Training and prediction run one forward pass, ``_propagate``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import NumericalError, PairTable, _as_counts, _freeze, _require
from .features import FeatureCodec
from .rng import Stream

ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8


class TrainingDiverged(NumericalError):
    """Loss became non-finite during training."""

    def __init__(self, epoch: int) -> None:
        super().__init__(f"training loss non-finite at epoch {epoch}")
        self.epoch = epoch


@dataclass(frozen=True)
class MlpConfig:
    codec: FeatureCodec
    hidden: tuple[int, ...]
    learning_rate: float = 1e-3
    epochs: int = 100
    batch_size: int = 100

    def __post_init__(self) -> None:
        _require(len(self.hidden) >= 1, "at least one hidden layer required")
        _require(all(h >= 1 for h in self.hidden), "hidden widths must be >= 1")
        _require(self.epochs >= 1, "epochs must be >= 1")
        _require(self.batch_size >= 1, "batch size must be >= 1")
        _require(self.learning_rate > 0, "learning rate must be positive")


def _dense(h: np.ndarray, w: np.ndarray, out: np.ndarray) -> np.ndarray:
    """out = h @ w; a width-1 h is a broadcast product, the same bits."""
    if h.shape[1] == 1:
        return np.multiply(h, w, out=out)
    return np.matmul(h, w, out=out)


def _propagate(
    net, x: np.ndarray, acts: list[np.ndarray], logp: np.ndarray, scratch: np.ndarray
) -> np.ndarray:
    """The forward pass of rows ``x`` through ``net.weights`` and
    ``net.biases``: hidden activations into ``acts``, output
    log-probabilities into ``logp`` (returned); ``scratch``, shaped like
    ``logp``, takes the exponentials of the log-softmax."""
    h = x
    for w, b, out in zip(net.weights, net.biases, acts):
        _dense(h, w, out)
        out += b
        h = np.maximum(out, 0.0, out=out)
    _dense(h, net.weights[-1], logp)
    logp += net.biases[-1]
    logp -= logp.max(axis=1, keepdims=True)
    logp -= np.log(np.exp(logp, out=scratch).sum(axis=1, keepdims=True))
    return logp


class _Network:
    """A network's parameters and the buffers of one training batch.

    Weights and biases are views into one flat vector, and their gradients
    views into another of the same layout, so the optimizer updates all of
    them in a few whole-vector operations.  ``loss_and_grads`` is the
    training step's forward and backward pass; it writes every batch-sized
    intermediate into the leading rows of buffers allocated here, once per
    training call, with ``batch`` rows: at least the distinct rows of any
    batch.
    """

    def __init__(
        self, layer_sizes: tuple[int, ...], batch: int, gen: np.random.Generator
    ) -> None:
        pairs = list(zip(layer_sizes[:-1], layer_sizes[1:]))
        shapes = [*pairs, *((fan_out,) for _, fan_out in pairs)]
        ends = np.cumsum([math.prod(shape) for shape in shapes]).tolist()
        spans = list(zip([0, *ends[:-1]], ends, shapes))
        self.params = np.zeros(ends[-1])
        self.grads = np.zeros(ends[-1])
        params = [self.params[a:b].reshape(shape) for a, b, shape in spans]
        grads = [self.grads[a:b].reshape(shape) for a, b, shape in spans]
        self.weights, self.biases = params[: len(pairs)], params[len(pairs) :]
        self.grads_w, self.grads_b = grads[: len(pairs)], grads[len(pairs) :]
        for w, (fan_in, fan_out) in zip(self.weights, pairs):
            limit = math.sqrt(6.0 / (fan_in + fan_out))
            w[...] = gen.uniform(-limit, limit, size=(fan_in, fan_out))
        hidden = layer_sizes[1:-1]
        self.x = np.empty((batch, layer_sizes[0]))
        self.acts = [np.empty((batch, width)) for width in hidden]
        self.deltas = [np.empty((batch, width)) for width in hidden]
        self.active = [np.empty((batch, width), dtype=bool) for width in hidden]
        self.logp = np.empty((batch, layer_sizes[-1]))
        self.probs = np.empty((batch, layer_sizes[-1]))

    def loss_and_grads(
        self, x_rows: np.ndarray, rows: np.ndarray, labels: np.ndarray, idx: np.ndarray
    ) -> float:
        """Mean cross-entropy of the batch that draws the cells ``idx``, cell
        c being label ``labels[c]`` on row ``rows[c]`` of ``x_rows``; its
        gradients go to ``grads``.  The cells must be distinct (row, label)
        pairs.  The pass runs once per distinct row of the batch."""
        batch = idx.size
        # sorting the batch keeps this bookkeeping O(B log B), whatever the table's size
        drawn, draws = np.unique(idx, return_counts=True)
        drawn_rows, pos = np.unique(rows[drawn], return_inverse=True)
        per_row = np.bincount(pos, weights=draws)
        d = drawn_rows.size
        # drawn_rows is in range by construction; "clip" lets take write unbuffered
        x = np.take(x_rows, drawn_rows, axis=0, out=self.x[:d], mode="clip")
        acts = [a[:d] for a in self.acts]
        logp = _propagate(self, x, acts, self.logp[:d], self.probs[:d])
        # the drawn cells are distinct, so one fancy-indexed subtract is exact
        at = (pos, labels[drawn])
        loss = -float((draws * logp[at]).sum()) / batch
        delta = np.exp(logp, out=self.probs[:d])
        delta *= per_row[:, None]
        delta[at] -= draws
        delta /= batch
        inputs = [x, *acts]
        for layer in range(len(self.weights) - 1, -1, -1):
            np.matmul(inputs[layer].T, delta, out=self.grads_w[layer])
            np.sum(delta, axis=0, out=self.grads_b[layer])
            if layer > 0:
                below = np.matmul(delta, self.weights[layer].T, out=self.deltas[layer - 1][:d])
                active = np.greater(inputs[layer], 0.0, out=self.active[layer - 1][:d])
                delta = np.multiply(below, active, out=below)
        return loss


class MlpClassifier:
    """Immutable trained network."""

    __slots__ = (
        "codec", "weights", "biases", "layer_sizes", "loss_first_epoch", "loss_final_epoch"
    )

    def __init__(
        self,
        codec: FeatureCodec,
        weights: list[np.ndarray],
        biases: list[np.ndarray],
        loss_first_epoch: float = math.nan,
        loss_final_epoch: float = math.nan,
    ) -> None:
        self.codec = codec
        self.weights = [_freeze(w) for w in weights]
        self.biases = [_freeze(b) for b in biases]
        self.layer_sizes = (weights[0].shape[0], *(w.shape[1] for w in weights))
        self.loss_first_epoch = loss_first_epoch
        self.loss_final_epoch = loss_final_epoch

    def predict_proba(self, ys: np.ndarray) -> np.ndarray:
        x = self.codec.encode(ys)
        acts = [np.empty((x.shape[0], width)) for width in self.layer_sizes[1:-1]]
        logp = np.empty((x.shape[0], self.layer_sizes[-1]))
        _propagate(self, x, acts, logp, np.empty_like(logp))
        return np.exp(logp, out=logp)

    def predict(self, ys: np.ndarray) -> np.ndarray:
        return np.argmax(self.predict_proba(ys), axis=1)


def mlp_train(data: PairTable, config: MlpConfig, stream: Stream) -> MlpClassifier:
    """Train on a (guess, observable) table; deterministic given the stream."""
    tallies = _as_counts(data.tallies, "MLP")
    labels, rows = np.nonzero(tallies.T)  # guess-major, then row order
    _require(labels.size > 0, "MLP tallies hold no positive weight")
    x_rows = config.codec.encode(data.distinct)
    cum_weights = np.cumsum(tallies[rows, labels].astype(np.int64))
    total = int(cum_weights[-1])
    layer_sizes = (config.codec.dim, *config.hidden, tallies.shape[1])
    gen = stream.gen
    net = _Network(layer_sizes, min(config.batch_size, x_rows.shape[0]), gen)
    params, grads = net.params, net.grads
    m1, m2 = np.zeros_like(params), np.zeros_like(params)
    step, denom = np.empty_like(params), np.empty_like(params)
    steps_per_epoch = max(1, math.ceil(total / config.batch_size))
    step_count = 0
    loss_first = loss_final = math.nan
    for epoch in range(config.epochs):
        epoch_losses = np.empty(steps_per_epoch)
        for i in range(steps_per_epoch):
            draws = gen.integers(0, total, size=config.batch_size)
            idx = np.searchsorted(cum_weights, draws, side="right")
            epoch_losses[i] = net.loss_and_grads(x_rows, rows, labels, idx)
            step_count += 1
            # Adam, elementwise over the flat parameter vector
            m1 *= ADAM_BETA1
            m1 += np.multiply(grads, 1 - ADAM_BETA1, out=step)
            m2 *= ADAM_BETA2
            np.multiply(grads, grads, out=step)
            m2 += np.multiply(step, 1 - ADAM_BETA2, out=step)
            np.divide(m1, 1 - ADAM_BETA1**step_count, out=step)
            step *= config.learning_rate
            np.divide(m2, 1 - ADAM_BETA2**step_count, out=denom)
            np.sqrt(denom, out=denom)
            denom += ADAM_EPS
            params -= np.divide(step, denom, out=step)
        mean_loss = float(epoch_losses.mean())
        if not math.isfinite(mean_loss):
            raise TrainingDiverged(epoch)
        if epoch == 0:
            loss_first = mean_loss
        loss_final = mean_loss
    return MlpClassifier(config.codec, net.weights, net.biases, loss_first, loss_final)
