"""Feed-forward network trained from scratch for the Bayes-classifier step.

Architecture: fully connected, rectifier hidden layers, softmax output,
cross-entropy loss.  Mini-batches are drawn with probability proportional to
entry weight by inverting the cumulative weight vector, which makes training
on a weighted set bitwise-identical to training on the physically expanded
multiset with the same stream.  Parameters update with mini-batch gradient
descent using first/second-moment adaptive scaling (decay 0.9/0.999,
epsilon 1e-8) — the paper-silent optimizer choice, flagged in reports.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import NumericalError, _freeze, _require
from .features import FeatureCodec
from .preprocess import WeightedSampleSet
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


def _init_params(
    layer_sizes: tuple[int, ...], gen: np.random.Generator
) -> tuple[list[np.ndarray], list[np.ndarray]]:
    weights, biases = [], []
    for fan_in, fan_out in zip(layer_sizes[:-1], layer_sizes[1:]):
        limit = math.sqrt(6.0 / (fan_in + fan_out))
        weights.append(gen.uniform(-limit, limit, size=(fan_in, fan_out)))
        biases.append(np.zeros(fan_out))
    return weights, biases


def _forward(
    weights: list[np.ndarray], biases: list[np.ndarray], x: np.ndarray
) -> tuple[list[np.ndarray], np.ndarray]:
    """Returns hidden activations (inputs first) and output log-probabilities."""
    acts = [x]
    h = x
    for w, b in zip(weights[:-1], biases[:-1]):
        h = np.maximum(h @ w + b, 0.0)
        acts.append(h)
    logits = h @ weights[-1] + biases[-1]
    logits = logits - logits.max(axis=1, keepdims=True)
    log_norm = np.log(np.exp(logits).sum(axis=1, keepdims=True))
    return acts, logits - log_norm


def _loss_and_grads(
    weights: list[np.ndarray],
    biases: list[np.ndarray],
    x: np.ndarray,
    labels: np.ndarray,
) -> tuple[float, list[np.ndarray], list[np.ndarray]]:
    acts, logp = _forward(weights, biases, x)
    batch = x.shape[0]
    loss = -float(logp[np.arange(batch), labels].mean())
    delta = np.exp(logp)
    delta[np.arange(batch), labels] -= 1.0
    delta /= batch
    grads_w: list[np.ndarray] = [np.empty(0)] * len(weights)
    grads_b: list[np.ndarray] = [np.empty(0)] * len(biases)
    for layer in range(len(weights) - 1, -1, -1):
        grads_w[layer] = acts[layer].T @ delta
        grads_b[layer] = delta.sum(axis=0)
        if layer > 0:
            delta = (delta @ weights[layer].T) * (acts[layer] > 0.0)
    return loss, grads_w, grads_b


class MlpClassifier:
    """Immutable trained network."""

    __slots__ = (
        "codec",
        "weights",
        "biases",
        "layer_sizes",
        "loss_first_epoch",
        "loss_final_epoch",
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
        self.layer_sizes = tuple(
            [weights[0].shape[0]] + [w.shape[1] for w in weights]
        )
        self.loss_first_epoch = loss_first_epoch
        self.loss_final_epoch = loss_final_epoch

    def predict_proba(self, ys: np.ndarray) -> np.ndarray:
        x = self.codec.encode(ys)
        _, logp = _forward(self.weights, self.biases, x)
        return np.exp(logp)

    def predict(self, ys: np.ndarray) -> np.ndarray:
        return np.argmax(self.predict_proba(ys), axis=1)


def mlp_train(
    data: WeightedSampleSet, config: MlpConfig, stream: Stream
) -> MlpClassifier:
    """Train on a weighted sample set; deterministic given the stream."""
    x_all = config.codec.encode(data.ys)
    labels_all = data.ws
    cum_weights = np.cumsum(data.weights)
    total = int(cum_weights[-1])
    layer_sizes = (config.codec.dim, *config.hidden, data.guesses.size)
    gen = stream.gen
    weights, biases = _init_params(layer_sizes, gen)
    moments = [
        (np.zeros_like(w), np.zeros_like(w)) for w in weights
    ] + [(np.zeros_like(b), np.zeros_like(b)) for b in biases]
    steps_per_epoch = max(1, math.ceil(total / config.batch_size))
    step_count = 0
    loss_first = loss_final = math.nan
    for epoch in range(config.epochs):
        epoch_losses = np.empty(steps_per_epoch)
        for step in range(steps_per_epoch):
            draws = gen.integers(0, total, size=config.batch_size)
            idx = np.searchsorted(cum_weights, draws, side="right")
            loss, grads_w, grads_b = _loss_and_grads(
                weights, biases, x_all[idx], labels_all[idx]
            )
            epoch_losses[step] = loss
            step_count += 1
            params = weights + biases
            grads = grads_w + grads_b
            for p, g, (m1, m2) in zip(params, grads, moments):
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
