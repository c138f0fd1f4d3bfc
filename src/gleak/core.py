"""Domain types and exact g-vulnerability / g-leakage computation.

Conventions used throughout the package:

* secrets, observables and guesses are referred to by integer index into an
  ``Alphabet``; labels exist only for I/O,
* observable encodings are integer row vectors of fixed width (width 1 for
  matrix channels, wider for structured observables such as count tuples),
* ties in any argmax are broken toward the lowest index,
* gain matrices are stored shifted so that every entry is non-negative; the
  shift is recorded and results are reported in original units.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Callable, Iterator, Sequence

import numpy as np

from .rng import SeedProvenance, Stream

ROW_TOL = 1e-9


class ValidationError(ValueError):
    """An input violates a documented precondition."""


class NumericalError(ArithmeticError):
    """A computation failed numerically (divergence, NaN, empty result)."""


def _require(cond: bool, message: str) -> None:
    if not cond:
        raise ValidationError(message)


def _freeze(arr: np.ndarray) -> np.ndarray:
    out = np.ascontiguousarray(arr)
    out.flags.writeable = False
    return out


# ---------------------------------------------------------------------------
# domain types


@dataclass(frozen=True)
class Alphabet:
    """Ordered finite set of distinct symbolic labels."""

    labels: tuple[str, ...]

    def __post_init__(self) -> None:
        _require(len(self.labels) > 0, "alphabet must have at least one label")
        _require(
            len(set(self.labels)) == len(self.labels),
            "alphabet labels must be distinct",
        )
        object.__setattr__(
            self, "_lookup", {lab: i for i, lab in enumerate(self.labels)}
        )

    @property
    def size(self) -> int:
        return len(self.labels)

    def index(self, label: str) -> int:
        try:
            return self._lookup[label]
        except KeyError:
            raise ValidationError(f"label {label!r} not in alphabet") from None

    def label(self, index: int) -> str:
        return self.labels[index]

    @staticmethod
    def integers(n: int, prefix: str = "") -> "Alphabet":
        return Alphabet(tuple(f"{prefix}{i}" for i in range(n)))


@dataclass(frozen=True, eq=False)
class Prior:
    """Probability distribution over a secret alphabet."""

    alphabet: Alphabet
    probs: np.ndarray

    def __post_init__(self) -> None:
        probs = np.asarray(self.probs, dtype=np.float64)
        _require(probs.shape == (self.alphabet.size,), "prior length mismatch")
        _require(bool((probs >= 0).all()), "prior entries must be non-negative")
        _require(
            abs(float(probs.sum()) - 1.0) <= ROW_TOL,
            "prior must sum to 1 within 1e-9",
        )
        object.__setattr__(self, "probs", _freeze(probs))

    @staticmethod
    def uniform(alphabet: Alphabet) -> "Prior":
        return Prior(alphabet, np.full(alphabet.size, 1.0 / alphabet.size))


@dataclass(frozen=True, eq=False)
class Channel:
    """Row-stochastic matrix of conditional probabilities P(y|x)."""

    input: Alphabet
    output: Alphabet
    rows: np.ndarray

    def __post_init__(self) -> None:
        rows = np.asarray(self.rows, dtype=np.float64)
        _require(
            rows.shape == (self.input.size, self.output.size),
            "channel shape mismatch",
        )
        _require(bool((rows >= 0).all()), "channel entries must be non-negative")
        sums = rows.sum(axis=1)
        _require(
            bool(np.abs(sums - 1.0).max() <= ROW_TOL),
            "channel rows must sum to 1 within 1e-9",
        )
        object.__setattr__(self, "rows", _freeze(rows))

    @staticmethod
    def identity(alphabet: Alphabet) -> "Channel":
        return Channel(alphabet, alphabet, np.eye(alphabet.size))

    def sample(self, xs: np.ndarray, gen: np.random.Generator) -> np.ndarray:
        """Draw y ~ C[x, .] for each x in xs as an (n, 1) array.

        One uniform per sample, inverted through the CDF of row x.
        """
        u = gen.random(len(xs))
        ys = np.empty(len(xs), dtype=np.int64)
        cum = np.cumsum(self.rows, axis=1)
        for x in np.unique(xs):
            mask = xs == x
            idx = np.searchsorted(cum[x], u[mask] * cum[x, -1], side="right")
            ys[mask] = np.minimum(idx, self.output.size - 1)
        return ys[:, None]


@dataclass(frozen=True)
class GenerativeChannel:
    """Black-box channel: a pure sampler secret-index -> observable encoding.

    Used when the observable space is too large or unbounded for a matrix.
    ``sampler(xs, gen)`` must return an (n, obs_width) int64 array and must be
    a pure function of its arguments, so identical streams reproduce
    identical observables.
    """

    input: Alphabet
    obs_width: int
    sampler: Callable[[np.ndarray, np.random.Generator], np.ndarray]
    name: str = ""

    def sample(self, xs: np.ndarray, gen: np.random.Generator) -> np.ndarray:
        ys = np.asarray(self.sampler(xs, gen), dtype=np.int64)
        _require(
            ys.shape == (len(xs), self.obs_width),
            "generative sampler returned wrong shape",
        )
        return ys


class GainFunction:
    """Gain matrix g(w, x) over guesses W x secrets X with range [a, b].

    Entries are stored shifted by ``shift = max(0, -min g)`` so the stored
    matrix is non-negative (required by the data pre-processing reduction);
    ``range`` stays in original units and every vulnerability operation
    subtracts the shift again before returning.
    """

    __slots__ = ("guesses", "secrets", "matrix", "shift", "range")

    def __init__(
        self,
        guesses: Alphabet,
        secrets: Alphabet,
        values: Sequence[Sequence[float]] | np.ndarray,
        value_range: tuple[float, float] | None = None,
    ) -> None:
        arr = np.asarray(values, dtype=np.float64)
        _require(
            arr.shape == (guesses.size, secrets.size), "gain shape mismatch"
        )
        _require(bool(np.isfinite(arr).all()), "gain entries must be finite")
        lo = float(arr.min())
        hi = float(arr.max())
        if value_range is None:
            value_range = (lo, hi)
        a, b = float(value_range[0]), float(value_range[1])
        _require(a <= b, "gain range must satisfy a <= b")
        _require(
            a <= lo + 1e-12 and b >= hi - 1e-12,
            "gain range must cover all entries",
        )
        shift = max(0.0, -lo)
        self.guesses = guesses
        self.secrets = secrets
        self.matrix = _freeze(arr + shift)
        self.shift = shift
        self.range = (a, b)

    @property
    def span(self) -> float:
        return self.range[1] - self.range[0]

    def original(self) -> np.ndarray:
        """Gain entries in original (unshifted) units."""
        return self.matrix - self.shift

    def is_integer_valued(self) -> bool:
        """True if the stored (shifted) entries are all integers."""
        return bool(np.all(self.matrix == np.round(self.matrix)))


def identity_gain(alphabet: Alphabet) -> GainFunction:
    """g(w, x) = 1 iff w == x; recovers Bayes vulnerability."""
    return GainFunction(alphabet, alphabet, np.eye(alphabet.size))


@dataclass(frozen=True, eq=False)
class JointDistribution:
    """Joint distribution over secrets x observables."""

    secrets: Alphabet
    observables: Alphabet
    probs: np.ndarray

    def __post_init__(self) -> None:
        probs = np.asarray(self.probs, dtype=np.float64)
        _require(
            probs.shape == (self.secrets.size, self.observables.size),
            "joint shape mismatch",
        )
        _require(bool((probs >= 0).all()), "joint entries must be non-negative")
        _require(
            abs(math.fsum(probs.ravel().tolist()) - 1.0) <= ROW_TOL,
            "joint must sum to 1 within 1e-9",
        )
        object.__setattr__(self, "probs", _freeze(probs))


@dataclass(frozen=True, eq=False)
class SampleSet:
    """Multiset of (secret index, observable encoding) pairs.

    ``ys`` has one row per sample; width 1 for plain index observables,
    wider for tuple encodings from generative channels.
    """

    secrets: Alphabet
    xs: np.ndarray
    ys: np.ndarray
    provenance: SeedProvenance | None = None

    def __post_init__(self) -> None:
        xs = np.asarray(self.xs, dtype=np.int64)
        ys = np.asarray(self.ys, dtype=np.int64)
        _require(xs.ndim == 1, "xs must be one-dimensional")
        _require(ys.ndim == 2 and ys.shape[0] == xs.shape[0], "ys shape mismatch")
        if xs.size:
            _require(
                0 <= int(xs.min()) and int(xs.max()) < self.secrets.size,
                "secret index out of range",
            )
        object.__setattr__(self, "xs", _freeze(xs))
        object.__setattr__(self, "ys", _freeze(ys))

    @property
    def size(self) -> int:
        return int(self.xs.shape[0])

    @property
    def obs_width(self) -> int:
        return int(self.ys.shape[1])

    def pairs(self) -> Iterator[tuple[int, int | tuple[int, ...]]]:
        width = self.obs_width
        for x, y in zip(self.xs.tolist(), self.ys.tolist()):
            yield (x, y[0] if width == 1 else tuple(y))


@dataclass(frozen=True, eq=False)
class Strategy:
    """Total function table observable-index -> guess-index."""

    mapping: np.ndarray

    def __post_init__(self) -> None:
        mapping = np.asarray(self.mapping, dtype=np.int64)
        _require(mapping.ndim == 1 and mapping.size > 0, "mapping must be 1-D")
        _require(bool((mapping >= 0).all()), "guess indices must be >= 0")
        object.__setattr__(self, "mapping", _freeze(mapping))

    def predict(self, ys: np.ndarray) -> np.ndarray:
        ys = np.asarray(ys, dtype=np.int64)
        _require(ys.ndim == 2 and ys.shape[1] == 1, "strategy needs index observables")
        idx = ys[:, 0]
        _require(
            bool((idx >= 0).all()) and bool((idx < self.mapping.size).all()),
            "observable index outside strategy table",
        )
        return self.mapping[idx]


# ---------------------------------------------------------------------------
# exact operations


def _score_matrix(prior: Prior, channel: Channel, gain: GainFunction) -> np.ndarray:
    """scores[w, y] = sum_x pi_x * C[x, y] * g_shifted(w, x)."""
    weighted = gain.matrix * prior.probs[None, :]
    return weighted @ channel.rows


def _check_triple(prior: Prior, channel: Channel, gain: GainFunction) -> None:
    _require(channel.input == prior.alphabet, "channel input != prior alphabet")
    _require(gain.secrets == prior.alphabet, "gain secrets != prior alphabet")


def prior_vulnerability(prior: Prior, gain: GainFunction) -> float:
    """Expected gain of the best blind guess: max_w sum_x pi_x g(w,x)."""
    _require(gain.secrets == prior.alphabet, "gain secrets != prior alphabet")
    scores = gain.matrix @ prior.probs
    return float(scores.max()) - gain.shift


def posterior_vulnerability(
    prior: Prior, channel: Channel, gain: GainFunction
) -> float:
    """Expected gain of the best guess after observing the channel output.

    sum_y max_w sum_x pi_x C[x,y] g(w,x), evaluated column by column.
    """
    _check_triple(prior, channel, gain)
    scores = _score_matrix(prior, channel, gain)
    return float(math.fsum(scores.max(axis=0).tolist())) - gain.shift


def leakage(
    prior: Prior, channel: Channel, gain: GainFunction, mode: str
) -> float:
    """Posterior/prior vulnerability ratio or difference."""
    post = posterior_vulnerability(prior, channel, gain)
    return leakage_of(prior_vulnerability(prior, gain), post, mode)


def leakage_of(prior_v: float, posterior_v: float, mode: str) -> float:
    """Leakage from the two vulnerabilities: their ratio or difference."""
    _require(mode in ("multiplicative", "additive"), f"unknown mode {mode!r}")
    if mode == "additive":
        return posterior_v - prior_v
    if prior_v == 0.0:
        raise ValidationError("multiplicative leakage undefined: prior vulnerability is 0")
    return posterior_v / prior_v


def joint_from(prior: Prior, channel: Channel) -> JointDistribution:
    _require(channel.input == prior.alphabet, "channel input != prior alphabet")
    return JointDistribution(
        prior.alphabet, channel.output, prior.probs[:, None] * channel.rows
    )


def strategy_gain(
    strategy: Strategy, joint: JointDistribution, gain: GainFunction
) -> float:
    """Expected gain sum_{x,y} g(f(y), x) P(x, y) of a fixed strategy."""
    _require(gain.secrets == joint.secrets, "gain secrets != joint secrets")
    _require(
        strategy.mapping.size == joint.observables.size,
        "strategy not total on joint observables",
    )
    _require(
        int(strategy.mapping.max()) < gain.guesses.size,
        "strategy guess index outside gain",
    )
    values = gain.matrix[strategy.mapping, :]  # (Y, X): g(f(y), x)
    return float(np.sum(joint.probs * values.T)) - gain.shift


def optimal_strategy(
    prior: Prior, channel: Channel, gain: GainFunction
) -> Strategy:
    """Per-observable argmax_w sum_x pi_x C[x,y] g(w,x); lowest index on ties."""
    _check_triple(prior, channel, gain)
    scores = _score_matrix(prior, channel, gain)
    return Strategy(np.argmax(scores, axis=0))


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


# ---------------------------------------------------------------------------
# sampling


def _inverse_cdf(probs: np.ndarray, u: np.ndarray) -> np.ndarray:
    cum = np.cumsum(probs)
    idx = np.searchsorted(cum, u * cum[-1], side="right")
    return np.minimum(idx, probs.size - 1)


def sample_prior(prior: Prior, count: int, gen: np.random.Generator) -> np.ndarray:
    return _inverse_cdf(prior.probs, gen.random(count))


def sample_joint(
    source: JointDistribution | tuple[Prior, Channel | GenerativeChannel],
    count: int,
    stream: Stream,
) -> SampleSet:
    """Draw ``count`` i.i.d. (secret, observable) pairs.

    ``source`` is a (Prior, channel) pair for either channel kind, or a
    JointDistribution.  A matrix channel is sampled from its flat joint
    with one uniform per sample.  Deterministic given the stream's
    (master seed, name).
    """
    _require(count >= 1, "count must be >= 1")
    if isinstance(source, tuple) and isinstance(source[1], Channel):
        source = joint_from(*source)
    if isinstance(source, JointDistribution):
        n_y = source.observables.size
        flat = source.probs.ravel()
        idx = _inverse_cdf(flat, stream.gen.random(count))
        xs = idx // n_y
        ys = (idx % n_y)[:, None]
        return SampleSet(source.secrets, xs, ys, stream.provenance)
    prior, gchannel = source
    _require(
        gchannel.input == prior.alphabet, "generative channel input != prior alphabet"
    )
    xs = sample_prior(prior, count, stream.gen)
    ys = gchannel.sample(xs, stream.gen)
    return SampleSet(prior.alphabet, xs, ys, stream.provenance)


def empirical_functional(
    predictor, validation: SampleSet, gain: GainFunction
) -> float:
    """Mean gain (1/n) sum g(f(y), x) of a predictor on a validation set.

    ``predictor`` is anything with ``predict(ys) -> guess indices``:
    a Strategy or a trained classifier.
    """
    if validation.size == 0:
        raise ValidationError("validation set is empty")
    guesses = np.asarray(predictor.predict(validation.ys), dtype=np.int64)
    _require(guesses.shape == (validation.size,), "predictor output shape mismatch")
    values = gain.matrix[guesses, validation.xs]
    return float(values.mean()) - gain.shift
