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

import functools
import math
from dataclasses import dataclass, field
from typing import Callable, NamedTuple, Sequence

import numpy as np

from .rng import Stream

ROW_TOL = 1e-9
# mixed-radix keys (_key_frame): int64 holds every product of spans below
# KEY_LIMIT; _unique_rows keys spanning at most DENSE_SPAN_PER_ROW * rows +
# DENSE_SPAN_SLACK are counted over the whole span instead of sorted
KEY_LIMIT = 2**62
DENSE_SPAN_PER_ROW = 4
DENSE_SPAN_SLACK = 4096
# an estimate may leave the gain's range by this much, for rounding
RANGE_SLACK = 1e-9
EXACT_INTEGER = 2**53  # float64 holds every integer of magnitude up to this
# _as_counts checks a table in row blocks of about this many entries
COUNT_CHECK_ENTRIES = 8192


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


def _as_counts(tallies: np.ndarray, learner: str) -> np.ndarray:
    """``tallies`` as float64, checked to be counts: non-negative integers
    whose column totals are below 2**53, so every sum of them is exact.
    The entries are checked in blocks of rows, so no temporary is as large
    as the table."""
    tallies = np.asarray(tallies, dtype=np.float64)
    step = max(1, COUNT_CHECK_ENTRIES // max(1, tallies.shape[-1]))
    blocks = (tallies[i : i + step] for i in range(0, tallies.shape[0], step))
    _require(
        all(bool((b >= 0).all()) and bool((b == np.round(b)).all()) for b in blocks)
        and bool((tallies.sum(axis=0) < EXACT_INTEGER).all()),
        f"{learner} tallies must be non-negative integer counts below 2**53",
    )
    return tallies


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

    def sample(self, xs: np.ndarray, gen: np.random.Generator) -> np.ndarray:
        """Draw y ~ C[x, .] for each x in xs as an (n, 1) array.

        One uniform per sample, inverted through the CDF of row x: the
        number of CDF entries <= u * cdf[x, -1], capped at the last output.
        All samples search at once, building that count a power of two at a
        time.  A probe past the end of row x reads its last entry instead:
        that entry exceeds the target unless every entry is <= it, and then
        the cap gives the last output either way.
        """
        u = gen.random(len(xs))
        cdf = np.cumsum(self.rows, axis=1)
        n_y = self.output.size
        target = u * cdf[xs, -1]
        flat = cdf.ravel()
        before = xs * n_y - 1  # flat index just before row x
        last = before + n_y
        count = np.zeros(len(xs), dtype=np.int64)
        step = 1 << (n_y.bit_length() - 1)
        while step:
            grown = count + step
            count = np.where(flat[np.minimum(before + grown, last)] <= target, grown, count)
            step >>= 1
        return np.minimum(count, n_y - 1)[:, None]


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

    def sample(self, xs: np.ndarray, gen: np.random.Generator) -> np.ndarray:
        ys = np.asarray(self.sampler(xs, gen), dtype=np.int64)
        _require(
            ys.shape == (len(xs), self.obs_width),
            "generative sampler returned wrong shape",
        )
        return ys


class GainFunction:
    """Gain matrix g(w, x) over guesses W x secrets X; its ``range`` is
    (min, max) of the entries.

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
    ) -> None:
        arr = np.asarray(values, dtype=np.float64)
        _require(
            arr.shape == (guesses.size, secrets.size), "gain shape mismatch"
        )
        _require(bool(np.isfinite(arr).all()), "gain entries must be finite")
        lo = float(arr.min())
        shift = max(0.0, -lo)
        self.guesses = guesses
        self.secrets = secrets
        self.matrix = _freeze(arr + shift)
        self.shift = shift
        self.range = (lo, float(arr.max()))


def identity_gain(alphabet: Alphabet) -> GainFunction:
    """g(w, x) = 1 iff w == x; recovers Bayes vulnerability."""
    return GainFunction(alphabet, alphabet, np.eye(alphabet.size))


@dataclass(frozen=True, eq=False)
class SampleSet:
    """Multiset of (secret index, observable encoding) pairs.

    ``ys`` has one row per sample; width 1 for plain index observables,
    wider for tuple encodings from generative channels.  ``counts`` is the
    set's count table, ``_count_table(ys, xs, secrets.size)``: its distinct
    observable rows and the (l, |secrets|) int64 table of how often each
    secret occurs with each, both read-only.  It is computed on first use
    and kept with the set, so every learner trained on one set counts it
    once.  Next to it the set keeps the last data table built on it,
    ``preprocess.data_table``, as one (gain, table) pair: a set builds one
    table per gain object, which its frequentist and data fits share when
    the rationalized gain is the gain itself.
    """

    secrets: Alphabet
    xs: np.ndarray
    ys: np.ndarray
    _data_table: tuple[GainFunction, PairTable] | None = field(
        default=None, init=False, repr=False
    )

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

    @functools.cached_property
    def counts(self) -> tuple[np.ndarray, np.ndarray]:
        distinct, table = _count_table(self.ys, self.xs, self.secrets.size)
        return _freeze(distinct), _freeze(table)


class PairTable(NamedTuple):
    """(guess, observable) pairs as one table, which both learners train on:
    the distinct observable rows and the (l, |guesses|) integer weight of
    each pair, weight k standing for k copies of it."""

    guesses: Alphabet
    distinct: np.ndarray
    tallies: np.ndarray

    @property
    def total_weight(self) -> int:
        """The number of pairs: each guess's total, exact, summed."""
        return sum(int(v) for v in self.tallies.sum(axis=0).tolist())


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
    # over a negative prior V_g, a channel that raises V_g gives a ratio below 1
    message = f"multiplicative leakage needs a positive prior vulnerability, got {prior_v!r}"
    _require(prior_v > 0.0, message)
    return posterior_v / prior_v


def strategy_gain(
    predictor, prior: Prior, channel: Channel, gain: GainFunction
) -> float:
    """Expected gain sum_{x,y} g(f(y), x) pi_x C[x, y] of a fixed predictor.

    f is read off the predictor once, over the output indices of the channel.
    """
    _check_triple(prior, channel, gain)
    outputs = np.arange(channel.output.size)[:, None]
    values = gain.matrix[_decide(predictor, outputs, gain), :]  # (Y, X): g(f(y), x)
    joint = prior.probs[:, None] * channel.rows
    return float(np.sum(joint * values.T)) - gain.shift


# ---------------------------------------------------------------------------
# sampling


def _inverse_cdf(cum: np.ndarray, u: np.ndarray) -> np.ndarray:
    """The number of entries of the CDF ``cum`` <= u * cum[-1] for each
    uniform, capped at the last index.  The targets are searched in sorted
    order, where each search starts near the last one, and the indices
    scattered back."""
    target = u * cum[-1]
    order = np.argsort(target)
    idx = np.empty(target.size, dtype=np.intp)
    idx[order] = np.searchsorted(cum, target[order], side="right")
    return np.minimum(idx, cum.size - 1)


def sample_prior(prior: Prior, count: int, gen: np.random.Generator) -> np.ndarray:
    return _inverse_cdf(np.cumsum(prior.probs), gen.random(count))


def joint_cdf(source: tuple[Prior, Channel | GenerativeChannel]) -> np.ndarray | None:
    """The flat CDF that ``sample_joint`` inverts for a (Prior, matrix
    channel) pair, read-only: the running sums of pi_x C[x, y] over the
    (x, y) in row-major order, built in one buffer.  None for a generative
    channel, which has no such table.

    It depends only on the pair, so a caller that draws several sets from
    one law builds it once and passes it to each draw.
    """
    prior, channel = source
    _require(channel.input == prior.alphabet, "channel input != prior alphabet")
    if not isinstance(channel, Channel):
        return None
    cdf = np.multiply(prior.probs[:, None], channel.rows).reshape(-1)
    np.cumsum(cdf, out=cdf)
    cdf.flags.writeable = False
    return cdf


def sample_joint(
    source: tuple[Prior, Channel | GenerativeChannel],
    count: int,
    stream: Stream,
    cdf: np.ndarray | None = None,
) -> SampleSet:
    """Draw ``count`` i.i.d. (secret, observable) pairs from a (Prior, channel) pair.

    A matrix channel is sampled from its flat joint pi_x C[x, y] with one
    uniform per sample, inverted through ``cdf``, which is
    ``joint_cdf(source)``: a caller drawing several sets from one pair
    passes it, and it is built for this draw otherwise.  A generative
    channel draws the secrets from the prior, then runs its sampler, and
    takes no ``cdf``.  Deterministic given the stream's (master seed, name)
    and the same whether or not ``cdf`` is passed.
    """
    _require(count >= 1, "count must be >= 1")
    prior, channel = source
    _require(channel.input == prior.alphabet, "channel input != prior alphabet")
    if isinstance(channel, Channel):
        n_y = channel.output.size
        cdf = joint_cdf(source) if cdf is None else cdf
        _require(cdf.shape == (prior.alphabet.size * n_y,), "joint CDF shape mismatch")
        idx = _inverse_cdf(cdf, stream.gen.random(count))
        xs, ys = idx // n_y, (idx % n_y)[:, None]
    else:
        _require(cdf is None, "a generative channel has no joint CDF")
        xs = sample_prior(prior, count, stream.gen)
        ys = channel.sample(xs, stream.gen)
    return SampleSet(prior.alphabet, xs, ys)


def _decide(predictor, rows: np.ndarray, gain: GainFunction) -> np.ndarray:
    """The guess of ``predictor`` on each of the distinct observable ``rows``.

    ``predictor`` is anything with ``predict(ys) -> guess indices``: a
    decision table or a trained classifier.  Every predictor is scored
    through this call, which checks one guess per row inside the gain.
    """
    guesses = np.asarray(predictor.predict(rows), dtype=np.int64)
    _require(guesses.shape == (rows.shape[0],), "predictor output shape mismatch")
    _require(
        bool(((guesses >= 0) & (guesses < gain.guesses.size)).all()),
        "predictor guess index outside gain",
    )
    return guesses


@dataclass(frozen=True, eq=False)
class _KeyFrame:
    """Mixed-radix int64 keys of the integer rows of a box: row c has key
    sum_d (c[d] - lows[d]) * strides[d], column 0 most significant."""

    lows: np.ndarray
    spans: np.ndarray
    strides: np.ndarray
    size: int  # points in the box; every key is below it

    def keys(self, rows: np.ndarray) -> np.ndarray:
        key = np.zeros(rows.shape[0], dtype=np.int64)
        for low, stride, column in zip(self.lows.tolist(), self.strides.tolist(), rows.T):
            key += (column - low) * stride
        return key


def _key_frame(lows: np.ndarray, highs: np.ndarray) -> _KeyFrame | None:
    """The key frame of the box from ``lows`` to ``highs``, or None if it
    holds ``KEY_LIMIT`` points or more (Python ints: no overflow)."""
    spans = [hi - lo + 1 for lo, hi in zip(lows.tolist(), highs.tolist())]
    size = math.prod(spans)
    if size >= KEY_LIMIT:
        return None
    strides = [math.prod(spans[d + 1 :]) for d in range(len(spans))]
    return _KeyFrame(*(np.array(v, dtype=np.int64) for v in (lows, spans, strides)), size)


def _unique_rows(a: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """What ``np.unique(a, axis=0, return_inverse=True)`` returns for a 2-D
    int64 array: the distinct rows in lexicographic order and the index of
    each row among them.

    ``np.unique(axis=0)`` sorts the rows as a structured dtype; here each
    row becomes its int64 key in the ``_key_frame`` of the rows' box, so
    key order is row order.  Keys spanning at most ``DENSE_SPAN_PER_ROW``
    per row plus ``DENSE_SPAN_SLACK`` are counted by one ``np.bincount``
    over the span; wider keys are sorted once by a 1-D ``np.unique``.  An
    empty input, or a frame reaching ``KEY_LIMIT``, goes to
    ``np.unique(axis=0)`` itself.
    """
    a = np.asarray(a)
    n = a.shape[0]
    frame = _key_frame(a.min(axis=0), a.max(axis=0)) if n else None
    if frame is None:
        return np.unique(a, axis=0, return_inverse=True)
    key = frame.keys(a)
    if frame.size <= DENSE_SPAN_PER_ROW * n + DENSE_SPAN_SLACK:
        tally = np.bincount(key, minlength=frame.size)
        keys = np.flatnonzero(tally)
        inverse = (np.cumsum(tally > 0) - 1)[key]
    else:
        keys, inverse = np.unique(key, return_inverse=True)
    rows = (keys[:, None] // frame.strides % frame.spans + frame.lows).astype(a.dtype)
    return rows, inverse


def _count_table(
    ys: np.ndarray, labels: np.ndarray, n_labels: int
) -> tuple[np.ndarray, np.ndarray]:
    """Distinct rows of ``ys`` and the (l, n_labels) int64 table of how
    often each label occurs with each of them."""
    distinct, inverse = _unique_rows(ys)
    l = distinct.shape[0]
    table = np.bincount(inverse * n_labels + labels, minlength=l * n_labels)
    return distinct, table.reshape(l, n_labels)


def _distinct_rows(sets: Sequence[SampleSet]) -> tuple[np.ndarray, list[np.ndarray]]:
    """Distinct observable rows of the union of ``sets`` and, per set, the
    index of each pair's row among them."""
    if any(s.size == 0 for s in sets):
        raise ValidationError("validation set is empty")
    rows, inverse = _unique_rows(np.concatenate([s.ys for s in sets]))
    ends = np.cumsum([s.size for s in sets])
    return rows, np.split(inverse, ends[:-1])


def _pair_gains(
    predictor,
    sets: Sequence[SampleSet],
    gain: GainFunction,
    distinct: tuple[np.ndarray, list[np.ndarray]] | None = None,
) -> list[np.ndarray]:
    """Stored (shifted) gains g(f(y), x) of a predictor on each pair of each set.

    The predictor is asked once, on the distinct rows of the sets' union;
    ``distinct`` passes ``_distinct_rows(sets)`` when several predictors
    are scored on the same sets.  Each set keeps its pairs in their order.
    """
    rows, inverses = _distinct_rows(sets) if distinct is None else distinct
    guesses = _decide(predictor, rows, gain)
    return [gain.matrix[guesses[inv], s.xs] for inv, s in zip(inverses, sets)]


def plugin_sigma2(predictor, validation: SampleSet, gain: GainFunction) -> float:
    """Plug-in variance of g(f(y), x) for a fixed predictor on held-out
    pairs: the mean squared deviation, dividing by n (ddof 0).  It is the
    variance proxy that the bounds of ``gleak.bounds`` take."""
    return float((_pair_gains(predictor, [validation], gain)[0] - gain.shift).var())


def _check_range(estimate: float, gain: GainFunction) -> None:
    a, b = gain.range
    if not a - RANGE_SLACK <= estimate <= b + RANGE_SLACK:
        raise NumericalError(f"estimate {estimate} escaped gain range [{a}, {b}]")


def _estimates(
    predictor,
    sets: Sequence[SampleSet],
    gain: GainFunction,
    distinct: tuple[np.ndarray, list[np.ndarray]] | None = None,
) -> list[float]:
    """The mean gain (1/n) sum g(f(y), x) of a predictor on each set
    (``_pair_gains``), each checked to lie in the gain's range."""
    out = [float(g.mean()) - gain.shift for g in _pair_gains(predictor, sets, gain, distinct)]
    for estimate in out:
        _check_range(estimate, gain)
    return out


def empirical_functional(
    predictor, validation: SampleSet, gain: GainFunction
) -> float:
    """Mean gain (1/n) sum g(f(y), x) of a predictor on a validation set;
    ``NumericalError`` if it leaves the gain's range."""
    return _estimates(predictor, [validation], gain)[0]
