"""The two reductions from g-vulnerability estimation to Bayes classification.

Data pre-processing turns a set of (secret, observable) samples into a
weighted multiset of (guess, observable) pairs: each (x, y) contributes
g(w, x) copies of (w, y) for every guess w.  Training a Bayes classifier on
the expanded set and evaluating it with the original gain on held-out (x, y)
pairs estimates the posterior g-vulnerability.

Channel pre-processing instead builds, from the prior and the gain alone, a
scalar beta, a prior tau over guesses and a channel R from guesses to
secrets such that V_g(pi, C) = beta * V_gid(tau, RC); training pairs are
sampled as w ~ tau, x ~ R[w], y ~ C[x].
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .core import (
    Alphabet,
    Channel,
    GainFunction,
    Prior,
    SampleSet,
    ValidationError,
    _freeze,
    _require,
)

SNAP_DENOMINATOR = 10**6
SNAP_TOL = 1e-9
EXPANSION_CAP = 10**6


@dataclass(frozen=True, eq=False)
class WeightedSampleSet:
    """Multiset of (guess, observable, weight) entries.

    Weight k is semantically identical to k physical copies of the pair;
    consumers (MLP batch sampling, ``leak preprocess`` output) must honor
    that equivalence.  ``data_preprocess`` builds every such set.
    """

    guesses: Alphabet
    ws: np.ndarray
    ys: np.ndarray
    weights: np.ndarray

    def __post_init__(self) -> None:
        ws = np.asarray(self.ws, dtype=np.int64)
        ys = np.asarray(self.ys, dtype=np.int64)
        weights = np.asarray(self.weights, dtype=np.int64)
        _require(ws.ndim == 1, "ws must be one-dimensional")
        _require(ys.ndim == 2 and ys.shape[0] == ws.shape[0], "ys shape mismatch")
        _require(weights.shape == ws.shape, "weights shape mismatch")
        _require(ws.size > 0, "weighted sample set is empty")
        _require(bool((weights >= 1).all()), "weights must be >= 1")
        _require(
            0 <= int(ws.min()) and int(ws.max()) < self.guesses.size,
            "guess index out of range",
        )
        object.__setattr__(self, "ws", _freeze(ws))
        object.__setattr__(self, "ys", _freeze(ys))
        object.__setattr__(self, "weights", _freeze(weights))

    @property
    def size(self) -> int:
        return int(self.ws.shape[0])

    @property
    def total_weight(self) -> int:
        return int(self.weights.sum())


@dataclass(frozen=True, eq=False)
class ChannelPreprocDerivation:
    """Channel pre-processing triple: V_g(pi, C) = beta * V_gid(tau, RC)."""

    beta: float
    tau: Prior
    R: Channel


def data_preprocess(train: SampleSet, gain: GainFunction) -> WeightedSampleSet:
    """Weighted-copy expansion of a training set under an integer gain.

    Each distinct (x, y) with multiplicity u contributes weight u * g(w, x)
    on (w, y) for every guess w with positive gain.  The pairs and their
    multiplicities are the non-zero cells of the set's count table,
    ``train.counts``, which the counting learners read too; listing them
    costs that (l, X) table, l distinct observables by X secrets.  Raises
    if the stored gain entries are not non-negative integers (rationalize
    first).
    """
    _require(train.size > 0, "training set is empty")
    if not gain.is_integer_valued():
        raise ValidationError(
            "data pre-processing needs an integer-valued gain; "
            "apply rationalize_gain first"
        )
    g_int = np.round(gain.matrix).astype(np.int64)
    distinct, table = train.counts
    # the distinct pairs (x, y), x-major and then in row order: the order
    # of the distinct rows of [x | y]
    xs_d, rows_d = np.nonzero(table.T)
    counts = table[rows_d, xs_d]
    # Entry (w, p) for every guess w with g(w, x_p) > 0, in the row-major
    # order of the dense (W, P) matrix counts[p] * g(w, x_p): guess-major,
    # then pair.  The MLP batch draw depends on that order.  Each secret's
    # pairs form one run, and the order is each positive (w, x),
    # guess-major, expanded into the run of x.
    runs = np.bincount(xs_d, minlength=g_int.shape[1])
    run_start = np.cumsum(runs) - runs
    nz_w, nz_x = np.nonzero(g_int)
    per_entry = runs[nz_x]
    total = int(per_entry.sum())
    if total == 0:
        raise ValidationError("gain is zero on every sampled secret")
    entry_start = np.cumsum(per_entry) - per_entry
    w_idx = np.repeat(nz_w, per_entry)
    p_idx = np.arange(total) + np.repeat(run_start[nz_x] - entry_start, per_entry)
    weights = counts[p_idx] * g_int[w_idx, xs_d[p_idx]]
    return WeightedSampleSet(gain.guesses, w_idx, distinct[rows_d[p_idx]], weights)


def rationalize_gain(gain: GainFunction) -> tuple[GainFunction, int]:
    """Scale a non-negative rational gain to integers by the denominator lcm.

    Each distinct entry is snapped once to a rational with denominator
    <= 10^6; the snap must reproduce it within 1e-9 or the gain is declared
    non-rationalizable.  Returns (K*G, K); vulnerabilities under K*G are
    exactly K times those under G, so callers de-scale estimates by K (the
    pipelines here avoid that by always evaluating with the original gain).
    Raises when K or the largest scaled entry exceeds ``EXPANSION_CAP``
    (fall back to channel pre-processing).

    The scaled matrix is ``rint(G * K)`` in one pass over the entries, with
    no index from entries to distinct values.  That rounds each entry v to
    ``int(frac(v) * K)`` exactly: |v - frac(v)| <= 1e-9 * max(1, |v|) and
    K * max(1, |v|) <= ``EXPANSION_CAP`` = 10^6, so the float product lies
    within 1e-3 of that integer.
    """
    values = np.unique(gain.matrix)
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
    largest = int(fracs[-1] * scale)
    if largest > EXPANSION_CAP:
        raise ValidationError(
            f"scaled gain entry {largest} exceeds expansion cap "
            f"{EXPANSION_CAP}; use channel pre-processing"
        )
    matrix = gain.matrix * scale
    np.rint(matrix, out=matrix)
    return GainFunction(gain.guesses, gain.secrets, matrix), scale


def _split(
    scores: np.ndarray, guesses: Alphabet, outputs: Alphabet
) -> tuple[float, Prior, Channel]:
    """Total mass, row marginal and normalized rows of a (W, .) score matrix.

    A zero row belongs to a guess of marginal 0, so its content is irrelevant;
    it is kept uniform.
    """
    mass = math.fsum(scores[scores != 0.0].tolist())  # zeros add nothing to the exact sum
    if mass <= 0.0:
        raise ValidationError("degenerate input: pi_x * g(w,x) is zero everywhere")
    row_sums = scores.sum(axis=1)
    rows = np.full_like(scores, 1.0 / outputs.size)
    np.divide(scores, row_sums[:, None], out=rows, where=row_sums[:, None] > 0.0)
    marginal = row_sums / mass
    return (
        mass,
        Prior(guesses, marginal / marginal.sum()),  # absorb rounding before the 1e-9 check
        Channel(guesses, outputs, _renormalize(rows)),
    )


def channel_preprocess(prior: Prior, gain: GainFunction) -> ChannelPreprocDerivation:
    """(beta, tau, R) from the prior and gain alone (independent of C)."""
    _require(gain.secrets == prior.alphabet, "gain secrets != prior alphabet")
    scores = gain.matrix * prior.probs[None, :]  # (W, X): pi_x g(w, x)
    beta, tau, R = _split(scores, gain.guesses, prior.alphabet)
    return ChannelPreprocDerivation(beta=beta, tau=tau, R=R)


def _renormalize(rows: np.ndarray) -> np.ndarray:
    """Divide rows by their sums to absorb float rounding (sums already ~1)."""
    return rows / rows.sum(axis=1, keepdims=True)
