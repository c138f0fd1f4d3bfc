"""The two reductions from g-vulnerability estimation to Bayes classification.

Data pre-processing turns a set of (secret, observable) samples into a
weighted multiset of (guess, observable) pairs: each (x, y) contributes
g(w, x) copies of (w, y) for every guess w, held as one table of the total
weight of each (observable, guess) pair, ``data_table``.  Either learner
trains a Bayes classifier on that table of the rationalized gain;
evaluating it with the original gain on held-out (x, y) pairs estimates
the posterior g-vulnerability.  The frequentist baseline is the argmax of
each row of the table of the original gain.

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
    PairTable,
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
class ChannelPreprocDerivation:
    """Channel pre-processing triple: V_g(pi, C) = beta * V_gid(tau, RC)."""

    beta: float
    tau: Prior
    R: Channel


def data_table(train: SampleSet, gain: GainFunction) -> PairTable:
    """The data pre-processing of ``train``, as one table over
    ``gain.guesses``: the distinct observables y and the (l, W) weights
    sum_x n(x, y) g(w, x), in float64, both read-only.

    The weights are the set's (l, X) table of secret counts n,
    ``train.counts``, times G^T.  Under an integer gain they are
    non-negative integers, exact in any summation order below 2**53, which
    a cell passes only past 9 * 10**9 samples at entries up to
    ``EXPANSION_CAP``; both learners check that their tallies are such
    counts, and the frequentist reads only each row's argmax.  An
    observable seen only with zero-gain secrets is not in the expansion:
    its all-zero row is dropped.  Raises if every row is.

    The set keeps the table it built last, with its gain: asked again for
    the same gain object (``is``, never an equal value), it returns that
    table.  So a set builds one table per gain object, and its frequentist
    and data fits share one when the rationalized gain is the gain itself.
    """
    kept = train._data_table
    if kept is not None and kept[0] is gain:
        return kept[1]
    _require(train.size > 0, "training set is empty")
    distinct, counts = train.counts
    tallies = counts.astype(np.float64) @ gain.matrix.T
    seen = tallies.any(axis=1)
    if not seen.any():
        raise ValidationError("gain is zero on every sampled secret")
    if not seen.all():  # otherwise no copy: the set keeps its count table meanwhile
        distinct, tallies = distinct[seen], tallies[seen]
    table = PairTable(gain.guesses, _freeze(distinct), _freeze(tallies))
    object.__setattr__(train, "_data_table", (gain, table))  # SampleSet is frozen
    return table


def _distinct_values(matrix: np.ndarray) -> np.ndarray:
    """The sorted distinct entries of ``matrix``, as ``np.unique(matrix)``
    returns them for NaN-free input.  A flagless ``np.unique`` imports
    ``numpy.ma`` (about 16 ms per process), which this sort and mask do not."""
    flat = np.sort(matrix, axis=None)
    return flat[np.concatenate(([True], flat[1:] != flat[:-1]))]


def rationalize_gain(gain: GainFunction) -> tuple[GainFunction, int]:
    """Scale a non-negative rational gain to integers by the denominator lcm.

    Each distinct entry is snapped once to a rational with denominator
    <= 10^6; the snap must reproduce it within 1e-9 or the gain is declared
    non-rationalizable.  Returns (K*G, K); vulnerabilities under K*G are
    exactly K times those under G, so callers de-scale estimates by K (the
    pipelines here avoid that by always evaluating with the original gain).
    Raises when K or the largest scaled entry exceeds ``EXPANSION_CAP``
    (fall back to channel pre-processing).  An integer-valued, unshifted
    gain is returned as is, with K = 1: the gain built from its rounded
    entries would equal it in every field.  Every check still runs on it,
    and an entry within the snap tolerance of an integer but not equal to
    it still yields a new, rounded gain.

    The scaled matrix is ``rint(G * K)`` in one pass over the entries, with
    no index from entries to distinct values.  That rounds each entry v to
    ``int(frac(v) * K)`` exactly: |v - frac(v)| <= 1e-9 * max(1, |v|) and
    K * max(1, |v|) <= ``EXPANSION_CAP`` = 10^6, so the float product lies
    within 1e-3 of that integer.
    """
    values = _distinct_values(gain.matrix)
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
    if scale == 1 and gain.shift == 0.0 and np.array_equal(matrix, gain.matrix):
        return gain, 1  # the gain already holds its integers, unshifted
    return GainFunction(gain.guesses, gain.secrets, matrix), scale


def _split(
    scores: np.ndarray, guesses: Alphabet, outputs: Alphabet, out: np.ndarray | None = None
) -> tuple[float, Prior, Channel]:
    """Total mass, row marginal and normalized rows of a (W, .) score matrix.

    The rows are normalized into ``out``, a new array by default; a caller
    that owns ``scores`` and has no further use for them passes ``scores``
    itself.  A zero row belongs to a guess of marginal 0, so its content is
    irrelevant; it is made uniform.
    """
    mass = math.fsum(scores[scores != 0.0].tolist())  # zeros add nothing to the exact sum
    if mass <= 0.0:
        raise ValidationError("degenerate input: pi_x * g(w,x) is zero everywhere")
    row_sums = scores.sum(axis=1)
    positive = row_sums > 0.0
    rows = np.empty_like(scores) if out is None else out
    np.divide(scores, row_sums[:, None], out=rows, where=positive[:, None])
    rows[~positive] = 1.0 / outputs.size
    marginal = row_sums / mass
    return (
        mass,
        Prior(guesses, marginal / marginal.sum()),  # absorb rounding before the 1e-9 check
        Channel(guesses, outputs, _renormalize(rows)),
    )


def channel_preprocess(prior: Prior, gain: GainFunction) -> ChannelPreprocDerivation:
    """(beta, tau, R) from the prior and gain alone (independent of C).

    R's rows are written over the one (W, X) buffer of the scores
    pi_x g(w, x).
    """
    _require(gain.secrets == prior.alphabet, "gain secrets != prior alphabet")
    scores = gain.matrix * prior.probs[None, :]  # (W, X): pi_x g(w, x)
    beta, tau, R = _split(scores, gain.guesses, prior.alphabet, out=scores)
    return ChannelPreprocDerivation(beta=beta, tau=tau, R=R)


def _renormalize(rows: np.ndarray) -> np.ndarray:
    """Divide rows in place by their sums to absorb float rounding (sums
    already ~1), and return them."""
    rows /= rows.sum(axis=1, keepdims=True)
    return rows
