"""Shared helpers: random instance generators, reference implementations
and writers of the gain and sample files that ``leak`` reads.

The reference implementations are deliberately written in plain loops so
they share no code path with the package.
"""

from __future__ import annotations

import math
from pathlib import Path

import numpy as np
import pytest

from gleak import Alphabet, Channel, GainFunction, Prior, SampleSet, fit, stream


def random_prior(gen: np.random.Generator, n: int, allow_zero: bool = False) -> Prior:
    raw = gen.random(n)
    if not allow_zero:
        raw = raw + 0.05
    if allow_zero and n > 1:
        raw[gen.integers(n)] = 0.0
    return Prior(Alphabet.integers(n), raw / raw.sum())


def random_channel(
    gen: np.random.Generator, alphabet: Alphabet, n_out: int
) -> Channel:
    raw = gen.random((alphabet.size, n_out)) + 0.05
    return Channel(
        alphabet, Alphabet.integers(n_out, prefix="y"), raw / raw.sum(axis=1)[:, None]
    )


def random_gain(
    gen: np.random.Generator,
    n_guess: int,
    secrets: Alphabet,
    max_value: int = 5,
    integer: bool = True,
) -> GainFunction:
    if integer:
        values = gen.integers(0, max_value + 1, size=(n_guess, secrets.size))
        if not values.any():
            values[0, 0] = 1
        values = values.astype(np.float64)
    else:
        values = gen.random((n_guess, secrets.size)) * max_value
    return GainFunction(Alphabet.integers(n_guess, prefix="w"), secrets, values)


def identity_channel(alphabet: Alphabet) -> Channel:
    """The channel that reveals its secret: y = x."""
    return Channel(alphabet, alphabet, np.eye(alphabet.size))


def original_gain(gain: GainFunction) -> np.ndarray:
    """Gain entries in original (unshifted) units."""
    return gain.matrix - gain.shift


def write_gain(gain: GainFunction, path) -> None:
    """A gain file: a ``|W| |X|`` header, then the rows in original units."""
    rows = (" ".join(repr(float(v)) for v in row) for row in original_gain(gain))
    Path(path).write_text(f"{gain.guesses.size} {gain.secrets.size}\n" + "\n".join(rows) + "\n")


def write_samples(samples: SampleSet, path) -> None:
    """A sample CSV: one ``x_label,y_encoding`` line per pair, ``|`` between
    the components of a multi-part observable."""
    lines = (
        samples.secrets.label(int(x)) + "," + "|".join(str(int(v)) for v in y)
        for x, y in zip(samples.xs, samples.ys)
    )
    Path(path).write_text("".join(line + "\n" for line in lines))


def loop_prior_vulnerability(prior: Prior, gain: GainFunction) -> float:
    g = original_gain(gain)
    best = -math.inf
    for w in range(gain.guesses.size):
        best = max(best, sum(prior.probs[x] * g[w, x] for x in range(gain.secrets.size)))
    return best


def loop_posterior_vulnerability(
    prior: Prior, channel: Channel, gain: GainFunction
) -> float:
    g = original_gain(gain)
    total = 0.0
    for y in range(channel.output.size):
        best = -math.inf
        for w in range(gain.guesses.size):
            best = max(
                best,
                sum(
                    prior.probs[x] * channel.rows[x, y] * g[w, x]
                    for x in range(gain.secrets.size)
                ),
            )
        total += best
    return total


@pytest.fixture
def two_secret_example():
    """The worked 2x2 example: posterior Bayes vulnerability 0.70."""
    X = Alphabet(("x1", "x2"))
    prior = Prior(X, np.array([0.3, 0.7]))
    channel = Channel(
        X, Alphabet(("y1", "y2")), np.array([[0.8, 0.2], [0.4, 0.6]])
    )
    return prior, channel


def fit_frequentist(train: SampleSet, gain: GainFunction):
    """``fit("frequentist", ...)`` on a drawn set; the source is nominal, as
    the set is given.  Its details are empty."""
    model, details = fit(
        "frequentist", Prior.uniform(gain.secrets), identity_channel(gain.secrets), gain,
        train.size, None, stream(0, "t/unused"), train=train,
    )
    assert details == {}
    return model


def gains_of(value: float):
    """A stand-in for ``core._pair_gains`` that scores every pair of every
    set ``value``, in the gain's original units."""

    def pair_gains(predictor, sets, gain, distinct=None):
        return [np.full(s.size, value + gain.shift) for s in sets]

    return pair_gains
