"""One evaluation path: every predictor is scored on distinct observables.

``empirical_functional`` asks a predictor once, on the distinct rows of the
validation set, and gathers one gain per pair.  The reference in
``oracles.py`` is the per-row path it replaced: predict on every validation
row, then take the mean.  The two agree exactly wherever ``predict`` is a pure function of
each row.
"""

from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gleak import (
    Alphabet,
    DistanceMetric,
    GainFunction,
    SampleSet,
    TablePredictor,
    empirical_functional,
    fit,
    sample_joint,
    scalar_codec,
    stream,
)
from gleak.features import tuple_codec
from gleak.harness import learner_config
from gleak.knn import KnnClassifier
from gleak.scenarios import SCENARIO_NAMES, build_scenario
from oracles import reference_empirical_functional


METRICS = {1: ("absolute", scalar_codec(0.5)), 5: ("manhattan", tuple_codec(5, 0.5))}


@st.composite
def scoring_case(draw, width):
    """A validation set over a small range of rows (so rows repeat), a
    random gain, and index rows for a table or a kNN: some validation rows
    are absent from the index, and the index may hold fewer rows than k."""
    n_secrets = draw(st.integers(2, 4))
    n_guesses = draw(st.integers(2, 4))
    hi = draw(st.integers(1, 4))
    n = draw(st.integers(1, 60))
    ints = st.integers(-hi, hi)
    xs = draw(st.lists(st.integers(0, n_secrets - 1), min_size=n, max_size=n))
    row = st.lists(ints, min_size=width, max_size=width)
    ys = draw(st.lists(row, min_size=n, max_size=n))
    keys = draw(st.lists(row, min_size=1, max_size=12, unique_by=tuple))
    size = n_guesses * n_secrets
    values = draw(st.lists(st.integers(-2, 3), min_size=size, max_size=size))
    secrets = Alphabet.integers(n_secrets)
    gain = GainFunction(
        Alphabet.integers(n_guesses, "w"), secrets, np.reshape(values, (n_guesses, n_secrets))
    )
    return SampleSet(secrets, np.array(xs), np.array(ys)), gain, np.array(keys)


class TestMatchesPerRowPath:
    @pytest.mark.parametrize("width", [1, 5])
    @settings(max_examples=60, deadline=None)
    @given(data=st.data())
    def test_knn(self, width, data):
        valid, gain, keys = data.draw(scoring_case(width))
        k = data.draw(st.integers(1, 8))  # often more than the indexed rows
        size = len(keys) * gain.guesses.size
        tallies = data.draw(st.lists(st.integers(0, 3), min_size=size, max_size=size))
        kind, codec = METRICS[width]
        metric = DistanceMetric(kind, codec)
        model = KnnClassifier(
            codec.encode(keys),
            np.reshape(tallies, (len(keys), gain.guesses.size)).astype(np.float64),
            k,
            metric,
        )
        assert empirical_functional(model, valid, gain) == reference_empirical_functional(
            model, valid, gain
        )

    @pytest.mark.parametrize("width", [1, 5])
    @settings(max_examples=60, deadline=None)
    @given(data=st.data())
    def test_table(self, width, data):
        valid, gain, keys = data.draw(scoring_case(width))
        guess = st.integers(0, gain.guesses.size - 1)
        guesses = data.draw(st.lists(guess, min_size=len(keys), max_size=len(keys)))
        fallback = data.draw(guess)
        table = TablePredictor(keys, np.array(guesses), fallback)
        assert empirical_functional(table, valid, gain) == reference_empirical_functional(
            table, valid, gain
        )


@pytest.mark.parametrize("name", sorted(SCENARIO_NAMES))
def test_mlp_argmax_unchanged_on_distinct_rows(name):
    """A smaller BLAS batch may move the network's probabilities by ulps;
    the guess on every validation row stays the same."""
    scenario = build_scenario(name)
    config = replace(learner_config(scenario, "data", "mlp", "desk", 2000), epochs=1)
    model, _ = fit(
        "data", scenario.prior, scenario.channel, scenario.gain, 2000, config,
        stream(1, f"t/{name}/train"), stream(1, f"t/{name}/mlp"),
    )
    valid = sample_joint((scenario.prior, scenario.channel), 10000, stream(1, f"t/{name}/valid"))
    rows, inverse = np.unique(valid.ys, axis=0, return_inverse=True)
    assert (model.predict(rows)[inverse] == model.predict(valid.ys)).all()
    assert empirical_functional(model, valid, scenario.gain) == reference_empirical_functional(
        model, valid, scenario.gain
    )

