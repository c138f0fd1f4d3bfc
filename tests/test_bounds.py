"""Deviation probabilities, expected-gap bounds, sample complexity."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gleak import (
    Alphabet,
    Channel,
    Prior,
    SampleSet,
    ValidationError,
    empirical_functional,
    identity_gain,
    plugin_sigma2,
    sample_joint,
    strategy_gain,
    stream,
)
from gleak.bounds import (
    BoundInputs,
    bound_report,
    expected_error_bounds,
    sample_complexity,
    training_suboptimality_prob,
    validation_deviation_prob,
)
from oracles import fixed_strategy


def inputs(**overrides):
    base = dict(
        m=10_000,
        n=10_000,
        sigma2=0.25,
        range=(0.0, 1.0),
        hypothesis_count=45**2,
        epsilon=0.1,
        delta=0.05,
        split=0.025,
    )
    base.update(overrides)
    return BoundInputs(**base)


class TestDeviationProbabilities:
    def test_validation_closed_form(self):
        got = validation_deviation_prob(1000, 0.25, (0.0, 1.0), 0.1)
        expected = 2.0 * math.exp(-1000 * 0.01 / (2 * 0.25 + 2 * 0.1 / 3.0))
        assert got == pytest.approx(expected, rel=1e-12)
        assert got == pytest.approx(2.0 * math.exp(-17.647058823529413), rel=1e-9)

    def test_training_closed_form(self):
        got = training_suboptimality_prob(10_000, 0.25, 45**2, (0.0, 1.0), 0.1)
        expected = (
            2.0 * 45**2 * math.exp(-10_000 * 0.01 / (8 * 0.25 + 4 * 0.1 / 3.0))
        )
        assert got == pytest.approx(min(1.0, expected), rel=1e-12)

    def test_single_hypothesis_reduction(self):
        a = training_suboptimality_prob(500, 0.1, 1, (0.0, 1.0), 0.2)
        expected = 2.0 * math.exp(-500 * 0.04 / (0.8 + 4 * 0.2 / 3.0))
        assert a == pytest.approx(expected, rel=1e-12)

    def test_clipping_to_unit_interval(self):
        assert validation_deviation_prob(1, 0.25, (0.0, 1.0), 1e-6) == 1.0
        assert training_suboptimality_prob(1, 0.25, 10**6, (0.0, 1.0), 0.01) == 1.0

    def test_doubling_n_squares_the_half_bound(self):
        p1 = validation_deviation_prob(400, 0.2, (0.0, 1.0), 0.05)
        p2 = validation_deviation_prob(800, 0.2, (0.0, 1.0), 0.05)
        assert p2 / 2.0 == pytest.approx((p1 / 2.0) ** 2, rel=1e-9)

    @given(
        n=st.integers(10, 10_000),
        sigma2=st.floats(0.01, 0.25),
        eps=st.floats(0.01, 0.9),
    )
    @settings(max_examples=60, deadline=None)
    def test_validation_monotone_in_epsilon_and_n(self, n, sigma2, eps):
        p = validation_deviation_prob(n, sigma2, (0.0, 1.0), eps)
        assert 0.0 <= p <= 1.0
        assert validation_deviation_prob(n, sigma2, (0.0, 1.0), eps * 1.5) <= p
        assert validation_deviation_prob(2 * n, sigma2, (0.0, 1.0), eps) <= p

    @given(h=st.integers(1, 10**6))
    @settings(max_examples=40, deadline=None)
    def test_training_monotone_in_hypothesis_count(self, h):
        p = training_suboptimality_prob(5000, 0.25, h, (0.0, 1.0), 0.05)
        q = training_suboptimality_prob(5000, 0.25, 2 * h, (0.0, 1.0), 0.05)
        assert q >= p


class TestExpectedErrorBounds:
    def test_vanish_as_n_grows(self):
        big = inputs(n=10**9, m=10**9, hypothesis_count=1)
        v_gap, t_gap = expected_error_bounds(big)
        assert v_gap < 1e-3 and t_gap < 1e-2

    def test_sqrt_n_scaling_in_erf_branch(self):
        lo = inputs(n=10**6)
        hi = inputs(n=4 * 10**6)
        ratio = expected_error_bounds(lo)[0] / expected_error_bounds(hi)[0]
        assert ratio == pytest.approx(2.0, rel=0.1)

    def test_sqrt_m_scaling_for_training_gap(self):
        lo = inputs(m=10**6)
        hi = inputs(m=4 * 10**6)
        ratio = expected_error_bounds(lo)[1] / expected_error_bounds(hi)[1]
        assert ratio == pytest.approx(2.0, rel=0.1)

    def test_closed_form_recomputation(self):
        b = inputs(n=2000, m=3000, sigma2=0.16, hypothesis_count=9)
        eta = 1.0 + 1.0 / 3.0
        r_n = math.sqrt(2 * 0.16 * eta / 2000)
        v_expected = (4 * eta / 2000) * math.exp(-2000 * 0.16 / (2 * eta)) + (
            r_n * math.sqrt(math.pi) * math.erf(0.16 / r_n)
        )
        r_m = math.sqrt(4 * 0.16 * (1 + eta) / 3000)
        t_expected = 9 * (8 * (1 + eta) / 3000) * math.exp(
            -3000 * 0.16 / (4 * (1 + eta))
        ) + 9 * r_m * math.sqrt(math.pi) * math.erf(0.16 / r_m)
        v_gap, t_gap = expected_error_bounds(b)
        assert v_gap == pytest.approx(v_expected, rel=1e-9)
        assert t_gap == pytest.approx(t_expected, rel=1e-9)

    def test_branch_label(self):
        assert bound_report(inputs(sigma2=0.05, epsilon=0.1)).branch == "small-variance"
        assert bound_report(inputs(sigma2=0.25, epsilon=0.1)).branch == "erf"


class TestSampleComplexity:
    def test_frozen_validation_size(self):
        m_req, n_req = sample_complexity(0.1, 0.05, 0.025, 0.25, (0.0, 1.0), 45**2)
        assert n_req == 249
        expected_n = math.ceil((2 * 0.25 + 2 * 0.1 / 3) / 0.01 * math.log(2 / 0.025))
        assert n_req == expected_n
        expected_m = math.ceil(
            (8 * 0.25 + 4 * 0.1 / 3) / 0.01 * math.log(2 * 45**2 / 0.025)
        )
        assert m_req == expected_m

    def test_halving_epsilon_roughly_quadruples_n(self):
        _, n1 = sample_complexity(0.02, 0.05, 0.025, 0.25, (0.0, 1.0), 100)
        _, n2 = sample_complexity(0.01, 0.05, 0.025, 0.25, (0.0, 1.0), 100)
        assert n2 / n1 == pytest.approx(4.0, rel=0.05)

    def test_split_monotonicity(self):
        m1, n1 = sample_complexity(0.1, 0.05, 0.01, 0.25, (0.0, 1.0), 100)
        m2, n2 = sample_complexity(0.1, 0.05, 0.04, 0.25, (0.0, 1.0), 100)
        assert n1 > n2  # smaller split -> larger N
        assert m1 < m2  # split closer to delta -> larger M

    def test_invalid_split(self):
        with pytest.raises(ValidationError):
            sample_complexity(0.1, 0.05, 0.05, 0.25, (0.0, 1.0), 10)
        with pytest.raises(ValidationError):
            sample_complexity(0.1, 0.05, 0.08, 0.25, (0.0, 1.0), 10)

    def test_delta_above_one(self):
        # delta is a failure probability: at 3 with split 2.5, N came out negative
        with pytest.raises(ValidationError, match="failure probability"):
            sample_complexity(0.1, 3.0, 2.5, 0.25, (0.0, 1.0), 10)


class TestBoundInputs:
    @pytest.mark.parametrize("delta, split", [(5.0, 0.5), (3.0, 2.5)])
    def test_delta_above_one_rejection(self, delta, split):
        with pytest.raises(ValidationError, match="failure probability"):
            inputs(delta=delta, split=split)

    def test_popoviciu_rejection(self):
        with pytest.raises(ValidationError, match="Popoviciu"):
            inputs(sigma2=0.3)  # > (1-0)^2/4

    def test_eta(self):
        assert inputs().eta == pytest.approx(4.0 / 3.0)
        assert inputs(range=(0.0, 3.0), sigma2=1.0).eta == pytest.approx(2.0)

    def test_report_fields_serializable(self):
        report = bound_report(inputs())
        d = report.as_dict()
        assert set(d) == {
            "validation_deviation_prob",
            "training_suboptimality_prob",
            "expected_validation_gap",
            "expected_training_gap",
            "branch",
            "M",
            "N",
        }


class TestEmpiricalSoundness:
    def test_validation_bound_dominates_observed_frequency(self):
        # tiny instance, fixed strategy, exact variance, 2000 resamplings
        X = Alphabet.integers(2)
        prior = Prior(X, np.array([0.4, 0.6]))
        channel = Channel(
            X,
            Alphabet.integers(4, "y"),
            np.array([[0.4, 0.3, 0.2, 0.1], [0.1, 0.2, 0.3, 0.4]]),
        )
        gain = identity_gain(X)
        joint = (prior, channel)
        f = fixed_strategy([0, 0, 1, 1])
        truth = strategy_gain(f, prior, channel, gain)
        # exact Var(g(f(Y), X)): indicator of a correct guess
        sigma2 = truth * (1.0 - truth)
        n, eps, reps = 100, 0.08, 2000
        bound = validation_deviation_prob(n, sigma2, (0.0, 1.0), eps)
        hits = 0
        for r in range(reps):
            sampled = sample_joint(joint, n, stream(r, "t/sound"))
            v_hat = empirical_functional(f, sampled, gain)
            if abs(v_hat - truth) >= eps:
                hits += 1
        observed = hits / reps
        slack = 3.0 * math.sqrt(max(observed * (1 - observed), 1e-4) / reps)
        assert observed <= bound + slack

    def test_plugin_sigma2_matches_manual_variance(self):
        X = Alphabet.integers(2)
        prior = Prior.uniform(X)
        channel = Channel(
            X, Alphabet.integers(2, "y"), np.array([[0.9, 0.1], [0.2, 0.8]])
        )
        gain = identity_gain(X)
        valid = sample_joint((prior, channel), 2000, stream(1, "t/plug"))
        f = fixed_strategy([0, 1])
        est = plugin_sigma2(f, valid, gain)
        correct = (f.predict(valid.ys) == valid.xs).astype(float)
        assert est == pytest.approx(correct.var(), abs=1e-12)

    def test_plugin_sigma2_rejects_empty_set(self):
        X = Alphabet.integers(2)
        empty = SampleSet(X, np.zeros(0, dtype=np.int64), np.zeros((0, 1), dtype=np.int64))
        with pytest.raises(ValidationError, match="empty"):
            plugin_sigma2(fixed_strategy([0, 1]), empty, identity_gain(X))
