"""Acceptance gate: one test per end-to-end criterion, nine in all.

The pytest verdict line of each test is the pass/fail line for its
criterion.  Every vulnerability and bound value consumed here is produced
by the `leak` command line; direct library calls are confined to input
construction, independent oracles, and white-box internals (training-pair
distributions, gradients) that have no CLI surface.
"""

import contextlib
import io
import json
import math
import time

import numpy as np
import pytest

from conftest import (
    original_gain, random_channel, random_gain, random_prior, write_gain, write_samples,
)
from oracles import (
    compose,
    enumerate_strategies_vulnerability,
    fixed_strategy,
    gradient_check,
    ideal_derivation,
)
from gleak import Alphabet
from gleak.cli import main
from gleak.core import (
    PairTable,
    _count_table,
    empirical_functional,
    identity_gain,
    sample_joint,
    strategy_gain,
)
from gleak.estimation import sample_preprocessed_pairs
from gleak.features import scalar_codec
from gleak.io import read_channel, write_channel, write_prior
from gleak.knn import DistanceMetric, KnnClassifier, k_for, knn_train
from gleak.preprocess import channel_preprocess, data_table
from gleak.rng import stream
from gleak.scenarios import build_scenario
from gleak.scenarios.password import DELAY_NU, KNOWN_PREFIX, TOTAL_BITS, reduced_channel


def leak(*argv: str) -> dict:
    """One in-process `leak` invocation; asserts exit 0, parses the JSON."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(list(argv))
    assert code == 0, f"leak {' '.join(argv)} exited {code}: {err.getvalue()}"
    return json.loads(out.getvalue())


def leak_lines(*argv: str) -> list[str]:
    """Like leak() but for subcommands that print plain lines."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = main(list(argv))
    assert code == 0, f"leak {' '.join(argv)} exited {code}"
    return out.getvalue().splitlines()


def test_criterion_1_exact_value_reproduction():
    started = time.perf_counter()
    payload = leak("exact", "--scenario", "multi-guess", "--profile", "paper")
    elapsed = time.perf_counter() - started
    value = payload["posterior_vulnerability"]
    assert abs(value - 0.892) <= 1e-3
    assert payload["prior_vulnerability"] == pytest.approx(0.2, abs=1e-12)
    assert elapsed < 10.0
    print(
        f"criterion 1 PASS: exact V_g = {value:.6f} (0.892 +/- 0.001) "
        f"in {elapsed:.2f} s"
    )


def test_criterion_2_preprocessing_theorem_equalities(tmp_path):
    gen = np.random.default_rng(20260825)
    p = {k: str(tmp_path / f"{k}.txt") for k in ("prior", "chan", "gain", "xi", "E", "rc")}
    worst_data = worst_chan = 0.0
    for _ in range(100):
        nx, ny, nw = (int(gen.integers(2, 9)) for _ in range(3))
        prior = random_prior(gen, nx)
        channel = random_channel(gen, prior.alphabet, ny)
        gain = random_gain(gen, nw, prior.alphabet)  # integer entries in 0..5
        write_prior(prior, p["prior"])
        write_channel(channel, p["chan"])
        write_gain(gain, p["gain"])
        v_true = leak(
            "exact", "--prior", p["prior"], "--channel", p["chan"], "--gain", p["gain"]
        )["posterior_vulnerability"]

        # data pre-processing: V_g(pi, C) == alpha * V_gid(xi, E)
        derived = ideal_derivation(prior, channel, gain)
        write_prior(derived.xi, p["xi"])
        write_channel(derived.E, p["E"])
        v_id = leak("exact", "--prior", p["xi"], "--channel", p["E"])[
            "posterior_vulnerability"
        ]
        worst_data = max(worst_data, abs(derived.alpha * v_id - v_true))

        # channel pre-processing: V_g(pi, C) == beta * V_gid(tau, RC)
        pre = leak(
            "preprocess", "--mode", "channel", "--prior", p["prior"],
            "--gain", p["gain"], "--out", str(tmp_path / "pre"),
        )
        r = read_channel(pre["R"])
        write_channel(compose(r, channel), p["rc"])
        v_id = leak("exact", "--prior", pre["tau"], "--channel", p["rc"])[
            "posterior_vulnerability"
        ]
        worst_chan = max(worst_chan, abs(pre["beta"] * v_id - v_true))
    assert worst_data <= 1e-9
    assert worst_chan <= 1e-9
    print(
        f"criterion 2 PASS: 100 instances, worst deviation "
        f"data {worst_data:.2e}, channel {worst_chan:.2e} (<= 1e-9)"
    )


def test_criterion_3_enumeration_oracle_equivalence(tmp_path):
    gen = np.random.default_rng(31)
    p = {k: str(tmp_path / f"{k}.txt") for k in ("prior", "chan", "gain")}

    def check(prior, channel, gain):
        write_prior(prior, p["prior"])
        write_channel(channel, p["chan"])
        write_gain(gain, p["gain"])
        v_cli = leak(
            "exact", "--prior", p["prior"], "--channel", p["chan"], "--gain", p["gain"]
        )["posterior_vulnerability"]
        oracle = enumerate_strategies_vulnerability(prior, channel, gain)
        return abs(v_cli - oracle)

    worst = 0.0
    for trial in range(99):
        nw = int(gen.integers(2, 6))
        max_y = min(8, int(math.log(10**6) / math.log(nw)))
        ny = int(gen.integers(2, max_y + 1))
        prior = random_prior(gen, int(gen.integers(2, 7)))
        channel = random_channel(gen, prior.alphabet, ny)
        gain = random_gain(gen, nw, prior.alphabet, integer=bool(trial % 2))
        assert nw**ny <= 10**6
        worst = max(worst, check(prior, channel, gain))
    # one instance close to the enumeration cap: 3^12 = 531441 strategies
    prior = random_prior(gen, 4)
    channel = random_channel(gen, prior.alphabet, 12)
    worst = max(worst, check(prior, channel, random_gain(gen, 3, prior.alphabet)))
    assert worst <= 1e-12
    print(f"criterion 3 PASS: 100 instances, worst |V_g - oracle| = {worst:.2e}")


def test_criterion_4_combinatorics(tmp_path):
    scenario = build_scenario("multi-guess")
    assert scenario.gain.guesses.size == 45 == math.comb(10, 2)

    # every training pair expands to sum_w g(w, x) = 9 weighted copies
    train = sample_joint(
        (scenario.prior, scenario.channel), 500, stream(4, "acceptance/expand")
    )
    write_samples(train, tmp_path / "train.csv")
    write_gain(scenario.gain, tmp_path / "gain.txt")
    payload = leak(
        "preprocess", "--mode", "data", "--samples", str(tmp_path / "train.csv"),
        "--gain", str(tmp_path / "gain.txt"), "--out", str(tmp_path / "art"),
    )
    assert payload["total_weight"] == 9 * 500
    assert payload["rationalize_scale"] == 1

    # diamond gain: every interior cell's row sums to 20
    grid = original_gain(build_scenario("location").gain)
    side = int(math.isqrt(grid.shape[0]))
    assert grid.shape == (side * side, side * side)
    interior = [r * side + c for r in range(2, side - 2) for c in range(2, side - 2)]
    np.testing.assert_allclose(grid[interior].sum(axis=1), 20.0, atol=1e-9)
    print(
        f"criterion 4 PASS: |W| = 45, expansion 4500/500 = 9x, "
        f"{len(interior)} interior diamond rows sum to 20"
    )


def test_criterion_5_learner_validity():
    gen = np.random.default_rng(5)
    worst = 0.0
    for i in range(10):
        depth = int(gen.integers(1, 3))
        sizes = (
            (int(gen.integers(1, 4)),)
            + tuple(int(gen.integers(2, 7)) for _ in range(depth))
            + (int(gen.integers(2, 6)),)
        )
        count = int(gen.integers(4, 9))
        x = gen.standard_normal((count, sizes[0]))
        labels = gen.integers(0, sizes[-1], size=count)
        err = gradient_check(sizes, x, labels, stream(100 + i, "acceptance/grad"))
        assert err <= 1e-4, sizes
        worst = max(worst, err)

    # neighbor-count rule k = max(1, floor(ln l)) at its breakpoints
    for l, expected in (
        (1, 1), (2, 1), (7, 1), (8, 2), (20, 2), (21, 3),
        (54, 3), (55, 4), (2980, 7), (2981, 8),
    ):
        assert k_for(l) == expected, l
    # trained k is driven by the deduplicated index size, not the raw count
    table = _count_table((np.arange(10) % 3)[:, None], np.zeros(10, dtype=np.int64), 2)
    metric = DistanceMetric("absolute", scalar_codec())
    model = knn_train(*table, metric)
    assert model.n_indexed == 3 and model.k == 1

    # all ties at the k-th distance vote: the heavier far neighbor wins
    model = KnnClassifier(
        np.array([[0.0], [2.0]]), np.array([[1.0, 0.0], [0.0, 2.0]]), 1, metric
    )
    assert model.predict(np.array([[1]]))[0] == 1
    # equal votes resolve to the lowest guess index
    model = KnnClassifier(
        np.array([[0.0], [2.0]]), np.array([[0.0, 1.0], [1.0, 0.0]]), 1, metric
    )
    assert model.predict(np.array([[1]]))[0] == 0
    print(f"criterion 5 PASS: worst gradient error {worst:.2e}; k-NN rules hold")


@pytest.mark.slow
def test_criterion_6_desk_estimation_quality():
    started = time.perf_counter()
    big, small, freq = [], [], []
    for seed in range(10):
        big.append(
            leak(
                "estimate", "--scenario", "multi-guess", "--learner", "mlp",
                "--m", "10000", "--n", "10000", "--seed", str(seed),
            )["normalized_error"]
        )
    for seed in range(10):
        small.append(
            leak(
                "estimate", "--scenario", "multi-guess", "--learner", "mlp",
                "--m", "2000", "--n", "10000", "--seed", str(seed),
            )["normalized_error"]
        )
        freq.append(
            leak(
                "estimate", "--scenario", "multi-guess", "--method", "frequentist",
                "--m", "2000", "--n", "10000", "--seed", str(seed),
            )["normalized_error"]
        )
    elapsed = time.perf_counter() - started
    median_big = float(np.median(big))
    median_small = float(np.median(small))
    median_freq = float(np.median(freq))
    assert median_big <= 0.05
    assert median_freq > median_small
    assert elapsed <= 1800.0
    print(
        f"criterion 6 PASS: ANN median error {median_big:.4f} at m=10K (<= 5%); "
        f"at m=2K frequentist {median_freq:.4f} > ANN {median_small:.4f}; "
        f"{elapsed:.0f} s total"
    )


def test_criterion_7_partition_gain_coincidence():
    scenario = build_scenario("password")
    count = 100000
    train = sample_joint(
        (scenario.prior, scenario.channel), count, stream(7, "acceptance/pw/data")
    )
    weighted = data_table(train, scenario.gain)
    pairs = sample_preprocessed_pairs(
        channel_preprocess(scenario.prior, scenario.gain), scenario.channel, count,
        stream(7, "acceptance/pw/chan"),
    )
    pairs = PairTable(pairs.secrets, *pairs.counts)  # weight 1 per pair

    def histogram(table):
        h = np.zeros((2, 129))
        h[:, table.distinct[:, 0]] = table.tallies.T
        return h / h.sum()

    tv = 0.5 * np.abs(histogram(weighted) - histogram(pairs)).sum()
    assert tv <= 0.02

    rc = reduced_channel(TOTAL_BITS, KNOWN_PREFIX, DELAY_NU)
    assert rc.rows.shape == (2, 128)
    np.testing.assert_allclose(rc.rows.sum(axis=1), 1.0, atol=1e-9)

    # end to end the two reductions land on the same estimate
    est_data = leak(
        "estimate", "--scenario", "password", "--method", "data",
        "--m", "10000", "--n", "10000",
    )
    est_chan = leak(
        "estimate", "--scenario", "password", "--method", "channel",
        "--m", "10000", "--n", "10000",
    )
    agreement = abs(est_data["estimate"] - est_chan["estimate"]) / est_data["exact"]
    assert agreement <= 0.02
    print(
        f"criterion 7 PASS: training-pair TV {tv:.4f} (<= 0.02) at 1e5 samples; "
        f"RC 2x128 row-stochastic; estimates agree within {agreement:.4f}"
    )


def test_criterion_8_bound_calculators():
    # ceil-level agreement with an independent evaluation of the closed forms
    delta, split, b = 0.05, 0.025, 1.0
    for eps in (0.05, 0.1, 0.2):
        for s2 in (0.04, 0.25):
            for h in (45, 2025):
                payload = leak(
                    "bounds", "--m", "100", "--n", "100", "--sigma2", str(s2),
                    "--range", "0", "1", "--hypotheses", str(h),
                    "--epsilon", str(eps), "--delta", str(delta),
                    "--split", str(split),
                )
                m_expect = math.ceil(
                    (8 * s2 + 4 * b * eps / 3) / eps**2 * math.log(2 * h / (delta - split))
                )
                n_expect = math.ceil(
                    (2 * s2 + 2 * b * eps / 3) / eps**2 * math.log(2 / split)
                )
                assert payload["M"] == m_expect, (eps, s2, h)
                assert payload["N"] == n_expect, (eps, s2, h)
    reference = leak(
        "bounds", "--m", "10000", "--n", "10000", "--sigma2", "0.25",
        "--range", "0", "1", "--hypotheses", "45", "--epsilon", "0.1",
        "--delta", "0.05", "--split", "0.025",
    )
    assert reference["N"] == 249

    # Monte Carlo: the deviation bound dominates observed frequencies
    secrets = Alphabet.integers(2)
    prior = random_prior(np.random.default_rng(8), 2)
    channel = random_channel(np.random.default_rng(9), secrets, 4)
    fixed = fixed_strategy([0, 0, 1, 1])
    gain = identity_gain(secrets)
    truth = strategy_gain(fixed, prior, channel, gain)
    sigma2 = truth * (1.0 - truth)  # exact: per-sample values are 0/1
    n, eps, resamples = 100, 0.08, 2000
    bound = leak(
        "bounds", "--m", "100", "--n", str(n), "--sigma2", str(sigma2),
        "--range", "0", "1", "--hypotheses", "1", "--epsilon", str(eps),
        "--delta", "0.05", "--split", "0.025",
    )["validation_deviation_prob"]
    hits = 0
    for r in range(resamples):
        valid = sample_joint((prior, channel), n, stream(r, "acceptance/mc"))
        if abs(empirical_functional(fixed, valid, gain) - truth) >= eps:
            hits += 1
    observed = hits / resamples
    slack = 3.0 * math.sqrt(max(bound * (1.0 - bound), 1e-12) / resamples)
    assert observed <= bound + slack
    print(
        f"criterion 8 PASS: (M, N) match on 12 parameter points, N = 249 frozen; "
        f"observed deviation {observed:.4f} <= bound {bound:.4f} + 3 sigma"
    )


def test_criterion_9_metrics_identity_and_reproducibility(tmp_path):
    argv = (
        "scenario", "multi-guess", "--methods", "data,frequentist",
        "--learners", "knn", "--sizes", "300,600", "--train-sets", "2",
        "--valid-sets", "2", "--valid-size", "300", "--seed", "11",
    )
    first, second = tmp_path / "first", tmp_path / "second"
    first.mkdir()
    second.mkdir()
    leak_lines(*argv, "--out", str(first / "run"))
    leak_lines(*argv, "--out", str(second / "run"))
    for name in ("run.summary.json", "run.trials.csv", "run.boxplot.csv"):
        assert (first / name).read_bytes() == (second / name).read_bytes(), name

    summary = json.loads((first / "run.summary.json").read_text())
    assert len(summary["results"]) == 4
    worst = max(
        abs(r["dispersion"] ** 2 + r["mean"] ** 2 - r["total_error"] ** 2)
        for r in summary["results"]
    )
    assert worst <= 1e-12
    print(
        f"criterion 9 PASS: byte-identical rerun; worst metrics-identity "
        f"residual {worst:.2e} (<= 1e-12)"
    )
