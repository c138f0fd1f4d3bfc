"""Trial matrix execution, metrics identity, and artifact reproducibility."""

import json
import math

import numpy as np
import pytest

from gleak import (
    MetricsReport,
    NumericalError,
    TrialMatrixConfig,
    ValidationError,
    emit_reports,
    run_trial_matrix,
)
from gleak.harness import PROFILES, knn_config_for, mlp_config_for
from gleak.scenarios import build_scenario


def tiny_config(**overrides):
    base = dict(
        scenario="multi-guess",
        master_seed=0,
        profile="desk",
        methods=("data", "frequentist"),
        learners=("knn",),
        sizes=(300, 600),
        num_train_sets=2,
        num_valid_sets=3,
        valid_size=400,
    )
    base.update(overrides)
    return TrialMatrixConfig(**base)


class TestMetricsReport:
    def test_hand_values(self):
        report = MetricsReport.from_deltas(
            "s", "data", "knn", 10, 10, 1.0, np.array([0.0, 0.2])
        )
        assert report.mean == pytest.approx(0.1, abs=1e-15)
        assert report.dispersion == pytest.approx(0.1, abs=1e-15)
        assert report.total_error == pytest.approx(math.sqrt(0.02), abs=1e-15)

    def test_zero_dispersion_when_constant(self):
        report = MetricsReport.from_deltas(
            "s", "data", "knn", 10, 10, 1.0, np.full(6, 0.1)
        )
        assert report.dispersion == pytest.approx(0.0, abs=1e-12)
        assert report.total_error == pytest.approx(0.1, abs=1e-15)

    @pytest.mark.parametrize("seed", range(10))
    def test_identity_holds_for_random_deltas(self, seed):
        gen = np.random.default_rng(seed)
        deltas = gen.random((4, 7))
        report = MetricsReport.from_deltas("s", "m", "l", 1, 1, 1.0, deltas)
        lhs = report.dispersion**2 + report.mean**2
        assert lhs == pytest.approx(report.total_error**2, abs=1e-12)

    def test_identity_failure_is_numerical_error(self):
        with pytest.raises(NumericalError, match="metrics identity"):
            MetricsReport.from_deltas("s", "m", "l", 1, 1, 1.0, np.array([np.nan]))

    def test_as_dict_fields(self):
        report = MetricsReport.from_deltas(
            "s", "data", "knn", 10, 20, 0.5, np.array([0.1])
        )
        d = report.as_dict()
        assert d["m"] == 10 and d["n"] == 20 and d["exact"] == 0.5
        assert "deltas" not in d


class TestTrialMatrixConfig:
    def test_defaults_resolve_from_profile(self):
        config = TrialMatrixConfig(scenario="dp")
        resolved = config.resolved()
        assert resolved["schema"] == 1
        assert resolved["sizes"] == [2000, 10000, 30000]
        assert resolved["num_train_sets"] == 3
        assert resolved["num_valid_sets"] == 10
        assert resolved["valid_size"] == 10000

    def test_paper_profile_matches_reference_grid(self):
        profile = PROFILES["paper"]
        assert profile.num_train_sets == 5
        assert profile.num_valid_sets == 50
        assert profile.sizes == (10000, 30000, 50000)
        assert profile.valid_size == 50000

    def test_overrides_win(self):
        resolved = tiny_config().resolved()
        assert resolved["sizes"] == [300, 600]
        assert resolved["num_valid_sets"] == 3

    def test_validation(self):
        with pytest.raises(ValidationError, match="scenario"):
            tiny_config(scenario="aes")
        with pytest.raises(ValidationError, match="profile"):
            tiny_config(profile="huge")
        with pytest.raises(ValidationError, match="method"):
            tiny_config(methods=("bayesian",))
        with pytest.raises(ValidationError, match="learner"):
            tiny_config(learners=("svm",))
        with pytest.raises(ValidationError, match="workers"):
            tiny_config(workers=0)


class TestLearnerConfigTables:
    def test_knn_uses_scenario_metric(self):
        scenario = build_scenario("dp")
        config = knn_config_for(scenario)
        assert config.metric.kind == "manhattan"
        assert config.metric.codec is scenario.codec

    def test_mlp_published_parameters(self):
        scenario = build_scenario("multi-guess")
        config = mlp_config_for(scenario, "data", "paper", 10000, (10000, 30000, 50000))
        assert config.hidden == (100, 100, 100)
        assert config.learning_rate == 1e-3
        assert config.epochs == 700 and config.batch_size == 1000

    def test_mlp_per_size_selection(self):
        scenario = build_scenario("location")
        sizes = (10000, 30000, 50000)
        small = mlp_config_for(scenario, "channel", "paper", 10000, sizes)
        large = mlp_config_for(scenario, "channel", "paper", 50000, sizes)
        assert (small.epochs, small.batch_size) == (200, 20)
        assert (large.epochs, large.batch_size) == (1000, 500)
        off_grid = mlp_config_for(scenario, "channel", "paper", 777, sizes)
        assert (off_grid.epochs, off_grid.batch_size) == (1000, 500)

    def test_desk_budgets_are_smaller(self):
        scenario = build_scenario("password")
        desk = mlp_config_for(scenario, "data", "desk", 2000, (2000,))
        paper = mlp_config_for(scenario, "data", "paper", 10000, (10000,))
        assert desk.epochs < paper.epochs


@pytest.fixture(scope="module")
def run():
    config = tiny_config()
    return config, run_trial_matrix(config)


@pytest.fixture(scope="module")
def emitted(tmp_path_factory):
    config = tiny_config()
    metrics, rows = run_trial_matrix(config)
    out = tmp_path_factory.mktemp("reports")
    paths = emit_reports(metrics, rows, config.resolved(), out / "run")
    return config, metrics, rows, paths


class TestRunTrialMatrix:
    def test_row_and_cell_counts(self, run):
        config, (metrics, rows) = run
        # combos: (data, knn) and (frequentist, none); 2 sizes; I=2; J=3
        assert len(metrics) == 2 * 2
        assert len(rows) == 2 * 2 * 2 * 3

    def test_rows_carry_normalized_errors(self, run):
        config, (metrics, rows) = run
        for row in rows:
            assert row.delta == abs(row.estimate - row.exact) / row.exact
            assert row.n == 400
        exact = rows[0].exact
        scenario = build_scenario("multi-guess")
        assert exact == scenario.exact_vg

    def test_metrics_aggregate_their_rows(self, run):
        config, (metrics, rows) = run
        for report in metrics:
            cell = [
                r.delta
                for r in rows
                if (r.method, r.learner, r.m) == (report.method, report.learner, report.m)
            ]
            assert len(cell) == 6
            assert report.mean == pytest.approx(np.mean(cell), abs=1e-15)

    def test_frequentist_rows_have_no_learner(self, run):
        config, (metrics, rows) = run
        assert {r.learner for r in rows if r.method == "frequentist"} == {"none"}
        assert {r.learner for r in rows if r.method == "data"} == {"knn"}

    def test_learner_beats_frequentist_on_sparse_observables(self, run):
        # 300-600 samples cover a 1600-point observable space poorly, which
        # is exactly the regime where counting overfits and k-NN does not
        config, (metrics, rows) = run
        mean = {(r.method, r.m): r.mean for r in metrics}
        assert mean[("data", 300)] < mean[("frequentist", 300)]
        assert mean[("data", 600)] < mean[("frequentist", 600)]

    def test_rerun_is_identical(self, run):
        config, (metrics, rows) = run
        metrics2, rows2 = run_trial_matrix(config)
        assert rows2 == rows
        for a, b in zip(metrics2, metrics):
            assert a.as_dict() == b.as_dict()

    def test_workers_do_not_change_results(self, run):
        config, (metrics, rows) = run
        parallel = tiny_config(workers=4)
        metrics2, rows2 = run_trial_matrix(parallel)
        assert rows2 == rows

    def test_different_seed_changes_estimates(self, run):
        config, (metrics, rows) = run
        _, rows2 = run_trial_matrix(tiny_config(master_seed=1))
        assert any(a.estimate != b.estimate for a, b in zip(rows, rows2))

    def test_channel_method_runs(self):
        config = tiny_config(
            methods=("channel",), sizes=(300,), num_train_sets=1, num_valid_sets=2
        )
        metrics, rows = run_trial_matrix(config)
        assert len(rows) == 2
        assert {r.method for r in rows} == {"channel"}

    def test_prepared_scenario_bypasses_builder(self):
        scenario = build_scenario("multi-guess")
        config = tiny_config(sizes=(300,), num_train_sets=1, num_valid_sets=1)
        metrics, rows = run_trial_matrix(config, scenario=scenario)
        assert rows[0].exact == scenario.exact_vg


class TestEmitReports:
    def test_three_artifacts(self, emitted):
        config, metrics, rows, paths = emitted
        names = [p.name for p in paths]
        assert names == ["run.summary.json", "run.trials.csv", "run.boxplot.csv"]
        assert all(p.exists() for p in paths)

    def test_summary_embeds_resolved_config(self, emitted):
        config, metrics, rows, paths = emitted
        summary = json.loads(paths[0].read_text())
        assert summary["config"] == json.loads(json.dumps(config.resolved()))
        assert len(summary["results"]) == len(metrics)
        assert summary["config"]["schema"] == 1

    def test_trials_csv_shape(self, emitted):
        config, metrics, rows, paths = emitted
        lines = paths[1].read_text().splitlines()
        assert lines[0] == "scenario,method,learner,m,n,i,j,estimate,exact,delta"
        assert len(lines) == 1 + len(rows)
        first = lines[1].split(",")
        assert first[0] == "multi-guess"
        assert float(first[7]) == rows[0].estimate

    def test_boxplot_quantiles(self, emitted):
        config, metrics, rows, paths = emitted
        lines = paths[2].read_text().splitlines()
        assert lines[0] == "scenario,method,learner,m,min,q1,median,q3,max"
        assert len(lines) == 1 + len(metrics)
        for line, report in zip(lines[1:], metrics):
            fields = line.split(",")
            q = [float(v) for v in fields[4:]]
            expected = np.quantile(report.deltas.ravel(), [0, 0.25, 0.5, 0.75, 1])
            assert q == [pytest.approx(v, abs=0) for v in expected]

    def test_byte_reproducible(self, emitted, tmp_path):
        config, metrics, rows, paths = emitted
        metrics2, rows2 = run_trial_matrix(tiny_config())
        paths2 = emit_reports(metrics2, rows2, tiny_config().resolved(), tmp_path / "run")
        for a, b in zip(paths, paths2):
            assert a.read_bytes() == b.read_bytes()

    def test_missing_directory_rejected(self, emitted, tmp_path):
        config, metrics, rows, paths = emitted
        with pytest.raises(ValidationError, match="directory"):
            emit_reports(metrics, rows, config.resolved(), tmp_path / "no" / "run")
