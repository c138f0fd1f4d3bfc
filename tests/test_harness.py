"""Trial matrix execution, metrics identity, and artifact reproducibility."""

import json
import math
import sys
import weakref

import numpy as np
import pytest

from gleak import NumericalError, ValidationError, sample_joint, stream
from gleak import core, estimation, harness, preprocess
from gleak.estimation import TablePredictor
from gleak.harness import (
    METHODS,
    PROFILES,
    MetricsReport,
    TrialMatrixConfig,
    emit_reports,
    run_trial_matrix,
)
from gleak.scenarios import build_scenario
from conftest import gains_of
from oracles import reference_empirical_functional


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

    def test_equality_is_identity(self):
        deltas = np.array([0.1, 0.2])
        report = MetricsReport.from_deltas("s", "m", "l", 1, 1, 1.0, deltas)
        twin = MetricsReport.from_deltas("s", "m", "l", 1, 1, 1.0, deltas.copy())
        assert report == report and report != twin
        assert len({report, twin}) == 2

    def test_deltas_are_read_only(self):
        report = MetricsReport.from_deltas("s", "m", "l", 1, 1, 1.0, np.array([0.1, 0.2]))
        with pytest.raises(ValueError, match="read-only"):
            report.deltas[0] = 0.0


class TestTrialMatrixConfig:
    def test_defaults_resolve_from_profile(self):
        config = TrialMatrixConfig(scenario="dp")
        assert config.sizes == (2000, 10000, 30000)
        resolved = config.resolved()
        assert resolved["schema"] == 1
        assert resolved["sizes"] == [2000, 10000, 30000]
        assert resolved["num_train_sets"] == 3
        assert resolved["num_valid_sets"] == 10
        assert resolved["valid_size"] == 10000

    @pytest.mark.parametrize(
        "field, value",
        [
            ("num_train_sets", 0),
            ("num_valid_sets", 0),
            ("num_valid_sets", -1),
            ("valid_size", 0),
            ("sizes", ()),
            ("sizes", (2000, -5)),
            ("sizes", (200, 200)),
            ("methods", ()),
            ("methods", ("frequentist", "frequentist")),
            ("learners", ()),
            ("learners", ("knn", "knn")),
        ],
    )
    def test_counts_below_one_rejected(self, field, value):
        with pytest.raises(ValidationError, match=field):
            TrialMatrixConfig(scenario="dp", **{field: value})

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
        config = harness.learner_config(scenario, "data", "knn", "desk", 2000)
        assert config.kind == "manhattan"
        assert config is scenario.metric
        assert harness.learner_config(scenario, "frequentist", "none", "desk", 2000) is None

    def test_mlp_published_parameters(self):
        scenario = build_scenario("multi-guess")
        config = harness.learner_config(scenario, "data", "mlp", "paper", 10000)
        assert config.hidden == (100, 100, 100)
        assert config.learning_rate == 1e-3
        assert config.epochs == 700 and config.batch_size == 1000

    def test_mlp_per_size_selection(self):
        scenario = build_scenario("location")
        small = harness.learner_config(scenario, "channel", "mlp", "paper", 10000)
        large = harness.learner_config(scenario, "channel", "mlp", "paper", 50000)
        assert (small.epochs, small.batch_size) == (200, 20)
        assert (large.epochs, large.batch_size) == (1000, 500)
        off_grid = harness.learner_config(scenario, "channel", "mlp", "paper", 777)
        assert (off_grid.epochs, off_grid.batch_size) == (1000, 500)

    def test_desk_budgets_are_smaller(self):
        scenario = build_scenario("password")
        desk = harness.learner_config(scenario, "data", "mlp", "desk", 2000)
        paper = harness.learner_config(scenario, "data", "mlp", "paper", 10000)
        assert desk.epochs < paper.epochs

    def test_trial_matrix_selects_paper_settings_by_profile_sizes(self, monkeypatch):
        # a run over --sizes 50000 alone trains with the 50k entries of the
        # paper table, as `leak estimate --m 50000` does, not the first ones
        seen = []

        def fake_fit(method, prior, channel, gain, m, config, *streams, train=None):
            seen.append((m, config.epochs, config.batch_size))
            return TablePredictor(np.zeros((1, 1)), np.zeros(1), fallback=0), {}

        monkeypatch.setattr(harness, "fit", fake_fit)
        config = TrialMatrixConfig(
            scenario="location", profile="paper", methods=("channel",),
            learners=("mlp",), sizes=(50000,), num_train_sets=1,
            num_valid_sets=1, valid_size=10,
        )
        run_trial_matrix(config)
        assert seen == [(50000, 1000, 500)]


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
    @pytest.mark.parametrize("value", [1.5, -0.25, float("nan")])
    def test_estimate_outside_gain_range_is_numerical_error(self, monkeypatch, value):
        # multi-guess's gain lies in [0, 1]
        monkeypatch.setattr(core, "_pair_gains", gains_of(value))
        with pytest.raises(NumericalError, match="escaped gain range"):
            run_trial_matrix(tiny_config(sizes=(300,), num_train_sets=1))

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

    def test_gowalla_path_rejected_outside_location(self):
        # checked where the scenario is built, before any sampling
        with pytest.raises(ValidationError, match="gowalla_path"):
            run_trial_matrix(tiny_config(scenario="dp", gowalla_path="dump.txt"))

    def test_channel_method_runs(self):
        config = tiny_config(
            methods=("channel",), sizes=(300,), num_train_sets=1, num_valid_sets=2
        )
        metrics, rows = run_trial_matrix(config)
        assert len(rows) == 2
        assert {r.method for r in rows} == {"channel"}

    def test_each_model_predicts_once_on_distinct_rows(self, run, monkeypatch):
        """With J = 3 every model is asked once, on the distinct rows of the
        three validation sets, and each estimate equals the per-set path."""
        config, (_, rows) = run
        models, real_fit = [], harness.fit

        class Counting:
            def __init__(self, inner):
                self.inner, self.calls = inner, []

            def predict(self, ys):
                self.calls.append(np.array(ys))
                return self.inner.predict(ys)

        def counting_fit(*args, **kwargs):
            predictor, details = real_fit(*args, **kwargs)
            models.append(Counting(predictor))
            return models[-1], details

        monkeypatch.setattr(harness, "fit", counting_fit)
        harness.run_trial_matrix(config)
        assert len(models) == 2 * 2 * 2  # combos x sizes x I
        for model in models:
            assert len(model.calls) == 1
            asked = model.calls[0]
            assert np.unique(asked, axis=0).shape[0] == asked.shape[0]

        scenario = build_scenario("multi-guess")
        valid_sets = [
            sample_joint(
                (scenario.prior, scenario.channel), 400, stream(0, f"multi-guess/valid/j{j}")
            )
            for j in range(3)
        ]
        tasks = [  # in the order the harness trains them
            (method, learner, m, i)
            for m in (300, 600)
            for i in range(2)
            for method, learner in (("frequentist", "none"), ("data", "knn"))
        ]
        estimates = {(r.method, r.learner, r.m, r.i, r.j): r.estimate for r in rows}
        for model, task in zip(models, tasks):
            for j, valid in enumerate(valid_sets):
                per_set = reference_empirical_functional(model.inner, valid, scenario.gain)
                assert estimates[(*task, j)] == per_set


class TestSharedTrainingSets:
    """The data and frequentist methods train on one pi |> C set per (m, i)."""

    @pytest.mark.parametrize("workers", [1, 2, 4])
    def test_each_training_set_is_drawn_once(self, run, monkeypatch, workers):
        config, (_, rows) = run
        calls, real = [], harness.sample_joint

        def spy(source, count, train_stream, cdf=None):
            calls.append(train_stream.name)
            return real(source, count, train_stream, cdf)

        monkeypatch.setattr(harness, "sample_joint", spy)
        monkeypatch.setattr(estimation, "sample_joint", spy)
        # more workers than cores, switching often: a race on the shared
        # sets would draw one twice or hand a task another's
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            _, rows2 = run_trial_matrix(tiny_config(workers=workers))
        finally:
            sys.setswitchinterval(interval)
        assert rows2 == rows
        # J validation sets and I x |sizes| training sets, not twice the latter
        assert len(calls) == 3 + 2 * 2
        assert sorted(calls) == sorted(
            [f"multi-guess/valid/j{j}" for j in range(3)]
            + [f"multi-guess/train/m{m}/i{i}" for m in (300, 600) for i in range(2)]
        )

    @pytest.mark.parametrize("scenario", ["multi-guess", "dp"])
    @pytest.mark.parametrize("methods, counts_per_set", [(("data", "frequentist"), 1), (METHODS, 2)])
    def test_each_training_set_is_counted_once(self, monkeypatch, scenario, methods, counts_per_set):
        # the shared pi |> C set once for data and frequentist, the channel
        # method's (w, y) pairs once more
        calls, real = [], core._count_table

        def spy(ys, labels, n_labels):
            calls.append(ys.shape[0])
            return real(ys, labels, n_labels)

        monkeypatch.setattr(core, "_count_table", spy)
        run_trial_matrix(tiny_config(scenario=scenario, methods=methods))
        assert sorted(calls) == sorted([300, 600] * 2 * counts_per_set)

    @pytest.mark.parametrize("methods", [("data", "frequentist"), METHODS])
    def test_each_training_set_builds_one_data_table(self, monkeypatch, methods):
        # location's gain is its own rationalization: the frequentist's table
        # under the gain is the data method's, one N G^T product per set
        built, real = [], preprocess.PairTable

        def spy(guesses, distinct, tallies):
            built.append(distinct.shape[0])
            return real(guesses, distinct, tallies)

        monkeypatch.setattr(preprocess, "PairTable", spy)
        config = tiny_config(scenario="location", methods=methods, num_valid_sets=1)
        run_trial_matrix(config)
        assert len(built) == len(config.sizes) * config.num_train_sets

    def test_mlp_expansion_reads_the_count_table(self, monkeypatch):
        # with kNN and MLP learners, each pi |> C set takes its distinct rows
        # once, for the one count table every model on it reads; the MLP is
        # stubbed, but the data table it takes is built
        calls, real = [], core._unique_rows

        def spy(a, *args, **kwargs):
            calls.append(a.shape[0])
            return real(a, *args, **kwargs)

        for module in [m for n, m in sys.modules.items() if n.startswith("gleak")]:
            if hasattr(module, "_unique_rows"):
                monkeypatch.setattr(module, "_unique_rows", spy)
        monkeypatch.setattr(
            estimation,
            "mlp_train",
            lambda data, config, source: TablePredictor(data.distinct[:1], [0], 0),
        )
        run_trial_matrix(tiny_config(learners=("knn", "mlp")))
        # the validation sets' union once, then each training set once
        assert calls == [3 * 400, 300, 300, 600, 600]

    def test_artifacts_do_not_depend_on_workers(self, tmp_path):
        written = {}
        for workers in (1, 2):
            config = tiny_config(methods=METHODS, workers=workers)
            metrics, rows = run_trial_matrix(config)
            paths = emit_reports(metrics, rows, config.resolved(), tmp_path / f"w{workers}")
            written[workers] = [path.read_bytes() for path in paths]
        summary, trials, boxplot = written[2]
        # summary.json records the worker count and nothing else differs
        assert summary.replace(b'"workers": 2', b'"workers": 1') == written[1][0]
        assert [trials, boxplot] == written[1][1:]


class TestFixedInputsOncePerMatrix:
    """The pi |> C CDF depends only on (pi, C): a matrix builds it once,
    and frees it after its last draw."""

    @pytest.mark.parametrize("workers", [1, 2])
    def test_desk_location_matrix_builds_one_cdf(self, monkeypatch, workers):
        sources, real_cdf = [], core.joint_cdf

        def cdf_spy(source):
            sources.append(source)
            return real_cdf(source)

        for module in (core, estimation, harness):
            monkeypatch.setattr(module, "joint_cdf", cdf_spy)
        config = TrialMatrixConfig(
            scenario="location", methods=METHODS, learners=("knn",), workers=workers
        )
        _, rows = run_trial_matrix(config)
        assert {r.j for r in rows} == set(range(10))
        assert {(r.m, r.i) for r in rows} == {(m, i) for m in (2000, 10000, 30000) for i in range(3)}
        assert len(sources) == 1

    def test_a_cdf_built_per_draw_gives_the_same_rows(self, monkeypatch):
        config = tiny_config(scenario="location", methods=METHODS, num_valid_sets=2)
        _, rows = run_trial_matrix(config)
        real_sample = harness.sample_joint
        monkeypatch.setattr(
            harness, "sample_joint", lambda source, count, s, cdf: real_sample(source, count, s)
        )
        assert run_trial_matrix(config)[1] == rows

    @pytest.mark.parametrize("methods", [METHODS, ("data", "frequentist"), ("channel",)])
    @pytest.mark.parametrize("sizes", [(500,), (300, 600)])
    def test_the_cdf_is_freed_after_the_last_draw(self, monkeypatch, methods, sizes):
        refs, alive_at_fit = [], []
        real_cdf, real_fit = harness.joint_cdf, harness.fit

        def cdf_spy(source):
            cdf = real_cdf(source)
            refs.append(weakref.ref(cdf))
            return cdf

        def fit_spy(method, *args, **kwargs):
            alive_at_fit.append(refs[0]() is not None)
            return real_fit(method, *args, **kwargs)

        monkeypatch.setattr(harness, "joint_cdf", cdf_spy)
        monkeypatch.setattr(harness, "fit", fit_spy)
        run_trial_matrix(tiny_config(
            scenario="location", methods=methods, sizes=sizes, num_train_sets=1,
            num_valid_sets=2,
        ))
        assert len(refs) == 1 and refs[0]() is None
        # in a one-job matrix it is dead when the first fit starts; with two
        # jobs each drawing a pi |> C set, the first job's fits run before
        # the second job's draw
        fits = len(alive_at_fit) // len(sizes)
        held = len(sizes) > 1 and methods != ("channel",)
        assert alive_at_fit == [held] * fits + [False] * (len(alive_at_fit) - fits)


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
