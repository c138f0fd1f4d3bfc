"""End-to-end tests of the `leak` command line, driven through main(argv)."""

import json
import math
import os
import re
import shutil
import subprocess
import sys
from importlib.metadata import EntryPoint
from pathlib import Path

import numpy as np
import pytest

import gleak
from conftest import gains_of, write_gain, write_samples
from gleak import Alphabet, Channel, GainFunction, Prior, identity_gain, sample_joint, stream
from gleak.cli import main
from gleak.io import (
    read_channel,
    read_gain,
    read_prior,
    read_samples,
    write_channel,
    write_prior,
)
from gleak.preprocess import rationalize_gain
from oracles import reference_data_preprocess


@pytest.fixture(scope="module")
def assets(tmp_path_factory):
    """Input files for a small 2-secret, 3-observable instance."""
    root = tmp_path_factory.mktemp("cli-assets")
    secrets = Alphabet.integers(2)
    prior = Prior(secrets, np.array([0.3, 0.7]))
    channel = Channel(
        secrets,
        Alphabet.integers(3),
        np.array([[0.7, 0.2, 0.1], [0.1, 0.3, 0.6]]),
    )
    write_prior(prior, root / "prior.txt")
    write_channel(channel, root / "chan.txt")
    write_gain(identity_gain(secrets), root / "gain.txt")
    write_gain(GainFunction(secrets, secrets, np.zeros((2, 2))), root / "zero.txt")
    # every entry negative: V_g(pi) = -0.95 and V_g(pi, C) = -0.915
    write_gain(
        GainFunction(secrets, secrets, np.array([[-1.0, -3.0], [-2.0, -0.5]])),
        root / "negative.txt",
    )
    train = sample_joint((prior, channel), 500, stream(3, "cli/train"))
    write_samples(train, root / "samples.csv")
    return root


def run_cli(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_json(capsys, argv):
    code, out, err = run_cli(capsys, argv)
    assert code == 0, err
    return json.loads(out)


def weighted_csv(entries) -> bytes:
    """Weighted entries as ``leak preprocess`` lines, ended as ``csv`` ends them."""
    rows = zip(entries.ws.tolist(), entries.ys.tolist(), entries.weights.tolist())
    return "".join(
        f"{entries.guesses.label(w)},{'|'.join(map(str, y))},{weight}\r\n"
        for w, y, weight in rows
    ).encode()


def declared_script(name):
    """The `module:attr` value of `name` in pyproject.toml's [project.scripts].

    Read line by line rather than with tomllib, which Python 3.10 lacks.
    """
    pyproject = Path(__file__).resolve().parents[1] / "pyproject.toml"
    section = None
    for line in pyproject.read_text().splitlines():
        line = line.strip()
        if line.startswith("["):
            section = line
        elif section == "[project.scripts]":
            match = re.fullmatch(rf'{re.escape(name)}\s*=\s*"([^"]+)"', line)
            if match:
                return match.group(1)
    raise AssertionError(f"no {name!r} in [project.scripts] of {pyproject}")


@pytest.mark.parametrize("command", ["exact", "estimate"])
@pytest.mark.parametrize("profile", ["desk", "paper"])
def test_profile_with_file_inputs_rejected(capsys, assets, command, profile):
    code, out, err = run_cli(
        capsys,
        [command, "--prior", str(assets / "prior.txt"), "--channel", str(assets / "chan.txt"),
         "--profile", profile],
    )
    assert code == 2 and out == ""
    assert err.startswith("error: --profile ")


class TestExact:
    def test_files_multiplicative(self, capsys, assets):
        payload = run_json(
            capsys,
            ["exact", "--prior", str(assets / "prior.txt"),
             "--channel", str(assets / "chan.txt")],
        )
        # posterior: 0.21 + 0.21 + 0.42; prior: max(0.3, 0.7)
        assert payload["prior_vulnerability"] == pytest.approx(0.7, abs=1e-12)
        assert payload["posterior_vulnerability"] == pytest.approx(0.84, abs=1e-12)
        assert payload["leakage"] == pytest.approx(1.2, abs=1e-12)
        assert payload["mode"] == "multiplicative"
        assert payload["wall_time"] >= 0.0

    def test_additive_mode(self, capsys, assets):
        payload = run_json(
            capsys,
            ["exact", "--prior", str(assets / "prior.txt"),
             "--channel", str(assets / "chan.txt"), "--mode", "additive"],
        )
        assert payload["leakage"] == pytest.approx(0.14, abs=1e-12)
        assert payload["mode"] == "additive"

    def test_gain_defaults_to_identity(self, capsys, assets):
        base = ["--prior", str(assets / "prior.txt"), "--channel", str(assets / "chan.txt")]
        implicit = run_json(capsys, ["exact"] + base)
        explicit = run_json(capsys, ["exact"] + base + ["--gain", str(assets / "gain.txt")])
        for key in ("prior_vulnerability", "posterior_vulnerability", "leakage"):
            assert implicit[key] == explicit[key]

    def test_builtin_scenario(self, capsys):
        payload = run_json(capsys, ["exact", "--scenario", "multi-guess"])
        assert payload["posterior_vulnerability"] == pytest.approx(
            0.394053718697675, abs=1e-12
        )
        assert payload["prior_vulnerability"] == pytest.approx(0.2, abs=1e-12)
        assert payload["leakage"] == pytest.approx(
            0.394053718697675 / 0.2, abs=1e-12
        )

    def test_out_file_matches_stdout(self, capsys, assets, tmp_path):
        out_path = tmp_path / "exact.json"
        code, out, _ = run_cli(
            capsys,
            ["exact", "--scenario", "dp", "--out", str(out_path)],
        )
        assert code == 0
        assert out_path.read_text() == out

    def test_zero_prior_vulnerability_rejected(self, capsys, assets):
        code, _, err = run_cli(
            capsys,
            ["exact", "--prior", str(assets / "prior.txt"),
             "--channel", str(assets / "chan.txt"),
             "--gain", str(assets / "zero.txt")],
        )
        assert code == 2
        assert "prior vulnerability" in err

    def test_negative_prior_vulnerability_rejected(self, capsys, assets):
        # the channel leaks (-0.915 > -0.95), but the ratio of two negative
        # vulnerabilities comes out below 1
        argv = ["exact", "--prior", str(assets / "prior.txt"),
                "--channel", str(assets / "chan.txt"),
                "--gain", str(assets / "negative.txt")]
        code, out, err = run_cli(capsys, argv)
        assert code == 2 and out == ""
        assert "positive prior vulnerability" in err
        payload = run_json(capsys, argv + ["--mode", "additive"])
        assert payload["leakage"] == pytest.approx(0.035, abs=1e-12)

    @pytest.mark.parametrize("command", ["exact", "estimate"])
    def test_scenario_with_file_flags_rejected(self, capsys, assets, command):
        code, out, err = run_cli(
            capsys,
            [command, "--scenario", "dp", "--prior", str(assets / "missing.txt"),
             "--channel", str(assets / "chan.txt")],
        )
        assert code == 2 and out == ""
        assert err.startswith("error:") and "--scenario" in err
        assert "--prior" in err and "--channel" in err and "--gain" not in err

    def test_requires_scenario_or_files(self, capsys):
        code, _, err = run_cli(capsys, ["exact"])
        assert code == 2
        assert "provide --scenario or both" in err

    def test_missing_channel_file(self, capsys, assets):
        code, _, err = run_cli(
            capsys,
            ["exact", "--prior", str(assets / "prior.txt"),
             "--channel", str(assets / "missing.txt")],
        )
        assert code == 2
        assert err.startswith("error:")

    @pytest.mark.parametrize("command", ["exact", "estimate"])
    @pytest.mark.parametrize("flag", ["--prior", "--channel", "--gain"])
    def test_empty_file_flag_rejected(self, capsys, assets, command, flag):
        # an empty path names no file: "--gain ''" is not the identity gain
        paths = {
            "--prior": str(assets / "prior.txt"),
            "--channel": str(assets / "chan.txt"),
            "--gain": str(assets / "gain.txt"),
        }
        paths[flag] = ""
        argv = [command] + [part for item in paths.items() for part in item]
        code, out, err = run_cli(capsys, argv)
        assert code == 2 and out == ""
        assert err.startswith("error:") and flag in err
        assert [other for other in paths if other != flag and other in err] == []


class TestEstimate:
    def files(self, assets):
        return ["--prior", str(assets / "prior.txt"), "--channel", str(assets / "chan.txt")]

    @pytest.mark.parametrize("method", ["data", "channel", "frequentist"])
    @pytest.mark.parametrize("flag", ["--m", "--n"])
    def test_zero_sample_count_names_its_flag(self, capsys, method, flag):
        argv = ["estimate", "--scenario", "dp", "--method", method, flag, "0"]
        code, out, err = run_cli(capsys, argv)
        assert code == 2 and out == ""
        assert err.startswith("error:") and f"{flag} must be >= 1" in err

    def test_data_knn_from_files(self, capsys, assets):
        payload = run_json(
            capsys,
            ["estimate"] + self.files(assets) + ["--m", "2000", "--n", "2000"],
        )
        assert payload["method"] == "data-preproc"
        assert payload["learner"] == "knn"
        assert payload["m"] == 2000 and payload["n"] == 2000
        assert 0.0 < payload["estimate"] <= 1.0

    def test_all_methods_near_exact(self, capsys, assets):
        # exact posterior vulnerability of the asset instance is 0.84
        for method in ("data", "channel", "frequentist"):
            payload = run_json(
                capsys,
                ["estimate"] + self.files(assets)
                + ["--method", method, "--m", "2000", "--n", "2000", "--seed", "1"],
            )
            assert abs(payload["estimate"] - 0.84) < 0.1, method

    def test_scenario_reports_exact_and_error(self, capsys):
        payload = run_json(
            capsys,
            ["estimate", "--scenario", "multi-guess", "--m", "500", "--n", "500"],
        )
        assert payload["exact"] == pytest.approx(0.394053718697675, abs=1e-12)
        expected = abs(payload["estimate"] - payload["exact"]) / payload["exact"]
        assert payload["normalized_error"] == pytest.approx(expected, abs=1e-12)
        streams = {v["stream"] for v in payload["seeds"].values()}
        assert streams == {
            "multi-guess/estimate/train",
            "multi-guess/estimate/valid",
            "multi-guess/estimate/learner",
        }

    @pytest.mark.parametrize("method", ["data", "channel", "frequentist"])
    def test_files_report_exact_and_error(self, capsys, assets, method):
        exact = run_json(capsys, ["exact"] + self.files(assets))["posterior_vulnerability"]
        payload = run_json(
            capsys,
            ["estimate"] + self.files(assets)
            + ["--method", method, "--m", "500", "--n", "500"],
        )
        assert payload["exact"] == exact
        assert payload["normalized_error"] == abs(payload["estimate"] - exact) / exact

    @pytest.mark.parametrize("method", ["data", "channel", "frequentist"])
    def test_nonpositive_exact_gives_null_error(self, capsys, assets, method):
        payload = run_json(
            capsys,
            ["estimate"] + self.files(assets)
            + ["--gain", str(assets / "negative.txt"), "--method", method,
               "--m", "300", "--n", "300"],
        )
        assert payload["exact"] <= 0.0
        assert payload["normalized_error"] is None

    @pytest.mark.parametrize("method, message", [
        ("data", "gain is zero on every sampled secret"),
        ("channel", "zero everywhere"),
        ("frequentist", "gain is zero on every sampled secret"),
    ])
    def test_zero_gain_refused(self, capsys, assets, method, message):
        # the frequentist reads the data table, so it refuses the gain as
        # the data method does
        code, out, err = run_cli(
            capsys,
            ["estimate"] + self.files(assets)
            + ["--gain", str(assets / "zero.txt"), "--method", method, "--m", "300", "--n", "300"],
        )
        assert code == 2 and out == ""
        assert err.startswith("error:") and message in err

    def test_files_and_scenarios_share_one_key_set(self, capsys, assets):
        sizes = ["--m", "300", "--n", "300"]
        from_files = run_json(capsys, ["estimate"] + self.files(assets) + sizes)
        from_scenario = run_json(capsys, ["estimate", "--scenario", "multi-guess"] + sizes)
        assert sorted(from_files) == sorted(from_scenario)
        assert {"exact", "normalized_error"} <= set(from_files)

    def test_channel_seeds_name_train_valid_and_learner(self, capsys):
        payload = run_json(
            capsys,
            ["estimate", "--scenario", "multi-guess", "--method", "channel",
             "--m", "300", "--n", "300"],
        )
        assert {key: v["stream"] for key, v in payload["seeds"].items()} == {
            "train": "multi-guess/estimate/pairs",
            "valid": "multi-guess/estimate/valid",
            "learner": "multi-guess/estimate/learner",
        }

    def test_deterministic_given_seed(self, capsys):
        argv = ["estimate", "--scenario", "dp", "--m", "400", "--n", "400", "--seed", "9"]
        first = run_json(capsys, argv)
        second = run_json(capsys, argv)
        first.pop("wall_time")
        second.pop("wall_time")
        assert first == second

    def test_seed_feeds_provenance(self, capsys):
        payload = run_json(
            capsys,
            ["estimate", "--scenario", "dp", "--m", "400", "--n", "400", "--seed", "9"],
        )
        assert all(v["master_seed"] == 9 for v in payload["seeds"].values())

    def test_mlp_with_overrides(self, capsys, assets):
        payload = run_json(
            capsys,
            ["estimate"] + self.files(assets)
            + ["--learner", "mlp", "--m", "300", "--n", "300",
               "--epochs", "3", "--batch", "50"],
        )
        assert payload["learner"] == "mlp"
        assert 0.0 < payload["estimate"] <= 1.0

    @pytest.mark.parametrize(
        "argv, named",
        [
            (["--learner", "knn", "--epochs", "5", "--batch", "7"], "--epochs, --batch"),
            (["--method", "frequentist", "--learner", "mlp", "--epochs", "5"], "--epochs"),
            (["--method", "channel", "--batch", "7"], "--batch"),
        ],
    )
    def test_mlp_overrides_without_an_mlp_rejected(self, capsys, monkeypatch, argv, named):
        def never_called(*args):
            raise AssertionError("estimate ran")

        monkeypatch.setattr("gleak.cli.estimate", never_called)
        code, out, err = run_cli(
            capsys, ["estimate", "--scenario", "multi-guess", "--m", "50", "--n", "50", *argv]
        )
        assert code == 2 and out == ""
        assert err.startswith(f"error: {named} set MLP training, but --method ")
        assert "trains no MLP" in err

    @pytest.mark.parametrize("learner", ["knn", "mlp"])
    def test_learner_for_the_frequentist_rejected(self, capsys, learner):
        code, out, err = run_cli(
            capsys,
            ["estimate", "--scenario", "multi-guess", "--m", "50", "--n", "50",
             "--method", "frequentist", "--learner", learner],
        )
        assert code == 2 and out == ""
        assert err.startswith(f"error: --learner {learner} given, but --method frequentist")

    def test_frequentist_without_learner_reports_none(self, capsys):
        payload = run_json(
            capsys,
            ["estimate", "--scenario", "multi-guess", "--m", "50", "--n", "50",
             "--method", "frequentist"],
        )
        assert payload["learner"] == "none"

    @pytest.mark.parametrize("method", ["data", "channel", "frequentist"])
    def test_estimate_outside_gain_range_is_numerical_failure(
        self, capsys, assets, monkeypatch, method
    ):
        monkeypatch.setattr("gleak.core._pair_gains", gains_of(2.0))
        code, _, err = run_cli(
            capsys,
            ["estimate"] + self.files(assets)
            + ["--method", method, "--m", "200", "--n", "200"],
        )
        assert code == 3
        assert err.startswith("numerical failure:")
        assert "escaped gain range" in err

    @pytest.mark.parametrize("method", ["data", "channel", "frequentist"])
    @pytest.mark.parametrize("flag", ["--m", "--n"])
    def test_empty_sample_size_is_usage_error(self, capsys, assets, method, flag):
        argv = (
            ["estimate"] + self.files(assets)
            + ["--method", method, "--m", "50", "--n", "50"]
        )
        argv[argv.index(flag) + 1] = "0"
        code, out, err = run_cli(capsys, argv)
        assert code == 2
        assert err.startswith("error:")
        assert out == ""

    def test_channel_preprocessing_runs_once(self, capsys, monkeypatch):
        import gleak.estimation

        calls = []
        original = gleak.estimation.channel_preprocess

        def counting(*args, **kwargs):
            calls.append(args)
            return original(*args, **kwargs)

        monkeypatch.setattr(gleak.estimation, "channel_preprocess", counting)
        run_json(
            capsys,
            ["estimate", "--scenario", "multi-guess", "--method", "channel",
             "--m", "300", "--n", "300"],
        )
        assert len(calls) == 1

    def test_out_written(self, capsys, assets, tmp_path):
        out_path = tmp_path / "est.json"
        payload = run_json(
            capsys,
            ["estimate"] + self.files(assets)
            + ["--method", "frequentist", "--m", "500", "--n", "500",
               "--out", str(out_path)],
        )
        assert json.loads(out_path.read_text()) == payload


class TestScenarioCommand:
    def test_tiny_trial_matrix(self, capsys, tmp_path):
        prefix = tmp_path / "run1"
        code, out, err = run_cli(
            capsys,
            ["scenario", "multi-guess", "--methods", "data,frequentist",
             "--learners", "knn", "--sizes", "300", "--train-sets", "1",
             "--valid-sets", "2", "--valid-size", "300", "--out", str(prefix)],
        )
        assert code == 0, err
        lines = out.strip().splitlines()
        cells = [ln for ln in lines if ln.startswith(("data", "frequentist"))]
        wrote = [ln for ln in lines if ln.startswith("wrote ")]
        assert len(cells) == 2 and len(wrote) == 3
        assert all("mean=" in ln and "dispersion=" in ln for ln in cells)

        summary = json.loads((tmp_path / "run1.summary.json").read_text())
        assert summary["config"]["scenario"] == "multi-guess"
        assert len(summary["results"]) == 2
        trials = (tmp_path / "run1.trials.csv").read_text().splitlines()
        assert trials[0] == "scenario,method,learner,m,n,i,j,estimate,exact,delta"
        assert len(trials) == 1 + 4  # 2 cells x (1 train set x 2 valid sets)
        box = (tmp_path / "run1.boxplot.csv").read_text().splitlines()
        assert box[0] == "scenario,method,learner,m,min,q1,median,q3,max"
        assert len(box) == 3

    def test_workers_write_the_same_artifacts(self, capsys, tmp_path):
        written = {}
        for workers in ("1", "2"):
            prefix = tmp_path / f"w{workers}"
            code, _, err = run_cli(
                capsys,
                ["scenario", "multi-guess", "--methods", "data,frequentist",
                 "--learners", "knn", "--sizes", "300,600", "--train-sets", "2",
                 "--valid-sets", "2", "--valid-size", "300", "--workers", workers,
                 "--out", str(prefix)],
            )
            assert code == 0, err
            written[workers] = [
                (tmp_path / f"w{workers}.{kind}").read_text()
                for kind in ("summary.json", "trials.csv", "boxplot.csv")
            ]
        summary, *rest = written["2"]
        assert json.loads(summary)["config"]["workers"] == 2
        assert [summary.replace('"workers": 2', '"workers": 1'), *rest] == written["1"]

    def test_estimate_outside_gain_range_is_numerical_failure(
        self, capsys, tmp_path, monkeypatch
    ):
        monkeypatch.setattr("gleak.core._pair_gains", gains_of(2.0))
        code, out, err = run_cli(
            capsys,
            ["scenario", "multi-guess", "--methods", "frequentist", "--sizes", "300",
             "--train-sets", "1", "--valid-sets", "1", "--valid-size", "300",
             "--out", str(tmp_path / "run")],
        )
        assert code == 3 and "escaped gain range" in err
        assert not list(tmp_path.iterdir())

    def test_unknown_scenario_rejected(self, capsys):
        code, _, _ = run_cli(capsys, ["scenario", "bogus"])
        assert code == 2

    def test_files_is_no_builtin_scenario(self, capsys, tmp_path):
        # "files" names the scenario `leak estimate` reads from files only
        for argv in (["scenario", "files", "--out", str(tmp_path / "run")],
                     ["estimate", "--scenario", "files"], ["exact", "--scenario", "files"]):
            assert run_cli(capsys, argv)[0] == 2
        assert not list(tmp_path.iterdir())

    @pytest.mark.parametrize(
        "flag, value, field",
        [
            ("--valid-sets", "0", "num_valid_sets"),
            ("--train-sets", "-1", "num_train_sets"),
            ("--valid-size", "0", "valid_size"),
            ("--sizes", "300,0", "sizes"),
            ("--methods", "frequentist,frequentist", "methods"),
            ("--learners", "knn,knn", "learners"),
            ("--sizes", "200,200", "sizes"),
            ("--gowalla", "/nonexistent/dump.txt", "gowalla_path"),
        ],
    )
    def test_counts_below_one_rejected(self, capsys, tmp_path, flag, value, field):
        code, _, err = run_cli(
            capsys,
            ["scenario", "multi-guess", "--methods", "frequentist", "--learners", "knn",
             flag, value, "--out", str(tmp_path / "run")],
        )
        assert code == 2
        assert err.startswith("error:") and field in err
        assert not list(tmp_path.iterdir())

    @pytest.mark.parametrize(
        "flag, field", [("--methods", "methods"), ("--learners", "learners"), ("--sizes", "sizes")]
    )
    def test_empty_list_rejected_before_work(
        self, capsys, tmp_path, monkeypatch, flag, field
    ):
        # an empty list is not "use the default list"
        def refuse(config):
            raise AssertionError(f"trial matrix ran with {config}")

        monkeypatch.setattr("gleak.cli.run_trial_matrix", refuse)
        code, out, err = run_cli(
            capsys, ["scenario", "multi-guess", flag, "", "--out", str(tmp_path / "run")]
        )
        assert code == 2 and out == ""
        assert err == f"error: {field} must not be empty\n"
        assert not list(tmp_path.iterdir())

    def test_empty_gowalla_path_is_read(self, capsys, tmp_path):
        # an empty path names no file; it is not taken as "no dump"
        code, out, err = run_cli(
            capsys,
            ["scenario", "location", "--gowalla", "", "--methods", "frequentist",
             "--sizes", "300", "--train-sets", "1", "--valid-sets", "1",
             "--valid-size", "300", "--out", str(tmp_path / "run")],
        )
        assert code == 2
        assert err.startswith("error: cannot read check-in dump")
        assert out == "" and not list(tmp_path.iterdir())


class TestBounds:
    def base(self):
        return ["bounds", "--m", "10000", "--n", "10000", "--sigma2", "0.25",
                "--range", "0", "1", "--hypotheses", "2025",
                "--epsilon", "0.1", "--delta", "0.05", "--split", "0.025"]

    def test_report_payload(self, capsys):
        payload = run_json(capsys, self.base())
        assert payload["N"] == 249
        assert payload["M"] > payload["N"]
        assert payload["branch"] == "erf"
        assert 0.0 <= payload["validation_deviation_prob"] <= 1.0
        assert 0.0 <= payload["training_suboptimality_prob"] <= 1.0
        assert payload["expected_validation_gap"] > 0.0
        assert payload["expected_training_gap"] > 0.0

    def test_invalid_split_rejected(self, capsys):
        argv = self.base()
        argv[argv.index("--split") + 1] = "0.05"  # split == delta
        code, _, err = run_cli(capsys, argv)
        assert code == 2
        assert "split" in err

    @pytest.mark.parametrize("delta, split", [("5", "0.5"), ("3", "2.5")])
    def test_delta_above_one_rejected(self, capsys, delta, split):
        # delta is a failure probability: above 1, M or N came out negative
        code, out, err = run_cli(capsys, [
            "bounds", "--m", "10", "--n", "10", "--sigma2", "0.1", "--range", "0", "1",
            "--hypotheses", "1", "--epsilon", "0.1", "--delta", delta, "--split", split,
        ])
        assert code == 2
        assert out == ""
        assert err.startswith("error:") and "--delta" in err

    @pytest.mark.parametrize("flag, values", [
        ("--range", ["0", "inf"]),
        ("--range", ["nan", "1"]),
        ("--epsilon", ["inf"]),
        ("--sigma2", ["nan"]),
        ("--split", ["nan"]),
    ])
    def test_non_finite_input_rejected(self, capsys, flag, values):
        # an infinite range end or epsilon reached math.ceil as inf or NaN:
        # exit 3 or 2 with a conversion message that named no flag
        argv = self.base()
        at = argv.index(flag) + 1
        argv[at:at + len(values)] = values
        code, out, err = run_cli(capsys, argv)
        assert code == 2
        assert out == ""
        assert err.startswith("error:") and f"{flag[2:]} must be finite" in err

    def test_popoviciu_check_on_a_narrow_range(self, capsys):
        # sigma2 is 200 times (b - a)^2/4: an absolute slack of 1e-12 let it pass
        code, out, err = run_cli(capsys, [
            "bounds", "--m", "10", "--n", "10", "--sigma2", "5e-13", "--range", "0", "1e-7",
            "--hypotheses", "1", "--epsilon", "0.1", "--delta", "0.05", "--split", "0.025",
        ])
        assert code == 2 and out == ""
        assert err.startswith("error:") and "Popoviciu" in err

    def test_popoviciu_slack_covers_one_rounding_step(self, capsys):
        argv = self.base()
        argv[argv.index("--sigma2") + 1] = repr(float(np.nextafter(0.25, 1.0)))
        assert run_json(capsys, argv)["N"] == 249

    def test_range_takes_any_negative_float(self, capsys):
        # argparse took "-1e3" for an option string: "expected 2 arguments"
        payloads = []
        for low in ("-1e3", "-1000"):
            argv = self.base()
            argv[argv.index("--range") + 1] = low
            payloads.append(run_json(capsys, argv))
        assert payloads[0] == payloads[1]

    def test_negative_infinite_range_end_rejected(self, capsys):
        argv = self.base()
        argv[argv.index("--range") + 1] = "-inf"
        code, out, err = run_cli(capsys, argv)
        assert code == 2 and out == ""
        assert err.startswith("error:") and "range must be finite, got -inf" in err

    def test_oversized_hypothesis_count_rejected(self, capsys):
        # |H| beyond the largest float is an input the closed forms cannot
        # take: a validation error naming the limit, exit 2
        argv = self.base()
        argv[argv.index("--hypotheses") + 1] = "1" + "0" * 400
        code, _, err = run_cli(capsys, argv)
        assert code == 2
        assert err.startswith("error:") and repr(sys.float_info.max) in err

    def test_hypothesis_count_near_float_limit(self, capsys):
        # 2|H| / (delta - split) is beyond the largest float here, but |H|
        # itself is not: M comes out finite, the log taken as a sum of logs
        argv = self.base()
        argv[argv.index("--hypotheses") + 1] = "1" + "0" * 307
        payload = run_json(capsys, argv)
        ln_m = math.log(2.0 / 0.025) + 307 * math.log(10.0)
        assert abs(payload["M"] - (8 * 0.25 + 4 * 0.1 / 3) / 0.1**2 * ln_m) <= 1
        assert payload["N"] == 249

    @pytest.mark.parametrize("leading", ["1", "17"])
    def test_infinite_training_gap_is_numerical_failure(self, capsys, leading):
        # with m = 1, |H| * r_m overflows though |H| itself is a float; JSON
        # cannot carry the infinity, so nothing is printed and the exit is 3
        argv = self.base()
        argv[argv.index("--m") + 1] = "1"
        argv[argv.index("--hypotheses") + 1] = leading + "0" * 307
        code, out, err = run_cli(capsys, argv)
        assert code == 3
        assert err.startswith("numerical failure:") and "expected_training_gap" in err
        assert out == ""

    def small(self, *extra):
        return ["bounds", "--m", "10", "--n", "10", "--sigma2", "0.1", "--hypotheses", "1",
                "--delta", "0.05", "--split", "0.025", *extra]

    @pytest.mark.parametrize("high", ["1e200", "1.5e154"])
    def test_wide_finite_range_reported(self, capsys, high):
        # (b - a) ** 2 in the Popoviciu check raised OverflowError: exit 3
        # with "Numerical result out of range", though every field is finite
        payload = run_json(capsys, self.small("--range", "0", high, "--epsilon", "0.1"))
        assert payload["M"] > payload["N"] > float(high)
        assert payload["validation_deviation_prob"] == 1.0

    @pytest.mark.parametrize("extra, fields", [
        (["--range", "0", "1", "--epsilon", "1e-160"], "M, N"),
        (["--range", "0", "1", "--epsilon", "1e-170"], "M, N"),
        (["--range", "-1e308", "1e308", "--epsilon", "0.1"],
         "expected_validation_gap, expected_training_gap, M, N"),
    ], ids=["epsilon-1e-160", "epsilon-1e-170", "range-1e308"])
    def test_overflowing_sample_size_is_named(self, capsys, extra, fields):
        # math.ceil of an infinite M or N, or eps^2 underflowing to 0, raised
        # a conversion or division message that named no bound
        code, out, err = run_cli(capsys, self.small(*extra))
        assert code == 3 and out == ""
        assert err.strip() == f"numerical failure: bound is not finite: {fields}"

    def test_out_written(self, capsys, tmp_path):
        out_path = tmp_path / "bounds.json"
        payload = run_json(capsys, self.base() + ["--out", str(out_path)])
        assert json.loads(out_path.read_text()) == payload


class TestPreprocess:
    def test_data_mode(self, capsys, assets, tmp_path):
        prefix = tmp_path / "art"
        payload = run_json(
            capsys,
            ["preprocess", "--mode", "data", "--samples", str(assets / "samples.csv"),
             "--gain", str(assets / "gain.txt"), "--out", str(prefix)],
        )
        # identity gain: every sample becomes one weighted entry, merged by (w, y)
        assert payload["total_weight"] == 500
        assert payload["entries"] <= 2 * 3
        assert payload["rationalize_scale"] == 1
        rows = Path(payload["file"]).read_text().splitlines()
        assert len(rows) == payload["entries"]
        assert sum(int(row.split(",")[2]) for row in rows) == 500
        assert {row.split(",")[0] for row in rows} <= {"w0", "w1"}

    def test_channel_mode(self, capsys, assets, tmp_path):
        prefix = tmp_path / "art"
        payload = run_json(
            capsys,
            ["preprocess", "--mode", "channel", "--prior", str(assets / "prior.txt"),
             "--gain", str(assets / "gain.txt"), "--out", str(prefix)],
        )
        # identity gain: beta = sum(prior) = 1, tau = prior, R = identity
        assert payload["beta"] == pytest.approx(1.0, abs=1e-15)
        tau = read_prior(payload["tau"])
        np.testing.assert_allclose(tau.probs, [0.3, 0.7], atol=1e-15)
        reduced = read_channel(payload["R"])
        np.testing.assert_allclose(reduced.rows, np.eye(2), atol=1e-15)

    def test_data_mode_needs_samples_and_gain(self, capsys, assets, tmp_path):
        code, _, err = run_cli(
            capsys,
            ["preprocess", "--mode", "data", "--gain", str(assets / "gain.txt"),
             "--out", str(tmp_path / "x")],
        )
        assert code == 2
        assert "--samples" in err

    def test_data_mode_gain_zero_on_every_sample(self, capsys, assets, tmp_path):
        prefix = tmp_path / "art"
        code, out, err = run_cli(
            capsys,
            ["preprocess", "--mode", "data", "--samples", str(assets / "samples.csv"),
             "--gain", str(assets / "zero.txt"), "--out", str(prefix)],
        )
        assert code == 2
        assert out == ""
        assert "gain is zero on every sampled secret" in err
        assert list(tmp_path.iterdir()) == []

    def test_data_mode_rejects_encoding_outside_int64(self, capsys, assets, tmp_path):
        samples = tmp_path / "s.csv"
        samples.write_text("1,3\n0,1180591620717411303424\n")
        out_dir = tmp_path / "out"
        out_dir.mkdir()
        code, out, err = run_cli(
            capsys,
            ["preprocess", "--mode", "data", "--samples", str(samples),
             "--gain", str(assets / "gain.txt"), "--out", str(out_dir / "p")],
        )
        assert code == 2
        assert out == ""
        assert "malformed observable encoding" in err and str(samples) in err
        assert list(out_dir.iterdir()) == []

    def test_data_mode_at_int64_extremes(self, capsys, assets, tmp_path):
        # the (x, y0, y1) keys span more than int64 holds: rows are deduplicated
        # by numpy's unique over rows, which must match the sorting reference
        lo, hi = -(2**63), 2**63 - 1
        samples = tmp_path / "s.csv"
        samples.write_text(
            f"0,{hi}|{lo}\n1,{lo}|{hi}\n0,{hi}|{lo}\n1,0|0\n0,{lo}|{hi}\n1,{lo}|{hi}\n"
        )
        prefix = tmp_path / "p"
        payload = run_json(
            capsys,
            ["preprocess", "--mode", "data", "--samples", str(samples),
             "--gain", str(assets / "gain.txt"), "--out", str(prefix)],
        )
        gain, _ = rationalize_gain(read_gain(assets / "gain.txt"))
        reference = reference_data_preprocess(read_samples(samples, gain.secrets), gain)
        expected = weighted_csv(reference)
        assert Path(payload["file"]).read_bytes() == expected
        assert f"w0,{hi}|{lo},2" in expected.decode().splitlines()

    @pytest.mark.parametrize("header", ["0 0", "0 3"])
    @pytest.mark.parametrize(
        "mode, given",
        [("data", ("--samples", "samples.csv")), ("channel", ("--prior", "prior.txt"))],
    )
    def test_gain_with_a_zero_dimension_rejected(
        self, capsys, assets, tmp_path, mode, given, header
    ):
        gain = tmp_path / "g.txt"
        gain.write_text(f"{header}\n")
        out_dir = tmp_path / "out"
        out_dir.mkdir()
        flag, name = given
        code, out, err = run_cli(
            capsys,
            ["preprocess", "--mode", mode, flag, str(assets / name), "--gain", str(gain),
             "--out", str(out_dir / "p")],
        )
        assert code == 2
        assert out == ""
        assert err == f"error: {gain}: expected a '<rows> <cols>' header of positive sizes\n"
        assert list(out_dir.iterdir()) == []

    def test_channel_mode_needs_prior_and_gain(self, capsys, assets, tmp_path):
        code, _, err = run_cli(
            capsys,
            ["preprocess", "--mode", "channel", "--gain", str(assets / "gain.txt"),
             "--out", str(tmp_path / "x")],
        )
        assert code == 2
        assert "--prior" in err

    @pytest.mark.parametrize(
        "mode, given, unread",
        [("channel", ("--prior", "prior.txt"), "--samples"),
         ("data", ("--samples", "samples.csv"), "--prior")],
    )
    def test_other_mode_input_rejected(self, capsys, assets, tmp_path, mode, given, unread):
        # the other mode's input flag is not silently dropped, even when its
        # file does not exist
        flag, name = given
        code, out, err = run_cli(
            capsys,
            ["preprocess", "--mode", mode, flag, str(assets / name),
             "--gain", str(assets / "gain.txt"), unread, str(tmp_path / "missing"),
             "--out", str(tmp_path / "art")],
        )
        assert code == 2
        assert out == ""
        assert err.startswith("error:") and unread in err
        assert list(tmp_path.iterdir()) == []


class TestMissingOutputDirectory:
    """An --out that is empty, or whose directory is missing, is refused
    before any work runs."""

    @pytest.fixture
    def never_called(self, monkeypatch):
        import gleak.cli

        def refuse(*args, **kwargs):
            raise AssertionError("work ran before the output directory was checked")

        for name in ("run_trial_matrix", "estimate", "rationalize_gain", "channel_preprocess"):
            monkeypatch.setattr(gleak.cli, name, refuse)

    @pytest.mark.parametrize(
        "argv",
        [
            ["scenario", "multi-guess", "--methods", "frequentist", "--learners", "knn"],
            ["estimate", "--scenario", "multi-guess", "--m", "300", "--n", "300"],
            ["preprocess", "--mode", "data", "--samples", "{assets}/samples.csv",
             "--gain", "{assets}/gain.txt"],
            ["preprocess", "--mode", "channel", "--prior", "{assets}/prior.txt",
             "--gain", "{assets}/gain.txt"],
        ],
        ids=["scenario", "estimate", "preprocess-data", "preprocess-channel"],
    )
    def test_refused_before_work(self, capsys, assets, tmp_path, never_called, argv):
        missing = tmp_path / "missing"
        argv = [arg.format(assets=assets) for arg in argv]
        code, out, err = run_cli(capsys, argv + ["--out", str(missing / "run")])
        assert code == 2
        assert err == f"error: output directory {missing} does not exist\n"
        assert out == ""
        assert not list(tmp_path.iterdir())

    @pytest.mark.parametrize(
        "argv",
        [
            ["scenario", "multi-guess", "--methods", "frequentist", "--learners", "knn"],
            ["estimate", "--scenario", "multi-guess", "--m", "300", "--n", "300"],
            ["exact", "--scenario", "multi-guess"],
            ["bounds", "--m", "100", "--n", "100", "--sigma2", "0.1", "--range", "0", "1",
             "--hypotheses", "10", "--epsilon", "0.1", "--delta", "0.05", "--split", "0.025"],
            ["preprocess", "--mode", "data", "--samples", "{assets}/samples.csv",
             "--gain", "{assets}/gain.txt"],
            ["preprocess", "--mode", "channel", "--prior", "{assets}/prior.txt",
             "--gain", "{assets}/gain.txt"],
        ],
        ids=["scenario", "estimate", "exact", "bounds", "preprocess-data", "preprocess-channel"],
    )
    def test_empty_out_refused(self, capsys, assets, tmp_path, monkeypatch, never_called, argv):
        monkeypatch.chdir(tmp_path)
        argv = [arg.format(assets=assets) for arg in argv]
        code, out, err = run_cli(capsys, argv + ["--out", ""])
        assert code == 2
        assert err == "error: --out given an empty path, which names no file\n"
        assert out == ""
        assert not list(tmp_path.iterdir())

    def test_scenario_needs_out(self, capsys, never_called):
        code, out, err = run_cli(capsys, ["scenario", "multi-guess"])
        assert code == 2
        assert "--out" in err


class TestUsage:
    def test_no_arguments_is_usage_error(self, capsys):
        assert run_cli(capsys, [])[0] == 2

    def test_help_exits_zero(self, capsys):
        code, out, _ = run_cli(capsys, ["--help"])
        assert code == 0
        assert "exact" in out and "estimate" in out

    def test_bad_choice_is_usage_error(self, capsys):
        assert run_cli(capsys, ["estimate", "--method", "bogus"])[0] == 2
        assert run_cli(capsys, ["exact", "--scenario", "bogus"])[0] == 2

    def test_console_script_installed(self):
        # Resolve the `leak` script declared in pyproject.toml the way an
        # installer does, then run it as a generated wrapper would, so the
        # check needs no prior install.
        value = declared_script("leak")
        assert callable(EntryPoint("leak", value, "console_scripts").load())
        wrapper = (
            "import sys; from importlib.metadata import EntryPoint; "
            f"sys.exit(EntryPoint('leak', {value!r}, 'console_scripts').load()())"
        )
        package_root = str(Path(gleak.__file__).resolve().parents[1])
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            filter(None, [package_root, env.get("PYTHONPATH")])
        )
        proc = subprocess.run(
            [sys.executable, "-c", wrapper, "--help"],
            capture_output=True, text=True, timeout=60, env=env,
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.startswith("usage: leak"), proc.stderr

    @pytest.mark.skipif(
        shutil.which("leak") is None, reason="leak console script not installed"
    )
    def test_console_script_on_path(self):
        proc = subprocess.run(
            [shutil.which("leak"), "--help"], capture_output=True, text=True, timeout=60
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.startswith("usage: leak"), proc.stderr

