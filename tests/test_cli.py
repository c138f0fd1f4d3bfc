"""End-to-end tests of the `leak` command line, driven through main(argv)."""

import json
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
from gleak import (
    Alphabet,
    Channel,
    GainFunction,
    Prior,
    identity_gain,
    read_channel,
    read_prior,
    read_weighted,
    write_channel,
    write_gain,
    write_prior,
    write_samples,
)
from gleak.cli import main
from gleak.core import joint_from, sample_joint
from gleak.rng import stream


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
    train = sample_joint(joint_from(prior, channel), 500, stream(3, "cli/train"))
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


class TestEstimate:
    def files(self, assets):
        return ["--prior", str(assets / "prior.txt"), "--channel", str(assets / "chan.txt")]

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

    @pytest.mark.parametrize("method", ["data", "channel", "frequentist"])
    def test_estimate_outside_gain_range_is_numerical_failure(
        self, capsys, assets, monkeypatch, method
    ):
        monkeypatch.setattr(
            "gleak.estimation.empirical_functional", lambda *args: 2.0
        )
        code, _, err = run_cli(
            capsys,
            ["estimate"] + self.files(assets)
            + ["--method", method, "--m", "200", "--n", "200"],
        )
        assert code == 3
        assert err.startswith("numerical failure:")
        assert "escaped gain range" in err

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

    def test_unknown_scenario_rejected(self, capsys):
        code, _, _ = run_cli(capsys, ["scenario", "bogus"])
        assert code == 2


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

    def test_oversized_hypothesis_count_is_numerical_failure(self, capsys):
        # |H| beyond float range overflows the closed forms: exit 3, not 2
        argv = self.base()
        argv[argv.index("--hypotheses") + 1] = "1" + "0" * 400
        code, _, err = run_cli(capsys, argv)
        assert code == 3
        assert err.startswith("numerical failure:")

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
        weighted = read_weighted(payload["file"], Alphabet.integers(2, prefix="w"))
        assert weighted.total_weight == 500
        assert weighted.size == payload["entries"]

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

    def test_channel_mode_needs_prior_and_gain(self, capsys, assets, tmp_path):
        code, _, err = run_cli(
            capsys,
            ["preprocess", "--mode", "channel", "--gain", str(assets / "gain.txt"),
             "--out", str(tmp_path / "x")],
        )
        assert code == 2
        assert "--prior" in err


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

