"""Pinned outputs: refactors of the sampling and training paths must leave
the trial-matrix artifacts and the `leak estimate` estimates unchanged.

The expected values were recorded before the estimation pipelines were
shared between `leak estimate` and `leak scenario`; the location and
password estimates and every payload's details were recorded before all
three methods went through one `estimate` function; the `leak bounds` and
`leak preprocess` outputs before the two pre-processing derivations shared
one split of their score matrix; the exact V_g of every scenario and profile
before the scenario config dataclasses became module constants; the
file-channel estimates and the MLP configs that file channels train with
before file channels became a scenario; the large dp trial matrix, whose
training sets index thousands of distinct observables, before the k-NN
searched integer L1 balls; the desk dp k-NN grid of ``leak scenario``,
with the frequentist baseline and m = 2,000, before the lattice search
filtered its keys by occupancy and the counting learners shared one count
table per training set.  Only kNN and the frequentist
baseline are pinned: MLP training sums through BLAS, whose summation order
is not portable across builds, so for the MLP the config is pinned instead.
"""

import hashlib
import json

import numpy as np
import pytest

import gleak.cli
from gleak.cli import main
from gleak.harness import TrialMatrixConfig, emit_reports, run_trial_matrix
from gleak.scenarios import build_scenario

ARTIFACT_SHA256 = {
    "multi-guess": (
        "c20d4b0387f6a560ed6eb2d4b1ad90c8124867721c3307c5d2db70504d42df17",
        "b7be41b984b25f0b8a95f5299d74cb0019a435d510ee73531607110b50694aad",
        "e1ddb3f270c1d45e17d4b0ad4254bbaa4e9724a72f27f3d3f09d2f06743c7908",
    ),
    "location": (
        "1896ededfb719c36ebe4f7bd02f93aa8061660e4c1cecc7635599e67ed704f1d",
        "9d14b29ff8e1164850eb4f979e851b765d388a73051ff3bd299e7fc4536975ef",
        "76c21ac257d2073763e7787da873a08d57802b3dfac498b1bc7f7793f6c16a75",
    ),
    "dp": (
        "dde9e07fd2d56bd46672627b30e0cab58dce8458411e7875cd0b7c3aa16526ac",
        "2cfd0ec3e9bb171898dd1888916f5c125bf7338b1644b94fc1c061e3767d444f",
        "a17ff2416fa5507e0bca6b1f320e9d75661c141740d323f2939a444adf140bda",
    ),
    "password": (
        "aa821a6a70d785e95233cdd4bbd41e81b5b7b52974098b7e5b51e3d366bdef0c",
        "2f75512e8846dd532c93eeb0a1b0d6948cf5a9502ce10c691c7685d4a20a8b87",
        "5402de0c8cc6addb14712b69c6a93bf413ce1313e59f1aaa42342090b87d8c0e",
    ),
}

LARGE_DP_SHA256 = (
    "98ca0e26f2fbb09a4781d837a763ec6eff0542842fa6d57c769413d7171c6294",
    "63d506bba4713c797be68982b2d76fa919bc5d8a36ec63ffaffcf1b858509b8d",
    "281a76f8a026e669f7d6b8c1387576de697190a20073e6e96ac80e0b926a848e",
)

DESK_DP_KNN_SHA256 = (
    "f0c1168f2477d508879e94d60ee343be72ad23db6bd839c251f13f8fc6be8a11",
    "810a9fc8172103f578dcd4a02e5bf22be20d39e3c04d1efb6b5f7042169ae45b",
    "93243892ed8baa7bc6cf00d3b5a9b95ff646d43978da75356db7f9e5d285efa4",
)

# (scenario, profile) -> repr of the exact V_g
EXACT_VG = {
    ("multi-guess", "desk"): "0.394053718697675",
    ("multi-guess", "paper"): "0.89172643515224",
    ("location", "desk"): "0.686018320516057",
    ("location", "paper"): "0.686018320516057",
    ("dp", "desk"): "1.4621171572589988",
    ("dp", "paper"): "1.4621171572589988",
    ("password", "desk"): "0.783139106826576",
    ("password", "paper"): "0.783139106826576",
}

DATA_DETAILS = {
    "descale": "not needed: evaluation uses the original gain",
    "rationalize_scale": 1,
}
BETA_HANDLING = "implicit: evaluation uses the original gain on (x, y) pairs"

# (scenario, method) -> (repr of the estimate, the payload's details)
ESTIMATE_PINS = {
    ("multi-guess", "data"): (
        "0.2925",
        {**DATA_DETAILS, "expanded_total_weight": 3600, "expansion_factor": 9.0},
    ),
    ("multi-guess", "channel"): ("0.1775", {"beta": 9.0, "beta_handling": BETA_HANDLING}),
    ("multi-guess", "frequentist"): ("0.21", {}),
    ("location", "data"): (
        "0.455",
        {**DATA_DETAILS, "expanded_total_weight": 7914, "expansion_factor": 19.785},
    ),
    ("location", "channel"): (
        "0.275",
        {"beta": 19.831856473984022, "beta_handling": BETA_HANDLING},
    ),
    ("location", "frequentist"): ("0.3275", {}),
    ("dp", "data"): (
        "1.285",
        {**DATA_DETAILS, "expanded_total_weight": 800, "expansion_factor": 2.0},
    ),
    ("dp", "channel"): ("1.405", {"beta": 2.0, "beta_handling": BETA_HANDLING}),
    ("dp", "frequentist"): ("1.02", {}),
    ("password", "data"): (
        "0.7525",
        {**DATA_DETAILS, "expanded_total_weight": 400, "expansion_factor": 1.0},
    ),
    ("password", "channel"): ("0.7525", {"beta": 1.0, "beta_handling": BETA_HANDLING}),
    ("password", "frequentist"): ("0.7475", {}),
}


@pytest.mark.parametrize("scenario", sorted(ARTIFACT_SHA256))
def test_trial_matrix_artifacts(scenario, tmp_path):
    config = TrialMatrixConfig(
        scenario=scenario,
        master_seed=7,
        methods=("data", "channel", "frequentist"),
        learners=("knn",),
        sizes=(300,),
        num_train_sets=2,
        num_valid_sets=2,
        valid_size=300,
    )
    metrics, rows = run_trial_matrix(config)
    paths = emit_reports(metrics, rows, config.resolved(), tmp_path / scenario)
    digests = tuple(hashlib.sha256(path.read_bytes()).hexdigest() for path in paths)
    assert digests == ARTIFACT_SHA256[scenario]


def test_large_dp_trial_matrix_artifacts(tmp_path):
    """dp k-NN at m = 10,000 and 30,000: thousands of distinct observables,
    most queries with their k nearest a few integer steps away."""
    config = TrialMatrixConfig(
        scenario="dp",
        master_seed=0,
        methods=("data", "channel"),
        learners=("knn",),
        sizes=(10000, 30000),
        num_train_sets=1,
        num_valid_sets=2,
        valid_size=10000,
    )
    metrics, rows = run_trial_matrix(config)
    paths = emit_reports(metrics, rows, config.resolved(), tmp_path / "dp")
    digests = tuple(hashlib.sha256(path.read_bytes()).hexdigest() for path in paths)
    assert digests == LARGE_DP_SHA256


def test_desk_dp_knn_grid_artifacts(tmp_path, capsys):
    """`leak scenario dp --learners knn --seed 0`: data, channel and
    frequentist at m = 2,000 / 10,000 / 30,000 over 10 validation sets; at
    m = 2,000 some queries walk past the lattice radius to the blocked path."""
    prefix = tmp_path / "dp"
    code = main(["scenario", "dp", "--learners", "knn", "--seed", "0", "--out", str(prefix)])
    assert code == 0
    capsys.readouterr()
    digests = tuple(
        _sha256(prefix.with_name(f"dp.{suffix}"))
        for suffix in ("summary.json", "trials.csv", "boxplot.csv")
    )
    assert digests == DESK_DP_KNN_SHA256


@pytest.mark.parametrize("scenario,profile", sorted(EXACT_VG))
def test_exact_vg(scenario, profile):
    exact = build_scenario(scenario, profile=profile).exact_vg
    assert repr(exact) == EXACT_VG[(scenario, profile)]


@pytest.mark.parametrize("scenario,method", sorted(ESTIMATE_PINS))
def test_estimate(scenario, method, capsys):
    code = main([
        "estimate", "--scenario", scenario, "--method", method,
        "--learner", "knn", "--m", "400", "--n", "400", "--seed", "5",
    ])
    assert code == 0
    payload = json.loads(capsys.readouterr().out)
    pinned = ESTIMATE_PINS[(scenario, method)]
    assert (repr(payload["estimate"]), payload["details"]) == pinned


def test_bounds_payload(capsys):
    # the README example
    code = main([
        "bounds", "--m", "10000", "--n", "10000", "--sigma2", "0.25", "--range", "0", "1",
        "--hypotheses", "2025", "--epsilon", "0.1", "--delta", "0.05", "--split", "0.025",
    ])
    assert code == 0
    assert json.loads(capsys.readouterr().out) == {
        "M": 2560,
        "N": 249,
        "branch": "erf",
        "expected_training_gap": 54.82622657873587,
        "expected_validation_gap": 0.01447202509116535,
        "training_suboptimality_prob": 1.7778748401532204e-17,
        "validation_deviation_prob": 4.579597470869879e-77,
    }


@pytest.fixture
def preprocess_inputs(tmp_path):
    """A 3x4 gain of halves, thirds and quarters with a zero row, a prior, a
    4x5 channel and 60 samples, as files."""
    (tmp_path / "gain.txt").write_text(
        "3 4\n"
        "1.0 0.5 0.0 0.3333333333333333\n"
        "0.0 0.0 0.0 0.0\n"
        "0.5 1.0 0.6666666666666666 0.25\n"
    )
    (tmp_path / "prior.txt").write_text("0.15 0.35 0.2 0.3\n")
    (tmp_path / "chan.txt").write_text(
        "4 5\n"
        "0.5 0.2 0.1 0.1 0.1\n"
        "0.1 0.4 0.2 0.2 0.1\n"
        "0.05 0.05 0.6 0.2 0.1\n"
        "0.2 0.2 0.2 0.2 0.2\n"
    )
    (tmp_path / "samples.csv").write_text(
        "".join(f"{(7 * i) % 4},{(i * i + 3 * i) % 5}\n" for i in range(60))
    )
    return tmp_path


def _sha256(path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def test_preprocess_channel_artifacts(preprocess_inputs, capsys):
    root = preprocess_inputs
    code = main([
        "preprocess", "--mode", "channel", "--prior", str(root / "prior.txt"),
        "--gain", str(root / "gain.txt"), "--out", str(root / "art"),
    ])
    assert code == 0
    assert json.loads(capsys.readouterr().out)["beta"] == 1.0583333333333333
    assert _sha256(root / "art.tau.txt") == (
        "ae61e945783018ac8789b685ecb5549c4cd68b275a0dcac2f64f3b24787838e2"
    )
    assert _sha256(root / "art.R.txt") == (
        "961ed0acb961a6888e3c2f4b4f4cdd3870a1fce676a8e2c5e4f5a7c5f55373fc"
    )


def test_preprocess_data_artifact(preprocess_inputs, capsys):
    root = preprocess_inputs
    code = main([
        "preprocess", "--mode", "data", "--samples", str(root / "samples.csv"),
        "--gain", str(root / "gain.txt"), "--out", str(root / "art"),
    ])
    assert code == 0
    payload = json.loads(capsys.readouterr().out)
    assert (payload["entries"], payload["total_weight"], payload["rationalize_scale"]) == (
        21, 765, 12
    )
    assert _sha256(root / "art.weighted.csv") == (
        "f332ec48f5edff74a3b97fef861d19f6de471d4eba89b700806658c4981d721e"
    )


def _files(root) -> list[str]:
    return [
        "--prior", str(root / "prior.txt"), "--channel", str(root / "chan.txt"),
        "--gain", str(root / "gain.txt"),
    ]


def _file_seeds(*children: str) -> dict:
    return {
        key: {"master_seed": 5, "stream": f"files/estimate/{child}"}
        for key, child in zip(("train", "valid", "learner"), children)
    }


# method -> (repr of the estimate, the payload's details, its seeds)
FILE_ESTIMATE_PINS = {
    "data": (
        "0.6622916666666666",
        {
            **DATA_DETAILS,
            "expanded_total_weight": 4987,
            "expansion_factor": 12.4675,
            "rationalize_scale": 12,
        },
        _file_seeds("train", "valid", "learner"),
    ),
    "channel": (
        "0.6622916666666666",
        {"beta": 1.0583333333333333, "beta_handling": BETA_HANDLING},
        _file_seeds("pairs", "valid", "learner"),
    ),
    "frequentist": ("0.6622916666666666", {}, _file_seeds("train", "valid")),
}


@pytest.mark.parametrize("method", sorted(FILE_ESTIMATE_PINS))
def test_file_estimate(method, preprocess_inputs, capsys):
    code = main([
        "estimate", *_files(preprocess_inputs), "--method", method,
        "--learner", "knn", "--m", "400", "--n", "400", "--seed", "5",
    ])
    assert code == 0
    payload = json.loads(capsys.readouterr().out)
    pinned = FILE_ESTIMATE_PINS[method]
    assert (repr(payload["estimate"]), payload["details"], payload["seeds"]) == pinned


class _Captured(Exception):
    """Carries the learner config out of a stubbed `estimate`."""


@pytest.mark.parametrize("method", ["data", "channel"])
@pytest.mark.parametrize("profile", ["desk", "paper"])
@pytest.mark.parametrize(
    "overrides, epochs, batch", [([], 100, 200), (["--epochs", "7", "--batch", "13"], 7, 13)]
)
def test_file_mlp_config(
    method, profile, overrides, epochs, batch, preprocess_inputs, monkeypatch
):
    def capture(*args):
        raise _Captured(args[6])

    monkeypatch.setattr(gleak.cli, "estimate", capture)
    with pytest.raises(_Captured) as captured:
        main([
            "estimate", *_files(preprocess_inputs), "--method", method,
            "--learner", "mlp", "--profile", profile, *overrides,
        ])
    config = captured.value.args[0]
    assert (config.hidden, config.learning_rate, config.epochs, config.batch_size) == (
        (100, 100, 100), 1e-3, epochs, batch
    )
    assert config.codec.dim == 1
    assert config.codec.encode(np.array([[3], [-2]])).tolist() == [[3.0], [-2.0]]
