"""Pinned outputs: refactors of the sampling and training paths must leave
the trial-matrix artifacts and the `leak estimate` estimates unchanged.

The expected values were recorded before the estimation pipelines were
shared between `leak estimate` and `leak scenario`.  Only kNN and the
frequentist baseline are pinned: MLP training sums through BLAS, whose
summation order is not portable across builds.
"""

import hashlib
import json

import pytest

from gleak import TrialMatrixConfig, emit_reports, run_trial_matrix
from gleak.cli import main

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

ESTIMATE_REPR = {
    ("multi-guess", "data"): "0.2925",
    ("multi-guess", "channel"): "0.1775",
    ("multi-guess", "frequentist"): "0.21",
    ("dp", "data"): "1.285",
    ("dp", "channel"): "1.405",
    ("dp", "frequentist"): "1.02",
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


@pytest.mark.parametrize("scenario,method", sorted(ESTIMATE_REPR))
def test_estimate(scenario, method, capsys):
    code = main([
        "estimate", "--scenario", scenario, "--method", method,
        "--learner", "knn", "--m", "400", "--n", "400", "--seed", "5",
    ])
    assert code == 0
    estimate = json.loads(capsys.readouterr().out)["estimate"]
    assert repr(estimate) == ESTIMATE_REPR[(scenario, method)]
