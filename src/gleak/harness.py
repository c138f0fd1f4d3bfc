"""Trial-matrix harness: train I models, evaluate each on J validation sets.

Produces the normalized-error statistics grid (mean, dispersion, total
error) per (method, learner, training size), plus plot-ready CSV artifacts.
Every sample set and learner initialization draws from a named stream of the
master seed, so a full run is byte-reproducible.
"""

from __future__ import annotations

import json
import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .core import (
    NumericalError,
    SampleSet,
    ValidationError,
    _require,
    empirical_functional,
    sample_joint,
)
from .estimation import (
    frequentist_predictor,
    sample_preprocessed_pairs,
    train_data_preproc,
    train_model,
)
from .knn import DistanceMetric, KnnConfig
from .mlp import MlpConfig
from .rng import stream
from .scenarios import SCENARIO_NAMES, Scenario, build_scenario

METHODS = ("data", "channel", "frequentist")
LEARNERS = ("knn", "mlp")


@dataclass(frozen=True)
class Profile:
    name: str
    num_train_sets: int
    num_valid_sets: int
    sizes: tuple[int, ...]
    valid_size: int


PROFILES = {
    "desk": Profile("desk", 3, 10, (2000, 10000, 30000), 10000),
    "paper": Profile("paper", 5, 50, (10000, 30000, 50000), 50000),
}

# Published table: (hidden widths, learning rate, epochs, batch size); tuples
# select per training-set size, smallest first.
_PAPER_MLP = {
    ("multi-guess", "data"): ((100, 100, 100), 1e-3, 700, 1000),
    ("multi-guess", "channel"): ((100, 100, 100), 1e-3, 500, 1000),
    ("location", "data"): ((500, 500, 500), 1e-3, 1000, (200, 500, 1000)),
    ("location", "channel"): ((500, 500, 500), 1e-3, (200, 500, 1000), (20, 200, 500)),
    ("dp", "data"): ((100, 100, 100), 1e-3, 500, 200),
    ("dp", "channel"): ((100, 100, 100), 1e-3, 500, 200),
    ("password", "data"): ((100, 100, 100), 1e-3, 700, 1000),
    ("password", "channel"): ((100, 100, 100), 1e-3, 700, 1000),
}

# Reduced budgets so a desk run stays within minutes; recorded here, not in
# the training code.
_DESK_MLP = {
    ("multi-guess", "data"): ((100, 100, 100), 1e-3, 60, 1000),
    ("multi-guess", "channel"): ((100, 100, 100), 1e-3, 60, 1000),
    ("location", "data"): ((100, 100, 100), 1e-3, 40, 500),
    ("location", "channel"): ((100, 100, 100), 1e-3, 40, 500),
    ("dp", "data"): ((100, 100, 100), 1e-3, 40, 200),
    ("dp", "channel"): ((100, 100, 100), 1e-3, 40, 200),
    ("password", "data"): ((100, 100, 100), 1e-3, 20, 1000),
    ("password", "channel"): ((100, 100, 100), 1e-3, 20, 1000),
}


def _per_size(value, m: int, sizes: tuple[int, ...]):
    if not isinstance(value, tuple):
        return value
    try:
        return value[sizes.index(m)]
    except ValueError:
        return value[-1]


def mlp_config_for(
    scenario: Scenario, method: str, profile: str, m: int, sizes: tuple[int, ...]
) -> MlpConfig:
    table = _PAPER_MLP if profile == "paper" else _DESK_MLP
    hidden, lr, epochs, batch = table[(scenario.name, method)]
    return MlpConfig(
        codec=scenario.codec,
        hidden=hidden,
        learning_rate=lr,
        epochs=_per_size(epochs, m, sizes),
        batch_size=_per_size(batch, m, sizes),
    )


def knn_config_for(scenario: Scenario) -> KnnConfig:
    return KnnConfig(DistanceMetric(scenario.metric_kind, scenario.codec))


@dataclass(frozen=True)
class TrialMatrixConfig:
    scenario: str
    master_seed: int = 0
    profile: str = "desk"
    methods: tuple[str, ...] = METHODS
    learners: tuple[str, ...] = LEARNERS
    sizes: tuple[int, ...] | None = None
    num_train_sets: int | None = None
    num_valid_sets: int | None = None
    valid_size: int | None = None
    workers: int = 1
    gowalla_path: str | None = None

    def __post_init__(self) -> None:
        _require(self.scenario in SCENARIO_NAMES, f"unknown scenario {self.scenario!r}")
        _require(self.profile in PROFILES, f"unknown profile {self.profile!r}")
        _require(all(m in METHODS for m in self.methods), "unknown method")
        _require(all(l in LEARNERS for l in self.learners), "unknown learner")
        _require(self.workers >= 1, "workers must be >= 1")

    def resolved(self) -> dict:
        base = PROFILES[self.profile]
        return {
            "schema": 1,
            "scenario": self.scenario,
            "master_seed": self.master_seed,
            "profile": self.profile,
            "methods": list(self.methods),
            "learners": list(self.learners),
            "sizes": list(self.sizes or base.sizes),
            "num_train_sets": self.num_train_sets or base.num_train_sets,
            "num_valid_sets": self.num_valid_sets or base.num_valid_sets,
            "valid_size": self.valid_size or base.valid_size,
            "workers": self.workers,
            "gowalla_path": self.gowalla_path,
        }


@dataclass(frozen=True)
class MetricsReport:
    """Normalized-error statistics of one (method, learner, size) cell."""

    scenario: str
    method: str
    learner: str
    m: int
    n: int
    exact: float
    deltas: np.ndarray
    mean: float
    dispersion: float
    total_error: float

    @staticmethod
    def from_deltas(
        scenario: str,
        method: str,
        learner: str,
        m: int,
        n: int,
        exact: float,
        deltas: np.ndarray,
    ) -> "MetricsReport":
        deltas = np.asarray(deltas, dtype=np.float64)
        mean = float(deltas.mean())
        dispersion = float(np.sqrt(((deltas - mean) ** 2).mean()))
        total = float(np.sqrt((deltas**2).mean()))
        report = MetricsReport(
            scenario, method, learner, m, n, exact, deltas, mean, dispersion, total
        )
        residual = abs(dispersion**2 + mean**2 - total**2)
        if not residual <= 1e-12:
            raise NumericalError(f"metrics identity violated by {residual}")
        return report

    def as_dict(self) -> dict:
        return {
            "scenario": self.scenario,
            "method": self.method,
            "learner": self.learner,
            "m": self.m,
            "n": self.n,
            "exact": self.exact,
            "mean": self.mean,
            "dispersion": self.dispersion,
            "total_error": self.total_error,
        }


@dataclass(frozen=True)
class TrialRow:
    scenario: str
    method: str
    learner: str
    m: int
    n: int
    i: int
    j: int
    estimate: float
    exact: float
    delta: float


def _combos(config: TrialMatrixConfig) -> list[tuple[str, str]]:
    combos: list[tuple[str, str]] = []
    for method in config.methods:
        if method == "frequentist":
            combos.append((method, "none"))
        else:
            combos.extend((method, learner) for learner in config.learners)
    return combos


def _train_one(
    scenario: Scenario,
    config: TrialMatrixConfig,
    method: str,
    learner: str,
    m: int,
    i: int,
    sizes: tuple[int, ...],
):
    """Train the (method, learner, m, i) model; returns a predictor."""
    seed, name = config.master_seed, scenario.name
    if method != "channel":
        train_stream = stream(seed, f"{name}/train/m{m}/i{i}")
        train = sample_joint((scenario.prior, scenario.channel), m, train_stream)
        if method == "frequentist":
            return frequentist_predictor(train, scenario.gain)
    if learner == "knn":
        learner_config = knn_config_for(scenario)
    else:
        learner_config = mlp_config_for(scenario, method, config.profile, m, sizes)
    # only the MLP draws from this stream
    learner_stream = stream(seed, f"{name}/{method}/mlp/m{m}/i{i}")
    if method == "data":
        return train_data_preproc(train, scenario.gain, learner_config, learner_stream)[0]
    pairs = sample_preprocessed_pairs(
        scenario.prior,
        scenario.channel,
        scenario.gain,
        m,
        stream(seed, f"{name}/chan/m{m}/i{i}"),
    )
    return train_model(learner_config, pairs, learner_stream)


def run_trial_matrix(
    config: TrialMatrixConfig, scenario: Scenario | None = None
) -> tuple[list[MetricsReport], list[TrialRow]]:
    """Execute the full grid; returns per-cell metrics and per-trial rows."""
    resolved = config.resolved()
    if scenario is None:
        extra = {}
        if config.gowalla_path and config.scenario == "location":
            extra["gowalla_path"] = config.gowalla_path
        scenario = build_scenario(config.scenario, profile=config.profile, **extra)
    if scenario.exact_vg <= 0:
        raise ValidationError("exact V_g must be positive to normalize errors")
    sizes = tuple(resolved["sizes"])
    num_i = resolved["num_train_sets"]
    num_j = resolved["num_valid_sets"]
    n = resolved["valid_size"]

    valid_sets: list[SampleSet] = [
        sample_joint(
            (scenario.prior, scenario.channel),
            n,
            stream(config.master_seed, f"{scenario.name}/valid/j{j}"),
        )
        for j in range(num_j)
    ]

    tasks = [
        (method, learner, m, i)
        for (method, learner) in _combos(config)
        for m in sizes
        for i in range(num_i)
    ]

    def run_task(task):
        method, learner, m, i = task
        model = _train_one(scenario, config, method, learner, m, i, sizes)
        estimates = [
            empirical_functional(model, valid, scenario.gain) for valid in valid_sets
        ]
        return task, estimates

    if config.workers == 1:
        results = dict(run_task(task) for task in tasks)
    else:
        with ThreadPoolExecutor(max_workers=config.workers) as pool:
            results = dict(pool.map(run_task, tasks))

    metrics: list[MetricsReport] = []
    rows: list[TrialRow] = []
    exact = scenario.exact_vg
    for method, learner in _combos(config):
        for m in sizes:
            deltas = np.empty((num_i, num_j))
            for i in range(num_i):
                estimates = results[(method, learner, m, i)]
                for j, estimate in enumerate(estimates):
                    delta = abs(estimate - exact) / exact
                    deltas[i, j] = delta
                    rows.append(
                        TrialRow(
                            scenario.name, method, learner, m, n, i, j,
                            estimate, exact, delta,
                        )
                    )
            metrics.append(
                MetricsReport.from_deltas(
                    scenario.name, method, learner, m, n, exact, deltas
                )
            )
    return metrics, rows


def emit_reports(
    metrics: list[MetricsReport],
    rows: list[TrialRow],
    resolved_config: dict,
    path_prefix: str | Path,
) -> list[Path]:
    """Write <prefix>.summary.json, <prefix>.trials.csv, <prefix>.boxplot.csv.

    All three artifacts are deterministic functions of (config, master seed):
    rerunning reproduces them byte for byte.
    """
    prefix = Path(path_prefix)
    if prefix.parent and not prefix.parent.exists():
        raise ValidationError(f"output directory {prefix.parent} does not exist")
    summary_path = prefix.with_name(prefix.name + ".summary.json")
    trials_path = prefix.with_name(prefix.name + ".trials.csv")
    boxplot_path = prefix.with_name(prefix.name + ".boxplot.csv")

    summary = {
        "config": resolved_config,
        "results": [report.as_dict() for report in metrics],
    }
    summary_path.write_text(json.dumps(summary, indent=2, sort_keys=True) + "\n")

    lines = ["scenario,method,learner,m,n,i,j,estimate,exact,delta"]
    for row in rows:
        lines.append(
            f"{row.scenario},{row.method},{row.learner},{row.m},{row.n},"
            f"{row.i},{row.j},{row.estimate!r},{row.exact!r},{row.delta!r}"
        )
    trials_path.write_text("\n".join(lines) + "\n")

    box_lines = ["scenario,method,learner,m,min,q1,median,q3,max"]
    for report in metrics:
        q = np.quantile(report.deltas.ravel(), [0.0, 0.25, 0.5, 0.75, 1.0])
        box_lines.append(
            f"{report.scenario},{report.method},{report.learner},{report.m},"
            + ",".join(repr(float(v)) for v in q)
        )
    boxplot_path.write_text("\n".join(box_lines) + "\n")
    return [summary_path, trials_path, boxplot_path]
