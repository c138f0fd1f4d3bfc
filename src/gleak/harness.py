"""Trial-matrix harness: train I models, evaluate each on J validation sets.

Produces the normalized-error statistics grid (mean, dispersion, total
error) per (method, learner, training size), plus plot-ready CSV artifacts.
Every sample set and learner initialization draws from a named stream of the
master seed, so a full run is byte-reproducible.

The matrix runs one job per (training size m, training set i), ``workers``
jobs at a time.  A job draws its pi |> C set once, fits the frequentist,
the data and then the channel models on it, and scores each model on the J
validation sets before the next fit.
"""

from __future__ import annotations

import json
import math
from dataclasses import asdict, dataclass
from pathlib import Path

import numpy as np

from .core import (
    NumericalError,
    SampleSet,
    ValidationError,
    _distinct_rows,
    _estimates,
    _freeze,
    _require,
    joint_cdf,
    sample_joint,
)
from .estimation import METHOD_NAMES, fit
from .knn import DistanceMetric
from .mlp import MlpConfig
from .rng import stream
from .scenarios import SCENARIO_NAMES, Scenario, build_scenario

METHODS = tuple(METHOD_NAMES)
LEARNERS = ("knn", "mlp")


@dataclass(frozen=True)
class Profile:
    num_train_sets: int
    num_valid_sets: int
    sizes: tuple[int, ...]
    valid_size: int


PROFILES = {
    "desk": Profile(3, 10, (2000, 10000, 30000), 10000),
    "paper": Profile(5, 50, (10000, 30000, 50000), 50000),
}

# Published table: (hidden widths, learning rate, epochs, batch size); a tuple
# has one entry per size of the paper profile, smallest first.
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
# the training code.  The "files" rows serve `leak estimate --prior
# --channel`, which takes no profile.
_DESK_MLP = {
    ("multi-guess", "data"): ((100, 100, 100), 1e-3, 60, 1000),
    ("multi-guess", "channel"): ((100, 100, 100), 1e-3, 60, 1000),
    ("location", "data"): ((100, 100, 100), 1e-3, 40, 500),
    ("location", "channel"): ((100, 100, 100), 1e-3, 40, 500),
    ("dp", "data"): ((100, 100, 100), 1e-3, 40, 200),
    ("dp", "channel"): ((100, 100, 100), 1e-3, 40, 200),
    ("password", "data"): ((100, 100, 100), 1e-3, 20, 1000),
    ("password", "channel"): ((100, 100, 100), 1e-3, 20, 1000),
    ("files", "data"): ((100, 100, 100), 1e-3, 100, 200),
    ("files", "channel"): ((100, 100, 100), 1e-3, 100, 200),
}


def _per_size(value, m: int, sizes: tuple[int, ...]):
    if not isinstance(value, tuple):
        return value
    try:
        return value[sizes.index(m)]
    except ValueError:
        return value[-1]


def learner_config(
    scenario: Scenario, method: str, learner: str, profile: str, m: int
) -> DistanceMetric | MlpConfig | None:
    """The config the (method, learner) model of ``scenario`` trains with at size m.

    The frequentist method takes none; kNN takes the scenario's metric; the
    MLP reads the profile's table, where a per-size tuple is indexed by m's
    place among the profile's sizes (the largest size's entry when m is not
    one of them).
    """
    if method == "frequentist":
        return None
    if learner == "knn":
        return scenario.metric
    table = _PAPER_MLP if profile == "paper" else _DESK_MLP
    hidden, lr, epochs, batch = table[(scenario.name, method)]
    sizes = PROFILES[profile].sizes
    return MlpConfig(
        codec=scenario.metric.codec,
        hidden=hidden,
        learning_rate=lr,
        epochs=_per_size(epochs, m, sizes),
        batch_size=_per_size(batch, m, sizes),
    )


@dataclass(frozen=True)
class TrialMatrixConfig:
    """One trial matrix; counts and sizes left None take the profile's."""

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
        base = PROFILES[self.profile]
        for field in ("sizes", "num_train_sets", "num_valid_sets", "valid_size"):
            if getattr(self, field) is None:
                object.__setattr__(self, field, getattr(base, field))
        for field in ("num_train_sets", "num_valid_sets", "valid_size"):
            value = getattr(self, field)
            _require(value >= 1, f"{field} must be >= 1, got {value}")
        for field in ("methods", "learners", "sizes"):
            value = getattr(self, field)
            _require(len(value) > 0, f"{field} must not be empty")
            _require(len(set(value)) == len(value), f"{field} repeats an entry: {value}")
        _require(
            all(m >= 1 for m in self.sizes),
            f"every entry of sizes must be >= 1, got {self.sizes}",
        )

    def resolved(self) -> dict:
        """The config as ``summary.json`` records it, tuples as lists."""
        fields = {k: list(v) if isinstance(v, tuple) else v for k, v in asdict(self).items()}
        return {"schema": 1, **fields}


@dataclass(frozen=True, eq=False)
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
        deltas = _freeze(np.asarray(deltas, dtype=np.float64))
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


_TASK_ORDER = ("frequentist", "data", "channel")  # per (m, i); see run_trial_matrix


def _combos(config: TrialMatrixConfig) -> list[tuple[str, str]]:
    combos: list[tuple[str, str]] = []
    for method in config.methods:
        if method == "frequentist":
            combos.append((method, "none"))
        else:
            combos.extend((method, learner) for learner in config.learners)
    return combos


def run_trial_matrix(
    config: TrialMatrixConfig,
) -> tuple[list[MetricsReport], list[TrialRow]]:
    """Execute the full grid; returns per-cell metrics and per-trial rows.

    Every validation and training set of a matrix channel is drawn from
    one ``joint_cdf``, built once per matrix and held once per draw: the
    last draw drops it, so in a one-job matrix it is freed before the
    first fit, and nothing outlives the call.
    """
    scenario = build_scenario(config.scenario, config.profile, config.gowalla_path)
    if scenario.exact_vg <= 0:
        raise ValidationError("exact V_g must be positive to normalize errors")
    sizes = config.sizes
    num_i = config.num_train_sets
    num_j = config.num_valid_sets
    n = config.valid_size
    seed, name = config.master_seed, scenario.name
    source = (scenario.prior, scenario.channel)
    gain = scenario.gain

    # a job fits the frequentist, the data and then the channel models, and
    # scores each before the next fit.  The pi |> C set is held once per
    # model that takes it and the last of them pops it, so the set, its
    # count table and the data table it keeps (one for the frequentist and
    # the data fits under a gain that is its own rationalization) are freed
    # before that model is scored
    combos = sorted(_combos(config), key=lambda combo: _TASK_ORDER.index(combo[0]))
    shared = sum(method != "channel" for method, _ in combos)
    jobs = [(m, i) for m in sizes for i in range(num_i)]

    # the CDF is held once per draw in the same way (None for a generative
    # channel); list.pop is atomic, so concurrent jobs take one copy each
    cdfs = [joint_cdf(source)] * (num_j + (len(jobs) if shared else 0))

    def draw(count: int, source_name: str) -> SampleSet:
        return sample_joint(source, count, stream(seed, source_name), cdfs.pop())

    valid_sets = [draw(n, f"{name}/valid/j{j}") for j in range(num_j)]

    # every model is asked once, on the distinct observables of all J sets
    distinct = _distinct_rows(valid_sets)

    def fit_model(method: str, learner: str, m: int, i: int, train: SampleSet | None):
        source_name = f"{name}/{'chan' if method == 'channel' else 'train'}/m{m}/i{i}"
        model, _ = fit(
            method, scenario.prior, scenario.channel, gain, m,
            learner_config(scenario, method, learner, config.profile, m),
            stream(seed, source_name),
            stream(seed, f"{name}/{method}/mlp/m{m}/i{i}"),  # only the MLP draws from it
            train=train,
        )
        return model

    def run_job(job: tuple[int, int]) -> dict:
        m, i = job
        held = [draw(m, f"{name}/train/m{m}/i{i}")] * shared if shared else []
        return {
            (method, learner, m, i): _estimates(
                fit_model(method, learner, m, i, None if method == "channel" else held.pop()),
                valid_sets,
                gain,
                distinct,
            )
            for method, learner in combos
        }

    if config.workers == 1:
        parts = [run_job(job) for job in jobs]
    else:
        from concurrent.futures import ThreadPoolExecutor  # only a parallel run pays its import

        with ThreadPoolExecutor(max_workers=config.workers) as pool:
            parts = list(pool.map(run_job, jobs))
    results = {task: values for part in parts for task, values in part.items()}

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


def _quartiles(values: np.ndarray) -> list[float]:
    """Min, q1, median, q3 and max of NaN-free values, bit for bit as
    ``np.quantile(values, [0, .25, .5, .75, 1])`` returns them.

    This is numpy's "linear" method written out: the virtual index
    (n - 1) q, the index -1 for one at or past the last value, and numpy's
    ``_lerp``, which interpolates from above when the weight t >= 0.5.
    ``np.quantile`` imports ``numpy.ma`` (about 16 ms per process); this does not.
    """
    ordered = np.sort(values, axis=None).tolist()
    last = len(ordered) - 1
    out = []
    for q in (0.0, 0.25, 0.5, 0.75, 1.0):
        index = last * q
        below = -1 if index >= last else math.floor(index)
        a, b = ordered[below], ordered[-1 if below == -1 else below + 1]
        t, diff = index - below, b - a
        out.append(b - diff * (1 - t) if t >= 0.5 else a + diff * t)
    return out


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
        box_lines.append(
            f"{report.scenario},{report.method},{report.learner},{report.m},"
            + ",".join(repr(v) for v in _quartiles(report.deltas))
        )
    boxplot_path.write_text("\n".join(box_lines) + "\n")
    return [summary_path, trials_path, boxplot_path]
