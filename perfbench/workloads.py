"""The benchmark's workloads and the operation each one repeats.

An operation is one call into gleak's public entry points with a master
seed derived from the run seed and the operation's index:

* ``cli`` workloads call ``gleak.cli.main(["estimate", ...])`` once per
  method and read the JSON payload it prints;
* ``grid`` workloads call ``run_trial_matrix`` for one training size, one
  training set and one validation set, then ``emit_reports``.

Every trial an operation yields is checked: the estimate is finite and
inside the gain's range, the exact value and normalized error agree with the
scenario, and the emitted artifacts hold the same estimates.  This module
imports nothing outside the standard library at import time, so the runner
can read the workload table without loading numpy.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
from dataclasses import dataclass
from pathlib import Path

RANGE_SLACK = 1e-9


@dataclass(frozen=True)
class Workload:
    name: str
    scenario: str
    kind: str  # "cli" or "grid"
    methods: tuple[str, ...]
    learner: str
    m: int
    n: int
    scored_ops: int  # operations whose estimates are scored and hashed
    # shares of speed.py's probe components whose slowdown best tracks the
    # operation's (fitted on recorded runs; see README.md)
    speed_mix: dict
    epochs: int | None = None  # MLP epochs override (cli only)


WORKLOADS = {
    w.name: w
    for w in (
        Workload("mg-mlp", "multi-guess", "cli", ("data", "channel"), "mlp",
                 m=10000, n=10000, scored_ops=12, epochs=1,
                 speed_mix={"elementwise": 0.9, "objects": 0.1}),
        Workload("dp-knn", "dp", "grid", ("data", "frequentist"), "knn",
                 m=10000, n=2000, scored_ops=16,
                 speed_mix={"elementwise": 0.5, "blas": 0.5}),
        Workload("loc-grid", "location", "grid", ("data", "channel", "frequentist"), "knn",
                 m=10000, n=10000, scored_ops=8,
                 speed_mix={"objects": 0.5, "elementwise": 0.5}),
        Workload("mg-knn", "multi-guess", "grid", ("data", "channel", "frequentist"), "knn",
                 m=10000, n=10000, scored_ops=18,
                 speed_mix={"elementwise": 0.5, "blas": 0.5}),
    )
}


def op_seed(run_seed: int, workload: str, index: int | str) -> int:
    """Master seed of one operation: 63 bits of a hash of (seed, workload, index)."""
    digest = hashlib.sha256(f"{run_seed}/{workload}/{index}".encode()).digest()
    return int.from_bytes(digest[:8], "little") >> 1


@dataclass
class OpResult:
    rows: list[tuple]  # (method, learner, m, i, j, estimate)
    attempted: int
    failed: int
    problems: list[str]


class Runner:
    """Runs the operations of one workload against an imported gleak."""

    def __init__(self, workload: Workload, scratch: Path) -> None:
        from gleak.scenarios import build_scenario

        self.workload = workload
        self.scratch = scratch
        scenario = build_scenario(workload.scenario)
        self.exact = scenario.exact_vg
        self.gain_range = scenario.gain.range

    def trials_per_op(self) -> int:
        return len(self.workload.methods)

    def call(self, seed: int, m: int | None = None, n: int | None = None):
        """The timed part of one operation: gleak's own work, nothing else."""
        w = self.workload
        m, n = m or w.m, n or w.n
        if w.kind == "cli":
            from gleak import cli

            outputs = []
            for method in w.methods:
                argv = ["estimate", "--scenario", w.scenario, "--method", method,
                        "--learner", w.learner, "--m", str(m), "--n", str(n),
                        "--seed", str(seed)]
                if w.epochs is not None:
                    argv += ["--epochs", str(w.epochs)]
                buffer = io.StringIO()
                with contextlib.redirect_stdout(buffer):
                    code = cli.main(argv)
                outputs.append((method, code, buffer.getvalue()))
            return outputs
        from gleak import harness

        config = harness.TrialMatrixConfig(
            scenario=w.scenario, master_seed=seed, methods=w.methods,
            learners=(w.learner,), sizes=(m,), num_train_sets=1,
            num_valid_sets=1, valid_size=n, workers=1,
        )
        metrics, rows = harness.run_trial_matrix(config)
        paths = harness.emit_reports(metrics, rows, config.resolved(), self.scratch / "op")
        return metrics, rows, paths

    def check(self, index: int, outputs) -> OpResult:
        """Untimed: validate one operation's outputs and collect its trials."""
        if self.workload.kind == "cli":
            return self._check_cli(index, outputs)
        return self._check_grid(index, outputs)

    def _estimate_ok(self, estimate: float) -> bool:
        a, b = self.gain_range
        return math.isfinite(estimate) and a - RANGE_SLACK <= estimate <= b + RANGE_SLACK

    def _check_cli(self, index: int, outputs) -> OpResult:
        w = self.workload
        result = OpResult([], 0, 0, [])
        for method, code, text in outputs:
            result.attempted += 1
            try:
                payload = json.loads(text)
                estimate = float(payload["estimate"])
            except (ValueError, KeyError, TypeError):
                payload, estimate = None, math.nan
            if code != 0 or payload is None or not self._estimate_ok(estimate):
                result.failed += 1
                continue
            expected = abs(estimate - self.exact) / self.exact
            if (payload["exact"] != self.exact or payload["normalized_error"] != expected
                    or payload["learner"] != w.learner or payload["m"] != w.m
                    or payload["n"] != w.n):
                result.problems.append(f"op {index} {method}: payload disagrees: {payload}")
            result.rows.append((method, w.learner, w.m, index, 0, estimate))
        return result

    def _check_grid(self, index: int, outputs) -> OpResult:
        metrics, rows, paths = outputs
        result = OpResult([], len(rows), 0, [])
        summary = json.loads(paths[0].read_text())
        csv_lines = paths[1].read_text().splitlines()[1:]
        if len(summary["results"]) != len(metrics) or len(csv_lines) != len(rows):
            result.problems.append(f"op {index}: artifact sizes disagree with the run")
        if len(rows) != self.trials_per_op():
            result.problems.append(f"op {index}: {len(rows)} trials, expected {self.trials_per_op()}")
        for row, line in zip(rows, csv_lines):
            if not self._estimate_ok(row.estimate):
                result.failed += 1
                continue
            if (row.exact != self.exact
                    or row.delta != abs(row.estimate - self.exact) / self.exact
                    or line.split(",")[7] != repr(row.estimate)):
                result.problems.append(f"op {index}: trial row disagrees: {row}")
            result.rows.append((row.method, row.learner, row.m, index, row.j, row.estimate))
        return result


def estimates_sha256(rows: list[tuple]) -> str:
    text = "\n".join(",".join(repr(v) for v in row) for row in rows)
    return hashlib.sha256(text.encode()).hexdigest()
