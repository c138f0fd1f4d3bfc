"""Run one gleak benchmark measurement; the last line of stdout is the result.

    python3 perfbench/run.py --workload mg-knn --seed 1 --seconds 20 --trace 0

Run from the root of a gleak checkout (the directory holding src/gleak).
With --trace 0 it reports the end-to-end metrics: the median operation's
wall and CPU time and the median of five fresh-process set-ups, all at the
reference speed of speed.py, peak memory and the normalized estimation
errors; the detail line before the result adds the tail and the times as
measured.  With --trace 1 it reports the per-layer
metrics of a traced pass.  Measurements run in child processes with the
BLAS thread count pinned.  A JSON record of the run, with the machine
description and the estimates' hash, goes to .perfbench_runs/ in the
checkout.  See perfbench/README.md for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

import speed
from layers import unit_of
from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
DEADLINE_S = 170.0
SETUP_PROBES = 2  # fresh set-up-only processes before, and again after, the measured one
BLAS_THREADS = 1


def child_env() -> dict:
    env = dict(os.environ)
    threads = str(min(BLAS_THREADS, os.cpu_count() or 1))
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = threads
    env["PYTHONHASHSEED"] = "0"
    return env


def run_child(args: list[str], deadline: float) -> dict:
    """Run worker.py with ``args``; returns its JSON result or exits on failure."""
    remaining = deadline - time.monotonic()
    try:
        proc = subprocess.run(
            [sys.executable, str(HERE / "worker.py"), *args],
            capture_output=True, text=True, env=child_env(), timeout=max(remaining, 1.0),
        )
    except subprocess.TimeoutExpired:
        sys.exit(f"worker {args[0]} did not finish before the deadline")
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        sys.exit(f"worker {args[0]} failed with exit code {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def tail_percentile(count: int) -> int:
    """Highest whole percentile with at least ten samples beyond it (>= 50)."""
    return max(50, math.floor(100 * (1 - 10 / count)))


def percentile(values: list[float], q: int) -> float:
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def end_to_end(result: dict, setups: list[tuple[float, dict]], mix: dict) -> tuple[dict, dict]:
    """Gated timings are medians at the reference speed (see speed.py); the
    measured medians and the tail go to the detail."""
    probes = result["probe_s"]
    walls = [speed.at_reference(w, p, mix) for w, p in zip(result["wall_s"], probes)]
    cpus = [speed.at_reference(c, p, mix) for c, p in zip(result["cpu_s"], probes)]
    setup_samples = [speed.at_reference(s, p, mix) for s, p in setups]
    by_method = list(result["norm_errors"].values())
    q = tail_percentile(len(walls))
    metrics = {
        "wall_s": (statistics.median(walls), "s"),
        "cpu_s": (statistics.median(cpus), "s"),
        "setup_s": (statistics.median(setup_samples), "s"),
        "peak_rss_mb": (result["peak_rss_mb"], "MB"),
        "median_norm_error": (statistics.mean(map(statistics.median, by_method)), "ratio"),
        "max_norm_error": (max(map(max, by_method)), "ratio"),
    }
    detail = {
        "operations": len(walls),
        "wall_s_tail": percentile(walls, q),
        "wall_s_tail_percentile": q,
        "wall_s_measured_p50": statistics.median(result["wall_s"]),
        "wall_s_measured_min": min(result["wall_s"]),
        "cpu_s_measured_p50": statistics.median(result["cpu_s"]),
        "setup_s_measured": [s for s, _ in setups],
        "setup_s_at_reference": setup_samples,
        "slowdown_p50": statistics.median(speed.slowdown(p, mix) for p in probes),
        "scored_trials": sum(map(len, by_method)),
    }
    return metrics, detail


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")

    deadline = time.monotonic() + DEADLINE_S
    root = Path.cwd()
    if not (root / "src" / "gleak" / "__init__.py").is_file():
        sys.exit(f"{root} is not a gleak checkout: src/gleak is missing")
    scratch = root / ".perfbench_tmp" / str(os.getpid())
    common = ["--workload", args.workload, "--seed", str(args.seed), "--scratch", str(scratch)]

    # set-up probes go before and after the measured child, to spread them in time
    probes = 0 if args.trace else SETUP_PROBES
    setups = [run_child(["setup", *common], deadline) for _ in range(probes)]
    result = run_child(
        ["measure", *common, "--seconds", str(args.seconds), "--trace", str(args.trace)],
        deadline,
    )
    setups.append(result)
    setups += [run_child(["setup", *common], deadline) for _ in range(probes)]

    if args.trace:
        metrics = {name: (value, unit_of(name)) for name, value in result["layers"].items()}
        detail = {"traced_callables": result["traced_callables"]}
    else:
        metrics, detail = end_to_end(result, [(r["setup_s"], r["setup_probe"]) for r in setups],
                                     WORKLOADS[args.workload].speed_mix)
    attempted, failed = result["attempted"], result["failed"]
    detail.update({
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "estimates_sha256": result["estimates_sha256"],
        "failed_frac": failed / attempted,
        "problems": result["problems"], "env": result["env"],
    })
    record_dir = root / ".perfbench_runs"
    record_dir.mkdir(exist_ok=True)
    record = dict(detail, metrics={k: v for k, (v, _) in metrics.items()},
                  wall_samples_s=result.get("wall_s"),
                  probe_samples_s=result.get("probe_s"), spans=result.get("spans"))
    record_path = record_dir / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    record_path.write_text(json.dumps(record, indent=1) + "\n")

    print(json.dumps(detail))
    print(json.dumps({
        "correct": result["problem_count"] == 0 and failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()
        },
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
