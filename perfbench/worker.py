"""Child process of the benchmark: one set-up probe or one measured run.

    python3 perfbench/worker.py setup   --workload W --seed S
    python3 perfbench/worker.py measure --workload W --seed S --seconds T --trace 0|1

Run from the root of a gleak checkout; gleak is imported from ./src.  Prints
one JSON object on its last line.  ``run.py`` starts this with the BLAS
thread count pinned in the environment.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import sys
import time
import traceback
from pathlib import Path

import speed
import workloads as wl


def set_up(root: Path, workload: wl.Workload, seed: int, scratch: Path, sampler: speed.Sampler):
    """Import gleak from the checkout, build the scenario, warm up once.

    Returns the runner, the set-up time in seconds and the mean speed probe
    over it.  numpy is imported before, for the probe, so the set-up time
    leaves out importing numpy.
    """

    def load() -> wl.Runner:
        sys.path.insert(0, str(root / "src"))
        import gleak
        import gleak.cli  # noqa: F401  (the entry points the operations call)
        import gleak.harness  # noqa: F401

        if not Path(gleak.__file__).resolve().is_relative_to(root / "src"):
            raise SystemExit(f"gleak imported from {gleak.__file__}, not from {root / 'src'}")
        runner = wl.Runner(workload, scratch)
        # first-call warm-up: one small operation through the same code paths
        runner.check(-1, runner.call(wl.op_seed(seed, workload.name, "warmup"), m=500, n=500))
        return runner

    runner, setup_s, _, probe_s = sampler.timed(load)
    return runner, setup_s, probe_s


def environment() -> dict:
    import numpy as np

    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo") as handle:
            cpu = next(line.split(":", 1)[1].strip() for line in handle
                       if line.startswith("model name"))
    except (OSError, StopIteration):
        pass
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "cpu_model": cpu,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
    }


def timed_plainly(call):
    """Like ``speed.Sampler.timed`` without a sampler: no probes, probe 0."""
    w0, c0 = time.perf_counter(), time.process_time()
    result = call()
    return result, time.perf_counter() - w0, time.process_time() - c0, 0.0


def run_ops(runner: wl.Runner, seed: int, indices, until: float = 0.0, sampler=None):
    """Closed loop, one caller: run each operation, then check it.

    Keeps going past ``indices`` with fresh indices until ``until`` seconds
    have passed.  Returns per-operation samples (wall, CPU and, with a
    ``sampler``, the mean speed probe over the operation), results and the
    loop's wall.
    """
    name = runner.workload.name
    timed = sampler.timed if sampler else timed_plainly
    samples, results = [], []
    started = time.perf_counter()
    index = 0
    while index < len(indices) or time.perf_counter() - started < until:
        op = indices[index] if index < len(indices) else index

        def attempt():
            try:
                return runner.call(wl.op_seed(seed, name, op)), None
            except Exception:  # an operation that raises counts as failed trials
                return None, traceback.format_exc(limit=3)

        (outputs, error), wall, cpu, probe_s = timed(attempt)
        if error is None:
            result = runner.check(op, outputs)
        else:
            attempted = runner.trials_per_op()
            result = wl.OpResult([], attempted, attempted, [f"op {op} raised: {error}"])
        samples.append((wall, cpu, probe_s))
        results.append(result)
        index += 1
    return samples, results, time.perf_counter() - started


def summarize(results) -> dict:
    problems = [p for r in results for p in r.problems]
    return {
        "attempted": sum(r.attempted for r in results),
        "failed": sum(r.failed for r in results),
        "problems": problems[:20],
        "problem_count": len(problems),
    }


def measure(root, workload, seed, seconds, trace, scratch) -> dict:
    speed.warm_up()
    with speed.Sampler() as sampler:
        runner, setup_s, setup_probe = set_up(root, workload, seed, scratch, sampler)
        scored = list(range(workload.scored_ops))
        out = {"setup_s": setup_s, "setup_probe": setup_probe, "env": environment()}
        if not trace:
            samples, results, _ = run_ops(runner, seed, scored, until=seconds, sampler=sampler)
    if not trace:
        scored_rows = [row for r in results[: len(scored)] for row in r.rows]
        errors = {method: [] for method in workload.methods}
        for row in scored_rows:
            errors[row[0]].append(abs(row[-1] - runner.exact) / runner.exact)
        out.update(summarize(results))
        out.update({
            "wall_s": [s[0] for s in samples],
            "cpu_s": [s[1] for s in samples],
            "probe_s": [s[2] for s in samples],
            "norm_errors": errors,
            "estimates_sha256": wl.estimates_sha256(scored_rows),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        })
        return out

    import layers
    import spans

    _, plain, plain_wall = run_ops(runner, seed, scored)
    recorder = spans.SpanRecorder(layers.COUNTERS)
    spans.install(recorder)
    _, traced, traced_wall = run_ops(runner, seed, scored)
    plain_sha = wl.estimates_sha256([row for r in plain for row in r.rows])
    traced_sha = wl.estimates_sha256([row for r in traced for row in r.rows])
    out.update(summarize(plain + traced))
    if plain_sha != traced_sha:
        out["problems"].append("traced and untraced runs gave different estimates")
        out["problem_count"] += 1
    out.update({
        "estimates_sha256": traced_sha,
        "layers": layers.layer_metrics(recorder, len(scored), traced_wall, plain_wall),
        "spans": dict(sorted(recorder.totals().items())),
        "traced_callables": len(recorder.names),
    })
    return out


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("mode", choices=("setup", "measure"))
    parser.add_argument("--workload", required=True, choices=sorted(wl.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=0.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scratch", required=True)
    args = parser.parse_args()
    root = Path.cwd().resolve()
    workload = wl.WORKLOADS[args.workload]
    scratch = Path(args.scratch)
    scratch.mkdir(parents=True, exist_ok=True)
    try:
        if args.mode == "setup":
            speed.warm_up()
            with speed.Sampler() as sampler:
                _, setup_s, setup_probe = set_up(root, workload, args.seed, scratch, sampler)
            result = {"setup_s": setup_s, "setup_probe": setup_probe}
        else:
            result = measure(root, workload, args.seed, args.seconds, args.trace, scratch)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
