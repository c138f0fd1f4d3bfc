"""Command-line interface.

Subcommands:
  leak exact       exact vulnerability and leakage of a known channel
  leak estimate    one black-box estimate (data / channel preproc, frequentist)
  leak scenario    full trial matrix for a built-in scenario
  leak bounds      deviation / sample-complexity bound report
  leak preprocess  emit pre-processing artifacts without training

Exit codes: 0 success, 2 validation or usage error, 3 numerical failure.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys
import time
from pathlib import Path

from . import io
from .bounds import BoundInputs, bound_report
from .core import (
    NumericalError,
    ValidationError,
    _require,
    identity_gain,
    leakage_of,
    posterior_vulnerability,
    prior_vulnerability,
)
from .estimation import estimate
from .features import scalar_codec
from .harness import (
    LEARNERS,
    METHODS,
    PROFILES,
    TrialMatrixConfig,
    emit_reports,
    learner_config,
    run_trial_matrix,
)
from .knn import DistanceMetric
from .mlp import MlpConfig
from .preprocess import channel_preprocess, data_preprocess, rationalize_gain
from .rng import stream
from .scenarios import SCENARIO_NAMES, Scenario, build_scenario


def _emit(payload: dict, out: str | None) -> None:
    text = json.dumps(payload, indent=2, sort_keys=True)
    if out:
        Path(out).write_text(text + "\n")
    print(text)


def _load_scenario(args) -> Scenario:
    """The built-in scenario --scenario names, or the "files" scenario of the file flags."""
    given = [f"--{flag}" for flag in ("prior", "channel", "gain") if vars(args)[flag] is not None]
    empty = [flag for flag in given if not vars(args)[flag[2:]]]
    _require(not empty, f"{', '.join(empty)} given an empty path, which names no file")
    if args.scenario:
        _require(not given, f"--scenario cannot be combined with {', '.join(given)}")
        return build_scenario(args.scenario, profile=args.profile or "desk")
    _require(args.prior and args.channel, "provide --scenario or both --prior and --channel")
    _require(args.profile is None, "--profile sizes a built-in --scenario, not file inputs")
    channel = io.read_channel(args.channel)
    prior = io.read_prior(args.prior, channel.input)
    gain = io.read_gain(args.gain, channel.input) if args.gain else identity_gain(channel.input)
    exact = posterior_vulnerability(prior, channel, gain)
    return Scenario(
        "files", prior, channel, gain, exact, DistanceMetric("absolute", scalar_codec(1.0))
    )


def cmd_exact(args) -> int:
    started = time.perf_counter()
    scenario = _load_scenario(args)
    prior_v = prior_vulnerability(scenario.prior, scenario.gain)
    payload = {
        "prior_vulnerability": prior_v,
        "posterior_vulnerability": scenario.exact_vg,
        "leakage": leakage_of(prior_v, scenario.exact_vg, args.mode),
        "mode": args.mode,
        "wall_time": round(time.perf_counter() - started, 6),
    }
    _emit(payload, args.out)
    return 0


def _learner_config(args, scenario: Scenario):
    """The scenario's learner config; --epochs and --batch apply to an MLP's
    only, --learner (kNN by default) to the data and channel methods only."""
    learner = args.learner or "knn"
    config = learner_config(scenario, args.method, learner, args.profile or "desk", args.m)
    flags = {"--epochs": ("epochs", args.epochs), "--batch": ("batch_size", args.batch)}
    given = {flag: field for flag, field in flags.items() if field[1] is not None}
    if not isinstance(config, MlpConfig):
        where = f"--method {args.method} with --learner {learner}"
        _require(not given, f"{', '.join(given)} set MLP training, but {where} trains no MLP")
        _require(
            config is not None or args.learner is None,
            f"--learner {args.learner} given, but --method {args.method} trains no learner",
        )
        return config
    return dataclasses.replace(config, **dict(given.values()))


def cmd_estimate(args) -> int:
    for flag, count in (("--m", args.m), ("--n", args.n)):
        _require(count >= 1, f"{flag} must be >= 1, got {count}")
    scenario = _load_scenario(args)
    report = estimate(
        args.method,
        scenario.prior,
        scenario.channel,
        scenario.gain,
        args.m,
        args.n,
        _learner_config(args, scenario),
        stream(args.seed, f"{scenario.name}/estimate"),
    )
    exact = scenario.exact_vg
    payload = report.as_dict()
    payload["exact"] = exact
    # a file gain may give V_g <= 0, over which no relative error is defined
    payload["normalized_error"] = abs(report.estimate - exact) / exact if exact > 0 else None
    _emit(payload, args.out)
    return 0


def _names(text: str) -> tuple[str, ...]:
    """A comma-list flag; an empty flag is the empty list, which the matrix rejects."""
    return tuple(text.split(",")) if text else ()


def _sizes(text: str) -> tuple[int, ...]:
    return tuple(int(size) for size in _names(text))


def cmd_scenario(args) -> int:
    config = TrialMatrixConfig(
        scenario=args.name,
        master_seed=args.seed,
        profile=args.profile,
        methods=args.methods,
        learners=args.learners,
        sizes=args.sizes,
        num_train_sets=args.train_sets,
        num_valid_sets=args.valid_sets,
        valid_size=args.valid_size,
        workers=args.workers,
        gowalla_path=args.gowalla,
    )
    metrics, rows = run_trial_matrix(config)
    paths = emit_reports(metrics, rows, config.resolved(), args.out)
    for report in metrics:
        print(
            f"{report.method:12s} {report.learner:5s} m={report.m:<7d} "
            f"mean={report.mean:.4f} dispersion={report.dispersion:.4f} "
            f"total={report.total_error:.4f}"
        )
    for path in paths:
        print(f"wrote {path}")
    return 0


def cmd_bounds(args) -> int:
    _require(args.delta <= 1, f"--delta is a failure probability, must be <= 1, got {args.delta}")
    inputs = BoundInputs(
        m=args.m,
        n=args.n,
        sigma2=args.sigma2,
        range=(args.range[0], args.range[1]),
        hypothesis_count=args.hypotheses,
        epsilon=args.epsilon,
        delta=args.delta,
        split=args.split,
    )
    _emit(bound_report(inputs).as_dict(), args.out)
    return 0


def cmd_preprocess(args) -> int:
    unread = "prior" if args.mode == "data" else "samples"
    _require(vars(args)[unread] is None, f"--{unread} is not read by --mode {args.mode}")
    prefix = Path(args.out)
    if args.mode == "data":
        _require(args.samples and args.gain, "data mode needs --samples and --gain")
        gain = io.read_gain(args.gain)
        samples = io.read_samples(args.samples, gain.secrets)
        rational, scale = rationalize_gain(gain)
        weighted = data_preprocess(samples, rational)
        out_path = prefix.with_name(prefix.name + ".weighted.csv")
        io.write_weighted(weighted, out_path)
        _emit(
            {
                "entries": weighted.size,
                "total_weight": weighted.total_weight,
                "rationalize_scale": scale,
                "file": str(out_path),
            },
            None,
        )
        return 0
    _require(args.prior and args.gain, "channel mode needs --prior and --gain")
    gain = io.read_gain(args.gain)
    prior = io.read_prior(args.prior, gain.secrets)
    deriv = channel_preprocess(prior, gain)
    tau_path = prefix.with_name(prefix.name + ".tau.txt")
    r_path = prefix.with_name(prefix.name + ".R.txt")
    io.write_prior(deriv.tau, tau_path)
    io.write_channel(deriv.R, r_path)
    _emit(
        {"beta": deriv.beta, "tau": str(tau_path), "R": str(r_path)},
        None,
    )
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="leak",
        description="Exact and black-box estimation of g-vulnerability and leakage.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, seed=True, out_required=False, profile=None):
        if seed:
            p.add_argument("--seed", type=int, default=0, help="master seed")
        p.add_argument(
            "--profile", choices=sorted(PROFILES), default=profile,
            help="experiment scale (desk, the default: small/fast; paper: full grid)",
        )
        p.add_argument(
            "--out", required=out_required, help="output path (JSON) or artifact prefix"
        )

    p_exact = sub.add_parser("exact", help="exact V_g and leakage of a known channel")
    p_exact.add_argument("--prior", help="prior file")
    p_exact.add_argument("--channel", help="channel matrix file")
    p_exact.add_argument("--gain", help="gain matrix file (default: identity)")
    p_exact.add_argument("--scenario", choices=sorted(SCENARIO_NAMES))
    p_exact.add_argument(
        "--mode", choices=("multiplicative", "additive"), default="multiplicative"
    )
    common(p_exact, seed=False)
    p_exact.set_defaults(func=cmd_exact)

    p_est = sub.add_parser("estimate", help="one black-box estimate")
    p_est.add_argument("--scenario", choices=sorted(SCENARIO_NAMES))
    p_est.add_argument("--prior")
    p_est.add_argument("--channel")
    p_est.add_argument("--gain")
    p_est.add_argument("--method", choices=METHODS, default="data")
    p_est.add_argument("--learner", choices=LEARNERS, help="default: knn")
    p_est.add_argument("--m", type=int, default=10000, help="training samples")
    p_est.add_argument("--n", type=int, default=10000, help="validation samples")
    p_est.add_argument("--epochs", type=int, help="override MLP epochs")
    p_est.add_argument("--batch", type=int, help="override MLP batch size")
    common(p_est)
    p_est.set_defaults(func=cmd_estimate)

    p_scn = sub.add_parser(
        "scenario",
        help="run the trial matrix for a built-in scenario",
        epilog=(
            "Multi-learner runs report every learner's estimates side by side; "
            "a common selection heuristic keeps the model with the largest "
            "estimated leakage, but no automatic selection is applied."
        ),
    )
    p_scn.add_argument("name", choices=sorted(SCENARIO_NAMES))
    for flag, names in (("--methods", METHODS), ("--learners", LEARNERS)):
        p_scn.add_argument(
            flag, type=_names, default=names, help="comma list from: " + ",".join(names)
        )
    p_scn.add_argument("--sizes", type=_sizes, help="comma list of training sizes")
    p_scn.add_argument("--train-sets", type=int, help="training sets per size (I)")
    p_scn.add_argument("--valid-sets", type=int, help="validation sets (J)")
    p_scn.add_argument("--valid-size", type=int, help="validation samples (n)")
    p_scn.add_argument("--workers", type=int, default=1)
    p_scn.add_argument("--gowalla", help="check-in dump for the location scenario")
    common(p_scn, out_required=True, profile="desk")
    p_scn.set_defaults(func=cmd_scenario)

    p_bnd = sub.add_parser("bounds", help="deviation and sample-complexity bounds")
    p_bnd.add_argument("--m", type=int, required=True)
    p_bnd.add_argument("--n", type=int, required=True)
    p_bnd.add_argument("--sigma2", type=float, required=True)
    p_bnd.add_argument(
        "--range", type=float, nargs=2, required=True, metavar=("A", "B")
    )
    p_bnd.add_argument("--hypotheses", type=int, required=True)
    p_bnd.add_argument("--epsilon", type=float, required=True)
    p_bnd.add_argument("--delta", type=float, required=True)
    p_bnd.add_argument("--split", type=float, required=True)
    p_bnd.add_argument("--out")
    p_bnd.set_defaults(func=cmd_bounds)

    p_pre = sub.add_parser("preprocess", help="emit pre-processing artifacts")
    p_pre.add_argument("--mode", choices=("data", "channel"), required=True)
    p_pre.add_argument("--samples", help="sample CSV (data mode)")
    p_pre.add_argument("--prior", help="prior file (channel mode)")
    p_pre.add_argument("--gain", help="gain matrix file")
    p_pre.add_argument("--out", required=True, help="artifact prefix")
    p_pre.set_defaults(func=cmd_preprocess)

    return parser


def _check_out_directory(out: str | None) -> None:
    """Refuse an output path whose directory is missing before any work runs."""
    if out and not Path(out).parent.exists():
        raise ValidationError(f"output directory {Path(out).parent} does not exist")


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code) if exc.code else 0
    try:
        _check_out_directory(args.out)
        return args.func(args)
    except (ValidationError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (NumericalError, ArithmeticError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
