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
    Channel,
    NumericalError,
    ValidationError,
    identity_gain,
    leakage_of,
    posterior_vulnerability,
    prior_vulnerability,
    sample_joint,
)
from .estimation import (
    estimate_channel_preproc,
    estimate_data_preproc,
    frequentist_estimate,
)
from .features import scalar_codec
from .harness import (
    LEARNERS,
    METHODS,
    PROFILES,
    TrialMatrixConfig,
    emit_reports,
    knn_config_for,
    mlp_config_for,
    run_trial_matrix,
)
from .knn import DistanceMetric, KnnConfig
from .mlp import MlpConfig
from .preprocess import channel_preprocess, data_preprocess, rationalize_gain
from .rng import stream
from .scenarios import SCENARIO_NAMES, Scenario, build_scenario


def _emit(payload: dict, out: str | None) -> None:
    text = json.dumps(payload, indent=2, sort_keys=True)
    if out:
        Path(out).write_text(text + "\n")
    print(text)


def _load_triple(args) -> tuple:
    """(prior, channel, gain) from --scenario or from files."""
    if args.scenario:
        scenario = build_scenario(args.scenario, profile=args.profile)
        return scenario.prior, scenario.channel, scenario.gain, scenario
    if not (args.prior and args.channel):
        raise ValidationError("provide --scenario or both --prior and --channel")
    channel = io.read_channel(args.channel)
    prior = io.read_prior(args.prior, channel.input)
    if args.gain:
        gain = io.read_gain(args.gain, secrets=channel.input)
    else:
        gain = identity_gain(channel.input)
    return prior, channel, gain, None


def cmd_exact(args) -> int:
    started = time.perf_counter()
    prior, channel, gain, scenario = _load_triple(args)
    prior_v = prior_vulnerability(prior, gain)
    if isinstance(channel, Channel):
        posterior_v = posterior_vulnerability(prior, channel, gain)
    elif scenario is not None:
        posterior_v = scenario.exact_vg
    else:
        raise ValidationError("exact values need an explicit channel matrix")
    payload = {
        "prior_vulnerability": prior_v,
        "posterior_vulnerability": posterior_v,
        "leakage": leakage_of(prior_v, posterior_v, args.mode),
        "mode": args.mode,
        "wall_time": round(time.perf_counter() - started, 6),
    }
    _emit(payload, args.out)
    return 0


def _learner_config(args, scenario: Scenario | None, m: int):
    if args.learner == "knn":
        if scenario is not None:
            return knn_config_for(scenario)
        return KnnConfig(DistanceMetric("absolute", scalar_codec(1.0)))
    if scenario is not None:
        sizes = tuple(PROFILES[args.profile].sizes)
        config = mlp_config_for(scenario, args.method, args.profile, m, sizes)
    else:
        config = MlpConfig(
            codec=scalar_codec(1.0),
            hidden=(100, 100, 100),
            learning_rate=1e-3,
            epochs=100,
            batch_size=200,
        )
    overrides = {}
    if args.epochs is not None:
        overrides["epochs"] = args.epochs
    if args.batch is not None:
        overrides["batch_size"] = args.batch
    return dataclasses.replace(config, **overrides)


def cmd_estimate(args) -> int:
    prior, channel, gain, scenario = _load_triple(args)
    source = (prior, channel)
    name = args.scenario or "files"

    if args.method == "channel":
        report = estimate_channel_preproc(
            prior,
            channel,
            gain,
            args.m,
            args.n,
            _learner_config(args, scenario, args.m),
            stream(args.seed, f"{name}/estimate"),
        )
    else:
        train = sample_joint(source, args.m, stream(args.seed, f"{name}/estimate/train"))
        valid = sample_joint(source, args.n, stream(args.seed, f"{name}/estimate/valid"))
        if args.method == "frequentist":
            report = frequentist_estimate(train, valid, gain)
        else:
            report = estimate_data_preproc(
                train,
                valid,
                gain,
                _learner_config(args, scenario, args.m),
                stream(args.seed, f"{name}/estimate/learner"),
            )
    payload = report.as_dict()
    if scenario is not None:
        payload["exact"] = scenario.exact_vg
        payload["normalized_error"] = abs(report.estimate - scenario.exact_vg) / scenario.exact_vg
    _emit(payload, args.out)
    return 0


def cmd_scenario(args) -> int:
    config = TrialMatrixConfig(
        scenario=args.name,
        master_seed=args.seed,
        profile=args.profile,
        methods=tuple(args.methods.split(",")) if args.methods else METHODS,
        learners=tuple(args.learners.split(",")) if args.learners else LEARNERS,
        sizes=tuple(int(s) for s in args.sizes.split(",")) if args.sizes else None,
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
    prefix = Path(args.out)
    if args.mode == "data":
        if not (args.samples and args.gain):
            raise ValidationError("data mode needs --samples and --gain")
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
    if not (args.prior and args.gain):
        raise ValidationError("channel mode needs --prior and --gain")
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

    def common(p, seed=True):
        if seed:
            p.add_argument("--seed", type=int, default=0, help="master seed")
        p.add_argument(
            "--profile", choices=sorted(PROFILES), default="desk",
            help="experiment scale (desk: small/fast, paper: full grid)",
        )
        p.add_argument("--out", help="output path (JSON) or artifact prefix")

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
    p_est.add_argument("--learner", choices=LEARNERS, default="knn")
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
    p_scn.add_argument("--methods", help="comma list from: " + ",".join(METHODS))
    p_scn.add_argument("--learners", help="comma list from: " + ",".join(LEARNERS))
    p_scn.add_argument("--sizes", help="comma list of training sizes")
    p_scn.add_argument("--train-sets", type=int, help="training sets per size (I)")
    p_scn.add_argument("--valid-sets", type=int, help="validation sets (J)")
    p_scn.add_argument("--valid-size", type=int, help="validation samples (n)")
    p_scn.add_argument("--workers", type=int, default=1)
    p_scn.add_argument("--gowalla", help="check-in dump for the location scenario")
    common(p_scn)
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


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code) if exc.code else 0
    try:
        return args.func(args)
    except (ValidationError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (NumericalError, ArithmeticError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
