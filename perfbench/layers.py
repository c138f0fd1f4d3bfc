"""Per-layer metrics: counters taken at call boundaries, and their reduction.

Each counter runs after its span closes and reads only the call's arguments
and result.  Counts marked "computed" are derived from shapes, not observed:
q x l distances and the (q, l, dim) float64 temporary of a pairwise call, and
3 x 2 x batch x sum(fan_in * fan_out) flops per MLP step.
"""

from __future__ import annotations

import hashlib
import math

# span name -> counted quantities; the metric of quantity "x" is "<span>.x".
# "s" (self seconds) exists for every span listed here.
LAYER_METRICS = {
    "scenarios.build_scenario": (),
    "core.sample_joint": ("samples",),
    "core.empirical_functional": ("queries",),
    "preprocess.rationalize_gain": ("calls", "entries", "calls_per_gain"),
    "preprocess.data_preprocess": ("expanded_weight",),
    "preprocess.channel_preprocess": ("calls",),
    "estimation.sample_preprocessed_pairs": ("samples",),
    "estimation.frequentist_predictor": (),
    "estimation.TablePredictor.predict": ("queries",),
    "knn.knn_train": ("indexed_l", "k"),
    "knn.KnnClassifier.predict": ("queries", "distinct_ratio"),
    "knn.DistanceMetric.pairwise": ("distances_computed", "bytes_computed"),
    "mlp.mlp_train": ("steps", "step_ms", "flops_computed"),
    "mlp.MlpClassifier.predict": (),
    "mlp.MlpClassifier.predict_proba": (),
    "features.FeatureCodec.encode": ("rows",),
    "harness.run_trial_matrix": (),
    "harness.emit_reports": ("bytes",),
    "cli.main": (),
}


# unit and direction by quantity; any other quantity is a count, lower better
UNITS = {
    "s": "s",
    "step_ms": "ms",
    "bytes": "bytes",
    "bytes_computed": "bytes",
    "flops_computed": "flop",
    "distinct_ratio": "ratio",
    "calls_per_gain": "ratio",
    "coverage": "ratio",
    "overhead_frac": "ratio",
}


def unit_of(metric: str) -> str:
    return UNITS.get(metric.rsplit(".", 1)[1], "count")


def _rationalize(rec, args, result) -> None:
    matrix = args["gain"].matrix
    rec.counts["preprocess.rationalize_gain.calls"] += 1
    rec.counts["preprocess.rationalize_gain.entries"] += matrix.size
    rec.kept["gains"].append(matrix)


def _knn_train(rec, args, result) -> None:
    rec.counts["knn.knn_train.calls"] += 1
    rec.counts["knn.knn_train.indexed_l"] += result.n_indexed
    rec.counts["knn.knn_train.k"] += result.k


def _knn_predict(rec, args, result) -> None:
    rec.counts["knn.KnnClassifier.predict.queries"] += len(args["ys"])
    rec.kept["knn_queries"].append(args["ys"])


def _pairwise(rec, args, result) -> None:
    q, dim = args["queries"].shape
    l = args["points"].shape[0]
    rec.counts["knn.DistanceMetric.pairwise.distances_computed"] += q * l
    rec.counts["knn.DistanceMetric.pairwise.bytes_computed"] += q * l * dim * 8


def _mlp_train(rec, args, result) -> None:
    data, config = args["data"], args["config"]
    steps = config.epochs * max(1, math.ceil(data.total_weight / config.batch_size))
    sizes = (config.codec.dim, *config.hidden, data.guesses.size)
    per_step = 3 * 2 * config.batch_size * sum(a * b for a, b in zip(sizes, sizes[1:]))
    rec.counts["mlp.mlp_train.steps"] += steps
    rec.counts["mlp.mlp_train.flops_computed"] += steps * per_step


def _adder(key: str, amount):
    def count(rec, args, result) -> None:
        rec.counts[key] += amount(args, result)

    return count


COUNTERS = {
    "core.sample_joint": _adder("core.sample_joint.samples", lambda a, r: a["count"]),
    "core.empirical_functional": _adder(
        "core.empirical_functional.queries", lambda a, r: a["validation"].size
    ),
    "preprocess.rationalize_gain": _rationalize,
    "preprocess.data_preprocess": _adder(
        "preprocess.data_preprocess.expanded_weight", lambda a, r: r.total_weight
    ),
    "preprocess.channel_preprocess": _adder(
        "preprocess.channel_preprocess.calls", lambda a, r: 1
    ),
    "estimation.sample_preprocessed_pairs": _adder(
        "estimation.sample_preprocessed_pairs.samples", lambda a, r: a["m"]
    ),
    "estimation.TablePredictor.predict": _adder(
        "estimation.TablePredictor.predict.queries", lambda a, r: len(a["ys"])
    ),
    "knn.knn_train": _knn_train,
    "knn.KnnClassifier.predict": _knn_predict,
    "knn.DistanceMetric.pairwise": _pairwise,
    "mlp.mlp_train": _mlp_train,
    "features.FeatureCodec.encode": _adder(
        "features.FeatureCodec.encode.rows", lambda a, r: len(a["ys"])
    ),
    "harness.emit_reports": _adder(
        "harness.emit_reports.bytes", lambda a, r: sum(p.stat().st_size for p in r)
    ),
}


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(rec, ops: int, traced_wall: float, untraced_wall: float) -> dict:
    """Per-layer values of one traced pass over ``ops`` operations.

    Self seconds and additive counts are per operation; ``indexed_l`` and
    ``k`` are means per training call; ratios are over the whole pass.
    A layer the workload never reaches reads 0.
    """
    import numpy as np

    totals = rec.totals()
    counts = rec.counts
    out = {}
    for span, quantities in LAYER_METRICS.items():
        out[f"{span}.s"] = totals.get(span, {}).get("self_s", 0.0) / ops
        for quantity in quantities:
            out[f"{span}.{quantity}"] = counts[f"{span}.{quantity}"] / ops
    train_calls = counts["knn.knn_train.calls"]
    out["knn.knn_train.indexed_l"] = _ratio(counts["knn.knn_train.indexed_l"], train_calls)
    out["knn.knn_train.k"] = _ratio(counts["knn.knn_train.k"], train_calls)
    distinct = sum(np.unique(np.asarray(ys), axis=0).shape[0] for ys in rec.kept["knn_queries"])
    out["knn.KnnClassifier.predict.distinct_ratio"] = _ratio(
        distinct, counts["knn.KnnClassifier.predict.queries"]
    )
    gains = {hashlib.sha256(m.tobytes()).hexdigest() for m in rec.kept["gains"]}
    out["preprocess.rationalize_gain.calls_per_gain"] = _ratio(
        counts["preprocess.rationalize_gain.calls"], len(gains)
    )
    out["mlp.mlp_train.step_ms"] = 1000.0 * _ratio(
        totals.get("mlp.mlp_train", {}).get("self_s", 0.0),
        counts["mlp.mlp_train.steps"],
    )
    out["trace.coverage"] = sum(t["self_s"] for t in totals.values()) / traced_wall
    out["trace.overhead_frac"] = traced_wall / untraced_wall
    return out

