"""Per-layer metrics of a traced run, derived from its spans.

Every wrapped function gives ``<module>.<function>.calls``, ``.total_s`` and
``.self_s``; the counters below combine spans of two layers or values read
off calls. All figures are per traced pass, so runs that fit a different
number of passes stay comparable. A layer the workload never calls reports
zero.
"""

from __future__ import annotations

import numpy as np

_SPAN_FIELDS = {"calls": ("count", "lower"), "total_s": ("s", "lower"), "self_s": ("s", "lower")}
_COUNTER_UNITS = {
    "serial.encode_named_arrays.bytes": ("B", "lower"),
    "serial.decode_named_arrays.bytes": ("B", "lower"),
    "dataio.bytes_written": ("B", "lower"),
    "dataio.bytes_read": ("B", "lower"),
    "mlp.save_checkpoint.bytes": ("B", "lower"),
    "bcd.outer_iters": ("count", "lower"),
    "training.epochs": ("count", "lower"),
}


def _ratio(num, den):
    return num / den if den else 0.0


def per_layer_report(tracer, passes, untraced_wall, traced_wall) -> dict:
    """name -> (unit, better, value) for every span and derived counter."""
    views = tracer.layer_stats()
    stats = views["stats"]
    per = max(passes, 1)
    out = {}
    for name, st in stats.items():
        for field, (unit, better) in _SPAN_FIELDS.items():
            out[f"{name}.{field}"] = (unit, better, st[field] / per)
    for name, (unit, better) in _COUNTER_UNITS.items():
        out[name] = (unit, better, tracer.counts.get(name, 0) / per)

    def total(name, field="total_s"):
        return stats.get(name, {}).get(field, 0.0)

    objective = views["name"] == "bcd.objective_value_and_gradients"
    in_train = objective & views["in_train"]
    out["bcd.objective_value_and_gradients.in_training.calls"] = ("count", "lower", int(in_train.sum()) / per)
    out["bcd.objective_value_and_gradients.in_training.self_s"] = (
        "s", "lower", float(views["self"][in_train].sum()) / per)

    epochs = tracer.counts.get("training.epochs", 0)
    out["training.epoch_s"] = ("s", "lower", _ratio(total("training.train"), epochs))
    out["features.pca_retained"] = ("count", "lower", _ratio(tracer.counts.get("features.pca_retained", 0),
                                                             total("features.pca_fit", "calls")))

    outer = tracer.counts.get("bcd.outer_iters", 0)
    under_bcd = objective & (views["parent_name"] == "bcd.bcd_optimize")
    out["bcd.objective_calls_per_outer_iter"] = ("ratio", "lower", _ratio(int(under_bcd.sum()), outer))
    out["bcd.outer_iter_ms"] = ("ms", "lower", 1e3 * _ratio(total("bcd.bcd_optimize"), outer))

    configs = int(((views["name"] == "metrics.sum_utility")
                   & (views["parent_name"] == "brute.brute_force")).sum())
    out["brute.configs_evaluated"] = ("count", "lower", configs / per)
    out["brute.configs_per_s"] = ("1/s", "higher", _ratio(configs, total("brute.brute_force")))

    untraced = float(np.median(untraced_wall)) if untraced_wall else 0.0
    traced = float(np.median(traced_wall)) if traced_wall else 0.0
    out["trace.overhead_s"] = ("s", "lower", traced - untraced)
    out["trace.span_coverage"] = ("ratio", "higher", _ratio(views["root_time"], sum(traced_wall)))
    out["trace.passes"] = ("count", "higher", passes)
    out["trace.spans"] = ("count", "lower", views["spans"] / per)
    return out


def fill_absent(report: dict, wanted) -> dict:
    """Zero for every wanted metric of a layer this workload never called."""
    for m in wanted:
        report.setdefault(m["name"], (m["unit"], m["better"], 0.0))
    return report
