"""Metric definitions: end-to-end metrics from untraced runs, per-layer
metrics from the traced run.  ``BENCHMARK.json`` lists the same names."""

from __future__ import annotations

import statistics

# Host speed drifts by tens of percent within seconds to minutes on a shared
# machine, in CPU time as much as in wall time.  Each campaign process times a
# short fixed stdlib loop at its start and every 0.2 s while ``cli.main`` runs
# (``child.HostProbe``); times are reported as reference seconds, scaled to a
# host on which one probe takes PROBE_REF_S.  The probe does not touch qtwist,
# so a change to the program moves the scaled times as much as the raw ones.
PROBE_REF_S = 0.005


def norm_main(rec: dict) -> float:
    """Time inside ``cli.main`` in reference seconds."""
    return rec["main_s"] * PROBE_REF_S / rec["probe_mean_s"]


def norm_setup(rec: dict) -> float:
    """Interpreter set-up in reference seconds, scaled by the probe that
    follows it most closely."""
    return rec["setup_s"] * PROBE_REF_S / rec["probe_first_s"]


# name, unit, better, bound (share of the parent's median it may worsen by)
END_TO_END = (
    ("wall_s", "s", "lower", 0.20),
    ("checks_per_s", "1/s", "higher", 0.20),
    ("setup_s", "s", "lower", 0.25),
    ("peak_rss_mb", "MB", "lower", 0.05),
)

# name, unit, better, source.  Sources:
#   ("self", layer)              summed self time of the layer's wrapped functions
#   ("calls" | "total", target)  calls or outermost total time of one function
#   ("counter", group, key)      an observer counter
#   ("ratio", group)             hits / lookups of an observer group
#   ("overhead",)                traced over untraced time inside cli.main
PER_LAYER = (
    ("coeffring.self_s", "s", "lower", ("self", "coeffring")),
    ("coeffring.LaurentPoly.__mul__.calls", "count", "lower", ("calls", "coeffring.LaurentPoly.__mul__")),
    ("coeffring.LaurentPoly.__add__.calls", "count", "lower", ("calls", "coeffring.LaurentPoly.__add__")),
    ("coeffring.LaurentPoly.exact_div.calls", "count", "lower", ("calls", "coeffring.LaurentPoly.exact_div")),
    ("coeffring.RatExpr.__init__.calls", "count", "lower", ("calls", "coeffring.RatExpr.__init__")),
    ("coeffring.RatExpr.__eq__.calls", "count", "lower", ("calls", "coeffring.RatExpr.__eq__")),
    ("presentations.self_s", "s", "lower", ("self", "presentations")),
    ("presentations.relations_of.total_s", "s", "lower", ("total", "presentations.relations_of")),
    ("presentations.instances", "count", "lower", ("counter", "presentations", "instances")),
    ("presentations.zero_instances", "count", "lower", ("counter", "presentations", "zero_instances")),
    ("presentations.max_terms", "count", "lower", ("counter", "presentations", "max_terms")),
    ("presentations.max_den_terms", "count", "lower", ("counter", "presentations", "max_den_terms")),
    ("twistmap.self_s", "s", "lower", ("self", "twistmap")),
    ("twistmap.TwistMap.forward.calls", "count", "lower", ("calls", "twistmap.TwistMap.forward")),
    ("twistmap.TwistScalars.hit_ratio", "ratio", "higher", ("ratio", "twistmap.TwistScalars")),
    ("ncalg.self_s", "s", "lower", ("self", "ncalg")),
    ("ncalg.straighten.calls", "count", "lower", ("calls", "ncalg.straighten")),
    ("ncalg.tmul.total_s", "s", "lower", ("total", "ncalg.tmul")),
    ("ncalg.TensorExpr.straighten.total_s", "s", "lower", ("total", "ncalg.TensorExpr.straighten")),
    ("ncalg.max_tensor_terms", "count", "lower", ("counter", "ncalg", "max_tensor_terms")),
    ("ncalg.StraightenRules.hop.hit_ratio", "ratio", "higher", ("ratio", "ncalg.StraightenRules.hop")),
    ("hopf.self_s", "s", "lower", ("self", "hopf")),
    ("hopf.delta.hit_ratio", "ratio", "higher", ("ratio", "hopf.delta")),
    ("hopf.verify_coproduct_powers.total_s", "s", "lower", ("total", "hopf.verify_coproduct_powers")),
    ("hopf.verify_antipode.total_s", "s", "lower", ("total", "hopf.verify_antipode")),
    ("specializations.make.total_s", "s", "lower", ("total", "specializations.make")),
    ("specializations.verify_specialization.total_s", "s", "lower",
     ("total", "specializations.verify_specialization")),
    ("repcheck.self_s", "s", "lower", ("self", "repcheck")),
    ("repcheck.verify_module.calls", "count", "lower", ("calls", "repcheck.verify_module")),
    ("repcheck.transport.total_s", "s", "lower", ("total", "repcheck.transport")),
    ("report.Report.to_json.total_s", "s", "lower", ("total", "report.Report.to_json")),
    ("report.checks", "count", "higher", ("counter", "report", "checks")),
    ("params.self_s", "s", "lower", ("self", "params")),
    ("cli.main.total_s", "s", "lower", ("total", "cli.main")),
    ("trace.overhead_ratio", "ratio", "lower", ("overhead",)),
)

# The observer targets each counter group depends on.
_GROUP_TARGETS = {
    "presentations": ("presentations.relations_of",),
    "twistmap.TwistScalars": ("twistmap.TwistScalars.e", "twistmap.TwistScalars.f",
                              "twistmap.TwistScalars.c"),
    "ncalg.StraightenRules.hop": ("ncalg.StraightenRules.hop",),
    "hopf.delta": ("hopf.delta",),
    "ncalg": ("ncalg.tmul", "ncalg.TensorExpr.straighten"),
    "report": ("report.Report.to_json",),
}


def end_to_end(timed: dict, setups: list) -> dict:
    """End-to-end values from the untraced runs, in reference seconds.

    ``timed`` maps each campaign name to its list of run records (see
    ``run.run_campaign``); ``setups`` holds the set-up-only records.
    ``wall_s`` sums the per-campaign medians of the time inside ``cli.main``,
    which keeps one slow sample of one campaign from moving it.  ``setup_s``
    is the median over every interpreter the run started.
    """
    runs = [r for rs in timed.values() for r in rs]
    wall = sum(statistics.median(map(norm_main, rs)) for rs in timed.values() if rs)
    checks = sum(rs[0]["checks"] for rs in timed.values() if rs)
    return {
        "wall_s": wall,
        "checks_per_s": checks / wall if wall else 0.0,
        "setup_s": statistics.median(map(norm_setup, runs + setups)) if runs + setups else 0.0,
        "peak_rss_mb": max((r["rss_mb"] for r in runs), default=0.0),
    }


def per_layer(trace: dict, overhead_ratio: float):
    """Per-layer values from a merged trace (see ``tracer.merge``).

    Returns ``(values, missing)``: a metric whose layer, function or observer
    no longer exists in the program is left out of ``values`` and named in
    ``missing``.
    """
    stats, counters = trace["stats"], trace["counters"]
    lost = set(trace["missing"])
    values, missing = {}, []
    for name, _unit, _better, src in PER_LAYER:
        kind = src[0]
        if kind == "self":
            if src[1] not in trace["modules"]:
                missing.append(name)
                continue
            prefix = src[1] + "."
            values[name] = sum(v[2] for k, v in stats.items() if k.startswith(prefix))
        elif kind in ("calls", "total"):
            if src[1] not in stats:
                missing.append(name)
                continue
            values[name] = stats[src[1]][0 if kind == "calls" else 1]
        elif kind in ("counter", "ratio"):
            if any(t in lost for t in _GROUP_TARGETS[src[1]]):
                missing.append(name)
                continue
            group = counters.get(src[1], {})
            if kind == "counter":
                values[name] = group.get(src[2], 0)
            else:
                lookups = group.get("lookups", 0)
                values[name] = group.get("hits", 0) / lookups if lookups else 0.0
        else:
            values[name] = overhead_ratio
    return values, missing


def unit_of(name: str) -> str:
    for row in END_TO_END + PER_LAYER:
        if row[0] == name:
            return row[1]
    raise KeyError(name)
