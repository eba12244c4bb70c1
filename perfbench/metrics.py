"""Metric names, units and the arithmetic that turns samples into them.

End-to-end metrics are measured with tracing off; per-layer metrics come
from a traced run. Both lists must match BENCHMARK.json, which the tests
check.
"""

from __future__ import annotations

import statistics

END_TO_END = {
    "gen_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "workload_error": "L1",
    "ok_frac": "frac",
}

_PRIMITIVES = ("sec_eq", "sec_cmp", "sec_max", "sec_exp", "sec_ln",
               "sec_sqrt", "sec_sin_cos")

# per-layer metric -> (span name, field) for span-derived values
_SPAN_METRICS = {
    "rss.mul_s": ("rss.mul", "self_s"),
    "rss.mul_calls": ("rss.mul", "calls"),
    "rss.mul_elems": ("rss.mul", "elems"),
    "rss.borrow_taps_s": ("rss.borrow_taps", "self_s"),
    "rss.borrow_taps_calls": ("rss.borrow_taps", "calls"),
    "rss.masked_open_s": ("rss.masked_open", "self_s"),
    "rss.masked_open_elems": ("rss.masked_open", "elems"),
    "rss.trunc_s": ("rss.trunc", "self_s"),
    "rss.trunc_calls": ("rss.trunc", "calls"),
    "rss.open_s": ("rss.open", "self_s"),
    "rss.open_calls": ("rss.open", "calls"),
    "rss.share_s": ("rss.share", "self_s"),
    "rss.plain_s": ("rss.plain", "self_s"),
    **{f"primitives.{p}{suffix}": (f"primitives.{p}", field)
       for p in _PRIMITIVES
       for suffix, field in (("_s", "self_s"), ("_calls", "calls"))},
    "marginals.compute_workload_answers_s":
        ("marginals.compute_workload_answers", "self_s"),
    "marginals.p_way_marginal_s": ("marginals.p_way_marginal", "self_s"),
    "marginals.p_way_marginal_calls": ("marginals.p_way_marginal", "calls"),
    "marginals.local_compute_s": ("marginals.local_compute", "self_s"),
    "marginals.pi_join_s": ("marginals.pi_join", "self_s"),
    "mechanisms.pi_measure_s": ("mechanisms.pi_measure", "self_s"),
    "mechanisms.sample_noise_s": ("mechanisms.sample_noise", "self_s"),
    "mechanisms.pi_rc_s": ("mechanisms.pi_rc", "self_s"),
    "pipeline.run_pipeline_s": ("pipeline.run_pipeline", "self_s"),
    "pipeline.select_s": ("pipeline.select", "self_s"),
    "pipeline.mw_update_s": ("pipeline.mw_update", "self_s"),
    "pipeline.mw_update_calls": ("pipeline.mw_update", "calls"),
    "pipeline.model_marginal_s": ("pipeline.model_marginal", "self_s"),
    "pipeline.model_marginal_calls": ("pipeline.model_marginal", "calls"),
    "pipeline.sample_synthetic_s": ("pipeline.sample_synthetic", "self_s"),
    "dataio.workload_error_s": ("dataio.workload_error", "self_s"),
}

# per-layer metric -> transcript counter
_COUNTERS = {
    "rss.count.mul": "mul",
    "rss.count.trunc": "trunc",
    "rss.count.mask_bit": "mask_bit",
    "rss.count.rand_bit": "rand_bit",
    "primitives.count.eq": "eq",
    "primitives.count.gt": "gt",
}

# per-layer metric -> (transcript scopes summed, field). Messages are
# attributed to the innermost scope open when they are sent.
_SCOPES = {
    "marginals.pi_comp.bytes": (("pi_comp",), "bytes"),
    "marginals.pi_comp.messages": (("pi_comp",), "messages"),
    "mechanisms.noise.bytes": (("noise_bm", "noise_ih", "noise_lap"), "bytes"),
    "mechanisms.pi_rc.bytes": (("pi_rc",), "bytes"),
    "mechanisms.pi_measure.bytes": (("pi_measure",), "bytes"),
    "pipeline.select.bytes": (("select",), "bytes"),
    "pipeline.select.messages": (("select",), "messages"),
}

_TOTALS = {"net_rounds": "rounds", "net_bytes": "bytes",
           "net_messages": "messages"}


def _unit(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name.endswith("_frac"):
        return "frac"
    if name.endswith("bytes"):
        return "B"
    return "count"


# metrics built from a whole run rather than one traced iteration
_RUN_LEVEL = ("dataio.inputs_s", "trace.overhead_s")
_SHARES = ("marginals.compute_workload_answers_frac", "pipeline.model_frac")

PER_LAYER = {
    name: _unit(name)
    for name in (list(_SPAN_METRICS) + list(_COUNTERS) + list(_SCOPES)
                 + list(_TOTALS) + list(_SHARES) + list(_RUN_LEVEL))
}


def iteration_layers(totals: dict, summary: dict, gen_s: float) -> dict:
    """Per-layer values of one traced ``run_pipeline`` call."""
    def span(name, field):
        return totals[name][field] if name in totals else 0

    out = {m: span(*src) for m, src in _SPAN_METRICS.items()}
    out.update({m: summary["counters"].get(c, 0) for m, c in _COUNTERS.items()})
    for m, (scopes, field) in _SCOPES.items():
        out[m] = sum(summary["scopes"].get(s, {}).get(field, 0)
                     for s in scopes)
    out.update({m: summary[f] for m, f in _TOTALS.items()})
    out["marginals.compute_workload_answers_frac"] = (
        span("marginals.compute_workload_answers", "incl_s") / gen_s)
    out["pipeline.model_frac"] = (
        (span("pipeline.mw_update", "incl_s")
         + span("pipeline.model_marginal", "incl_s")) / gen_s)
    return out


def quartiles(values):
    """(q1, median, q3) as ``statistics.quantiles(values, n=4)`` gives them;
    a single value is its own quartiles."""
    values = list(values)
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def tail_percentile(n: int):
    """Highest of the usual percentiles with at least ten samples beyond
    it, or None when there are too few samples for any of them."""
    for p in (99.9, 99.0, 90.0, 75.0, 50.0):
        if n * (100.0 - p) / 100.0 >= 10:
            return p
    return None


def percentile(values, p: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    rank = max(1, -(-len(ordered) * p // 100))
    return ordered[int(rank) - 1]
