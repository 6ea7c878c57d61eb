"""Per-layer metrics: a recording of spans reduced to named numbers.

A layer is a module under ``repro``.  Times are host seconds *per pass*
(totals over the traced passes divided by their count) so they read
against the workload's ``wall_s``; counts are per pass too.  A metric a
workload never touches is 0 there -- every traced run reports every name
in ``BENCHMARK.json``'s ``per_layer`` list.
"""

from __future__ import annotations

from collections import defaultdict
from typing import Dict, List

from .spans import Span, self_times

__all__ = ["ROOT", "layer_metrics"]

ROOT = "pass"
"""Name of the harness's own span around each timed region."""

_SESSION_COUNTERS = (("computed", "points_computed"),
                     ("replayed", "points_replayed"),
                     ("analytical", "points_analytical"),
                     ("cached", "points_cached"),
                     ("quarantined", "points_quarantined"),
                     ("retried", "retries"))

_SIMULATION_KINDS = ("live", "replay", "instrumented")

_TIMED = (
    "experiments.result_cache_get", "experiments.result_cache_put",
    "experiments.journal_record",
    "trace.record.cache_get", "trace.record.cache_put",
    "trace.multiconfig.ladder",
    "model.profile_build", "model.predict",
    "model.profile_cache_get", "model.profile_cache_put",
    "fabric.http_submit", "fabric.http_result", "fabric.http_events",
    "fabric.broker_submit", "fabric.broker_lease",
    "fabric.broker_complete", "fabric.broker_result",
    "fabric.store_get", "fabric.store_publish",
    "optimize.evaluate",
)
"""Span names reported as ``<name>_s``."""

_COUNTED = (
    # metric name, span name -- calls per pass
    ("experiments.journal_records", "experiments.journal_record"),
    ("trace.multiconfig.ladder_calls", "trace.multiconfig.ladder"),
    ("model.profile_build_calls", "model.profile_build"),
    ("model.predict_calls", "model.predict"),
    ("optimize.evaluate_calls", "optimize.evaluate"),
)


def layer_metrics(spans: List[Span], scale: float = 1.0) -> Dict[str, float]:
    """Every span-derived per-layer metric, per traced pass.  ``scale``
    (reference seconds per host second, ``bench/calibrate.py``) is applied
    to every time so they read against the calibrated ``wall_s``."""
    own = self_times(spans)
    total: Dict[str, float] = defaultdict(float)
    selfs: Dict[str, float] = defaultdict(float)
    calls: Dict[str, int] = defaultdict(int)
    attrs: Dict[str, Dict[str, float]] = defaultdict(
        lambda: defaultdict(float))
    for span in spans:
        total[span.name] += span.duration
        selfs[span.name] += own[id(span)]
        calls[span.name] += 1
        for key, value in span.attrs.items():
            attrs[span.name][key] += value
    passes = max(1, calls[ROOT])

    def per_pass(value: float) -> float:
        return value / passes

    def seconds(value: float) -> float:
        return scale * value / passes

    out: Dict[str, float] = {}
    for name in _TIMED:
        out[f"{name}_s"] = seconds(total[name])
    for metric, name in _COUNTED:
        out[metric] = per_pass(calls[name])

    session = attrs["experiments.session"]
    out["experiments.session_self_s"] = seconds(
        selfs["experiments.session"])
    out["experiments.result_cache_ops"] = per_pass(
        calls["experiments.result_cache_get"]
        + calls["experiments.result_cache_put"])
    for counter, metric in _SESSION_COUNTERS:
        out[f"experiments.{metric}"] = per_pass(session[counter])

    simulations = simulated_events = 0.0
    for kind in _SIMULATION_KINDS:
        name = f"simulation.{kind}"
        out[f"{name}_s"] = seconds(total[name])
        out[f"{name}_calls"] = per_pass(calls[name])
        out[f"{name}_events"] = per_pass(attrs[name]["events"])
        simulations += calls[name]
        simulated_events += attrs[name]["events"]
    simulated_events += attrs["trace.multiconfig.ladder"]["events"]
    resolved = session["total"] - session["quarantined"]
    out["experiments.points_per_simulation"] = (
        resolved / simulations if simulations else 0.0)
    out["simulation.events_simulated_ratio"] = (
        simulated_events / session["events"] if session["events"] else 0.0)

    out["trace.record.cache_bytes"] = per_pass(
        attrs["trace.record.cache_get"]["bytes"]
        + attrs["trace.record.cache_put"]["bytes"])
    out["trace.multiconfig.ladder_rungs"] = per_pass(
        attrs["trace.multiconfig.ladder"]["rungs"])

    out["fabric.store_ops"] = per_pass(calls["fabric.store_get"]
                                       + calls["fabric.store_publish"])
    busy = [span for span in spans
            if span.name == "fabric.worker" and span.attrs.get("busy")]
    out["fabric.worker_busy_s"] = seconds(
        sum(span.duration for span in busy))
    out["fabric.units"] = per_pass(len(busy))
    # Client-side HTTP time the broker does not account for: connection
    # set-up, the asyncio front end, JSON both ways.
    out["fabric.rpc_overhead_s"] = seconds(
        total["fabric.http_submit"] + total["fabric.http_result"]
        - total["fabric.broker_submit"] - total["fabric.broker_result"])

    # What a submit costs beyond the sweeping itself: the pass less the
    # time the worker spent inside ``SweepSession.run`` -- what sweeping
    # the same rows locally would cost, short of a journal.
    out["fabric.overhead_vs_local_s"] = (
        seconds(total[ROOT] - total["experiments.session"])
        if busy else 0.0)

    out["optimize.search_self_s"] = seconds(selfs["optimize.search"])

    # The denominator for every share above, and what the root keeps for
    # itself: time no seam accounts for.
    out["harness.root_s"] = seconds(total[ROOT])
    out["harness.unattributed_ratio"] = (
        selfs[ROOT] / total[ROOT] if total[ROOT] else 0.0)
    return out
