"""Turn a run into metrics: end-to-end figures and the per-layer table.

End-to-end metrics come from the untraced run's client-side timings.
Per-layer metrics come from the traced run: the spans the traced
launcher recorded are matched to the client's requests, so a layer's
time is always read against the request that paid for it.

* A request's **coverage** is the share of its client-observed latency
  that the union of its server-side layer spans covers.  What is left,
  latency minus covered time, is the ``aio`` tier's self time: request
  read, routing, executor queue wait and the socket write.
* Layer times (``*_ms``) are busy milliseconds per loop cycle, using
  each span's self time (its duration minus nested layer spans), except
  ``session.evaluate_ms``, which includes the engine spans under it.
* Counters read from ``/v1/stats`` are differences over the timed
  window, per loop cycle where they are rates.
"""

from __future__ import annotations

import json
import math
import statistics
from collections import defaultdict
from typing import Dict, List, Optional, Tuple

#: Latency recorded for a failed request: it misses every limit.
FAILED_MS = 1e9

#: Per-layer metrics, in report order, with their units.
PER_LAYER = [
    ("aio.hit_large.self_ms", "ms"),
    ("aio.hit_small.self_ms", "ms"),
    ("aio.miss.self_ms", "ms"),
    ("aio.batch.self_ms", "ms"),
    ("aio.update.self_ms", "ms"),
    ("aio.adhoc.self_ms", "ms"),
    ("aio.view.self_ms", "ms"),
    ("aio.rejected", "count"),
    ("cache.hits", "count"),
    ("cache.misses", "count"),
    ("cache.hit_ratio", "ratio"),
    ("cache.single_flight_waiters", "count"),
    ("cache.entries", "count"),
    ("cache.evictions", "count"),
    ("query.parse.calls", "count"),
    ("query.parse_ms", "ms"),
    ("session.evaluate_ms", "ms"),
    ("engine.plan_ms", "ms"),
    ("engine.join_step_ms.R", "ms"),
    ("engine.join_step_ms.S", "ms"),
    ("session.merge_ms", "ms"),
    ("engine.result_tuples", "count"),
    ("engine.monomials", "count"),
    ("plan_cache.hit_ratio", "ratio"),
    ("session.memo_hits", "count"),
    ("encode.ms", "ms"),
    ("encode.calls", "count"),
    ("encode.bytes", "bytes"),
    ("incremental.apply_ms", "ms"),
    ("incremental.view_changes", "count"),
    ("durability.wal_append_ms", "ms"),
    ("durability.wal_bytes_per_update", "bytes"),
    ("durability.snapshot_ms", "ms"),
    ("durability.snapshots", "count"),
    ("durability.snapshot_bytes", "bytes"),
    ("subscriptions.publish_ms", "ms"),
    ("subscriptions.events_delivered", "count"),
    ("subscriptions.evictions", "count"),
    ("subscriptions.resets", "count"),
    ("views.read_ms", "ms"),
    ("views.read_bytes", "bytes"),
    ("trace.coverage.hit_large", "ratio"),
    ("trace.coverage.hit_small", "ratio"),
    ("trace.coverage.miss", "ratio"),
    ("trace.coverage.batch", "ratio"),
    ("trace.coverage.update", "ratio"),
    ("trace.coverage.adhoc", "ratio"),
    ("trace.coverage.view", "ratio"),
    ("trace.overhead.large_p50", "ratio"),
    ("trace.overhead.small_p50", "ratio"),
]

#: Client request kinds to the names the per-layer table uses.
AIO_KINDS = {
    "hit_large": "hit_large",
    "hit_small": "hit_small",
    "miss": "miss",
    "batch": "batch",
    "update": "update",
    "adhoc": "adhoc",
    "view_V": "view",
}


def _finite(value: float) -> float:
    return value if math.isfinite(value) else FAILED_MS


def median_ms(latencies: List[float]) -> float:
    """Median in milliseconds (a failed request counts as infinite)."""
    if not latencies:
        return 0.0
    return _finite(statistics.median(latencies) * 1e3)


def tail_ms(latencies: List[float]) -> Tuple[Optional[float], float]:
    """The highest of p99/p95/p90/p75/p50 with at least ten samples beyond.

    Returns ``(quantile, ms)``; the quantile is ``None`` when fewer than
    twenty samples support even the median.
    """
    ordered = sorted(latencies)
    for quantile in (0.99, 0.95, 0.9, 0.75, 0.5):
        if len(ordered) * (1 - quantile) >= 10:
            index = min(len(ordered) - 1, math.ceil(quantile * len(ordered)) - 1)
            return quantile, _finite(ordered[index] * 1e3)
    return None, 0.0


def end_to_end(workload, phase, setups: List[float]) -> Dict[str, dict]:
    """The gated metrics of one untraced run.

    ``phase`` is :meth:`workloads.Phase.merged` over the run's timed
    servers.  ``req_per_s`` is the median server's completed loop
    requests per second of its window.
    """
    return {
        "setup_s": {"value": statistics.median(setups), "unit": "s"},
        "large_p50_ms": {"value": median_ms(phase.latencies[workload.large]), "unit": "ms"},
        "small_p50_ms": {"value": median_ms(phase.latencies[workload.small]), "unit": "ms"},
        "req_per_s": {"value": statistics.median(phase.rates), "unit": "1/s"},
        "server_rss_peak_mb": {"value": phase.rss_mb, "unit": "MB"},
    }


def latency_table(phase) -> Dict[str, dict]:
    """Every request kind's sample count, median and supported tail."""
    table = {}
    for kind, values in phase.latencies.items():
        if not values:
            continue
        quantile, tail = tail_ms(values)
        table[kind] = {
            "n": len(values),
            "p50_ms": median_ms(values),
            "tail": None if quantile is None else "p{:g}".format(quantile * 100),
            "tail_ms": tail if quantile is not None else None,
        }
    if phase.lags:
        table["changefeed_lag"] = {
            "n": len(phase.lags),
            "p50_ms": statistics.median(phase.lags) * 1e3,
        }
    return table


def stats_counters(phase) -> Dict[str, float]:
    """Cache, plan-cache and changefeed counters over the timed window."""
    before, after = phase.stats_before, phase.stats_after
    cycles = max(1, phase.cycles)

    def delta(section: str, key: str) -> float:
        return after.get(section, {}).get(key, 0) - before.get(section, {}).get(key, 0)

    hits = delta("cache", "hits") + delta("cache", "dedup_hits")
    misses = delta("cache", "misses")
    plan_hits, plan_misses = delta("plan_cache", "hits"), delta("plan_cache", "misses")
    return {
        "cache.hits": hits / cycles,
        "cache.misses": misses / cycles,
        "cache.hit_ratio": hits / (hits + misses) if hits + misses else 0.0,
        "cache.single_flight_waiters": delta("cache", "single_flight_waiters"),
        "cache.entries": after.get("cache", {}).get("size", 0),
        "cache.evictions": delta("cache", "evictions"),
        "plan_cache.hit_ratio": (
            plan_hits / (plan_hits + plan_misses) if plan_hits + plan_misses else 0.0
        ),
        "subscriptions.events_delivered": delta("subscriptions", "delivered_events"),
        "subscriptions.evictions": delta("subscriptions", "evictions"),
        "subscriptions.resets": delta("subscriptions", "resets"),
    }


def _match_connections(phase, server_requests) -> List[Tuple[object, dict]]:
    """Pair every client request with the server request it caused.

    Requests on one connection are sequential on both sides, so a
    server connection is matched to the client connection whose
    request windows contain its requests' start times, in order.
    """
    by_connection: Dict[int, List[dict]] = defaultdict(list)
    for index, request in enumerate(server_requests):
        request["index"] = index
        by_connection[request["connection"]].append(request)
    pairs = []
    for requests in by_connection.values():
        best, best_score = None, 0
        for connection in phase.connections:
            log = connection.log
            score = sum(
                1
                for response, request in zip(log, requests)
                if response.start * 1e9 <= request["start"] <= response.end * 1e9
            )
            if score > best_score:
                best, best_score = log, score
        if best is not None and best_score >= 0.9 * len(requests):
            pairs.extend(zip(best, requests))
    return pairs


def _self_times(spans: List[list]) -> List[Tuple[list, int]]:
    """Each span with its self time (duration minus nested spans)."""
    ordered = sorted(spans, key=lambda span: (span[2], -span[3]))
    own = {id(span): span[3] - span[2] for span in ordered}
    stack: List[list] = []
    for span in ordered:
        while stack and span[2] >= stack[-1][3]:
            stack.pop()
        if stack and span[3] <= stack[-1][3]:
            own[id(stack[-1])] -= span[3] - span[2]
        stack.append(span)
    return [(span, own[id(span)]) for span in ordered]


def _covered(spans: List[list], start: int, end: int) -> int:
    """Nanoseconds of ``[start, end]`` covered by the union of spans."""
    covered = 0
    reach = start
    for span in sorted(spans, key=lambda span: span[2]):
        lo, hi = max(span[2], reach), min(span[3], end)
        if hi > lo:
            covered += hi - lo
            reach = hi
    return covered


def per_layer(workload, plain, traced) -> Tuple[Dict[str, dict], Dict[str, object]]:
    """The per-layer table of one traced run (plus the untraced one)."""
    with open(traced.spans_path) as handle:
        dump = json.load(handle)
    spans_by_request: Dict[int, List[list]] = defaultdict(list)
    for span in dump["spans"]:
        if span[0] is not None:
            spans_by_request[span[0]].append(span)
    values: Dict[str, float] = {name: 0.0 for name, _unit in PER_LAYER}
    values.update(stats_counters(traced))
    cycles = max(1, traced.cycles)
    self_ms: Dict[str, List[float]] = defaultdict(list)
    coverage: Dict[str, List[float]] = defaultdict(list)
    busy: Dict[str, float] = defaultdict(float)
    calls: Dict[str, int] = defaultdict(int)
    attrs: Dict[str, float] = defaultdict(float)
    for response, request in _match_connections(traced, dump["requests"]):
        kind = AIO_KINDS.get(response.kind)
        if response.kind not in traced.latencies:
            continue  # warm-up and bookkeeping requests
        if response.status in (408, 503):
            values["aio.rejected"] += 1
        spans = spans_by_request.get(request["index"], [])
        start_ns, end_ns = int(response.start * 1e9), int(response.end * 1e9)
        covered = _covered(spans, start_ns, end_ns)
        if kind is not None and response.ok:
            self_ms[kind].append((end_ns - start_ns - covered) / 1e6)
            coverage[kind].append(covered / max(1, end_ns - start_ns))
        for span, own in _self_times(spans):
            name, span_attrs = span[1], span[4]
            if name == "engine.join_step":
                name = "engine.join_step.{}".format(span_attrs.get("relation"))
            duration = span[3] - span[2]
            busy[name] += (duration if name == "session.evaluate" else own) / 1e6
            calls[name] += 1
            for key in ("bytes", "changes", "memo_hits"):
                if key in span_attrs:
                    attrs["{}.{}".format(name, key)] += span_attrs[key]
    for kind, samples in self_ms.items():
        values["aio.{}.self_ms".format(kind)] = statistics.median(samples)
        values["trace.coverage.{}".format(kind)] = statistics.median(coverage[kind])
    per_cycle = {
        "query.parse_ms": busy["query.parse"],
        "session.evaluate_ms": busy["session.evaluate"],
        "engine.plan_ms": busy["engine.plan"],
        "engine.join_step_ms.R": busy["engine.join_step.R"],
        "engine.join_step_ms.S": busy["engine.join_step.S"],
        "session.merge_ms": busy["session.merge"],
        "encode.ms": busy["encode.results"] + busy["encode.json"],
        "encode.calls": calls["encode.json"],
        "encode.bytes": attrs["encode.json.bytes"],
        "query.parse.calls": calls["query.parse"],
        "session.memo_hits": attrs["session.evaluate.memo_hits"],
        "incremental.apply_ms": busy["incremental.apply"],
        "incremental.view_changes": attrs["incremental.apply.changes"],
        "durability.wal_append_ms": busy["durability.wal_append"],
        "durability.snapshot_ms": busy["durability.snapshot"],
        "subscriptions.publish_ms": busy["subscriptions.publish"],
        "views.read_ms": busy["views.read"],
    }
    for name, total in per_cycle.items():
        values[name] = total / cycles
    if calls["durability.wal_append"]:
        values["durability.wal_bytes_per_update"] = (
            attrs["durability.wal_append.bytes"] / calls["durability.wal_append"]
        )
    values["durability.snapshots"] = calls["durability.snapshot"]
    if calls["durability.snapshot"]:
        values["durability.snapshot_bytes"] = (
            attrs["durability.snapshot.bytes"] / calls["durability.snapshot"]
        )
    if calls["views.read"]:
        values["views.read_bytes"] = attrs["views.read.bytes"] / calls["views.read"]
    counts = traced.counts
    values["engine.result_tuples"] = counts.get(
        "reference.result_tuples", counts.get("view_V.result_tuples", 0)
    )
    values["engine.monomials"] = counts.get(
        "reference.monomials", counts.get("view_V.monomials", 0)
    )
    for metric, role in (("large_p50", workload.large), ("small_p50", workload.small)):
        base = median_ms(plain.latencies[role])
        values["trace.overhead." + metric] = (
            median_ms(traced.latencies[role]) / base if base else 0.0
        )
    metrics = {
        name: {"value": values[name], "unit": unit} for name, unit in PER_LAYER
    }
    detail = {
        "spans": len(dump["spans"]),
        "requests_traced": len(dump["requests"]),
        "latency_untraced": latency_table(plain),
        "latency_traced": latency_table(traced),
    }
    return metrics, detail
