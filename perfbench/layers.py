"""Per-layer metrics: spans and program counters mapped onto layer names.

A layer is a ``repro`` module (``simcore.fairshare``) or a folded package
(``mpisim``, ``storage``).  Its figures come from two sources:

* self seconds and call counts from the traced passes' spans
  (:mod:`spans`), averaged per pass;
* counters the program already reports — ``ExperimentResult.perf`` for the
  simulation workloads, the daemon's final ``/metrics`` scrape for
  service-replay — averaged per pass; for service-replay also the
  open-loop replay's own clients' wire counters.

Every ratio is printed next to its base.  A counter the program never
bumped on a workload reads 0, as does a layer no span reached.
"""

from __future__ import annotations

import json
import os
import statistics
from typing import Dict, List, Optional

from spans import BENCH, EVENTLOOP

BENCHMARK_JSON = os.path.join(
    os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
    "BENCHMARK.json")


def per_layer_names() -> List[str]:
    """Names of the per-layer metrics, in report order: ``BENCHMARK.json``
    is the one list of them."""
    with open(BENCHMARK_JSON) as fh:
        return [m["name"] for m in json.load(fh)["per_layer"]]


#: ``repro.perf`` counter behind each plain counter metric.
COUNTERS = {
    "simcore.fairshare.recomputes": "rate_recomputations",
    "simcore.fairshare.flow_starts": "flow_starts",
    "simcore.fairshare.flow_completions": "flow_completions",
    "simcore.fairshare.wake_stale_pops": "wake_stale_pops",
    "simcore.fairshare.comp_rebuilds": "wake_comp_rebuilds",
    "simcore.fairshare_vec.refills": "vec_refills",
    "simcore.fairshare_vec.rebuild_flows": "vec_rebuild_flows",
    "simcore.fairshare_vec.append_flows": "vec_append_flows",
    "simcore.fairshare_vec.rate_writebacks": "vec_rate_writebacks",
    "simcore.engine.events": "events_processed",
    "simcore.engine.events_coincident": "events_coincident",
    "simcore.engine.timer_fastpath_hits": "timer_fastpath_hits",
    "simcore.engine.timers_cancelled": "timers_cancelled",
    "storage.io_requests": "io_requests",
    "storage.pfs_writes": "pfs_writes",
    "storage.pfs_reads": "pfs_reads",
    "apps.phases": "bench_app_phases",
    "core.decisions": "coord_decisions",
    "core.rounds": "coord_rounds",
    "core.grants": "coord_grants",
    "core.preemptions": "coord_preemptions",
    "core.coord_seconds": "coord_seconds",
    "service.protocol.encode_s": "wire_encode_seconds",
    "service.protocol.decode_s": "wire_decode_seconds",
    "service.protocol.flushes": "wire_flushes",
    "service.protocol.generic_frames": "wire_generic_frames",
    "service.server.frames": "service_frames",
    "service.server.exchanges_applied": "service_exchanges_applied",
    "service.server.reordered_frames": "service_reordered_frames",
    "service.server.backpressure_stalls": "service_backpressure_stalls",
    "service.server.rejections": "service_rejections",
    "service.server.protocol_errors": "service_protocol_errors",
}

#: Layer whose self seconds each ``*_s`` span metric reports.
SELF = {
    "simcore.fairshare.self_s": "simcore.fairshare",
    "simcore.fairshare_vec.self_s": "simcore.fairshare_vec",
    "perf.bump_s": "perf",
    "simcore.engine.dispatch_self_s": "simcore.engine",
    "mpisim.self_s": "mpisim",
    "storage.self_s": "storage",
    "apps.self_s": "apps",
    "network.self_s": "network",
    "platforms.build_s": "platforms",
    "experiments.self_s": "experiments",
    "core.arbiter.self_s": "core.arbiter",
    "core.strategies.decide_s": "core.strategies",
    "core.session.self_s": "core.session",
    "core.sharding.self_s": "core.sharding",
    "service.server.self_s": "service.server",
    "service.client.self_s": "service.client",
    "bench.eventloop_s": EVENTLOOP,
    "bench.harness_s": BENCH,
}

#: Entry points (by name suffix) counted as MPI collectives.
COLLECTIVES = (".write_collective", ".read_collective",
               "Communicator.barrier", "Communicator.bcast",
               "Communicator.shuffle")


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def _mean(values: List[float]) -> float:
    return sum(values) / len(values) if values else 0.0


def harvest(traced: List[dict],
            open_loop: Optional[dict] = None) -> Dict[str, float]:
    """Per-layer metrics from the traced passes.

    Each element of ``traced`` describes one traced pass: ``counters`` (the
    program's counters), ``spans`` (:func:`spans.summarize` output, worker
    and daemon merged), ``busy_s`` (CPU seconds of the processes doing the
    work) and ``untraced_busy_s`` (the same input's untraced pass),
    ``wall_s`` (the pass's traced region) and ``processes``: for the
    worker and the daemon, ``root_s`` (time root spans cover), ``idle_s``
    (the event loop's waits) and ``unowned_s`` (self time of the event
    loop's own work and the benchmark's code).  ``open_loop`` carries what
    service-replay's open-loop replays saw: ``late_p99_s``,
    ``max_outstanding``, ``max_rate`` and the clients' wire counters
    (``client``).
    """
    open_loop = open_loop or {}
    client = open_loop.get("client", {})

    def counter(name):
        return _mean([p["counters"].get(name, 0.0) for p in traced])

    def self_s(layer):
        return _mean([p["spans"]["self_s"].get(layer, 0.0) for p in traced])

    def calls(prefix, suffixes):
        return _mean([sum(c for k, c in p["spans"]["kind_calls"].items()
                          if k.startswith(prefix) and k.endswith(suffixes))
                      for p in traced])

    m: Dict[str, float] = {}
    for name, source in COUNTERS.items():
        m[name] = counter(source)
    for name, layer in SELF.items():
        m[name] = self_s(layer)
    m["simcore.fairshare.flows_per_recompute"] = _ratio(
        counter("flows_touched"), m["simcore.fairshare.recomputes"])
    attempts = (counter("fill_cache_hits") + counter("fill_partial_refills")
                + counter("fill_cache_misses"))
    m["simcore.fairshare.fill_cache_attempts"] = attempts
    m["simcore.fairshare.fill_cache_hit_ratio"] = _ratio(
        counter("fill_cache_hits") + counter("fill_partial_refills"),
        attempts)
    m["simcore.fairshare_vec.fill_steps_per_refill"] = _ratio(
        counter("vec_fill_steps"), m["simcore.fairshare_vec.refills"])
    m["perf.bump_calls"] = calls("perf:", ("PerfCounters.bump",))
    m["simcore.engine.ns_per_event"] = 1e9 * _ratio(
        m["simcore.engine.dispatch_self_s"], m["simcore.engine.events"])
    m["mpisim.collective_calls"] = calls("mpisim:", COLLECTIVES)
    m["platforms.builds"] = calls("platforms:", ("Platform.__init__",))
    m["core.exchanges_per_round"] = _ratio(counter("coord_exchanges"),
                                           m["core.rounds"])
    m["service.protocol.bytes_per_exchange"] = _ratio(
        counter("wire_bytes_encoded") + counter("wire_bytes_decoded"),
        m["service.server.exchanges_applied"])
    m["service.protocol.frames_per_flush"] = _ratio(
        counter("wire_frames_encoded"), m["service.protocol.flushes"])
    m["service.protocol.client_encode_s"] = client.get(
        "wire_encode_seconds", 0.0)
    m["service.protocol.client_decode_s"] = client.get(
        "wire_decode_seconds", 0.0)
    # Descriptors travel client -> daemon only: the clients' encoder counts.
    refs = client.get("wire_desc_refs", 0.0)
    descriptors = refs + client.get("wire_desc_interned", 0.0)
    m["service.protocol.descriptors"] = descriptors
    m["service.protocol.desc_ref_ratio"] = _ratio(refs, descriptors)
    m["service.loadgen.late_p99_ms"] = 1e3 * open_loop.get("late_p99_s", 0.0)
    m["service.loadgen.max_outstanding"] = open_loop.get("max_outstanding", 0)
    m["service.loadgen.max_rate"] = open_loop.get("max_rate", 0.0)
    m["bench.untraced_busy_s"] = statistics.median(
        p["untraced_busy_s"] for p in traced)
    m["bench.traced_busy_s"] = statistics.median(p["busy_s"] for p in traced)
    m["bench.trace_overhead_frac"] = statistics.median(
        _ratio(p["busy_s"], p["untraced_busy_s"]) for p in traced) - 1.0
    wall = _mean([p["wall_s"] for p in traced])
    m["bench.traced_wall_s"] = wall
    # Working time no program layer claims, per process (worker, daemon):
    # the traced region's wall outside every root span, plus the self time
    # of the event loop's own work and of the benchmark's code; over the
    # region's wall minus the event loop's idle waits.
    m["bench.unattributed_frac"] = _ratio(
        _mean([sum(max(0.0, p["wall_s"] - proc["root_s"]) + proc["unowned_s"]
                   for proc in p["processes"]) for p in traced]),
        _mean([sum(p["wall_s"] - proc["idle_s"] for proc in p["processes"])
               for p in traced]))
    names = per_layer_names()
    if set(names) != set(m):
        raise ValueError("per-layer metrics differ from BENCHMARK.json: "
                         f"{sorted(set(names) ^ set(m))}")
    return {name: m[name] for name in names}
