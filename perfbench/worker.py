"""Benchmark worker: one process that sets a workload up and measures it.

Started by ``run.py``, never by hand::

    python3 perfbench/worker.py setup <workload> <seed>
    python3 perfbench/worker.py run <workload> <seed> <seconds> <trace>
    python3 perfbench/worker.py reference

``setup`` builds the first input and stops: it prints the monotonic time
at which set-up ended (``run.py`` turns it into a wall-clock duration from
the moment it started the process) and the CPU seconds set-up took, at
the yardstick's nominal host speed.
``run`` does the same, then runs passes for ``seconds`` and prints one
JSON summary.  With ``trace`` = 1 it
alternates untraced and traced passes and reports per-layer figures.
``reference`` writes ``reference.json``: the output digests of every
workload at the default seed.
"""

from __future__ import annotations

import gc
import json
import os
import resource
import signal
import statistics
import sys
import time
from typing import Optional

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
DAEMON = os.path.join(HERE, "daemon.py")
sys.path.insert(0, os.path.join(ROOT, "src"))

from yardstick import Yardstick, normalize  # noqa: E402

#: Samples the host's speed from before the program's imports to the end
#: of set-up, so set-up time is stated at the nominal speed too.
SETUP_YARDSTICK = Yardstick()
SETUP_YARDSTICK.start()

import openloop  # noqa: E402
import workloads  # noqa: E402
from layers import harvest  # noqa: E402
from spans import (  # noqa: E402
    BENCH, EVENTLOOP, SpanRecorder, load, summarize,
)

#: Passes at least this many times whatever ``seconds`` says, so medians
#: have three samples.
MIN_PASSES = 3
#: Tail percentile of per-operation latency: every workload has at least
#: 128 operations per pass, so p90 has at least ten samples beyond it.
TAIL_Q = 0.90


def quantile(values, q: float) -> float:
    """Nearest-rank quantile of the non-NaN values (0 when there are none)."""
    ordered = sorted(v for v in values if v == v)
    if not ordered:
        return 0.0
    return ordered[min(len(ordered) - 1, max(0, round(q * len(ordered)) - 1))]


def emit(record: dict) -> None:
    print(json.dumps(record), flush=True)


def measure(wl, seconds: float) -> dict:
    """Untraced passes over whole cycles of the workload's inputs, for
    about ``seconds``; medians across passes.

    Every run covers the same inputs, however fast the host: a cycle runs
    each input once, and a further cycle starts only while at least half
    the last cycle's duration is left.
    """
    passes, norm_cpu = [], []
    probe = {}
    if wl.name == "service-replay":
        # The daemon's CPU seconds are scaled by its own CPU's speed.
        samples = os.path.join(out_dir(), "daemon-yardstick.json")
        probe["launcher"] = [sys.executable, DAEMON, "--yardstick", samples]
    t_end = time.perf_counter() + seconds
    while True:
        t_cycle = time.perf_counter()
        for _ in range(wl.INPUTS):
            yardstick = Yardstick()
            if probe and os.path.exists(samples):
                os.remove(samples)
            p = wl.run_pass(yardstick, **probe)
            norm = yardstick.normalize(p.cpu_s - p.helper_cpu_s)
            if probe:
                # A daemon that was killed wrote no samples: unscaled.
                norm += normalize(p.helper_cpu_s, (
                    Yardstick.load(samples).window(*p.window)
                    if os.path.exists(samples) else []))
            passes.append(p)
            norm_cpu.append(norm)
        now = time.perf_counter()
        if len(passes) >= MIN_PASSES and t_end - now < (now - t_cycle) / 2:
            break
    # Deterministic for a seed: each input's value, averaged over inputs.
    sim_core = {p.input: p.sim_core_s_in_io for p in passes}
    out = {
        "passes": len(passes),
        "wall_s": statistics.median(p.wall_s for p in passes),
        "cpu_s": statistics.median(p.cpu_s for p in passes),
        "norm_cpu_s": statistics.median(norm_cpu),
        "lat_p50_s": statistics.median(
            quantile(p.latency_s, 0.5) for p in passes),
        "lat_tail_s": statistics.median(
            quantile(p.latency_s, TAIL_Q) for p in passes),
        "lat_p99_s": statistics.median(
            quantile(p.latency_s, 0.99) for p in passes),
        "lat_samples": sum(len(p.latency_s) for p in passes),
        "tail_q": TAIL_Q,
        "operation": wl.operation,
        "sim_core_s_in_io": statistics.fmean(sim_core.values()),
        "attempted": sum(p.attempted for p in passes),
        "failed": sum(p.failed for p in passes),
    }
    if wl.name == "service-replay":
        out["daemon_rss_mb"] = statistics.median(p.extra["rss_mb"]
                                                 for p in passes)
        replay = wl.open_loop()
        out["open_loop"] = open_loop_summary(wl, replay)
        out["attempted"] += len(replay.latency_s)
        out["failed"] += min(len(replay.latency_s), replay.errors)
    return out


def open_loop_summary(wl, replay) -> dict:
    """The fixed-rate open-loop replay, for the report."""
    return {
        "rate": wl.RATE,
        "p50_s": quantile(replay.latency_s, 0.5),
        "p90_s": quantile(replay.latency_s, TAIL_Q),
        "p99_s": quantile(replay.latency_s, 0.99),
        "late_p99_s": quantile(replay.late_s, 0.99),
        "max_outstanding": max((o for _, o in replay.outstanding),
                               default=0),
        "backlog_grows": openloop.backlog_grows(replay.outstanding),
        "client": replay.client_counters,
    }


class Region:
    """The timed region of a pass: its wall-clock window, spans when
    tracing."""

    def __init__(self, recorder: Optional[SpanRecorder] = None):
        self.recorder = recorder

    def __enter__(self) -> "Region":
        if self.recorder is not None:
            self.recorder.reset()
            self.recorder.install()
        self.t0 = time.perf_counter()
        return self

    def __exit__(self, *exc) -> None:
        self.t1 = time.perf_counter()
        if self.recorder is not None:
            self.recorder.uninstall()


def merge_spans(worker: dict, daemon: Optional[dict]) -> dict:
    merged = {"self_s": dict(worker["self_s"]),
              "kind_calls": dict(worker["kind_calls"]),
              "kind_self_s": dict(worker["kind_self_s"])}
    for key in ("self_s", "kind_calls", "kind_self_s"):
        for name, value in (daemon or {}).get(key, {}).items():
            merged[key][name] = merged[key].get(name, 0) + value
    return merged


def traced(wl, seconds: float) -> dict:
    """Alternate untraced and traced passes over the same input each time;
    per-layer attribution."""
    recorder = SpanRecorder()
    results, traced_passes = [], []
    daemon_spans = os.path.join(out_dir(), "daemon-spans.npz")
    service = wl.name == "service-replay"
    extra = {}
    if service:
        extra["launcher"] = [sys.executable, DAEMON, "--spans", daemon_spans]
    t_end = time.perf_counter() + seconds
    while not traced_passes or time.perf_counter() < t_end:
        plain = wl.run_pass(Region())
        wl.repeat_input()
        region = Region(recorder)
        result = wl.run_pass(region, **extra)
        results += [plain, result]
        worker = recorder.summary()
        daemon = (summarize(*load(daemon_spans), window=(region.t0, region.t1))
                  if service else None)
        traced_passes.append({
            "counters": result.counters,
            "spans": merge_spans(worker, daemon),
            "busy_s": result.cpu_s,
            "untraced_busy_s": plain.cpu_s,
            "wall_s": region.t1 - region.t0,
            "processes": [process_cover(s) for s in (worker, daemon) if s],
        })
    recorder.dump(os.path.join(out_dir(), f"spans-{wl.name}.npz"))
    attempted = sum(p.attempted for p in results)
    failed = sum(p.failed for p in results)
    open_loop = None
    if service:
        replay = wl.open_loop()
        open_loop = open_loop_summary(wl, replay)
        open_loop["max_rate"] = wl.max_rate()
        attempted += len(replay.latency_s)
        failed += min(len(replay.latency_s), replay.errors)
    return {
        "passes": len(results),
        "attempted": attempted,
        "failed": failed,
        "per_layer": harvest(traced_passes, open_loop),
        "top_kinds": top_kinds([p["spans"] for p in traced_passes]),
    }


def process_cover(summary: dict) -> dict:
    """What one process's spans cover, for ``bench.unattributed_frac``."""
    return {"root_s": summary["root_s"], "idle_s": summary["idle_s"],
            "unowned_s": sum(summary["self_s"].get(layer, 0.0)
                             for layer in (EVENTLOOP, BENCH))}


def top_kinds(summaries, n: int = 12) -> list:
    """The entry points with the most self time (for the report)."""
    total: dict = {}
    for summary in summaries:
        for kind, s in summary["kind_self_s"].items():
            total[kind] = total.get(kind, 0.0) + s / len(summaries)
    return sorted(total.items(), key=lambda kv: -kv[1])[:n]


def out_dir() -> str:
    path = os.path.join(HERE, "out")
    os.makedirs(path, exist_ok=True)
    return path


def write_reference() -> None:
    """Digests of every input of every workload at the default seed."""
    reference = {}
    for name, factory in workloads.WORKLOADS.items():
        wl = factory(workloads.DEFAULT_SEED, ROOT, reference={})
        wl.reference = None
        try:
            wl.setup()
            results = [wl.run_pass() for _ in range(wl.INPUTS)]
        finally:
            wl.close()
        if any(r.failed for r in results):
            raise SystemExit(f"{name}: conservation checks failed")
        reference[name] = results[0].digests if wl.INPUTS == 1 else {
            key: [r.digests[key] for r in results]
            for key in results[0].digests}
    with open(workloads.REFERENCE_PATH, "w") as fh:
        json.dump(reference, fh, indent=1, sort_keys=True)
        fh.write("\n")


def main(argv) -> int:
    if argv[0] == "reference":
        SETUP_YARDSTICK.stop()
        write_reference()
        return 0
    # Terminated, still stop the daemons: finally blocks run on SystemExit.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    mode, name, seed = argv[0], argv[1], int(argv[2])
    if name == "service-replay":
        openloop.pin(0, openloop.WORKER_CPU)
    wl = workloads.WORKLOADS[name](seed, ROOT)
    try:
        wl.setup()
        setup_done, setup_cpu = time.monotonic(), time.process_time()
        SETUP_YARDSTICK.stop()
        setup_cpu = SETUP_YARDSTICK.normalize(
            setup_cpu + wl.setup_helper_cpu_s())
        emit({"setup_done": setup_done, "setup_cpu_s": setup_cpu})
        if mode == "setup":
            return 0
        seconds, trace = float(argv[3]), argv[4] == "1"
        gc.collect()
        record = traced(wl, seconds) if trace else measure(wl, seconds)
    finally:
        wl.close()
    record["numpy"] = workloads.np.__version__
    record["rss_mb"] = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
                        / 1024.0)
    emit(record)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
