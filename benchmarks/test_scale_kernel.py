"""Scale benchmark: incremental vs. global allocation kernel.

Drives the fluid-flow kernel directly with a trace-shaped workload — many
applications, each cycling short transfers over its own client link into
one of a pool of server links — at a scale (200 concurrent applications by
default) where the old global allocator's every-event-reprices-everything
behaviour dominates wall-clock time.  The same byte-for-byte workload runs
under both allocators; the benchmark

* verifies the two produce identical completion times (the incremental
  allocator is a pure optimization, not an approximation),
* measures the wall-clock speedup (expected well above the 5x floor at
  full scale), and
* persists a machine-readable perf record to
  ``benchmarks/results/BENCH_kernel.json`` (see the README's "Performance
  instrumentation" section for how to read it).

A second, **high-churn** benchmark measures the bottleneck-incremental
regime: components of ~10^2 rate-capped flows where every completion or
arrival would otherwise trigger a from-scratch progressive filling.  The
same workload runs under the production kernel (cached bottleneck orders)
and under the fresh-fill baseline
(:class:`~repro.simcore.oracle.FreshFillFlowNetwork`: the same components
and wake-heap pool with the cache bypassed); completion times must match
exactly and the cached kernel must be >= 2x faster at full scale.
Results land in the ``churn`` section of ``BENCH_kernel.json``.

Reduced configurations for CI smoke runs come from the environment:
``SCALE_KERNEL_APPS``, ``SCALE_KERNEL_SERVERS``, ``SCALE_KERNEL_FLOWS``
for the incremental-vs-global benchmark and ``SCALE_KERNEL_CHURN_APPS``
(comma-separated app counts) for the high-churn one.  The >= 5x / >= 2x
assertions only apply at full scale (>= 200 / >= 500 applications);
reduced runs assert correctness and record whatever speedup they see.
"""

import json
import math
import os
import pathlib
import time

import numpy as np

from repro.perf import PerfCounters
from repro.simcore import FluidLink, FlowNetwork, Simulator
from repro.simcore.oracle import FreshFillFlowNetwork

RESULTS_DIR = pathlib.Path(__file__).parent / "results"

NAPPS = int(os.environ.get("SCALE_KERNEL_APPS", "200"))
NSERVERS = int(os.environ.get("SCALE_KERNEL_SERVERS", "40"))
NFLOWS = int(os.environ.get("SCALE_KERNEL_FLOWS", "4"))
CHURN_APPS = tuple(
    int(s) for s in
    os.environ.get("SCALE_KERNEL_CHURN_APPS", "500,1000").split(","))
SEED = 20140519  # the paper's conference date; any fixed seed works


def _merge_bench_kernel(update: dict) -> None:
    """Merge ``update`` into BENCH_kernel.json (tests run in any order)."""
    RESULTS_DIR.mkdir(exist_ok=True)
    path = RESULTS_DIR / "BENCH_kernel.json"
    record = {}
    if path.exists():
        try:
            record = json.loads(path.read_text())
        except ValueError:
            record = {}
    record.update(update)
    path.write_text(json.dumps(record, indent=2, sort_keys=True) + "\n")


def _workload(napps: int, nflows: int, seed: int):
    """Deterministic per-app flow sizes, weights, start offsets and gaps."""
    rng = np.random.default_rng(seed)
    return {
        "starts": rng.uniform(0.0, 5.0, size=napps),
        "weights": rng.choice([1.0, 2.0, 4.0], size=napps),
        "sizes": rng.uniform(5e7, 2e8, size=(napps, nflows)),
        "gaps": rng.uniform(0.1, 2.0, size=(napps, nflows)),
    }


def _run_kernel(incremental: bool, napps: int = NAPPS, nservers: int = NSERVERS,
                nflows: int = NFLOWS, seed: int = SEED):
    """One full simulation under the chosen allocator.

    Returns (wall_seconds, finish_times, perf_counters_dict).
    """
    wl = _workload(napps, nflows, seed)
    perf = PerfCounters()
    sim = Simulator(perf=perf)
    net = FlowNetwork(sim, incremental=incremental, perf=perf)
    servers = [FluidLink(500e6, f"server{s}") for s in range(nservers)]
    clients = [FluidLink(100e6, f"client{i}") for i in range(napps)]
    finish_times = np.zeros((napps, nflows))

    def app(i):
        yield sim.timeout(float(wl["starts"][i]))
        path = [clients[i], servers[i % nservers]]
        for k in range(nflows):
            flow = net.start_flow(float(wl["sizes"][i][k]), path,
                                  weight=float(wl["weights"][i]),
                                  label=f"app{i}")
            yield flow.done
            finish_times[i, k] = flow.finish_time
            yield sim.timeout(float(wl["gaps"][i][k]))

    for i in range(napps):
        sim.process(app(i))
    t0 = time.perf_counter()
    sim.run()
    wall = time.perf_counter() - t0
    assert not net.active_flows, "all flows must have completed"
    return wall, finish_times, perf.as_dict()


def test_scale_kernel_speedup_and_equivalence(report):
    """200-app trace-shaped workload: incremental >= 5x faster, same physics."""
    wall_inc, times_inc, perf_inc = _run_kernel(incremental=True)
    wall_glob, times_glob, perf_glob = _run_kernel(incremental=False)

    # The incremental allocator must be invisible to the physics: every
    # flow's completion time identical (tolerance covers float noise from
    # the differing wake bookkeeping; in practice the times are exact).
    assert np.allclose(times_inc, times_glob, rtol=1e-9, atol=1e-9), (
        "incremental and global allocators diverged: max |dt| = "
        f"{np.abs(times_inc - times_glob).max()}"
    )

    speedup = wall_glob / wall_inc if wall_inc > 0 else math.inf
    full_scale = NAPPS >= 200
    record = {
        "benchmark": "scale_kernel",
        "config": {"napps": NAPPS, "nservers": NSERVERS,
                   "flows_per_app": NFLOWS, "seed": SEED,
                   "full_scale": full_scale},
        "incremental": {"wall_seconds": round(wall_inc, 4), **perf_inc},
        "global": {"wall_seconds": round(wall_glob, 4), **perf_glob},
        "speedup": round(speedup, 2),
        "mean_flows_per_recompute": {
            "incremental": round(perf_inc["flows_touched"]
                                 / perf_inc["rate_recomputations"], 2),
            "global": round(perf_glob["flows_touched"]
                            / perf_glob["rate_recomputations"], 2),
        },
        "identical_completion_times": True,
    }
    _merge_bench_kernel(record)

    report("BENCH_kernel", "\n".join([
        "scale kernel benchmark "
        f"({NAPPS} apps x {NFLOWS} flows over {NSERVERS} servers)",
        f"  incremental: {wall_inc:8.3f} s wall, "
        f"{perf_inc['rate_recomputations']:.0f} recomputes, "
        f"{record['mean_flows_per_recompute']['incremental']:g} flows each",
        f"  global:      {wall_glob:8.3f} s wall, "
        f"{perf_glob['rate_recomputations']:.0f} recomputes, "
        f"{record['mean_flows_per_recompute']['global']:g} flows each",
        f"  speedup:     {speedup:8.2f}x "
        f"(floor: {'5x' if full_scale else 'none — reduced config'})",
    ]))

    if full_scale:
        assert speedup >= 5.0, (
            f"incremental kernel only {speedup:.2f}x faster at "
            f"{NAPPS} apps (needs >= 5x)"
        )
    else:
        assert speedup > 0


# ---------------------------------------------------------------------------
# High-churn regime: cached bottleneck orders vs the fresh-fill baseline
# ---------------------------------------------------------------------------

CHURN_PHASES = 3
CHURN_STABLE_PER_SERVER = 100
CHURN_APPS_PER_SERVER = 125  # servers scale with napps; components do not


def _churn_workload(napps: int, nservers: int, seed: int):
    """Checkpoint-wave-shaped kernel drive with ~10^2-flow components.

    Per server (= one link/flow component): a cohort of long-lived
    background writers with low per-flow rate caps — the stable prefix of
    the bottleneck order — plus ``napps / nservers`` bursty writers in a
    disjoint higher cap band whose short flows complete and restart
    constantly.  Every completion/arrival used to refill the whole
    component from scratch; the cached order replays the stable prefix and
    re-derives only the burst tail.
    """
    rng = np.random.default_rng(seed)
    nstable = nservers * CHURN_STABLE_PER_SERVER
    return {
        "stable_caps": rng.uniform(1e6, 2e6, size=nstable),
        "burst_caps": rng.uniform(8e6, 16e6, size=(napps, CHURN_PHASES)),
        "burst_secs": rng.uniform(0.5, 1.5, size=(napps, CHURN_PHASES)),
        "gaps": rng.uniform(2.0, 4.0, size=(napps, CHURN_PHASES)),
        "starts": rng.uniform(0.0, 10.0, size=napps),
    }


def _run_churn_kernel(cached: bool, napps: int, seed: int = SEED):
    """One high-churn run; returns (wall, finish_times, perf_counters)."""
    nservers = max(2, napps // CHURN_APPS_PER_SERVER)
    wl = _churn_workload(napps, nservers, seed)
    perf = PerfCounters()
    sim = Simulator(perf=perf)
    net_cls = FlowNetwork if cached else FreshFillFlowNetwork
    net = net_cls(sim, perf=perf)
    # Server ingest never binds (2x the worst-case cap sum): the bottleneck
    # order is the per-flow cap sequence, ~10^2 steps per component.
    per_server = 2.0 * (CHURN_STABLE_PER_SERVER * 2e6
                        + CHURN_APPS_PER_SERVER * 16e6)
    servers = [FluidLink(per_server, f"server{s}") for s in range(nservers)]
    horizon = 40.0
    for j, cap in enumerate(wl["stable_caps"]):
        net.start_flow(float(cap) * horizon, [servers[j % nservers]],
                       cap=float(cap), label=f"stable{j}")
    finish_times = np.zeros((napps, CHURN_PHASES))

    def app(i):
        yield sim.timeout(float(wl["starts"][i]))
        server = servers[i % nservers]
        for k in range(CHURN_PHASES):
            cap = float(wl["burst_caps"][i][k])
            flow = net.start_flow(cap * float(wl["burst_secs"][i][k]),
                                  [server], cap=cap, label=f"burst{i}")
            yield flow.done
            finish_times[i, k] = flow.finish_time
            yield sim.timeout(float(wl["gaps"][i][k]))

    for i in range(napps):
        sim.process(app(i))
    t0 = time.perf_counter()
    sim.run()
    wall = time.perf_counter() - t0
    assert not net.active_flows, "all flows must have completed"
    return wall, finish_times, perf.as_dict()


def test_scale_kernel_churn_speedup_and_equivalence(report):
    """High-churn components: cached bottleneck order >= 2x the fresh-fill
    baseline at full scale, with exactly identical completion times."""
    scales = {}
    lines = ["high-churn kernel benchmark (cached bottleneck order vs "
             "fresh-fill baseline)"]
    full_scale = min(CHURN_APPS) >= 500
    for napps in CHURN_APPS:
        wall_new, times_new, perf_new = _run_churn_kernel(True, napps)
        wall_old, times_old, perf_old = _run_churn_kernel(False, napps)
        # Same components and wake pool, different filling: the cached
        # order must reproduce the from-scratch rates bit for bit.
        assert np.array_equal(times_new, times_old), (
            f"cached fill diverged at {napps} apps: max |dt| = "
            f"{np.abs(times_new - times_old).max()}"
        )
        speedup = wall_old / wall_new if wall_new > 0 else math.inf
        fills = max(1.0, perf_new.get("rate_recomputations", 0))
        scales[str(napps)] = {
            "baseline_wall_seconds": round(wall_old, 4),
            "cached_wall_seconds": round(wall_new, 4),
            "speedup": round(speedup, 2),
            "perf": {k: perf_new[k] for k in sorted(perf_new)
                     if k.startswith(("fill_", "wake_"))},
        }
        lines.append(
            f"  {napps:5d} apps: baseline {wall_old:7.3f} s, "
            f"cached {wall_new:7.3f} s -> {speedup:5.2f}x  "
            f"(steps reused/fill: "
            f"{perf_new.get('fill_steps_reused', 0) / fills:.1f}, "
            f"hits {perf_new.get('fill_cache_hits', 0):.0f}, "
            f"partial {perf_new.get('fill_partial_refills', 0):.0f})")
    lines.append(f"  floor: {'2x' if full_scale else 'none — reduced config'}")
    record = {
        "config": {
            "phases": CHURN_PHASES,
            "stable_per_server": CHURN_STABLE_PER_SERVER,
            "apps_per_server": CHURN_APPS_PER_SERVER,
            "seed": SEED,
            "full_scale": full_scale,
            "scales": sorted(scales, key=float),
        },
        "scales": scales,
        "identical_completion_times": True,
    }
    _merge_bench_kernel({"churn": record})
    report("BENCH_kernel_churn", "\n".join(lines))
    if full_scale:
        for napps, entry in scales.items():
            assert entry["speedup"] >= 2.0, (
                f"cached kernel only {entry['speedup']:.2f}x over the "
                f"fresh-fill baseline at {napps} apps (needs >= 2x)"
            )
    else:
        for entry in scales.values():
            assert entry["speedup"] > 0


# ---------------------------------------------------------------------------
# Hyperscale regime: vectorized structure-of-arrays kernel vs the incremental
# oracle at 10^4 .. 10^6 flows
# ---------------------------------------------------------------------------

VEC_SCALES = tuple(
    int(s) for s in
    os.environ.get("SCALE_KERNEL_VEC_FLOWS",
                   "10000,100000,1000000").split(","))
HYPER_WAVES = 16
HYPER_LINKS = 8
HYPER_GAP = 1.0          # seconds between wave starts
HYPER_CAPACITY = 1e9     # bytes/s per link
HYPER_UTILIZATION = 1.5  # offered load > 1: ~waves*(u-1) cohorts pile up


HYPER_WEIGHTS = (1.0, 2.0, 4.0, 8.0)  # per-cohort weight ladder


def _hyper_workload(nflows: int):
    """Checkpoint-wave workload for the decision-free 10^6-flow regime.

    ``HYPER_WAVES`` waves of flows arrive at ``HYPER_GAP`` intervals,
    spread over ``HYPER_LINKS`` single-link components.  A (link, wave)
    cohort is striped over the ``HYPER_WEIGHTS`` ladder with equal byte
    sizes, so each weight class completes at its own instant — every
    completion re-prices the link's thousands of surviving flows, which
    is pure kernel work (refill + horizon recomputation) with no
    decision logic: exactly the regime the vectorized allocator exists
    for.  Offered load above 1.0 makes waves pile up on every link.
    """
    cohort = max(len(HYPER_WEIGHTS),
                 nflows // (HYPER_WAVES * HYPER_LINKS))
    size = HYPER_UTILIZATION * HYPER_GAP * HYPER_CAPACITY / cohort
    return cohort, size


def _run_hyper_kernel(vectorized: bool, nflows: int):
    """One hyperscale run; returns (wall, finish_times, perf_counters)."""
    cohort, size = _hyper_workload(nflows)
    perf = PerfCounters()
    sim = Simulator(perf=perf)
    net = FlowNetwork(sim, incremental=True, perf=perf,
                      vectorized=vectorized)
    links = [FluidLink(HYPER_CAPACITY, f"link{j}")
             for j in range(HYPER_LINKS)]
    flows = []

    def wave(w):
        yield sim.timeout(w * HYPER_GAP)
        flows.extend(net.start_flows(
            {"size": size, "path": [links[j]],
             "weight": HYPER_WEIGHTS[i % len(HYPER_WEIGHTS)],
             "label": f"w{w}l{j}"}
            for j in range(HYPER_LINKS) for i in range(cohort)))

    for w in range(HYPER_WAVES):
        sim.process(wave(w))
    t0 = time.perf_counter()
    sim.run()
    wall = time.perf_counter() - t0
    assert not net.active_flows, "all flows must have completed"
    return wall, np.array([f.finish_time for f in flows]), perf.as_dict()


def test_scale_kernel_hyperscale_speedup_and_equivalence(report):
    """Vectorized SoA kernel >= 5x the incremental oracle at 10^6 flows,
    with bit-identical completion times (single-link, no caps: the scan
    order is deterministic, so the equivalence contract promises
    exact-equal rates, not just ulp-bounded ones)."""
    scales = {}
    lines = ["hyperscale kernel benchmark (vectorized SoA kernel vs "
             "incremental oracle)"]
    full_scale = max(VEC_SCALES) >= 1_000_000
    for nflows in sorted(VEC_SCALES):
        wall_vec, times_vec, perf_vec = _run_hyper_kernel(True, nflows)
        wall_inc, times_inc, perf_inc = _run_hyper_kernel(False, nflows)
        assert np.array_equal(times_vec, times_inc), (
            f"vectorized kernel diverged at {nflows} flows: max |dt| = "
            f"{np.abs(times_vec - times_inc).max()}"
        )
        speedup = wall_inc / wall_vec if wall_vec > 0 else math.inf
        refills = max(1.0, perf_vec.get("vec_refills", 0))
        scales[str(nflows)] = {
            "incremental_wall_seconds": round(wall_inc, 4),
            "vectorized_wall_seconds": round(wall_vec, 4),
            "speedup": round(speedup, 2),
            "perf": {k: perf_vec[k] for k in sorted(perf_vec)
                     if k.startswith("vec_")},
        }
        lines.append(
            f"  {nflows:8d} flows: incremental {wall_inc:8.3f} s, "
            f"vectorized {wall_vec:8.3f} s -> {speedup:6.2f}x  "
            f"(refills {perf_vec.get('vec_refills', 0):.0f}, "
            f"fill steps/refill "
            f"{perf_vec.get('vec_fill_steps', 0) / refills:.1f}, "
            f"rebuild flows {perf_vec.get('vec_rebuild_flows', 0):.0f})")
    lines.append(f"  floor: {'5x at largest scale' if full_scale else 'none — reduced config'}")
    record = {
        "config": {
            "waves": HYPER_WAVES,
            "links": HYPER_LINKS,
            "gap_seconds": HYPER_GAP,
            "capacity": HYPER_CAPACITY,
            "utilization": HYPER_UTILIZATION,
            "weights": list(HYPER_WEIGHTS),
            "full_scale": full_scale,
            "scales": sorted(scales, key=float),
        },
        "scales": scales,
        "identical_completion_times": True,
    }
    _merge_bench_kernel({"hyperscale": record})
    report("BENCH_kernel_hyperscale", "\n".join(lines))
    largest = str(max(VEC_SCALES))
    if full_scale:
        assert scales[largest]["speedup"] >= 5.0, (
            f"vectorized kernel only {scales[largest]['speedup']:.2f}x over "
            f"the incremental oracle at {largest} flows (needs >= 5x)"
        )
    else:
        for entry in scales.values():
            assert entry["speedup"] > 0


def test_scale_kernel_components_stay_small():
    """The point of the refactor: touched-set size is per-component.

    Under the global allocator every recompute touches ~every active flow;
    under the incremental one it touches only the dirty component (here,
    one server's applications).
    """
    napps, nservers, nflows = min(NAPPS, 80), min(NSERVERS, 16), 2
    _, _, perf_inc = _run_kernel(True, napps, nservers, nflows, seed=7)
    _, _, perf_glob = _run_kernel(False, napps, nservers, nflows, seed=7)
    mean_inc = perf_inc["flows_touched"] / perf_inc["rate_recomputations"]
    mean_glob = perf_glob["flows_touched"] / perf_glob["rate_recomputations"]
    # One server's apps ~= napps / nservers; allow generous slack for the
    # start/finish ramp where fewer flows are live.
    assert mean_inc <= napps / nservers * 3
    assert mean_glob >= mean_inc  # global can never touch fewer
