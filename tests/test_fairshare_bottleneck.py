"""Cross-checks of the bottleneck-incremental filling and wake-heap pool.

Cached bottleneck orders with verified prefix replay must be a *pure*
optimization: bit-identical rates and completion times against the
fresh-fill reference (:class:`~repro.simcore.oracle.FreshFillFlowNetwork`,
the same kernel with the cache bypassed) on any topology and any event
sequence.  Equality there is exact (``==``), not approximate: a replayed
step recomputes the same floats the fresh scan would.

The per-component wake-heap pool reshapes components on every merge and
split; its regression tests also run the global oracle
(``FlowNetwork(sim, incremental=False)``), whose one whole-network
component never splits or merges, as a reshape-free wake cross-check
within the 1e-9 tolerance of ``tests/test_fairshare_incremental.py``.
"""

import math

import numpy as np
import pytest

import repro.platforms
from repro.experiments import ExperimentEngine, build_scenario
from repro.simcore import FluidLink, FlowNetwork, Simulator
from repro.simcore.oracle import FreshFillFlowNetwork
from repro.perf import PerfCounters

#: The global oracle's agreement with the per-component kernel.
GLOBAL_TOL = dict(rel=1e-9, abs=1e-9)

HORIZON = 400.0


def _random_script(seed: int, nlinks: int = 5, nflows: int = 48,
                   nevents: int = 24):
    """Randomized starts plus mid-flight mutations, with components large
    enough (few links, many flows) to engage the fill cache."""
    rng = np.random.default_rng(seed)
    capacities = rng.uniform(100.0, 1000.0, size=nlinks)
    starts = []
    for i in range(nflows):
        npath = int(rng.integers(1, min(3, nlinks) + 1))
        path = sorted(rng.choice(nlinks, size=npath, replace=False).tolist())
        starts.append({
            "time": float(rng.uniform(0.0, 30.0)),
            "size": float(rng.uniform(100.0, 20000.0)),
            "path": path,
            "weight": float(rng.uniform(0.5, 8.0)),
            "cap": (float(rng.uniform(5.0, 80.0))
                    if rng.random() < 0.6 else None),
        })
    events = []
    for _ in range(nevents):
        kind = rng.choice(["pause", "resume", "cancel", "capacity"])
        events.append({
            "time": float(rng.uniform(1.0, 80.0)),
            "kind": str(kind),
            "flow": int(rng.integers(0, nflows)),
            "link": int(rng.integers(0, nlinks)),
            "capacity": float(rng.uniform(60.0, 1200.0)),
        })
    return capacities, starts, events


def _run_script(capacities, starts, events, net_cls=FlowNetwork,
                **net_kwargs):
    """Execute one script; returns per-flow (finish, remaining, rate)."""
    sim = Simulator()
    net = net_cls(sim, **net_kwargs)
    links = [FluidLink(float(c), f"l{j}") for j, c in enumerate(capacities)]
    flows = {}

    def starter(idx, spec):
        yield sim.timeout(spec["time"])
        flows[idx] = net.start_flow(
            spec["size"], [links[j] for j in spec["path"]],
            weight=spec["weight"], cap=spec["cap"], label=f"f{idx}")

    def mutator(ev):
        yield sim.timeout(ev["time"])
        flow = flows.get(ev["flow"])
        if ev["kind"] == "pause" and flow is not None:
            net.pause_flow(flow)
        elif ev["kind"] == "resume" and flow is not None:
            net.resume_flow(flow)
        elif ev["kind"] == "cancel" and flow is not None:
            net.cancel_flow(flow)
        elif ev["kind"] == "capacity":
            links[ev["link"]].set_capacity(ev["capacity"])

    for idx, spec in enumerate(starts):
        sim.process(starter(idx, spec))
    for ev in events:
        sim.process(mutator(ev))
    sim.run(until=HORIZON)
    return {idx: (None if idx not in flows else
                  (flows[idx].finish_time, flows[idx].remaining,
                   flows[idx].rate))
            for idx in range(len(starts))}


@pytest.mark.parametrize("seed", range(14))
def test_cached_fill_matches_baseline_exactly(seed):
    """Same script, cached kernel vs the fresh-fill reference:
    bit-identical state."""
    script = _random_script(seed)
    cached = _run_script(*script)
    baseline = _run_script(*script, net_cls=FreshFillFlowNetwork)
    assert cached.keys() == baseline.keys()
    for idx in cached:
        a, b = cached[idx], baseline[idx]
        if a is None or b is None:
            assert a == b
            continue
        for x, y, what in zip(a, b, ("finish_time", "remaining", "rate")):
            if math.isnan(x) or math.isnan(y):
                assert math.isnan(x) and math.isnan(y), (idx, what, x, y)
            else:
                assert x == y, f"flow {idx} {what}: cached={x!r} baseline={y!r}"


def test_cache_counters_report_hits_and_partial_refills():
    """A churny many-flow component must actually hit the cache."""
    perf = PerfCounters()
    sim = Simulator(perf=perf)
    net = FlowNetwork(sim, perf=perf)
    server = FluidLink(1e9, "server")
    # A stable cohort (low caps, long flows) plus cycling bursts.
    for j in range(20):
        net.start_flow(2e4 * (1 + 0.01 * j), [server], cap=100.0 + j,
                       label=f"stable{j}")

    def burst(i):
        yield sim.timeout(0.1 * i)
        for k in range(4):
            flow = net.start_flow(500.0, [server], cap=900.0 + i + k)
            yield flow.done
            yield sim.timeout(0.2)

    for i in range(8):
        sim.process(burst(i))
    sim.run()
    assert perf.get("fill_cache_hits") > 0
    assert perf.get("fill_partial_refills") > 0
    assert perf.get("fill_steps_reused") > 20
    assert perf.get("wake_stale_pops") > 0


def test_component_registry_survives_merge_and_split():
    """A bridge flow unions two components; its end splits them again —
    with every completion firing exactly once at the baseline time."""
    def run(net_cls=FlowNetwork, **net_kwargs):
        sim = Simulator()
        net = net_cls(sim, **net_kwargs)
        left = FluidLink(100.0, "left")
        right = FluidLink(100.0, "right")
        fires = []
        flows = []
        # Enough flows per side to exceed the cache threshold.
        for i in range(6):
            flows.append(net.start_flow(1000.0 + 10 * i, [left],
                                        cap=30.0 + i, label=f"L{i}"))
            flows.append(net.start_flow(1200.0 + 10 * i, [right],
                                        cap=28.0 + i, label=f"R{i}"))
        for f in flows:
            f.done.callbacks.append(lambda ev: fires.append(ev.value.label))

        def bridge():
            yield sim.timeout(2.0)
            b = net.start_flow(500.0, [left, right], label="bridge")
            yield b.done
            yield sim.timeout(1.0)
            b2 = net.start_flow(400.0, [left, right], label="bridge2")
            yield sim.timeout(1.0)
            net.cancel_flow(b2)  # split while entries are still heap-live

        sim.process(bridge())
        sim.run()
        return [f.finish_time for f in flows], fires

    times_cached, fires_cached = run()
    times_base, fires_base = run(FreshFillFlowNetwork)
    times_glob, fires_glob = run(incremental=False)
    assert times_cached == times_base
    assert times_cached == pytest.approx(times_glob, **GLOBAL_TOL)
    assert sorted(fires_cached) == sorted(fires_base) == sorted(fires_glob)
    assert len(fires_cached) == len(set(fires_cached))  # exactly once each


def test_cancel_mid_refill_leaves_no_stale_wake_for_detached_component():
    """Satellite regression: cancelling (or pausing) a flow while its
    component is mid-refill — from an observer running inside the
    reallocation loop — must not leave a heap entry that fires for a
    detached component or double-completes a migrated flow."""
    def run(net_cls=FlowNetwork, **net_kwargs):
        sim = Simulator()
        net = net_cls(sim, **net_kwargs)
        left = FluidLink(100.0, "left")
        right = FluidLink(100.0, "right")
        flows = [net.start_flow(500.0 + 5 * i, [left], cap=20.0 + i)
                 for i in range(5)]
        flows += [net.start_flow(600.0 + 5 * i, [right], cap=18.0 + i)
                  for i in range(5)]
        victim = net.start_flow(5000.0, [left], cap=25.0, label="victim")
        state = {"fired": 0, "cancelled": False}
        victim.done.callbacks.append(
            lambda ev: state.__setitem__("fired", state["fired"] + 1))

        def observer(now, active):
            # Mid-reallocation: detach the victim while the refill that
            # re-priced it is still on the stack.
            if now >= 3.0 and not state["cancelled"]:
                state["cancelled"] = True
                net.cancel_flow(victim)

        net.add_observer(observer)

        def bridge():
            yield sim.timeout(1.0)
            b = net.start_flow(300.0, [left, right], label="bridge")
            yield b.done

        sim.process(bridge())
        sim.run()
        return [f.finish_time for f in flows], state

    times_cached, state_cached = run()
    times_base, state_base = run(FreshFillFlowNetwork)
    times_glob, state_glob = run(incremental=False)
    assert times_cached == times_base
    assert times_cached == pytest.approx(times_glob, **GLOBAL_TOL)
    # The cancelled flow's event fired exactly once (the cancellation),
    # never again from a stale wake of a dead component.
    assert state_cached["fired"] == 1 == state_base["fired"] \
        == state_glob["fired"]
    assert all(not math.isnan(t) for t in times_cached)  # all completed


def test_pause_mid_refill_is_exact_and_resumable():
    def run(net_cls=FlowNetwork, **net_kwargs):
        sim = Simulator()
        net = net_cls(sim, **net_kwargs)
        link = FluidLink(200.0)
        flows = [net.start_flow(800.0 + 7 * i, [link], cap=15.0 + i)
                 for i in range(10)]
        target = flows[3]

        def controller():
            yield sim.timeout(2.0)
            net.pause_flow(target)
            yield sim.timeout(5.0)
            net.resume_flow(target)

        sim.process(controller())
        sim.run()
        return [f.finish_time for f in flows]

    times = run()
    assert times == run(FreshFillFlowNetwork)
    assert times == pytest.approx(run(incremental=False), **GLOBAL_TOL)


def test_cache_survives_a_transient_bridge():
    """Regression: a short-lived bridge flow merges two regions; once it
    ends, each region must get its own component back (a stale pointer is
    a forwarding address, not membership) — otherwise the halves steal one
    shared component back and forth, wiping each other's fill cache on
    every refill."""
    def run(net_cls=FlowNetwork, **net_kwargs):
        perf = PerfCounters()
        sim = Simulator(perf=perf)
        net = net_cls(sim, perf=perf, **net_kwargs)
        a, b = FluidLink(1e9, "a"), FluidLink(1e9, "b")
        flows = []
        for j in range(10):
            flows.append(net.start_flow(2e4, [a], cap=100.0 + j))
            flows.append(net.start_flow(2e4, [b], cap=100.0 + j))
        flows.append(net.start_flow(500.0, [a, b], cap=500.0,
                                    label="bridge"))  # ends early

        def burst(i, link):
            yield sim.timeout(0.05 * i)
            for k in range(6):
                f = net.start_flow(300.0, [link], cap=900.0 + i + k)
                flows.append(f)
                yield f.done
                yield sim.timeout(0.1)

        for i in range(5):
            sim.process(burst(i, a))
            sim.process(burst(i, b))
        sim.run()
        return [f.finish_time for f in flows], perf, a, b

    times, perf, a, b = run()
    assert times == run(FreshFillFlowNetwork)[0]
    assert times == pytest.approx(run(incremental=False)[0], **GLOBAL_TOL)
    refills = (perf.get("fill_cache_hits") + perf.get("fill_partial_refills")
               + perf.get("fill_cache_misses"))
    assert perf.get("fill_cache_hits") > 0.3 * refills, perf.as_dict()
    assert perf.get("fill_cache_misses") < 0.1 * refills, perf.as_dict()
    # ... and the regions are separate components again.
    assert a._comp is not b._comp


def test_merge_must_not_drop_a_stale_pointer_remainders_wake():
    """Regression (found by the scenario equivalence sweep): reshapes leave
    stale link->component pointers, so a component whose *recorded* links
    are fully absorbed by a merge can still hold another region's live
    heap entries.  Retiring it (or keeping it dead when stale pointers
    bring it back as the keeper) silently drops those completions."""
    def run(net_cls=FlowNetwork, **net_kwargs):
        sim = Simulator()
        net = net_cls(sim, **net_kwargs)
        c_sat, c_main = FluidLink(100.0, "c_sat"), FluidLink(100.0, "c_main")
        d_sat, d_main = FluidLink(100.0, "d_sat"), FluidLink(100.0, "d_main")
        # One component per family via a bridge; cancelling the bridge
        # splits it with in-place reshapes, leaving each *_sat link as a
        # stale-pointer remainder whose flow's wake lives in the family
        # component's heap.
        ca = net.start_flow(5000.0, [c_sat], label="ca")     # done at t=50
        cb = net.start_flow(4000.0, [c_main], label="cb")
        da = net.start_flow(5000.0, [d_sat], label="da")
        db = net.start_flow(4000.0, [d_main], label="db")
        bc = net.start_flow(1e9, [c_sat, c_main], label="bc")
        bd = net.start_flow(1e9, [d_sat, d_main], label="bd")

        def driver():
            yield sim.timeout(1.0)
            net.cancel_flow(bc)
            net.cancel_flow(bd)
            yield sim.timeout(1.0)
            # Merge the two main regions: whichever family component is
            # not kept has its recorded links fully absorbed here while
            # its satellite's wake still lives in its heap.
            m = net.start_flow(100.0, [c_main, d_main], label="m")
            yield m.done

        sim.process(driver())
        sim.run()
        return [f.finish_time for f in (ca, cb, da, db)]

    times_pool = run()
    assert times_pool == run(FreshFillFlowNetwork)
    assert times_pool == pytest.approx(run(incremental=False), **GLOBAL_TOL)
    assert all(not math.isnan(t) for t in times_pool)


# ---------------------------------------------------------------------------
# Per-capacity-vector slots (observer-driven capacity wiggles)
# ---------------------------------------------------------------------------

def test_capacity_wiggle_restores_matching_slot():
    """Toggling a saturated link between two operating points must flip
    between cached slots (one per capacity vector) instead of invalidating
    the only cache on every toggle — the single-slot design missed every
    flip, because the changed link gates the whole bottleneck order."""
    from repro.simcore.fairshare import _CACHE_SLOTS

    def run(net_cls=FlowNetwork):
        perf = PerfCounters()
        sim = Simulator(perf=perf)
        net = net_cls(sim, perf=perf)
        server = FluidLink(100.0, "server")
        # Equal, uncapped flows: the link is the only bottleneck, so any
        # capacity change invalidates the entire cached order — unless a
        # slot recorded under the returning vector exists.
        flows = [net.start_flow(1e5, [server]) for _ in range(12)]
        ramp_misses = []

        def wiggler():
            yield sim.timeout(1.0)
            ramp_misses.append(perf.get("fill_cache_misses"))
            for k in range(20):
                server.set_capacity(120.0 if k % 2 == 0 else 100.0)
                yield sim.timeout(1.0)

        sim.process(wiggler())
        sim.run()
        return [f.finish_time for f in flows], perf, server, ramp_misses[0]

    times, perf, server, ramp = run()
    base_times, _, _, _ = run(FreshFillFlowNetwork)
    assert times == base_times
    assert all(not math.isnan(t) for t in times)
    # Past the ramp-up, only the first fill of each vector misses; every
    # later flip restores the slot recorded for the vector it returns to.
    assert perf.get("fill_cache_misses") - ramp <= 1, perf.as_dict()
    assert perf.get("fill_slot_restores") >= 15, perf.as_dict()
    assert perf.get("fill_cache_hits") >= 15, perf.as_dict()
    assert len(server._comp.fill_slots) <= _CACHE_SLOTS


def test_wiggle_script_with_churn_matches_baseline_exactly():
    """Two-point capacity cycling layered over random starts, pauses,
    resumes and cancels: the slotted cache must stay bit-identical to the
    cache-free baseline while actually restoring slots."""
    capacities, starts, random_events = _random_script(21)
    events = [ev for ev in random_events if ev["kind"] != "capacity"]
    # A two-point throttle on one link; the rest of the vector stays put,
    # so every other toggle returns to an already-recorded vector.
    for k in range(30):
        events.append({
            "time": 1.0 + 2.0 * k, "kind": "capacity", "flow": 0,
            "link": 0,
            "capacity": float(capacities[0] * (0.8 if k % 2 == 0 else 1.0)),
        })
    perf = PerfCounters()
    cached = _run_script(capacities, starts, events, perf=perf)
    baseline = _run_script(capacities, starts, events,
                           net_cls=FreshFillFlowNetwork)
    for idx in cached:
        a, b = cached[idx], baseline[idx]
        if a is None or b is None:
            assert a == b
            continue
        for x, y in zip(a, b):
            assert x == y or (math.isnan(x) and math.isnan(y)), (idx, x, y)
    assert perf.get("fill_slot_restores") > 0, perf.as_dict()


def test_bypassed_fill_keeps_slots_for_the_cohorts_return():
    """A component that dips below ``_CACHE_MIN_FLOWS`` (bypassed fresh
    fills) and then regrows must find its slots intact: slot verification
    is input-based, so an intervening bypassed fill cannot stale them.
    The old design dropped the cache on every bypassed fill, charging a
    full miss when the cohort came back."""
    perf = PerfCounters()
    sim = Simulator(perf=perf)
    net = FlowNetwork(sim, perf=perf)
    server = FluidLink(1e9, "server")
    flows = [net.start_flow(1e6, [server], cap=10.0 + i, label=f"f{i}")
             for i in range(12)]

    def churn():
        # Churn the largest-cap flows: their steps sit at the end of the
        # recorded order, so the shrink and regrow refills keep a long
        # replayable prefix (this isolates the slot-retention behaviour).
        for f in flows[7:]:
            yield sim.timeout(1.0)
            net.pause_flow(f)          # down through 7 live: bypassed fills
        for f in flows[7:]:
            yield sim.timeout(1.0)
            net.resume_flow(f)         # back up: slots must still be there

    sim.process(churn())
    sim.run()
    # Only the very first fill misses; the shrink refills replay fully
    # (removed flows are skipped) and the regrow refills replay partially.
    assert perf.get("fill_cache_misses") == 1, perf.as_dict()
    assert perf.get("fill_cache_hits") >= 4, perf.as_dict()
    assert perf.get("fill_partial_refills") >= 4, perf.as_dict()
    assert all(not math.isnan(f.finish_time) for f in flows)


# ---------------------------------------------------------------------------
# Full-stack equivalence on the high-churn scenarios
# ---------------------------------------------------------------------------

def _run_regimes(engine, monkeypatch, scenario, **kwargs):
    """One scenario under the cached kernel, the fresh-fill reference
    (substituted for the platform's network) and the global oracle."""
    results = {}
    for allocator in ("incremental", "global"):
        spec = build_scenario(scenario, allocator=allocator, **kwargs)[0]
        results[allocator] = engine.run(spec)
    with monkeypatch.context() as m:
        m.setattr(repro.platforms, "FlowNetwork", FreshFillFlowNetwork)
        spec = build_scenario(scenario, allocator="incremental", **kwargs)[0]
        results["fresh-fill"] = engine.run(spec)
    return results


@pytest.mark.parametrize("scenario,kwargs", [
    ("checkpoint-waves", dict(napps=30, nservers=6, ncohorts=3, phases=2,
                              bridge_every=4)),
    ("read-write-mix", dict(napps=18, nservers=6, phases=4)),
])
def test_scenarios_identical_across_kernel_regimes(scenario, kwargs,
                                                   monkeypatch):
    """checkpoint-waves / read-write-mix: the cached kernel, the fresh-fill
    reference and the global oracle all tell the same story."""
    results = _run_regimes(ExperimentEngine(), monkeypatch, scenario,
                           **kwargs)
    rec_inc = results["incremental"].records
    rec_fresh = results["fresh-fill"].records
    rec_glob = results["global"].records
    assert rec_inc.keys() == rec_fresh.keys() == rec_glob.keys()
    for name in rec_inc:
        # Cached vs fresh-fill reference: exact.
        assert rec_inc[name].write_times == rec_fresh[name].write_times, name
        # vs the global oracle: float-chunking tolerance.
        assert rec_inc[name].write_times == pytest.approx(
            rec_glob[name].write_times, rel=1e-9), name
    assert results["incremental"].makespan == results["fresh-fill"].makespan
    assert results["incremental"].makespan == pytest.approx(
        results["global"].makespan, rel=1e-9)


def test_scenario_equivalence_is_stable_across_allocation_layouts(
        monkeypatch):
    """Component-registry identity decisions iterate sets of links (id
    ordering), so layout-dependent bugs only show up under shifted heap
    addresses.  Re-run the read-write-mix regime comparison under a few
    deliberately shifted allocation patterns (this sweep caught the
    dead-component wake-loss bug the targeted test above pins down).  The
    fresh-fill reference reshapes components exactly like the cached
    kernel, so the global oracle's single never-reshaped component is the
    cross-check that would catch a lost wake."""
    import random
    engine = ExperimentEngine()
    rng = random.Random(1234)
    for _ in range(5):
        ballast = [object() for _ in range(rng.randrange(10000))]  # noqa: F841
        results = _run_regimes(engine, monkeypatch, "read-write-mix",
                               napps=18, nservers=6, phases=4)
        rec_inc = results["incremental"].records
        rec_fresh = results["fresh-fill"].records
        rec_glob = results["global"].records
        for name in rec_inc:
            assert rec_inc[name].write_times == \
                rec_fresh[name].write_times, name
            assert rec_inc[name].write_times == pytest.approx(
                rec_glob[name].write_times, **GLOBAL_TOL), name


# ---------------------------------------------------------------------------
# Adaptive fill-cache cutover (per-component replay-score EWMA)
# ---------------------------------------------------------------------------

def test_adaptive_cutover_matches_fresh_fill_exactly():
    """The adaptive cutover must yield physics bit-identical to the
    fresh-fill reference: the policy only picks *how* rates are computed,
    and replay is verified exact."""
    for seed in (3, 9, 21):
        script = _random_script(seed)
        adaptive = _run_script(*script)
        baseline = _run_script(*script, net_cls=FreshFillFlowNetwork)
        for idx in adaptive:
            a, b = adaptive[idx], baseline[idx]
            if a is None or b is None:
                assert a == b
                continue
            for x, y in zip(a, b):
                assert x == y or (math.isnan(x) and math.isnan(y)), (
                    seed, idx, x, y)


def test_adaptive_floor_gates_small_components():
    """Components below the adaptive floor never consult the cache; a
    bigger one records its first fill (one miss) and later fills
    replay."""
    from repro.simcore.fairshare import _CACHE_ADAPTIVE_FLOOR

    def run(nflows):
        perf = PerfCounters()
        sim = Simulator(perf=perf)
        net = FlowNetwork(sim, perf=perf)
        server = FluidLink(1e9, "server")
        # Capped flows on an unsaturated link: cap steps replay across
        # membership changes, so the drain produces genuine cache hits.
        flows = [net.start_flow(1e6, [server], cap=10.0 + i)
                 for i in range(nflows)]
        sim.run()
        assert all(not math.isnan(f.finish_time) for f in flows)
        return perf

    # Below the floor: every fill bypasses the cache.
    perf = run(_CACHE_ADAPTIVE_FLOOR - 1)
    assert perf.get("fill_cache_misses") == 0, perf.as_dict()
    assert perf.get("fill_cache_hits") == 0, perf.as_dict()
    assert perf.get("components_refilled") > 0, perf.as_dict()
    # Well above it: one recording miss, then the staggered completions
    # replay the recorded order.
    perf = run(12)
    assert perf.get("fill_cache_misses") >= 1, perf.as_dict()
    assert perf.get("fill_cache_hits") >= 1, perf.as_dict()


def test_adaptive_backs_off_when_replay_never_pays():
    """A capacity that never revisits an operating point defeats both
    replay and slot restore: every consulted fill is a genuine miss, the
    replay-score EWMA decays below the cutoff, and the component stops
    paying the recording overhead — misses plateau while refills grow."""
    from repro.simcore.fairshare import _CACHE_PROBE_PERIOD

    perf = PerfCounters()
    sim = Simulator(perf=perf)
    net = FlowNetwork(sim, perf=perf)
    server = FluidLink(100.0, "server")
    flows = [net.start_flow(1e6, [server]) for _ in range(12)]
    ramp = perf.get("fill_cache_misses")  # cold ramp-up misses, unscored
    nwiggles = 80

    def thrash():
        for k in range(nwiggles):
            # Monotonically drifting capacity: no vector ever returns.
            server.set_capacity(100.0 + 0.5 * (k + 1))
            yield sim.timeout(1.0)

    sim.process(thrash())
    sim.run()
    assert all(not math.isnan(f.finish_time) for f in flows)
    misses = perf.get("fill_cache_misses") - ramp
    refills = perf.get("components_refilled")
    assert refills >= nwiggles
    # EWMA 1.0 decays below the 0.2 cutoff after 6 score-0 misses; from
    # then on only the periodic probe (every _CACHE_PROBE_PERIOD bypassed
    # fills) consults the cache again.
    assert misses <= 6 + nwiggles // _CACHE_PROBE_PERIOD + 2, perf.as_dict()
    # ... and the probe really does fire: backoff is not permanent.
    assert misses >= 7, perf.as_dict()


def test_adaptive_stays_on_for_replayable_workload():
    """Staggered completions replay the recorded bottleneck order with no
    input drift: the EWMA must stay above the cutoff and keep the cache
    engaged for the whole drain."""
    from repro.simcore.fairshare import _CACHE_EWMA_CUTOFF

    perf = PerfCounters()
    sim = Simulator(perf=perf)
    net = FlowNetwork(sim, perf=perf)
    server = FluidLink(1e9, "server")
    # Capped flows on an unsaturated link: cap steps replay across both
    # the ramp (partials) and the staggered drain (hits) — input drift
    # never defeats the recorded order.
    flows = [net.start_flow(1e6, [server], cap=10.0 + i)
             for i in range(12)]
    sim.run()
    assert all(not math.isnan(f.finish_time) for f in flows)
    assert perf.get("fill_cache_hits") + perf.get("fill_partial_refills") \
        >= 4, perf.as_dict()
    assert perf.get("fill_cache_misses") <= 2, perf.as_dict()
    assert server._comp.fill_ewma >= _CACHE_EWMA_CUTOFF, \
        server._comp.fill_ewma
