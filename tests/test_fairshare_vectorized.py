"""Cross-checks of the vectorized SoA allocator against the incremental oracle.

The vectorized allocator must be a pure optimization of the scalar
incremental kernel: the **completion ordering and event sequence are
always identical**, and the rates are bit-exact wherever the scalar scan
order is deterministic (single-link components without caps) and
ulp-bounded otherwise (numpy reductions batch the weight-sum and cap
residuals the scalar loop accumulates one flow at a time).

These tests script randomized workloads — random link graphs, weights,
caps, pauses, cancellations and capacity changes, plus same-instant
``start_flows`` cohorts whose paths interleave through one live component
— and targeted merge/split choreography (bridge flows joining components,
cancellations splitting them back apart), and run the *same* script
through both allocators, comparing the completion order exactly and the
numeric state, and every link's rate after every reallocation, within
1e-9.
"""

import math

import numpy as np
import pytest

from repro.experiments import ExperimentEngine, build_scenario
from repro.perf import PerfCounters
from repro.simcore import FluidLink, FlowNetwork, Simulator

HORIZON = 800.0


# ---------------------------------------------------------------------------
# randomized-topology fuzz harness
# ---------------------------------------------------------------------------

def _random_script(seed, nlinks=8, nflows=40, nevents=30,
                   multilink=True, caps=True, ncohorts=0, cohort_size=8):
    """A reproducible event script: flow starts plus mid-flight mutations.

    With ``ncohorts`` set, after the individually started flows come that
    many same-instant cohorts of ``cohort_size`` flows, started with one
    ``start_flows`` call each.  Their paths are drawn from a hub of links
    that a long-lived anchor flow keeps in one live component, so on the
    vectorized kernel the cohort queues onto one state's pending rows with
    different paths interleaved in ``_seq`` order.  Cohort sizes and
    weights come from two values each, so flows sharing a bottleneck tie
    on their completion horizon and only ``_seq`` orders them; the weights
    are not small integers, so their sums round differently in another
    order and a single-link fill is bit-exact only in ``_seq`` order.
    """
    rng = np.random.default_rng(seed)
    capacities = rng.uniform(50.0, 500.0, size=nlinks)
    starts = []
    for _ in range(nflows):
        if multilink:
            npath = int(rng.integers(1, min(4, nlinks) + 1))
        else:
            npath = 1
        path = sorted(rng.choice(nlinks, size=npath, replace=False).tolist())
        starts.append({
            "time": float(rng.uniform(0.0, 40.0)),
            "size": float(rng.uniform(100.0, 20000.0)),
            "path": path,
            "weight": float(rng.uniform(0.5, 8.0)),
            "cap": (float(rng.uniform(20.0, 200.0))
                    if caps and rng.random() < 0.3 else None),
        })
    events = []
    for _ in range(nevents):
        kind = rng.choice(["pause", "resume", "cancel", "capacity"])
        events.append({
            "time": float(rng.uniform(1.0, 80.0)),
            "kind": str(kind),
            "flow": int(rng.integers(0, nflows)),
            "link": int(rng.integers(0, nlinks)),
            "capacity": float(rng.uniform(30.0, 600.0)),
        })
    if ncohorts:
        hub = sorted(rng.choice(nlinks, size=3 if multilink else 1,
                                replace=False).tolist())
        starts.append({"time": 0.0, "size": 1e7, "path": hub,
                       "weight": 1.0, "cap": None})
        for c in range(ncohorts):
            when = float(rng.uniform(5.0, 40.0))
            for _ in range(cohort_size):
                npath = int(rng.integers(1, len(hub) + 1))
                starts.append({
                    "time": when,
                    "size": float(rng.choice([4000.0, 8000.0])),
                    "path": sorted(rng.choice(hub, size=npath,
                                              replace=False).tolist()),
                    "weight": float(rng.choice([0.7, 1.3])),
                    "cap": (float(rng.uniform(20.0, 200.0))
                            if caps and rng.random() < 0.3 else None),
                    "cohort": c,
                })
    return capacities, starts, events


def _run_script(vectorized, capacities, starts, events, perf=None):
    """Execute one script; returns (completion order, per-flow state,
    every link's rate after each reallocation)."""
    sim = Simulator()
    net = FlowNetwork(sim, incremental=True, vectorized=vectorized,
                      perf=perf)
    links = [FluidLink(float(c), f"l{j}") for j, c in enumerate(capacities)]
    flows = {}
    order = []
    link_rates = []
    net.add_observer(lambda now, _active: link_rates.append(
        (now, [net.link_rate(link) for link in links])))

    def request(idx, spec):
        return {"size": spec["size"],
                "path": [links[j] for j in spec["path"]],
                "weight": spec["weight"], "cap": spec["cap"],
                "label": f"f{idx}"}

    def track(idx, f):
        flows[idx] = f
        f.done.callbacks.append(lambda ev, i=idx: order.append(i))

    def starter(idx, spec):
        yield sim.timeout(spec["time"])
        track(idx, net.start_flow(**request(idx, spec)))

    def cohort_starter(members):
        yield sim.timeout(starts[members[0]]["time"])
        batch = net.start_flows(request(i, starts[i]) for i in members)
        for idx, f in zip(members, batch):
            track(idx, f)

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

    cohorts = {}
    for idx, spec in enumerate(starts):
        if spec.get("cohort") is None:
            sim.process(starter(idx, spec))
        else:
            cohorts.setdefault(spec["cohort"], []).append(idx)
    for members in cohorts.values():
        sim.process(cohort_starter(members))
    for ev in events:
        sim.process(mutator(ev))
    sim.run(until=HORIZON)
    net.sync()
    state = {}
    for idx in range(len(starts)):
        f = flows.get(idx)
        state[idx] = (None if f is None
                      else (f.finish_time, f.remaining, f.rate))
    return order, state, link_rates


def _assert_link_rates_close(rates_vec, rates_inc, rel=1e-9):
    """Same reallocation instants, every link's rate within ``rel``."""
    assert len(rates_vec) == len(rates_inc)
    for (t_vec, vec), (t_inc, inc) in zip(rates_vec, rates_inc):
        assert t_vec == pytest.approx(t_inc, rel=rel)
        assert vec == pytest.approx(inc, rel=rel, abs=1e-9), t_vec


def _assert_state_close(state_vec, state_inc, rel=1e-9):
    assert state_vec.keys() == state_inc.keys()
    for idx in state_vec:
        a, b = state_vec[idx], state_inc[idx]
        if a is None or b is None:
            assert a == b
            continue
        for x, y, what in zip(a, b, ("finish_time", "remaining", "rate")):
            if math.isnan(x) or math.isnan(y):
                assert math.isnan(x) and math.isnan(y), (idx, what, x, y)
            elif math.isinf(x) or math.isinf(y):
                assert x == y, (idx, what, x, y)
            else:
                assert x == pytest.approx(y, rel=rel, abs=1e-9), (
                    f"flow {idx} {what}: vectorized={x} incremental={y}")


def _seeds(n):
    """Seeds ``0..n-1`` of the plain scripts, then the same seeds with
    three same-instant cohorts (ids ``<seed>-cohorts``)."""
    return ([pytest.param(seed, 0, id=str(seed)) for seed in range(n)]
            + [pytest.param(seed, 3, id=f"{seed}-cohorts")
               for seed in range(n)])


@pytest.mark.parametrize("seed,ncohorts", _seeds(12))
def test_vectorized_matches_incremental_on_random_topologies(seed, ncohorts):
    """Same script, both kernels: identical completion order, close state
    and link rates — with cohorts, also when their interleaved multi-link
    paths queue onto one live state's pending rows."""
    script = _random_script(seed, ncohorts=ncohorts)
    perf = PerfCounters()
    order_vec, state_vec, rates_vec = _run_script(True, *script, perf=perf)
    order_inc, state_inc, rates_inc = _run_script(False, *script)
    assert order_vec == order_inc
    _assert_state_close(state_vec, state_inc)
    _assert_link_rates_close(rates_vec, rates_inc)
    if ncohorts:
        assert perf.get("vec_append_flows") > 0


@pytest.mark.parametrize("seed,ncohorts", _seeds(8))
def test_vectorized_bit_exact_single_link_no_caps(seed, ncohorts):
    """Single-link components without caps have a deterministic scan order,
    so the vectorized fill is **bit-identical** — not merely close.  With
    cohorts this holds only because pending rows are appended in ``_seq``
    order, the order the scalar scan sums their weights in."""
    script = _random_script(seed, multilink=False, caps=False,
                            ncohorts=ncohorts)
    order_vec, state_vec, rates_vec = _run_script(True, *script)
    order_inc, state_inc, rates_inc = _run_script(False, *script)
    assert order_vec == order_inc
    assert rates_vec == rates_inc
    assert state_vec.keys() == state_inc.keys()
    for idx in state_vec:
        assert state_vec[idx] == state_inc[idx], (
            f"flow {idx}: vectorized={state_vec[idx]} "
            f"incremental={state_inc[idx]}")


# ---------------------------------------------------------------------------
# merge / split fuzzer (bridge flows joining and splitting components)
# ---------------------------------------------------------------------------

def _merge_split_script(seed, nlinks=6, nlocal=18, nbridges=6, nevents=10):
    """Single-link 'local' flows per link, plus multi-link 'bridge' flows
    that merge components; cancelling or pausing a bridge splits them."""
    rng = np.random.default_rng(seed)
    capacities = rng.uniform(80.0, 400.0, size=nlinks)
    starts = []
    for _ in range(nlocal):
        starts.append({
            "time": float(rng.uniform(0.0, 20.0)),
            "size": float(rng.uniform(500.0, 15000.0)),
            "path": [int(rng.integers(0, nlinks))],
            "weight": float(rng.uniform(0.5, 4.0)),
            "cap": None,
        })
    bridges = []
    for _ in range(nbridges):
        pair = sorted(rng.choice(nlinks, size=2, replace=False).tolist())
        idx = len(starts)
        starts.append({
            "time": float(rng.uniform(5.0, 30.0)),
            "size": float(rng.uniform(5000.0, 40000.0)),
            "path": pair,
            "weight": float(rng.uniform(0.5, 4.0)),
            "cap": None,
        })
        bridges.append(idx)
    events = []
    for _ in range(nevents):
        # Mutations target bridges: each pause/cancel splits a merged
        # component, each resume re-merges it.
        kind = rng.choice(["pause", "resume", "cancel"])
        events.append({
            "time": float(rng.uniform(10.0, 60.0)),
            "kind": str(kind),
            "flow": int(rng.choice(bridges)),
            "link": 0,
            "capacity": 0.0,
        })
    return capacities, starts, events


@pytest.mark.parametrize("seed", range(10))
def test_merge_split_fuzzer_ordering_identical(seed):
    """Components merged by bridge flows and split by their cancellation
    complete in the same order under both kernels."""
    script = _merge_split_script(seed)
    order_vec, state_vec, rates_vec = _run_script(True, *script)
    order_inc, state_inc, rates_inc = _run_script(False, *script)
    assert order_vec == order_inc
    _assert_state_close(state_vec, state_inc)
    _assert_link_rates_close(rates_vec, rates_inc)


@pytest.mark.parametrize("vectorized", [True, False])
def test_split_remainder_completes_from_donor_arrays(vectorized):
    """Cancel a bridge mid-flight: the far-side component — whose rows
    live in the donor component's arrays until the next rebuild — must
    keep draining and complete on schedule."""
    sim = Simulator()
    net = FlowNetwork(sim, incremental=True, vectorized=vectorized)
    a, b = FluidLink(100.0, "a"), FluidLink(100.0, "b")
    state = {}

    def script():
        state["fa"] = net.start_flow(1000.0, [a], label="fa")
        state["fb"] = net.start_flow(3000.0, [b], label="fb")
        bridge = net.start_flow(50000.0, [a, b], label="bridge")
        yield sim.timeout(5.0)
        net.cancel_flow(bridge)

    sim.process(script())
    sim.run(until=200.0)
    # After the split each side owns its full link again:
    # fa: 5 s at 50 -> 750 left at 100 -> finishes at 12.5
    # fb: 5 s at 50 -> 2750 left at 100 -> finishes at 32.5
    assert state["fa"].finish_time == pytest.approx(12.5, rel=1e-12)
    assert state["fb"].finish_time == pytest.approx(32.5, rel=1e-12)


def test_vec_state_survives_component_reshape_chain():
    """Merge, split, and re-merge the same links repeatedly: stale SoA
    states must be retired and rebuilt, never consulted across reshapes."""
    sim = Simulator()
    net = FlowNetwork(sim, incremental=True, vectorized=True)
    links = [FluidLink(100.0, f"l{j}") for j in range(3)]
    done = []

    def script():
        for j in range(3):
            f = net.start_flow(4000.0, [links[j]], label=f"local{j}")
            f.done.callbacks.append(lambda ev, i=j: done.append(i))
        for _ in range(4):
            bridge = net.start_flow(200.0, links, label="bridge")
            yield bridge.done
            yield sim.timeout(1.0)

    sim.process(script())
    sim.run(until=500.0)
    net.sync()
    assert done == [0, 1, 2]


# ---------------------------------------------------------------------------
# committed scenarios (end-to-end equivalence)
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("scenario,kwargs", [
    ("checkpoint-waves", dict(napps=30, nservers=6, ncohorts=3, phases=2,
                              bridge_every=4)),
    ("read-write-mix", dict(napps=18, nservers=6, phases=4)),
])
def test_vectorized_matches_incremental_on_committed_scenarios(
        scenario, kwargs):
    """Full-stack cross-check: committed scenarios yield the same
    per-application records under the vectorized and scalar kernels."""
    engine = ExperimentEngine()
    results = {}
    for allocator in ("vectorized", "incremental"):
        spec = build_scenario(scenario, allocator=allocator, seed=7,
                              **kwargs)[0]
        results[allocator] = engine.run(spec)
    rec_vec = results["vectorized"].records
    rec_inc = results["incremental"].records
    assert rec_vec.keys() == rec_inc.keys()
    for name in rec_vec:
        assert rec_vec[name].write_times == pytest.approx(
            rec_inc[name].write_times, rel=1e-9), name
    assert results["vectorized"].makespan == pytest.approx(
        results["incremental"].makespan, rel=1e-9)


# ---------------------------------------------------------------------------
# batch start (the 10^6-burst entry point)
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("vectorized", [True, False])
def test_start_flows_batch_single_reallocation(vectorized):
    """A batch start computes rates once over the final population."""
    sim = Simulator()
    perf = PerfCounters()
    net = FlowNetwork(sim, incremental=True, vectorized=vectorized,
                      perf=perf)
    link = FluidLink(100.0, "l0")

    def script():
        yield sim.timeout(1.0)
        flows = net.start_flows(
            {"size": 1000.0, "path": [link], "weight": float(1 + i % 3),
             "label": f"f{i}"}
            for i in range(20))
        assert len(flows) == 20
        assert all(f.rate > 0.0 for f in flows)

    before = perf.as_dict().get("reallocations", 0)
    sim.process(script())
    sim.run(until=2.0)
    after = perf.as_dict().get("reallocations", 0)
    assert after - before == 1


@pytest.mark.parametrize("vectorized", [True, False])
def test_start_flows_zero_size_completes_immediately(vectorized):
    """Zero-byte flows in a batch complete at the current instant and are
    never registered with the allocator."""
    sim = Simulator()
    net = FlowNetwork(sim, incremental=True, vectorized=vectorized)
    link = FluidLink(100.0, "l0")
    out = {}

    def script():
        yield sim.timeout(3.0)
        flows = net.start_flows([
            {"size": 0.0, "path": [link], "label": "empty"},
            {"size": 600.0, "path": [link], "label": "real"},
        ])
        out["empty"], out["real"] = flows

    sim.process(script())
    sim.run(until=100.0)
    assert out["empty"].finish_time == 3.0
    assert out["empty"].remaining == 0.0
    assert out["real"].finish_time == pytest.approx(9.0, rel=1e-12)


def test_vectorized_perf_counters_present():
    """The vec_* instrumentation fires under a vectorized run; rates are
    read from the arrays, so no writeback counter exists."""
    sim = Simulator()
    perf = PerfCounters()
    net = FlowNetwork(sim, incremental=True, vectorized=True, perf=perf)
    link = FluidLink(100.0, "l0")

    def script():
        net.start_flows({"size": 1000.0 * (1 + i), "path": [link],
                         "label": f"f{i}"} for i in range(10))
        yield sim.timeout(5.0)
        # A straggler arrival rides the in-place append fast path.
        net.start_flow(500.0, [link], label="late")

    sim.process(script())
    sim.run(until=2000.0)
    stats = perf.as_dict()
    assert stats["vec_refills"] > 0
    assert stats["vec_fill_steps"] > 0
    assert "vec_rate_writebacks" not in stats
    assert stats["flow_starts"] == stats["flow_completions"] == 11
    assert stats["vec_appends"] >= 1
    assert stats["vec_append_flows"] >= 1


# ---------------------------------------------------------------------------
# instrumentation cost (counter updates per run, not per flow)
# ---------------------------------------------------------------------------

class _CountingPerf(PerfCounters):
    """PerfCounters that counts its own update calls (bump and merge)."""

    __slots__ = ("calls",)

    def __init__(self):
        super().__init__()
        self.calls = 0

    def bump(self, name, n=1):
        self.calls += 1
        super().bump(name, n)

    def merge(self, other):
        self.calls += 1
        super().merge(other)


def _flood(cohort, waves=16, nlinks=8, weights=(1.0, 2.0, 4.0, 8.0)):
    """Flow-flood shape: per wave, one cohort per link started together;
    each cohort's weight ladder completes at one instant per weight."""
    perf = _CountingPerf()
    sim = Simulator(perf=perf)
    net = FlowNetwork(sim, incremental=True, vectorized=True, perf=perf)
    links = [FluidLink(1e9, f"link{j}") for j in range(nlinks)]
    size = 1.5e9 / cohort

    def wave(w):
        yield sim.timeout(float(w))
        net.start_flows({"size": size, "path": [links[j]],
                         "weight": weights[i % len(weights)]}
                        for j in range(nlinks) for i in range(cohort))

    for w in range(waves):
        sim.process(wave(w))
    sim.run()
    assert not net.active_flows
    return perf


def test_vectorized_counter_updates_do_not_scale_with_flows():
    """Counter updates are flushed per refill batch and per wake: the same
    number at 100 and 1,000 flows per cohort, a small multiple of
    ``vec_refills + wakes``, while the totals still count every flow."""
    calls = {}
    for cohort in (100, 1000):
        perf = _flood(cohort)
        nflows = 16 * 8 * cohort
        assert perf.get("flow_starts") == nflows
        assert perf.get("flow_completions") == nflows
        events = perf.get("vec_refills") + perf.get("wakes")
        assert perf.calls <= 4 * events, (cohort, perf.calls, events)
        calls[cohort] = perf.calls
    assert calls[100] == calls[1000]
