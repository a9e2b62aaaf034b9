"""Unit and property tests for the fluid-flow max-min allocator."""


import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.simcore import FluidLink, FlowNetwork, SimulationError, Simulator


def make_net():
    sim = Simulator()
    return sim, FlowNetwork(sim)


def test_single_flow_time_is_bytes_over_bandwidth():
    sim, net = make_net()
    link = FluidLink(100.0, "pipe")
    flow = net.start_flow(500.0, [link])
    sim.run(until=flow.done)
    assert sim.now == pytest.approx(5.0)
    assert flow.elapsed == pytest.approx(5.0)


def test_two_equal_flows_share_evenly():
    sim, net = make_net()
    link = FluidLink(100.0, "pipe")
    f1 = net.start_flow(500.0, [link])
    f2 = net.start_flow(500.0, [link])
    sim.run()
    # Each gets 50 B/s -> both finish at t=10.
    assert f1.finish_time == pytest.approx(10.0)
    assert f2.finish_time == pytest.approx(10.0)


def test_weighted_sharing():
    sim, net = make_net()
    link = FluidLink(100.0, "pipe")
    heavy = net.start_flow(300.0, [link], weight=3.0)
    light = net.start_flow(100.0, [link], weight=1.0)
    sim.run()
    # heavy: 75 B/s, light: 25 B/s -> both end at t=4.
    assert heavy.finish_time == pytest.approx(4.0)
    assert light.finish_time == pytest.approx(4.0)


def test_late_arrival_reallocates():
    """First flow runs alone, then shares: classic Δ-graph physics."""
    sim, net = make_net()
    link = FluidLink(100.0, "pipe")
    first = net.start_flow(1000.0, [link])

    second_holder = {}

    def start_second():
        yield sim.timeout(5.0)
        second_holder["flow"] = net.start_flow(1000.0, [link])

    sim.process(start_second())
    sim.run()
    # First: 500 B alone (5 s), then 500 B at 50 B/s (10 s) -> t=15.
    assert first.finish_time == pytest.approx(15.0)
    # Second: 500 B at 50 B/s while sharing (t=5..15), then 500 B alone
    # at 100 B/s (5 s) -> t=20.
    assert second_holder["flow"].finish_time == pytest.approx(20.0)


def test_flow_cap_limits_rate():
    sim, net = make_net()
    link = FluidLink(100.0, "pipe")
    capped = net.start_flow(100.0, [link], cap=10.0)
    sim.run()
    assert capped.finish_time == pytest.approx(10.0)


def test_cap_leftover_goes_to_uncapped_flow():
    sim, net = make_net()
    link = FluidLink(100.0, "pipe")
    capped = net.start_flow(1000.0, [link], cap=20.0)
    free = net.start_flow(160.0, [link])
    sim.run(until=free.done)
    # free gets 100-20=80 B/s -> 2 s.
    assert sim.now == pytest.approx(2.0)
    assert capped.remaining == pytest.approx(1000.0 - 40.0)


def test_two_stage_bottleneck_is_binding():
    """Flow crossing NIC (50 B/s) and server (100 B/s) runs at 50."""
    sim, net = make_net()
    nic = FluidLink(50.0, "nic")
    server = FluidLink(100.0, "server")
    flow = net.start_flow(100.0, [nic, server])
    sim.run()
    assert flow.finish_time == pytest.approx(2.0)


def test_multi_resource_max_min():
    """Textbook progressive-filling example.

    Flows: A over link1 only, B over link1+link2, C over link2 only.
    link1 cap 100, link2 cap 30.  link2 is the bottleneck: B=C=15.
    A then gets the rest of link1: 85.
    """
    sim, net = make_net()
    l1 = FluidLink(100.0, "l1")
    l2 = FluidLink(30.0, "l2")
    a = net.start_flow(1e9, [l1])
    b = net.start_flow(1e9, [l1, l2])
    c = net.start_flow(1e9, [l2])
    assert b.rate == pytest.approx(15.0)
    assert c.rate == pytest.approx(15.0)
    assert a.rate == pytest.approx(85.0)
    net.cancel_flow(a)
    net.cancel_flow(b)
    net.cancel_flow(c)


def test_zero_byte_flow_completes_immediately():
    sim, net = make_net()
    link = FluidLink(100.0)
    flow = net.start_flow(0.0, [link])
    assert flow.done.triggered
    assert flow.finish_time == sim.now


def test_pause_and_resume_freezes_progress():
    sim, net = make_net()
    link = FluidLink(100.0)
    flow = net.start_flow(1000.0, [link])

    def controller():
        yield sim.timeout(2.0)   # 200 B transferred
        net.pause_flow(flow)
        yield sim.timeout(50.0)  # frozen
        net.resume_flow(flow)

    sim.process(controller())
    sim.run()
    # 2 s + 50 s pause + 8 s remaining = 60 s.
    assert flow.finish_time == pytest.approx(60.0)


def test_paused_flow_releases_bandwidth_to_others():
    sim, net = make_net()
    link = FluidLink(100.0)
    f1 = net.start_flow(1000.0, [link])
    f2 = net.start_flow(300.0, [link])

    def controller():
        yield sim.timeout(1.0)
        net.pause_flow(f1)

    sim.process(controller())
    sim.run(until=f2.done)
    # f2: 50 B in the first second, then full 100 B/s for 250 B -> t=3.5.
    assert sim.now == pytest.approx(3.5)


def test_capacity_change_reallocates():
    sim, net = make_net()
    link = FluidLink(100.0)
    flow = net.start_flow(1000.0, [link])

    def controller():
        yield sim.timeout(5.0)  # 500 B done
        link.set_capacity(25.0)

    sim.process(controller())
    sim.run()
    assert flow.finish_time == pytest.approx(5.0 + 500.0 / 25.0)


def test_cancel_flow_fails_done_event():
    sim, net = make_net()
    link = FluidLink(100.0)
    flow = net.start_flow(1000.0, [link])

    def canceller():
        yield sim.timeout(1.0)
        net.cancel_flow(flow, RuntimeError("aborted"))

    def waiter():
        try:
            yield flow.done
        except RuntimeError as exc:
            return str(exc)

    p = sim.process(waiter())
    sim.process(canceller())
    assert sim.run(until=p) == "aborted"


def test_invalid_parameters_rejected():
    sim, net = make_net()
    link = FluidLink(100.0)
    with pytest.raises(SimulationError):
        net.start_flow(-1.0, [link])
    with pytest.raises(SimulationError):
        net.start_flow(1.0, [link], weight=0.0)
    with pytest.raises(SimulationError):
        net.start_flow(1.0, [link], cap=0.0)
    with pytest.raises(SimulationError):
        FluidLink(0.0)
    # One scalar kernel: the removed regime switches fail loudly.
    for removed in ("fill_cache", "heap_pool"):
        with pytest.raises(TypeError):
            FlowNetwork(sim, **{removed: False})


def test_link_rate_reports_aggregate():
    sim, net = make_net()
    link = FluidLink(100.0)
    net.start_flow(1e6, [link])
    net.start_flow(1e6, [link])
    assert net.link_rate(link) == pytest.approx(100.0)


def test_links_cannot_span_networks():
    sim = Simulator()
    net1, net2 = FlowNetwork(sim), FlowNetwork(sim)
    link = FluidLink(10.0)
    net1.start_flow(1.0, [link])
    with pytest.raises(SimulationError):
        net2.start_flow(1.0, [link])


# ---------------------------------------------------------------------------
# Property-based invariants
# ---------------------------------------------------------------------------

flow_spec = st.tuples(
    st.floats(min_value=1.0, max_value=1e6),      # size
    st.floats(min_value=0.1, max_value=50.0),     # weight
    st.one_of(st.none(), st.floats(min_value=1.0, max_value=500.0)),  # cap
)


@settings(max_examples=60, deadline=None)
@given(st.lists(flow_spec, min_size=1, max_size=8),
       st.floats(min_value=10.0, max_value=1000.0))
def test_rates_conserve_capacity_and_respect_caps(specs, capacity):
    """Σ rates ≤ capacity; every capped flow obeys its cap; no negative rate."""
    sim = Simulator()
    net = FlowNetwork(sim)
    link = FluidLink(capacity)
    flows = [net.start_flow(s, [link], weight=w, cap=c) for s, w, c in specs]
    total = sum(f.rate for f in flows)
    assert total <= capacity * (1 + 1e-9)
    for f in flows:
        assert f.rate >= 0
        if f.cap is not None:
            assert f.rate <= f.cap * (1 + 1e-9)


@settings(max_examples=60, deadline=None)
@given(st.lists(flow_spec, min_size=1, max_size=8),
       st.floats(min_value=10.0, max_value=1000.0))
def test_allocation_is_max_min_optimal(specs, capacity):
    """Work conservation: either the link is saturated or every flow is capped."""
    sim = Simulator()
    net = FlowNetwork(sim)
    link = FluidLink(capacity)
    flows = [net.start_flow(s, [link], weight=w, cap=c) for s, w, c in specs]
    total = sum(f.rate for f in flows)
    saturated = total >= capacity * (1 - 1e-9)
    all_capped = all(
        f.cap is not None and f.rate >= f.cap * (1 - 1e-9) for f in flows
    )
    assert saturated or all_capped


@settings(max_examples=40, deadline=None)
@given(st.lists(st.floats(min_value=1.0, max_value=1e5), min_size=1, max_size=6),
       st.floats(min_value=10.0, max_value=1000.0))
def test_equal_flows_finish_simultaneously_scaled(sizes, capacity):
    """Weights proportional to size -> all flows finish at the same instant."""
    sim = Simulator()
    net = FlowNetwork(sim)
    link = FluidLink(capacity)
    flows = [net.start_flow(s, [link], weight=s) for s in sizes]
    sim.run()
    expected = sum(sizes) / capacity
    for f in flows:
        assert f.finish_time == pytest.approx(expected, rel=1e-6)


@settings(max_examples=40, deadline=None)
@given(st.lists(st.floats(min_value=1.0, max_value=1e5), min_size=1, max_size=6),
       st.floats(min_value=10.0, max_value=1000.0))
def test_total_bytes_conserved(sizes, capacity):
    """Makespan x capacity is at least the total data (work conservation)."""
    sim = Simulator()
    net = FlowNetwork(sim)
    link = FluidLink(capacity)
    flows = [net.start_flow(s, [link]) for s in sizes]
    sim.run()
    makespan = max(f.finish_time for f in flows)
    assert makespan * capacity >= sum(sizes) * (1 - 1e-9)
    # And with a single shared link the link never idles before the end:
    assert makespan == pytest.approx(sum(sizes) / capacity, rel=1e-6)


def test_sub_ulp_completion_horizon_terminates():
    """Regression: a nearly-finished flow whose completion horizon is below
    float resolution at a large clock value must complete, not spin."""
    sim = Simulator(start_time=1e9)
    net = FlowNetwork(sim)
    link = FluidLink(1e9)
    # remaining just above the completion epsilon; horizon ~2e-15 s << ulp(1e9).
    flow = net.start_flow(2e-6, [link])
    sim.run(until=flow.done)
    assert flow.remaining == 0.0
    assert sim.now >= 1e9


def test_many_flows_with_epsilon_tails_terminate():
    """Stress the ulp guard with staggered arrivals creating tiny residues."""
    sim = Simulator(start_time=12345.0)
    net = FlowNetwork(sim)
    link = FluidLink(1995000000.0)

    def producer():
        for i in range(30):
            flow = net.start_flow(56_000_000.0, [link])
            yield flow.done

    p = sim.process(producer())
    sim.run(until=p)
    assert not net.active_flows
