"""Tests for CSV export helpers and event edge cases."""

import pytest

from repro.apps import IORConfig
from repro.experiments import ExperimentEngine, ExperimentSpec
from repro.experiments.export import delta_graph_csv, multi_result_csv
from repro.mpisim import Contiguous
from repro.platforms import PlatformConfig
from repro.simcore import SimulationError, Simulator

PLATFORM = PlatformConfig(name="x", nservers=1, disk_bandwidth=100.0,
                          per_core_bandwidth=10.0, stripe_size=100,
                          latency=0.0)


def cfg(name, nprocs=10):
    return IORConfig(name=name, nprocs=nprocs,
                     pattern=Contiguous(block_size=100), grain=None)


# -- CSV export ----------------------------------------------------------------

def test_delta_graph_csv_roundtrip():
    g = ExperimentEngine().delta_graph(PLATFORM, cfg("A"), cfg("B"),
                                       [0.0, 5.0], with_expected=True)
    csv_text = delta_graph_csv(g)
    lines = csv_text.strip().splitlines()
    assert lines[0] == "dt,t_a,t_b,i_a,i_b,expected_a,expected_b"
    assert len(lines) == 3
    first = lines[1].split(",")
    assert float(first[0]) == 0.0
    assert float(first[3]) >= 1.0


def test_delta_graph_csv_without_expected():
    g = ExperimentEngine().delta_graph(PLATFORM, cfg("A"), cfg("B"), [0.0])
    lines = delta_graph_csv(g).strip().splitlines()
    assert lines[0] == "dt,t_a,t_b,i_a,i_b"


def test_multi_result_csv():
    res = ExperimentEngine().run(ExperimentSpec(
        platform=PLATFORM, workloads=(cfg("a"), cfg("b", 20)))).as_multi()
    lines = multi_result_csv(res).strip().splitlines()
    assert lines[0].startswith("app,nprocs,write_time")
    assert len(lines) == 3
    assert lines[1].startswith("a,10,")
    assert lines[2].startswith("b,20,")


def test_csv_quotes_commas():
    from repro.experiments.export import _cell
    assert _cell('a,b') == '"a,b"'
    assert _cell('say "hi"') == '"say ""hi"""'


# -- event edge cases --------------------------------------------------------------

def test_event_trigger_copies_success():
    sim = Simulator()
    src = sim.timeout(1.0, value="payload")
    dst = sim.event()
    src.callbacks.append(dst.trigger)
    sim.run()
    assert dst.processed and dst.value == "payload"


def test_event_trigger_copies_failure_and_defuses():
    sim = Simulator()
    src = sim.event()
    dst = sim.event()
    src.callbacks.append(dst.trigger)
    src.fail(ValueError("boom"))
    caught = {}

    def waiter():
        try:
            yield dst
        except ValueError as exc:
            caught["exc"] = str(exc)

    sim.process(waiter())
    sim.run()
    assert caught["exc"] == "boom"


def test_unhandled_failed_event_aborts_run():
    sim = Simulator()
    ev = sim.event()
    ev.fail(RuntimeError("nobody listening"))
    with pytest.raises(RuntimeError, match="nobody listening"):
        sim.run()


def test_defused_failed_event_is_silent():
    sim = Simulator()
    ev = sim.event()
    ev.fail(RuntimeError("handled elsewhere"))
    ev.defuse()
    sim.run()  # must not raise


def test_condition_with_pre_processed_event():
    sim = Simulator()
    early = sim.timeout(1.0, "early")
    sim.run()
    late = sim.timeout(1.0, "late")

    def body():
        result = yield (early & late)
        return sorted(result.values())

    p = sim.process(body())
    assert sim.run(until=p) == ["early", "late"]


def test_condition_rejects_cross_simulator_events():
    sim1, sim2 = Simulator(), Simulator()
    t1 = sim1.timeout(1.0)
    t2 = sim2.timeout(1.0)
    with pytest.raises(SimulationError):
        _ = t1 & t2


def test_event_repr_states():
    sim = Simulator()
    ev = sim.event()
    assert "pending" in repr(ev)
    ev.succeed()
    assert "triggered" in repr(ev)
    sim.run()
    assert "processed" in repr(ev)
