"""Tests of the benchmark itself (not of the program).

Run from the repository root::

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import copy
import os
import sys

import numpy as np

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

import openloop  # noqa: E402
import workloads  # noqa: E402
from layers import harvest, per_layer_names  # noqa: E402
from spans import SpanRecorder, summarize  # noqa: E402


def test_corrupted_reference_digest_counts_as_failure():
    reference = workloads.load_reference()["paper-figures"]
    wl = workloads.PaperFigures(workloads.DEFAULT_SEED, "")
    wl.setup()
    clean = wl.run_pass()
    assert clean.failed == 0 and clean.attempted == 114

    corrupted = copy.deepcopy(reference)
    corrupted["experiments"][5] = "0" * 16
    wl.reference = corrupted
    assert wl.run_pass().failed == 1


def test_other_seeds_check_seed_independent_digests():
    reference = workloads.load_reference()["paper-figures"]
    wl = workloads.PaperFigures(5, "")
    assert not wl.exact
    wl.setup()
    seeded = min(set(range(len(wl.specs))) - wl.fixed)
    fixed = min(wl.fixed)
    assert wl.run_pass().failed == 0

    # A seeded experiment's digest differs from the default seed's anyway;
    # a fixed one (Fig 2 here) must still match it.
    corrupted = copy.deepcopy(reference)
    corrupted["experiments"][seeded] = "0" * 16
    wl.reference = corrupted
    assert wl.run_pass().failed == 0
    corrupted["experiments"][fixed] = "0" * 16
    assert wl.run_pass().failed == 1


def test_other_seeds_check_conservation_only():
    wl = workloads.FlowFlood(7, "")
    assert not wl.exact
    wl.NFLOWS = 2_000
    wl.setup()
    result = wl.run_pass()
    assert result.failed == 0
    assert len(result.latency_s) == wl.WAVES * wl.LINKS


def test_self_time_subtracts_direct_children():
    # root [0, 10] > child [1, 4] > grandchild [2, 3]; second root [11, 12]
    a = {"layer": np.array([0, 1, 2, 0]), "kind": np.array([0, 1, 2, 0]),
         "parent": np.array([-1, 0, 1, -1]),
         "start": np.array([0.0, 1.0, 2.0, 11.0]),
         "end": np.array([10.0, 4.0, 3.0, 12.0])}
    out = summarize(a, ["x", "y", "z"], ["kx", "ky", "kz"])
    assert out["self_s"] == {"x": 8.0, "y": 2.0, "z": 1.0}
    assert out["root_s"] == 11.0
    # A window dropping the first root promotes its kept child to a root.
    out = summarize(a, ["x", "y", "z"], ["kx", "ky", "kz"],
                    window=(0.5, 12.0))
    assert out["self_s"] == {"x": 1.0, "y": 2.0, "z": 1.0}
    assert out["root_s"] == 4.0


def test_recorder_charges_process_resumes_to_their_module():
    from repro.simcore import Simulator
    recorder = SpanRecorder()
    recorder.install()
    try:
        sim = Simulator()

        def body():
            yield sim.timeout(1.0)
            yield sim.timeout(1.0)

        sim.process(body())
        sim.run()
    finally:
        recorder.uninstall()
    assert Simulator.__dict__["run"].__name__ == "run"
    assert not hasattr(Simulator.__dict__["run"], "__wrapped__")
    summary = recorder.summary()
    assert summary["kind_calls"]["simcore.engine:Simulator.run"] == 1
    # The benchmark-defined body runs three times under its own layer:
    # its start and two resumes.
    assert sum(c for k, c in summary["kind_spans"].items()
               if k.startswith("bench:process:")) == 3
    assert summary["self_s"]["bench"] > 0.0


def test_backlog_detector():
    steady = [(i, 5) for i in range(1, 101)]
    growing = [(i, i) for i in range(1, 101)]
    assert not openloop.backlog_grows(steady)
    assert openloop.backlog_grows(growing)


def _traced_pass(**processes):
    return {"counters": {}, "busy_s": 2.0, "untraced_busy_s": 1.0,
            "wall_s": 10.0,
            "spans": {"self_s": {}, "kind_calls": {}, "kind_self_s": {}},
            "processes": [processes]}


def test_harvest_reports_exactly_the_benchmark_json_metrics():
    out = harvest([_traced_pass(root_s=10.0, idle_s=0.0, unowned_s=0.0)])
    assert list(out) == per_layer_names()
    assert out["bench.trace_overhead_frac"] == 1.0
    # Absent counters read 0 rather than being dropped.
    assert out["simcore.fairshare.fill_cache_attempts"] == 0.0


def test_unattributed_counts_event_loop_and_harness_time():
    # 10 s region, 4 s idle: 6 s of work, of which 1 s lies outside every
    # root span and 2 s is the event loop's or the benchmark's own.
    out = harvest([_traced_pass(root_s=9.0, idle_s=4.0, unowned_s=2.0)])
    assert out["bench.unattributed_frac"] == 0.5


def test_loop_callbacks_are_charged_to_the_scheduling_layer():
    import asyncio
    recorder = SpanRecorder()
    recorder.install()
    loop = asyncio.new_event_loop()
    try:
        ran = []
        lid = recorder.layer_id("service.client")
        idx = recorder.open(lid, recorder.kind_id("service.client:test"))
        loop.call_soon(ran.append, 1)
        recorder.close(idx)
        loop.call_soon(ran.append, 2)       # nothing of the program's open
        loop.call_soon(loop.stop)
        loop.run_forever()
    finally:
        loop.close()
        recorder.uninstall()
    assert ran == [1, 2]
    calls = recorder.summary()["kind_spans"]
    assert sum(c for k, c in calls.items()
               if k.startswith("service.client:loop:")) == 1
