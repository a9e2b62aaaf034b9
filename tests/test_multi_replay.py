"""Tests for N-application experiments and trace replay."""

import pytest

from repro.apps import IORConfig
from repro.experiments import (
    ExperimentEngine, ExperimentSpec, plan_replay, replay_trace,
)
from repro.mpisim import Contiguous
from repro.platforms import PlatformConfig
from repro.traces import SWFJob, SWFTrace

PLATFORM = PlatformConfig(
    name="multi", nservers=2, disk_bandwidth=500.0,
    per_core_bandwidth=10.0, stripe_size=1000, latency=1e-6,
)


def cfg(name, nprocs, start=0.0, block=1000):
    return IORConfig(name=name, nprocs=nprocs,
                     pattern=Contiguous(block_size=block),
                     start_time=start, grain="round", cb_buffer_size=2000)


def run_apps(configs, strategy=None, measure_alone=True):
    """Run ``configs`` together on one fresh platform (N-app result)."""
    spec = ExperimentSpec(platform=PLATFORM, workloads=tuple(configs),
                          strategy=strategy, measure_alone=measure_alone)
    return ExperimentEngine().run(spec).as_multi()


def test_multi_rejects_duplicate_names():
    with pytest.raises(ValueError):
        run_apps([cfg("x", 1), cfg("x", 2)])


def test_multi_uncoordinated_three_apps_share():
    # 100-proc apps saturate the 1000 B/s file system alone, so three
    # overlapping ones each stretch ~3x.
    res = run_apps([cfg("a", 100), cfg("b", 100), cfg("c", 100)],
                   measure_alone=True)
    for name, factor in res.interference_factors().items():
        assert 2.0 < factor < 3.5, (name, factor)


def test_multi_fcfs_chains_apps():
    res = run_apps([cfg("a", 100), cfg("b", 100, 0.1), cfg("c", 100, 0.2)],
                   strategy="fcfs")
    # Strict chain: later arrivals wait longer.
    t = {name: rec.write_time for name, rec in res.records.items()}
    assert t["a"] < t["b"] < t["c"]
    # And the last one waited roughly two writes' worth.
    assert t["c"] > 2.2 * t["a"]


def test_multi_interrupt_stacks_preemptions():
    # c (latest) interrupts b, which had interrupted a.
    res = run_apps([cfg("a", 100, 0.0, block=4000),
                    cfg("b", 100, 1.0, block=4000),
                    cfg("c", 100, 2.0, block=1000)],
                   strategy="interrupt")
    t = {name: rec.write_time for name, rec in res.records.items()}
    alone_c = res.records["c"].t_alone
    # The latest arrival is served promptly despite two writers ahead.
    assert t["c"] < 2.5 * alone_c
    # Preempted apps resume in FIFO order (first preempted, first resumed):
    # a restarts before b, so b carries the longest phase.
    assert t["b"] > t["a"] > t["c"]


def test_multi_decision_log_covers_all_apps():
    res = run_apps([cfg("a", 10), cfg("b", 10, 0.5), cfg("c", 10, 1.0)],
                   strategy="dynamic")
    assert {d.app for d in res.decisions} == {"a", "b", "c"}


def test_multi_makespan_consistency():
    res = run_apps([cfg("a", 50), cfg("b", 50, 5.0)])
    assert res.makespan >= max(rec.write_time
                               for rec in res.records.values())


def test_multi_metrics():
    res = run_apps([cfg("a", 50), cfg("b", 25, 1.0)])
    f = res.cpu_seconds_wasted()
    assert f == pytest.approx(
        50 * res.records["a"].write_time + 25 * res.records["b"].write_time)
    assert res.sum_interference_factors() >= 2.0


# -- replay -----------------------------------------------------------------

def toy_trace():
    jobs = [
        SWFJob(job_id=1, submit_time=0, wait_time=0, run_time=100,
               allocated_procs=512),
        SWFJob(job_id=2, submit_time=20, wait_time=0, run_time=60,
               allocated_procs=256),
        SWFJob(job_id=3, submit_time=500, wait_time=0, run_time=50,
               allocated_procs=1024),  # outside the window
    ]
    return SWFTrace(jobs)


def test_plan_replay_selects_window_jobs():
    plan = plan_replay(toy_trace(), window=(0.0, 120.0), core_scale=8)
    assert len(plan.configs) == 2
    assert plan.configs[0].nprocs == 64
    assert plan.configs[1].nprocs == 32
    assert plan.configs[1].start_time == pytest.approx(20.0)


def test_plan_replay_scales_cores_with_floor():
    plan = plan_replay(toy_trace(), window=(0.0, 120.0), core_scale=8192)
    assert all(c.nprocs == 1 for c in plan.configs)


def test_plan_replay_validation():
    with pytest.raises(ValueError):
        plan_replay(toy_trace(), window=(10.0, 10.0))
    with pytest.raises(ValueError):
        plan_replay(toy_trace(), window=(0.0, 1.0), phases_per_job=0)


def test_replay_trace_runs_under_strategies():
    from repro.core import DynamicStrategy
    results = {}
    for key, strat in [(None, None),
                       ("dynamic", DynamicStrategy(
                           consider_interference=True))]:
        results[key] = replay_trace(
            PLATFORM, toy_trace(), window=(0.0, 120.0), core_scale=8,
            bytes_per_process=1000, strategy=strat)
    assert set(results[None].records) == {"job1", "job2"}
    # The share-aware dynamic strategy never loses machine-wide: when
    # sharing is the cheapest predicted option it picks GO.
    assert (results["dynamic"].cpu_seconds_wasted()
            <= results[None].cpu_seconds_wasted() * 1.1)


def test_replay_empty_window_raises():
    with pytest.raises(ValueError):
        replay_trace(PLATFORM, toy_trace(), window=(2000.0, 2100.0))


def test_replay_max_jobs_cap():
    plan = plan_replay(toy_trace(), window=(0.0, 120.0), max_jobs=1)
    assert len(plan.configs) == 1
