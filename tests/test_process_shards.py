"""Process-parallel shard execution: equivalence, failure, negotiation.

Four layers of guarantees:

* **Oracle equivalence** — ``workers="process"`` must be bit-identical
  (canonical ``decisions_to_json`` string equality) to the in-process
  router: single-shard process mode vs the plain arbiter on randomized
  traces, multi-shard process mode vs inline on randomized traces and on
  the committed ``sharded-writers`` / ``cross-partition`` scenarios.
* **Lifecycle** — lazy pool start (strategy capacity injected before
  fork), clean idempotent teardown, per-worker perf counters shipped
  back and merged, ``coord_wall_seconds`` metered router-side.
* **Worker failure** — a worker killed mid-run (or a broken pipe) must
  surface a clean :class:`ShardWorkerError`, fire withdraws at the
  surviving workers, and tear the pool down without hanging.
* **DELAY negotiation** — a span releases its held shards while a later
  shard's DELAY hold runs out, and re-acquires the chain identically in
  process mode.
"""

import struct

import numpy as np
import pytest

from repro.core import (
    AccessDescriptor, AccessState, Action, Arbiter, Decision, FCFSStrategy,
    ShardRouter, ShardWorkerError,
)
from repro.experiments import build_scenario
from repro.experiments.engine import execute_spec
from repro.service.protocol import decisions_to_json
from repro.simcore import Simulator


def desc(app, nprocs=10, t_alone=5.0, total=1e6, partitions=(0,)):
    return AccessDescriptor(app=app, nprocs=nprocs, total_bytes=total,
                            t_alone=t_alone, partitions=tuple(partitions))


def drive_random(coord_factory, seed, napps=24, nparts=4):
    """The randomized multi-phase trace from the sharding tests."""
    rng = np.random.default_rng(seed)
    starts = rng.uniform(0.0, 3.0, size=napps)
    holds = rng.uniform(0.1, 1.0, size=napps)
    phases = rng.integers(1, 4, size=napps)
    parts = rng.integers(0, nparts, size=napps)
    sim = Simulator()
    coord = coord_factory(sim)

    def app(i):
        name = f"app{i:02d}"
        yield sim.timeout(float(starts[i]))
        for _ in range(int(phases[i])):
            d = desc(name, nprocs=int(rng.integers(1, 64)),
                     t_alone=float(holds[i]), partitions=(int(parts[i]),))
            ok = yield coord.submit_inform(d)
            if not ok:
                yield coord.authorization_event(name)
            yield sim.timeout(float(holds[i]) / 2)
            coord.submit_release(name, d.total_bytes / 2)
            yield sim.timeout(float(holds[i]) / 2)
            coord.on_complete(name)

    for i in range(napps):
        sim.process(app(i))
    sim.run()
    close = getattr(coord, "close", None)
    if close is not None:
        close()
    return decisions_to_json(coord.decision_log), sim.now


# -- oracle equivalence -------------------------------------------------------

def test_single_shard_process_mode_equals_plain_arbiter():
    """The acceptance anchor: one worker process == the plain arbiter."""
    for seed in (3, 11, 2014):
        log_p, end_p = drive_random(
            lambda sim: ShardRouter(sim, 1, "dynamic", grant_latency=1e-3,
                                    workers="process"), seed, nparts=1)
        log_a, end_a = drive_random(
            lambda sim: Arbiter(sim, "dynamic", grant_latency=1e-3),
            seed, nparts=1)
        assert log_p == log_a, f"seed {seed}: decision logs diverged"
        assert end_p == end_a, f"seed {seed}: end times diverged"


@pytest.mark.parametrize("strategy", ["fcfs", "dynamic", "interrupt"])
def test_randomized_traces_process_equals_inline(strategy):
    for seed in (3, 11):
        log_p, end_p = drive_random(
            lambda sim: ShardRouter(sim, 4, strategy, grant_latency=1e-3,
                                    workers="process"), seed)
        log_i, end_i = drive_random(
            lambda sim: ShardRouter(sim, 4, strategy, grant_latency=1e-3),
            seed)
        assert log_p == log_i, f"{strategy}/{seed}: logs diverged"
        assert end_p == end_i


@pytest.mark.parametrize("name,kwargs", [
    ("sharded-writers", dict(napps=16, npartitions=4, nservers=8, phases=2,
                             strategy="fcfs")),
    ("sharded-writers", dict(napps=24, npartitions=8, nservers=8, phases=2,
                             strategy="dynamic")),
    ("cross-partition", dict(napps=8, npartitions=4, nservers=8,
                             strategy="fcfs")),
])
def test_committed_scenarios_process_mode_bit_identical(name, kwargs):
    spec, = build_scenario(name, **kwargs)
    inline = execute_spec(spec)
    proc = execute_spec(spec.with_(
        arbiter={**spec.arbiter, "workers": "process"}))
    assert (decisions_to_json(proc.decisions)
            == decisions_to_json(inline.decisions))
    assert proc.makespan == inline.makespan
    for app, rec in inline.records.items():
        assert proc.records[app].write_times == rec.write_times


def test_spawn_start_method_identical(monkeypatch):
    monkeypatch.setenv("REPRO_SHARD_START_METHOD", "spawn")
    log_p, end_p = drive_random(
        lambda sim: ShardRouter(sim, 2, "fcfs", grant_latency=1e-3,
                                workers="process"), 7, napps=10, nparts=2)
    monkeypatch.delenv("REPRO_SHARD_START_METHOD")
    log_i, end_i = drive_random(
        lambda sim: ShardRouter(sim, 2, "fcfs", grant_latency=1e-3),
        7, napps=10, nparts=2)
    assert log_p == log_i
    assert end_p == end_i


# -- lifecycle / perf ---------------------------------------------------------

def test_pool_starts_lazily_with_injected_capacity():
    """Runtime-injected strategy capacity must reach the workers: the pool
    forks on the *first exchange*, after CalciomRuntime set capacity."""
    spec, = build_scenario("sharded-writers", napps=16, npartitions=4,
                           nservers=8, phases=2, strategy="dynamic")
    inline = execute_spec(spec)
    proc = execute_spec(spec.with_(
        arbiter={**spec.arbiter, "workers": "process"}))
    # Dynamic decisions depend on the injected per-partition capacity, so
    # identical logs prove the capacity was aboard when the workers forked.
    assert (decisions_to_json(proc.decisions)
            == decisions_to_json(inline.decisions))


def test_process_mode_perf_counters_merged():
    spec, = build_scenario("sharded-writers", napps=16, npartitions=4,
                           nservers=8, phases=2, strategy="fcfs")
    inline = execute_spec(spec)
    proc = execute_spec(spec.with_(
        arbiter={**spec.arbiter, "workers": "process"}))
    # Worker-side decision counters shipped back, merged, and twinned.
    assert proc.perf["coord_decisions"] == inline.perf["coord_decisions"]
    shard_keys = {k for k in proc.perf
                  if k.startswith("coord_decisions_shard")}
    assert len(shard_keys) == 4
    # Router-side elapsed time is metered, and the summed per-worker CPU
    # never leaks into the wall counter.
    assert proc.perf["coord_wall_seconds"] > 0.0
    assert not any(k.startswith("coord_wall_seconds_shard")
                   for k in proc.perf)


def test_inline_mode_has_wall_clock_counter():
    """Inline coordination co-bumps coord_wall_seconds == coord_seconds
    (single-threaded: elapsed time *is* the summed decision time)."""
    spec, = build_scenario("sharded-writers", napps=12, npartitions=4,
                           nservers=8, phases=2, strategy="fcfs")
    result = execute_spec(spec)
    assert result.perf["coord_wall_seconds"] == \
        pytest.approx(result.perf["coord_seconds"])


def test_close_is_idempotent_and_caches_logs():
    sim = Simulator()
    router = ShardRouter(sim, 2, "fcfs", workers="process")

    def app(name, at, part):
        yield sim.timeout(at)
        yield router.submit_inform(desc(name, partitions=(part,)))
        yield sim.timeout(0.5)
        router.on_complete(name)

    sim.process(app("a", 0.0, 0))
    sim.process(app("b", 0.1, 1))
    sim.run()
    router.close()
    log = router.decision_log
    assert [r.app for r in log] == ["a", "b"]
    router.close()   # second close: no-op
    assert router.decision_log == log
    assert all(not h.proc.is_alive() for h in router._pool.handles)


def test_inline_router_close_is_noop():
    sim = Simulator()
    router = ShardRouter(sim, 2, "fcfs")
    router.on_inform(desc("a", partitions=(0,)))
    router.close()
    assert router.state_of("a") is AccessState.ACTIVE


def test_invalid_workers_value_rejected():
    with pytest.raises(ValueError):
        ShardRouter(Simulator(), 2, "fcfs", workers="threads")


# -- worker failure -----------------------------------------------------------

def _decode_ops(buf):
    """Parse the length-prefixed frames a recording socket captured."""
    import json
    ops, offset = [], 0
    while offset < len(buf):
        (length,) = struct.unpack_from(">I", buf, offset)
        offset += 4
        ops.append(json.loads(bytes(buf[offset:offset + length])))
        offset += length
    return ops


class _RecordingSock:
    """Socket wrapper logging every byte the router sends to one worker."""

    def __init__(self, sock):
        self._sock = sock
        self.sent = bytearray()

    def sendall(self, data):
        self.sent += data
        return self._sock.sendall(data)

    def __getattr__(self, name):
        return getattr(self._sock, name)


def test_killed_worker_surfaces_clean_error_and_withdraws_survivors():
    sim = Simulator()
    router = ShardRouter(sim, 2, "fcfs", workers="process")
    pool = router._pool
    spy = {}

    def scenario():
        ok = yield router.submit_inform(desc("a", partitions=(0,)))
        assert ok
        # The pool is live now: record what shard 0 (the survivor) is
        # sent from here on, then kill shard 1's worker.
        spy["sock"] = _RecordingSock(pool.handles[0].sock)
        pool.handles[0].sock = spy["sock"]
        pool.handles[1].proc.kill()
        pool.handles[1].proc.join(timeout=5)
        yield router.submit_inform(desc("b", partitions=(1,)))

    sim.process(scenario())
    with pytest.raises(ShardWorkerError, match="shard 1 worker died"):
        sim.run()
    assert pool.broken and pool.closed
    # Teardown did not hang and left no live workers.
    assert all(not h.proc.is_alive() for h in pool.handles)
    # The survivor was told to withdraw the in-flight grant before exit.
    ops = _decode_ops(spy["sock"].sent)
    withdraws = [m for m in ops if m.get("op") == "withdraw"]
    assert [m["app"] for m in withdraws] == ["a"]
    assert ops[-1]["op"] == "exit"
    router.close()   # idempotent after a failure


def test_broken_pipe_surfaces_clean_error():
    sim = Simulator()
    router = ShardRouter(sim, 2, "fcfs", workers="process")
    assert router.on_inform(desc("a", partitions=(0,))) is True
    router._pool.handles[1].sock.close()
    with pytest.raises(ShardWorkerError):
        router.on_inform(desc("b", partitions=(1,)))
    assert router._pool.broken
    assert all(not h.proc.is_alive() for h in router._pool.handles)


def test_engine_tears_down_pool_on_clean_run():
    """execute_spec closes the coordinator: no worker outlives the run."""
    import multiprocessing
    spec, = build_scenario("sharded-writers", napps=12, npartitions=4,
                           nservers=8, phases=2, strategy="fcfs")
    execute_spec(spec.with_(arbiter={**spec.arbiter, "workers": "process"}))
    assert multiprocessing.active_children() == []


# -- cross-shard DELAY negotiation --------------------------------------------

class DelayWhenBusy(FCFSStrategy):
    """DELAY (fixed hold) instead of queueing whenever the shard is busy."""

    name = "delay-when-busy"

    def __init__(self, delay=1.0):
        self.delay = delay

    def decide(self, now, active, waiting, incoming):
        if active or waiting:
            return Decision(Action.DELAY, delay=self.delay)
        return Decision(Action.GO)


def _delay_span_scenario():
    """holder on shard 1; span (0,1) hits its DELAY; rival probes shard 0."""
    sim = Simulator()
    router = ShardRouter(sim, 2, DelayWhenBusy(delay=1.0))
    seen = {}

    def holder():
        ok = yield router.submit_inform(desc("h", partitions=(1,)))
        assert ok
        yield sim.timeout(2.0)
        router.on_complete("h")

    def span():
        yield sim.timeout(0.5)
        ok = yield router.submit_inform(desc("s", partitions=(0, 1)))
        assert not ok   # shard 0 granted, shard 1 answered DELAY(1.0)
        yield router.authorization_event("s")
        seen["granted_at"] = sim.now
        yield sim.timeout(0.1)
        router.on_complete("s")

    def rival():
        yield sim.timeout(1.0)
        seen["rival_ok"] = yield router.submit_inform(
            desc("w", partitions=(0,)))
        seen["span_on_shard0"] = router.shards[0].arbiter.state_of("s")
        yield sim.timeout(0.2)
        router.on_complete("w")

    sim.process(holder())
    sim.process(span())
    sim.process(rival())
    sim.run()
    return seen


def test_delay_requeue_frees_held_shards():
    seen = _delay_span_scenario()
    # The chain retreated: shard 0 is *not* pinned during the hold, so
    # the rival is granted instantly on an idle shard.
    assert seen["span_on_shard0"] is AccessState.IDLE
    assert seen["rival_ok"] is True
    assert seen["granted_at"] == pytest.approx(2.5)


def test_removed_hold_mode_fails_loudly():
    """Requeue is the only cross-shard DELAY behaviour: a spec that still
    carries the removed mode selector fails instead of being ignored."""
    spec, = build_scenario("cross-partition", napps=8, npartitions=4,
                           nservers=8, strategy="fcfs")
    with pytest.raises(TypeError, match="unexpected keyword"):
        execute_spec(spec.with_(
            arbiter={**spec.arbiter, "span_delay": "hold"}))


def test_delay_requeue_identical_across_process_mode():
    """The requeue path goes through the same proxies: process == inline."""
    spec, = build_scenario("cross-partition", napps=8, npartitions=4,
                           nservers=8, strategy="fcfs")
    inline = execute_spec(spec)
    proc = execute_spec(spec.with_(
        arbiter={**spec.arbiter, "workers": "process"}))
    assert (decisions_to_json(proc.decisions)
            == decisions_to_json(inline.decisions))
