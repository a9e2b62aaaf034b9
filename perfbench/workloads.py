"""The four benchmark workloads: inputs from a seed, one timed pass, checks.

Every workload drives only public entry points (``repro.experiments``,
``repro.simcore`` and the ``repro.service`` CLI and client).  A workload
builds its inputs from the benchmark seed in :meth:`Workload.setup`, then
:meth:`Workload.run_pass` runs them once and returns a :class:`Pass` with
the host time of the pass, the per-operation latencies, the counters the
program reported and the outcome of the output checks.

Output checks.  At :data:`DEFAULT_SEED` the outputs must match the
reference digests in ``reference.json`` (per-app phase times and canonical
decision logs, finish-time bytes, the decision-log sha).  At any other seed
the checks are conservation laws instead: every flow delivers its bytes,
every phase completes, every application releases as often as it informed
the arbiter (no grant stranded), and the daemon's decision log equals the
in-process one; paper-figures still compares the experiments the seed does
not change with their reference digests.
"""

from __future__ import annotations

import asyncio
import gc
import hashlib
import json
import math
import os
import selectors
import time
from contextlib import nullcontext
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional

import numpy as np

import openloop
from repro.experiments import (
    ExperimentEngine, ExperimentSpec, Executor, build_scenario,
)
from repro.experiments.engine import execute_spec
from repro.mpisim import Contiguous
from repro.perf import PerfCounters, merge_counts
from repro.platforms import grid5000_nancy
from repro.apps import IORConfig
from repro.service.client import AdmissionRejected
from repro.service.loadgen import replay_trace
from repro.service.protocol import (
    ProtocolError, canonical_json, decisions_to_json,
)
from repro.service.trace import record_trace
from repro.simcore import FlowNetwork, FluidLink, Simulator

_clock = time.perf_counter
_cpu = time.process_time

DEFAULT_SEED = 0
HERE = os.path.dirname(os.path.abspath(__file__))
REFERENCE_PATH = os.path.join(HERE, "reference.json")


def load_reference() -> Dict[str, Any]:
    with open(REFERENCE_PATH) as fh:
        return json.load(fh)


def sha(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()[:16]


@dataclass
class Pass:
    """One pass over a workload's inputs."""

    wall_s: float
    cpu_s: float                    #: CPU seconds of the timed work
    latency_s: List[float]          #: per operation, host seconds
    attempted: int
    failed: int
    sim_core_s_in_io: float
    counters: Dict[str, float] = field(default_factory=dict)
    digests: Any = None             #: what the reference file records
    input: int = 0                  #: index of the input the pass ran
    #: CPU seconds of helper processes (the daemon) included in ``cpu_s``
    helper_cpu_s: float = 0.0
    #: ``perf_counter`` times at which the timed work began and ended
    window: tuple = (0.0, 0.0)
    extra: Dict[str, float] = field(default_factory=dict)


class Workload:
    """Base class: seeded inputs, a timed pass, output checks."""

    name = ""
    #: What one latency sample is.
    operation = ""

    #: Distinct inputs a run cycles through, one per pass; an untraced run
    #: covers whole cycles.  Workloads whose cost swings with the drawn
    #: input (many apps, chaotic contention) set more than one, so a run's
    #: figures span several inputs.
    INPUTS = 1

    def __init__(self, seed: int, root: str,
                 reference: Optional[Dict[str, Any]] = None):
        self.seed = seed
        self.root = root
        self.passes = 0
        if reference is None:
            reference = load_reference().get(self.name)
        #: Reference digests of the default seed; None checks conservation
        #: only.
        self.reference = reference

    @property
    def exact(self) -> bool:
        """Whether every output is compared with the reference digests."""
        return self.reference is not None and self.seed == DEFAULT_SEED

    def setup(self) -> None:
        raise NotImplementedError

    def setup_helper_cpu_s(self) -> float:
        """CPU seconds other processes spent on set-up (daemons)."""
        return 0.0

    def sub_seed(self, k: int) -> int:
        """Generator seed of input ``k`` (of :attr:`INPUTS`) of this seed."""
        return self.seed * 100 + k

    def next_input(self) -> int:
        """Index of the input the next pass runs."""
        k = self.passes % self.INPUTS
        self.passes += 1
        return k

    def repeat_input(self) -> None:
        """Make the next pass run the input the last pass ran."""
        self.passes -= 1

    def run_pass(self, region=nullcontext()) -> Pass:
        """One pass; the context manager ``region`` wraps the timed work
        only."""
        raise NotImplementedError

    def close(self) -> None:
        pass


# ---------------------------------------------------------------------------
# Shared checks
# ---------------------------------------------------------------------------

def record_digest(result) -> str:
    """Per-app phase times plus the canonical decision log of one result."""
    apps = {name: [rec.nprocs, rec.write_times, rec.wait_times,
                   rec.comm_times, rec.io_write_times, rec.t_alone]
            for name, rec in sorted(result.records.items())}
    return sha(canonical_json(apps, sort_keys=True) + "\n"
               + decisions_to_json(result.decisions))


def conserved(result) -> bool:
    """Every phase completed, every flow and request delivered its bytes."""
    for workload in result.spec.workloads:
        rec = result.records.get(workload.name)
        if rec is None or len(rec.write_times) != workload.iterations:
            return False
        if not all(math.isfinite(t) and t > 0 for t in rec.write_times):
            return False
    perf = result.perf
    return (perf.get("flow_starts", 0) == perf.get("flow_completions", 0)
            and perf.get("io_requests", 0)
            == perf.get("pfs_writes", 0) + perf.get("pfs_reads", 0)
            and math.isfinite(result.makespan))


def core_seconds_in_io(result) -> float:
    """Σ nprocs × I/O-phase duration over the result's applications."""
    return float(sum(rec.nprocs * sum(rec.write_times)
                     for rec in result.records.values()))


class _ProtocolClock:
    """Coordinator proxy noting when each app first informs and completes,
    and counting its informs and releases.

    Installed through ``execute_spec``'s ``coordinator_wrap`` seam (the one
    the service's trace recorder uses).  It only reads the clock and counts
    calls, then forwards; the decisions are untouched.
    """

    def __init__(self, inner):
        self._inner = inner
        self.first: Dict[str, float] = {}
        self.done: Dict[str, float] = {}
        self.informs: Dict[str, int] = {}
        self.releases: Dict[str, int] = {}

    def _inform(self, app: str) -> None:
        if app not in self.first:
            self.first[app] = _clock()
        self.informs[app] = self.informs.get(app, 0) + 1

    def submit_inform(self, descriptor):
        self._inform(descriptor.app)
        return self._inner.submit_inform(descriptor)

    def on_inform(self, descriptor):
        self._inform(descriptor.app)
        return self._inner.on_inform(descriptor)

    def submit_release(self, app, remaining_bytes=None):
        self.releases[app] = self.releases.get(app, 0) + 1
        return self._inner.submit_release(app, remaining_bytes)

    def on_release(self, app, remaining_bytes=None):
        self.releases[app] = self.releases.get(app, 0) + 1
        return self._inner.on_release(app, remaining_bytes)

    def on_complete(self, app):
        self.done[app] = _clock()
        return self._inner.on_complete(app)

    def balanced(self, apps) -> bool:
        """No grant stranded: each app released as often as it informed."""
        return all(self.informs.get(a) == self.releases.get(a) for a in apps)

    def __getattr__(self, name):
        return getattr(self._inner, name)


# ---------------------------------------------------------------------------
# paper-figures
# ---------------------------------------------------------------------------

class TimedExecutor(Executor):
    """Serial executor timing every experiment it runs, and noting whether
    each coordinated run released every grant its apps were given."""

    def __init__(self) -> None:
        self.latency_s: List[float] = []
        self.results: list = []
        self.balanced: List[bool] = []

    def map(self, fn, items):
        out = []
        for item in items:
            clocks: List[_ProtocolClock] = []

            def wrap(inner):
                clocks.append(_ProtocolClock(inner))
                return clocks[-1]

            t0 = _clock()
            result = (fn(item, coordinator_wrap=wrap) if fn is execute_spec
                      else fn(item))
            self.latency_s.append(_clock() - t0)
            out.append(result)
            apps = [w.name for w in result.spec.workloads]
            self.balanced.append(all(c.balanced(apps) for c in clocks))
        self.results.extend(out)
        return out


def _fig03_app(name: str, period: float, iterations: int) -> IORConfig:
    return IORConfig(name=name, nprocs=336,
                     pattern=Contiguous(block_size=3_000_000),
                     iterations=iterations, period=period,
                     procs_per_node=24, grain=None)


class PaperFigures(Workload):
    """The registry's paper campaigns, serially, with baselines."""

    name = "paper-figures"
    operation = "experiment"

    def setup(self) -> None:
        rng = np.random.default_rng(self.seed)
        # The figure campaigns are the paper's fixed setups; the seed draws
        # the Fig 10/11 dt sweep and the three-way arrival offsets.
        dts = np.round(np.sort(rng.uniform(-2.0, 14.0, 5)), 3)
        offsets = np.round(np.sort(rng.uniform(0.0, 0.3, 3)), 4)
        specs: List[ExperimentSpec] = []
        specs += build_scenario("fig02-contiguous-pair")
        specs += build_scenario("fig06-size-split")
        specs += build_scenario("fig09-policies")
        fixed = set(range(len(specs)))
        specs += build_scenario("surveyor-four-files",
                                dts=[float(d) for d in dts])
        specs += build_scenario("three-way-contention",
                                offsets=[float(o) for o in offsets])
        fixed.add(len(specs))
        specs.append(ExperimentSpec.pair(
            grid5000_nancy(cache=True), _fig03_app("ior1", 10.0, 10),
            _fig03_app("ior2", 7.0, 15), dt=0.0, measure_alone=False,
            name="fig03-cached"))
        self.specs = specs
        #: Experiments the seed does not change: their digests are checked
        #: at every seed.
        self.fixed = fixed

    def run_pass(self, region=nullcontext()) -> Pass:
        executor = TimedExecutor()
        engine = ExperimentEngine(executor=executor)
        with region:
            t0, c0 = _clock(), _cpu()
            results = engine.run_all(self.specs)
            wall, cpu = _clock() - t0, _cpu() - c0
        bad = {i for i, r in enumerate(executor.results)
               if not (conserved(r) and executor.balanced[i])}
        digests = [record_digest(r) for r in results]
        if self.reference is not None:
            expected = self.reference["experiments"]
            # Baselines run first: campaign result i is executor result
            # offset + i.
            offset = len(executor.results) - len(results)
            checked = range(len(digests)) if self.exact else self.fixed
            bad |= {offset + i for i in checked
                    if i >= len(expected) or digests[i] != expected[i]}
        counters = merge_counts(r.perf for r in executor.results)
        counters["bench_app_phases"] = sum(
            len(rec.write_times) for r in executor.results
            for rec in r.records.values())
        return Pass(
            wall_s=wall, cpu_s=cpu, latency_s=executor.latency_s,
            attempted=len(executor.results), failed=len(bad),
            sim_core_s_in_io=sum(core_seconds_in_io(r) for r in results),
            counters=counters, digests={"experiments": digests})


# ---------------------------------------------------------------------------
# many-apps
# ---------------------------------------------------------------------------

class ManyApps(Workload):
    """Seeded read-write-mix runs at 1000 apps under ``dynamic``."""

    name = "many-apps"
    operation = "app (first inform to complete)"
    NAPPS = 1000
    INPUTS = 8

    def setup(self) -> None:
        self.specs: Dict[int, ExperimentSpec] = {}
        self._spec(0)

    def _spec(self, k: int) -> ExperimentSpec:
        if k not in self.specs:
            (self.specs[k],) = build_scenario(
                "read-write-mix", napps=self.NAPPS, strategy="dynamic",
                seed=self.sub_seed(k))
        return self.specs[k]

    def run_pass(self, region=nullcontext()) -> Pass:
        k = self.next_input()
        spec = self._spec(k)
        clocks: List[_ProtocolClock] = []

        def wrap(inner):
            clocks.append(_ProtocolClock(inner))
            return clocks[-1]

        with region:
            t0, c0 = _clock(), _cpu()
            result = execute_spec(spec, coordinator_wrap=wrap)
            wall, cpu = _clock() - t0, _cpu() - c0
        (clock,) = clocks
        apps = [w.name for w in spec.workloads]
        latency = [clock.done[a] - clock.first[a] for a in apps
                   if a in clock.done and a in clock.first]
        ok = (conserved(result) and len(latency) == len(apps)
              and clock.balanced(apps))
        digest = record_digest(result)
        if self.exact and digest != self.reference["runs"][k]:
            ok = False
        counters = dict(result.perf)
        counters["bench_app_phases"] = sum(
            len(rec.write_times) for rec in result.records.values())
        return Pass(wall_s=wall, cpu_s=cpu, latency_s=latency, attempted=1,
                    failed=0 if ok else 1,
                    sim_core_s_in_io=core_seconds_in_io(result),
                    counters=counters, digests={"runs": digest}, input=k)


# ---------------------------------------------------------------------------
# flow-flood
# ---------------------------------------------------------------------------

class FlowFlood(Workload):
    """2×10^5 flows in 16 waves over 8 single-link components."""

    name = "flow-flood"
    operation = "wave cohort (admission to drain)"
    NFLOWS = 200_000
    WAVES = 16
    LINKS = 8
    GAP = 1.0
    CAPACITY = 1e9
    UTILIZATION = 1.5
    WEIGHTS = (1.0, 2.0, 4.0, 8.0)

    def setup(self) -> None:
        rng = np.random.default_rng(self.seed)
        self.cohort = self.NFLOWS // (self.WAVES * self.LINKS)
        base = self.UTILIZATION * self.GAP * self.CAPACITY / self.cohort
        # Per-(wave, link) flow size: the seed varies each cohort's volume.
        self.sizes = base * rng.uniform(0.9, 1.1, (self.WAVES, self.LINKS))

    def run_pass(self, region=nullcontext()) -> Pass:
        perf = PerfCounters()
        sim = Simulator(perf=perf)
        net = FlowNetwork(sim, incremental=True, perf=perf, vectorized=True)
        links = [FluidLink(self.CAPACITY, f"link{j}")
                 for j in range(self.LINKS)]
        flows: list = []
        admitted: Dict[int, float] = {}
        drained: List[tuple] = []
        cohort, weights = self.cohort, self.WEIGHTS

        def wave(w):
            yield sim.timeout(w * self.GAP)
            admitted[w] = _clock()
            batch = net.start_flows(
                {"size": float(self.sizes[w, j]), "path": [links[j]],
                 "weight": weights[i % len(weights)],
                 "label": f"w{w}l{j}"}
                for j in range(self.LINKS) for i in range(cohort))
            flows.extend(batch)
            # Weight-1 flows drain last within their cohort: one completion
            # event per cohort times the cohort's drain.
            for j in range(self.LINKS):
                batch[j * cohort].done.callbacks.append(
                    lambda _ev, w=w: drained.append((w, _clock())))

        with region:
            for w in range(self.WAVES):
                sim.process(wave(w))
            t0, c0 = _clock(), _cpu()
            sim.run()
            wall, cpu = _clock() - t0, _cpu() - c0
        sizes = np.array([f.size for f in flows])
        left = np.array([f.remaining for f in flows])
        start = np.array([f.start_time for f in flows])
        finish = np.array([f.finish_time for f in flows])
        weight = np.array([f.weight for f in flows])
        ok = (not net.active_flows
              and len(flows) == cohort * self.WAVES * self.LINKS
              and len(drained) == self.WAVES * self.LINKS
              and bool(np.all(np.isfinite(finish)))
              and bool(np.all(np.abs(left) <= 1e-6 * sizes)))
        digest = hashlib.sha256(finish.tobytes()).hexdigest()[:16]
        if self.exact and digest != self.reference["finish"]:
            ok = False
        return Pass(
            wall_s=wall, cpu_s=cpu,
            latency_s=[t - admitted[w] for w, t in drained],
            attempted=1, failed=0 if ok else 1,
            sim_core_s_in_io=float(np.sum(weight * (finish - start))),
            counters=perf.as_dict(), digests={"finish": digest})


# ---------------------------------------------------------------------------
# service-replay
# ---------------------------------------------------------------------------

@dataclass
class _Recording:
    """One service input: its trace and the in-process run's outcome."""

    seed: int
    trace: Any
    decisions: list
    sha: str
    sim_core: float


class ServiceReplay(Workload):
    """Seeded service-many-writers traces, replayed into the daemon.

    A pass replays one input's whole trace pipelined (each of two
    connections keeps up to :attr:`PIPELINE` exchanges in flight) on a
    fresh daemon: the pass's CPU time is the gated figure.  :meth:`open_loop`
    replays input 0 on a fixed schedule, timing each exchange from its due
    time; :meth:`max_rate` ramps that schedule up.  Every replay's decision
    log must equal the in-process run's.
    """

    name = "service-replay"
    operation = "exchange (pipelined send to ack)"
    NAPPS = 500
    INPUTS = 8
    #: Exchanges in flight per connection in a pass.  Pipelined passes
    #: exercise the daemon's coalesced writes and take a third of the CPU
    #: of lockstep ones (each exchange awaiting its ack), whose cost
    #: follows how long each process waits to be woken on a shared host.
    PIPELINE = 16
    #: Open-loop offered rate (exchanges/s): about half the sustained
    #: maximum (p99 <= 5 ms) that the ramp reads on a quiet 2-vCPU host.
    RATE = 2000.0
    #: Ramp used for the sustained-maximum search: a warm-up step, then
    #: nine judged steps of 750 exchanges from RAMP_START up by 30% each.
    RAMP_START = 1000.0
    RAMP_GROWTH = 1.3
    RAMP_STEP = 750
    #: A replay that takes longer has failed (the daemon hung).
    REPLAY_TIMEOUT_S = 60.0

    def scenario_args(self, seed: int) -> List[str]:
        return ["--scenario", "service-many-writers",
                "--napps", str(self.NAPPS), "--nservers", "8",
                "--phases", "3", "--seed", str(seed),
                "--strategy", "fcfs"]

    def _recording(self, k: int) -> _Recording:
        if k not in self.recordings:
            seed = self.sub_seed(k)
            (spec,) = build_scenario("service-many-writers",
                                     napps=self.NAPPS, nservers=8, phases=3,
                                     seed=seed, strategy="fcfs")
            trace, result = record_trace(spec)
            self.recordings[k] = _Recording(
                seed, trace, result.decisions,
                hashlib.sha256(decisions_to_json(result.decisions)
                               .encode("utf-8")).hexdigest(),
                core_seconds_in_io(result))
        return self.recordings[k]

    def setup(self) -> None:
        self.recordings: Dict[int, _Recording] = {}
        self._recording(0)
        # select() honours sub-millisecond timeouts (epoll rounds them up
        # to whole milliseconds), so open-loop exchanges leave on time
        # without spinning a core the daemon needs.
        self.loop = asyncio.SelectorEventLoop(selectors.SelectSelector())
        self.daemons: list = []
        self.daemon = self._start_daemon(0)
        # Keep the generator's collector out of the measured latencies.
        gc.collect()
        gc.freeze()

    def setup_helper_cpu_s(self) -> float:
        return self.daemon.cpu_s()

    def _start_daemon(self, k: int, launcher: Optional[List[str]] = None):
        daemon = openloop.Daemon(self.root,
                                 self.scenario_args(self.sub_seed(k)),
                                 launcher)
        self.daemons.append(daemon)
        daemon.wait_listening()
        self.loop.run_until_complete(daemon.wait_ready())
        return daemon

    def _fresh_daemon(self, k: int, launcher: Optional[List[str]] = None):
        """The daemon set-up started if it serves input ``k`` and is unused
        (and ``launcher`` is the default), else a new one."""
        daemon, self.daemon = self.daemon, None
        if daemon is None or k != 0 or launcher is not None:
            daemon = self._start_daemon(k, launcher)
        return daemon

    def _finish(self, daemon) -> tuple:
        """Final ``/metrics`` scrape, drain, reap: (metrics, clean exit,
        the daemon's peak resident MB before the drain)."""
        try:
            metrics = self.loop.run_until_complete(daemon.scrape())
            rss_mb = daemon.peak_rss_mb()
            code = self.loop.run_until_complete(daemon.drain())
        finally:
            daemon.kill()
        return metrics, code == 0, rss_mb

    def _log_ok(self, k: int, sha: str) -> bool:
        rec = self.recordings[k]
        ok = sha == rec.sha
        if self.exact:
            ok = ok and rec.sha[:16] == self.reference["sha"][k]
        return ok

    def run_pass(self, region=nullcontext(), launcher=None) -> Pass:
        k = self.next_input()
        rec = self._recording(k)
        n = len(rec.trace)
        daemon = self._fresh_daemon(k, launcher)
        stats = None
        c0, d0, t0 = _cpu(), daemon.cpu_s(), _clock()
        try:
            with region:
                stats = self.loop.run_until_complete(asyncio.wait_for(
                    replay_trace(rec.trace, *daemon.endpoint, openloop.NCONN,
                                 reference_decisions=rec.decisions,
                                 codec="binary", pipeline=self.PIPELINE),
                    self.REPLAY_TIMEOUT_S))
        except (ConnectionError, ProtocolError, AdmissionRejected,
                asyncio.TimeoutError):
            pass                    # the pass fails every exchange below
        finally:
            t1, daemon_cpu = _clock(), daemon.cpu_s() - d0
            cpu = _cpu() - c0 + daemon_cpu
            metrics, clean, rss_mb = self._finish(daemon)
        ok = (stats is not None and clean and stats.equivalent
              and self._log_ok(k, stats.digest))
        return Pass(
            wall_s=stats.wall_seconds if stats else 0.0, cpu_s=cpu,
            latency_s=stats.latencies if stats else [],
            attempted=n, failed=0 if ok else n,
            sim_core_s_in_io=rec.sim_core, counters=metrics,
            digests={"sha": rec.sha[:16]}, input=k,
            helper_cpu_s=daemon_cpu, window=(t0, t1),
            extra={"rss_mb": rss_mb})

    def open_loop(self, rates: Optional[List[float]] = None
                  ) -> "openloop.Replay":
        """One open-loop replay of input 0 (default: :attr:`RATE`
        throughout) on a fresh daemon; ``errors`` covers every exchange if
        the log diverged."""
        trace = self.recordings[0].trace
        n = len(trace)
        daemon = self._fresh_daemon(0)
        try:
            replay = self.loop.run_until_complete(openloop.replay_open_loop(
                trace, daemon, rates or [self.RATE] * n))
        finally:
            _, clean, _ = self._finish(daemon)
        if not (clean and self._log_ok(0, replay.digest)):
            replay.errors = n
        return replay

    def max_rate(self) -> float:
        """Highest sustained rate along a stepped ramp, best of two replays
        (one host stall fails a whole step, so a single ramp under-reads)."""
        n = len(self.recordings[0].trace)
        rates = [self.RAMP_START
                 * self.RAMP_GROWTH ** max(0, i // self.RAMP_STEP - 1)
                 for i in range(n)]
        return max(openloop.max_sustained_rate(self.open_loop(rates),
                                               self.RAMP_STEP)
                   for _ in range(2))

    def close(self) -> None:
        for daemon in self.daemons:
            daemon.kill()
        self.loop.close()


WORKLOADS: Dict[str, Callable[..., Workload]] = {
    w.name: w for w in (PaperFigures, ManyApps, FlowFlood, ServiceReplay)}
