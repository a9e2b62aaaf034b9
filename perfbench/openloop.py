"""The coordination daemon as a subprocess, and open-loop replay against it.

:class:`Daemon` runs the program's own CLI (``python -m repro.service
serve``), started fresh for every replay because a replay sequencer serves
one trace from ``seq`` 0.  In :func:`replay_open_loop` exchanges leave on a fixed schedule in ``seq`` order over
two connections, whatever the daemon's pace (an open loop: a slow daemon
builds a queue rather than receiving less load), and each exchange is
timed from its due time to its ack, so a stall is charged to every
exchange it delays.
"""

from __future__ import annotations

import asyncio
import ctypes
import gc
import json
import os
import signal
import subprocess
import sys
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from repro.perf import PerfCounters
from repro.service.client import AdmissionRejected, ServiceClient
from repro.service.trace import CoordinationTrace

_clock = time.perf_counter
_TICKS = os.sysconf("SC_CLK_TCK")

#: Connections carrying the replay (the host has two cores).
NCONN = 2
#: Latency limit that a sustainable rate's p99 must meet.
P99_LIMIT_S = 0.005
ACK_TIMEOUT_S = 30.0

#: With two or more CPUs the generator runs on CPU 0 and the daemon on the
#: last one, so neither migrates or queues behind the other.
WORKER_CPU = 0
DAEMON_CPU = (os.cpu_count() or 1) - 1


def _die_with_parent() -> None:
    """In the daemon before it starts: SIGKILL it if the worker dies
    without stopping it (``PR_SET_PDEATHSIG``)."""
    ctypes.CDLL(None).prctl(1, signal.SIGKILL)


def pin(pid: int, cpu: int) -> None:
    """Bind ``pid`` to ``cpu`` when the host has more than one CPU."""
    if (os.cpu_count() or 1) > 1 and hasattr(os, "sched_setaffinity"):
        os.sched_setaffinity(pid, {cpu})


class Daemon:
    """One ``repro.service serve`` subprocess, from start to drain."""

    def __init__(self, root: str, scenario_args: Sequence[str],
                 launcher: Optional[Sequence[str]] = None):
        env = dict(os.environ)
        env["PYTHONPATH"] = os.path.join(root, "src")
        launcher = list(launcher or [sys.executable, "-m", "repro.service"])
        self.proc = subprocess.Popen(
            [*launcher, "serve", *scenario_args,
             "--port", "0", "--ops-port", "0"],
            cwd=root, env=env, stdout=subprocess.PIPE, text=True,
            preexec_fn=_die_with_parent)
        pin(self.proc.pid, DAEMON_CPU)
        self.endpoint: Tuple[str, int] = ("", 0)
        self.ops: Tuple[str, int] = ("", 0)

    def wait_listening(self, timeout: float = 60.0) -> None:
        """Block until the daemon announces its endpoints on stdout."""
        deadline = _clock() + timeout
        while _clock() < deadline:
            line = self.proc.stdout.readline()
            if not line:
                break
            try:
                event = json.loads(line)
            except ValueError:
                continue
            if event.get("event") == "listening":
                self.endpoint = tuple(event["endpoint"])
                self.ops = tuple(event["ops"])
                return
        self.kill()
        raise RuntimeError("daemon did not start listening")

    async def ops_request(self, method: str, path: str) -> Tuple[int, str]:
        reader, writer = await asyncio.open_connection(*self.ops)
        try:
            writer.write(f"{method} {path} HTTP/1.0\r\n\r\n".encode())
            await writer.drain()
            raw = await reader.read()
        finally:
            writer.close()
            await writer.wait_closed()
        head, _, body = raw.decode("utf-8", "replace").partition("\r\n\r\n")
        return int(head.split(" ", 2)[1]), body

    async def wait_ready(self, retries: int = 50,
                         interval: float = 0.05) -> None:
        """Readiness probe: ``/healthz`` answers 200."""
        for _ in range(retries):
            try:
                status, _ = await self.ops_request("GET", "/healthz")
                if status == 200:
                    return
            except OSError:
                pass
            await asyncio.sleep(interval)
        raise RuntimeError("daemon never became ready")

    async def scrape(self) -> Dict[str, float]:
        """The final ``/metrics`` exposition as a flat dict."""
        _, body = await self.ops_request("GET", "/metrics")
        metrics = {}
        for line in body.splitlines():
            if line and not line.startswith("#"):
                name, _, value = line.partition(" ")
                metrics[name] = float(value)
        return metrics

    async def drain(self, timeout: float = 30.0) -> int:
        """``POST /drain``, then reap the process."""
        await self.ops_request("POST", "/drain")
        loop = asyncio.get_running_loop()
        return await asyncio.wait_for(
            loop.run_in_executor(None, self._reap), timeout)

    def _reap(self) -> int:
        _, status = os.waitpid(self.proc.pid, 0)
        self.proc.returncode = os.waitstatus_to_exitcode(status)
        self.proc.stdout.close()
        return self.proc.returncode

    def cpu_s(self) -> float:
        """CPU seconds the daemon has used so far (user + system)."""
        with open(f"/proc/{self.proc.pid}/stat") as fh:
            fields = fh.read().rsplit(")", 1)[1].split()
        return (int(fields[11]) + int(fields[12])) / _TICKS

    def peak_rss_mb(self) -> float:
        """The daemon's peak resident memory so far (``VmHWM``).

        Not the reaped child's ``ru_maxrss``: Linux carries the forking
        process's resident size over into it, so it would read this
        worker's size whenever that is the larger.
        """
        with open(f"/proc/{self.proc.pid}/status") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
        raise RuntimeError("no VmHWM in /proc status")

    def kill(self) -> None:
        if self.proc.returncode is None:
            self.proc.kill()
            self._reap()


@dataclass
class Replay:
    """What one open-loop replay observed."""

    rates: List[float]              #: offered rate of each exchange
    latency_s: List[float]          #: due -> ack, per exchange (seq order)
    late_s: List[float]             #: due -> actually sent, per exchange
    outstanding: List[Tuple[int, int]] = field(default_factory=list)
    acked: int = 0
    errors: int = 0
    wall_s: float = 0.0             #: first due -> last ack
    client_counters: Dict[str, float] = field(default_factory=dict)
    digest: str = ""


def schedule(n: int, rates: Sequence[float]) -> List[float]:
    """Due offsets of ``n`` exchanges sent at the per-exchange ``rates``."""
    due, t = [], 0.0
    for i in range(n):
        due.append(t)
        t += 1.0 / rates[i]
    return due


async def _sender(client: ServiceClient, entries: List[dict],
                  due: List[float], t0: float, replay: Replay,
                  sent: List[int], acks: list) -> None:
    i = 0
    n = len(entries)
    try:
        while i < n:
            wait = t0 + due[entries[i]["seq"]] - _clock()
            if wait > 0:
                await asyncio.sleep(wait)
            now = _clock()
            # Everything already due leaves in one flush: a late generator
            # catches up instead of spreading its backlog over later slots.
            while i < n and t0 + due[entries[i]["seq"]] <= now:
                entry = entries[i]
                seq = entry["seq"]
                future = client.request_nowait(_message(entry), seq=seq,
                                               t=entry["t"])
                future.add_done_callback(
                    lambda f, seq=seq: _acked(f, seq, replay))
                acks.append(future)
                replay.late_s[seq] = now - (t0 + due[seq])
                i += 1
                sent[0] += 1
            await client.flush()
            replay.outstanding.append((sent[0], sent[0] - replay.acked))
    except ConnectionError:
        replay.errors += n - i      # never sent; sent ones fail their future


def _acked(future, seq: int, replay: Replay) -> None:
    if future.cancelled() or future.exception() is not None:
        replay.errors += 1
        return
    replay.latency_s[seq] = _clock()
    replay.acked += 1


def _message(entry: dict) -> dict:
    op = entry["op"]
    if op == "inform":
        return {"type": "inform", "descriptor": dict(entry["descriptor"])}
    if op == "release":
        return {"type": "release", "app": entry["app"],
                "remaining": entry.get("remaining")}
    return {"type": op, "app": entry["app"]}


async def replay_open_loop(trace: CoordinationTrace, daemon: Daemon,
                           rates: Sequence[float],
                           codec: str = "binary") -> Replay:
    """Replay ``trace`` on the schedule ``rates`` (one rate per exchange).

    Apps are dealt round-robin to :data:`NCONN` connections; each sends its
    sub-trace in ``seq`` order and the daemon's sequencer restores the
    global order.  Unacked exchanges (timeout, refusal, connection error)
    are counted in ``errors``.
    """
    n = len(trace)
    due = schedule(n, rates)
    replay = Replay(rates=list(rates), latency_s=[float("nan")] * n,
                    late_s=[float("nan")] * n)
    apps = trace.apps
    hands = [h for h in (apps[k::NCONN] for k in range(NCONN)) if h]
    spec_sha = trace.meta.get("spec_sha")
    host, port = daemon.endpoint
    perf = PerfCounters()
    clients = []
    for hand in hands:
        try:
            clients.append((await ServiceClient.connect(
                host, port, hand, mode="replay", spec_sha=spec_sha,
                codec=codec, perf=perf), hand))
        except (AdmissionRejected, ConnectionError):
            replay.errors += len(trace.entries_for(hand))
    sent = [0]
    acks: list = []
    t0 = _clock() + 0.01
    # The generator's own collector pauses would read as daemon latency.
    gc.disable()
    try:
        await asyncio.gather(*[
            _sender(client, trace.entries_for(hand), due, t0, replay, sent,
                    acks)
            for client, hand in clients])
        if acks:
            # A cancelled straggler is counted by its done callback.
            _, pending = await asyncio.wait(acks, timeout=ACK_TIMEOUT_S)
            for future in pending:
                future.cancel()
    finally:
        gc.enable()
        for client, _ in clients:
            await client.close()
    replay.client_counters = perf.as_dict()
    acked = [t for t in replay.latency_s if t == t]
    replay.wall_s = (max(acked) - t0) if acked else 0.0
    replay.latency_s = [t - (t0 + d) for t, d in zip(replay.latency_s, due)]
    try:
        probe = await ServiceClient.connect(host, port, ["_bench_probe"],
                                            mode="live", spec_sha=spec_sha)
        try:
            digest = await probe.decision_digest()
        finally:
            await probe.close()
    except (AdmissionRejected, ConnectionError):
        digest = {}             # no digest: the decision-log check fails
    replay.digest = digest.get("sha256", "")
    return replay


def backlog_grows(outstanding: List[Tuple[int, int]], floor: int = 32
                  ) -> bool:
    """True when the queue of unacked exchanges keeps growing.

    The replay's send points are split into quarters by exchanges sent;
    the backlog grows when each quarter's peak exceeds the previous one
    and the last quarter's peak is both above ``floor`` and at least twice
    the first's.
    """
    if len(outstanding) < 4:
        return False
    total = outstanding[-1][0]
    peaks = [0, 0, 0, 0]
    for sent, out in outstanding:
        q = min(3, (4 * (sent - 1)) // max(total, 1))
        peaks[q] = max(peaks[q], out)
    rising = all(b > a for a, b in zip(peaks, peaks[1:]))
    return rising and peaks[3] >= floor and peaks[3] >= 2 * peaks[0]


def max_sustained_rate(replay: Replay, segment: int) -> float:
    """Highest ramp step whose p99 meets the limit with no growing backlog.

    ``replay`` ran a stepped ramp: consecutive ``segment``-exchange blocks
    at rising rates, the first of which warms the daemon up and is not
    judged.  Steps are scanned in order and the scan stops at the first
    one that fails.
    """
    best = 0.0
    n = len(replay.latency_s)
    for start in range(segment, n, segment):
        block = sorted(replay.latency_s[start:start + segment])
        if any(t != t for t in block):
            break
        p99 = block[min(len(block) - 1, int(0.99 * len(block)))]
        in_block = [(s - start, out) for s, out in replay.outstanding
                    if start < s <= start + segment]
        if p99 > P99_LIMIT_S or backlog_grows(in_block, floor=16):
            break
        best = replay.rates[start]
    return best
