"""Daemon behaviour tests: admission control, crash semantics, backpressure,
and the ops (healthz/metrics/drain) HTTP contract.

Each test hosts a real :class:`CoordinationService` on an ephemeral
localhost port inside ``asyncio.run`` (the repo takes no async test
dependencies) and talks to it over genuine sockets.
"""

import asyncio
import json

import pytest

from repro.core.metrics import AccessDescriptor
from repro.experiments.scenarios import build_scenario
from repro.service.client import AdmissionRejected, ServiceClient
from repro.service.protocol import (
    descriptor_to_dict, read_message, write_message,
)
from repro.service.server import CoordinationService, ServiceConfig
from repro.service.trace import spec_fingerprint

_TIMEOUT = 30.0


def _spec(napps=4, phases=1, strategy="fcfs", seed=11):
    return build_scenario("service-many-writers", napps=napps, nservers=4,
                          phases=phases, seed=seed, strategy=strategy)[0]


def _run(coro):
    return asyncio.run(asyncio.wait_for(coro, _TIMEOUT))


async def _start(spec=None, **config) -> CoordinationService:
    service = CoordinationService(spec or _spec(), ServiceConfig(**config))
    await service.start()
    return service


async def _eventually(predicate, timeout=5.0) -> bool:
    loop = asyncio.get_event_loop()
    deadline = loop.time() + timeout
    while loop.time() < deadline:
        if predicate():
            return True
        await asyncio.sleep(0.01)
    return predicate()


def _descriptor(app: str) -> AccessDescriptor:
    return AccessDescriptor(app=app, nprocs=16, total_bytes=1_000_000.0,
                            t_alone=5.0)


# ---------------------------------------------------------------------------
# Admission control
# ---------------------------------------------------------------------------

def test_admission_at_capacity():
    async def go():
        service = await _start(max_sessions=2)
        host, port = service.address
        first = await ServiceClient.connect(host, port, ["a", "b"])
        try:
            with pytest.raises(AdmissionRejected) as err:
                await ServiceClient.connect(host, port, ["c"])
            assert err.value.reason == "at-capacity"
            assert service.perf.as_dict()["service_rejections"] == 1
        finally:
            await first.close()
            await service.close()

    _run(go())


def test_admission_rejects_while_draining():
    async def go():
        service = await _start()
        host, port = service.address
        # Flag-only: the listener is still up, so the rejection (not a
        # connect error) is what a racing client observes.
        service.draining = True
        try:
            with pytest.raises(AdmissionRejected) as err:
                await ServiceClient.connect(host, port, ["a"])
            assert err.value.reason == "draining"
        finally:
            await service.close()

    _run(go())


def test_admission_duplicate_app_and_empty_hello():
    async def go():
        service = await _start()
        host, port = service.address
        first = await ServiceClient.connect(host, port, ["a"])
        try:
            with pytest.raises(AdmissionRejected) as err:
                await ServiceClient.connect(host, port, ["b", "a"])
            assert err.value.reason == "duplicate-app"
            with pytest.raises(AdmissionRejected) as err:
                await ServiceClient.connect(host, port, [])
            assert "no apps" in err.value.reason
        finally:
            await first.close()
            await service.close()

    _run(go())


def test_admission_spec_fingerprint():
    async def go():
        spec = _spec()
        sha = spec_fingerprint(spec)
        service = await _start(spec=spec, spec_sha=sha)
        host, port = service.address
        try:
            with pytest.raises(AdmissionRejected) as err:
                await ServiceClient.connect(host, port, ["a"],
                                            spec_sha="f" * 16)
            assert err.value.reason == "spec-mismatch"
            # The right fingerprint — and no fingerprint — are admitted.
            matching = await ServiceClient.connect(host, port, ["a"],
                                                   spec_sha=sha)
            await matching.close()
            agnostic = await ServiceClient.connect(host, port, ["b"])
            await agnostic.close()
        finally:
            await service.close()

    _run(go())


# ---------------------------------------------------------------------------
# Live mode: sessions, grants, crash semantics
# ---------------------------------------------------------------------------

def test_live_session_reaches_arbiter_and_frees_capacity():
    async def go():
        service = await _start()
        host, port = service.address
        client = await ServiceClient.connect(host, port, ["w1"])
        try:
            session = client.session("w1")
            assert await session.inform(_descriptor("w1")) is True
            assert service.coordinator.is_authorized("w1")
            await session.complete()
            assert not service.coordinator.is_authorized("w1")
        finally:
            await client.close()
            await service.close()

    _run(go())


def test_live_grant_pushed_when_predecessor_completes():
    async def go():
        service = await _start()
        host, port = service.address
        client = await ServiceClient.connect(host, port, ["g1", "g2"])
        try:
            ahead, behind = client.session("g1"), client.session("g2")
            assert await ahead.inform(_descriptor("g1")) is True
            # FCFS queues the second writer behind the first.
            assert await behind.inform(_descriptor("g2")) is False
            await ahead.complete()
            grant = await behind.wait_grant(timeout=5.0)
            assert grant["app"] == "g2"
            assert service.coordinator.is_authorized("g2")
            assert service.perf.as_dict()["service_grants_pushed"] == 1
        finally:
            await client.close()
            await service.close()

    _run(go())


def test_live_disconnect_withdraws_sessions():
    async def go():
        service = await _start()
        host, port = service.address
        crasher = await ServiceClient.connect(host, port, ["w1"])
        assert await crasher.session("w1").inform(_descriptor("w1"))
        assert service.coordinator.is_authorized("w1")
        await crasher.abort()  # vanish without bye
        try:
            assert await _eventually(lambda: not service._connections)
            assert not service.coordinator.is_authorized("w1")
            counters = service.perf.as_dict()
            assert counters["service_crash_withdrawals"] == 1
            assert counters["service_abnormal_disconnects"] == 1
        finally:
            await service.close()

    _run(go())


def test_clean_bye_keeps_authorizations():
    async def go():
        service = await _start()
        host, port = service.address
        client = await ServiceClient.connect(host, port, ["w1"])
        assert await client.session("w1").inform(_descriptor("w1"))
        await client.close()
        try:
            assert await _eventually(lambda: not service._connections)
            # A clean bye is not a crash: no forced withdrawal.
            assert service.coordinator.is_authorized("w1")
            counters = service.perf.as_dict()
            assert counters.get("service_crash_withdrawals", 0) == 0
            assert counters.get("service_abnormal_disconnects", 0) == 0
        finally:
            await service.close()

    _run(go())


# ---------------------------------------------------------------------------
# Replay sequencing and backpressure
# ---------------------------------------------------------------------------

async def _raw_replay_connection(host, port, apps):
    reader, writer = await asyncio.open_connection(host, port)
    await write_message(writer, {"type": "hello", "apps": apps,
                                 "mode": "replay", "spec_sha": None})
    welcome = await read_message(reader)
    assert welcome["type"] == "welcome"
    return reader, writer


def test_sequencer_buffers_and_backpressures_out_of_order_entries():
    async def go():
        service = await _start(max_pending=2)
        host, port = service.address
        ra, wa = await _raw_replay_connection(host, port, ["a"])
        rb, wb = await _raw_replay_connection(host, port, ["b"])
        try:
            # Connection A races ahead: its entries (seq 1, 2) arrive
            # before the global head (seq 0, owned by connection B).
            await write_message(wa, {
                "type": "inform", "seq": 1, "t": 0.0,
                "descriptor": descriptor_to_dict(_descriptor("a"))})
            await write_message(wa, {
                "type": "complete", "seq": 2, "t": 1.0, "app": "a"})
            counters = service.perf.as_dict
            assert await _eventually(
                lambda: counters().get("service_reordered_frames") == 2)
            assert counters()["service_backpressure_stalls"] == 1
            assert service.health()["pending"] == 2

            # The head arrives; the sequencer drains everything buffered.
            await write_message(wb, {
                "type": "inform", "seq": 0, "t": 0.0,
                "descriptor": descriptor_to_dict(_descriptor("b"))})
            acks_a = [await read_message(ra), await read_message(ra)]
            assert [a["seq"] for a in acks_a] == [1, 2]
            assert acks_a[0]["type"] == "inform-ack"
            ack_b = await read_message(rb)
            assert (ack_b["type"], ack_b["seq"]) == ("inform-ack", 0)
            assert service.health()["next_seq"] == 3

            await write_message(wb, {"type": "complete", "seq": 3,
                                     "t": 1.0, "app": "b"})
            assert (await read_message(rb))["seq"] == 3
        finally:
            for w in (wa, wb):
                w.close()
            await service.close()

    _run(go())


def test_sequencer_rejects_duplicate_seq():
    async def go():
        service = await _start()
        host, port = service.address
        reader, writer = await _raw_replay_connection(host, port, ["a"])
        try:
            inform = {"type": "inform", "seq": 0, "t": 0.0,
                      "descriptor": descriptor_to_dict(_descriptor("a"))}
            await write_message(writer, inform)
            ack = await read_message(reader)
            assert ack["type"] == "inform-ack"
            await write_message(writer, dict(inform))  # replayed seq 0
            error = await read_message(reader)
            assert error["type"] == "error"
            assert "duplicate seq" in error["reason"]
        finally:
            writer.close()
            await service.close()

    _run(go())


# ---------------------------------------------------------------------------
# The ops surface
# ---------------------------------------------------------------------------

async def _http(host, port, method, path):
    reader, writer = await asyncio.open_connection(host, port)
    writer.write(f"{method} {path} HTTP/1.0\r\n\r\n".encode("ascii"))
    await writer.drain()
    raw = await reader.read()
    writer.close()
    head, _, body = raw.partition(b"\r\n\r\n")
    return int(head.split()[1]), body


def test_ops_healthz_metrics_and_drain():
    async def go():
        service = await _start(ops_port=0)
        host, port = service.ops_address
        coord_host, coord_port = service.address
        client = await ServiceClient.connect(coord_host, coord_port, ["a"])

        status, body = await _http(host, port, "GET", "/healthz")
        health = json.loads(body)
        assert status == 200
        assert health["status"] == "ok"
        assert health["sessions"] == 1

        status, body = await _http(host, port, "GET", "/metrics")
        text = body.decode("utf-8")
        assert status == 200
        assert "# TYPE service_sessions_active gauge" in text
        assert "service_sessions_active 1" in text
        assert "service_draining 0" in text
        # Monotonic PerfCounters totals are counters; only the four live
        # values are gauges.
        types = dict(line.split()[2:4] for line in text.splitlines()
                     if line.startswith("# TYPE "))
        gauges = {"service_sessions_active", "service_connections_active",
                  "service_pending_entries", "service_draining"}
        assert {n for n, kind in types.items() if kind == "gauge"} == gauges
        assert types["service_connections"] == "counter"

        status, _ = await _http(host, port, "GET", "/no-such-route")
        assert status == 404

        status, body = await _http(host, port, "POST", "/drain")
        assert status == 202
        await client.close()
        await asyncio.wait_for(service._drained.wait(), 5.0)

        status, body = await _http(host, port, "GET", "/healthz")
        assert status == 503
        assert json.loads(body)["status"] == "draining"
        await service.close()

    _run(go())


def test_drain_times_out_on_stuck_connection():
    async def go():
        service = await _start()
        host, port = service.address
        stuck = await ServiceClient.connect(host, port, ["a"])
        try:
            clean = await service.drain(timeout=0.2)
            assert clean is False
            assert service._drained.is_set()
        finally:
            await stuck.abort()
            await service.close()

    _run(go())
