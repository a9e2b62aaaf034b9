"""Operations sidecar: health probes and metrics over plain HTTP.

The daemon binds a second listener (``ServiceConfig.ops_port``) speaking
just enough HTTP/1.0 for probes and scrapers — hand-rolled on asyncio
because the repo takes no dependencies:

``GET /healthz``
    ``200`` with a JSON body while serving (``{"status": "ok", ...}``),
    ``503`` with ``{"status": "draining", ...}`` once a drain started —
    the shape a readiness probe wants (stop routing new clients, keep the
    process alive while connections finish).

``GET /metrics``
    Prometheus text exposition of the daemon's
    :class:`~repro.perf.PerfCounters` (coordination counters, simulator
    counters, ``service_*`` accounting), typed ``counter`` since they only
    grow, plus the live values (sessions, connections, pending entries,
    draining) typed ``gauge``.  Names pass through unchanged — they are
    already ``snake_case``.

``POST /drain``
    Triggers a graceful drain (idempotent); responds immediately with
    ``202`` and the current health snapshot.  This is how an operator (or
    the CI smoke job) asks a running daemon to finish up and exit.
"""

from __future__ import annotations

import asyncio
import json
import numbers
from typing import TYPE_CHECKING, Tuple

if TYPE_CHECKING:  # pragma: no cover - typing only
    from .server import CoordinationService

__all__ = ["handle_ops", "render_metrics"]

_REASONS = {200: "OK", 202: "Accepted", 400: "Bad Request",
            404: "Not Found", 503: "Service Unavailable"}


def render_metrics(service: "CoordinationService") -> str:
    """The daemon's counters in Prometheus text exposition format."""
    counters = service.perf.as_dict()
    lines = []
    for name, value in sorted(service.metrics_snapshot().items()):
        if not isinstance(value, numbers.Real):  # pragma: no cover - guard
            continue
        kind = "counter" if name in counters else "gauge"
        lines.append(f"# TYPE {name} {kind}")
        lines.append(f"{name} {float(value):g}")
    return "\n".join(lines) + "\n"


def _response(status: int, body: str, content_type: str) -> bytes:
    payload = body.encode("utf-8")
    head = (f"HTTP/1.0 {status} {_REASONS.get(status, 'Unknown')}\r\n"
            f"Content-Type: {content_type}\r\n"
            f"Content-Length: {len(payload)}\r\n"
            "Connection: close\r\n\r\n")
    return head.encode("ascii") + payload


def _route(service: "CoordinationService", method: str,
           path: str) -> Tuple[int, str, str]:
    if method == "GET" and path == "/healthz":
        health = service.health()
        status = 503 if service.draining else 200
        return status, json.dumps(health), "application/json"
    if method == "GET" and path == "/metrics":
        return 200, render_metrics(service), "text/plain; version=0.0.4"
    if method == "POST" and path == "/drain":
        if not service.draining:
            # Fire-and-forget: the drain outlives this HTTP exchange.
            asyncio.ensure_future(service.drain())
        return 202, json.dumps(service.health()), "application/json"
    return 404, json.dumps({"error": f"no route {method} {path}"}), \
        "application/json"


async def handle_ops(service: "CoordinationService",
                     reader: asyncio.StreamReader,
                     writer: asyncio.StreamWriter) -> None:
    """Serve one HTTP exchange (HTTP/1.0: one request per connection)."""
    try:
        request_line = await reader.readline()
        parts = request_line.decode("ascii", "replace").split()
        if len(parts) < 2:
            writer.write(_response(400, json.dumps({"error": "bad request"}),
                                   "application/json"))
            await writer.drain()
            return
        method, path = parts[0].upper(), parts[1]
        # Drain (and discard) the request headers.
        while True:
            line = await reader.readline()
            if line in (b"\r\n", b"\n", b""):
                break
        status, body, ctype = _route(service, method, path)
        writer.write(_response(status, body, ctype))
        await writer.drain()
    except ConnectionError:  # pragma: no cover - probe vanished
        pass
    finally:
        try:
            writer.close()
            await writer.wait_closed()
        except Exception:  # pragma: no cover - probe vanished
            pass
