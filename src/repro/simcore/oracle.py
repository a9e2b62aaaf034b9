"""Bit-exact oracles kept beside the production simulation kernel.

:class:`OracleSimulator` is the seed dispatch loop, kept as the
cross-checked baseline of the batch core: every ``call_at`` schedules a
full :class:`~repro.simcore.events.Event`, and each dispatch pops exactly
one event with one perf bump.  It draws insertion ids from the same
counter and pops in the same ``(time, insertion id)`` order as the batch
core, so decision logs and finish times must come out identical — the
equivalence tests and ``benchmarks/test_scale_sim.py`` construct it
directly for that comparison.

:class:`FreshFillFlowNetwork` is the reference for the bottleneck cache
of :class:`~repro.simcore.fairshare.FlowNetwork`: the same components,
wake-heap pool and integration, with every refill priced by a
from-scratch progressive filling.  Cached replay is verified exact, so
rates and completion times must come out identical (``==``) — the
kernel tests and the churn gate of ``benchmarks/test_scale_kernel.py``
construct it directly for that comparison.
"""

from __future__ import annotations

import heapq
import math
from typing import Callable

from .engine import Simulator
from .errors import SimulationError
from .events import Event
from .fairshare import FlowNetwork

__all__ = ["OracleSimulator", "FreshFillFlowNetwork"]


class _EventTimer:
    """``call_at`` handle of the oracle: wraps the full Event.

    Presents the same ``cancel()``/``reschedule()``/``active`` surface as
    :class:`~repro.simcore.engine.Timer` so call sites work unchanged; the
    underlying event is deadmarked through the simulator's cancelled-event
    set.
    """

    __slots__ = ("sim", "when", "event", "_fn")

    def __init__(self, sim: "OracleSimulator", when: float, event: Event,
                 fn: Callable[[], None]):
        self.sim = sim
        self.when = when
        self.event = event
        self._fn = fn

    @property
    def cancelled(self) -> bool:
        return self.event in self.sim._cancelled_events

    @property
    def active(self) -> bool:
        return not self.event.processed and not self.cancelled

    def cancel(self) -> bool:
        return self.sim._cancel_event(self.event)

    def reschedule(self, when: float) -> "_EventTimer":
        sim = self.sim
        now = sim._now
        if when < now:
            raise SimulationError(
                f"reschedule({when}) is in the past (now={now})"
            )
        sim._cancel_event(self.event)  # no-op if it already fired
        self.event = sim._schedule_call(when, self._fn)
        self.when = when
        return self

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<EventTimer t={self.when:.6g}>"


class OracleSimulator(Simulator):
    """:class:`~repro.simcore.Simulator` with one-event-per-pop dispatch."""

    def _schedule_call(self, when: float, fn: Callable[[], None]) -> Event:
        ev = Event(self)
        ev._ok = True
        ev._value = None
        self._schedule(ev, when - self._now)
        ev.callbacks.append(lambda _ev: fn())
        return ev

    def call_at(self, when: float, fn: Callable[[], None]) -> _EventTimer:
        """Run ``fn()`` at ``when``; the handle wraps a full event."""
        now = self._now
        if when < now:
            raise SimulationError(
                f"call_at({when}) is in the past (now={now})"
            )
        return _EventTimer(self, when, self._schedule_call(when, fn), fn)

    def _dispatch(self) -> None:
        """Pop and process exactly one live event; quiet on an empty queue."""
        # peek() retires (and counts) cancelled heads, so the pop below
        # always takes a live event.
        if self.peek() == math.inf:
            return
        when, _, event = heapq.heappop(self._queue)
        self._now = when
        if self.perf is not None:
            self.perf.bump("events_processed")
        callbacks, event.callbacks = event.callbacks, None
        for cb in callbacks:
            cb(event)
        if not event._ok and not event._defused:
            # A failure nobody handled: abort the run loudly.
            raise event._value


class FreshFillFlowNetwork(FlowNetwork):
    """:class:`~repro.simcore.fairshare.FlowNetwork` that never consults
    the bottleneck cache: every refill is a fresh progressive filling."""

    def _cache_wants(self, comp, nflows: int) -> bool:
        return False
