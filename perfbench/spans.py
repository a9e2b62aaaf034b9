"""Span recorder for the traced run: per-layer attribution from outside.

Nothing inside ``repro`` is instrumented.  :class:`SpanRecorder` patches
the public entry points of every ``repro`` module from here, for the
duration of a traced pass only:

* each public function and public method (plus ``__init__``) of a class
  defined in a ``repro`` module records one span per call, labelled with
  the defining module;
* a generator function's calls return a wrapped generator that records one
  span per resume, so a process body's work is charged to its own module
  even when another module's ``yield from`` drives it (ADIO, PFS, session
  and application bodies);
* coroutine functions, private ones too (they are the event loop's entry
  points), get the same treatment per coroutine step; asyncio callbacks
  and socket handlers are charged to the layer that scheduled or
  registered them, the loop's remaining work is labelled ``eventloop``
  and its selector waits ``idle``;
* ``Simulator.call_at`` wraps the scheduled callback and
  ``Simulator.process`` the process body, so work the simulator dispatches
  is charged to the layer that scheduled it, not to dispatch.

A span is (layer, start, end, parent).  Spans stay in flat arrays in
memory; :meth:`SpanRecorder.summary` turns them into self times (a span's
duration minus its direct children's) and :meth:`SpanRecorder.dump` writes
them out once the run ends.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import pkgutil
import time
import types
from array import array
from typing import Any, Callable, Dict, List, Optional, Tuple

import numpy as np

_clock = time.perf_counter

#: Module prefixes folded into one reported layer.  Anything else keeps its
#: own ``repro``-relative module name (``core.arbiter``, ``simcore.fairshare``).
_FOLD = (
    ("simcore.events", "simcore.engine"),
    ("simcore.process", "simcore.engine"),
    ("simcore.calqueue", "simcore.engine"),
    ("mpisim.", "mpisim"),
    ("storage.", "storage"),
    ("apps.", "apps"),
    ("network.", "network"),
    ("experiments.", "experiments"),
    ("traces.", "traces"),
)


#: Layer of the event loop's blocking waits: neither work nor unattributed.
IDLE = "idle"
#: Layer of the asyncio loop's own work, outside any callback a ``repro``
#: layer scheduled.
EVENTLOOP = "eventloop"
#: Layer of the benchmark's own code (process bodies, callbacks).
BENCH = "bench"


def _entry_point(name: str, fn: Callable) -> bool:
    """Public functions, constructors, and coroutines (loop entry points)."""
    return (not name.startswith("_") or name == "__init__"
            or inspect.iscoroutinefunction(fn))


def layer_of(module: Optional[str]) -> Optional[str]:
    """The reported layer of a ``repro`` module name (None if foreign)."""
    if not module or not module.startswith("repro."):
        return None
    name = module[len("repro."):]
    for prefix, layer in _FOLD:
        if name == prefix.rstrip(".") or name.startswith(prefix):
            return layer
    return name


class SpanRecorder:
    """Flat in-memory span store plus the patching that feeds it."""

    def __init__(self) -> None:
        self.layers: List[str] = []
        self._layer_ids: Dict[str, int] = {}
        self.kinds: List[str] = []          #: qualified name per kind id
        self._kind_ids: Dict[str, int] = {}
        self.calls: List[int] = []          #: invocations per kind id
        self.layer = array("i")
        self.kind = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self._stack: List[int] = []
        self._patches: List[Tuple[Any, str, Any]] = []

    # -- recording ---------------------------------------------------------
    def layer_id(self, layer: str) -> int:
        lid = self._layer_ids.get(layer)
        if lid is None:
            lid = self._layer_ids[layer] = len(self.layers)
            self.layers.append(layer)
        return lid

    def kind_id(self, qualname: str) -> int:
        kid = self._kind_ids.get(qualname)
        if kid is None:
            kid = self._kind_ids[qualname] = len(self.kinds)
            self.kinds.append(qualname)
            self.calls.append(0)
        return kid

    def open(self, lid: int, kid: int) -> int:
        idx = len(self.start)
        stack = self._stack
        self.layer.append(lid)
        self.kind.append(kid)
        self.parent.append(stack[-1] if stack else -1)
        self.end.append(0.0)
        stack.append(idx)
        self.start.append(_clock())
        return idx

    def close(self, idx: int) -> None:
        self.end[idx] = _clock()
        self._stack.pop()

    def reset(self) -> None:
        for arr in (self.layer, self.kind, self.parent):
            del arr[:]
        for arr in (self.start, self.end):
            del arr[:]
        self._stack.clear()
        self.calls[:] = [0] * len(self.calls)

    # -- wrappers ----------------------------------------------------------
    def _wrap_call(self, fn: Callable, lid: int, kid: int) -> Callable:
        rec = self
        calls = self.calls

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            calls[kid] += 1
            idx = rec.open(lid, kid)
            try:
                return fn(*args, **kwargs)
            finally:
                rec.close(idx)
        return traced

    def traced_generator(self, gen, lid: int, kid: int):
        """Drive ``gen``, recording one span per resume."""
        rec = self
        value: Any = None
        error: Optional[BaseException] = None
        while True:
            idx = rec.open(lid, kid)
            try:
                if error is None:
                    item = gen.send(value)
                else:
                    item = gen.throw(error)
            except StopIteration as stop:
                rec.close(idx)
                return stop.value
            except BaseException:
                rec.close(idx)
                raise
            rec.close(idx)
            try:
                value = yield item
                error = None
            except GeneratorExit:
                gen.close()
                raise
            except BaseException as exc:  # thrown in by the resumer: forward
                value, error = None, exc

    def _wrap_genfunc(self, fn: Callable, lid: int, kid: int) -> Callable:
        rec = self

        calls = self.calls

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            calls[kid] += 1
            gen = rec.traced_generator(fn(*args, **kwargs), lid, kid)
            gen.__name__ = fn.__name__
            return gen
        return traced

    def _wrap_coroutine(self, fn: Callable, lid: int, kid: int) -> Callable:
        rec = self

        @types.coroutine
        def steps(coro):
            return (yield from rec.traced_generator(coro, lid, kid))

        calls = self.calls

        @functools.wraps(fn)
        async def traced(*args, **kwargs):
            calls[kid] += 1
            return await steps(fn(*args, **kwargs))
        return traced

    def wrap(self, fn: Callable, layer: str) -> Callable:
        """``fn`` recording spans under ``layer`` (per call or per resume)."""
        lid = self.layer_id(layer)
        kid = self.kind_id(f"{layer}:{getattr(fn, '__qualname__', fn)}")
        if inspect.isgeneratorfunction(fn):
            return self._wrap_genfunc(fn, lid, kid)
        if inspect.iscoroutinefunction(fn):
            return self._wrap_coroutine(fn, lid, kid)
        return self._wrap_call(fn, lid, kid)

    # -- patching ----------------------------------------------------------
    def _set(self, owner: Any, name: str, value: Any) -> None:
        self._patches.append((owner, name, owner.__dict__[name]))
        setattr(owner, name, value)

    def install(self) -> None:
        """Patch every public entry point of every ``repro`` module."""
        import repro
        modules = [importlib.import_module(info.name) for info in
                   pkgutil.walk_packages(repro.__path__, "repro.")
                   if not info.name.endswith("__main__")]
        replaced: Dict[int, Callable] = {}
        for module in modules:
            layer = layer_of(module.__name__)
            for name, obj in list(vars(module).items()):
                if getattr(obj, "__module__", None) != module.__name__:
                    continue
                if isinstance(obj, type):
                    self._patch_class(obj, layer)
                elif (isinstance(obj, types.FunctionType)
                      and _entry_point(name, obj)):
                    replaced[id(obj)] = self.wrap(obj, layer)
        # Module functions are bound by name wherever they were imported.
        for module in modules:
            for name, obj in list(vars(module).items()):
                new = replaced.get(id(obj))
                if new is not None:
                    self._set(module, name, new)
        self._patch_simulator()
        self._patch_event_loop()

    def _patch_class(self, cls: type, layer: str) -> None:
        for name, attr in list(vars(cls).items()):
            if isinstance(attr, types.FunctionType):
                if not _entry_point(name, attr):
                    continue
                self._set(cls, name, self.wrap(attr, layer))
            elif (isinstance(attr, (staticmethod, classmethod))
                  and _entry_point(name, attr.__func__)):
                self._set(cls, name,
                          type(attr)(self.wrap(attr.__func__, layer)))

    def _patch_simulator(self) -> None:
        """Charge dispatched callbacks and process bodies to their layer."""
        from repro.simcore.engine import Simulator
        rec = self
        call_at = Simulator.__dict__["call_at"]
        process = Simulator.__dict__["process"]
        traced_code = SpanRecorder.traced_generator.__code__

        def owner(fn) -> str:
            # The callback's defining module; failing that (partials,
            # builtins), the layer that is scheduling it right now.
            func = getattr(fn, "__func__", fn)
            layer = layer_of(getattr(func, "__module__", None))
            if layer is None and rec._stack:
                layer = rec.layers[rec.layer[rec._stack[-1]]]
            return layer or BENCH

        @functools.wraps(call_at)
        def traced_call_at(sim, when, fn):
            layer = owner(fn)
            lid = rec.layer_id(layer)
            kid = rec.kind_id(f"{layer}:call_at:"
                              f"{getattr(fn, '__qualname__', 'fn')}")

            def callback():
                idx = rec.open(lid, kid)
                try:
                    return fn()
                finally:
                    rec.close(idx)
            return call_at(sim, when, callback)

        @functools.wraps(process)
        def traced_process(sim, generator, name=None):
            if getattr(generator, "gi_code", None) is traced_code:
                return process(sim, generator, name=name)
            frame = getattr(generator, "gi_frame", None)
            module = frame.f_globals.get("__name__") if frame else None
            layer = layer_of(module) or BENCH
            body = rec.traced_generator(
                generator, rec.layer_id(layer),
                rec.kind_id(f"{layer}:process:"
                            f"{getattr(generator, '__qualname__', 'gen')}"))
            return process(sim, body,
                           name=name or getattr(generator, "__name__", None))

        self._set(Simulator, "call_at", traced_call_at)
        self._set(Simulator, "process", traced_process)

    def _patch_event_loop(self) -> None:
        """Name the asyncio loop's own work, and its idle waits apart.

        Callbacks and socket handlers are charged, like simulator
        callbacks, to the ``repro`` layer scheduling or registering them:
        a transport's reads and writes go to the layer that opened it, a
        task's step to the layer whose future woke it.
        """
        import asyncio.base_events
        import asyncio.selector_events
        import selectors
        rec = self
        loop_cls = asyncio.base_events.BaseEventLoop
        self._set(loop_cls, "_run_once",
                  self.wrap(loop_cls.__dict__["_run_once"], EVENTLOOP))
        for sel_cls in {selectors.DefaultSelector, selectors.SelectSelector}:
            self._set(sel_cls, "select",
                      self.wrap(sel_cls.__dict__["select"], IDLE))
        unowned = {self.layer_id(name) for name in (EVENTLOOP, IDLE, BENCH)}

        def charged(callback):
            """``callback`` recording a span under the scheduling layer, or
            itself when no ``repro`` layer is scheduling it."""
            if not rec._stack:
                return callback
            lid = rec.layer[rec._stack[-1]]
            if lid in unowned:
                return callback
            kid = rec.kind_id(f"{rec.layers[lid]}:loop:"
                              f"{getattr(callback, '__qualname__', 'fn')}")

            def run(*args):
                idx = rec.open(lid, kid)
                try:
                    return callback(*args)
                finally:
                    rec.close(idx)
            return run

        def scheduler(cls, name, nargs):
            # ``nargs`` positional arguments precede the callback.
            original = cls.__dict__[name]

            @functools.wraps(original)
            def traced(loop, *args, **kwargs):
                args = list(args)
                args[nargs] = charged(args[nargs])
                return original(loop, *args, **kwargs)
            self._set(cls, name, traced)

        scheduler(loop_cls, "call_soon", 0)
        scheduler(loop_cls, "call_at", 1)
        selector_loop = asyncio.selector_events.BaseSelectorEventLoop
        scheduler(selector_loop, "_add_reader", 1)
        scheduler(selector_loop, "_add_writer", 1)

    def uninstall(self) -> None:
        while self._patches:
            owner, name, value = self._patches.pop()
            setattr(owner, name, value)

    # -- analysis ----------------------------------------------------------
    def arrays(self) -> Dict[str, np.ndarray]:
        return {
            "layer": np.frombuffer(self.layer, dtype=np.int32).copy(),
            "kind": np.frombuffer(self.kind, dtype=np.int32).copy(),
            "parent": np.frombuffer(self.parent, dtype=np.int32).copy(),
            "start": np.frombuffer(self.start, dtype=np.float64).copy(),
            "end": np.frombuffer(self.end, dtype=np.float64).copy(),
        }

    def summary(self) -> Dict[str, Any]:
        """Self seconds per layer and per entry point; ``kind_calls`` counts
        invocations (a generator once), ``kind_spans`` spans (per resume)."""
        out = summarize(self.arrays(), self.layers, self.kinds)
        out["kind_spans"] = out["kind_calls"]
        out["kind_calls"] = dict(zip(self.kinds, self.calls))
        return out

    def dump(self, path) -> None:
        """Write the raw spans (``.npz``) with their layer/kind names."""
        np.savez(path, layers=np.array(self.layers, dtype=str),
                            kinds=np.array(self.kinds, dtype=str),
                            **self.arrays())


def summarize(a: Dict[str, np.ndarray], layers: List[str], kinds: List[str],
              window: Optional[Tuple[float, float]] = None) -> Dict[str, Any]:
    """Self seconds per layer and per entry point of the spans ``a``.

    A span's self time is its duration minus its direct children's.  With
    ``window``, only spans lying wholly inside it count; a kept span whose
    parent was dropped becomes a root.
    """
    start, end, parent = a["start"], a["end"], a["parent"]
    layer, kind = a["layer"], a["kind"]
    if window is not None:
        keep = (start >= window[0]) & (end <= window[1])
        index = np.cumsum(keep) - 1
        parent = np.where((parent >= 0) & keep[np.maximum(parent, 0)],
                          index[np.maximum(parent, 0)], -1)[keep]
        start, end, layer, kind = start[keep], end[keep], layer[keep], \
            kind[keep]
    n = len(start)
    dur = end - start
    child = parent >= 0
    covered = np.bincount(parent[child], weights=dur[child], minlength=n)
    self_s = dur - covered
    by_layer = np.bincount(layer, weights=self_s, minlength=len(layers))
    by_kind = np.bincount(kind, weights=self_s, minlength=len(kinds))
    spans = np.bincount(kind, minlength=len(kinds))
    idle = layers.index(IDLE) if IDLE in layers else -1
    return {
        "spans": n,
        "root_s": float(dur[~child].sum()),
        "idle_s": float(by_layer[idle]) if idle >= 0 else 0.0,
        "self_s": dict(zip(layers, by_layer.tolist())),
        "kind_self_s": dict(zip(kinds, by_kind.tolist())),
        "kind_calls": dict(zip(kinds, spans.tolist())),
    }


def load(path) -> Tuple[Dict[str, np.ndarray], List[str], List[str]]:
    """Read spans written by :meth:`SpanRecorder.dump`."""
    with np.load(path) as data:
        arrays = {k: data[k] for k in ("layer", "kind", "parent", "start",
                                       "end")}
        return arrays, data["layers"].tolist(), data["kinds"].tolist()
