"""Structure-of-arrays backend for ``FlowNetwork(vectorized=True)``.

The incremental allocator of :mod:`.fairshare` prices a dirty component
one Python flow at a time.  At 10^4 flows per component that inner loop —
not the algorithm — is the cost: every fill step scans ``link_flows``
dicts, every ``sync()`` walks flow objects, every refill rebuilds the
component by BFS.  This module keeps each live component's state as
contiguous numpy arrays instead and vectorizes the three hot paths:

* **Progressive max-min filling** — whole fill steps become masked array
  reductions.  Per-link unfixed-weight sums use ``np.bincount`` over a
  CSR-style (flow, link) entry list: bincount accumulates sequentially in
  input order, which reproduces the scalar loop's left-to-right
  ``sum(f.weight ...)`` *exactly* (pairwise ``np.sum``/``reduceat`` would
  not), so link shares — and therefore bottleneck choices — match the
  scalar scan bit for bit.  Cap-bottlenecked flows are fixed in batches:
  max-min link shares are non-decreasing as smaller-share flows fix
  (``(r - w_f*s)/(w - w_f) >= r/w`` whenever ``s <= r/w``), so every
  unfixed flow whose cap share is strictly below the current minimum link
  share fixes before any link saturates, in one vector step.
* **Lazy residual integration** — ``sync()`` is one fused
  ``remaining -= rates * dt`` + clamp per component, not a per-flow walk.
* **Horizon recomputation** — one ``remaining / rates`` division and an
  argmin feed the wake index; completions inside a state are holes in an
  ``alive`` mask, not array rebuilds.

Equivalence contract (enforced by ``tests/test_fairshare_vectorized.py``
and the hyperscale benchmark): completion *ordering* and the event
sequence are always identical to ``allocator="incremental"``; rates and
completion times are exact-equal where the scan order is deterministic
(single-link paths, cap-bound flows, the common figure workloads) and
ulp-bounded otherwise (multi-link residual subtraction is batched here
but sequential in the scalar loop, so the last bits of a shared residual
can differ).

Flows are array rows with light handles.  A vectorized network creates
:class:`VecFlow` handles, whose ``rate`` is read from the state's ``rates``
row while the flow has one (and falls back to the handle's stored value,
always ``0.0`` here, once the row is dropped), so a refill never copies
rates back onto Python objects.  A ``start_flows`` cohort is admitted in
one pass (:meth:`VecEngine.admit` resolves each distinct path once) and
queued as pending rows in ``_seq`` order; completions are batched
(:meth:`VecEngine._complete` kills a state's finished rows with two array
writes and does only the Python bookkeeping per handle).  Counters are
tallied in the engine and flushed into the ``PerfCounters`` once per
reallocation or wake, not once per flow.

Component merge/split are array concatenation/partition with index
remapping: a rebuild gathers ``remaining`` from each flow's previous
state, marks the moved rows dead in place (a split's far side keeps
completing out of its old arrays — rates there are still valid precisely
because that side was *not* refilled), and installs the fresh state as
the component's ``vec``.  Newly started flows whose links all live in
one current state queue for an in-place array append (no repack of the
existing rows); other membership changes — resumes included, which
re-enter mid-array in ``_seq`` order — mark the state stale, forcing the
next refill through the BFS.  Completions, pauses, cancels and capacity
changes are O(1) in-place edits, so the steady-state refill never walks
the graph at all.
"""

from __future__ import annotations

import heapq
import math
from collections import Counter
from itertools import count
from typing import Dict, List, Optional, Set, TYPE_CHECKING

import numpy as np

from .fairshare import (_EPS_BYTES, _FINISHED, FluidFlow, _check_flow,
                        _claim_links, _settle)

if TYPE_CHECKING:  # pragma: no cover - typing only
    from .fairshare import FluidLink, FlowNetwork, _Component

__all__ = ["VecEngine", "VecFlow", "VecState"]

#: Wake-index compaction trigger (mirrors the scalar pool's policy).
_COMPACT_MIN = 64

_stored_rate = FluidFlow.__dict__["rate"]  # the slot FluidFlow stores into


class VecFlow(FluidFlow):
    """Handle of one flow on a vectorized network.

    The flow's rate lives only in its state's ``rates`` row: reading
    ``rate`` while the flow has a row returns that entry, so a refill
    writes no Python object.  Without a row (pending, paused, finished or
    cancelled) it returns the stored value, which on a vectorized network
    is only ever assigned ``0.0``.
    """

    __slots__ = ()

    def __init__(self, sim, size: float, path: tuple, weight: float,
                 cap: Optional[float], label: str, now: float,
                 seq: int) -> None:
        FluidFlow.__init__(self, sim, size, path, weight, cap, label)
        self.start_time = now
        self._seq = seq
        self._synced = now

    @property
    def rate(self) -> float:
        st = self._vec
        if st is None:
            return _stored_rate.__get__(self)
        return float(st.rates[self._vidx])

    @rate.setter
    def rate(self, value: float) -> None:
        _stored_rate.__set__(self, value)


class VecState:
    """Structure-of-arrays snapshot of one live component.

    Row ``i`` of every per-flow array describes ``flows[i]``; the rows are
    in registration (``_seq``) order, which is the order the scalar fill
    iterates — the tie-break order every equivalence argument leans on.
    ``entry_flow``/``entry_link``/``entry_w`` list the (flow, link)
    incidence pairs flow-major (CSR over flows); ``lk_indptr``/``lk_flows``
    is the transposed view (per-link flow lists, seq-ordered).
    """

    __slots__ = (
        "comp", "flows", "n", "weights", "caps", "cap_shares", "remaining",
        "rates", "alive", "horizons", "synced", "links", "link_rows",
        "capacities", "entry_flow", "entry_link", "entry_w", "lk_indptr",
        "lk_flows", "stale", "retired", "wake_gen", "_seq", "next_wake",
        "pending",
    )

    def __init__(self) -> None:
        self.stale = False
        self.retired = False
        self.wake_gen = 0
        self.next_wake = math.inf
        self.pending: List[VecFlow] = []

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        tag = "stale " if self.stale else ""
        return (f"<VecState #{self._seq} {tag}n={self.n} "
                f"alive={int(self.alive.sum())}>")


class VecEngine:
    """Array-side twin of one :class:`~.fairshare.FlowNetwork`.

    Owns the per-component :class:`VecState` objects and the wake index (a
    heap of ``(next_wake, state_seq, wake_gen, state)`` entries with lazy
    generation-based invalidation, exactly the scalar pool's scheme but
    keyed by states so a split's leftover arrays keep their own wakes).
    Counters are tallied in ``_tally`` and flushed into the network's
    ``PerfCounters`` by :meth:`_flush`, once per reallocation, wake or
    admitted cohort.
    """

    def __init__(self, net: "FlowNetwork") -> None:
        self.net = net
        self._index: List[tuple] = []
        self._seq = count()
        self.nstates = 0
        self._tally: Counter = Counter()

    def _flush(self) -> None:
        """Move the tallied counts into the network's counters (one call)."""
        tally = self._tally
        if tally:
            if self.net.perf is not None:
                self.net.perf.merge(tally)
            tally.clear()

    # -- event hooks (called from FlowNetwork mutators) ---------------------
    def admit(self, requests, now: float):
        """Admit ``(size, path, weight, cap, label)`` requests as one cohort.

        Returns ``(handles, nlive)``: a handle per request, in order, and
        how many were registered (zero-byte flows complete at once and are
        not).  Every request passes the checks ``FlowNetwork._register_flow``
        applies; an invalid one rejects the whole cohort before anything
        is registered.  ``requests`` is consumed as it comes and handles
        with equal paths share one path tuple, so each flow leaves one new
        object for the garbage collector to track.  Link ownership is
        claimed once per distinct path; the target state is resolved and
        the links marked dirty once per distinct path of a live flow, in
        first-seen order (the dirty order a per-flow loop produces).  When
        all of a path's links live in one current (non-stale) state, its
        flows queue on that state's ``pending`` list one by one in ``_seq``
        order, so interleaved paths keep the scan order, and the next
        refill appends them as rows (no BFS, no repack).  Any other shape
        marks the involved states stale, forcing a BFS rebuild.
        """
        net = self.net
        sim = net.sim
        seq = net._seq
        flows: List[VecFlow] = []
        shared: Dict[tuple, tuple] = {}
        for size, path, weight, cap, label in requests:
            _check_flow(size, weight, cap)
            path = tuple(path)
            first = shared.setdefault(path, path)
            if first is path:
                _claim_links(net, path)
            flows.append(
                VecFlow(sim, size, first, weight, cap, label, now, next(seq)))
        registry = net._flows
        # path -> its target state, or False: resolved at its first live flow.
        targets: Dict[tuple, object] = {}
        nlive = 0
        for f in flows:
            if f.size <= _EPS_BYTES:
                f.remaining = 0.0
                f.finish_time = now
                f._outcome = _FINISHED
                continue
            nlive += 1
            registry[f] = None
            path = f.path
            for link in path:
                link._active[f] = None
            st = targets.get(path)
            if st is None:
                st = targets[path] = self._target(path) or False
                net._mark_dirty(path)
            if st and not st.stale:
                st.pending.append(f)
        tally = self._tally
        tally["flow_starts"] += len(flows)
        if nlive < len(flows):
            tally["flow_completions"] += len(flows) - nlive
        self._flush()
        return flows, nlive

    def _target(self, links) -> Optional[VecState]:
        """The one current state owning every link, else None (and the
        involved states go stale)."""
        target: Optional[VecState] = None
        for link in links:
            comp = link._comp
            st = comp.vec if comp is not None and comp.alive else None
            if (st is None or st.retired or st.stale
                    or link not in st.link_rows):
                target = None
                break
            if target is None:
                target = st
            elif st is not target:
                target = None
                break
        if target is None:
            self.touch(links)
        return target

    def touch(self, links) -> None:
        """A membership change hit these links: the states owning them go
        stale, so the next refill rebuilds them through the BFS."""
        for link in links:
            comp = link._comp
            if comp is not None:
                st = comp.vec
                if st is not None:
                    st.stale = True

    def capacity_changed(self, link: "FluidLink") -> None:
        """Patch one capacity row in place (no rebuild needed: membership
        is unchanged, only the fill inputs moved)."""
        comp = link._comp
        if comp is not None:
            st = comp.vec
            if st is not None:
                row = st.link_rows.get(link)
                if row is not None:
                    st.capacities[row] = link.capacity

    def drop(self, f: VecFlow) -> None:
        """Detach a finished/paused/cancelled flow: its row becomes a hole."""
        st = f._vec
        if st is None:
            return
        i = f._vidx
        st.alive[i] = False
        st.rates[i] = 0.0
        f._vec = None
        f._vidx = -1

    # -- progress integration ----------------------------------------------
    def _sync_state(self, st: VecState, now: float) -> None:
        dt = now - st.synced
        if dt > 0:
            # Dead rows have rate 0; alive infinite-rate rows clamp to 0.
            rem = st.remaining
            np.multiply(st.rates, dt, out=self._scratch(st))
            np.subtract(rem, self._scratch(st), out=rem)
            np.maximum(rem, 0.0, out=rem)
        st.synced = now

    def _scratch(self, st: VecState):
        # A throwaway buffer the size of the state (allocation is cheap
        # relative to the fused ops; keeping this a method makes the two
        # uses above share one allocation per sync).
        buf = getattr(self, "_buf", None)
        if buf is None or buf.shape[0] < st.n:
            buf = np.empty(st.n)
            self._buf = buf
        return buf[:st.n]

    def sync_flow(self, f: VecFlow, now: float) -> None:
        """Scalar `_sync_flow` delegate for one array-managed flow."""
        st = f._vec
        self._sync_state(st, now)
        f.remaining = float(st.remaining[f._vidx])
        f._synced = now

    def sync_all(self, now: float) -> None:
        """Whole-network ``sync()``: one fused update per state, then write
        the banked progress back onto the flow objects."""
        seen: Dict[int, VecState] = {}
        for f in self.net._flows:
            st = f._vec
            if st is None:
                # Paused (rate 0) or not-yet-priced flows: the scalar rule.
                dt = now - f._synced
                if dt > 0 and not f.paused and f.rate > 0:
                    f.remaining = max(0.0, f.remaining - f.rate * dt)
                f._synced = now
            else:
                seen.setdefault(id(st), st)
        for st in seen.values():
            self._sync_state(st, now)
            rem = st.remaining
            flows = st.flows
            for i in np.flatnonzero(st.alive).tolist():
                fl = flows[i]
                fl.remaining = rem[i]
                fl._synced = now

    # -- reallocation -------------------------------------------------------
    def reallocate(self, seeds: List["FluidLink"], now: float) -> None:
        """Refill every dirty region: in place when the seed's component
        has a current (non-stale) state, via BFS rebuild otherwise."""
        net = self.net
        consumed: Optional[Set["FluidLink"]] = None
        done: Set[int] = set()
        for link in seeds:
            if consumed is not None and link in consumed:
                continue
            comp = link._comp
            st = comp.vec if (comp is not None and comp.alive) else None
            if st is not None and not st.stale and link in st.link_rows:
                if id(st) not in done:
                    done.add(id(st))
                    if st.pending:
                        self._append(st, now)
                    self._refill(comp, st, now)
                continue
            if consumed is None:
                consumed = set()
            consumed.add(link)
            for flows, links in net._components([link]):
                consumed |= links
                new_st = self._rebuild(flows, links, now)
                done.add(id(new_st))
        self._flush()

    def _append(self, st: VecState, now: float) -> None:
        """Materialize the state's pending arrivals as appended rows.

        Only brand-new flows ever ride this path (resumes repack via the
        stale rebuild): a new flow holds the highest ``_seq`` in the
        component, so appending its row last preserves registration order
        — the scalar fill's scan order — which keeps the bincount weight
        sums, and therefore every bottleneck choice, bit-identical to a
        rebuild.
        Rows already claimed by a rebuild (``_vec`` set), cancelled, or
        paused since registration are skipped; the same-turn reallocate
        that follows every mutation guarantees the list never carries
        across events.
        """
        pend = [f for f in st.pending
                if f._vec is None and not f.paused and f in self.net._flows]
        st.pending = []
        if not pend:
            return
        self._sync_state(st, now)
        n0 = st.n
        m = len(pend)
        inf = math.inf
        weights = [f.weight for f in pend]
        caps = [inf if f.cap is None else f.cap for f in pend]
        remaining = [f.remaining for f in pend]
        entry_flow: List[int] = []
        entry_link: List[int] = []
        link_rows = st.link_rows
        for i, f in enumerate(pend, n0):
            f._vec = st
            f._vidx = i
            for link in f.path:
                entry_flow.append(i)
                entry_link.append(link_rows[link])
        st.flows.extend(pend)
        st.n = n0 + m
        st.weights = np.concatenate((st.weights, weights))
        st.caps = np.concatenate((st.caps, caps))
        with np.errstate(invalid="ignore"):
            st.cap_shares = st.caps / st.weights
        st.remaining = np.concatenate((st.remaining, remaining))
        st.rates = np.concatenate((st.rates, np.zeros(m)))
        st.alive = np.concatenate((st.alive, np.ones(m, dtype=bool)))
        st.horizons = np.concatenate((st.horizons, np.full(m, math.inf)))
        ef = np.concatenate((st.entry_flow,
                             np.asarray(entry_flow, dtype=np.intp)))
        el = np.concatenate((st.entry_link,
                             np.asarray(entry_link, dtype=np.intp)))
        st.entry_flow = ef
        st.entry_link = el
        st.entry_w = st.weights[ef]
        order = np.argsort(el, kind="stable")
        st.lk_flows = ef[order]
        counts = np.bincount(el, minlength=len(st.links))
        st.lk_indptr = np.concatenate(([0], np.cumsum(counts)))
        tally = self._tally
        tally["vec_appends"] += 1
        tally["vec_append_flows"] += m

    def _rebuild(self, flows: List[VecFlow], links: Set["FluidLink"],
                 now: float) -> VecState:
        """Merge/split: gather rows from the previous states into a fresh
        contiguous state for this (BFS-derived) membership."""
        net = self.net
        comp = net._resolve_component(links)
        comp.fill_slots.clear()  # scalar replay cache is meaningless here
        n = len(flows)
        weights = np.empty(n)
        caps = np.full(n, math.inf)
        remaining = np.empty(n)
        entry_flow: List[int] = []
        entry_link: List[int] = []
        link_rows: Dict["FluidLink", int] = {}
        link_list: List["FluidLink"] = []
        for i, f in enumerate(flows):
            old = f._vec
            if old is not None:
                # First touch syncs the whole donor state; repeats no-op.
                self._sync_state(old, now)
                remaining[i] = old.remaining[f._vidx]
                # The moved row dies in place: the donor keeps serving only
                # its genuine remainder (whose rates stay valid because that
                # side is exactly the part not being refilled).
                old.alive[f._vidx] = False
                old.rates[f._vidx] = 0.0
            else:
                remaining[i] = f.remaining
            weights[i] = f.weight
            if f.cap is not None:
                caps[i] = f.cap
            for link in f.path:
                row = link_rows.get(link)
                if row is None:
                    row = len(link_list)
                    link_rows[link] = row
                    link_list.append(link)
                entry_flow.append(i)
                entry_link.append(row)
        st = VecState()
        st.comp = comp
        st.flows = list(flows)
        st.n = n
        st.weights = weights
        st.caps = caps
        with np.errstate(invalid="ignore"):
            st.cap_shares = caps / weights
        st.remaining = remaining
        st.rates = np.zeros(n)  # every alive row is priced by the refill
        st.alive = np.ones(n, dtype=bool)
        st.horizons = np.full(n, math.inf)
        st.synced = now
        st.links = link_list
        st.link_rows = link_rows
        st.capacities = np.array([lk.capacity for lk in link_list])
        ef = np.asarray(entry_flow, dtype=np.intp)
        el = np.asarray(entry_link, dtype=np.intp)
        st.entry_flow = ef
        st.entry_link = el
        st.entry_w = weights[ef]
        order = np.argsort(el, kind="stable")
        st.lk_flows = ef[order]
        counts = np.bincount(el, minlength=len(link_list))
        st.lk_indptr = np.concatenate(([0], np.cumsum(counts)))
        st._seq = next(self._seq)
        for i, f in enumerate(flows):
            f._vec = st
            f._vidx = i
        comp.vec = st
        self.nstates += 1
        tally = self._tally
        tally["vec_rebuilds"] += 1
        tally["vec_rebuild_flows"] += n
        self._refill(comp, st, now)
        return st

    def _refill(self, comp: "_Component", st: VecState, now: float) -> None:
        """Sync, complete, re-price and re-arm one state in place."""
        self._sync_state(st, now)
        alive = st.alive
        rows = np.flatnonzero(alive & (st.remaining <= _EPS_BYTES))
        if rows.size:
            flows = st.flows
            self._complete(((st, rows),), [flows[i] for i in rows.tolist()],
                           now)
        tally = self._tally
        tally["components_refilled"] += 1
        tally["vec_refills"] += 1
        nalive = int(alive.sum())
        if nalive == 0:
            self._retire(comp, st)
            return
        steps, cap_batches = self._fill(st)
        tally["rate_recomputations"] += 1
        tally["flows_touched"] += nalive
        tally["vec_fill_steps"] += steps
        tally["vec_cap_batches"] += cap_batches
        rates = st.rates
        with np.errstate(divide="ignore", invalid="ignore"):
            st.horizons = np.where(alive & (rates > 0),
                                   now + st.remaining / rates, math.inf)
        nw = float(st.horizons.min())
        st.next_wake = nw
        st.wake_gen += 1
        if math.isfinite(nw):
            heapq.heappush(self._index, (nw, st._seq, st.wake_gen, st))

    def _complete(self, parts, done: List[VecFlow], now: float) -> None:
        """Finish flows in one step.

        ``parts`` lists ``(state, rows)`` pairs whose rows die with two
        array writes each; ``done`` holds the same flows' handles in
        completion order, and gets only the bookkeeping Python requires:
        leaving the registry and the link indexes, the finish time and
        outcome, and the ``done`` event when one was ever created.
        """
        for st, rows in parts:
            st.alive[rows] = False
            st.rates[rows] = 0.0
        for f in done:
            f._vec = None
        _settle(self.net._flows, done, now)
        self._tally["flow_completions"] += len(done)

    def _fill(self, st: VecState):
        """Vectorized progressive filling over the state's alive rows.

        Returns ``(steps, cap_batches)``.  Matches the scalar scan's
        choices: ``argmin`` takes the first strict minimum (the scalar
        ``<`` scan's tie-break, with links in first-encounter order), caps
        lose ties against links (strict ``<``), and per-link weight sums
        are bincount-exact against the scalar left-to-right sum.
        """
        alive = st.alive
        unfixed = alive.copy()
        n_unfixed = int(unfixed.sum())
        residual = st.capacities.copy()
        rates = st.rates
        weights = st.weights
        cap_shares = st.cap_shares
        entry_flow = st.entry_flow
        entry_link = st.entry_link
        entry_w = st.entry_w
        nlinks = len(st.links)
        steps = 0
        cap_batches = 0
        while n_unfixed:
            steps += 1
            active_w = np.where(unfixed[entry_flow], entry_w, 0.0)
            wsum = np.bincount(entry_link, weights=active_w,
                               minlength=nlinks)
            with np.errstate(divide="ignore", invalid="ignore"):
                shares = np.where(wsum > 0.0, residual / wsum, math.inf)
            li = int(np.argmin(shares))
            link_share = float(shares[li])
            masked_caps = np.where(unfixed, cap_shares, math.inf)
            cap_min = float(masked_caps.min())
            if math.isinf(link_share) and math.isinf(cap_min):
                rates[unfixed] = math.inf
                break
            if cap_min < link_share:
                # Batch-fix every cap strictly below the current minimum
                # link share: link shares only grow as these fix, so the
                # scalar loop fixes exactly this set (one per step) before
                # any link saturates — same rates, same residual deltas.
                newly = unfixed & (cap_shares < link_share)
                idx = np.flatnonzero(newly)
                rates[idx] = weights[idx] * cap_shares[idx]
                cap_batches += 1
            else:
                lo = st.lk_indptr[li]
                hi = st.lk_indptr[li + 1]
                members = st.lk_flows[lo:hi]
                idx = members[unfixed[members]]
                share = residual[li] / wsum[li]
                rates[idx] = weights[idx] * share
                newly = np.zeros(st.n, dtype=bool)
                newly[idx] = True
            unfixed[idx] = False
            n_unfixed -= idx.size
            if n_unfixed:
                fixed_rate = np.where(newly[entry_flow],
                                      rates[entry_flow], 0.0)
                delta = np.bincount(entry_link, weights=fixed_rate,
                                    minlength=nlinks)
                residual = np.maximum(residual - delta, 0.0)
        return steps, cap_batches

    # -- wake machinery -----------------------------------------------------
    def next_horizon(self) -> Optional[float]:
        """Earliest live horizon across all states (the scalar pool's
        contract), with lazy stale-entry pops and bulk compaction."""
        index = self._index
        perf = self.net.perf
        if len(index) > _COMPACT_MIN and len(index) > 4 * max(1, self.nstates):
            live = [e for e in index if e[2] == e[3].wake_gen]
            index[:] = live
            heapq.heapify(index)
            if perf is not None:
                perf.bump("wake_compactions")
        while index:
            when, _, gen, st = index[0]
            if gen != st.wake_gen:
                heapq.heappop(index)
                if perf is not None:
                    perf.bump("wake_stale_pops")
                continue
            return when
        return None

    def on_wake(self, now: float) -> bool:
        """Collect and handle every due flow across due states.

        Due flows are ordered globally by ``(horizon, flow_seq)`` — the
        scalar pool's exact completion order — and their links marked
        dirty in that order; the finished ones complete as one batch (the
        rest are float residue the refill re-prices and re-arms).  Returns
        True when any flow was due (the caller reallocates), False
        otherwise.
        """
        index = self._index
        tally = self._tally
        parts = []
        touched: List[VecState] = []
        while index and index[0][0] <= now:
            _, _, gen, st = heapq.heappop(index)
            if gen != st.wake_gen:
                tally["wake_stale_pops"] += 1
                continue
            touched.append(st)
            self._sync_state(st, now)
            rows = np.flatnonzero(st.alive & (st.horizons <= now))
            if rows.size:
                parts.append((st, rows))
        if parts:
            # The handles' sequence numbers break horizon ties, within a
            # state and across states alike.
            due = []
            for st, rows in parts:
                due += map(st.flows.__getitem__, rows.tolist())
            horizons = np.concatenate([st.horizons[rows] for st, rows in parts])
            fins = [st.remaining[rows] <= _EPS_BYTES for st, rows in parts]
            finished = np.concatenate(fins).tolist()
            seqs = np.array([f._seq for f in due])
            order = np.lexsort((seqs, horizons)).tolist()
            mark_dirty = self.net._mark_dirty
            done = []
            for k in order:
                f = due[k]
                mark_dirty(f.path)
                if finished[k]:
                    done.append(f)
            if done:
                self._complete([(st, rows[fin]) for (st, rows), fin
                                in zip(parts, fins)], done, now)
        for st in touched:
            st.wake_gen += 1
            if st.alive.any():
                nw = float(np.min(st.horizons[st.alive]))
                st.next_wake = nw
                if math.isfinite(nw):
                    heapq.heappush(index, (nw, st._seq, st.wake_gen, st))
            else:
                self._retire(st.comp, st)
        self._flush()
        return bool(parts)

    def _retire(self, comp: Optional["_Component"], st: VecState) -> None:
        """Drop a drained state (and its component when it owned it)."""
        if st.retired:
            return
        st.retired = True
        st.wake_gen += 1  # invalidates every index entry wholesale
        st.next_wake = math.inf
        self.nstates -= 1
        if comp is not None and comp.vec is st:
            comp.vec = None
            if comp.alive:
                comp.alive = False
                self.net._ncomps -= 1
