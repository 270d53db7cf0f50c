"""Struct-of-arrays simulation engine — a transcription of ``Engine.step``.

:class:`SoAEngine` advances the network through *exactly* the same sequence
of state changes, routing-hook invocations and RNG draws as the object
engine (:class:`repro.simulation.engine.Engine`), but reads and writes the
flat arrays of :class:`~repro.simulation.soa.state.SoAState` instead of
chasing ``Router``/``InputPort``/``OutputPort`` objects.  The speed comes
from three places:

* **flat state** — the begin/commit/transmit phases are integer arithmetic
  on Python lists instead of attribute loads across an object graph;
* **decision capture** — routing decisions are classified once per buffer
  head instead of re-derived from scratch every allocation round.  Heads
  whose decision cannot change while they wait (ejection, towards-
  intermediate, pure mechanisms) carry a cached
  :class:`~repro.network.allocator.AllocationRequest`; heads governed by an
  adaptive trigger carry their (static) candidate list and VC assignments,
  and only the trigger itself — a couple of counter comparisons and at most
  one RNG draw — runs per round, exactly as many times and in exactly the
  same order as the object model's ``select_output`` calls;
* **batched broadcast kernels** — PB's saturation scan and ECtN's
  combined-counter reduction run as numpy kernels over
  gathered arrays (:mod:`repro.simulation.soa.kernels`);
* **clean-router skipping** — an allocation pass that produced no grant and
  consumed no RNG draw is a pure function of state that only a known set of
  events can change (a credit return or link arrival at the router, an
  output-buffer drain, a new buffer head, an ECtN broadcast).  The router is
  marked *clean* and its allocate phase is skipped until one of those events
  fires; the skipped evaluations are observationally identical no-ops, so
  results and RNG streams are unchanged.  Under saturation — where most
  heads are blocked on credits for long stretches — this removes the bulk
  of the per-cycle work.

Buffer-head keys are flat integers ``k = port * V + vc`` (their numeric
order equals the object model's ``(port, vc)`` tuple order), and captured
requests are plain tuples ``(in_port, in_vc, out_port, size, decision,
out_g, credit_q)`` whose last two fields precompute the admission-check
indices.  ``AllocationRequest`` is a NamedTuple with the same first five
fields, so the transcribed separable allocator accepts both shapes.

Allocation modes
----------------
``MODE_PURE``
    Healthy runs of the pure mechanisms (MIN, VAL, UGAL, PB):
    ``decision_is_pure`` guarantees ``select_output`` has no side effects
    and depends only on state that is constant while a packet waits at a
    buffer head, so it is evaluated once per head and the rounds reduce to
    admission checks plus the separable allocator.
``MODE_FAST``
    Healthy runs of the in-transit adaptive family (OLM, Base, Hybrid,
    ECtN): the per-head taxonomy above, with the trigger transcribed from
    the mechanism's ``choose_*`` hooks against the flat occupancies and
    contention counters.
``MODE_GENERIC``
    Everything else (fault runs, ring-escape/torus and uplink-multipath/
    fat-tree policies, third-party mechanisms): ``routing.select_output``
    is called per round on a
    :class:`~repro.simulation.soa.state.RouterView`, replicating the object
    allocate loop verbatim — still faster than the object engine thanks to
    the flat begin/commit/transmit phases.

Every deviation from ``Engine``/``Router`` behaviour is a bug; the golden,
time-warp and property suites assert bit-identical results.
"""

from __future__ import annotations

from bisect import insort
from operator import attrgetter
from typing import List, Optional

import numpy as np

from repro.network.allocator import AllocationRequest
from repro.network.router import _NO_EVENT
from repro.network.packet import RoutingPhase
from repro.routing.base import RoutingDecision
from repro.routing.minimal import MinimalRouting
from repro.routing.valiant import ValiantRouting
from repro.routing.ugal import UGALRouting
from repro.routing.piggyback import PiggybackRouting
from repro.routing.olm import OLMRouting
from repro.routing.contention.base_contention import BaseContentionRouting
from repro.routing.contention.hybrid import HybridContentionRouting
from repro.routing.contention.ectn import ECtNRouting
from repro.simulation.engine import Engine, SimulationStallError, ENGINE_STATS
from repro.simulation.soa.kernels import combine_rows, pb_saturation_flags
from repro.simulation.soa.state import SoAState
from repro.topology.base import PortKind

__all__ = ["SoAEngine"]

_node_id = attrgetter("node_id")
_GLOBAL = PortKind.GLOBAL
_LOCAL = PortKind.LOCAL
_TO_INTERMEDIATE = RoutingPhase.TO_INTERMEDIATE

# Allocation modes (see module docstring).
MODE_GENERIC = 0
MODE_PURE = 1
MODE_FAST = 2

# Head-decision categories of MODE_FAST.  One category per head suffices:
# the local-misroute gate requires ``current_group == dst_group or
# global_hops == 1`` while the global gates require ``dst_group !=
# current_group and global_hops == 0``, so a head can never fall from a
# failed global gate into the local gate — only into the minimal fallback.
CAT_FIXED = 0  # decision constant while the head waits (cached request)
CAT_FORCED = 1  # committed MM+L proxy: forced global hop, trigger per round
CAT_GLOBAL = 2  # source-group global-misroute gate, trigger per round
CAT_LOCAL = 3  # local-misroute gate, trigger per round

# Trigger transcriptions of MODE_FAST.
MECH_OLM = 0
MECH_BASE = 1
MECH_HYBRID = 2
MECH_ECTN = 3

_FAST_MECHS = {
    OLMRouting: MECH_OLM,
    BaseContentionRouting: MECH_BASE,
    HybridContentionRouting: MECH_HYBRID,
    ECtNRouting: MECH_ECTN,
}
_PURE_MECHS = (MinimalRouting, ValiantRouting, UGALRouting, PiggybackRouting)


class SoAEngine(Engine):
    """Drop-in :class:`Engine` over :class:`SoAState` (see module doc)."""

    kind = "soa"

    __slots__ = (
        "_st",
        "_mode",
        "_mech",
        "_routing",
        "_notify_arrival",
        "_notify_head",
        "_notify_leave",
        "_speedup",
        "_router_latency",
        "_pure_decisions",
        "_dlv",
        "_drp",
        # per-q decision capture (MODE_PURE / MODE_FAST)
        "_dreq",
        "_dcat",
        "_dcand",
        "_dcandg",
        "_dgvc",
        "_dlvc",
        "_dminport",
        "_dgrp",
        "_dminoff",
        "_dposbase",
        "_dinj",
        # MODE_FAST trigger constants
        "_counters",
        "_cth",
        "_hyb_cong",
        "_olm_th",
        "_olm_min_occ",
        "_pkt2",
        "_ectn_cth",
        # post-cycle transcription
        "_soa_post",
        "_soa_post_horizon",
        "_pb_gidx",
        "_pb_caps",
        "_pb_occ",
        "_pb_links",
        "_pb_groups",
        "_pb_frac",
        "_pb_delay",
        "_ectn_group_rids",
        "_ectn_period",
        "_allocate",
        "_draws",
    )

    def __init__(
        self,
        network,
        traffic,
        metrics=None,
        stall_watchdog_cycles: Optional[int] = 20_000,
        time_warp: bool = True,
        faults=None,
    ):
        super().__init__(
            network,
            traffic,
            metrics=metrics,
            stall_watchdog_cycles=stall_watchdog_cycles,
            time_warp=time_warp,
            faults=faults,
        )
        st = self._st = SoAState(network)
        routing = self._routing = network.routing
        proto = network.routers[0]
        self._notify_arrival = proto._notify_arrival
        self._notify_head = proto._notify_head
        self._notify_leave = proto._notify_leave
        self._speedup = proto._speedup
        self._router_latency = proto._router_latency
        self._pure_decisions = routing.decision_is_pure
        self._dlv: List = []
        self._drp: List = []
        self._draws = 0

        rcls = type(routing)
        if (
            faults is None
            and rcls in _FAST_MECHS
            and not routing._ring_escape
            # The uplink-multipath policy (fat tree) has no MM+L taxonomy to
            # capture; its per-up-hop trigger runs through the generic path,
            # which replicates the object allocate loop and stays
            # bit-identical by construction.
            and not routing._uplink_multipath
        ):
            self._mode = MODE_FAST
            self._mech = _FAST_MECHS[rcls]
            self._allocate = self._allocate_fast
        elif faults is None and rcls in _PURE_MECHS:
            self._mode = MODE_PURE
            self._mech = -1
            self._allocate = self._allocate_pure
        else:
            self._mode = MODE_GENERIC
            self._mech = -1
            self._allocate = self._allocate_generic

        nQ = st.R * st.P * st.V
        if self._mode != MODE_GENERIC:
            self._dreq: List[Optional[AllocationRequest]] = [None] * nQ
        if self._mode == MODE_FAST:
            self._dcat = [CAT_FIXED] * nQ
            self._dcand: List = [None] * nQ
            self._dcandg: List = [None] * nQ
            self._dgvc = [0] * nQ
            self._dlvc = [0] * nQ
            self._dminport = [0] * nQ
            self._dgrp = [0] * nQ
            self._dminoff = [0] * nQ
            self._dposbase = [0] * nQ
            self._dinj = [False] * nQ
            params = routing.params
            self._pkt2 = 2 * params.packet_size_phits
            if self._mech == MECH_OLM:
                self._olm_th = routing._olm_threshold
                self._olm_min_occ = routing._min_occupancy
            else:
                self._counters = routing._counter_arrays
                self._cth = routing._threshold
                if self._mech == MECH_HYBRID:
                    self._hyb_cong = routing.congestion_threshold
                elif self._mech == MECH_ECTN:
                    self._ectn_cth = routing._combined_threshold

        # The engine never steps the object routers, so a mechanism's
        # post_cycle hook would observe stale objects.  The two hooks of the
        # repo (PB, ECtN) are transcribed against the flat state; anything
        # else must use the object backend.
        if self._post_cycle is not None:
            hook = rcls.post_cycle
            if hook is PiggybackRouting.post_cycle:
                self._build_pb_tables()
                self._soa_post = self._pb_post_cycle
                self._soa_post_horizon = self._pb_post_horizon
            elif hook is ECtNRouting.post_cycle:
                topo = st.topology
                self._ectn_group_rids = [
                    [router.router_id for router in network.group_routers(group)]
                    for group in range(topo.num_groups)
                ]
                self._ectn_period = routing.params.ectn_update_period
                self._soa_post = self._ectn_post_cycle
                self._soa_post_horizon = self._ectn_post_horizon
            else:
                raise ValueError(
                    f"backend 'soa' has no transcription of the post_cycle hook "
                    f"of {rcls.__name__}; use backend='object'"
                )

    # ------------------------------------------------------------------ warp
    def run(self, cycles: int) -> None:
        """Same control flow as ``Engine.run``; see that docstring.

        Only the post-cycle horizon consultation differs: the object hook
        reads ``network._active_routers``, which the SoA backend keeps empty,
        so the transcribed horizon reads the SoA active set instead.
        """
        end = self.cycle + cycles
        start_cycle = self.cycle
        skipped_before = self.cycles_skipped
        self._hint_valid = False
        try:
            if not self.time_warp:
                while self.cycle < end:
                    self.step()
                return
            traffic = self.traffic
            faults = self.faults
            while self.cycle < end:
                cycle = self.cycle
                if self._hint_valid:
                    horizon = self._hint_router_event
                    node_hint = self._hint_node_injection
                    if node_hint < horizon:
                        horizon = node_hint
                    if faults is not None:
                        fault_event = faults.pending_event_cycle
                        if fault_event < horizon:
                            horizon = fault_event
                    if horizon > cycle:
                        if self._post_cycle is not None:
                            hook = self._soa_post_horizon(cycle)
                            if hook is not None and hook < horizon:
                                horizon = hook
                        arrival = traffic.next_arrival_cycle(cycle, end)
                        if arrival is not None and arrival < horizon:
                            horizon = arrival
                else:
                    horizon = self._work_horizon(cycle, end)
                if horizon <= cycle:
                    self.step()
                    continue
                target = horizon if horizon < end else end
                watchdog = self.stall_watchdog_cycles
                if watchdog is not None:
                    deadline = self._last_progress_cycle + watchdog
                    if target > deadline:
                        if deadline <= cycle:
                            self._check_watchdog(cycle)
                            continue
                        target = deadline
                if self.obs is not None:
                    self.obs.on_warp(cycle, target)
                self.cycles_skipped += target - cycle
                self.cycle = target
        finally:
            advanced = self.cycle - start_cycle
            skipped = self.cycles_skipped - skipped_before
            ENGINE_STATS.cycles_executed += advanced - skipped
            ENGINE_STATS.cycles_skipped += skipped

    def _work_horizon(self, cycle: int, end: int) -> int:
        st = self._st
        horizon = end
        next_begin = st.next_begin
        next_transmit = st.next_transmit
        occ = st.occ
        for rid in st.active:
            if occ[rid]:
                return cycle
            begin = next_begin[rid]
            transmit = next_transmit[rid]
            event = begin if begin < transmit else transmit
            if event <= cycle:
                return cycle
            if event < horizon:
                horizon = event
        for node in self.network._active_nodes:
            injection = node.next_injection_cycle
            if injection <= cycle:
                return cycle
            if injection < horizon:
                horizon = injection
        if self._post_cycle is not None:
            hook = self._soa_post_horizon(cycle)
            if hook is not None:
                if hook <= cycle:
                    return cycle
                if hook < horizon:
                    horizon = hook
        arrival = self.traffic.next_arrival_cycle(cycle, end)
        if arrival is not None:
            if arrival <= cycle:
                return cycle
            if arrival < horizon:
                horizon = arrival
        if self.faults is not None:
            fault_event = self.faults.pending_event_cycle
            if fault_event <= cycle:
                return cycle
            if fault_event < horizon:
                horizon = fault_event
        return horizon

    # ------------------------------------------------------------------ step
    def step(self) -> None:
        """One cycle — the same five phases as ``Engine.step``."""
        cycle = self.cycle
        st = self._st
        network = self.network
        metrics = self.metrics
        obs = self.obs

        # 0. scheduled topology changes (fault epochs).
        faults = self.faults
        if faults is not None and faults.pending_event_cycle <= cycle:
            if faults.apply_due(cycle) and metrics is not None:
                metrics.on_fault_epoch(cycle)

        # 1. traffic generation (activates the source nodes).
        nodes = network.nodes
        for src, packet in self.traffic.generate(cycle):
            nodes[src].enqueue(packet)
            if metrics is not None:
                metrics.record_generated(packet)

        # 2. injection from the backlogged source queues, in node-id order.
        node_hint = _NO_EVENT
        active_nodes = network._active_nodes
        if active_nodes:
            if network._nodes_unsorted:
                active_nodes.sort(key=_node_id)
                network._nodes_unsorted = False
            backlogged = []
            for node in active_nodes:
                if cycle >= node.next_injection_cycle:
                    self._try_inject(node, cycle)
                if node.source_queue:
                    backlogged.append(node)
                    injection = node.next_injection_cycle
                    if injection < node_hint:
                        node_hint = injection
                else:
                    node.active = False
            network._active_nodes = backlogged

        # 3. fused router phases over the active set, in router-id order.
        delivered_now = 0
        dropped_now = 0
        visited_routers = 0
        active = st.active
        if active:
            if st.unsorted:
                active.sort()
                st.unsorted = False
            allocate = self._allocate
            next_begin = st.next_begin
            next_transmit = st.next_transmit
            occ = st.occ
            clean = st.alloc_clean
            dlv = self._dlv
            drp = self._drp
            snapshot = active[:]
            visited_routers = len(snapshot)
            for rid in snapshot:
                if next_begin[rid] <= cycle:
                    self._begin(rid, cycle)
                if occ[rid] and not clean[rid]:
                    allocate(rid, cycle)
                if next_transmit[rid] <= cycle:
                    self._transmit(rid, cycle)
                if dlv:
                    delivered_now += len(dlv)
                    if metrics is not None:
                        for packet in dlv:
                            metrics.record_delivery(packet, cycle)
                    if obs is not None:
                        for packet in dlv:
                            obs.record_delivery(packet, cycle)
                    dlv.clear()
                if faults is not None and drp:
                    dropped_now += len(drp)
                    if metrics is not None:
                        for packet in drp:
                            metrics.record_dropped(packet, cycle)
                    if obs is not None:
                        for packet in drp:
                            obs.record_dropped(packet, cycle)
                    drp.clear()

        # 4. network-wide routing hook (transcribed PB / ECtN broadcasts).
        if self._post_cycle is not None:
            self._soa_post(cycle)

        if delivered_now:
            self.delivered_packets += delivered_now
            self._last_progress_cycle = cycle
        if dropped_now:
            self.dropped_packets += dropped_now
            self._last_progress_cycle = cycle

        # 5. retire idle routers; yield the router half of the warp horizon.
        router_hint = _NO_EVENT
        current = st.active
        if current:
            still_active = []
            flags = st.active_flag
            next_begin = st.next_begin
            next_transmit = st.next_transmit
            occ = st.occ
            for rid in current:
                if occ[rid]:
                    still_active.append(rid)
                    router_hint = -1
                else:
                    begin = next_begin[rid]
                    transmit = next_transmit[rid]
                    event = begin if begin < transmit else transmit
                    if event >= _NO_EVENT:
                        flags[rid] = False
                    else:
                        still_active.append(rid)
                        if event < router_hint:
                            router_hint = event
            st.active = still_active

        self._hint_router_event = router_hint
        self._hint_node_injection = node_hint
        self._hint_valid = True

        if obs is not None:
            obs.on_cycle(cycle, visited_routers)

        self._check_watchdog(cycle)
        self.cycle = cycle + 1

    # ----------------------------------------------------------- observation
    def _make_obs_reader(self):
        from repro.obs.readers import SoAStateReader

        return SoAStateReader(self._st)

    # ------------------------------------------------------------- injection
    def _activate(self, rid: int) -> None:
        st = self._st
        if not st.active_flag[rid]:
            st.active_flag[rid] = True
            st.active.append(rid)
            st.unsorted = True

    def _try_inject(self, node, cycle: int) -> None:
        """``ComputeNode.try_inject`` against the flat state.

        The routing hooks receive the live :class:`RouterView` — UGAL/PB's
        ``on_inject`` reads ``router.output_occupancy``, which must observe
        SoA state, not the stale object router.
        """
        queue = node.source_queue
        packet = queue[0]
        st = self._st
        rid = st.node_rid[node.node_id]
        port = node.port
        g = rid * st.P + port
        num_vcs = st.in_nvcs[g]
        base_q = g * st.V
        pointer = node._vc_pointer
        size = packet.size_phits
        in_free = st.in_free
        for offset in range(num_vcs):
            vc = (pointer + offset) % num_vcs
            q = base_q + vc
            if in_free[q] < size:
                continue
            queue.popleft()
            packet.injection_cycle = cycle
            routing = self._routing
            view = st.views[rid]
            routing.on_inject(view, packet, cycle)
            dq = st.in_q[q]
            dq.append(packet)
            in_free[q] = in_free[q] - size
            if len(dq) == 1:
                k = port * st.V + vc
                insort(st.occ[rid], k)
                st.new_heads[rid].append(k)
                st.alloc_clean[rid] = False
            self._activate(rid)
            if self._notify_arrival:
                routing.on_packet_arrival(view, port, vc, packet, cycle)
            node._vc_pointer = (vc + 1) % num_vcs
            node.next_injection_cycle = cycle + size
            node.injected_packets += 1
            return

    # ----------------------------------------------------------- begin_cycle
    def _begin(self, rid: int, cycle: int) -> None:
        """``Router.begin_cycle``: apply due credit returns and link arrivals."""
        st = self._st
        P = st.P
        V = st.V
        base = rid * P
        nxt = _NO_EVENT

        cports = st.cred_ports[rid]
        if cports:
            credits = st.credits
            max_credits = st.max_credits
            credit_occ = st.credit_occ
            pending_credits = st.pending_credits
            remaining = []
            for port in cports:
                g = base + port
                pending = pending_credits[g]
                if pending[0][0] <= cycle:
                    # Returned credits can unblock waiting heads (and feed
                    # the occupancy triggers): re-evaluate allocation.
                    st.alloc_clean[rid] = False
                    base_q = g * V
                    while pending and pending[0][0] <= cycle:
                        _, vc, phits = pending.popleft()
                        q = base_q + vc
                        credits[q] += phits
                        credit_occ[g] -= phits
                        if credits[q] > max_credits[q]:
                            raise RuntimeError(
                                f"credit overflow on router {rid} port {port} vc {vc}"
                            )
                if pending:
                    remaining.append(port)
                    due = pending[0][0]
                    if due < nxt:
                        nxt = due
            st.cred_ports[rid] = remaining

        aports = st.arr_ports[rid]
        if aports:
            routing = self._routing
            notify = self._notify_arrival
            view = st.views[rid]
            occ_r = st.occ[rid]
            new_heads = st.new_heads[rid]
            in_q = st.in_q
            in_free = st.in_free
            arrivals_all = st.arrivals
            remaining = []
            for port in aports:
                g = base + port
                arrivals = arrivals_all[g]
                if arrivals[0][0] <= cycle:
                    base_q = g * V
                    while arrivals and arrivals[0][0] <= cycle:
                        _, vc, packet = arrivals.popleft()
                        q = base_q + vc
                        dq = in_q[q]
                        if not dq:
                            k = port * V + vc
                            insort(occ_r, k)
                            new_heads.append(k)
                            st.alloc_clean[rid] = False
                        size = packet.size_phits
                        free = in_free[q]
                        if free < size:
                            raise OverflowError(
                                f"VC buffer overflow: {size} phits requested, "
                                f"{free} free"
                            )
                        dq.append(packet)
                        in_free[q] = free - size
                        if notify:
                            routing.on_packet_arrival(view, port, vc, packet, cycle)
                if arrivals:
                    remaining.append(port)
                    due = arrivals[0][0]
                    if due < nxt:
                        nxt = due
            st.arr_ports[rid] = remaining

        st.next_begin[rid] = nxt

    # ---------------------------------------------------------------- commit
    def _commit(self, rid: int, input_port: int, input_vc: int, decision, cycle: int) -> None:
        """``Router._commit_grant``: move the head into the output pipeline."""
        st = self._st
        P = st.P
        V = st.V
        g = rid * P + input_port
        q = g * V + input_vc
        dq = st.in_q[q]
        packet = dq.popleft()
        size = packet.size_phits
        st.in_free[q] += size
        st.head_seen[q] = False
        k = input_port * V + input_vc
        if not dq:
            st.occ[rid].remove(k)
        else:
            st.new_heads[rid].append(k)

        up = st.up_g[g]
        if up >= 0:
            up_rid = st.up_rid[g]
            pending = st.pending_credits[up]
            if not pending:
                insort(st.cred_ports[up_rid], up - up_rid * P)
            arrival = cycle + st.up_lat[g]
            pending.append((arrival, input_vc, size))
            if arrival < st.next_begin[up_rid]:
                st.next_begin[up_rid] = arrival
            self._activate(up_rid)

        routing = self._routing
        view = st.views[rid]
        if self._notify_leave:
            routing.on_packet_leave_input(view, input_port, input_vc, packet, cycle)
        routing.on_grant(view, input_port, input_vc, packet, decision, cycle)

        out_port = decision.output_port
        og = rid * P + out_port
        if not st.kind_is_injection[out_port]:
            packet.record_hop(is_global=st.kind_is_global[out_port])
        packet.current_vc = decision.vc
        if not st.pipeline[og] and not st.out_q[og]:
            insort(st.busy_ports[rid], out_port)
        free = st.out_free[og]
        if free < size:
            raise OverflowError(
                f"output buffer over-commit: {size} requested, {free} free"
            )
        st.out_committed[og] += size
        st.out_free[og] = free - size
        cq = og * V + decision.vc
        if st.credits[cq] < size:
            raise RuntimeError(
                f"credit underflow on router {rid} port {out_port} vc {decision.vc}"
            )
        st.credits[cq] -= size
        st.credit_occ[og] += size
        ready = cycle + self._router_latency
        st.pipeline[og].append((ready, packet))
        if ready < st.next_transmit[rid]:
            st.next_transmit[rid] = ready

    # -------------------------------------------------------------- transmit
    def _transmit(self, rid: int, cycle: int) -> None:
        """``Router.transmit``: pipeline exits and link serialization."""
        st = self._st
        base = rid * st.P
        busy = st.busy_ports[rid]
        if not busy:
            st.next_transmit[rid] = _NO_EVENT
            return
        nxt = _NO_EVENT
        remaining = []
        pipelines = st.pipeline
        out_qs = st.out_q
        link_busy = st.link_busy
        for port in busy:
            g = base + port
            pipeline = pipelines[g]
            buf = out_qs[g]
            while pipeline and pipeline[0][0] <= cycle:
                buf.append(pipeline.popleft()[1])
            if buf and link_busy[g] <= cycle:
                packet = buf.popleft()
                size = packet.size_phits
                st.out_committed[g] -= size
                st.out_free[g] += size
                # Freed output space can admit waiting heads (and lowers
                # the occupancy triggers): re-evaluate allocation.
                st.alloc_clean[rid] = False
                size *= st.ser_fac[g]
                link_busy[g] = cycle + size
                down_rid = st.down_rid[g]
                if down_rid < 0:
                    packet.delivered_cycle = cycle + size
                    self._dlv.append(packet)
                else:
                    down_port = st.down_port[g]
                    dg = down_rid * st.P + down_port
                    arrivals = st.arrivals[dg]
                    if not arrivals:
                        insort(st.arr_ports[down_rid], down_port)
                    complete = cycle + st.link_lat[g] + size
                    arrivals.append((complete, packet.current_vc, packet))
                    if complete < st.next_begin[down_rid]:
                        st.next_begin[down_rid] = complete
                    self._activate(down_rid)
            keep = False
            if pipeline:
                keep = True
                due = pipeline[0][0]
                if due < nxt:
                    nxt = due
            if buf:
                keep = True
                due = link_busy[g]
                if due < nxt:
                    nxt = due
            if keep:
                remaining.append(port)
        st.busy_ports[rid] = remaining
        st.next_transmit[rid] = nxt

    # ------------------------------------------------------------- allocator
    def _alloc_round(self, rid: int, base: int, requests):
        """``SeparableAllocator.allocate`` over the flat pointer arrays.

        Requests are indexed positionally — slots 0/1/2 are input port,
        input VC and output port in both the captured-tuple shape and
        ``AllocationRequest`` (a NamedTuple with the same field order).
        """
        st = self._st
        in_ptr = st.in_ptr
        out_ptr = st.out_ptr
        P = st.P
        nvc = st.alloc_nvc[rid]
        if len(requests) == 1:
            req = requests[0]
            in_ptr[base + req[0]] = (req[1] + 1) % nvc
            out_ptr[base + req[2]] = (req[0] + 1) % P
            return requests
        if len({req[0] for req in requests}) == len(requests) and len(
            {req[2] for req in requests}
        ) == len(requests):
            for req in requests:
                in_ptr[base + req[0]] = (req[1] + 1) % nvc
                out_ptr[base + req[2]] = (req[0] + 1) % P
            return requests
        by_input = {}
        for req in requests:
            vc_requests = by_input.get(req[0])
            if vc_requests is None:
                by_input[req[0]] = vc_requests = {}
            vc_requests[req[1]] = req
        proposals = {}
        for in_port, vc_requests in by_input.items():
            winner_vc = _arbitrate(in_ptr, base + in_port, nvc, vc_requests)
            if winner_vc < 0:
                continue
            req = vc_requests[winner_vc]
            proposals.setdefault(req[2], []).append(req)
        grants = []
        for out_port, port_proposals in proposals.items():
            by_in = {req[0]: req for req in port_proposals}
            winner_in = _arbitrate(out_ptr, base + out_port, P, by_in)
            if winner_in < 0:
                continue
            grants.append(by_in[winner_in])
        return grants

    # --------------------------------------------------------- MODE_GENERIC
    def _allocate_generic(self, rid: int, cycle: int) -> None:
        """``Router.allocate`` verbatim, with ``select_output`` on the view."""
        st = self._st
        V = st.V
        base = rid * st.P
        routing = self._routing
        view = st.views[rid]
        in_q = st.in_q
        head_seen = st.head_seen

        new_heads = st.new_heads[rid]
        if new_heads:
            # The object model appends/report-gates new heads only for
            # mechanisms with an on_packet_head hook; the SoA state records
            # them unconditionally (the capture modes need them), so the
            # hook calls — and only those — stay gated here.
            if self._notify_head:
                if len(new_heads) > 1:
                    new_heads.sort()
                for k in new_heads:
                    q = base * V + k
                    if head_seen[q]:
                        continue
                    dq = in_q[q]
                    routing.on_packet_head(
                        view, k // V, k % V, dq[0] if dq else None, cycle
                    )
                    head_seen[q] = True
            st.new_heads[rid] = []

        occ_r = st.occ[rid]
        out_free = st.out_free
        credits = st.credits
        faults = self.faults
        if len(occ_r) == 1:
            k = occ_r[0]
            port, vc = divmod(k, V)
            q = base * V + k
            head = in_q[q][0]
            decision = routing.select_output(view, port, vc, head, cycle)
            if faults is not None:
                decision = self._resolve_faults(rid, port, vc, head, decision, cycle)
            if decision is None:
                return
            og = base + decision.output_port
            size = head.size_phits
            if out_free[og] < size or credits[og * V + decision.vc] < size:
                return
            st.in_ptr[base + port] = (vc + 1) % st.alloc_nvc[rid]
            st.out_ptr[og] = (port + 1) % st.P
            self._commit(rid, port, vc, decision, cycle)
            return

        occupied = occ_r[:]
        decision_memo = {} if self._pure_decisions else None
        granted = set()
        for round_index in range(self._speedup):
            requests = []
            for key in occupied:
                if key in granted:
                    continue
                port, vc = divmod(key, V)
                q = base * V + key
                dq = in_q[q]
                if not dq:
                    continue
                head = dq[0]
                if decision_memo is None or round_index == 0:
                    decision = routing.select_output(view, port, vc, head, cycle)
                    if decision_memo is not None:
                        decision_memo[key] = decision
                else:
                    decision = decision_memo[key]
                if faults is not None:
                    decision = self._resolve_faults(rid, port, vc, head, decision, cycle)
                if decision is None:
                    continue
                og = base + decision.output_port
                size = head.size_phits
                if out_free[og] < size:
                    continue
                if credits[og * V + decision.vc] < size:
                    continue
                requests.append(AllocationRequest(port, vc, decision.output_port, size, decision))
            if not requests:
                break
            for grant in self._alloc_round(rid, base, requests):
                self._commit(rid, grant[0], grant[1], grant[4], cycle)
                granted.add(grant[0] * V + grant[1])

    def _resolve_faults(self, rid, port, vc, head, decision, cycle):
        """``Router._resolve_faults`` over the flat state."""
        if head.fault_mode:
            pass
        elif decision is None or decision.output_port not in self.faults.failed_ports[rid]:
            return decision
        resolved = self._routing.fault_decision(self._st.views[rid], head, cycle, port, vc)
        if resolved is None:
            self._drop_head(rid, port, vc, cycle)
        return resolved

    def _drop_head(self, rid: int, port: int, vc: int, cycle: int) -> None:
        """``Router._drop_head`` over the flat state."""
        st = self._st
        g = rid * st.P + port
        q = g * st.V + vc
        dq = st.in_q[q]
        packet = dq.popleft()
        size = packet.size_phits
        st.in_free[q] += size
        st.head_seen[q] = False
        k = port * st.V + vc
        if not dq:
            st.occ[rid].remove(k)
        else:
            st.new_heads[rid].append(k)
        up = st.up_g[g]
        if up >= 0:
            up_rid = st.up_rid[g]
            pending = st.pending_credits[up]
            if not pending:
                insort(st.cred_ports[up_rid], up - up_rid * st.P)
            arrival = cycle + st.up_lat[g]
            pending.append((arrival, vc, size))
            if arrival < st.next_begin[up_rid]:
                st.next_begin[up_rid] = arrival
            self._activate(up_rid)
        if self._notify_leave:
            self._routing.on_packet_leave_input(st.views[rid], port, vc, packet, cycle)
        packet.dropped_cycle = cycle
        self.faults.dropped_packets += 1
        self._drp.append(packet)

    # ------------------------------------------------------------ MODE_PURE
    def _allocate_pure(self, rid: int, cycle: int) -> None:
        """Pure mechanisms: one ``select_output`` per head lifetime.

        ``decision_is_pure`` plus the head-constancy of every input
        (``packet`` fields, topology) make the decision a constant of the
        head, so it is captured when the head is first reported and the
        rounds reduce to admission checks + the separable allocator.
        """
        st = self._st
        V = st.V
        base_g = rid * st.P
        base_q = base_g * V
        in_q = st.in_q
        dreq = self._dreq

        new_heads = st.new_heads[rid]
        if new_heads:
            head_seen = st.head_seen
            if len(new_heads) > 1:
                new_heads.sort()
            routing = self._routing
            view = st.views[rid]
            for k in new_heads:
                q = base_q + k
                if head_seen[q]:
                    continue
                dq = in_q[q]
                if not dq:
                    continue
                head = dq[0]
                port, vc = divmod(k, V)
                decision = routing.select_output(view, port, vc, head, cycle)
                if decision is None:
                    dreq[q] = None
                else:
                    outp = decision.output_port
                    og = base_g + outp
                    dreq[q] = (
                        port, vc, outp, head.size_phits, decision,
                        og, og * V + decision.vc,
                    )
                head_seen[q] = True
            st.new_heads[rid] = []

        occ_r = st.occ[rid]
        out_free = st.out_free
        credits = st.credits
        clean = st.alloc_clean
        if len(occ_r) == 1:
            req = dreq[base_q + occ_r[0]]
            if req is not None:
                size = req[3]
                if out_free[req[5]] >= size and credits[req[6]] >= size:
                    st.in_ptr[base_g + req[0]] = (req[1] + 1) % st.alloc_nvc[rid]
                    st.out_ptr[req[5]] = (req[0] + 1) % st.P
                    self._commit(rid, req[0], req[1], req[4], cycle)
                    return
            clean[rid] = True
            return

        entries = [(k, base_q + k) for k in occ_r]
        granted = None
        got_grant = False
        commit = self._commit
        for _round in range(self._speedup):
            requests = []
            for k, q in entries:
                if granted is not None and k in granted:
                    continue
                if not in_q[q]:
                    continue
                req = dreq[q]
                if req is None:
                    continue
                size = req[3]
                if out_free[req[5]] < size or credits[req[6]] < size:
                    continue
                requests.append(req)
            if not requests:
                break
            for req in self._alloc_round(rid, base_g, requests):
                commit(rid, req[0], req[1], req[4], cycle)
                if granted is None:
                    granted = set()
                granted.add(req[0] * V + req[1])
                got_grant = True
        if not got_grant:
            # No grant and (pure mechanisms) no draw: the outcome cannot
            # change until an invalidating event fires.
            clean[rid] = True

    # ------------------------------------------------------------ MODE_FAST
    def _allocate_fast(self, rid: int, cycle: int) -> None:
        """Adaptive in-transit mechanisms: captured taxonomy + live trigger.

        The draw-free fast cases are inlined in the round loop: a cached
        request for ``CAT_FIXED`` heads, and the mechanism's *closed-gate*
        check (a counter or occupancy comparison against the captured
        minimal port) for the global/local-misroute categories, which falls
        back to the cached minimal request exactly like the transcribed
        trigger would.  Only open gates and forced-global heads take the
        full :meth:`_fast_request` path (which may draw).
        """
        st = self._st
        V = st.V
        base_g = rid * st.P
        base_q = base_g * V
        in_q = st.in_q

        new_heads = st.new_heads[rid]
        if new_heads:
            head_seen = st.head_seen
            if len(new_heads) > 1:
                new_heads.sort()
            routing = self._routing
            view = st.views[rid]
            notify_head = self._notify_head
            for k in new_heads:
                q = base_q + k
                if head_seen[q]:
                    continue
                dq = in_q[q]
                if not dq:
                    continue
                head = dq[0]
                if notify_head:
                    routing.on_packet_head(view, k // V, k % V, head, cycle)
                head_seen[q] = True
                self._capture_fast(rid, base_g, q, k, head)
            st.new_heads[rid] = []

        occ_r = st.occ[rid]
        out_free = st.out_free
        credits = st.credits
        clean = st.alloc_clean
        dcat = self._dcat
        dreq = self._dreq
        mech = self._mech
        draws0 = self._draws
        is_cnt = mech == MECH_BASE or mech == MECH_ECTN
        if is_cnt:
            counts = self._counters[rid].counts
            cth = self._cth
            dinj = self._dinj
            dminport = self._dminport
        elif mech == MECH_OLM:
            out_committed = st.out_committed
            credit_occ = st.credit_occ
            olm_min = self._olm_min_occ
            dminport = self._dminport

        if len(occ_r) == 1:
            k = occ_r[0]
            q = base_q + k
            cat = dcat[q]
            if cat == CAT_FIXED:
                req = dreq[q]
            else:
                req = None
                if cat != CAT_FORCED:
                    if is_cnt:
                        if not dinj[q] and counts[dminport[q]] <= cth:
                            req = dreq[q]
                    elif mech == MECH_OLM:
                        gm = base_g + dminport[q]
                        if out_committed[gm] + credit_occ[gm] < olm_min:
                            req = dreq[q]
                if req is None:
                    req = self._fast_request(rid, base_g, q, k)
            size = req[3]
            if out_free[req[5]] < size or credits[req[6]] < size:
                if self._draws == draws0:
                    clean[rid] = True
                return
            st.in_ptr[base_g + req[0]] = (req[1] + 1) % st.alloc_nvc[rid]
            st.out_ptr[req[5]] = (req[0] + 1) % st.P
            self._commit(rid, req[0], req[1], req[4], cycle)
            return

        entries = [(k, base_q + k, in_q[base_q + k]) for k in occ_r]
        granted = None
        got_grant = False
        commit = self._commit
        for _round in range(self._speedup):
            requests = []
            for k, q, dq in entries:
                if not dq:
                    continue
                if granted is not None and k in granted:
                    continue
                cat = dcat[q]
                if cat == CAT_FIXED:
                    req = dreq[q]
                else:
                    req = None
                    if cat != CAT_FORCED:
                        if is_cnt:
                            if not dinj[q] and counts[dminport[q]] <= cth:
                                req = dreq[q]
                        elif mech == MECH_OLM:
                            gm = base_g + dminport[q]
                            if out_committed[gm] + credit_occ[gm] < olm_min:
                                req = dreq[q]
                    if req is None:
                        req = self._fast_request(rid, base_g, q, k)
                size = req[3]
                if out_free[req[5]] < size or credits[req[6]] < size:
                    continue
                requests.append(req)
            if not requests:
                break
            for req in self._alloc_round(rid, base_g, requests):
                commit(rid, req[0], req[1], req[4], cycle)
                if granted is None:
                    granted = set()
                granted.add(req[0] * V + req[1])
                got_grant = True
        if not got_grant and self._draws == draws0:
            # Draw-free and grant-free: every input of this evaluation is
            # router-local and invalidation-tracked, so skip until poked.
            clean[rid] = True

    def _capture_fast(self, rid: int, base_g: int, q: int, k: int, head) -> None:
        """Classify a new head and cache everything constant while it waits.

        Mirrors the gate order of ``AdaptiveInTransitRouting.select_output``;
        only quantities that cannot change while the packet occupies the
        buffer head are read here (packet fields, topology, the memoized
        candidate sets).  Live state — occupancies, contention counters,
        ECtN/PB broadcasts — is read per round by the trigger transcription.
        """
        routing = self._routing
        st = self._st
        V = st.V
        topo = st.topology
        dst = head.dst
        npr = routing._nodes_per_router
        dst_router = dst // npr
        dcat = self._dcat
        dreq = self._dreq
        size = head.size_phits
        port, vc = divmod(k, V)
        if rid == dst_router:
            decision = routing.plain_decision(dst % npr, 0)
            dcat[q] = CAT_FIXED
            outp = decision.output_port
            og = base_g + outp
            dreq[q] = (port, vc, outp, size, decision, og, og * V + decision.vc)
            return
        if head.phase is _TO_INTERMEDIATE and head.intermediate_group is not None:
            decision = routing._towards_group(st.views[rid], head, head.intermediate_group)
            dcat[q] = CAT_FIXED
            outp = decision.output_port
            og = base_g + outp
            dreq[q] = (port, vc, outp, size, decision, og, og * V + decision.vc)
            return

        rpg = routing._routers_per_group
        current_group = rid // rpg
        dst_group = dst_router // rpg
        minimal_port = head.contention_port
        if minimal_port is None:
            minimal_port = topo.minimal_output_port(rid, dst)
        minimal_kind = st.port_kinds[minimal_port]

        # Minimal fallback request (select_output's tail), shared by every
        # category; the forced-global fallback is value-identical.
        if minimal_kind is _GLOBAL:
            g_hops = head.global_hops
            last = routing._global_vcs - 1
            min_vc = g_hops if g_hops < last else last
        elif minimal_kind is _LOCAL:
            g_hops = head.global_hops
            local = 1 if head.local_hops_in_group else 0
            min_vc = local if g_hops == 0 else 2 * g_hops - 1 + local
            last = routing._local_vcs - 1
            if min_vc > last:
                min_vc = last
        else:
            min_vc = 0
        og = base_g + minimal_port
        dreq[q] = (
            port, vc, minimal_port, size,
            routing.plain_decision(minimal_port, min_vc),
            og, og * V + min_vc,
        )
        self._dminport[q] = minimal_port

        if head.must_misroute_global and dst_group != current_group and head.global_hops == 0:
            dcat[q] = CAT_FORCED
            candidates = routing.global_candidates(
                rid, topo.node_region(dst), minimal_port, False
            )
            self._dcand[q] = candidates
            self._dgvc[q] = routing.next_vc(head, _GLOBAL)
            if self._mech == MECH_ECTN:
                # _forced_global_decision passes port=0 to the trigger, and
                # port 0 is an injection port on every topology with p >= 1.
                self._capture_ectn(rid, q, 0, head, candidates)
            return

        if dst_group != current_group and head.global_hops == 0 and not head.globally_misrouted:
            dcat[q] = CAT_GLOBAL
            candidates = routing.global_candidates(
                rid, dst_group, minimal_port, head.hops == 0
            )
            self._dcand[q] = candidates
            self._dgvc[q] = routing.next_vc(head, _GLOBAL)
            self._dlvc[q] = routing.next_vc(head, _LOCAL)
            if self._mech == MECH_ECTN:
                self._capture_ectn(rid, q, port, head, candidates)
            return

        if (
            minimal_kind is _LOCAL
            and head.local_hops_in_group == 0
            and head.global_hops <= 1
            and (current_group == dst_group or head.global_hops == 1)
        ):
            dcat[q] = CAT_LOCAL
            self._dcand[q] = routing.local_candidates(minimal_port)
            self._dlvc[q] = routing.next_vc(head, _LOCAL)
            return

        dcat[q] = CAT_FIXED

    def _capture_ectn(self, rid: int, q: int, check_port: int, head, candidates) -> None:
        """ECtN's injection-side trigger constants (see ``choose_global_misroute``)."""
        st = self._st
        routing = self._routing
        injection = st.kind_is_injection[check_port]
        self._dinj[q] = injection
        if not injection:
            return
        rpg = routing._routers_per_group
        group = rid // rpg
        dst_group = head.dst // routing._nodes_per_group
        self._dgrp[q] = group
        topo = st.topology
        offset_key = group * topo.num_groups + dst_group
        cache = routing._dest_offset_cache
        min_offset = cache.get(offset_key)
        if min_offset is None:
            min_offset = routing.link_offset_for_destination(group, dst_group)
            cache[offset_key] = min_offset
        self._dminoff[q] = min_offset
        self._dposbase[q] = (rid % rpg) * routing._h - routing._first_global_port
        # Order-preserving pre-filter of the static kind check.
        self._dcandg[q] = [c for c in candidates if c.kind is _GLOBAL]

    def _fast_request(self, rid: int, base: int, q: int, k: int):
        """One allocation round's request for a captured head (MODE_FAST).

        Only reached for forced-global heads and open trigger gates — the
        cached-request and closed-gate cases are inlined in the caller.
        The fallback request doubles as the head's size/port/vc record.
        """
        cat = self._dcat[q]
        dreq = self._dreq
        fallback = dreq[q]
        if cat == CAT_FIXED:
            return fallback
        minimal_port = self._dminport[q]
        candidates = self._dcand[q]
        V = self._st.V
        if cat == CAT_LOCAL:
            chosen = self._choose(rid, base, q, minimal_port, candidates)
            if chosen is None:
                return fallback
            cp = chosen.port
            lvc = self._dlvc[q]
            decision = RoutingDecision(
                output_port=cp,
                vc=lvc,
                nonminimal_local=True,
            )
            og = base + cp
            return (fallback[0], fallback[1], cp, fallback[3], decision, og, og * V + lvc)
        chosen = self._choose_global(rid, base, q, minimal_port, candidates)
        if cat == CAT_FORCED:
            if chosen is None and candidates:
                routing = self._routing
                self._draws += 1
                chosen = candidates[int(routing.rng.integers(0, len(candidates)))]
            if chosen is None:
                return fallback
            cp = chosen.port
            gvc = self._dgvc[q]
            decision = RoutingDecision(
                output_port=cp,
                vc=gvc,
                nonminimal_global=True,
                set_intermediate_group=chosen.target_group,
            )
            og = base + cp
            return (fallback[0], fallback[1], cp, fallback[3], decision, og, og * V + gvc)
        # CAT_GLOBAL
        if chosen is None:
            return fallback
        cp = chosen.port
        if chosen.kind is _GLOBAL:
            gvc = self._dgvc[q]
            decision = RoutingDecision(
                output_port=cp,
                vc=gvc,
                nonminimal_global=True,
                set_intermediate_group=chosen.target_group,
            )
        else:
            gvc = self._dlvc[q]
            decision = RoutingDecision(
                output_port=cp,
                vc=gvc,
                set_must_misroute_global=True,
            )
        og = base + cp
        return (fallback[0], fallback[1], cp, fallback[3], decision, og, og * V + gvc)

    # ----------------------------------------------------- trigger transcriptions
    def _choose_global(self, rid: int, base: int, q: int, minimal_port: int, candidates):
        """``choose_global_misroute`` of the active mechanism, flat-state reads."""
        if self._mech == MECH_ECTN and self._dinj[q]:
            routing = self._routing
            combined = routing.combined[self._dgrp[q]]
            threshold = self._ectn_cth
            if combined[self._dminoff[q]] > threshold:
                pos_base = self._dposbase[q]
                preferred = [
                    c for c in self._dcandg[q] if combined[pos_base + c.port] < threshold
                ]
                if preferred:
                    self._draws += 1
                    return preferred[int(routing.rng.integers(0, len(preferred)))]
            # fall through to the Base counters (ECtN's in-transit fallback)
        return self._choose(rid, base, q, minimal_port, candidates)

    def _choose(self, rid: int, base: int, q: int, minimal_port: int, candidates):
        """The shared global/local trigger body of OLM / Base / Hybrid / ECtN."""
        mech = self._mech
        routing = self._routing
        if mech == MECH_OLM:
            st = self._st
            out_committed = st.out_committed
            credit_occ = st.credit_occ
            g = base + minimal_port
            occ_min = out_committed[g] + credit_occ[g]
            if occ_min < self._olm_min_occ:
                return None
            limit = self._olm_th * occ_min
            preferred = [
                c
                for c in candidates
                if out_committed[base + c.port] + credit_occ[base + c.port] < limit
            ]
            if not preferred:
                return None
            self._draws += 1
            return preferred[int(routing.rng.integers(0, len(preferred)))]
        counts = self._counters[rid].counts
        threshold = self._cth
        if mech == MECH_HYBRID:
            if counts[minimal_port] > threshold:
                contention = [c for c in candidates if counts[c.port] < threshold]
                if contention:
                    self._draws += 1
                    return contention[int(routing.rng.integers(0, len(contention)))]
            st = self._st
            out_committed = st.out_committed
            credit_occ = st.credit_occ
            g = base + minimal_port
            occ_min = out_committed[g] + credit_occ[g]
            if occ_min < self._pkt2:
                return None
            limit = self._hyb_cong * occ_min
            preferred = [
                c
                for c in candidates
                if out_committed[base + c.port] + credit_occ[base + c.port] < limit
            ]
            if not preferred:
                return None
            self._draws += 1
            return preferred[int(routing.rng.integers(0, len(preferred)))]
        # MECH_BASE and ECtN's in-transit fallback
        if counts[minimal_port] <= threshold:
            return None
        preferred = [c for c in candidates if counts[c.port] < threshold]
        if not preferred:
            return None
        self._draws += 1
        return preferred[int(routing.rng.integers(0, len(preferred)))]

    # -------------------------------------------------- post-cycle transcriptions
    def _build_pb_tables(self) -> None:
        """Gather index for PB's saturation scan: broadcast slot -> flat port."""
        st = self._st
        topo = st.topology
        routing = self._routing
        links = topo.global_links_per_group
        groups = topo.num_groups
        h = topo.config.h
        first_global = min(topo.global_ports)
        gather = [0] * (groups * links)
        for group in range(groups):
            for router in self.network.group_routers(group):
                rid = router.router_id
                pos = router.position
                for k in range(h):
                    gather[group * links + pos * h + k] = rid * st.P + first_global + k
        self._pb_gidx = gather
        self._pb_caps = np.array([st.cap_sum[g] for g in gather], dtype=np.int64)
        self._pb_occ = np.empty(len(gather), dtype=np.int64)
        self._pb_links = links
        self._pb_groups = groups
        self._pb_frac = routing.params.pb_saturation_fraction
        self._pb_delay = routing.notification_delay

    def _pb_post_cycle(self, cycle: int) -> None:
        """``PiggybackRouting.post_cycle`` with the scan as a batched kernel."""
        st = self._st
        routing = self._routing
        occ = self._pb_occ
        out_committed = st.out_committed
        credit_occ = st.credit_occ
        for i, g in enumerate(self._pb_gidx):
            occ[i] = out_committed[g] + credit_occ[g]
        flags_all = pb_saturation_flags(occ, self._pb_caps, self._pb_frac)
        links = self._pb_links
        pending = routing._pending
        due = cycle + self._pb_delay
        for group in range(self._pb_groups):
            pending.append(
                (due, group, flags_all[group * links : (group + 1) * links].tolist())
            )
        while pending and pending[0][0] <= cycle:
            _, group, flags = pending.popleft()
            routing._flags[group] = flags
            if any(flags):
                routing._saturated_groups.add(group)
            else:
                routing._saturated_groups.discard(group)

    def _pb_post_horizon(self, cycle: int) -> Optional[int]:
        """``PiggybackRouting.post_cycle_horizon`` over the SoA active set."""
        routing = self._routing
        if self._st.active or routing._pending or routing._saturated_groups:
            return cycle
        return None

    def _ectn_post_cycle(self, cycle: int) -> None:
        """``ECtNRouting.post_cycle`` with the column sums as a batched kernel."""
        routing = self._routing
        if cycle % self._ectn_period != 0:
            return
        partial = routing.partial
        combined = routing.combined
        for group, rids in enumerate(self._ectn_group_rids):
            combined[group] = combine_rows([partial[rid] for rid in rids])
        # The broadcast feeds the injection-side trigger of every router.
        clean = self._st.alloc_clean
        for rid in range(len(clean)):
            clean[rid] = False

    def _ectn_post_horizon(self, cycle: int) -> Optional[int]:
        # ECtN's horizon is purely period arithmetic; it ignores the network.
        return self._routing.post_cycle_horizon(None, cycle)

    # ------------------------------------------------------------- diagnostics
    def schedule_arrival(
        self, rid: int, port: int, complete_cycle: int, vc: int, packet
    ) -> None:
        """Fabricate a link arrival over the flat state (test surface)."""
        st = self._st
        arrivals = st.arrivals[rid * st.P + port]
        if not arrivals:
            insort(st.arr_ports[rid], port)
        arrivals.append((complete_cycle, vc, packet))
        if complete_cycle < st.next_begin[rid]:
            st.next_begin[rid] = complete_cycle
        self._activate(rid)

    def total_buffered_packets(self) -> int:
        """Packets inside the fabric — counted over the flat arrays (the
        object network this engine was built from stays empty)."""
        return self._st.total_buffered_packets()

    def _check_watchdog(self, cycle: int) -> None:
        watchdog = self.stall_watchdog_cycles
        if watchdog is None or cycle - self._last_progress_cycle < watchdog:
            return
        buffered = self._st.total_buffered_packets()
        if buffered == 0:
            self._last_progress_cycle = cycle
            return
        raise SimulationStallError(
            f"no packet delivered for {watchdog} cycles (cycle {cycle}) while "
            f"{buffered} packets are buffered in the network - possible "
            "deadlock or wiring bug\n" + self._stall_snapshot(cycle)
        )

    def _stall_snapshot(self, cycle: int) -> str:
        st = self._st
        occupancy = []
        oldest = None
        oldest_router = -1
        per_router = st.P * st.V
        for rid in range(st.R):
            count = len(st.occ[rid])
            if count:
                occupancy.append((count, rid))
            base_q = rid * per_router
            for q in range(base_q, base_q + per_router):
                dq = st.in_q[q]
                if not dq:
                    continue
                for packet in dq:
                    if oldest is None or packet.creation_cycle < oldest.creation_cycle:
                        oldest = packet
                        oldest_router = rid
        occupancy.sort(reverse=True)
        top = ", ".join(
            f"router {rid}: {count} occupied VCs" for count, rid in occupancy[:5]
        )
        lines = ["stall diagnostics:"]
        lines.append(f"  busiest routers: {top or 'none'}")
        if oldest is not None:
            lines.append(
                f"  oldest buffered packet: pid={oldest.pid} "
                f"{oldest.src}->{oldest.dst} phase={oldest.phase.value} "
                f"hops={oldest.hops} fault_mode={oldest.fault_mode} "
                f"age={cycle - oldest.creation_cycle} cycles at router {oldest_router}"
            )
            if self.obs is not None:
                lines.extend(self.obs.stall_context(oldest.pid, oldest_router))
        return "\n".join(lines)


def _arbitrate(pointers: List[int], index: int, num_clients: int, requests) -> int:
    """``RoundRobinArbiter.arbitrate`` against a flat pointer slot."""
    pointer = pointers[index]
    winner = -1
    winner_distance = num_clients
    for client in requests:
        if client < 0 or client >= num_clients:
            continue
        distance = client - pointer
        if distance < 0:
            distance += num_clients
        if distance < winner_distance:
            winner_distance = distance
            winner = client
    if winner < 0:
        return -1
    pointers[index] = (winner + 1) % num_clients
    return winner
