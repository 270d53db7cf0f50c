"""Synchronous cycle-driven simulation engine with a time-warp fast path.

The engine advances the whole network one cycle at a time:

1. generate traffic (pre-sampled Bernoulli arrivals) into the node source
   queues;
2. inject packets from the source queues into the router injection buffers
   (only nodes with a backlog are visited);
3. run ``begin_cycle`` (credit returns, link arrivals), ``allocate``
   (routing + separable allocation) and ``transmit`` (link serialization,
   node deliveries) over the *active* routers;
4. the routing algorithm's ``post_cycle`` hook (PB / ECtN broadcasts),
   invoked only for mechanisms that declare ``needs_post_cycle``;
5. retire routers whose work counters dropped to zero.

The three router phases are fused into a single pass per router: every
cross-router interaction inside a cycle (link arrivals, credit returns) is
scheduled strictly in the future and all phase reads are router-local, so
``begin/allocate/transmit`` per router in router-id order is bit-identical
to three network-wide sweeps — at a third of the iteration cost.  Routers
and nodes register themselves in the network's active sets when work arrives
(see :mod:`repro.network.router`); the sets are kept in router-id order and
re-sorted lazily, only after new activations.

Time warp
---------
``run`` does not blindly call ``step`` once per cycle.  Every event in the
model is scheduled (pre-sampled traffic arrivals, node injection spacing,
link arrival/credit completions, pipeline exits, link-free times, routing
broadcast periods), so when no component has work *this* cycle the engine
computes the **work horizon** — the min over all scheduled event cycles —
and advances ``cycle`` directly to it.  The router/node parts of the horizon
are computed as a by-product of the retirement and injection passes of the
previous ``step`` (the "hints" below), so the busy-network fast path pays
almost nothing for the warp machinery.  A warped-over cycle is, by
construction, one in which ``step`` would have been a complete no-op, so
results are bit-identical with the warp on or off (asserted by
``tests/simulation/test_time_warp.py``); only wall-clock time changes.  The
number of cycles skipped this way is reported in
:attr:`Engine.cycles_skipped` and in the module-level :data:`ENGINE_STATS`.

A stall watchdog aborts the simulation with a clear error if packets are
buffered in the network but none is delivered for a long stretch of cycles —
this turns a (theoretically possible) routing deadlock or a wiring bug into a
diagnosable failure rather than an endless run.  Warp jumps never overshoot
the watchdog deadline, so a genuine stall is detected at exactly the cycle
the cycle-by-cycle engine would detect it, even when every remaining "event"
lies in the far future.
"""

from __future__ import annotations

from operator import attrgetter
from typing import Optional, Sequence

from repro.metrics.collector import MetricsCollector
from repro.network.network import Network
from repro.network.router import _NO_EVENT, Router
from repro.traffic.bernoulli import BernoulliTrafficGenerator

__all__ = ["Engine", "SimulationStallError", "ENGINE_STATS"]

_router_id = attrgetter("router_id")
_node_id = attrgetter("node_id")


class SimulationStallError(RuntimeError):
    """Raised when the network stops making forward progress.

    The message carries a diagnostic snapshot — per-router occupied-VC
    counts and the oldest in-flight packet's identity, route state and age —
    so a stall (a routing deadlock, a wiring bug, or an unhandled fault
    scenario) is debuggable from the exception alone.
    """


class _EngineStats:
    """Process-wide cycle accounting (benchmark/perf-trajectory artifacts)."""

    __slots__ = ("cycles_executed", "cycles_skipped")

    def __init__(self) -> None:
        self.reset()

    def reset(self) -> None:
        self.cycles_executed = 0
        self.cycles_skipped = 0

    @property
    def cycles_total(self) -> int:
        return self.cycles_executed + self.cycles_skipped

    def snapshot(self) -> dict:
        return {
            "cycles_executed": self.cycles_executed,
            "cycles_skipped": self.cycles_skipped,
        }


#: Aggregated over every ``Engine.run`` call in this process (per process —
#: parallel sweep workers each keep their own).
ENGINE_STATS = _EngineStats()


class Engine:
    """Drives a :class:`~repro.network.network.Network` cycle by cycle."""

    #: Which engine ran (recorded in run manifests): ``"object"`` here,
    #: ``"soa"`` / ``"native"`` for the other backends.
    kind = "object"

    __slots__ = (
        "network",
        "traffic",
        "metrics",
        "obs",
        "faults",
        "stall_watchdog_cycles",
        "time_warp",
        "cycle",
        "delivered_packets",
        "dropped_packets",
        "cycles_skipped",
        "_last_progress_cycle",
        "_post_cycle",
        "_hint_valid",
        "_hint_router_event",
        "_hint_node_injection",
    )

    def __init__(
        self,
        network: Network,
        traffic: BernoulliTrafficGenerator,
        metrics: Optional[MetricsCollector] = None,
        stall_watchdog_cycles: Optional[int] = 20_000,
        time_warp: bool = True,
        faults=None,
    ):
        self.network = network
        self.traffic = traffic
        self.metrics = metrics
        #: Observation hub (:mod:`repro.obs`) or ``None``.  Every
        #: instrumentation site is gated on a single ``is None`` check of
        #: this slot — the same zero-overhead idiom as ``metrics``.
        self.obs = None
        #: Fault state driving scheduled fail/repair events (``None`` on a
        #: healthy run).  A scheduled fault is a *work event*: both horizon
        #: computations below refuse to warp past ``pending_event_cycle``.
        self.faults = faults
        self.stall_watchdog_cycles = stall_watchdog_cycles
        #: Whether ``run`` may jump over provably idle cycles.  Results are
        #: bit-identical either way; disable only for debugging/validation.
        self.time_warp = time_warp
        self.cycle = 0
        self.delivered_packets = 0
        #: Packets dropped because a fault left their destination unreachable.
        self.dropped_packets = 0
        #: Cycles ``run`` advanced without executing (the warped-over ones).
        self.cycles_skipped = 0
        self._last_progress_cycle = 0
        # The network-wide hook is a bound-method cache: ``None`` for the
        # mechanisms that declare no per-cycle work (MIN/VAL/OLM/Base/Hybrid).
        # A mechanism that overrides post_cycle without declaring the flag
        # would silently lose its broadcasts — refuse to run it.
        routing = network.routing
        from repro.routing.base import RoutingAlgorithm as _Base

        if (
            not routing.needs_post_cycle
            and type(routing).post_cycle is not _Base.post_cycle
        ):
            raise TypeError(
                f"{type(routing).__name__} overrides post_cycle but does not "
                "declare needs_post_cycle = True"
            )
        self._post_cycle = routing.post_cycle if routing.needs_post_cycle else None
        # Work-horizon hints, filled in by ``step`` as a by-product of its
        # injection and retirement passes: the earliest scheduled router
        # event and the earliest pending node injection.  Invalidated at
        # ``run`` entry because callers may mutate network state between
        # runs (tests enqueue packets by hand).
        self._hint_valid = False
        self._hint_router_event = _NO_EVENT
        self._hint_node_injection = _NO_EVENT

    def run(self, cycles: int) -> None:
        """Advance the simulation by ``cycles`` cycles (warping over idle ones)."""
        end = self.cycle + cycles
        start_cycle = self.cycle
        skipped_before = self.cycles_skipped
        self._hint_valid = False
        try:
            if not self.time_warp:
                while self.cycle < end:
                    self.step()
                return
            network = self.network
            traffic = self.traffic
            while self.cycle < end:
                cycle = self.cycle
                if self._hint_valid:
                    horizon = self._hint_router_event
                    node_hint = self._hint_node_injection
                    if node_hint < horizon:
                        horizon = node_hint
                    if self.faults is not None:
                        # A scheduled fail/repair event is work: never warp
                        # past it (the topology changes at that cycle).
                        fault_event = self.faults.pending_event_cycle
                        if fault_event < horizon:
                            horizon = fault_event
                    if horizon > cycle:
                        # Routers and nodes are quiet: consult the (cheap)
                        # routing-broadcast and pre-sampled-arrival horizons.
                        if self._post_cycle is not None:
                            hook = network.routing.post_cycle_horizon(network, cycle)
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
                            # The deadline passed without a delivery: either
                            # the network is empty (marker resets, warp goes
                            # on) or this is a genuine stall (raises).
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

    # -- time warp ----------------------------------------------------------------
    def _work_horizon(self, cycle: int, end: int) -> int:
        """Earliest cycle at which any component can do something.

        Full scan, used only when the per-step hints are not available (first
        iteration of a ``run`` call).  Returns ``cycle`` itself (or less)
        when there is immediate work; the caller then executes a normal
        ``step``.
        """
        network = self.network
        horizon = end
        for router in network._active_routers:
            event = router.next_event_cycle()
            if event <= cycle:
                return cycle
            if event < horizon:
                horizon = event
        for node in network._active_nodes:
            injection = node.next_injection_cycle
            if injection <= cycle:
                return cycle
            if injection < horizon:
                horizon = injection
        if self._post_cycle is not None:
            hook = network.routing.post_cycle_horizon(network, cycle)
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

    def step(self) -> None:
        """Advance the simulation by one cycle."""
        cycle = self.cycle
        network = self.network
        metrics = self.metrics
        obs = self.obs

        # 0. scheduled topology changes.  Applied before any router phase so
        # the whole cycle sees one consistent fault epoch; the warp horizon
        # guarantees we never jump past a due event.
        faults = self.faults
        if faults is not None and faults.pending_event_cycle <= cycle:
            if faults.apply_due(cycle) and metrics is not None:
                metrics.on_fault_epoch(cycle)

        # 1. traffic generation (activates the source nodes)
        nodes = network.nodes
        for src, packet in self.traffic.generate(cycle):
            nodes[src].enqueue(packet)
            if metrics is not None:
                metrics.record_generated(packet)

        # 2. injection from the backlogged source queues, in node-id order
        node_hint = _NO_EVENT
        active_nodes = network._active_nodes
        if active_nodes:
            if network._nodes_unsorted:
                active_nodes.sort(key=_node_id)
                network._nodes_unsorted = False
            backlogged = []
            for node in active_nodes:
                if cycle >= node.next_injection_cycle:
                    node.try_inject(cycle)
                if node.source_queue:
                    backlogged.append(node)
                    injection = node.next_injection_cycle
                    if injection < node_hint:
                        node_hint = injection
                else:
                    node.active = False
            network._active_nodes = backlogged

        # 3. fused router phases over the active set, in router-id order.
        # Every cross-router effect of this cycle (link arrivals, credit
        # returns) is scheduled strictly in the future and every phase read
        # is router-local, so begin/allocate/transmit per router reproduces
        # the three network-wide sweeps bit-identically.  The snapshot keeps
        # the pass stable while arrivals/credits activate further routers for
        # the *next* cycle.
        routers: Sequence[Router]
        active_routers = network._active_routers
        delivered_now = 0
        dropped_now = 0
        visited_routers = 0
        if active_routers:
            if network._routers_unsorted:
                active_routers.sort(key=_router_id)
                network._routers_unsorted = False
            routers = active_routers[:]
            visited_routers = len(routers)
            for router in routers:
                if router._next_begin_event <= cycle:
                    router.begin_cycle(cycle)
                if router._occupied_vcs:
                    router.allocate(cycle)
                if router._next_transmit_event <= cycle:
                    router.transmit(cycle)
                if router.delivered:
                    for packet in router.drain_delivered():
                        delivered_now += 1
                        if metrics is not None:
                            metrics.record_delivery(packet, cycle)
                        if obs is not None:
                            obs.record_delivery(packet, cycle)
                if faults is not None and router.dropped:
                    for packet in router.drain_dropped():
                        dropped_now += 1
                        if metrics is not None:
                            metrics.record_dropped(packet, cycle)
                        if obs is not None:
                            obs.record_dropped(packet, cycle)

        # 4. network-wide routing hook (PB saturation ECN / ECtN broadcasts);
        # mechanisms without per-cycle work declare needs_post_cycle=False
        # and skip the call entirely.
        if self._post_cycle is not None:
            self._post_cycle(network, cycle)

        if delivered_now:
            self.delivered_packets += delivered_now
            self._last_progress_cycle = cycle
        if dropped_now:
            # Dropping an unreachable packet is forward progress: the network
            # sheds the packet instead of tripping the stall watchdog.
            self.dropped_packets += dropped_now
            self._last_progress_cycle = cycle

        # 5. retire idle routers; the same pass yields the earliest scheduled
        # router event — the expensive half of the next cycle's work horizon
        # — from the routers' cached begin/transmit event times, so the hint
        # costs two comparisons per active router.
        router_hint = _NO_EVENT
        current = network._active_routers
        if current:
            still_active = []
            for router in current:
                if router._occupied_vcs:
                    still_active.append(router)
                    router_hint = -1
                else:
                    begin = router._next_begin_event
                    transmit = router._next_transmit_event
                    event = begin if begin < transmit else transmit
                    if event >= _NO_EVENT:
                        router.active = False
                    else:
                        still_active.append(router)
                        if event < router_hint:
                            router_hint = event
            network._active_routers = still_active

        self._hint_router_event = router_hint
        self._hint_node_injection = node_hint
        self._hint_valid = True

        if obs is not None:
            obs.on_cycle(cycle, visited_routers)

        self._check_watchdog(cycle)
        self.cycle = cycle + 1

    # -- observation ---------------------------------------------------------------
    def attach_observation(self, hub) -> None:
        """Wire an :class:`~repro.obs.hub.ObservationHub` into this engine.

        Attachment caches the hub on the engine's ``obs`` slot and the
        routing algorithm's ``_obs`` attribute; every instrumentation site
        afterwards is a single ``is None`` check of one of those two.  The
        hub is a pure observer — no simulation state, no RNG streams — so
        attaching it cannot change results (asserted by the probes-enabled
        golden/warp-identity tests).
        """
        self.obs = hub
        self.network.routing._obs = hub
        hub.on_attach(self)

    def detach_observation(self) -> None:
        """Remove the hub; the engine returns to the zero-overhead path."""
        self.network.routing._obs = None
        self.obs = None

    def _make_obs_reader(self):
        """State reader for occupancy snapshots (backend-specific)."""
        from repro.obs.readers import ObjectStateReader

        return ObjectStateReader(self.network)

    # -- test/diagnostic surface ---------------------------------------------------
    def schedule_arrival(
        self, rid: int, port: int, complete_cycle: int, vc: int, packet
    ) -> None:
        """Fabricate a link arrival at a router input, any backend.

        Test-facing: lets warp/watchdog tests plant a packet on a link
        without running traffic through the fabric.
        """
        self.network.routers[rid].receive_arrival(port, complete_cycle, vc, packet)

    # -- accounting ---------------------------------------------------------------
    def total_buffered_packets(self) -> int:
        """Packets inside the network fabric, wherever the backend keeps them.

        Backend-agnostic accounting surface: the object engine counts the
        network's buffers, the SoA engine its flat arrays.  Conservation
        checks must go through this instead of ``network.total_buffered_packets``.
        """
        return self.network.total_buffered_packets()

    # -- watchdog -----------------------------------------------------------------
    def _check_watchdog(self, cycle: int) -> None:
        if self.stall_watchdog_cycles is None:
            return
        if cycle - self._last_progress_cycle < self.stall_watchdog_cycles:
            return
        if self.network.total_buffered_packets() == 0:
            self._last_progress_cycle = cycle
            return
        raise SimulationStallError(
            f"no packet delivered for {self.stall_watchdog_cycles} cycles "
            f"(cycle {cycle}) while {self.network.total_buffered_packets()} packets "
            "are buffered in the network - possible deadlock or wiring bug\n"
            + self._stall_snapshot(cycle)
        )

    def _stall_snapshot(self, cycle: int) -> str:
        """Diagnostic snapshot for :class:`SimulationStallError`.

        Lists the most-congested routers (occupied-VC counts) and the oldest
        in-flight packet — enough to tell a routing deadlock from a fault
        wiring bug without re-running under a debugger.
        """
        occupancy = []
        oldest = None
        oldest_router = -1
        for router in self.network.routers:
            occupied = len(router._occupied_vcs)
            if occupied:
                occupancy.append((occupied, router.router_id))
            for ip in router.input_ports:
                for ivc in ip.vcs:
                    for packet in ivc.buffer:
                        if oldest is None or packet.creation_cycle < oldest.creation_cycle:
                            oldest = packet
                            oldest_router = router.router_id
        occupancy.sort(reverse=True)
        lines = ["stall diagnostics:"]
        top = ", ".join(
            f"router {rid}: {count} occupied VCs" for count, rid in occupancy[:5]
        )
        lines.append(f"  busiest routers: {top or 'none'}")
        if oldest is not None:
            lines.append(
                f"  oldest buffered packet: pid={oldest.pid} "
                f"{oldest.src}->{oldest.dst} phase={oldest.phase.value} "
                f"hops={oldest.hops} fault_mode={oldest.fault_mode} "
                f"age={cycle - oldest.creation_cycle} cycles "
                f"at router {oldest_router}"
            )
            # With probes attached, add the recorded flight path of the
            # stuck packet and the last trigger decision on its router —
            # post-mortem material a plain occupancy census cannot give.
            if self.obs is not None:
                lines.extend(self.obs.stall_context(oldest.pid, oldest_router))
        return "\n".join(lines)
