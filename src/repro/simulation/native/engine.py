"""Python side of the native engine: traffic in, deliveries out.

:class:`NativeEngine` has the :class:`~repro.simulation.engine.Engine`
surface the simulator, the experiment harnesses and the tests use (``run``,
``cycle``, ``metrics``, ``delivered_packets``, ``cycles_skipped``,
``total_buffered_packets``, ``schedule_arrival``) while the per-hop work —
buffers, credits, pipelines, links, the separable allocator, the contention
counters and the MIN / Base decisions — runs in the C core
(``core.c``).

Per ``run`` call the engine works in chunks of :data:`CHUNK_CYCLES`
cycles.  For each chunk it asks the unchanged
:class:`~repro.traffic.bernoulli.BernoulliTrafficGenerator` for every packet
generated inside the chunk (generation is open-loop: it never depends on the
network, so generating a chunk ahead consumes the arrival and destination
streams exactly as the cycle-by-cycle engine does), hands them to the core,
lets the core run to the end of the chunk and then copies the delivered
packets' routing fields back onto their :class:`~repro.network.packet.Packet`
objects and feeds ``MetricsCollector.record_delivery`` in the object
engine's order (cycle, router id, port).
"""

from __future__ import annotations

from typing import Dict, Optional

import numpy as np

from repro.network.packet import Packet, RoutingPhase
from repro.routing.base import RoutingDecision
from repro.simulation.engine import ENGINE_STATS, SimulationStallError

__all__ = ["NativeEngine", "CHUNK_CYCLES"]

#: Cycles handed to the core per call: bounds the number of generated
#: ``Packet`` objects that exist ahead of the simulated time.
CHUNK_CYCLES = 256

_PHASES = (RoutingPhase.MINIMAL, RoutingPhase.TO_INTERMEDIATE)


def _or_minus_one(value: Optional[int]) -> int:
    return -1 if value is None else value


class NativeEngine:
    """Cycle engine whose router model runs in the compiled core."""

    kind = "native"

    def __init__(
        self,
        core,
        config: Dict[str, int],
        routing,
        traffic,
        metrics=None,
        stall_watchdog_cycles: Optional[int] = 20_000,
        time_warp: bool = True,
    ):
        ffi, lib = core
        self._ffi = ffi
        self._lib = lib
        cfg = ffi.new("core_config_t *")
        for name, value in config.items():
            setattr(cfg, name, value)
        cfg.time_warp = 1 if time_warp else 0
        cfg.watchdog = -1 if stall_watchdog_cycles is None else stall_watchdog_cycles
        state = lib.core_new(cfg)
        if state == ffi.NULL:
            raise MemoryError("native core allocation failed")
        self._state = ffi.gc(state, lib.core_free)
        # Routing draws come straight from the routing Generator's bit
        # generator; keeping the reference keeps the C-side pointer valid.
        self._rng = routing.rng
        bitgen = routing.rng.bit_generator.ctypes.bit_generator.value
        lib.core_set_rng(self._state, ffi.cast("void *", bitgen))
        self.traffic = traffic
        topology = traffic.topology
        self._num_routers = topology.num_routers
        self._num_nodes = topology.num_nodes
        self._port_vcs = [
            config[f"{kind.value}_vcs"] for kind in topology.port_kinds
        ]
        self.metrics = metrics
        #: Native runs carry no probes and drop nothing (no faults).
        self.obs = None
        self.dropped_packets = 0
        self.stall_watchdog_cycles = stall_watchdog_cycles
        #: ``Packet`` objects inside the core, by the handle the core carries.
        self._live: Dict[int, Packet] = {}
        self._next_ref = 0
        #: Base's Python contention tracker, mirrored from the core after
        #: every ``run`` so code reading ``routing.tracker`` between runs
        #: (the Section VI-A counter sampler) sees the live counters.
        tracker = getattr(routing, "tracker", None)
        self._counters = None if tracker is None else tracker._counters

    # -- engine surface -----------------------------------------------------------
    def _stat(self, which: int) -> int:
        return self._lib.core_stat(self._state, which)

    @property
    def cycle(self) -> int:
        return self._stat(self._lib.STAT_CYCLE)

    @property
    def cycles_skipped(self) -> int:
        return self._stat(self._lib.STAT_CYCLES_SKIPPED)

    @property
    def delivered_packets(self) -> int:
        return self._stat(self._lib.STAT_DELIVERED)

    def total_buffered_packets(self) -> int:
        """Packets inside the fabric: input/output buffers, pipelines, links."""
        return self._stat(self._lib.STAT_BUFFERED)

    def run(self, cycles: int) -> None:
        """Advance the simulation by ``cycles`` cycles (warping over idle ones)."""
        lib = self._lib
        state = self._state
        start = self.cycle
        end = start + cycles
        skipped_before = self.cycles_skipped
        lib.core_invalidate_hints(state)
        try:
            cycle = start
            while cycle < end:
                chunk_end = min(end, cycle + CHUNK_CYCLES)
                if self.traffic.packet_probability <= 0.0:
                    chunk_end = end
                self._hand_over(cycle, chunk_end)
                status = lib.core_run(state, chunk_end)
                self._drain_deliveries()
                if status == 1:
                    raise self._stall_error()
                if status:
                    raise RuntimeError(
                        f"native core error {status - 1} at cycle {self.cycle}"
                    )
                cycle = self.cycle
        finally:
            if self._counters is not None:
                self._mirror_counters()
            advanced = self.cycle - start
            skipped = self.cycles_skipped - skipped_before
            ENGINE_STATS.cycles_executed += advanced - skipped
            ENGINE_STATS.cycles_skipped += skipped

    def _mirror_counters(self) -> None:
        """Copy the core's contention counters into the Python tracker."""
        ffi = self._ffi
        counters = self._counters
        radix = len(counters[0].counts)
        out = np.empty(len(counters) * radix, dtype=np.int32)
        self._lib.core_contention_counts(
            self._state, ffi.cast("int32_t *", ffi.from_buffer(out))
        )
        for array, row in zip(counters, out.reshape(len(counters), radix).tolist()):
            array.counts[:] = row

    def _hand_over(self, cycle: int, end: int) -> None:
        """Generate the packets of ``[cycle, end)`` and give them to the core."""
        traffic = self.traffic
        metrics = self.metrics
        live = self._live
        ref = self._next_ref
        first = ref
        sources, destinations, cycles = [], [], []
        while True:
            arrival = traffic.next_arrival_cycle(cycle, end)
            if arrival is None:
                break
            for src, packet in traffic.generate(arrival):
                live[ref] = packet
                ref += 1
                sources.append(src)
                destinations.append(packet.dst)
                cycles.append(arrival)
                if metrics is not None:
                    metrics.record_generated(packet)
            cycle = arrival + 1
        count = ref - first
        if not count:
            return
        self._next_ref = ref
        ffi = self._ffi
        arrays = [
            np.arange(first, ref, dtype=np.int64),
            np.asarray(sources, dtype=np.int64),
            np.asarray(destinations, dtype=np.int64),
            np.asarray(cycles, dtype=np.int64),
        ]
        pointers = [ffi.cast("int64_t *", ffi.from_buffer(a)) for a in arrays]
        if self._lib.core_add_packets(self._state, count, *pointers):
            raise MemoryError("native core could not store the generated packets")

    def _drain_deliveries(self) -> None:
        """Write back and record the packets the last core call delivered."""
        ffi, lib = self._ffi, self._lib
        count = ffi.new("int32_t *")
        pointer = lib.core_deliveries(self._state, count)
        n = count[0]
        if not n:
            return
        fields = lib.DELIVERY_FIELDS
        rows = np.frombuffer(
            ffi.buffer(pointer, n * fields * 8), dtype=np.int64
        ).reshape(n, fields).tolist()
        live = self._live
        metrics = self.metrics
        for (
            ref, cycle, delivered, injection, hops, local_hops, global_hops,
            local_hops_in_group, globally, locally, misroute_cycle, current_vc,
            source_group, phase, intermediate_group, must_global,
        ) in rows:
            packet = live.pop(ref)
            packet.delivered_cycle = delivered
            if injection >= 0:
                packet.injection_cycle = injection
            packet.hops = hops
            packet.local_hops = local_hops
            packet.global_hops = global_hops
            packet.local_hops_in_group = local_hops_in_group
            packet.globally_misrouted = bool(globally)
            packet.locally_misrouted = bool(locally)
            if misroute_cycle >= 0:
                packet.misroute_recorded_cycle = misroute_cycle
            packet.current_vc = current_vc
            packet.source_group = source_group
            packet.phase = _PHASES[phase]
            packet.intermediate_group = (
                intermediate_group if intermediate_group >= 0 else None
            )
            packet.must_misroute_global = bool(must_global)
            if metrics is not None:
                metrics.record_delivery(packet, cycle)

    # -- test/diagnostic surface -------------------------------------------------
    def _check_packet(self, packet: Packet) -> None:
        if not 0 <= packet.dst < self._num_nodes:
            raise ValueError(f"destination {packet.dst} out of range [0, {self._num_nodes})")
        if packet.size_phits < 1:
            raise ValueError("packet size must be at least one phit")

    def _check_port(self, rid: int, port: int, vc: int = 0) -> None:
        """Bounds of an outside (router, port, vc) before it reaches C."""
        if not 0 <= rid < self._num_routers:
            raise ValueError(f"router {rid} out of range [0, {self._num_routers})")
        if not 0 <= port < len(self._port_vcs):
            raise ValueError(f"port {port} out of range [0, {len(self._port_vcs)})")
        if not 0 <= vc < self._port_vcs[port]:
            raise ValueError(f"vc {vc} out of range [0, {self._port_vcs[port]})")

    def schedule_arrival(
        self, rid: int, port: int, complete_cycle: int, vc: int, packet: Packet
    ) -> None:
        """Fabricate a link arrival at a router input (see ``Engine``)."""
        self._check_port(rid, port, vc)
        self._check_packet(packet)
        ref = self._next_ref
        self._next_ref += 1
        self._live[ref] = packet
        status = self._lib.core_schedule_arrival(
            self._state, rid, port, complete_cycle, vc, ref,
            packet.src, packet.dst, packet.size_phits, packet.creation_cycle,
        )
        if status:
            del self._live[ref]
            raise OverflowError(f"no room on the link into router {rid} port {port}")

    def select_output(self, rid: int, packet: Packet, counts) -> RoutingDecision:
        """The core's routing decision for ``packet`` at the head of router ``rid``.

        ``counts`` replaces the router's contention counters (one per port).
        The decision-level twin of ``routing.select_output`` on a hand-built
        router state; like it, it may draw from the routing stream.
        """
        self._check_port(rid, 0)
        self._check_packet(packet)
        counts = list(counts)
        if len(counts) != len(self._port_vcs):
            raise ValueError(f"expected {len(self._port_vcs)} counters, got {len(counts)}")
        ffi, lib = self._ffi, self._lib
        state = [0] * lib.PROBE_FIELDS
        state[lib.PS_DST] = packet.dst
        state[lib.PS_PHASE] = _PHASES.index(packet.phase)
        state[lib.PS_INTERMEDIATE_GROUP] = _or_minus_one(packet.intermediate_group)
        state[lib.PS_HOPS] = packet.hops
        state[lib.PS_GLOBAL_HOPS] = packet.global_hops
        state[lib.PS_LOCAL_HOPS_IN_GROUP] = packet.local_hops_in_group
        state[lib.PS_GLOBALLY_MISROUTED] = int(packet.globally_misrouted)
        state[lib.PS_MUST_GLOBAL] = int(packet.must_misroute_global)
        state[lib.PS_CONTENTION_PORT] = _or_minus_one(packet.contention_port)
        out = ffi.new("int64_t[6]")
        lib.core_probe_select(
            self._state, rid, ffi.new("int32_t[]", counts),
            ffi.new("int64_t[]", state), out,
        )
        port, vc, globally, locally, group, must = out
        return RoutingDecision(
            output_port=port,
            vc=vc,
            nonminimal_global=bool(globally),
            nonminimal_local=bool(locally),
            set_intermediate_group=group if group >= 0 else None,
            set_must_misroute_global=bool(must),
        )

    def set_link_busy(self, rid: int, port: int, until: int) -> None:
        """Hold output ``port`` of router ``rid`` busy until cycle ``until``."""
        self._check_port(rid, port)
        self._lib.core_set_link_busy(self._state, rid, port, until)

    # -- watchdog -------------------------------------------------------------------
    def _stall_error(self) -> SimulationStallError:
        cycle = self.cycle
        buffered = self.total_buffered_packets()
        return SimulationStallError(
            f"no packet delivered for {self.stall_watchdog_cycles} cycles "
            f"(cycle {cycle}) while {buffered} packets "
            "are buffered in the network - possible deadlock or wiring bug\n"
            + self._stall_snapshot(cycle)
        )

    def _stall_snapshot(self, cycle: int) -> str:
        """The object engine's stall diagnostics, read from the core."""
        ffi, lib = self._ffi, self._lib
        num_routers = self.traffic.topology.num_routers
        counts = ffi.new("int32_t[]", num_routers)
        lib.core_occupied_counts(self._state, counts)
        occupancy = sorted(
            ((count, rid) for rid, count in enumerate(counts) if count), reverse=True
        )
        lines = ["stall diagnostics:"]
        top = ", ".join(
            f"router {rid}: {count} occupied VCs" for count, rid in occupancy[:5]
        )
        lines.append(f"  busiest routers: {top or 'none'}")
        oldest = ffi.new("int64_t[7]")
        if lib.core_oldest_buffered(self._state, oldest):
            ref, router, src, dst, phase, hops, creation = list(oldest)
            pid = self._live[ref].pid
            lines.append(
                f"  oldest buffered packet: pid={pid} "
                f"{src}->{dst} phase={_PHASES[phase].value} "
                f"hops={hops} fault_mode=False "
                f"age={cycle - creation} cycles "
                f"at router {router}"
            )
        return "\n".join(lines)
