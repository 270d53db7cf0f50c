"""Stall-watchdog behaviour: warp parity, disabling, drops, diagnostics."""

import pytest

from repro.simulation.engine import SimulationStallError
from repro.simulation.simulator import Simulator
from repro.topology.faults import FaultModel
from repro.topology.registry import create_topology


def _wedge_ejection_ports(sim, tiny_params):
    """Block every ejection port forever: guaranteed total stall.

    Wedges whichever state the backend reads (the SoA engine copies the
    object network at construction and never consults it again; the native
    engine keeps its state in C).
    """
    engine = sim.engine
    if engine.kind == "native":
        for rid in range(sim.topology.num_routers):
            for port in range(tiny_params.topology.p):
                engine.set_link_busy(rid, port, 10**9)
        return
    if hasattr(engine, "_st"):
        st = engine._st
        for rid in range(st.R):
            for port in range(tiny_params.topology.p):
                st.link_busy[rid * st.P + port] = 10**9
        return
    for router in sim.network.routers:
        for port in range(tiny_params.topology.p):
            router.output_ports[port].link_busy_until = 10**9


def _isolate_links(topology, rid):
    return tuple(
        (rid, port)
        for port in range(topology.router_radix)
        if topology.neighbor(rid, port) is not None
    )


class TestStallWatchdog:
    def test_warp_and_no_warp_detect_at_the_same_cycle(self, tiny_params):
        """Time warp must not overshoot (or miss) the stall detection point."""
        detection_cycles = []
        for warp in (True, False):
            sim = Simulator(
                tiny_params,
                "MIN",
                "UN",
                offered_load=0.2,
                seed=1,
                stall_watchdog_cycles=200,
                time_warp=warp,
            )
            _wedge_ejection_ports(sim, tiny_params)
            with pytest.raises(SimulationStallError):
                sim.run_cycles(5_000)
            detection_cycles.append(sim.engine.cycle)
        assert detection_cycles[0] == detection_cycles[1]

    def test_watchdog_none_disables_detection(self, tiny_params):
        sim = Simulator(
            tiny_params,
            "MIN",
            "UN",
            offered_load=0.2,
            seed=1,
            stall_watchdog_cycles=None,
        )
        _wedge_ejection_ports(sim, tiny_params)
        sim.run_cycles(2_000)  # wedged solid, but nothing raises
        assert sim.engine.delivered_packets == 0

    def test_unreachable_traffic_drops_instead_of_stalling(self, tiny_params):
        """Partition-stranded packets must count as progress, not wedge."""
        topo = create_topology(tiny_params.topology)
        fm = FaultModel(
            failed_links=_isolate_links(topo, 0), allow_partition=True
        )
        sim = Simulator(
            tiny_params,
            "MIN",
            "UN",
            offered_load=0.3,
            seed=5,
            fault_model=fm,
            stall_watchdog_cycles=500,
        )
        result = sim.run_steady_state(150, 300)  # no SimulationStallError
        assert result.dropped_packets > 0
        assert result.delivered_packets > 0

    def test_stall_error_carries_diagnostics(self, tiny_params):
        sim = Simulator(
            tiny_params,
            "MIN",
            "UN",
            offered_load=0.2,
            seed=1,
            stall_watchdog_cycles=100,
        )
        _wedge_ejection_ports(sim, tiny_params)
        with pytest.raises(SimulationStallError) as excinfo:
            sim.run_cycles(2_000)
        message = str(excinfo.value)
        assert "stall diagnostics" in message
        assert "occupied VCs" in message
        assert "oldest buffered packet" in message
        assert "pid=" in message
