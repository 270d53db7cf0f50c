"""Shared fixtures for the test suite.

All simulation-based tests use the ``tiny`` parameter preset (a 24-node
Dragonfly with short link latencies) so that individual tests run in well
under a second; the integration tests that check the paper's qualitative
claims use the ``small`` preset with short measurement windows.

The registry-driven fixtures (``every_topology`` / ``every_routing`` /
``every_tiny_topology``) are the single source of truth for "run this over
everything registered": test files must parametrize through them instead of
hand-copying the registry lists, so a newly registered topology or routing
mechanism is picked up by the whole suite automatically.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.config.parameters import DragonflyConfig, SimulationParameters
from repro.routing import available_routings
from repro.topology.base import Topology
from repro.topology.dragonfly import DragonflyTopology
from repro.topology.registry import (
    available_topologies,
    create_topology,
    topology_preset,
)


@pytest.fixture
def tiny_params() -> SimulationParameters:
    return SimulationParameters.tiny()


@pytest.fixture
def small_params() -> SimulationParameters:
    return SimulationParameters.small()


@pytest.fixture
def tiny_topology(tiny_params) -> DragonflyTopology:
    return DragonflyTopology(tiny_params.topology)


@pytest.fixture
def small_topology(small_params) -> DragonflyTopology:
    return DragonflyTopology(small_params.topology)


@pytest.fixture
def paper_config() -> DragonflyConfig:
    return DragonflyConfig.paper()


@pytest.fixture
def rng() -> np.random.Generator:
    return np.random.default_rng(12345)


# ---------------------------------------------------------- registry fixtures
@pytest.fixture(params=available_topologies())
def every_topology(request) -> str:
    """Registry name of each registered topology (parametrized)."""
    return request.param


@pytest.fixture(params=available_routings())
def every_routing(request) -> str:
    """Registry name of each registered routing mechanism (parametrized)."""
    return request.param


@pytest.fixture
def every_tiny_topology(every_topology) -> Topology:
    """Each registered topology instantiated on its ``tiny`` preset."""
    return create_topology(topology_preset(every_topology, "tiny"))


# ------------------------------------------------------- backend-aware helpers
@pytest.fixture
def wedge_ejection_ports():
    """Block every ejection port forever — a guaranteed total stall.

    Returns a function of a built ``Simulator``.  The wedge goes through
    whichever state the engine backend actually reads: the SoA engine
    copies the object network at construction and never consults it again,
    and the native engine keeps its state in C, so mutating the object
    routers would be a silent no-op there.
    """
    from repro.topology.base import PortKind

    def _wedge(sim):
        engine = sim.engine
        kinds = sim.topology.port_kinds
        ejection = [p for p, kind in enumerate(kinds) if kind is PortKind.INJECTION]
        if engine.kind == "native":
            for rid in range(sim.topology.num_routers):
                for port in ejection:
                    engine.set_link_busy(rid, port, 10**9)
            return
        if hasattr(engine, "_st"):
            st = engine._st
            for rid in range(st.R):
                for port in ejection:
                    st.link_busy[rid * st.P + port] = 10**9
            return
        for router in sim.network.routers:
            for port in ejection:
                router.output_ports[port].link_busy_until = 10**9

    return _wedge
