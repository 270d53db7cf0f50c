"""Native per-hop core (C through cffi) for healthy-Dragonfly MIN and Base.

:func:`native_engine` returns a :class:`~repro.simulation.native.engine.NativeEngine`
when the run is eligible and the core is available, and ``None`` otherwise,
in which case the caller runs the object engine.  Eligible means:

* the topology is the canonical :class:`~repro.topology.dragonfly.DragonflyTopology`;
* the mechanism is exactly MIN or Base (subclasses such as Hybrid and ECtN
  are not);
* no fault model (the caller also keeps probes and ``REPRO_OBS`` runs on
  the object engine);
* the core builds (see :mod:`repro.simulation.native.build`).

See docs/architecture.md ("Native core") for the bit-identity contract.
"""

from __future__ import annotations

from typing import Optional

from repro.routing.contention.base_contention import BaseContentionRouting
from repro.routing.minimal import MinimalRouting
from repro.topology.base import PortKind
from repro.topology.dragonfly import DragonflyTopology

__all__ = ["native_engine", "core_config"]

_MECHANISMS = {MinimalRouting: 0, BaseContentionRouting: 1}

#: Candidate lists are kept on the C stack (``cand_t[64]``).
_MAX_CANDIDATES = 64


def core_config(topology: DragonflyTopology, routing, params) -> dict:
    """The ``core_config_t`` fields of one simulated system."""
    config = topology.config
    return {
        "p": config.p,
        "a": config.a,
        "h": config.h,
        "groups": config.num_groups,
        "palmtree": int(config.global_arrangement == "palmtree"),
        "mechanism": _MECHANISMS[type(routing)],
        "injection_vcs": routing.num_vcs(PortKind.INJECTION),
        "local_vcs": routing.num_vcs(PortKind.LOCAL),
        "global_vcs": routing.num_vcs(PortKind.GLOBAL),
        "local_input_phits": params.local_input_buffer_phits,
        "global_input_phits": params.global_input_buffer_phits,
        "output_phits": params.output_buffer_phits,
        "packet_size": params.packet_size_phits,
        "router_latency": params.router_latency,
        "local_latency": params.local_link_latency,
        "global_latency": params.global_link_latency,
        "speedup": params.internal_speedup,
        "threshold": getattr(routing, "_threshold", 0),
    }


def eligible(topology, routing, faults) -> bool:
    """Whether the native core implements this system."""
    if faults is not None or type(topology) is not DragonflyTopology:
        return False
    if type(routing) not in _MECHANISMS:
        return False
    config = topology.config
    return config.a - 1 + config.h <= _MAX_CANDIDATES


def native_engine(
    topology,
    routing,
    traffic,
    params,
    faults=None,
    stall_watchdog_cycles: Optional[int] = 20_000,
    time_warp: bool = True,
):
    """A native engine for this system, or ``None`` (run the object engine)."""
    if not eligible(topology, routing, faults):
        return None
    from repro.simulation.native.build import load_core

    core = load_core()
    if core is None:
        return None
    from repro.simulation.native.engine import NativeEngine

    return NativeEngine(
        core,
        core_config(topology, routing, params),
        routing,
        traffic,
        stall_watchdog_cycles=stall_watchdog_cycles,
        time_warp=time_warp,
    )
