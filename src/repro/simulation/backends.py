"""Simulation backend registry.

The simulator supports several engine implementations over the same network
model (see ``SimulationParameters.backend``):

* ``"native"`` (the default) — the compiled C core
  (:mod:`repro.simulation.native`) for healthy-Dragonfly MIN and Base runs
  without probes; every other run, or a run where the core cannot be built,
  falls back to the object engine;
* ``"object"`` — the per-object router model (:class:`~repro.simulation.engine.Engine`);
* ``"soa"`` — the struct-of-arrays transcription of the same model
  (:class:`~repro.simulation.soa.SoAEngine`).

All three are bit-identical.  ``engine.kind`` says which engine runs.  The
SoA package is imported lazily so the other backends keep their import
footprint.
"""

from __future__ import annotations

from typing import Optional

from repro.config.parameters import VALID_BACKENDS
from repro.metrics.collector import MetricsCollector
from repro.network.network import Network
from repro.simulation.engine import Engine
from repro.traffic.bernoulli import BernoulliTrafficGenerator

__all__ = ["create_engine"]


def create_engine(
    backend: str,
    network: Network,
    traffic: BernoulliTrafficGenerator,
    metrics: Optional[MetricsCollector] = None,
    stall_watchdog_cycles: Optional[int] = 20_000,
    time_warp: bool = True,
    faults=None,
) -> Engine:
    """Build the Python engine selected by ``backend`` over ``network``.

    ``"native"`` gets the object engine here: this is its fallback, taken
    when :func:`repro.simulation.native.native_engine` declined the run
    (the simulator asks it first, before any :class:`Network` exists).
    """
    if backend not in VALID_BACKENDS:
        raise ValueError(f"unknown backend {backend!r} (valid: {sorted(VALID_BACKENDS)})")
    if backend != "soa":
        return Engine(
            network,
            traffic,
            metrics=metrics,
            stall_watchdog_cycles=stall_watchdog_cycles,
            time_warp=time_warp,
            faults=faults,
        )
    from repro.simulation.soa import SoAEngine

    return SoAEngine(
        network,
        traffic,
        metrics=metrics,
        stall_watchdog_cycles=stall_watchdog_cycles,
        time_warp=time_warp,
        faults=faults,
    )
