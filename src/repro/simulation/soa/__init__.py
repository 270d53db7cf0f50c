"""Struct-of-arrays simulation backend (``backend="soa"``).

See :mod:`repro.simulation.soa.engine` for the determinism contract and
:mod:`repro.simulation.soa.state` for the array layout.
"""

from repro.simulation.soa.engine import SoAEngine
from repro.simulation.soa.state import RouterView, SoAState

__all__ = ["SoAEngine", "SoAState", "RouterView"]
