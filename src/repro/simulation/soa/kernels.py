"""Batched numpy kernels of the SoA backend.

These kernels implement the *network-wide broadcast* computations of the
per-cycle loop — the pieces that touch every router of the network at once
and therefore vectorize cleanly:

* :func:`pb_saturation_flags` — PB's per-global-link saturation
  classification (``occupancy >= fraction * capacity`` over all global links
  of the network);
* :func:`combine_rows` — ECtN's per-group combined-counter broadcast (the
  column sum of the group's partial arrays).

Both are exact integer/float64 arithmetic, identical to the scalar Python
expressions of the object model, so results stay bit-identical.
"""

from __future__ import annotations

from typing import List, Sequence

import numpy as np

__all__ = ["pb_saturation_flags", "combine_rows"]


def pb_saturation_flags(
    occupancy: np.ndarray, capacity: np.ndarray, fraction: float
) -> np.ndarray:
    """``occupancy >= fraction * capacity`` elementwise (PB's ECN predicate).

    ``fraction * capacity`` is evaluated in float64 exactly like the scalar
    expression in ``PiggybackRouting.post_cycle``, so the boolean result is
    bit-identical to the object model's per-port comparison.
    """
    return occupancy >= fraction * capacity


def combine_rows(rows: Sequence[Sequence[int]]) -> List[int]:
    """Column sums of the per-router partial arrays (ECtN broadcast)."""
    return np.sum(np.asarray(rows, dtype=np.int64), axis=0).tolist()
