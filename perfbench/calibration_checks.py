"""Tests of the benchmark's host-speed calibration.

The file name keeps it out of the repository's default test collection;
run it explicitly from the root of a checkout::

    python3 -m pytest perfbench/calibration_checks.py -q
"""

from __future__ import annotations

import sys
import time
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
if str(ROOT / "src") not in sys.path:
    sys.path.insert(0, str(ROOT / "src"))

import calibration  # noqa: E402
from calibration import REFERENCE_S, HostSpeed  # noqa: E402


def test_a_span_loses_its_slices_and_is_scaled_by_the_median_around_it():
    speed = HostSpeed()
    # Slices at 0.5 s steps; the host runs them at half the reference speed,
    # except one stalled slice that the median ignores.
    for i in range(20):
        speed.starts.append(0.5 * i)
        speed.seconds.append(2 * REFERENCE_S if i != 9 else 50 * REFERENCE_S)
    # [4.0, 6.0) holds slices 8 to 11, 2 + 50 + 2 + 2 slice references long.
    in_span = (2 + 50 + 2 + 2) * REFERENCE_S
    assert speed.reference_s(4.0, 6.0) == pytest.approx((2.0 - in_span) / 2)
    # A span with no slice in it or near it takes the speed of all of them.
    assert speed.reference_s(100.0, 101.0) == pytest.approx(0.5)


def test_the_timer_samples_inside_the_block_and_stops_after_it(monkeypatch):
    monkeypatch.setattr(calibration, "PERIOD_S", 0.02)
    speed = HostSpeed()
    with speed:
        end = time.perf_counter() + 0.5
        while time.perf_counter() < end:
            pass
    taken = len(speed.seconds)
    assert taken >= 5
    time.sleep(0.1)
    assert len(speed.seconds) == taken


def test_a_timer_faster_than_a_slice_does_not_nest_slices(monkeypatch):
    monkeypatch.setattr(calibration, "PERIOD_S", 0.0005)
    speed = HostSpeed()
    with speed:
        end = time.perf_counter() + 0.3
        while time.perf_counter() < end:
            pass
    assert len(speed.seconds) >= 2


def test_tiny_run_is_identical_with_the_sampler_on_and_off(monkeypatch):
    from repro.config.parameters import SimulationParameters
    from repro.simulation.simulator import Simulator

    def run():
        sim = Simulator(SimulationParameters.tiny(), "Base", "ADV+1", 0.4, seed=7)
        return sim.run_steady_state(100, 200), sim.engine.delivered_packets

    plain = run()
    monkeypatch.setattr(calibration, "PERIOD_S", 0.01)
    speed = HostSpeed()
    with speed:
        sampled = run()
    assert sampled == plain
    assert len(speed.seconds) > 0
