"""Tests of the benchmark's tracer.

The file name keeps it out of the repository's default test collection;
run it explicitly from the root of a checkout::

    python3 -m pytest perfbench/tracer_checks.py -q
"""

from __future__ import annotations

import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
if str(ROOT / "src") not in sys.path:
    sys.path.insert(0, str(ROOT / "src"))

from layers import SELECT, POST_CYCLE, WORKLOAD, traced  # noqa: E402
from tracer import ROOT as ROOT_SPAN, Target, Tracer, patched  # noqa: E402


class FakeClock:
    """A clock the code under trace advances by hand."""

    def __init__(self):
        self.now = 0

    def __call__(self) -> int:
        return self.now


def test_self_time_arithmetic_on_a_synthetic_call_tree():
    clock = FakeClock()
    tracer = Tracer(clock)

    def c(cost):
        clock.now += cost

    def b():
        clock.now += 5
        traced_c(3)

    def a():
        clock.now += 10
        traced_b()
        clock.now += 2
        traced_c(4)

    traced_c = tracer.wrap("c", c)
    traced_b = tracer.wrap("b", b)
    tracer.wrap("a", a)()

    spans = {key: (s.count, s.total_ns, s.self_ns) for key, s in tracer.spans.items()}
    assert spans == {
        ("c", "b"): (1, 3, 3),
        ("b", "a"): (1, 8, 5),
        ("c", "a"): (1, 4, 4),
        ("a", ROOT_SPAN): (1, 24, 12),
    }
    assert tracer.calls("c") == 2
    assert tracer.total_ns("c") == 7
    assert tracer.self_ns("a") + tracer.self_ns("b") + tracer.self_ns("c") == 24


def test_only_the_outermost_call_of_a_name_is_accounted():
    clock = FakeClock()
    tracer = Tracer(clock)

    def countdown(n):
        clock.now += 1
        if n:
            traced_countdown(n - 1)

    traced_countdown = tracer.wrap("countdown", countdown)
    traced_countdown(4)
    assert tracer.calls("countdown") == 1
    assert tracer.total_ns("countdown") == tracer.self_ns("countdown") == 5


def test_super_chain_through_two_patched_classes_counts_once():
    clock = FakeClock()

    class Base:
        def step(self):
            clock.now += 2

    class Sub(Base):
        def step(self):
            clock.now += 1
            super().step()

    class Leaf(Base):
        pass

    tracer = Tracer(clock)
    targets = [Target(cls, "step", "step") for cls in (Base, Sub, Leaf)]
    originals = (Base.__dict__["step"], Sub.__dict__["step"])
    with patched(tracer, targets):
        Sub().step()
        Leaf().step()
    assert tracer.calls("step") == 2
    assert tracer.total_ns("step") == 5
    # Originals are back; the inherited attribute was not pinned on Leaf.
    assert (Base.__dict__["step"], Sub.__dict__["step"]) == originals
    assert "step" not in Leaf.__dict__


def test_observe_updates_counters_after_the_call():
    tracer = Tracer()
    double = tracer.wrap(
        "double", lambda x: 2 * x,
        observe=lambda t, args, result: t.count("total", result),
    )
    assert double(3) == 6 and double(4) == 8
    assert tracer.counter("total") == 14
    assert tracer.calls("double") == 2


@pytest.mark.parametrize("routing", ["ECtN", "Base"])
def test_tiny_run_is_identical_with_the_tracer_on_and_off(routing):
    from repro.config.parameters import SimulationParameters
    from repro.network.router import Router
    from repro.routing import ROUTING_REGISTRY
    from repro.simulation import simulator
    from repro.simulation.simulator import Simulator

    def run():
        sim = Simulator(SimulationParameters.tiny(), routing, "ADV+1", 0.4, seed=7)
        return sim.run_steady_state(100, 200), sim.engine.delivered_packets

    untraced = run()
    before = (Router.allocate, simulator.Network, vars(ROUTING_REGISTRY[routing]).copy())
    tracer = Tracer()
    with traced(tracer, [ROUTING_REGISTRY[routing]]):
        traced_run = run()
    assert traced_run == untraced
    assert tracer.calls(SELECT) > 0
    assert (tracer.calls(POST_CYCLE) > 0) == (routing == "ECtN")
    assert tracer.self_ns(WORKLOAD) < 0.05 * tracer.total_ns(WORKLOAD)
    assert (Router.allocate, simulator.Network, vars(ROUTING_REGISTRY[routing])) == before

