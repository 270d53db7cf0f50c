"""Per-layer metrics: where the traced spans go and what they report.

:func:`traced` patches the public functions of every layer at class or
module level, around one traced repetition.  Routing classes are patched
before the ``Simulator`` is built, because ``Engine`` binds ``post_cycle``
at construction.  :func:`layer_metrics` turns one repetition's tracer into
the metrics of :data:`LAYER_TARGETS`.
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import Dict, Iterator, List

from tracer import Target, Tracer, patched

__all__ = ["LAYER_TARGETS", "layer_metrics", "traced"]

WORKLOAD = "workload"
STEP = "Engine.step"
BEGIN = "Router.begin_cycle"
ALLOCATE = "Router.allocate"
TRANSMIT = "Router.transmit"
SEPARABLE = "SeparableAllocator.allocate"
INJECT = "ComputeNode.try_inject"
SELECT = "routing.select_output"
GRANT = "routing.on_grant"
POST_CYCLE = "routing.post_cycle"
GENERATE = "BernoulliTrafficGenerator.generate"
RECORD_GENERATED = "MetricsCollector.record_generated"
RECORD_DELIVERY = "MetricsCollector.record_delivery"
TOPOLOGY = "create_topology"
ROUTING = "create_routing"
NETWORK = "Network"
POINT = "run_steady_point"
LOOKUP = "DirectoryResultCache.lookup"
STORE = "DirectoryResultCache.store"

#: What each per-layer metric should move: ``name -> (end-to-end metric,
#: workload that shows it)``.  Units and directions are in BENCHMARK.json,
#: whose fixed schema has no field for these.
LAYER_TARGETS = {
    "network.grants": ("normalises the per-grant metrics", "all"),
    "simulation.cycles_executed": ("host_cycles_per_s", "fig5_sweep drains"),
    "simulation.warp_share": ("host_cycles_per_s", "fig5_sweep drains"),
    "simulation.step_self_ns_per_cycle": ("host_cycles_per_s", "un_base"),
    "network.begin_cycle_ns_per_grant": ("wall_s", "un_base"),
    "network.transmit_ns_per_grant": ("wall_s", "un_base"),
    "network.inject_ns_per_packet": ("wall_s", "un_base"),
    "network.allocate_self_ns_per_grant": ("host_cycles_per_s", "adv_sat_base"),
    "network.allocate_self_share": ("host_cycles_per_s", "adv_sat_base"),
    "network.alloc_rounds": ("host_cycles_per_s", "adv_sat_base"),
    "network.grant_share": ("host_cycles_per_s", "adv_sat_base"),
    "routing.select_calls": ("host_cycles_per_s", "adv_sat_base; none on un_base"),
    "routing.selects_per_grant": ("host_cycles_per_s", "adv_sat_base; none on un_base"),
    "routing.select_ns_per_call": ("host_cycles_per_s", "adv_sat_base; none on un_base"),
    "routing.select_share": ("host_cycles_per_s", "adv_sat_base; none on un_base"),
    "routing.nonminimal_share": ("sim_latency_mean_cycles", "adv_sat_base, transient_ectn"),
    "routing.post_cycle_ns_per_cycle": ("wall_s", "transient_ectn; 0 on Base"),
    "traffic.generate_ns_per_packet": ("wall_s", "un_base"),
    "metrics.record_ns_per_packet": ("wall_s", "un_base"),
    "topology.builds": ("setup_s", "all; 2 on transient_ectn"),
    "topology.build_s": ("setup_s", "all"),
    "routing.build_s": ("setup_s", "all"),
    "network.build_s": ("setup_s", "all"),
    "experiments.point_s": ("wall_s", "fig5_sweep"),
    "service.store_ns": ("wall_s", "fig5_sweep"),
    "service.lookup_ns": ("wall_s", "fig5_sweep"),
    "service.hit_rate": ("wall_s", "fig5_sweep warm replay"),
    "trace.overhead_ratio": ("traced / untraced wall_s", "all"),
    "trace.unattributed_share": ("share of traced time in no named span", "all"),
}


def _on_grant(tracer: Tracer, args: tuple, result) -> None:
    decision = args[5]
    if decision.nonminimal_global or decision.nonminimal_local:
        tracer.count("nonminimal")


def _on_allocate(tracer: Tracer, args: tuple, result) -> None:
    tracer.count("requests", len(args[1]))
    tracer.count("allocated", len(result))


def _on_inject(tracer: Tracer, args: tuple, result) -> None:
    if result is not None:
        tracer.count("injected")


def _on_generate(tracer: Tracer, args: tuple, result) -> None:
    tracer.count("generated", len(result))


def targets(routing_classes) -> List[Target]:
    from repro.metrics.collector import MetricsCollector
    from repro.network.allocator import SeparableAllocator
    from repro.network.node import ComputeNode
    from repro.network.router import Router
    from repro.service.cache import DirectoryResultCache
    from repro.simulation import simulator
    from repro.simulation.engine import Engine
    from repro.traffic.bernoulli import BernoulliTrafficGenerator

    found = [
        Target(Engine, "step", STEP),
        Target(Router, "begin_cycle", BEGIN),
        Target(Router, "allocate", ALLOCATE),
        Target(Router, "transmit", TRANSMIT),
        Target(SeparableAllocator, "allocate", SEPARABLE, _on_allocate),
        Target(ComputeNode, "try_inject", INJECT, _on_inject),
        Target(BernoulliTrafficGenerator, "generate", GENERATE, _on_generate),
        Target(MetricsCollector, "record_generated", RECORD_GENERATED),
        Target(MetricsCollector, "record_delivery", RECORD_DELIVERY),
        Target(simulator, "create_topology", TOPOLOGY),
        Target(simulator, "create_routing", ROUTING),
        Target(simulator, "Network", NETWORK),
        Target(DirectoryResultCache, "lookup", LOOKUP),
        Target(DirectoryResultCache, "store", STORE),
    ]
    for cls in routing_classes:
        found.append(Target(cls, "select_output", SELECT))
        found.append(Target(cls, "on_grant", GRANT, _on_grant))
        if cls.needs_post_cycle:
            # Engine refuses a post_cycle override on a mechanism that
            # declares no per-cycle work, so only those that do are patched.
            found.append(Target(cls, "post_cycle", POST_CYCLE))
    return found


@contextmanager
def _traced_point_runner(tracer: Tracer) -> Iterator[None]:
    """Trace ``run_steady_point`` where the sweep executors call it.

    ``CachingSweepExecutor`` only caches points whose runner *is*
    ``run_steady_point``, so the module name cannot be replaced; the
    executor's ``map`` hands the traced runner to the pool instead.
    """
    from repro.experiments.parallel import ParallelSweepExecutor, run_steady_point

    original = ParallelSweepExecutor.map
    runner = tracer.wrap(POINT, run_steady_point)

    def map(self, func, items):
        return original(self, runner if func is run_steady_point else func, items)

    ParallelSweepExecutor.map = map
    try:
        yield
    finally:
        ParallelSweepExecutor.map = original


@contextmanager
def traced(tracer: Tracer, routing_classes) -> Iterator[None]:
    """Trace the ``with`` body under the root span ``workload``.

    ``routing_classes`` are the mechanisms whose hooks are traced.
    """
    with patched(tracer, targets(routing_classes)), \
            _traced_point_runner(tracer), tracer.span(WORKLOAD):
        yield


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def layer_metrics(tracer: Tracer, outcome, untraced_wall_s: float) -> Dict[str, float]:
    """The metrics of :data:`LAYER_TARGETS` for one traced repetition."""
    t = tracer
    run_ns = t.total_ns(WORKLOAD)
    grants = t.calls(GRANT)
    steps = t.calls(STEP)
    selects = t.calls(SELECT)
    deliveries = t.calls(RECORD_DELIVERY)
    cycles_total = outcome.cycles
    return {
        "network.grants": grants,
        "simulation.cycles_executed": steps,
        "simulation.warp_share": _ratio(cycles_total - steps, cycles_total),
        "simulation.step_self_ns_per_cycle": _ratio(t.self_ns(STEP), steps),
        "network.begin_cycle_ns_per_grant": _ratio(t.total_ns(BEGIN), grants),
        "network.transmit_ns_per_grant": _ratio(t.total_ns(TRANSMIT), grants),
        "network.inject_ns_per_packet": _ratio(t.total_ns(INJECT), t.counter("injected")),
        "network.allocate_self_ns_per_grant": _ratio(t.self_ns(ALLOCATE), grants),
        "network.allocate_self_share": _ratio(t.self_ns(ALLOCATE), run_ns),
        "network.alloc_rounds": t.calls(SEPARABLE),
        "network.grant_share": _ratio(t.counter("allocated"), t.counter("requests")),
        "routing.select_calls": selects,
        "routing.selects_per_grant": _ratio(selects, grants),
        "routing.select_ns_per_call": _ratio(t.total_ns(SELECT), selects),
        "routing.select_share": _ratio(t.total_ns(SELECT), run_ns),
        "routing.nonminimal_share": _ratio(t.counter("nonminimal"), grants),
        "routing.post_cycle_ns_per_cycle": _ratio(t.total_ns(POST_CYCLE), steps),
        "traffic.generate_ns_per_packet": _ratio(
            t.total_ns(GENERATE), t.counter("generated")
        ),
        "metrics.record_ns_per_packet": _ratio(
            t.total_ns(RECORD_GENERATED) + t.total_ns(RECORD_DELIVERY), deliveries
        ),
        "topology.builds": t.calls(TOPOLOGY),
        "topology.build_s": t.total_ns(TOPOLOGY) / 1e9,
        "routing.build_s": t.total_ns(ROUTING) / 1e9,
        "network.build_s": t.total_ns(NETWORK) / 1e9,
        "experiments.point_s": _ratio(t.total_ns(POINT), t.calls(POINT)) / 1e9,
        "service.store_ns": _ratio(t.total_ns(STORE), t.calls(STORE)),
        "service.lookup_ns": _ratio(t.total_ns(LOOKUP), t.calls(LOOKUP)),
        "service.hit_rate": _ratio(outcome.hits, outcome.lookups),
        "trace.overhead_ratio": _ratio(outcome.wall_s, untraced_wall_s),
        "trace.unattributed_share": _ratio(t.self_ns(WORKLOAD), run_ns),
    }
