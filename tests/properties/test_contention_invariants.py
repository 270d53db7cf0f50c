"""Randomized cross-topology property suite for the contention subsystem.

The in-transit adaptive generalization (MM+L on group topologies, the
nonminimal ring escape on the torus) interacts with the deadlock-avoidance
VC machinery and the per-hop misroute accounting, so these tests pin the
*invariants* rather than values, for every registered topology x {Base,
Hybrid, UGAL} over a seeded-random grid of (pattern, load, seed) points:

* every delivered packet's hop sequence obeys the declared path-model
  classes — strictly increasing ``(kind, vc)`` buffer classes under the
  path-stage schedule, lexicographically monotone ``(leg, dim, crossed)``
  classes under the dateline schedule;
* misroute counts never exceed the per-packet budget (one committed global
  misroute; bounded local detours / one ring escape per dimension);
* a run with the time-warp engine enabled is bit-identical to the
  cycle-by-cycle run.

Unsupported (topology, routing) pairs must refuse at construction — there
is no silent third state (see ``tests/routing/test_unsupported_matrix.py``
for the full matrix).
"""

from __future__ import annotations

from collections import defaultdict

import numpy as np
import pytest

from repro.config.parameters import SimulationParameters
from repro.routing.base import UnsupportedTopologyError
from repro.routing.deadlock import class_rank
from repro.simulation.simulator import Simulator
from repro.topology.base import PortKind
from repro.topology.registry import topology_preset

ROUTINGS = ("Base", "Hybrid", "UGAL")

#: Seeded random experiment grid (one point per traffic pattern): the suite
#: is randomized but reproducible — re-running never flakes, bumping the
#: seed re-rolls the whole grid.
_GRID_RNG = np.random.default_rng(0xC0DE)
_POINTS = [
    (pattern, float(load), int(seed))
    for pattern, load, seed in zip(
        ("UN", "ADV+1", "ADV+h"),
        _GRID_RNG.uniform(0.08, 0.35, size=3),
        _GRID_RNG.integers(0, 2**31, size=3),
    )
]


class HopRecorder:
    """Record every granted hop of every packet through ``on_grant``."""

    def __init__(self, sim: Simulator):
        self.topology = sim.topology
        self.dateline = sim.topology.path_model.vc_schedule == "dateline"
        self.updown = sim.topology.path_model.vc_schedule == "up_down"
        #: pid -> list of (output_port, port_kind, vc, router_id) per
        #: granted non-ejection hop, in path order.
        self.hops = defaultdict(list)
        #: pid -> committed global misroutes / local-misroute decisions /
        #: MM+L proxy commitments.
        self.global_commits = defaultdict(int)
        self.local_misroutes = defaultdict(int)
        self.proxy_commits = defaultdict(int)
        original = sim.routing.on_grant
        port_kinds = sim.topology.port_kinds

        def on_grant(router, port, vc, packet, decision, cycle):
            kind = port_kinds[decision.output_port]
            if kind is not PortKind.INJECTION:
                self.hops[packet.pid].append(
                    (decision.output_port, kind, decision.vc, router.router_id)
                )
            if decision.set_intermediate_group is not None:
                self.global_commits[packet.pid] += 1
            if decision.nonminimal_local:
                self.local_misroutes[packet.pid] += 1
            if decision.set_must_misroute_global:
                self.proxy_commits[packet.pid] += 1
            original(router, port, vc, packet, decision, cycle)

        sim.routing.on_grant = on_grant

    def dateline_classes(self, hops):
        """(leg, dim, crossed) buffer class of each recorded ring hop.

        The dateline VC encodes ``2 * leg + crossed``; the ring dimension
        follows from the output port.
        """
        return [
            (vc // 2, self.topology.port_dimension(port)[0], vc % 2)
            for port, _, vc, _ in hops
        ]

    def updown_ranks(self, hops):
        """Buffer-class rank of each recorded fat-tree hop.

        An up hop out of a level-``l`` router rides link level ``l``
        (rank ``l``); a down hop out of a level-``l`` router rides link
        level ``l - 1`` (rank ``2 * L - l`` for ``L`` link levels).  The
        deadlock contract is that every path walks these ranks strictly
        ascending — up legs climb, one turn, down legs descend.
        """
        topo = self.topology
        link_levels = topo.path_model.updown_link_levels
        uplinks = topo.uplink_ports
        ranks = []
        for port, _, _, rid in hops:
            level = topo.router_level(rid)
            ranks.append(level if port in uplinks else 2 * link_levels - level)
        return ranks


def _run_recorded(topology: str, routing: str, pattern: str, load: float, seed: int):
    params = SimulationParameters.tiny(topology_preset(topology))
    if params.backend == "native":
        # The recorder wraps the Python on_grant hook, which the native core
        # does not call (it is checked against these hooks decision by
        # decision in tests/simulation/test_native_backend.py).
        params = params.with_backend("object")
    sim = Simulator(params, routing, pattern, load, seed=seed)
    recorder = HopRecorder(sim)
    sim.run_steady_state(warmup_cycles=100, measure_cycles=200)
    return sim, recorder


def _supported(topology: str, routing: str) -> bool:
    try:
        Simulator(
            SimulationParameters.tiny(topology_preset(topology)),
            routing,
            "UN",
            offered_load=0.0,
        )
    except UnsupportedTopologyError:
        return False
    return True


@pytest.fixture(params=ROUTINGS)
def contention_routing(request) -> str:
    return request.param


@pytest.fixture
def supported_pair(every_topology, contention_routing):
    """(topology, routing) pairs that construct; unsupported ones skip
    (their loud refusal is asserted by the probe-matrix suite)."""
    if not _supported(every_topology, contention_routing):
        pytest.skip(f"{contention_routing} unsupported on {every_topology}")
    return every_topology, contention_routing


class TestHopSequencesObeyPathModel:
    def test_buffer_classes_monotone(self, supported_pair):
        """Path-stage hops walk strictly increasing (kind, vc) classes;
        dateline hops walk lexicographically non-decreasing
        (leg, dim, crossed) classes — the two deadlock-freedom contracts,
        observed on live traffic instead of declared shapes."""
        topology, routing = supported_pair
        checked = 0
        for pattern, load, seed in _POINTS:
            sim, rec = _run_recorded(topology, routing, pattern, load, seed)
            for pid, hops in rec.hops.items():
                if not hops:
                    continue
                checked += 1
                if rec.dateline:
                    classes = rec.dateline_classes(hops)
                    assert all(
                        b >= a for a, b in zip(classes, classes[1:])
                    ), (topology, routing, pid, classes)
                    assert all(vc < 4 for _, _, vc, _ in hops), (pid, hops)
                elif rec.updown:
                    ranks = rec.updown_ranks(hops)
                    assert all(
                        b > a for a, b in zip(ranks, ranks[1:])
                    ), (topology, routing, pid, hops)
                    # The VC is a pure function of the output port.
                    vcs = sim.topology.updown_port_vcs
                    assert all(vc == vcs[port] for port, _, vc, _ in hops), (
                        pid,
                        hops,
                    )
                else:
                    ranks = [
                        class_rank(kind.value, vc) for _, kind, vc, _ in hops
                    ]
                    assert all(
                        b > a for a, b in zip(ranks, ranks[1:])
                    ), (topology, routing, pid, hops)
        assert checked > 0, "grid produced no routed packets"

    def test_hop_counts_respect_declared_diameters(self, supported_pair):
        """No packet exceeds the worst path its policy allows."""
        topology, routing = supported_pair
        pattern, load, seed = _POINTS[1]
        sim, rec = _run_recorded(topology, routing, pattern, load, seed)
        model = sim.topology.path_model
        if model.vc_schedule == "dateline":
            # Two Valiant legs, each traversal at most k - 1 links per ring
            # with the escape (k // 2 minimally).
            bound = 2 * sum(k - 1 for k in model.ring_lengths)
        else:
            shapes = model.valiant_hop_kinds + model.adaptive_hop_kinds
            bound = max(len(s) for s in shapes)
        for pid, hops in rec.hops.items():
            assert len(hops) <= bound, (pid, len(hops), bound)


class TestMisrouteBudgets:
    def test_misroute_counts_never_exceed_budget(self, supported_pair):
        """At most one committed global misroute (and one MM+L proxy) per
        packet; local detours bounded by the policy — two per group path,
        one ring escape per dimension on the torus, the Valiant detour
        hops on UGAL."""
        topology, routing = supported_pair
        for pattern, load, seed in _POINTS:
            sim, rec = _run_recorded(topology, routing, pattern, load, seed)
            model = sim.topology.path_model
            if routing == "UGAL":
                # Source routing: only the detour hops towards the Valiant
                # intermediate are flagged nonminimal.
                if model.vc_schedule == "dateline":
                    local_budget = sum(k // 2 for k in model.ring_lengths)
                else:
                    local_budget = model.max_valiant_hops or 1
            elif model.vc_schedule == "dateline":
                # One committed direction escape per ring dimension.
                local_budget = len(model.ring_lengths)
            elif model.vc_schedule == "up_down":
                # At most one equal-cost uplink divert per up hop.
                local_budget = model.updown_link_levels
            else:
                # MM+L: at most one local detour per visited region, and the
                # policy admits at most two along any path.
                local_budget = 2
            for pid in rec.hops:
                assert rec.global_commits[pid] <= 1, pid
                assert rec.proxy_commits[pid] <= 1, pid
                assert rec.local_misroutes[pid] <= local_budget, (
                    topology,
                    routing,
                    pid,
                    rec.local_misroutes[pid],
                    local_budget,
                )


class TestWarpBitIdentical:
    @pytest.mark.parametrize("point", range(len(_POINTS)))
    def test_warp_on_off_results_identical(self, supported_pair, point):
        """The time-warp engine only skips provably idle cycles: every
        steady-state field matches the cycle-by-cycle engine bit for bit,
        on every topology the contention mechanisms now reach."""
        topology, routing = supported_pair
        pattern, load, seed = _POINTS[point]
        results = []
        for time_warp in (True, False):
            params = SimulationParameters.tiny(topology_preset(topology))
            sim = Simulator(
                params, routing, pattern, load, seed=seed, time_warp=time_warp
            )
            results.append(
                sim.run_steady_state(warmup_cycles=100, measure_cycles=200)
            )
        assert results[0] == results[1]
