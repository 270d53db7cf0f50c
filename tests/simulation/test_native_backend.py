"""The native core: draws, decisions, whole runs, fallback and the build cache.

The native engine (``backend="native"``, the default) runs healthy-Dragonfly
MIN and Base in C.  Its contract is bit-identity with the object engine, so
every test here compares against the Python model rather than against
recorded numbers:

* the C port of numpy's bounded integer draw equals ``Generator.integers``;
* the C trigger and MM+L policy equal ``select_output`` on hand-built router
  states (SNIPPETS.md Snippet 1 style), RNG draws included;
* whole runs equal the object engine's, down to the routing stream's state;
* a failed build falls back to the object engine with identical results;
* the build runs in a child process, is cached by source and ABI, and is
  published atomically.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from repro.config.parameters import SimulationParameters
from repro.network.packet import Packet, RoutingPhase
from repro.obs import ObservationConfig
from repro.simulation import simulator as simulator_module
from repro.simulation.native import build as native_build
from repro.simulation.simulator import Simulator

SRC = Path(__file__).resolve().parents[2] / "src"

pytestmark = pytest.mark.skipif(
    native_build.load_core() is None,
    reason=f"native core unavailable: {native_build.build_error()}",
)


@pytest.fixture(autouse=True)
def _no_env_probes(monkeypatch):
    """``REPRO_OBS`` (the CI probes lane) would send every run to the object
    engine; the tests that exercise that fallback set it themselves."""
    monkeypatch.delenv("REPRO_OBS", raising=False)


def _params(preset: str = "tiny", backend: str = "native") -> SimulationParameters:
    return getattr(SimulationParameters, preset)().with_backend(backend)


# ------------------------------------------------------------ bounded draws
class TestBoundedDraw:
    BOUNDS = (
        [1, 2, 3, 5, 7, 10, 17, 100, 1000, 12345, 2**16 + 1, 2**31 - 1, 2**31]
        + [2**32 - 3, 2**32 - 2, 2**32 - 1, 2**32, 2**32 + 1, 2**33 + 7]
        + [2**40 + 123, 2**62 + 1, 2**63 - 1]
    )

    def test_matches_generator_integers(self):
        ffi, lib = native_build.load_core()
        reference = np.random.default_rng(2024)
        candidate = np.random.default_rng(2024)
        bitgen = ffi.cast("void *", candidate.bit_generator.ctypes.bit_generator.value)
        bounds = list(self.BOUNDS) + [
            int(n) for n in np.random.default_rng(7).integers(1, 50, size=3000)
        ]
        for n in bounds:
            expected = int(reference.integers(0, n))
            assert lib.core_draw_bounded(bitgen, n) == expected, n
        # Same number of words consumed, same buffered half-word.
        assert candidate.bit_generator.state == reference.bit_generator.state
        assert candidate.random() == reference.random()

    def test_bound_one_draws_nothing(self):
        ffi, lib = native_build.load_core()
        rng = np.random.default_rng(3)
        before = rng.bit_generator.state
        bitgen = ffi.cast("void *", rng.bit_generator.ctypes.bit_generator.value)
        assert lib.core_draw_bounded(bitgen, 1) == 0
        assert rng.bit_generator.state == before


# ------------------------------------------------------- decision differential
def _packet(dst: int, **state) -> Packet:
    packet = Packet(pid=0, src=0, dst=dst, size_phits=8, creation_cycle=0)
    for name, value in state.items():
        setattr(packet, name, value)
    return packet


class _Pair:
    """An object-engine and a native simulator sharing a seed."""

    def __init__(self, routing: str, preset: str = "small", seed: int = 11):
        self.obj = Simulator(_params(preset, "object"), routing, "UN", 0.0, seed=seed)
        self.nat = Simulator(_params(preset, "native"), routing, "UN", 0.0, seed=seed)
        assert self.nat.engine.kind == "native"
        self.topology = self.obj.topology
        self.threshold = self.obj.params.base_contention_threshold

    def decide(self, rid: int, packet: Packet, counts):
        routing = self.obj.routing
        if hasattr(routing, "tracker"):
            routing.tracker.counters(rid).counts[:] = counts
        twin = Packet(**{f: getattr(packet, f) for f in Packet.__dataclass_fields__})
        expected = routing.select_output(self.obj.network.routers[rid], 0, 0, packet, 0)
        actual = self.nat.engine.select_output(rid, twin, counts)
        assert actual == expected, (rid, packet, counts)
        assert (
            self.nat.rng.bit_generator.state == self.obj.rng.bit_generator.state
        ), "the core drew differently from the routing stream"
        return expected


class TestDecisionDifferential:
    """C trigger + policy vs ``BaseContentionRouting.select_output``."""

    def _counts(self, pair, value, overrides=()):
        counts = [value] * pair.topology.router_radix
        for port, count in overrides:
            counts[port] = count
        return counts

    def _remote(self, pair, rid):
        """A destination node two groups away (not reachable locally)."""
        topo = pair.topology
        group = topo.router_region(rid)
        dst_group = (group + 2) % topo.num_groups
        return topo.group_nodes(dst_group)[0]

    def test_plain_global_misroute(self):
        pair = _Pair("Base")
        th = pair.threshold
        topo = pair.topology
        rid = 0
        dst = self._remote(pair, rid)
        minimal = topo.minimal_output_port(rid, dst)
        # Minimal port over the threshold, everything else free: after the
        # first hop only the router's own global links are candidates.
        counts = self._counts(pair, 0, [(minimal, th + 1)])
        packet = _packet(dst, hops=1, local_hops=1, local_hops_in_group=1,
                         contention_port=minimal)
        decision = pair.decide(rid, packet, counts)
        assert decision.nonminimal_global
        assert decision.set_intermediate_group is not None
        assert topo.port_kinds[decision.output_port].value == "global"

    def test_local_proxy_at_injection(self):
        pair = _Pair("Base")
        th = pair.threshold
        topo = pair.topology
        rid = 0
        dst = self._remote(pair, rid)
        minimal = topo.minimal_output_port(rid, dst)
        # Own global links saturated: only the local proxies qualify.
        counts = self._counts(
            pair, 0, [(minimal, th + 1)] + [(p, th) for p in topo.global_ports]
        )
        decision = pair.decide(rid, _packet(dst, contention_port=minimal), counts)
        assert decision.set_must_misroute_global
        assert topo.port_kinds[decision.output_port].value == "local"

    @pytest.mark.parametrize("free", [True, False])
    def test_forced_global_after_proxy(self, free):
        pair = _Pair("Base")
        th = pair.threshold
        topo = pair.topology
        rid = 1
        dst = self._remote(pair, rid)
        minimal = topo.minimal_output_port(rid, dst)
        # ``free=False``: no candidate under the threshold, so the forced
        # hop falls back to a uniform pick over all candidates (a draw).
        value = 0 if free else th + 2
        counts = self._counts(pair, value, [(minimal, th + 1)])
        packet = _packet(dst, hops=1, local_hops=1, local_hops_in_group=1,
                         must_misroute_global=True, contention_port=minimal)
        decision = pair.decide(rid, packet, counts)
        assert decision.nonminimal_global

    def test_local_detour_in_destination_group(self):
        pair = _Pair("Base")
        th = pair.threshold
        topo = pair.topology
        rid = 0
        dst = topo.router_nodes(topo.group_routers(0)[2])[0]
        minimal = topo.minimal_output_port(rid, dst)
        counts = self._counts(pair, 0, [(minimal, th + 1)])
        decision = pair.decide(rid, _packet(dst, contention_port=minimal), counts)
        assert decision.nonminimal_local

    @pytest.mark.parametrize("delta", [-1, 0, 1])
    def test_trigger_threshold_edges(self, delta):
        pair = _Pair("Base")
        th = pair.threshold
        topo = pair.topology
        rid = 0
        dst = self._remote(pair, rid)
        minimal = topo.minimal_output_port(rid, dst)
        counts = self._counts(pair, th - 1, [(minimal, th + delta)])
        decision = pair.decide(rid, _packet(dst, contention_port=minimal), counts)
        # The trigger fires strictly above the threshold; candidates must be
        # strictly below it.
        assert (decision.output_port != minimal) == (delta > 0)

    @pytest.mark.parametrize("routing", ["Base", "MIN"])
    def test_random_states_agree(self, routing):
        pair = _Pair(routing)
        topo = pair.topology
        th = pair.threshold
        rng = np.random.default_rng(99)
        for _ in range(1500):
            rid = int(rng.integers(topo.num_routers))
            dst = int(rng.integers(topo.num_nodes))
            ghops = int(rng.integers(0, 3))
            phase = RoutingPhase.TO_INTERMEDIATE if rng.random() < 0.2 else RoutingPhase.MINIMAL
            packet = _packet(
                dst,
                hops=int(rng.integers(0, 4)),
                global_hops=ghops,
                local_hops_in_group=int(rng.integers(0, 2)),
                globally_misrouted=bool(rng.random() < 0.3),
                must_misroute_global=bool(rng.random() < 0.2),
                phase=phase,
                intermediate_group=(
                    int(rng.integers(topo.num_groups))
                    if phase is RoutingPhase.TO_INTERMEDIATE
                    else None
                ),
                contention_port=(
                    topo.minimal_output_port(rid, dst) if rng.random() < 0.7 else None
                ),
            )
            counts = [int(c) for c in rng.integers(0, 2 * th + 2, size=topo.router_radix)]
            pair.decide(rid, packet, counts)


# ---------------------------------------------------------------- whole runs
def _steady(backend, routing, pattern, load, seed, preset="tiny", **kwargs):
    sim = Simulator(_params(preset, backend), routing, pattern, load, seed=seed, **kwargs)
    result = sim.run_steady_state(150, 300)
    return sim, (repr(result), sim.cycle, sim.engine.cycles_skipped, sim.rng.random())


class TestWholeRuns:
    @pytest.mark.parametrize("routing", ["MIN", "Base"])
    @pytest.mark.parametrize("pattern,load", [("UN", 0.4), ("ADV+1", 0.5), ("ADV+h", 0.3)])
    def test_native_equals_object(self, routing, pattern, load):
        native, got = _steady("native", routing, pattern, load, seed=3)
        obj, want = _steady("object", routing, pattern, load, seed=3)
        assert native.engine.kind == "native"
        assert obj.engine.kind == "object"
        # Results, cycle accounting and the routing stream's final state.
        assert got == want

    def test_without_time_warp(self):
        _, got = _steady("native", "Base", "UN", 0.1, seed=5, time_warp=False)
        _, want = _steady("object", "Base", "UN", 0.1, seed=5, time_warp=True)
        assert got[0] == want[0] and got[3] == want[3]

    def test_delivered_packets_carry_their_routing_fields(self):
        metrics_packets = {}
        for backend in ("object", "native"):
            sim = Simulator(_params("tiny", backend), "Base", "ADV+1", 0.5, seed=9)
            delivered = []
            from repro.metrics.collector import MetricsCollector

            class Recorder(MetricsCollector):
                def record_delivery(self, packet, cycle):
                    delivered.append((cycle, repr(packet), packet.latency,
                                      packet.misroute_recorded_cycle,
                                      packet.injection_cycle))
                    super().record_delivery(packet, cycle)

            sim.engine.metrics = Recorder(sim.topology.num_nodes, 0, 400)
            sim.run_cycles(400)
            metrics_packets[backend] = delivered
        assert metrics_packets["native"] == metrics_packets["object"]
        assert metrics_packets["native"]

    def test_python_tracker_mirrors_the_core_counters(self):
        counts = []
        for backend in ("object", "native"):
            sim = Simulator(_params("tiny", backend), "Base", "ADV+1", 0.6, seed=6)
            sim.run_cycles(250)
            tracker = sim.routing.tracker
            counts.append(
                [tracker.counters(r).snapshot() for r in range(sim.topology.num_routers)]
            )
        assert counts[0] == counts[1]
        assert any(any(row) for row in counts[1])

    def test_transient_run_matches(self):
        results = []
        for backend in ("object", "native"):
            sim = Simulator.build_transient(
                _params("tiny", backend), "Base", "UN", "ADV+1", 0.4, switch_cycle=200, seed=2
            )
            results.append(repr(sim.run_transient(200, 50, 150, bin_size=25)))
        assert results[0] == results[1]


# -------------------------------------------------------------- eligibility
class TestFallback:
    @pytest.mark.parametrize("routing", ["VAL", "UGAL", "PB", "OLM", "Hybrid", "ECtN"])
    def test_other_mechanisms_run_on_the_object_engine(self, routing):
        sim = Simulator(_params(), routing, "UN", 0.2, seed=1)
        assert sim.engine.kind == "object"

    def test_other_topologies_run_on_the_object_engine(self):
        from repro.topology.registry import topology_preset

        params = _params().with_topology(topology_preset("torus", "tiny"))
        sim = Simulator(params, "MIN", "UN", 0.2, seed=1)
        assert sim.engine.kind == "object"

    def test_probes_run_on_the_object_engine(self, monkeypatch):
        sim = Simulator(_params(), "Base", "UN", 0.2, seed=1,
                        observation=ObservationConfig())
        assert sim.engine.kind == "object"
        assert sim.obs.manifest["engine"] == "object"
        monkeypatch.setenv("REPRO_OBS", "sample=1.0")
        assert Simulator(_params(), "Base", "UN", 0.2, seed=1).engine.kind == "object"

    def test_late_probe_attachment_switches_before_the_first_run(self):
        sim = Simulator(_params(), "Base", "UN", 0.2, seed=1)
        assert sim.engine.kind == "native"
        sim.attach_observation(ObservationConfig())
        assert sim.engine.kind == "object"
        ran = Simulator(_params(), "Base", "UN", 0.2, seed=1)
        ran.run_cycles(10)
        with pytest.raises(RuntimeError, match="before a native run"):
            ran.attach_observation(ObservationConfig())

    def test_failed_build_falls_back_bit_identically(self, monkeypatch, tmp_path):
        blocker = tmp_path / "not-a-directory"
        blocker.write_text("")
        monkeypatch.setattr(native_build, "_CORE", None)
        monkeypatch.setattr(native_build, "cache_root", lambda: blocker / "cache")
        sim, got = _steady("native", "Base", "ADV+1", 0.5, seed=4)
        assert sim.engine.kind == "object"
        assert native_build.build_error() is not None
        _, want = _steady("object", "Base", "ADV+1", 0.5, seed=4)
        assert got == want

    def test_manifest_records_the_engine(self):
        from repro.obs.telemetry import build_manifest

        sim = Simulator(_params(), "MIN", "UN", 0.2, seed=1)
        assert build_manifest(sim)["engine"] == "native"

    def test_native_run_builds_no_object_network(self, monkeypatch):
        def forbidden(*args, **kwargs):
            raise AssertionError("a native run must not build the object network")

        monkeypatch.setattr(simulator_module, "Network", forbidden)
        sim = Simulator(_params(), "Base", "UN", 0.3, seed=1)
        sim.run_steady_state(50, 100)
        assert sim.engine.kind == "native"


# ---------------------------------------------------------- build and cache
_PROBE = r"""
import json, sys
sys.path.insert(0, sys.argv[1])
from repro.simulation.native import build
core = build.load_core()
print(json.dumps({
    "loaded": core is not None,
    "error": build.build_error(),
    "cffi_imported": "cffi" in sys.modules,
    "pycparser_imported": "pycparser" in sys.modules,
    "name": build.module_name(),
}))
"""


def _probe(cache: Path) -> dict:
    env = dict(os.environ, XDG_CACHE_HOME=str(cache))
    out = subprocess.run(
        [sys.executable, "-c", _PROBE, str(SRC)],
        env=env, capture_output=True, text=True, check=True,
    )
    return json.loads(out.stdout.strip().splitlines()[-1])


class TestBuildCache:
    def test_cold_parallel_builds_then_warm_load(self, tmp_path):
        cache = tmp_path / "xdg"
        env = dict(os.environ, XDG_CACHE_HOME=str(cache))
        # Two workers race on a cold cache: both build, both publish a whole
        # file with os.replace, neither sees a partial one.
        racers = [
            subprocess.Popen(
                [sys.executable, "-c", _PROBE, str(SRC)],
                env=env, stdout=subprocess.PIPE, text=True,
            )
            for _ in range(2)
        ]
        reports = [json.loads(p.communicate()[0].strip().splitlines()[-1]) for p in racers]
        assert all(r["loaded"] for r in reports), reports
        # The compile ran in a child: cffi's builder never entered them.
        assert not any(r["cffi_imported"] or r["pycparser_imported"] for r in reports)
        root = cache / "repro-native"
        built = sorted(root.iterdir())
        # Exactly the one keyed module, no temporary build directories left.
        assert [p.name.startswith(reports[0]["name"]) for p in built] == [True]
        mtime = built[0].stat().st_mtime_ns
        warm = _probe(cache)
        assert warm["loaded"]
        # Warm load: no rebuild, and cffi's builder never enters the process.
        assert built[0].stat().st_mtime_ns == mtime
        assert not warm["cffi_imported"] and not warm["pycparser_imported"]

    def test_key_covers_the_source(self, monkeypatch, tmp_path):
        name = native_build.module_name()
        changed = tmp_path / "core.c"
        changed.write_text(native_build._SOURCE.read_text() + "\n/* edited */\n")
        monkeypatch.setattr(native_build, "_SOURCE", changed)
        assert native_build.module_name() != name


# ---------------------------------------------------------- engine surface
class TestEngineSurface:
    def test_buffered_and_source_queues_drain(self):
        sim = Simulator(_params(), "Base", "UN", 0.3, seed=4)
        sim.run_cycles(300)
        sim.traffic.set_offered_load(0.0)
        sim.run_cycles(5_000)
        assert sim.engine.total_buffered_packets() == 0
        # Every generated packet left its source queue and was delivered.
        assert sim.engine.delivered_packets == sim.traffic.generated_packets

    def test_out_of_range_inputs_are_rejected_before_the_core(self):
        sim = Simulator(_params(), "MIN", "UN", 0.0, seed=1)
        radix = sim.topology.router_radix
        packet = Packet(pid=0, src=0, dst=1, size_phits=8, creation_cycle=0)
        with pytest.raises(ValueError, match="router"):
            sim.engine.schedule_arrival(sim.topology.num_routers, 0, 5, 0, packet)
        with pytest.raises(ValueError, match="port"):
            sim.engine.set_link_busy(0, radix, 10)
        with pytest.raises(ValueError, match="vc"):
            sim.engine.schedule_arrival(0, 0, 5, 99, packet)
        with pytest.raises(ValueError, match="counters"):
            sim.engine.select_output(0, packet, [0] * (radix - 1))
        packet.dst = sim.topology.num_nodes
        with pytest.raises(ValueError, match="destination"):
            sim.engine.select_output(0, packet, [0] * radix)
