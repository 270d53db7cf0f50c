"""The struct-of-arrays backend is bit-identical to the object model.

Three layers of evidence, from broad to microscopic:

* a seeded **property grid** — a random sample of (topology x routing x
  load x pattern x faults) combinations, each run to completion on both
  backends and compared field-for-field (plus a golden-style SHA-256 over
  the canonical JSON of the result, the same "last float bit" contract the
  goldens pin);
* **lockstep state equality** — one simulation stepped cycle-by-cycle on
  both backends, comparing every buffer occupancy, credit count and link
  timer of the network after every cycle, so a divergence is caught at the
  cycle it first appears instead of smeared into end-of-run aggregates;
* **micro-state kernel tests** — the SoA allocator round driven against
  the object model's ``SeparableAllocator`` on hand-built request sets
  (contended, uncontested, single), and the batched numpy kernels checked
  against their scalar reference expressions.

The property grid here complements the golden suite: goldens pin fixed
results forever, while this grid asserts *cross-backend* identity on fresh
scenarios every time the sample is changed.
"""

from __future__ import annotations

import random

import numpy as np
import pytest

from repro.config.parameters import (
    SimulationParameters,
    VALID_BACKENDS,
    default_backend,
)
from repro.network.allocator import AllocationRequest, SeparableAllocator
from repro.routing import UnsupportedTopologyError, available_routings
# The golden-style digest (SHA-256 over the canonical JSON of the result)
# is the same one the sweep-service cache verifies on every lookup, so the
# cross-backend identity asserted here is exactly the property that makes
# serving an object-computed cache row to an soa request sound.
from repro.service.keys import result_fingerprint as _result_fingerprint
from repro.simulation.simulator import Simulator
from repro.topology.faults import FaultModel
from repro.topology.registry import topology_preset

pytestmark = pytest.mark.filterwarnings("ignore::UserWarning")


def _run(backend: str, combo) -> tuple:
    params = SimulationParameters.tiny().with_topology(
        topology_preset(combo["topology"], "tiny")
    )
    params = params.with_backend(backend)
    fault_model = (
        FaultModel(link_failure_percent=10.0) if combo["faults"] else None
    )
    sim = Simulator(
        params,
        combo["routing"],
        combo["pattern"],
        combo["load"],
        seed=combo["seed"],
        fault_model=fault_model,
    )
    result = sim.run_steady_state(warmup_cycles=80, measure_cycles=160)
    return result.as_dict(), _result_fingerprint(result), sim.engine.cycle


def _sample_grid(n: int):
    """Seeded random sample over the full combination space.

    Unsupported (topology, routing) pairs are skipped *after* drawing, so
    the sample stays deterministic when new mechanisms register.
    """
    rng = random.Random(20260808)
    topologies = ("dragonfly", "flattened_butterfly", "full_mesh", "torus")
    routings = tuple(sorted(available_routings()))
    combos = []
    while len(combos) < n:
        combo = {
            "topology": rng.choice(topologies),
            "routing": rng.choice(routings),
            "pattern": rng.choice(("UN", "ADV+1")),
            "load": rng.choice((0.2, 0.45, 0.7)),
            "faults": rng.random() < 0.4,
            "seed": rng.randrange(1, 10_000),
        }
        try:
            _probe = Simulator(
                SimulationParameters.tiny().with_topology(
                    topology_preset(combo["topology"], "tiny")
                ),
                combo["routing"],
                combo["pattern"],
                0.1,
                seed=1,
            )
        except UnsupportedTopologyError:
            continue
        del _probe
        if combo not in combos:
            combos.append(combo)
    return combos


GRID = _sample_grid(8)


class TestPropertyGrid:
    @pytest.mark.parametrize(
        "combo",
        GRID,
        ids=lambda c: (
            f"{c['topology']}-{c['routing']}-{c['pattern']}-{c['load']}"
            f"-{'faults' if c['faults'] else 'clean'}-s{c['seed']}"
        ),
    )
    def test_object_and_soa_agree_bit_for_bit(self, combo):
        obj_dict, obj_hash, obj_cycle = _run("object", combo)
        soa_dict, soa_hash, soa_cycle = _run("soa", combo)
        assert soa_dict == obj_dict
        assert soa_hash == obj_hash
        assert soa_cycle == obj_cycle


class TestLockstepState:
    def _snapshot(self, engine):
        """Every buffer/credit/link observable of the network, any backend."""
        if hasattr(engine, "_st"):
            st = engine._st
            return (
                tuple(st.in_free),
                tuple(st.credits),
                tuple(st.out_committed),
                tuple(st.out_free),
                tuple(st.credit_occ),
                tuple(st.link_busy),
            )
        in_free, credits, committed, out_free, cred_occ, busy = [], [], [], [], [], []
        network = engine.network
        max_vcs = max(
            len(ip.vcs) for r in network.routers for ip in r.input_ports
        )
        for router in network.routers:
            for ip in router.input_ports:
                vals = [ivc.buffer.free_phits for ivc in ip.vcs]
                in_free.extend(vals + [0] * (max_vcs - len(vals)))
            for op in router.output_ports:
                vals = list(op.credits)
                credits.extend(vals + [0] * (max_vcs - len(vals)))
                committed.append(op.buffer.committed_phits)
                out_free.append(op.buffer.free_phits)
                cred_occ.append(op.credit_occupied)
                busy.append(op.link_busy_until)
        return (
            tuple(in_free),
            tuple(credits),
            tuple(committed),
            tuple(out_free),
            tuple(cred_occ),
            tuple(busy),
        )

    @pytest.mark.parametrize("routing", ["OLM", "PB"])
    def test_every_cycle_state_is_identical(self, routing):
        sims = {
            backend: Simulator(
                SimulationParameters.tiny().with_backend(backend),
                routing,
                "ADV+1",
                0.5,
                seed=3,
            )
            for backend in ("object", "soa")
        }
        for cycle in range(120):
            snaps = {}
            for backend, sim in sims.items():
                sim.run_cycles(1)
                snaps[backend] = self._snapshot(sim.engine)
            assert snaps["soa"] == snaps["object"], f"diverged at cycle {cycle}"
        assert (
            sims["soa"].engine.delivered_packets
            == sims["object"].engine.delivered_packets
        )


def _soa_engine():
    sim = Simulator(
        SimulationParameters.tiny().with_backend("soa"), "MIN", "UN", 0.1, seed=1
    )
    return sim.engine


class TestAllocRoundMicroStates:
    """``_alloc_round`` vs the object ``SeparableAllocator``, same requests."""

    def _compare_sequences(self, engine, request_rounds):
        st = engine._st
        P, nvc = st.P, st.alloc_nvc[0]
        reference = SeparableAllocator(num_ports=P, max_vcs=nvc)
        for requests in request_rounds:
            ref_grants = reference.allocate(requests)
            soa_grants = engine._alloc_round(0, 0, requests)
            assert [
                (g[0], g[1], g[2]) for g in soa_grants
            ] == [
                (g.input_port, g.input_vc, g.output_port) for g in ref_grants
            ]

    def _request(self, in_port, vc, out_port, size=4):
        return AllocationRequest(
            input_port=in_port, input_vc=vc, output_port=out_port, size_phits=size
        )

    def test_single_request_rotates_and_grants(self):
        self._compare_sequences(
            _soa_engine(),
            [[self._request(0, 0, 3)], [self._request(0, 1, 3)]],
        )

    def test_output_port_conflict_round_robin(self):
        # Three inputs fight over one output across rounds: the round-robin
        # pointers must hand the output around in the same order.
        conflict = [
            self._request(0, 0, 3),
            self._request(1, 0, 3),
            self._request(2, 0, 3),
        ]
        self._compare_sequences(_soa_engine(), [conflict] * 4)

    def test_input_vc_conflict_round_robin(self):
        conflict = [
            self._request(0, 0, 2),
            self._request(0, 1, 3),
        ]
        self._compare_sequences(_soa_engine(), [conflict] * 3)

    def test_all_distinct_fast_path(self):
        self._compare_sequences(
            _soa_engine(),
            [[self._request(0, 0, 2), self._request(1, 1, 3)]],
        )

    def test_randomized_contention_sequences(self):
        engine = _soa_engine()
        st = engine._st
        P, nvc = st.P, st.alloc_nvc[0]
        rng = random.Random(7)
        rounds = []
        for _ in range(60):
            seen = set()
            requests = []
            for _ in range(rng.randrange(1, 6)):
                key = (rng.randrange(P), rng.randrange(nvc))
                if key in seen:  # one request per (input port, VC)
                    continue
                seen.add(key)
                requests.append(self._request(key[0], key[1], rng.randrange(P)))
            rounds.append(requests)
        self._compare_sequences(engine, rounds)


class TestBatchedKernels:
    def test_pb_saturation_flags_match_scalar_expression(self):
        from repro.simulation.soa.kernels import pb_saturation_flags

        rng = np.random.default_rng(11)
        occupancy = rng.integers(0, 64, size=200)
        capacity = rng.integers(1, 64, size=200)
        for fraction in (0.0, 0.25, 0.5, 0.875, 1.0):
            flags = pb_saturation_flags(occupancy, capacity, fraction)
            expected = [
                occ >= fraction * cap for occ, cap in zip(occupancy, capacity)
            ]
            assert flags.tolist() == expected

    def test_combine_rows_matches_column_sums(self):
        from repro.simulation.soa.kernels import combine_rows

        rng = random.Random(13)
        rows = [[rng.randrange(0, 50) for _ in range(16)] for _ in range(9)]
        expected = [sum(col) for col in zip(*rows)]
        combined = combine_rows(rows)
        assert combined == expected
        assert all(isinstance(value, int) for value in combined)


class TestBackendPlumbing:
    def test_invalid_backend_rejected(self):
        with pytest.raises(ValueError, match="backend"):
            SimulationParameters.tiny().with_backend("vectorized")

    def test_create_engine_rejects_unknown_backend(self):
        from repro.simulation.backends import create_engine

        with pytest.raises(ValueError, match="unknown backend"):
            create_engine("simd", None, None)

    def test_backend_recorded_in_as_dict(self):
        params = SimulationParameters.tiny().with_backend("soa")
        assert params.as_dict()["backend"] == "soa"

    def test_env_variable_sets_default_backend(self, monkeypatch):
        monkeypatch.setenv("REPRO_BACKEND", "soa")
        assert default_backend() == "soa"
        assert SimulationParameters.tiny().backend == "soa"
        monkeypatch.delenv("REPRO_BACKEND")
        assert SimulationParameters.tiny().backend == "native"

    def test_valid_backends_build_engines(self, monkeypatch):
        # Probes from the environment would send "native" to the object engine.
        monkeypatch.delenv("REPRO_OBS", raising=False)
        from repro.simulation.engine import Engine
        from repro.simulation.native.build import load_core
        from repro.simulation.soa import SoAEngine

        for backend in sorted(VALID_BACKENDS):
            sim = Simulator(
                SimulationParameters.tiny().with_backend(backend),
                "MIN",
                "UN",
                0.1,
                seed=1,
            )
            if backend == "native" and load_core() is None:
                # No compiler or cffi here: the documented fallback.
                assert sim.engine.kind == "object"
            else:
                assert sim.engine.kind == backend
            if backend == "object":
                assert type(sim.engine) is Engine
            elif backend == "soa":
                assert isinstance(sim.engine, SoAEngine)
