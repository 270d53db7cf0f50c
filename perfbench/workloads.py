"""The benchmark's workloads, each one call sequence into the public API.

Every workload exposes ``execute(seed)``, one repetition that returns an
:class:`Outcome`: the host time of set-up and run, the simulated cycles the
run covered, the simulated metrics and a ``stats`` value that must be
identical across repetitions of one seed.  Host time is taken only around
calls into public functions of ``repro``.
"""

from __future__ import annotations

import dataclasses
import math
import shutil
import statistics
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, Optional, Tuple

from repro.config.parameters import SimulationParameters
from repro.experiments.figure5 import FIGURE5_ROUTINGS, run_figure5
from repro.experiments.parallel import SteadyPointSpec
from repro.experiments.scales import TINY_SCALE
from repro.routing import ROUTING_REGISTRY
from repro.service import CachingSweepExecutor, DirectoryResultCache
from repro.simulation.engine import ENGINE_STATS
from repro.simulation.simulator import Simulator

__all__ = ["CheckFailed", "Outcome", "WORKLOADS", "Workload"]


class CheckFailed(Exception):
    """A workload's output failed a correctness check."""


@dataclass
class Outcome:
    """One repetition of a workload."""

    #: ``time.perf_counter`` readings: where the timed span starts, where
    #: set-up ends (``None`` when set-up happens inside the run and is not
    #: timed apart) and where the span ends.
    start: float
    built: Optional[float]
    end: float
    #: Simulated cycles the timed run covered, executed plus warped.
    cycles: int
    #: ``sim_*`` metrics: simulated time, exact for a fixed seed.
    sim: Dict[str, float]
    #: Everything the run simulated, compared across repetitions.
    stats: str
    #: Warm-replay lookups served from the cache (``fig5_sweep`` only).
    hits: int = 0
    lookups: int = 0

    @property
    def wall_s(self) -> float:
        return self.end - self.start


def _check(condition: bool, message: str) -> None:
    if not condition:
        raise CheckFailed(message)


def _steady_sim(result) -> Dict[str, float]:
    _check(math.isfinite(result.mean_latency), "latency is not finite")
    _check(result.delivered_packets > 0, "no packet delivered in the window")
    return {
        "sim_latency_mean_cycles": result.mean_latency,
        "sim_latency_p99_cycles": result.p99_latency,
        # A steady point reports no latency series; its highest statistic
        # is the 99th percentile.
        "sim_latency_peak_cycles": result.p99_latency,
        "sim_accepted_load": result.accepted_load,
    }


class Workload:
    """Base class: a named workload on one simulated system."""

    name = ""
    routings: Tuple[str, ...] = ()

    def __init__(self, backend: str, work_dir: Path):
        self.backend = backend
        #: A directory the workload may create and fill; removed by close().
        self.work_dir = work_dir

    def params(self) -> SimulationParameters:
        return SimulationParameters.transient().with_backend(self.backend)

    def routing_classes(self) -> List[type]:
        return [ROUTING_REGISTRY[r] for r in self.routings]

    def build(self, seed: int):
        """Build what one repetition simulates: the workload's set-up."""
        raise NotImplementedError

    def execute(self, seed: int) -> Outcome:
        raise NotImplementedError

    def close(self) -> None:
        """Remove anything the workload left on disk."""
        shutil.rmtree(self.work_dir, ignore_errors=True)


class SteadyPoint(Workload):
    """``Simulator(...).run_steady_state`` on the transient preset."""

    pattern = ""
    load = 0.0
    warmup_cycles = 100
    measure_cycles = 150
    drain_cycles = 100

    def build(self, seed: int) -> Simulator:
        return Simulator(
            self.params(), self.routings[0], self.pattern, self.load, seed=seed
        )

    def execute(self, seed: int) -> Outcome:
        start = time.perf_counter()
        sim = self.build(seed)
        built = time.perf_counter()
        result = sim.run_steady_state(
            self.warmup_cycles, self.measure_cycles, self.drain_cycles
        )
        done = time.perf_counter()
        return Outcome(
            start=start,
            built=built,
            end=done,
            cycles=sim.cycle,
            sim=_steady_sim(result),
            stats=repr((result, sim.cycle)),
        )


class UniformBase(SteadyPoint):
    name = "un_base"
    routings = ("Base",)
    pattern = "UN"
    load = 0.3


class AdversarialSaturatedBase(SteadyPoint):
    name = "adv_sat_base"
    routings = ("Base",)
    pattern = "ADV+1"
    load = 0.6
    # Past most of the fill-up from an empty network: see perfbench/README.md.
    warmup_cycles = 300
    measure_cycles = 60
    drain_cycles = 60


class TransientECtN(Workload):
    """The figs. 7-9 protocol: UN switching to ADV+1 under ECtN."""

    name = "transient_ectn"
    routings = ("ECtN",)
    load = 0.3
    switch_cycle = 100
    observe_before = 20
    observe_after = 100
    bin_size = 20
    drain_cycles = 40

    def build(self, seed: int) -> Simulator:
        return Simulator.build_transient(
            self.params(), "ECtN", "UN", "ADV+1", self.load,
            switch_cycle=self.switch_cycle, seed=seed,
        )

    def execute(self, seed: int) -> Outcome:
        start = time.perf_counter()
        sim = self.build(seed)
        built = time.perf_counter()
        result = sim.run_transient(
            self.switch_cycle, self.observe_before, self.observe_after,
            self.bin_size, self.drain_cycles,
        )
        done = time.perf_counter()
        series = result.mean_latency
        after = [v for c, v in zip(result.cycles, series) if c >= 0]
        delivered = sim.engine.delivered_packets
        _check(bool(after), "no bin after the switch")
        _check(all(math.isfinite(v) for v in series), "latency is not finite")
        _check(delivered > 0, "no packet delivered")
        nodes = sim.topology.num_nodes
        return Outcome(
            start=start,
            built=built,
            end=done,
            cycles=sim.cycle,
            sim={
                "sim_latency_mean_cycles": statistics.fmean(series),
                # 99th percentile of the binned latency series.
                "sim_latency_p99_cycles": statistics.quantiles(
                    series, n=100, method="inclusive"
                )[98],
                "sim_latency_peak_cycles": max(after),
                # Phits delivered per node per cycle over the whole run.
                "sim_accepted_load": delivered * sim.params.packet_size_phits
                / (nodes * sim.cycle),
            },
            stats=repr((result, delivered, sim.cycle)),
        )


class Figure5Sweep(Workload):
    """``run_figure5("UN", TINY_SCALE)`` through a fresh on-disk result cache."""

    name = "fig5_sweep"
    routings = tuple(FIGURE5_ROUTINGS)

    def params(self) -> SimulationParameters:
        return TINY_SCALE.params.with_backend(self.backend)

    def scale(self, seed: int):
        return dataclasses.replace(TINY_SCALE, params=self.params(), seeds=(seed,))

    def specs(self, seed: int) -> List[SteadyPointSpec]:
        """The sweep's points, in the order ``load_sweep`` builds them."""
        scale = self.scale(seed)
        return [
            SteadyPointSpec(
                scale.params, routing, "UN", load,
                scale.warmup_cycles, scale.measure_cycles, seed,
            )
            for routing in self.routings
            for load in scale.un_loads
        ]

    def build(self, seed: int) -> List[Simulator]:
        """Every point's ``Simulator``, as the sweep builds them one by one."""
        return [
            Simulator(spec.params, spec.routing, spec.pattern, spec.offered_load,
                      seed=spec.seed)
            for spec in self.specs(seed)
        ]

    def execute(self, seed: int) -> Outcome:
        scale = self.scale(seed)
        cache_dir = self.work_dir / "cache"
        shutil.rmtree(cache_dir, ignore_errors=True)
        executor = _RecordingExecutor(cache=DirectoryResultCache(cache_dir), workers=1)
        try:
            cycles_before = ENGINE_STATS.cycles_total
            start = time.perf_counter()
            rows = run_figure5("UN", scale, executor=executor)
            done = time.perf_counter()
            cycles = ENGINE_STATS.cycles_total - cycles_before
            computed = executor.results
            hits_before, lookups_before = executor.stats.hits, executor.stats.lookups
            replay = run_figure5("UN", scale, executor=executor)
            hits = executor.stats.hits - hits_before
            lookups = executor.stats.lookups - lookups_before
            points = executor.results
        finally:
            executor.close()
            shutil.rmtree(cache_dir, ignore_errors=True)
        _check(len(rows) == len(points), "sweep returned the wrong number of rows")
        _check(repr(replay) == repr(rows), "warm replay differs from the cold pass")
        _check(repr(points) == repr(computed), "cached points differ from the computed ones")
        _check(hits == lookups == len(rows), "warm replay missed the cache")
        for row in rows:
            _check(math.isfinite(row["mean_latency"]), "latency is not finite")
            _check(row["accepted_load"] > 0, "no packet delivered at a point")
        latencies = [row["mean_latency"] for row in rows]
        curve_peaks: Dict[str, float] = {}
        for row in rows:
            routing = row["routing"]
            curve_peaks[routing] = max(curve_peaks.get(routing, 0.0), row["mean_latency"])
        return Outcome(
            start=start,
            built=None,
            end=done,
            cycles=cycles,
            sim={
                "sim_latency_mean_cycles": statistics.fmean(latencies),
                "sim_latency_p99_cycles": statistics.fmean(p.p99_latency for p in points),
                # Mean over the mechanisms of each latency curve's highest point.
                "sim_latency_peak_cycles": statistics.fmean(curve_peaks.values()),
                "sim_accepted_load": statistics.fmean(r["accepted_load"] for r in rows),
            },
            stats=repr((rows, points)),
            hits=hits,
            lookups=lookups,
        )


class _RecordingExecutor(CachingSweepExecutor):
    """Keeps the point results of its last ``map``: the rows drop the p99."""

    results: list

    def map(self, func, items):
        self.results = super().map(func, items)
        return self.results


WORKLOADS: Dict[str, type] = {
    cls.name: cls
    for cls in (UniformBase, AdversarialSaturatedBase, TransientECtN, Figure5Sweep)
}
