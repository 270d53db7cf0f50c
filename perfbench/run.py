"""Outside-in benchmark of the Dragonfly routing simulator.

Run from the root of a checkout::

    python3 perfbench/run.py --workload un_base --seed 1 --seconds 20 --trace 0

One invocation runs one workload, in this process, serially, on the
default backend (``--backend`` selects another one for A/B comparisons),
with ``REPRO_BACKEND`` and ``REPRO_OBS`` cleared.  It repeats the workload
while another repetition fits in ``--seconds`` of host time (at least
``MIN_REPS`` times), checks the simulated results, and prints every metric
by name and unit.  The last line of standard output is one JSON object::

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

``--trace 0`` reports the end-to-end metrics, measured untraced.  Their
host times are converted to seconds on a reference host, with the host's
speed sampled all through the run (see ``calibration.py``).
``--trace 1`` alternates untraced and traced repetitions and reports the
per-layer metrics of the traced ones (see ``layers.py``).

A repetition counts as failed when it raises (a stall, a sweep point
failure, any other error) or when its output fails a check: a latency that
is not finite, no deliveries, a warm replay that differs from its cold
pass or misses the cache, or simulated statistics that differ from the
first repetition's (untraced and traced alike).
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import resource
import statistics
import sys
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
#: The workloads and the metrics with their units and bounds.
SPEC_FILE = ROOT / "BENCHMARK.json"
#: Where ``fig5_sweep`` keeps its result caches; removed on exit.
WORK_DIR = ROOT / ".perfbench-work"
#: Fewest repetitions per run, whatever ``--seconds`` says.
MIN_REPS = 2
#: Fewest set-ups timed apart from the repetitions, and the fewest host
#: seconds they take together; their median is ``setup_s``.
SETUP_REPEATS = 15
SETUP_SECONDS = 1.5


def _import_program():
    """Put the checkout's ``src`` first on the path and check it is used."""
    if not (SRC / "repro" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no simulator sources under {SRC}")
    for name in ("REPRO_BACKEND", "REPRO_OBS"):
        os.environ.pop(name, None)
    sys.path.insert(0, str(SRC))
    import repro

    if Path(repro.__file__).resolve().parent != SRC / "repro":
        raise SystemExit(f"perfbench: imported repro from {repro.__file__}, not {SRC}")


def fingerprint(workload) -> dict:
    import numpy

    from repro.obs.telemetry import config_hash, git_revision

    return {
        "workload": workload.name,
        "backend": workload.backend,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": os.cpu_count(),
        "git_rev": git_revision(ROOT),
        "config_hash": config_hash(workload.params()),
    }


class Runner:
    """Runs repetitions of one workload and applies the identity checks."""

    def __init__(self, workload, seed: int):
        self.workload = workload
        self.seed = seed
        self.attempted = 0
        self.failed = 0
        self._stats = None

    def rep(self, tracer=None):
        """One checked repetition; ``None`` when it failed."""
        from workloads import CheckFailed
        from layers import traced

        self.attempted += 1
        # Start every repetition from the same heap: garbage left by the
        # previous one would otherwise slow the next one's collections.
        gc.collect()
        try:
            if tracer is None:
                outcome = self.workload.execute(self.seed)
            else:
                with traced(tracer, self.workload.routing_classes()):
                    outcome = self.workload.execute(self.seed)
            if self._stats is None:
                self._stats = outcome.stats
            elif outcome.stats != self._stats:
                raise CheckFailed("simulated statistics differ between repetitions")
        except Exception:
            self.failed += 1
            traceback.print_exc(file=sys.stderr)
            return None
        return outcome


def measure_end_to_end(runner: Runner, seconds: float) -> dict:
    """End-to-end metrics, host times in seconds on the reference host.

    :class:`calibration.HostSpeed` samples the host's speed all through
    the run, and each timed span is converted with the samples around it;
    the metrics are medians of the converted spans.  The raw host times
    are printed next to them.
    """
    from calibration import HostSpeed

    workload = runner.workload
    speed = HostSpeed()
    setups, outcomes = [], []

    def timed_setup() -> None:
        gc.collect()
        start = time.perf_counter()
        workload.build(runner.seed)
        setups.append((start, time.perf_counter()))

    with speed:
        start = time.perf_counter()
        while True:
            # Set-ups are spread over the run, like the repetitions.
            timed_setup()
            rep_start = time.perf_counter()
            outcome = runner.rep()
            if outcome is not None:
                outcomes.append(outcome)
            now = time.perf_counter()
            if runner.attempted >= MIN_REPS and now - start + (now - rep_start) > seconds:
                break
        while len(setups) < SETUP_REPEATS or sum(b - a for a, b in setups) < SETUP_SECONDS:
            timed_setup()
    if not outcomes:
        return {}
    walls = [speed.reference_s(o.start, o.end) for o in outcomes]
    for outcome, wall in zip(outcomes, walls):
        print(f"repetition  host {outcome.wall_s:9.4f} s  reference {wall:9.4f} s")
    setup = statistics.median(speed.reference_s(a, b) for a, b in setups)
    print(f"set-up x{len(setups):<3d} median host "
          f"{statistics.median(b - a for a, b in setups):.4f} s  reference {setup:.4f} s")
    # A run whose set-up is not timed apart loses the median set-up.
    run_s = [
        wall - setup if o.built is None else speed.reference_s(o.built, o.end)
        for o, wall in zip(outcomes, walls)
    ]
    metrics = {
        "setup_s": setup,
        "wall_s": statistics.median(walls),
        "host_cycles_per_s": statistics.median(
            o.cycles / s for o, s in zip(outcomes, run_s)
        ),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    metrics.update(outcomes[0].sim)
    return metrics


def measure_layers(runner: Runner, seconds: float) -> dict:
    from layers import layer_metrics
    from tracer import Tracer

    untraced, per_rep = [], []
    start = time.perf_counter()
    while True:
        pair_start = time.perf_counter()
        plain = runner.rep()
        tracer = Tracer()
        traced = runner.rep(tracer)
        if plain is not None:
            untraced.append(plain.wall_s)
        if traced is not None:
            per_rep.append((tracer, traced))
        now = time.perf_counter()
        if now - start + (now - pair_start) > seconds:
            break
    if not per_rep or not untraced:
        return {}
    baseline = statistics.median(untraced)
    rows = [layer_metrics(tracer, outcome, baseline) for tracer, outcome in per_rep]
    return {name: statistics.median([row[name] for row in rows]) for name in rows[0]}


def main(argv=None) -> int:
    from layers import LAYER_TARGETS
    from workloads import WORKLOADS

    spec = json.loads(SPEC_FILE.read_text())
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument(
        "--workload", required=True, choices=[w["name"] for w in spec["workloads"]]
    )
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--backend", default=None,
        help="simulation backend (default: the program's default)",
    )
    args = parser.parse_args(argv)

    from repro.config.parameters import default_backend

    backend = args.backend or default_backend()
    workload = WORKLOADS[args.workload](backend, WORK_DIR)
    runner = Runner(workload, args.seed)
    print(json.dumps({"fingerprint": fingerprint(workload), "seed": args.seed}))
    try:
        if args.trace:
            metrics = measure_layers(runner, args.seconds)
            listed = spec["per_layer"]
        else:
            metrics = measure_end_to_end(runner, args.seconds)
            listed = spec["end_to_end"]
    finally:
        workload.close()
    units = {m["name"]: m["unit"] for m in listed}
    if metrics and set(metrics) != set(units):
        raise SystemExit(
            f"perfbench: measured {sorted(metrics)}, {SPEC_FILE.name} lists {sorted(units)}"
        )
    for name, value in metrics.items():
        target, where = LAYER_TARGETS.get(name, ("", ""))
        note = f"-> {target} ({where})" if target else ""
        print(f"{name:36s} {value:14.6g} {units[name]:16s} {note}")
    print(json.dumps({
        "correct": runner.failed == 0 and bool(metrics),
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {
            name: {"value": value, "unit": units[name]}
            for name, value in metrics.items()
        },
    }))
    return 0


if __name__ == "__main__":
    _import_program()
    sys.exit(main())
