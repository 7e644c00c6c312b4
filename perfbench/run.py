#!/usr/bin/env python3
"""Benchmark of the sullivan engine: one workload per run.

Usage, from the root of a source checkout:

    python3 perfbench/run.py --workload pure-gen12 --seed 1 --seconds 25 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 25 --trace 0

The engine is imported from ``src/``.  With ``--trace 0`` the run measures
the end-to-end metrics; with ``--trace 1`` it alternates untraced and
traced iterations and reports per-layer metrics from the traced ones, with
the tracing overhead.  Human-readable lines come first; the last line of
standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.  Generated inputs and the span
file go to ``.bench_out/`` in the checkout.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback

import inputs
import refkernel
import spans
import workloads

SETUP_REPEATS = 9
OUT_DIR = ".bench_out"

# name -> unit, as declared in BENCHMARK.json; see README.md for definitions.
END_TO_END = {"wall_norm": "ratio", "setup_s": "s", "peak_rss_mb": "MB"}
# Self times go into the JSON line only for the layers every workload calls,
# so that no time reads exactly 0 on every run of some workload; the others
# are printed in the layer table and kept in the span file.
TIMED_LAYERS = (
    "gradedalg.basis_of_degree",
    "cdga.apply_d",
    "linalg.RowSpace.add",
    "linalg.RowSpace.reduce",
    "cohomology.betti",
)
LAYER_METRICS = {
    **{f"{layer}.calls": "count" for layer in spans.LAYERS},
    **{f"{layer}.self_s": "s" for layer in TIMED_LAYERS},
    "gradedalg.basis_of_degree.monomials": "count",
    "gradedalg.basis_repeat_ratio": "ratio",
    "cdga.apply_d.terms_out": "count",
    "linalg.nnz_in": "count",
    "linalg.nnz_rows": "count",
    "linalg.fill_ratio": "ratio",
    "cohomology.basis_max": "count",
    "reduction.reduce.steps": "count",
    "reduction.verify_betti_calls": "count",
    "reduction.verify_share": "ratio",
    "trace.wall_norm": "ratio",
    "trace.untraced_wall_norm": "ratio",
    "trace.overhead_norm": "ratio",
}


def host_facts() -> dict:
    try:
        with open("/proc/loadavg", encoding="ascii") as fh:
            loadavg = fh.read().strip()
    except OSError:
        loadavg = "unavailable"
    return {
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "loadavg": loadavg,
    }


def purge_package() -> None:
    for name in [n for n in sys.modules if n == "sullivan" or n.startswith("sullivan.")]:
        del sys.modules[name]


def timed_setup(workload) -> list[float]:
    """Import sullivan afresh and set the workload up, SETUP_REPEATS times."""
    times = []
    for _ in range(SETUP_REPEATS):
        purge_package()
        gc.collect()  # the purged modules are cyclic garbage; keep their collection untimed
        start = time.perf_counter()
        importlib.import_module("sullivan")
        workload.setup()
        times.append(time.perf_counter() - start)
    return times


def tail_percentile(values: list[float]) -> tuple[int, float] | None:
    """Highest whole percentile with at least ten samples beyond it (nearest rank)."""
    n = len(values)
    if n < 20:
        return None
    p = math.floor(100 * (n - 10) / n)
    return p, sorted(values)[math.ceil(p * n / 100) - 1]


class Run:
    """The timed loop of one workload: samples and check outcomes."""

    def __init__(self, workload, sampler: refkernel.Sampler):
        self.workload = workload
        self.sampler = sampler
        self.outcomes: list[workloads.Outcome] = []
        self.walls: list[float] = []
        self.norms: list[float] = []
        self.traced_norms: list[float] = []
        self.crashed = False

    def _iterate(self, fn) -> tuple[float, float]:
        outputs, wall, norm = self.sampler.timed(fn)
        self.outcomes.extend(self.workload.check(outputs))
        return wall, norm

    def measure(self, seconds: float, tracer: spans.Tracer | None) -> None:
        """Iterate until another iteration would end past `seconds`; at least once.

        With a tracer, each untraced iteration is followed by a traced one.
        """
        began = time.perf_counter()
        try:
            while True:
                start = time.perf_counter()
                wall, norm = self._iterate(self.workload.run_once)
                self.walls.append(wall)
                self.norms.append(norm)
                if tracer is not None:
                    _, norm = self._iterate(lambda: tracer.run_iteration(self.workload.run_once))
                    self.traced_norms.append(norm)
                took = time.perf_counter() - start
                if time.perf_counter() - began + took > seconds:
                    return
        except Exception as exc:  # noqa: BLE001 - a crash is a failed operation: report, stop
            traceback.print_exc()
            self.outcomes.append(("iteration", False, repr(exc)))
            self.crashed = True


def run_workload(args) -> int:
    src = os.path.abspath("src")
    if not os.path.isfile(os.path.join(src, "sullivan", "__init__.py")):
        print(f"perfbench: no engine source at {src}/sullivan; run from a checkout root",
              file=sys.stderr)
        return 2
    sys.path.insert(0, src)
    os.makedirs(OUT_DIR, exist_ok=True)

    host = host_facts()
    workload = workloads.WORKLOADS[args.workload](args.seed, OUT_DIR)
    setups = timed_setup(workload)
    sampler = refkernel.Sampler()
    run = Run(workload, sampler)
    tracer = spans.Tracer(sampler.clock) if args.trace else None
    run.measure(args.seconds, tracer)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    if not run.crashed:
        run.outcomes.extend(workload.final_checks())
    layer = None
    if tracer is not None and not run.crashed:
        layer = tracer.metrics()
        run.outcomes.extend(cross_checks(workload, layer))
        layer["trace.wall_norm"] = statistics.median(run.traced_norms)
        layer["trace.untraced_wall_norm"] = statistics.median(run.norms)
        layer["trace.overhead_norm"] = layer["trace.wall_norm"] - layer["trace.untraced_wall_norm"]
        tracer.write(
            os.path.join(OUT_DIR, f"trace-{args.workload}-seed{args.seed}.json"),
            {"workload": args.workload, "seed": args.seed, "host": host},
        )

    failed = [o for o in run.outcomes if not o[1]]
    attempted = len(run.outcomes)
    tail = tail_percentile(run.walls)
    print(f"host: python {host['python']}, nproc {host['nproc']}, loadavg {host['loadavg']}")
    print(f"workload {args.workload}, seed {args.seed}, trace {args.trace}: "
          f"{len(run.walls)} untraced iterations")
    print(f"  setup_s      {statistics.median(setups):.4f} s  (median of {len(setups)}, "
          f"min {min(setups):.4f}, max {max(setups):.4f})")
    if run.walls:
        print(f"  wall_s       median {statistics.median(run.walls):.4f} s, "
              + (f"p{tail[0]} {tail[1]:.4f} s, " if tail else "no tail percentile (< 20 samples), ")
              + f"samples {len(run.walls)}")
        print(f"  wall_norm    median {statistics.median(run.norms):.4f}")
    print(f"  peak_rss_mb  {peak_rss_mb:.1f} MB")
    print(f"  error_rate   {len(failed)}/{attempted} = {len(failed) / attempted:.4f}")
    for name, _, detail in failed:
        print(f"  FAILED {name}: {detail}")
    if layer is not None:
        print(f"  traced iterations {len(run.traced_norms)}, overhead "
              f"{layer['trace.overhead_norm']:+.4f} wall_norm")
        print(f"  {'layer':<32} {'calls':>8} {'self_s':>9}")
        for name in spans.LAYERS:
            print(f"  {name:<32} {layer[name + '.calls']:>8} {layer[name + '.self_s']:>9.4f}")

    metrics = {}  # none after a crash; the crash is a failed operation
    if layer is not None:
        metrics = {k: {"value": layer[k], "unit": u} for k, u in LAYER_METRICS.items()}
    elif not args.trace and not run.crashed:
        values = {
            "wall_norm": statistics.median(run.norms),
            "setup_s": statistics.median(setups),
            "peak_rss_mb": peak_rss_mb,
        }
        metrics = {k: {"value": values[k], "unit": u} for k, u in END_TO_END.items()}
    print(json.dumps({
        "correct": not failed,
        "attempted": attempted,
        "failed": len(failed),
        "metrics": metrics,
    }))
    return 0


def run_every_workload(args) -> int:
    """--workload all: each workload in a process of its own, in turn.

    Prints each run's lines and ends with one JSON object whose metrics are
    named <workload>.<metric>.
    """
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in workloads.WORKLOADS:
        argv = [sys.executable, os.path.abspath(__file__), "--workload", name,
                "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run(argv, capture_output=True, text=True, check=False)
        sys.stderr.write(proc.stderr)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            print(f"workload {name}: exit code {proc.returncode}, no result")
            return proc.returncode or 1
        print("\n".join(lines[:-1]))
        result = json.loads(lines[-1])
        combined["correct"] = combined["correct"] and result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        combined["metrics"].update({f"{name}.{k}": v for k, v in result["metrics"].items()})
    print(json.dumps(combined))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[*workloads.WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.workload == "all":
        return run_every_workload(args)
    return run_workload(args)


def cross_checks(workload, layer: dict) -> list[workloads.Outcome]:
    """Exact call counts that must hold for betti(model, D) on pure-gen12."""
    if not isinstance(workload, workloads.PureGen12):
        return []
    d = workload.max_degree
    want_apply_d = sum(inputs.pure_basis_sizes(d))
    got_apply_d = layer["cdga.apply_d.calls"]
    got_basis = layer["gradedalg.basis_of_degree.calls"]
    return [
        ("apply_d calls = sum |basis_n|", got_apply_d == want_apply_d,
         f"{got_apply_d} != {want_apply_d}"),
        ("basis_of_degree calls = 2(D+1)", got_basis == 2 * (d + 1),
         f"{got_basis} != {2 * (d + 1)}"),
    ]


if __name__ == "__main__":
    sys.exit(main())
