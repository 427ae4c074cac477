"""Benchmark of bookembed: seeded workloads, per-command verdict latency,
and a traced run for the per-layer numbers.

Run from the root of a checkout:

    python3 perfbench/run.py --workload planted-yes --seed 1 --seconds 20 --trace 0

With ``--trace 0`` the last stdout line holds the end-to-end metrics; with
``--trace 1`` the same jobs run with per-layer wrappers and it holds the
per-layer metrics.  The line before it holds the run metadata.  Exits 2
without a result when the checkout has no ``src/bookembed``.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
SETUP_REPEATS = 3
IMPORT_REPEATS = 5
SETUP_GAUGES = 10  # gauge samples before the first build and after each
# times the program's import in a fresh interpreter; prints seconds
IMPORT_PROBE = (
    "import sys, time; sys.path.insert(0, sys.argv[1]); t = time.perf_counter(); "
    "import bookembed.cli, bookembed.oracle; print(time.perf_counter() - t)"
)


def _import_program():
    """Import bookembed from this checkout's ``src`` and nowhere else."""
    if not os.path.isfile(os.path.join(SRC, "bookembed", "__init__.py")):
        raise ImportError(f"no bookembed sources under {SRC}")
    sys.path.insert(0, SRC)
    import bookembed

    where = os.path.dirname(os.path.abspath(bookembed.__file__))
    if where != os.path.join(SRC, "bookembed"):
        raise ImportError(f"bookembed imported from {where}, not {SRC}")
    return bookembed


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=("planted-yes", "planted-no", "small-certified"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def run(workload_name, seed, seconds, trace, sizes=None):
    """One run; returns (metadata, result) as printed by ``main``."""
    import harness
    from bookembed import _fast
    from tracer import Tracer
    from workloads import Workload

    os.environ.pop("BOOKEMBED_THREADS", None)
    workdir = os.path.join(ROOT, ".perfbench_work", f"{workload_name}-{os.getpid()}")
    os.makedirs(workdir, exist_ok=True)
    try:
        imports = [import_seconds() for _ in range(IMPORT_REPEATS)]
        builds = []
        # the gauge of the set-up phase, taken before and after each build
        gauge = [harness.reference_seconds(workdir) for _ in range(SETUP_GAUGES)]
        for _ in range(SETUP_REPEATS):
            workload = None  # the previous build's pools go before the next
            gc.collect()
            # as in ``timeit``: a collection's cost grows with the heap the
            # earlier builds left, which would make the repeats differ
            gc.disable()
            start = time.perf_counter()
            workload = Workload(workload_name, seed, workdir, sizes)
            builds.append(time.perf_counter() - start)
            gc.enable()
            gauge += [harness.reference_seconds(workdir) for _ in range(SETUP_GAUGES)]
        setup_wall_s = statistics.median(imports) + statistics.median(builds)
        setup_s = setup_wall_s * harness.speed_scale(gauge)
        totals = workload_totals(workload)
        gc.collect()
        gc.freeze()
        setup_peak_mb = harness.peak_rss_mb()
        bench = harness.Bench(Tracer() if trace else None)
        passes = harness.measure(bench, workload, seconds, seed)
        gc.unfreeze()
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            os.rmdir(os.path.dirname(workdir))
        except OSError:
            pass

    if trace:
        metrics = harness.per_layer_metrics(bench)
        tails = {}
    else:
        metrics, tails = harness.end_to_end_metrics(bench, setup_s)
    attempted = sum(bench.attempted.values())
    failed = sum(bench.failed.values())
    totals.update({"yes_jobs": bench.verdicts["yes"], "no_jobs": bench.verdicts["no"]})
    meta = {
        "workload": workload_name,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "kernel": _fast.IMPLEMENTATION,
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "commit": harness.git_commit(ROOT),
        "passes": passes,
        "gauge_ms": {"setup": 1e3 * statistics.fmean(gauge),
                     "measure": 1e3 * statistics.fmean(bench.gauge),
                     "nominal": 1e3 * harness.GAUGE_NOMINAL_S},
        "setup_wall_s": setup_wall_s,
        "setup_imports_s": imports,
        "peak_rss_setup_mb": setup_peak_mb,
        "setup_builds_s": builds,
        "totals": totals,
        "tails": tails,
        "attempted": dict(bench.attempted),
        "failed": dict(bench.failed),
        "fail_ratio": failed / attempted if attempted else 0.0,
    }
    harness.report_errors(bench)
    result = {
        "correct": failed == 0 and attempted > 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }
    return meta, result


def import_seconds():
    """Seconds to import the program's CLI and oracle in a fresh
    interpreter, which every ``bookembed`` command pays."""
    proc = subprocess.run([sys.executable, "-c", IMPORT_PROBE, SRC],
                          capture_output=True, text=True, check=True, timeout=120)
    return float(proc.stdout)


def workload_totals(workload):
    """n, m, blocks and cut vertices summed over the distinct inputs."""
    from harness import block_counts

    totals = {"inputs": 0, "n": 0, "m": 0, "blocks": 0, "cut_vertices": 0}
    for item in workload.items():
        blocks, cuts = block_counts(item.graph)
        totals["inputs"] += 1
        totals["n"] += item.graph.n
        totals["m"] += item.graph.m
        totals["blocks"] += blocks
        totals["cut_vertices"] += cuts
    return totals


def main(argv=None):
    args = parse_args(argv)
    try:
        _import_program()
    except ImportError as exc:
        print(f"perfbench: cannot import the program: {exc}", file=sys.stderr)
        return 2
    meta, result = run(args.workload, args.seed, args.seconds, args.trace)
    print(json.dumps({"meta": meta}, sort_keys=True))
    print(json.dumps(result, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
