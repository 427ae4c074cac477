"""Runs a workload's jobs one at a time, checks each result, and turns the
timings into metrics.

Closed loop, one caller: each job starts after the previous one returned.
End-to-end jobs go through ``bookembed.cli.main`` in this process (input
file in, ``--output`` file out); oracle jobs call ``oracle_exists``.  A job
fails if it raises, if its exit code differs from the known answer (0 = yes,
1 = no), or if its output fails its check; failures are counted per command
and the run goes on.
"""

from __future__ import annotations

import argparse
import hashlib
import os
import random
import resource
import statistics
import subprocess
import sys
import time
import traceback
from collections import Counter, defaultdict
from fractions import Fraction

from bookembed import cli, oracle
from bookembed.blocks import block_outer_cycle
from bookembed.embedding import BookEmbedding
from bookembed.graph import BlockCutTree, connected_components
from bookembed.minres import minres_be_drawer_anchor
from bookembed.twodim import TwoDimEmbedding, check_twodim

import check2d
from planted import ORACLE_CLASS, VALIDATORS

COMMANDS = ("max", "sum", "minres", "twodim", "check", "oracle")

# Job times are reported at a fixed machine speed.  Other load on a shared
# host slows the jobs of a run, in phases as long as a run or longer, so raw
# wall seconds of two runs of the same code can differ by a third.  A gauge
# (``reference_seconds``), fixed stdlib work of the three kinds the jobs do,
# is timed every GAUGE_EVERY_S of the measured phase; every time is then
# scaled by GAUGE_NOMINAL_S over the gauge's mean.  The three kinds, which
# other load slows each by its own factor: sorting and hashing Fractions, as
# the drawers and checks do at scale; building and using argparse parsers,
# as every CLI call does (its gettext lookups and terminal-size queries are
# system calls, and take much of a small job's time); and writing and
# reading a small file, as every CLI call does with its input and output.
# The gauge runs no bookembed code, so a change to the program moves the
# scaled times and not the gauge.  GAUGE_NOMINAL_S is about the gauge's mean
# time on a 2-vCPU x86-64 VM under Python 3.11, so scaled seconds read close
# to wall seconds there; the raw wall medians are kept in the run metadata.
GAUGE_NOMINAL_S = 5.0e-3
GAUGE_EVERY_S = 0.05
_GAUGE_RNG = random.Random(0)
_GAUGE_DATA = [(Fraction(_GAUGE_RNG.randrange(1, 10**6), _GAUGE_RNG.randrange(1, 1000)), i)
               for i in range(200)]
_GAUGE_TEXT = "[" + ", ".join(f'"{i}"' for i in range(80)) + "]"

# drawings this small are also audited by the quadratic ``check_twodim``
SMALL_M = 30
# orders this small are also checked by the oracle's definitional kernel
SMALL_N = 8
MAX_ERRORS_SHOWN = 20


class Bench:
    """Job runner and result book-keeping for one run."""

    def __init__(self, tracer=None):
        self.tracer = tracer
        # command -> input key -> seconds of each job on that input
        self.samples = defaultdict(lambda: defaultdict(list))
        self.attempted = Counter()
        self.failed = Counter()
        self.verdicts = Counter()  # known answers of the jobs: yes / no
        self.errors = []
        self.gauge = []  # ``reference_seconds``, every GAUGE_EVERY_S of measuring
        self.audited = {}  # item key -> digest of the 2-D output that passed
        # traced run only
        self.visited = set()
        self.traced_jobs = 0
        self.untraced_seconds = 0.0
        self.traced_seconds = 0.0
        self.cli_overhead = []
        self.anchor_seconds = []
        self.anchor_ok = 0
        self.enumerate_seconds = 0.0

    # -- jobs --------------------------------------------------------------

    def _call(self, command, item, fn):
        """Run one job; returns (ran, result).  Its time is filed under the
        graph it ran on, so the jobs of one command on one graph (say the
        three classes' oracle calls, weights differing) make one value."""
        samples = self.samples[command][item.graph_key]
        self.attempted[command] += 1
        start = time.perf_counter()
        try:
            if self.tracer is None:
                result = fn()
                elapsed = time.perf_counter() - start
            else:
                result, elapsed = self._run_twice(command, item, fn)
        except Exception:
            samples.append(time.perf_counter() - start)
            self.fail(command, item, traceback.format_exc(limit=-3))
            return False, None
        samples.append(elapsed)
        return True, result

    def _run_twice(self, command, item, fn):
        """Traced run: the job once untraced (the overhead base) and once
        with the wrappers in, alternating which goes first so neither side
        always finds the caches warm.  Returns (result, untraced seconds)."""
        tracer = self.tracer
        self.probe_graph(item)
        key = (command, item.key)
        first_visit = key not in self.visited
        self.visited.add(key)
        order = (False, True) if self.traced_jobs % 2 else (True, False)
        self.traced_jobs += 1
        for traced in order:
            start = time.perf_counter()
            if traced:
                tracer.first_visit = first_visit
                try:
                    with tracer.installed():
                        fn()
                        traced_s = time.perf_counter() - start
                finally:
                    tracer.first_visit = False
            else:
                result = fn()
                elapsed = time.perf_counter() - start
        self.untraced_seconds += elapsed
        self.traced_seconds += traced_s
        if command != "oracle":
            self.cli_overhead.append(traced_s - tracer.top_seconds)
        return result, elapsed

    def cli(self, command, item, argv, yes, blame=None):
        """One CLI job; True when it exits 0 on a yes and 1 on a no."""
        self.verdicts["yes" if yes else "no"] += 1

        def job():
            try:
                return cli.main(argv)
            except SystemExit as exc:  # argparse usage errors
                return exc.code

        ran, code = self._call(command, item, job)
        if not ran:
            return False
        if code != (0 if yes else 1):
            self.fail(blame or command, item,
                      f"{' '.join(argv[:2])}: exit {code}, expected {0 if yes else 1}")
            return False
        return True

    def oracle(self, item, cls):
        """Verdict of ``oracle_exists(g, cls)`` as callers make it (the sweep
        stops at the first witness), or None if the call raised or its
        witness fails the class validator."""
        ran, verdict = self._call(
            "oracle", item,
            lambda: oracle.oracle_exists(item.graph, ORACLE_CLASS[cls]),
        )
        if not ran:
            return None
        if verdict.exists != bool(verdict.witnesses) or (
                verdict.exists and VALIDATORS[cls](item.graph, verdict.witnesses[0])):
            self.fail("oracle", item, f"{cls}: witness missing or invalid")
            return None
        if self.tracer is not None and ("enum", item.key) not in self.visited:
            self.visited.add(("enum", item.key))
            start = time.perf_counter()
            orders = len(oracle.enumerate_one_page(item.graph))
            self.enumerate_seconds += time.perf_counter() - start
            self.tracer.counts["oracle.orders_enumerated"] += orders
        return verdict.exists

    def fail(self, command, item, message):
        self.failed[command] += 1
        self.errors.append(f"[{command}] {item.key}: {message.strip()}")

    @staticmethod
    def read(path):
        with open(path, encoding="utf-8") as handle:
            return handle.read()

    # -- output checks -------------------------------------------------------

    def check_small_order(self, cls, item, labels):
        """Independent definitional check of a small drawer output."""
        g = item.graph
        if g.n > SMALL_N:
            return True
        emb = BookEmbedding(g.label_index[label] for label in labels)
        if oracle.definitional_check(g, emb, ORACLE_CLASS[cls]):
            return True
        self.fail(cls, item, "output fails the definitional kernel check")
        return False

    def audit_twodim(self, item, text):
        """Exact audit of a 2-D output.  The program is deterministic, so a
        repeat of an audited output is checked by comparing digests only."""
        digest = hashlib.sha256(text.encode()).digest()
        if self.audited.get(item.key) == digest:
            return
        problems = check2d.audit_twodim(item.graph, text)
        if item.graph.m <= SMALL_M:
            reference = check_twodim(*TwoDimEmbedding.from_json(text))
            if bool(reference) != bool(problems):
                problems.append(f"audits disagree with check_twodim: {reference}")
        if problems:
            self.fail("twodim", item, "; ".join(problems[:3]))
            return
        self.audited[item.key] = digest
        tracer = self.tracer
        if tracer is not None:
            tracer.counts["twodim.output_bytes"] += len(text)
            bits = check2d.max_denominator_bits(text)
            tracer.counts["twodim.max_den_bits"] = max(
                tracer.counts["twodim.max_den_bits"], bits)

    # -- traced-run probes ---------------------------------------------------

    def probe_graph(self, item):
        """Blocks and cut vertices of each distinct input (traced run)."""
        if self.tracer is None or ("graph", item.key) in self.visited:
            return
        self.visited.add(("graph", item.key))
        blocks, cuts = block_counts(item.graph)
        self.tracer.counts["graph.blocks"] += blocks
        self.tracer.counts["graph.cut_vertices"] += cuts

    def probe_anchors(self, item):
        """The anchor loop of ``minres_be_drawer``, driven from here: per
        component, anchors in edge-id order to the first success (traced
        run, once per input)."""
        if self.tracer is None or ("anchors", item.key) in self.visited:
            return
        self.visited.add(("anchors", item.key))
        counts = self.tracer.counts
        for g in connected_components(item.graph):
            tree = BlockCutTree(g)
            cycles = [block_outer_cycle(g, b.vertices, b.edge_ids) for b in tree.blocks]
            for e_star in range(g.m):
                start = time.perf_counter()
                result = minres_be_drawer_anchor(g, e_star, decomposition=tree,
                                                 cycles=cycles)
                self.anchor_seconds.append(time.perf_counter() - start)
                counts["minres.anchors_tried"] += 1
                if isinstance(result, BookEmbedding):
                    self.anchor_ok += 1
                    break
                counts[f"minres.reject.cond{result.condition}"] += 1


def block_counts(g):
    """(blocks, cut vertices) summed over the components of ``g``."""
    blocks = cuts = 0
    for component in connected_components(g):
        tree = BlockCutTree(component)
        blocks += len(tree.blocks)
        cuts += len(tree.cut_vertices)
    return blocks, cuts


# -- measuring -----------------------------------------------------------------


def measure(bench, workload, seconds, seed):
    """Full passes until ``seconds`` have passed, each over every input in
    a fresh shuffled order, with the gauge timed between tasks at least
    GAUGE_EVERY_S apart.  A pass once begun runs to its end, so every input
    is measured equally often whatever the machine's speed."""
    rng = random.Random(seed)
    deadline = time.perf_counter() + seconds
    next_gauge = 0.0
    passes = 0
    while passes == 0 or time.perf_counter() < deadline:
        tasks = workload.pass_tasks()
        rng.shuffle(tasks)
        for task in tasks:
            task(bench)
            if time.perf_counter() >= next_gauge:
                bench.gauge.append(reference_seconds(workload.workdir))
                next_gauge = time.perf_counter() + GAUGE_EVERY_S
        passes += 1
    return passes


def reference_seconds(workdir):
    """Seconds of the gauge: sort 200 (Fraction, int) pairs and hash the
    Fractions into a dict; build two argparse parsers with three
    sub-commands each and parse a command line; write and read back a small
    file in ``workdir`` four times.  Stdlib only, so its work never
    changes."""
    path = os.path.join(workdir, "gauge.txt")
    start = time.perf_counter()
    {w: i for w, i in sorted(_GAUGE_DATA)}
    for _ in range(2):
        parser = argparse.ArgumentParser(prog="gauge")
        commands = parser.add_subparsers(dest="command")
        for name in ("a", "b", "c"):
            command = commands.add_parser(name)
            command.add_argument("input")
            command.add_argument("--output")
            command.add_argument("--eps", type=float)
        parser.parse_args(["b", "in.json", "--output", "out.json"])
    for _ in range(4):
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(_GAUGE_TEXT)
        with open(path, encoding="utf-8") as handle:
            handle.read()
    return time.perf_counter() - start


def speed_scale(gauge):
    """Factor that takes times measured alongside ``gauge`` to the
    nominal machine speed."""
    return GAUGE_NOMINAL_S / statistics.fmean(gauge)


def tail(values):
    """(value, percentile): the highest percentile with at least ten values
    beyond it; the maximum when there are ten values or fewer."""
    ordered = sorted(values)
    n = len(ordered)
    if n <= 10:
        return ordered[-1], 100.0
    return ordered[n - 11], 100.0 * (n - 10) / n


def peak_rss_mb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def end_to_end_metrics(bench, setup_s):
    """End-to-end metrics (job times at the nominal speed, ``setup_s``
    already scaled by the caller), plus per command the tail percentile
    reached and the raw wall-second p50 and tail."""
    metrics = {"setup_s": (setup_s, "s")}
    tails = {}
    scale = speed_scale(bench.gauge)
    for command in COMMANDS:
        # one value per graph, the mean of its jobs, so the tail stands for
        # at least ten distinct graphs and not for repeats of a few
        per_input = [statistics.fmean(v) for v in bench.samples[command].values()]
        if not per_input:
            continue
        p50 = statistics.median(per_input)
        value, pct = tail(per_input)
        metrics[f"{command}.p50_s"] = (p50 * scale, "s")
        metrics[f"{command}.tail_s"] = (value * scale, "s")
        tails[command] = {"percentile": round(pct, 2), "graphs": len(per_input),
                          "samples": sum(map(len, bench.samples[command].values())),
                          "wall_p50_s": p50, "wall_tail_s": value}
    attempted = sum(bench.attempted.values())
    failed = sum(bench.failed.values())
    metrics["ok_ratio"] = (1.0 - failed / attempted if attempted else 0.0, "ratio")
    metrics["peak_rss_mb"] = (peak_rss_mb(), "MB")
    return metrics, tails


LAYER_TIMES = {
    "graph.parse_s": "graph.parse",
    "graph.bctree_s": "graph.bctree",
    "blocks.outer_cycle_s": "blocks.outer_cycle",
    "maxdraw.drawer_s": "maxdraw.drawer",
    "sumdraw.drawer_s": "sumdraw.drawer",
    "minres.drawer_s": "minres.drawer",
    "seq.materialize_s": "seq.materialize",
    "embedding.validate_s": "embedding.validate",
    "embedding.to_json_s": "embedding.to_json",
    "embedding.from_json_s": "embedding.from_json",
    "twodim.build_s": "twodim.build",
    "twodim.to_json_s": "twodim.to_json",
    "oracle.sweep_s": "oracle.sweep",
}

LAYER_COUNTS = {
    "graph.blocks": "count",
    "graph.cut_vertices": "count",
    "maxdraw.reject.cond1": "count",
    "maxdraw.reject.cond2": "count",
    "maxdraw.reject.cond3": "count",
    "sumdraw.front_nodes": "count",
    "sumdraw.front_entries": "count",
    "minres.anchors_tried": "count",
    "minres.reject.cond1": "count",
    "minres.reject.cond2": "count",
    "minres.reject.cond3": "count",
    "minres.reject.cond4": "count",
    "seq.splices": "count",
    "twodim.max_den_bits": "bits",
    "twodim.output_bytes": "bytes",
    "oracle.orders_enumerated": "count",
}


def per_layer_metrics(bench):
    tracer = bench.tracer
    metrics = {
        name: (tracer.mean_seconds(layer), "s") for name, layer in LAYER_TIMES.items()
    }
    for name, unit in LAYER_COUNTS.items():
        metrics[name] = (tracer.counts[name], unit)
    metrics["sumdraw.front_max"] = (tracer.front_max, "count")
    tried = tracer.counts["minres.anchors_tried"]
    metrics["minres.anchor_ok_ratio"] = (bench.anchor_ok / tried if tried else 0.0, "ratio")
    metrics["minres.anchor_p50_s"] = (
        statistics.median(bench.anchor_seconds) if bench.anchor_seconds else 0.0, "s")
    orders = tracer.counts["oracle.orders_enumerated"]
    metrics["oracle.orders_per_s"] = (
        orders / bench.enumerate_seconds if bench.enumerate_seconds else 0.0, "1/s")
    metrics["cli.overhead_s"] = (
        statistics.median(bench.cli_overhead) if bench.cli_overhead else 0.0, "s")
    metrics["trace.overhead_ratio"] = (
        bench.traced_seconds / bench.untraced_seconds if bench.untraced_seconds else 0.0,
        "ratio")
    return metrics


def report_errors(bench):
    for line in bench.errors[:MAX_ERRORS_SHOWN]:
        print(line, file=sys.stderr)
    if len(bench.errors) > MAX_ERRORS_SHOWN:
        print(f"... {len(bench.errors) - MAX_ERRORS_SHOWN} more failures",
              file=sys.stderr)


def git_commit(root):
    """The commit checked out at ``root``, or "unknown" when ``root`` is not
    the top of a git work tree."""
    try:
        proc = subprocess.run(["git", "rev-parse", "--show-toplevel", "HEAD"],
                              cwd=root, capture_output=True, text=True, check=False)
        lines = proc.stdout.split()
        if proc.returncode == 0 and len(lines) == 2 and os.path.samefile(lines[0], root):
            return lines[1]
    except OSError:
        pass
    return "unknown"
