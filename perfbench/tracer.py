"""Per-layer spans for the traced run, recorded from outside the program.

``Tracer.installed()`` replaces public functions of ``bookembed`` modules,
wherever a module holds a reference to them, with wrappers that time the
call; leaving the block puts the originals back.  The untraced run never
enters it.  A layer's time counts only its outermost call, so recursion and
nesting inside one layer are not counted twice.  Spans are aggregated per
job as they close rather than stored one by one.
"""

from __future__ import annotations

import sys
import time
from collections import Counter, defaultdict
from contextlib import contextmanager

from bookembed import cli, embedding, graph, maxdraw, minres, oracle, seq, sumdraw, twodim
from bookembed.blocks import block_outer_cycle

# layer name -> functions timed under it
TIMED_LAYERS = {
    "graph.parse": [graph.parse_graph],
    "graph.bctree": [graph.BlockCutTree, graph.build_bc_tree],
    "blocks.outer_cycle": [block_outer_cycle],
    "maxdraw.drawer": [maxdraw.embed_max],
    "sumdraw.drawer": [sumdraw.embed_sum],
    "minres.drawer": [minres.minres_be_drawer],
    "seq.materialize": [seq.materialize],
    "embedding.validate": [
        embedding.is_one_page,
        embedding.validate_max,
        embedding.validate_sum,
        embedding.validate_minres_supporting,
    ],
    "twodim.build": [twodim.twodim_general],
    "oracle.sweep": [oracle.oracle_exists],
}

# layer name -> (class, method name) timed under it
TIMED_METHODS = {
    "embedding.to_json": [
        (embedding.BookEmbedding, "to_json"),
        (embedding.MaxViolation, "to_json"),
        (embedding.SumViolation, "to_json"),
        (embedding.MinresViolation, "to_json"),
    ],
    "embedding.from_json": [(embedding.BookEmbedding, "from_json")],
    "twodim.to_json": [(twodim.TwoDimEmbedding, "to_json")],
}

SPLICES = [seq.cat, seq.flip, seq.skipping]


class Tracer:
    """Layer times per job, plus counters taken on an instance's first
    traced visit (so they repeat exactly for a given seed)."""

    def __init__(self):
        self.first_visit = False
        self.counts = Counter()
        self.front_max = 0
        self.layer_seconds = defaultdict(float)  # summed over jobs
        self.layer_jobs = Counter()  # jobs that entered the layer
        self._job = defaultdict(float)
        self._active = Counter()
        self._depth = 0
        self.top_seconds = 0.0
        self._patches = self._plan()

    # -- wrappers ----------------------------------------------------------

    def _timed(self, layer, fn):
        tracer = self

        def wrapper(*args, **kwargs):
            if tracer._active[layer]:
                return fn(*args, **kwargs)
            tracer._active[layer] += 1
            tracer._depth += 1
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = time.perf_counter() - start
                tracer._active[layer] -= 1
                tracer._depth -= 1
                tracer._job[layer] += elapsed
                if tracer._depth == 0:
                    tracer.top_seconds += elapsed
            tracer._observe(layer, result)
            return result

        return wrapper

    def _splice(self, fn):
        tracer = self

        def wrapper(*args, **kwargs):
            if tracer._active["seq.splice"]:
                return fn(*args, **kwargs)
            if tracer.first_visit:
                tracer.counts["seq.splices"] += 1
            tracer._active["seq.splice"] += 1
            try:
                return fn(*args, **kwargs)
            finally:
                tracer._active["seq.splice"] -= 1

        return wrapper

    def _audited_sum_drawer(self, fn):
        tracer = self

        def audit(_kind, _node, entries):
            if tracer.first_visit:
                tracer.counts["sumdraw.front_nodes"] += 1
                tracer.counts["sumdraw.front_entries"] += len(entries)
                tracer.front_max = max(tracer.front_max, len(entries))

        def wrapper(g):
            return fn(g, audit=audit)

        return wrapper

    def _observe(self, layer, result):
        if not self.first_visit:
            return
        if layer == "maxdraw.drawer" and isinstance(result, maxdraw.MaxFailure):
            self.counts[f"maxdraw.reject.cond{result.condition}"] += 1

    # -- installing --------------------------------------------------------

    def _plan(self):
        """(owner, attribute, original, wrapper) for every reference."""
        wrappers = {}
        for layer, fns in TIMED_LAYERS.items():
            for fn in fns:
                wrappers[id(fn)] = (fn, self._timed(layer, fn))
        for fn in SPLICES:
            wrappers[id(fn)] = (fn, self._splice(fn))
        fn = sumdraw.sum_be_drawer
        wrappers[id(fn)] = (fn, self._audited_sum_drawer(fn))
        patches = []
        for name, module in sorted(sys.modules.items()):
            if name != "bookembed" and not name.startswith("bookembed."):
                continue
            for attr, value in vars(module).items():
                if id(value) in wrappers and wrappers[id(value)][0] is value:
                    patches.append((module, attr, value, wrappers[id(value)][1]))
        for key, value in cli._VALIDATORS.items():
            if id(value) in wrappers:
                patches.append((cli._VALIDATORS, key, value, wrappers[id(value)][1]))
        for layer, methods in TIMED_METHODS.items():
            for owner, attr in methods:
                raw = owner.__dict__[attr]
                if isinstance(raw, staticmethod):
                    wrapped = staticmethod(self._timed(layer, raw.__func__))
                else:
                    wrapped = self._timed(layer, raw)
                patches.append((owner, attr, raw, wrapped))
        return patches

    @contextmanager
    def installed(self):
        """Wrappers in place for the duration of one job."""
        for owner, attr, _original, wrapper in self._patches:
            _assign(owner, attr, wrapper)
        self._job = defaultdict(float)
        self.top_seconds = 0.0
        try:
            yield self
        finally:
            for owner, attr, original, _wrapper in self._patches:
                _assign(owner, attr, original)
            for layer, seconds in self._job.items():
                self.layer_seconds[layer] += seconds
                self.layer_jobs[layer] += 1

    def mean_seconds(self, layer):
        """Mean seconds per job spent in ``layer``, over jobs entering it."""
        jobs = self.layer_jobs[layer]
        return self.layer_seconds[layer] / jobs if jobs else 0.0


def _assign(owner, attr, value):
    if isinstance(owner, dict):
        owner[attr] = value
    else:
        setattr(owner, attr, value)
