"""The three workloads: seeded instance pools and the tasks a pass runs.

Every workload runs every command, so every end-to-end metric is measured
on each of them:

- ``planted-yes``: planted yes-instances.  The bottom-up fronts, rope
  splicing, materialize and the 2-D build run to completion.
- ``planted-no``: the same generator plus one certified defect.  The
  rejection path does the work and minres runs every anchor to failure.
- ``small-certified``: random graphs with n = 8 and a yes/no mix; the
  exhaustive oracle supplies the known answer for each class.

A task is one input's jobs, run back to back.  A pass runs one task per
input of every pool, shuffled, so commands interleave and every input is
measured equally often.
"""

from __future__ import annotations

import functools
import json
import os
import random

from bookembed.graph import serialize_graph
from bookembed.oracle import random_outerplanar
from bookembed.twodim import one_page_order

import planted
from planted import CLASSES

NAMES = ("planted-yes", "planted-no", "small-certified")


class Pool:
    """``count`` distinct inputs of ``n`` vertices each, every input made of
    ``parts`` planted components side by side."""

    __slots__ = ("n", "count", "parts")

    def __init__(self, n, count, parts=1):
        self.n = n
        self.count = count
        self.parts = parts


# Per workload: the pools by name.  ``oracle`` is one pool per class.
# Pools whose components have the same size share their base graphs
# (weights differ by class).  Per-input times vary widely with the graph,
# and every seed draws new graphs, so a run's p50 and tail are only as
# steady as the number of inputs behind them: every pool has forty inputs
# or more, each input of a pool has the same mix (planted-yes inputs hold
# several components, one in three biconnected), and oracle inputs all
# have the same n, because sweep time grows about fivefold per vertex.  A
# tail needs ten inputs beyond it, so with forty it is the p75.
SIZES = {
    "planted-yes": {
        "max": Pool(450, 40, parts=3),
        "sum": Pool(450, 40, parts=3),
        # minres time per component swings with the anchors tried, so each
        # input holds many small components
        "minres": Pool(600, 40, parts=20),
        "twodim": Pool(450, 40, parts=3),
        # time to the first witness spans some 40x between graphs
        "oracle": Pool(7, 384),
    },
    "planted-no": {
        "max": Pool(500, 40),
        "sum": Pool(500, 40),
        # every anchor fails; time depends on where the defect falls
        "minres": Pool(60, 200),
        "twodim": Pool(300, 40, parts=3),
        "oracle": Pool(7, 96),
    },
    # n = 8, the oracle's costliest size, with a yes/no mix per class
    "small-certified": {"small": Pool(8, 96)},
}


def instance_seed(seed, *parts):
    """A 31-bit seed derived from the run seed and a pool position."""
    return random.Random(repr((seed,) + parts)).getrandbits(31)


class Item:
    """One generated input on disk: its graph, a crossing-free order, the
    verdict per class when known in advance, and the job files.  Inputs
    built on the same base graphs (one per class, weights differing) share
    ``graph_key``; a command's timings are kept per graph."""

    __slots__ = ("key", "graph_key", "graph", "order", "yes", "path", "order_path")

    def __init__(self, key, graph, order, yes, workdir, graph_key=None):
        self.key = key
        self.graph_key = key if graph_key is None else graph_key
        self.graph = graph
        self.order = order
        self.yes = yes
        self.path = os.path.join(workdir, f"{key}.json")
        self.order_path = os.path.join(workdir, f"{key}.order.json")

    def write(self):
        with open(self.path, "w", encoding="utf-8") as handle:
            handle.write(serialize_graph(self.graph))
        with open(self.order_path, "w", encoding="utf-8") as handle:
            handle.write(json.dumps([self.graph.labels[v] for v in self.order]))

    def output(self, command):
        return os.path.join(os.path.dirname(self.path), f"{self.key}.{command}.out")


class Workload:
    """Instance pools of one workload, written to ``workdir``."""

    def __init__(self, name, seed, workdir, sizes=None):
        self.name = name
        self.seed = seed
        self.workdir = workdir
        self.sizes = sizes or SIZES[name]
        self.pools = {}
        self._bases = {}
        if name == "small-certified":
            self._build_small()
        else:
            make = planted.planted_yes if name == "planted-yes" else planted.planted_no
            for cls in CLASSES:
                self.pools[cls] = self._planted(cls, (cls,), make)
                self.pools[f"oracle-{cls}"] = self._planted(
                    f"oracle-{cls}", (cls,), make, size="oracle")
            # 2-D drawings of planted graphs, weights from each class in turn
            self.pools["twodim"] = self._planted("twodim", CLASSES, make)
        for item in self.items():
            item.write()

    def _planted(self, pool_name, classes, make, size=None):
        """The pool's inputs, input i planted for ``classes[i % len]``;
        every third component is biconnected."""
        pool = self.sizes[size or pool_name]
        n = pool.n // pool.parts
        items = []
        for i in range(pool.count):
            cls = classes[i % len(classes)]
            parts, keys = [], []
            for j in range(pool.parts):
                biconnected = (i * pool.parts + j) % 3 == 2
                seed = instance_seed(self.seed, self.name, n, i, j)
                key = (n, seed)
                if key not in self._bases:
                    self._bases[key] = planted.base_graph(n, seed, biconnected)
                parts.append(make(n, cls, seed, biconnected, self._bases[key],
                                  check=pool.parts == 1))
                keys.append(key)
            inst = parts[0] if len(parts) == 1 else planted.disjoint_union(parts)
            items.append(Item(f"{pool_name}-{i}", inst.graph, inst.order,
                              {cls: inst.yes}, self.workdir, graph_key=tuple(keys)))
        return items

    def _build_small(self):
        pool = self.sizes["small"]
        items = []
        for i in range(pool.count):
            weights = ((1, 6), (1, 20))[(i // 4) % 2]
            g = random_outerplanar(
                pool.n, weights, seed=instance_seed(self.seed, self.name, i),
                biconnected=i % 4 == 3,
            )
            items.append(Item(f"small-{i}", g, one_page_order(g), {}, self.workdir))
        self.pools["small"] = items

    def items(self):
        for pool in self.pools.values():
            yield from pool

    def pass_tasks(self):
        """The tasks of one pass (unshuffled): one per input of every pool."""
        if self.name == "small-certified":
            return [functools.partial(small_task, item=item)
                    for item in self.pools["small"]]
        tasks = []
        for cls in CLASSES:
            tasks += [functools.partial(embed_task, item=item, cls=cls)
                      for item in self.pools[cls]]
            tasks += [functools.partial(oracle_task, item=item, cls=cls)
                      for item in self.pools[f"oracle-{cls}"]]
        tasks += [functools.partial(twodim_task, item=item)
                  for item in self.pools["twodim"]]
        return tasks


# -- tasks ---------------------------------------------------------------


def embed_task(bench, item, cls):
    """``embed-<cls>``, then ``check <cls>`` on its output (a yes) or on the
    item's crossing-free order (a no).  On a yes, the check job's verdict is
    the embed output's definitional check, so a rejected output counts
    against the drawer."""
    yes = item.yes[cls]
    out = item.output(cls)
    if not bench.cli(cls, item, ["embed-" + cls, item.path, "--output", out], yes):
        return
    text = bench.read(out)
    if yes:
        labels = json.loads(text)
        if sorted(labels) != sorted(item.graph.labels):
            bench.fail(cls, item, "output is not a permutation of the vertices")
            return
        if not bench.check_small_order(cls, item, labels):
            return
        order_path = out
    else:
        if json.loads(text).get("exists") is not False:
            bench.fail(cls, item, "exit 1 without an exists=false document")
            return
        order_path = item.order_path
    if cls == "minres":
        bench.probe_anchors(item)
    check_out = item.output("check-" + cls)
    argv = ["check", cls, item.path, "--order", "@" + order_path, "--output", check_out]
    if not bench.cli("check", item, argv, yes, blame=cls if yes else None):
        return
    if json.loads(bench.read(check_out)).get("ok") is not yes:
        bench.fail("check", item, "check document disagrees with its exit code")


def twodim_task(bench, item):
    """``embed-2d --eps 1`` audited exactly by ``check2d.audit_twodim``."""
    out = item.output("twodim")
    argv = ["embed-2d", item.path, "--eps", "1", "--output", out]
    if bench.cli("twodim", item, argv, True):
        bench.audit_twodim(item, bench.read(out))


def oracle_task(bench, item, cls):
    exists = bench.oracle(item, cls)
    if exists is not None and exists != item.yes[cls]:
        bench.fail("oracle", item, f"oracle says {exists} for a planted "
                   f"{'yes' if item.yes[cls] else 'no'}")


def small_task(bench, item):
    """Every command on one small graph; the oracle's verdict per class is
    the known answer for the drawers and the check."""
    for cls in CLASSES:
        exists = bench.oracle(item, cls)
        if exists is None:
            return
        if item.yes.setdefault(cls, exists) != exists:
            bench.fail("oracle", item, f"{cls} verdict changed between calls")
            return
    for cls in CLASSES:
        embed_task(bench, item, cls)
    twodim_task(bench, item)
