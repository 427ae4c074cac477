"""Seeded weighted outerplanar instances whose verdict is known by construction.

A planted instance starts from ``random_outerplanar`` and its crossing-free
order (``twodim.one_page_order``), then sets every weight from that order's
nesting forest so the order belongs to the class:

- max: 1 + the largest child weight;
- sum: 1 + the sum of the child weights;
- minres: the span (burden + 1).

Each weight then gains ``(e+1)/(10(m+1)^2)``, so weights are true rationals
and no two siblings tie.  The planted order is the certificate of a yes.

A defective instance adds one certified defect in a seeded random block with
k >= 3 vertices.  In every 1-page order the block's vertices keep their
outer-cycle order, so the edge joining the block's first and last vertex
wraps every other block edge.

- max and sum: one other block edge gets the block's top weight; the
  wrapping edge can then not strictly outweigh it.
- minres: every block edge weighs less than k - 1; the wrapping edge has
  burden at least k - 2, so it needs weight at least k - 1.
"""

from __future__ import annotations

import random
from fractions import Fraction

from bookembed.embedding import (
    BookEmbedding,
    validate_max,
    validate_minres_supporting,
    validate_sum,
)
from bookembed.graph import BlockCutTree, WeightedGraph
from bookembed.oracle import random_outerplanar
from bookembed.outerplanar import nesting_forest
from bookembed.twodim import one_page_order

CLASSES = ("max", "sum", "minres")

VALIDATORS = {
    "max": validate_max,
    "sum": validate_sum,
    "minres": validate_minres_supporting,
}

# class names as ``oracle_exists`` spells them
ORACLE_CLASS = {"max": "max", "sum": "sum", "minres": "minres-supporting"}


class Instance:
    """A graph, a crossing-free order of it, and the known verdict for
    ``cls`` ("yes" means the order itself is a certificate)."""

    __slots__ = ("graph", "order", "cls", "yes")

    def __init__(self, graph, order, cls, yes):
        self.graph = graph
        self.order = order
        self.cls = cls
        self.yes = yes


def _spans(g, order):
    pos = {v: i for i, v in enumerate(order)}
    return [
        (min(pos[u], pos[v]), max(pos[u], pos[v]), eid)
        for eid, (u, v, _w) in enumerate(g.edges)
    ]


def planted_weights(g, order, cls):
    """Weights (by edge id) under which ``order`` belongs to ``cls``."""
    spans = _spans(g, order)
    _parent, children, _roots = nesting_forest(g.n, spans)
    # every weight is a multiple of 1/scale; work on the integer numerators
    scale = 10 * (g.m + 1) ** 2
    scaled = [0] * g.m
    # a child's span is strictly shorter than its parent's
    for i in sorted(range(len(spans)), key=lambda i: spans[i][1] - spans[i][0]):
        a, b, eid = spans[i]
        kids = [scaled[spans[k][2]] for k in children[i]]
        if cls == "max":
            base = scale + max(kids, default=0)
        elif cls == "sum":
            base = scale + sum(kids)
        else:
            base = (b - a) * scale
        scaled[eid] = base + eid + 1
    return [Fraction(w, scale) for w in scaled]


def _reweighted(g, weights):
    return WeightedGraph(
        g.labels, [(u, v, weights[eid]) for eid, (u, v, _w) in enumerate(g.edges)]
    )


def _require(instance, check=True):
    if not check:
        return instance
    verdict = VALIDATORS[instance.cls](instance.graph, BookEmbedding(instance.order))
    if (verdict is None) != instance.yes:
        raise RuntimeError(
            f"planted {instance.cls} order does not certify "
            f"{'yes' if instance.yes else 'no'}: {verdict}"
        )
    return instance


def base_graph(n, seed, biconnected):
    """The unweighted start of a planted instance: a seeded
    ``random_outerplanar`` graph and its crossing-free order."""
    g = random_outerplanar(n, (1, 1), seed=seed, biconnected=biconnected)
    return g, one_page_order(g)


def planted_yes(n, cls, seed, biconnected, base=None, check=True):
    """Planted yes-instance; its order is checked by ``validate_*`` unless
    ``check`` is false (a part of a union, whose order is checked whole).
    ``base`` (from ``base_graph``) lets classes share one graph."""
    g, order = base or base_graph(n, seed, biconnected)
    g = _reweighted(g, planted_weights(g, order, cls))
    return _require(Instance(g, order, cls, True), check)


def disjoint_union(instances):
    """Side-by-side union of instances of one class: the component orders
    concatenated certify a yes exactly when every component's does.
    Components come in the given order, which is also the order in which
    the drawers' per-component loop visits them."""
    labels, edges, order = [], [], []
    for inst in instances:
        base = len(labels)
        labels.extend(str(base + i) for i in range(inst.graph.n))
        edges.extend((base + u, base + v, w) for u, v, w in inst.graph.edges)
        order.extend(base + v for v in inst.order)
    return _require(Instance(
        WeightedGraph(labels, edges), order, instances[0].cls,
        all(inst.yes for inst in instances),
    ))


def _big_blocks(g):
    return [b for b in BlockCutTree(g).blocks if len(b.vertices) >= 3]


def planted_no(n, cls, seed, biconnected, base=None, check=True):
    """Planted instance plus one certified defect; the planted order must
    fail ``validate_*`` (unless ``check`` is false, as in ``planted_yes``).
    A graph with no block of three or more vertices is replaced by the next
    seed's, deterministically."""
    if n < 3:
        raise ValueError("a defect needs a block with at least 3 vertices")
    g, order = base or base_graph(n, seed, biconnected)
    big = _big_blocks(g)
    while not big:
        seed += 1_000_003
        g, order = base_graph(n, seed, biconnected)
        big = _big_blocks(g)
    weights = planted_weights(g, order, cls)
    rng = random.Random(seed)
    block = rng.choice(big)
    k = len(block.vertices)
    if cls == "minres":
        cap = Fraction(2 * k - 3, 2)  # k - 3/2, positive for k >= 3
        for eid in block.edge_ids:
            weights[eid] = min(weights[eid], cap)
    else:
        top = max(block.edge_ids, key=lambda eid: weights[eid])
        tied = rng.choice([eid for eid in block.edge_ids if eid != top])
        weights[tied] = weights[top]
    g = _reweighted(g, weights)
    return _require(Instance(g, order, cls, False), check)
