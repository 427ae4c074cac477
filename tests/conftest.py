"""Shared fixtures and tiny graph builders."""

from __future__ import annotations

import json
import os
import sys
from fractions import Fraction

import pytest

from bookembed.graph import WeightedGraph, parse_graph
from bookembed.oracle import random_outerplanar

# the benchmark's modules under ``perfbench/`` import as top-level names
PERFBENCH = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                         "perfbench")
if PERFBENCH not in sys.path:
    sys.path.insert(0, PERFBENCH)


def graph_from(edges, vertices=()):
    """Build a graph from (u, v, w) label triples."""
    labels = []
    seen = set()
    for lab in vertices:
        if lab not in seen:
            seen.add(lab)
            labels.append(lab)
    for u, v, _ in edges:
        for lab in (u, v):
            if lab not in seen:
                seen.add(lab)
                labels.append(lab)
    index = {lab: i for i, lab in enumerate(labels)}
    return WeightedGraph(
        labels, [(index[u], index[v], Fraction(w)) for u, v, w in edges]
    )


@pytest.fixture
def triangle_5_6_11():
    return parse_graph('{"edges":[["a","b","5"],["b","c","6"],["a","c","11"]]}')


@pytest.fixture
def triangle_equal():
    return graph_from([("a", "b", 1), ("b", "c", 1), ("a", "c", 1)])


@pytest.fixture
def k2():
    return graph_from([("a", "b", 5)])


def fractional(g):
    """``g`` with the weight ``w / (e + 2)`` on edge ``e``, so that the
    denominators differ from edge to edge."""
    return WeightedGraph(
        g.labels, [(u, v, w / (e + 2)) for e, (u, v, w) in enumerate(g.edges)]
    )


def coprime(g):
    """``g`` with the weight ``w + 1/(2**64 + e)`` on edge ``e``: pairwise
    near-coprime denominators beyond 64 bits, so ``WeightedGraph.scaled``
    keeps the Fractions.  The verdicts of integer ``w`` change only where
    ties break."""
    return WeightedGraph(
        g.labels,
        [(u, v, w + Fraction(1, 2**64 + e)) for e, (u, v, w) in enumerate(g.edges)],
    )


def cut_cycle(cycle, s, t):
    """Linear order with s first and t last, cutting the cycle at edge (s,t);
    None unless s and t are cyclically consecutive (either direction).  The
    reference for :meth:`bookembed.outerplanar.OuterCycle.cut`."""
    n = len(cycle)
    if n == 2:
        return [s, t] if {s, t} == set(cycle) else None
    pos = {v: i for i, v in enumerate(cycle)}
    if s not in pos or t not in pos:
        return None
    i, j = pos[s], pos[t]
    if (i + 1) % n == j:
        # cycle reads ... s t ...: walk backwards from s around to t
        return [cycle[(i - k) % n] for k in range(n)]
    if (j + 1) % n == i:
        return [cycle[(i + k) % n] for k in range(n)]
    return None


def walk_reference(tree, block, parent=None):
    """The definition of :meth:`BlockCutTree.walk` from ``block`` under
    ``parent``: for each of the block's ``cuts`` but ``parent`` in turn,
    each other block at that cut in ``blocks_of_vertex`` order, its own
    walk; then ``(block, parent)``.  Recursive, so for small forests only."""
    pairs = []
    for c in tree.blocks[block].cuts:
        if c != parent:
            for b in tree.blocks_of_vertex[c]:
                if b != block:
                    pairs += walk_reference(tree, b, c)
    return pairs + [(block, parent)]


def subtree(g, tree, walk, kind, node):
    """The vertices of the subtree at ``node`` of the rooting ``walk``, by a
    search of ``g``: for a block (``kind`` "B"), what stays joined to it
    once its parent cut is removed, with that cut; for a cut vertex ("C"),
    what it reaches without an edge of its parent block."""
    parents = dict(walk)
    above = None
    if kind == "B":
        seen = {parents[node]} - {None}
        stack = [v for v in tree.blocks[node].vertices if v not in seen]
    else:
        above = next(b for b in tree.blocks_of_vertex[node] if parents[b] != node)
        seen, stack = set(), [node]
    seen.update(stack)
    adjacency = g.adjacency
    while stack:
        v = stack.pop()
        for eid in adjacency[v]:
            if tree.block_of_edge[eid] != above:
                a, b = g.ends[eid]
                u = b if a == v else a
                if u not in seen:
                    seen.add(u)
                    stack.append(u)
    return seen


def small_corpus(count, *, max_n=8, weights=(1, 20), seed0=0):
    """Seeded connected outerplanar instances mixing sizes and biconnectivity."""
    out = []
    for i in range(count):
        n = 1 + (i * 5) % max_n
        out.append(
            random_outerplanar(
                n, weights, seed=seed0 + i, biconnected=(i % 3 == 0)
            )
        )
    return out


K2_2D = {
    "vertices": [{"id": "a", "x": "0"}, {"id": "b", "x": "1"}],
    "edges": [{"u": "a", "v": "b", "w": "1", "rect": ["0", "1", "0", "1"]}],
}
# 2-D embedding documents (the ``embed-2d`` output form) that are malformed
MALFORMED_2D = {
    "2d-unknown-vertex": json.dumps({**K2_2D, "vertices": K2_2D["vertices"][:1]}),
    "2d-missing-rect": json.dumps(
        {**K2_2D, "edges": [{"u": "a", "v": "b", "w": "1"}]}
    ),
    "2d-vertices-not-array": json.dumps({**K2_2D, "vertices": "ab"}),
    "2d-three-coordinates": json.dumps(
        {**K2_2D, "edges": [{"u": "a", "v": "b", "w": "1", "rect": ["0", "1", "0"]}]}
    ),
    "2d-number-coordinate": json.dumps(
        {**K2_2D, "edges": [{"u": "a", "v": "b", "w": "1", "rect": [0, 1, 0, 1]}]}
    ),
    # a rect that is not an array, though its characters or keys would spell
    # the rectangle (0, 2, 0, 3) of an edge that weighs 6 from x = 0 to 2
    **{
        f"2d-rect-{name}": json.dumps({
            "vertices": [{"id": "a", "x": "0"}, {"id": "b", "x": "2"}],
            "edges": [{"u": "a", "v": "b", "w": "6", "rect": rect}],
        })
        for name, rect in (
            ("string", "0203"),
            ("object", {"0": "x0", "2": "x1", "00": "y0", "3": "y1"}),
        )
    },
}
