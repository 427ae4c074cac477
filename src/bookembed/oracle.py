"""Brute-force ground truth for small instances plus the seeded random
outerplanar generator.

The existence checks here are definitional and deliberately share no code
with the optimized validators: orders come from exhaustive backtracking and
each class is checked straight from its definition (see ``_fast``).
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from . import _fast
from .embedding import BookEmbedding
from .errors import PreconditionError
from .graph import WeightedGraph, _over_lcm

ORACLE_MAX_N = 11

_CLASS_CODES = {
    "one-page": _fast.CLASS_ONE_PAGE,
    "max": _fast.CLASS_MAX,
    "sum": _fast.CLASS_SUM,
    "minres-supporting": _fast.CLASS_MINRES,
}


@dataclass
class OracleVerdict:
    exists: bool
    witnesses: list
    count: int


def _guard(g):
    if g.n > ORACLE_MAX_N:
        raise PreconditionError(
            f"oracle is exhaustive; refusing n={g.n} > {ORACLE_MAX_N}"
        )


def _edge_arrays(g):
    eu = [u for u, _ in g.ends]
    ev = [v for _, v in g.ends]
    return eu, ev


def enumerate_one_page(g, cap=0):
    """All vertex orders in which no two edges cross, up to ``cap`` (0 = all)."""
    _guard(g)
    eu, ev = _edge_arrays(g)
    return [BookEmbedding(o) for o in _fast.one_page_orders(g.n, eu, ev, cap)]


def oracle_exists(g, embedding_class, *, exhaustive=False, max_witnesses=1):
    """Exhaustive-filter existence check for an embedding class.

    ``embedding_class`` is one of ``one-page``, ``max``, ``sum``,
    ``minres-supporting``.  Enumeration stops at the first passing order
    unless ``exhaustive`` is set, in which case ``count`` is the exact number
    of passing orders (flips counted separately).
    """
    _guard(g)
    cls = _CLASS_CODES[embedding_class]
    eu, ev = _edge_arrays(g)
    wnum, wden = _over_lcm(*g.ratios())
    count, witnesses = _fast.class_sweep(
        g.n, eu, ev, wnum, wden, cls, max_witnesses, exhaustive
    )
    return OracleVerdict(
        exists=count > 0,
        witnesses=[BookEmbedding(o) for o in witnesses],
        count=count,
    )


def definitional_check(g, embedding, embedding_class):
    """Definitional per-order check (the kernel's), for validator audits."""
    eu, ev = _edge_arrays(g)
    wnum, wden = _over_lcm(*g.ratios())
    return _fast.check_order(
        embedding.order, eu, ev, wnum, wden, _CLASS_CODES[embedding_class]
    )


# -- random outerplanar corpus ----------------------------------------------


def random_outerplanar(n, weight_range=(1, 20), seed=0, biconnected=False):
    """Seeded random outerplanar graph.

    A random outer cycle gets random non-crossing chords (a thinned random
    triangulation); with ``biconnected=False`` cycle edges are then deleted
    at random subject to keeping the graph connected.  Weights are uniform
    integers in ``weight_range``.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    rng = random.Random(seed)
    lo, hi = weight_range

    def w():
        return rng.randint(lo, hi)

    labels = [str(i) for i in range(n)]
    if n == 1:
        return WeightedGraph(labels, [])
    if n == 2:
        return WeightedGraph(labels, [(0, 1, w())])

    cycle = list(range(n))
    rng.shuffle(cycle)

    chord_pairs = []
    stack = [(0, n - 1)]
    while stack:
        i, j = stack.pop()
        if j - i < 2:
            continue
        k = rng.randint(i + 1, j - 1)
        if k - i >= 2:
            chord_pairs.append((i, k))
        if j - k >= 2:
            chord_pairs.append((k, j))
        stack.append((i, k))
        stack.append((k, j))
    chords = [(a, b) for a, b in chord_pairs if rng.random() < 0.5]

    edges = []
    cycle_edges = [(i, (i + 1) % n) for i in range(n)]
    if biconnected:
        kept_cycle = cycle_edges
    else:
        # union-find over chords; a cycle edge may go only if its endpoints
        # are already connected without it
        parent = list(range(n))

        def find(x):
            while parent[x] != x:
                parent[x] = parent[parent[x]]
                x = parent[x]
            return x

        for a, b in chords:
            parent[find(a)] = find(b)
        kept_cycle = []
        shuffled = cycle_edges[:]
        rng.shuffle(shuffled)
        decisions = {}
        for a, b in shuffled:
            ra, rb = find(a), find(b)
            if ra != rb:
                parent[ra] = rb
                decisions[(a, b)] = True
            else:
                decisions[(a, b)] = rng.random() >= 0.5
        kept_cycle = [e for e in cycle_edges if decisions[e]]

    for a, b in kept_cycle:
        edges.append((cycle[a], cycle[b], w()))
    for a, b in chords:
        edges.append((cycle[a], cycle[b], w()))
    return WeightedGraph(labels, edges)
