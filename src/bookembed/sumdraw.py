"""Drawer for book-embeddings in which every edge strictly outweighs any
sequence of disjointly placed edges under it (the "sum" class).

The general drawer is a bottom-up dynamic program over the block-cut-vertex
tree.  Cut vertices carry a Pareto front of partial embeddings keyed by the
left/right extensions around the cut (:func:`blocks.fold_cut`, children
by heaviest edge); blocks carry a front keyed by free space and total
extension.  Fronts hold weights in units of ``1/g.scaled[1]``.
"""

from __future__ import annotations

from bisect import bisect_left
from fractions import Fraction

from . import seq
from .blocks import fold_cut, rooted_block_orders
from .embedding import BookEmbedding, Failure, per_component
from .exact import INF
from .graph import build_bc_tree, component

_UNDER = "an edge does not outweigh the edges directly under it"


def _greedy(ell, cuts, centries, forced_first=None):
    """Fill each cut position with the max-left-extension entry that fits.

    ``cuts``: ascending ``(position, cut)`` pairs; ``ell``: remaining free
    space at each position of the block order (mutated).  ``forced_first``
    pins the entry index used for ``cuts[0]``, a cut at position 1.  Returns
    ``(repl, alpha_sub, tau_extra)`` or None.
    """
    k_last = len(ell) - 1
    repl = {}
    alpha_sub = 0
    tau_extra = 0
    for idx, (x, c) in enumerate(cuts):
        ropes, lams, rhos = centries[c]
        if idx == 0 and forced_first is not None:
            j = forced_first
            if not lams[j] < ell[x]:
                return None
        else:
            j = bisect_left(lams, ell[x]) - 1
            if j < 0:
                return None
        if x < k_last:
            if not rhos[j] < ell[x + 1]:
                return None
            ell[x + 1] -= rhos[j]
        if x == 1:
            alpha_sub = lams[j]
        if x == k_last:
            tau_extra = rhos[j]
        repl[c] = ropes[j]
    return repl, alpha_sub, tau_extra


def sum_be_drawer(g, audit=None):
    """Test and construct over a connected outerplanar graph or one
    ``Component`` of any graph; returns a BookEmbedding or a Failure.

    condition 1: a block admits no embedding of the class;
    condition 2: a block's forced order has its parent cut inside;
    "empty-pareto": some tree node ended with no feasible partial embedding;
    the Failure names the first such node of the bottom-up walk, which
    visits the blocks in the order of :func:`graph.build_bc_tree` and each
    block after its child cuts.

    ``audit(kind, node, entries)`` is called with every finished Pareto front
    ("C": (rope, lambda, rho); "B": (rope, alpha, tau), values as Fractions)
    so tests can assert the structural invariants at every tree node.
    """
    g = component(g)
    if g.n == 1:
        return BookEmbedding((g.root,))
    walk = build_bc_tree(g)
    tree = g.tree
    block_cuts, block_steps, failure = rooted_block_orders(g, walk, sum, _UNDER)
    if failure is not None:
        return failure
    den = g.scaled[1]

    bentries = {}
    centries = {}
    # below[b]: the vertices of block b's subtree but its parent cut.  A
    # cut's front holds at most one entry per vertex of the cut's subtree.
    below = {}

    def process_cut(c, bid):
        kids = sorted([b2 for b2 in tree.blocks_of_vertex[c] if b2 != bid],
                      key=lambda b2: (tree.blocks[b2].max_weight, b2))
        under_c = sum(map(below.__getitem__, kids))
        below[bid] += under_c
        entries = fold_cut(c, [bentries[b2] for b2 in kids], 0)
        if entries is None:
            return None
        assert len(entries) <= 1 + under_c, "Pareto front exceeds the size bound"
        if audit is not None:
            audit("C", c, [(r, Fraction(a, den), Fraction(b, den)) for r, a, b in entries])
        centries[c] = tuple(zip(*entries))
        return entries

    def process_block(bid, parent):
        forced = block_cuts[bid]
        order = forced.order()
        cuts = sorted((forced.position(c), c) for c in tree.blocks[bid].cuts if c != parent)
        steps = block_steps[bid]
        # the order is cut at the block's unique heaviest edge
        w_top = tree.blocks[bid].max_weight
        w_first = steps[0]
        # In a non-root block, every entry choice for a first cut at
        # position 1 trades free space against room on its right, so each
        # is tried and the whole front kept; otherwise the greedy picks
        # every cut's entry.
        if cuts and cuts[0][0] == 1 and parent is not None:
            choices = range(len(centries[cuts[0][1]][0]))
        else:
            choices = (None,)
        entries = []
        for j in choices:
            # only the root can have a cut at position 0, and nothing bounds
            # its left extension: INF picks the minimum-right-extension entry
            res = _greedy([INF, *steps], cuts, centries, forced_first=j)
            if res is None:
                continue
            repl, alpha_sub, tau_extra = res
            tau = w_top + tau_extra
            # met in decreasing free space: drop the up-down dominated
            if not entries or tau < entries[-1][2]:
                entries.append((seq.blk(order, repl or None), w_first - alpha_sub, tau))
        if not entries:
            return None
        entries.reverse()
        if audit is not None and parent is not None:
            audit("B", bid, [(r, Fraction(a, den), Fraction(b, den)) for r, a, b in entries])
        bentries[bid] = entries
        return entries

    for bid, parent in walk:
        below[bid] = len(tree.blocks[bid].vertices) - 1
        for c in tree.blocks[bid].cuts:
            if c != parent and process_cut(c, bid) is None:
                return Failure(
                    "empty-pareto", "no feasible combination at a cut vertex",
                    cut_vertex=c,
                )
        if process_block(bid, parent) is None:
            return Failure("empty-pareto", "no feasible block extension", block=bid)

    return BookEmbedding(seq.materialize(bentries[walk[-1][0]][0][0]))


def embed_sum(g):
    """Per-component driver (components concatenated side by side)."""
    return per_component(g, sum_be_drawer)
