"""Drawer for book-embeddings in which every edge strictly outweighs any
sequence of disjointly placed edges under it (the "sum" class).

The general drawer is a bottom-up dynamic program over the block-cut-vertex
tree.  Cut vertices carry a Pareto front of partial embeddings keyed by the
left/right extensions around the cut; blocks carry a front keyed by free
space and total extension.  Fronts hold weights in units of ``1/g.scaled[1]``.
"""

from __future__ import annotations

from bisect import bisect_left
from fractions import Fraction

from . import seq
from .blocks import rooted_block_orders
from .embedding import BookEmbedding, Failure, per_component
from .exact import INF
from .graph import build_bc_tree

_UNDER = "an edge does not outweigh the edges directly under it"


def _polish_left_right(entries):
    """Keep the Pareto-minimal (lambda, rho) entries: lambda strictly
    increasing, rho strictly decreasing."""
    entries.sort(key=lambda e: (e[1], e[2]))
    kept = []
    for e in entries:
        if kept and kept[-1][2] <= e[2]:
            continue
        kept.append(e)
    return kept


def _greedy(order, ell, cuts, centries, forced_first=None):
    """Fill each cut position with the max-left-extension entry that fits.

    ``cuts``: ascending ``(position, cut)`` pairs; ``ell``: remaining free
    space indexed by position (mutated).  ``forced_first`` pins the entry index
    used for ``cuts[0]``, a cut at position 1.  Returns ``(repl, alpha_sub,
    tau_extra)`` or None.
    """
    k_last = len(order) - 1
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
        repl[order[x]] = ropes[j]
    return repl, alpha_sub, tau_extra


def sum_be_drawer(g, audit=None):
    """Test and construct over a connected outerplanar graph; returns a
    BookEmbedding or a Failure.

    condition 1: a block admits no embedding of the class;
    condition 2: a block's forced order has its parent cut inside;
    "empty-pareto": some tree node ended with no feasible partial embedding;
    the Failure names the first such node of the bottom-up walk, which
    visits ``block_postorder`` and each block after its child cuts.

    ``audit(kind, node, entries)`` is called with every finished Pareto front
    ("C": (rope, lambda, rho); "B": (rope, alpha, tau), values as Fractions)
    so tests can assert the structural invariants at every tree node.
    """
    if g.n == 1:
        return BookEmbedding((0,))
    rooted = build_bc_tree(g)
    tree = rooted.tree
    block_order, block_steps, failure = rooted_block_orders(g, rooted, sum, _UNDER)
    if failure is not None:
        return failure
    den = g.scaled[1]

    bentries = {}
    centries = {}

    def process_cut(c):
        kids = sorted(rooted.child_blocks[c], key=lambda b2: (tree.blocks[b2].max_weight, b2))
        entries = None
        partial_n = 1
        for b2 in kids:
            bent = bentries[b2]
            partial_n += rooted.n_plus_b[b2] - 1
            if entries is None:
                rope0, _alpha0, tau0 = bent[0]
                entries = [(rope0, 0, tau0), (seq.flip(rope0), tau0, 0)]
            else:
                new = []
                for rope_l, lam, rho in entries:
                    for rope_b, alpha, tau in bent:
                        tail = seq.skipping(rope_b, c)
                        if alpha > rho:
                            new.append((seq.cat(rope_l, tail), lam, tau))
                        if alpha > lam:
                            new.append((seq.cat(seq.flip(tail), rope_l), tau, rho))
                if not new:
                    return None
                entries = _polish_left_right(new)
            assert len(entries) <= partial_n, "Pareto front exceeds the size bound"
        if audit is not None:
            audit("C", c, [(r, Fraction(a, den), Fraction(b, den)) for r, a, b in entries])
        centries[c] = (
            [e[0] for e in entries],
            [e[1] for e in entries],
            [e[2] for e in entries],
        )
        return entries

    def process_block(bid):
        order = block_order[bid]
        pos = {v: i for i, v in enumerate(order)}
        cuts = sorted((pos[c], c) for c in rooted.child_cuts[bid])
        steps = block_steps[bid]
        # the order is cut at the block's unique heaviest edge
        w_top = tree.blocks[bid].max_weight
        w_first = steps[0]

        def fresh_ell():
            # only the root can have a cut at position 0, and nothing bounds
            # its left extension: INF picks the minimum-right-extension entry
            return [INF, *steps]

        is_root = bid == rooted.root
        if cuts and cuts[0][0] == 1 and not is_root:
            # All entry choices for the first cut trade free space against
            # room on its right; keep the whole front.
            branches = []
            ropes1, lams1, _rhos1 = centries[cuts[0][1]]
            for j in range(len(ropes1)):
                res = _greedy(order, fresh_ell(), cuts, centries, forced_first=j)
                if res is None:
                    continue
                repl, alpha_sub, tau_extra = res
                branches.append(
                    (seq.blk(order, repl), w_first - alpha_sub, w_top + tau_extra)
                )
            if not branches:
                return None
            # built in decreasing free-space order; drop up-down dominated
            kept = []
            for rope, alpha, tau in branches:
                if kept and kept[-1][2] <= tau:
                    continue
                kept.append((rope, alpha, tau))
            kept.reverse()
            entries = kept
        else:
            res = _greedy(order, fresh_ell(), cuts, centries)
            if res is None:
                return None
            repl, alpha_sub, tau_extra = res
            entries = [
                (seq.blk(order, repl or None), w_first - alpha_sub, w_top + tau_extra)
            ]
        if audit is not None and not is_root:
            audit("B", bid, [(r, Fraction(a, den), Fraction(b, den)) for r, a, b in entries])
        bentries[bid] = entries
        return entries

    for bid in rooted.block_postorder:
        for c in rooted.child_cuts[bid]:
            if process_cut(c) is None:
                return Failure(
                    "empty-pareto", "no feasible combination at a cut vertex",
                    cut_vertex=c,
                )
        if process_block(bid) is None:
            return Failure("empty-pareto", "no feasible block extension", block=bid)

    return BookEmbedding(seq.materialize(bentries[rooted.root][0][0]))


def embed_sum(g):
    """Per-component driver (components concatenated side by side)."""
    return per_component(g, sum_be_drawer)
