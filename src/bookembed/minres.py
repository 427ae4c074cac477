"""Tester/constructor for 1-page embeddings that can support a
finite-resolution two-dimensional drawing: every edge must satisfy
``weight >= burden + 1`` (burden = vertices strictly under the edge).

The driver anchors one edge at a time as the globally unnested edge and runs
a bottom-up pass over the block-cut-vertex tree rooted at the anchor's block.
Cut vertices carry fronts keyed by the vertex counts left/right of the cut
(:func:`blocks.fold_cut`, children by residual plus size); blocks keep a
single maximum-residual extension.

A subtree's result depends only on its top node and that node's parent, so
one drawer call caches the block result per (block, parent cut) and the cut
front per (cut, parent block), failures included: anchors share everything
below their own block.  Each anchor's search is one depth-first walk: a node
is solved when its last child is, a failure is cached for the failing node
and its unsolved ancestors, and a node below a root is entered at most once
per drawer call.  Condition 1 (the block order that cuts a given cycle edge
has ``weight >= span`` everywhere) is answered for every cut of a block by
one O(k + m) sweep on the block's first use.  Weights are scaled once to
integers over their common denominator; residuals leave the module as exact
Fractions.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import replace
from fractions import Fraction
from itertools import accumulate
from math import inf

from . import seq
from .blocks import fold_cut
from .embedding import BookEmbedding, Failure, per_component
from .errors import NotOuterplanarError
from .graph import BlockCutTree, component
from .outerplanar import Cut, block_outer_cycle


class _AnchorSearch:
    """Anchor runs over one graph that share their subtree results.

    An anchor run gives None when the anchor's own block has no supporting
    order with the anchor outermost (condition 1, which
    :func:`minres_be_drawer_anchor` reports), and a :class:`Failure` with
    condition 2 when some other block has no supporting order with its
    parent cut extreme, 3 when a cut vertex's fold came up empty, and 4 when
    a block extension failed for every stored order.

    ``cycles[b]`` is block ``b``'s :class:`~bookembed.outerplanar.OuterCycle`
    record; a block's candidate orders are its cuts.  A node below the root
    is ``("B", block, parent cut)`` or ``("C", cut, parent block)``, and
    ``results`` maps it to its result or its Failure.  A block result is
    ``(rope, residual, vertex count)``; a cut result is the front
    ``(ropes, nls, nrs)`` sorted by ``nl``.  Residuals are scaled by ``den``
    like the weights.
    """

    def __init__(self, g, tree, cycles, audit=None):
        self.ends = g.ends
        self.tree = tree
        self.cycles = cycles
        self.audit = audit
        self.w, self.den = g.scaled
        self.sweeps = {}  # block -> which cycle edges it may be cut at
        self.results = {}  # node -> result or Failure

    def run(self, e_star):
        """Supporting embedding with ``e_star`` unnested, a Failure without
        its anchor, or None when condition 1 fails."""
        results = self.results
        root = self.tree.block_of_edge[e_star]
        u, v = self.ends[e_star]
        cut = self.cycles[root].cut(min(u, v), max(u, v))
        if cut is None or not self._supports(root, cut):
            return None

        # a frame (node, unsolved children, candidate cuts) per unsolved node
        # from the root down; a node is solved when its last child is
        blocks, blocks_of = self.tree.blocks, self.tree.blocks_of_vertex
        stack = []
        node, cuts = ("B", root, None), [cut]
        while True:
            kind, x, parent = node
            unsolved = []
            stack.append((node, unsolved, cuts))
            if cuts == []:
                return self._fail(stack, Failure(
                    2, "no supporting order keeps the parent cut extreme",
                    block=x, cut_vertex=parent,
                ))
            if kind == "C":
                kids = [("B", b, x) for b in blocks_of[x] if b != parent]
            else:
                kids = [("C", c, x) for c in blocks[x].cuts if c != parent]
            for kid in kids:  # a failure cached below fails the node before any solve
                known = results.get(kid)
                if known is None:
                    unsolved.append(kid)
                elif isinstance(known, Failure):
                    return self._fail(stack, known)
            while not stack[-1][1]:
                node, _, cuts = stack[-1]
                kind, x, parent = node
                if kind == "C":
                    result = self._process_cut(x, parent)
                    if result is None:
                        return self._fail(stack, Failure(
                            3, "no feasible combination at a cut vertex", cut_vertex=x,
                        ))
                else:
                    result = self._process_block(x, parent, cuts)
                    if result is None:
                        return self._fail(stack, Failure(
                            4, "no supporting extension of the block", block=x,
                        ))
                stack.pop()
                if not stack:
                    return BookEmbedding(seq.materialize(result[0]))
                results[node] = result
            node = stack[-1][1].pop()
            cuts = self._candidates(node[1], node[2]) if node[0] == "B" else None

    def _fail(self, stack, failure):
        """``failure``, cached for every frame but the root's."""
        for node, _unsolved, _cuts in stack[1:]:
            self.results[node] = failure
        return failure

    def _sweep(self, bid):
        """``ok[j]`` for block ``bid`` is true when cutting its cycle between
        positions j and j + 1 leaves weight >= span on every block edge.

        An edge at positions p < q spans k - (q - p) under the cuts p..q-1
        and q - p under the others, so one difference array counts the
        failing edges of every cut at once."""
        k = len(self.tree.blocks[bid].vertices)
        w, den = self.w, self.den
        fails = [0] * (k + 1)
        for p, q, eid in self.cycles[bid].spans:
            outside = w[eid] < den * (q - p)
            shift = (w[eid] < den * (k - q + p)) - outside  # on cuts p..q-1
            fails[0] += outside
            fails[p] += shift
            fails[q] -= shift
        return [f == 0 for f in accumulate(fails[:k])]

    def _supports(self, bid, cut):
        """Whether ``cut``, an order of block ``bid``, satisfies weight >=
        span everywhere.  The block is swept on first use."""
        ok = self.sweeps.get(bid)
        if ok is None:
            ok = self.sweeps[bid] = self._sweep(bid)
        return ok[cut.dropped()]

    def _candidates(self, bid, c):
        """Supporting cuts of block ``bid`` with its parent cut ``c`` first,
        by the id of their last vertex."""
        cuts = sorted(self.cycles[bid].cuts(c), key=Cut.last)
        return [cut for cut in cuts if self._supports(bid, cut)]

    def _process_cut(self, c, parent):
        den = self.den
        kids = []
        for b2 in self.tree.blocks_of_vertex[c]:
            if b2 != parent:
                result = self.results["B", b2, c]
                kids.append((result[1] + result[2] * den, b2, result))
        kids.sort()  # b2 breaks every tie
        # room > x iff resid >= x * den; made lazily, as the fold stops at
        # the first child that fits nowhere
        options = ([(rope, resid // den + 1, size - 1)] for _, _, (rope, resid, size) in kids)
        entries = fold_cut(c, options, 1)
        if entries is None:
            return None
        if self.audit is not None:
            self.audit("C", c, entries)
        return tuple(zip(*entries))

    def _process_block(self, bid, parent, cuts):
        best = None
        for cut in cuts:
            out = self._extend_block(bid, parent, cut)
            if out is not None and (best is None or out[1] > best[1]):
                best = out
        if best is not None and self.audit is not None:
            self.audit("B", bid, (best[0], Fraction(best[1], self.den)))
        return best

    def _extend_block(self, bid, parent, cut):
        w, den = self.w, self.den
        order = cut.order()
        spans = cut.spans()
        slack = [w[eid] - (b - a) * den for a, b, eid in spans]  # weight - span, scaled
        cuts = sorted(
            ((cut.position(c), c) for c in self.tree.blocks[bid].cuts if c != parent),
            reverse=True,
        )
        results = self.results
        repl = {}
        size = len(order)
        for x, c in cuts:
            ropes, nls, nrs = results["C", c, bid]
            total = nls[0] + nrs[0]
            size += total
            cover_min = left_min = right_min = inf
            for i, (a, b, _eid) in enumerate(spans):
                if a < x < b:
                    if slack[i] < cover_min:
                        cover_min = slack[i]
                elif b == x:
                    if slack[i] < left_min:
                        left_min = slack[i]
                elif a == x:
                    if slack[i] < right_min:
                        right_min = slack[i]
            if not cover_min >= total * den:
                return None
            # entries sorted by n_left; the splice is supporting iff
            # n_left <= left_min and n_right <= right_min
            if right_min == inf:
                j = 0
            else:
                j = bisect_left(nls, total - right_min // den)
                if j >= len(nls):
                    return None
            if not nls[j] * den <= left_min:
                return None
            for i, (a, b, _eid) in enumerate(spans):
                if a < x < b:
                    slack[i] -= total * den
                elif b == x:
                    slack[i] -= nls[j] * den
                elif a == x:
                    slack[i] -= nrs[j] * den
            repl[c] = ropes[j]
        residual = inf
        for i, (a, _b, _eid) in enumerate(spans):
            if a == 0 and slack[i] < residual:
                residual = slack[i]
        return seq.blk(order, repl or None), residual, size


def _outer_cycles(g, blocks, bids, cycles=None):
    """``cycles``, or when None the :class:`~bookembed.outerplanar.OuterCycle`
    record of every block ``blocks[b]`` for ``b`` in ``bids``, by block id;
    :class:`NotOuterplanarError` if a block in ``bids`` has none."""
    if cycles is None:
        cycles = {b: block_outer_cycle(g, blocks[b].vertices, blocks[b].edge_ids)
                  for b in bids}
    if any(cycles[b] is None for b in bids):
        raise NotOuterplanarError("graph is not outerplanar")
    return cycles


def minres_be_drawer_anchor(g, e_star, *, decomposition=None, cycles=None, audit=None):
    """Supporting embedding of a connected graph in which ``e_star`` is
    nested under no edge, or a Failure.  ``cycles``, when given, holds the
    :func:`~bookembed.outerplanar.block_outer_cycle` record of every block
    of ``decomposition`` by block id.  Each call starts from empty caches,
    so ``audit`` sees every node it solves."""
    tree = decomposition or BlockCutTree(g)
    cycles = _outer_cycles(g, tree.blocks, range(len(tree.blocks)), cycles)
    result = _AnchorSearch(g, tree, cycles, audit=audit).run(e_star)
    if result is None:
        return Failure(
            1, "anchor block has no supporting order with the anchor outermost",
            block=tree.block_of_edge[e_star], anchor=e_star,
        )
    return replace(result, anchor=e_star) if isinstance(result, Failure) else result


def minres_be_drawer(g):
    """Supporting embedding of a connected outerplanar graph or one
    ``Component`` of any graph, or a Failure that gives no condition.

    Anchors are tried in edge-id order and the first success wins.  They
    share one search, so each subtree result is computed once.
    """
    g = component(g)
    if g.n == 1:
        return BookEmbedding((g.root,))
    blocks = g.tree.blocks
    search = _AnchorSearch(g, g.tree, _outer_cycles(g, blocks, g.block_ids))
    for e_star in sorted(e for b in g.block_ids for e in blocks[b].edge_ids):
        result = search.run(e_star)
        if isinstance(result, BookEmbedding):
            return result
    return Failure(None, "no supporting embedding")


def embed_minres(g):
    """Per-component driver (components concatenated side by side)."""
    return per_component(g, minres_be_drawer)
