"""Drawer for book-embeddings in which every wrapping edge strictly
outweighs each edge it wraps (the "max" class)."""

from __future__ import annotations

from fractions import Fraction

from . import seq
from .blocks import rooted_block_orders
from .embedding import BookEmbedding, Failure, per_component
from .exact import INF
from .graph import build_bc_tree, component

_WRAPS = "an edge does not outweigh an edge it wraps"


# The benchmark tracer (perfbench/tracer.py) counts max rejections through
# isinstance(result, maxdraw.MaxFailure).
MaxFailure = Failure


def max_be_drawer(g):
    """Test and construct over a connected outerplanar graph or one
    ``Component`` of any graph; returns a BookEmbedding or a Failure.

    condition 1: some block admits no embedding of the class.
    condition 2: a block's forced order has its parent cut vertex inside.
    condition 3: a block subtree fits on neither side of its cut vertex.
    """
    g = component(g)
    if g.n == 1:
        return BookEmbedding((g.root,))
    walk = build_bc_tree(g)
    blocks, blocks_of_vertex = g.tree.blocks, g.tree.blocks_of_vertex
    den = g.scaled[1]

    block_orders, block_steps, failure = rooted_block_orders(g, walk, max, _WRAPS)
    if failure is not None:
        return failure

    ropes = {}
    w_plus = {}  # the heaviest edge weight in each block's subtree
    for bid, parent in walk:
        repl = {}
        forced = block_orders[bid]
        steps = block_steps[bid]
        w_top = blocks[bid].max_weight
        for ci in blocks[bid].cuts:
            if ci == parent:
                continue
            # the lowest edges on either side of ci join it to its neighbours
            p = forced.position(ci)
            left_w = steps[p - 1] if p > 0 else INF
            right_w = steps[p] if p < len(steps) else INF
            left_parts = []
            right_parts = []
            kids = sorted([b2 for b2 in blocks_of_vertex[ci] if b2 != bid],
                          key=lambda b2: (-w_plus[b2], b2))
            if w_plus[kids[0]] > w_top:  # the first child is the heaviest
                w_top = w_plus[kids[0]]
            for b2 in kids:
                w = w_plus[b2]
                if w >= left_w and w >= right_w:  # so neither side is INF
                    return Failure(
                        3, "subtree fits on neither side of its cut vertex",
                        block=bid, cut_vertex=ci,
                        weights=tuple(Fraction(x, den) for x in (w, left_w, right_w)),
                    )
                child = seq.skipping(ropes[b2], ci)
                r_child = block_steps[b2][0]  # ci is first in b2's order
                if w < right_w:
                    right_parts.append(child)
                    right_w = r_child
                else:
                    left_parts.append(seq.flip(child))
                    left_w = r_child
            repl[ci] = seq.cat(*left_parts, seq.one(ci), *reversed(right_parts))
        w_plus[bid] = w_top
        ropes[bid] = seq.blk(forced.order(), repl or None)
    return BookEmbedding(seq.materialize(ropes[walk[-1][0]]))


def embed_max(g):
    """Per-component driver: components concatenated by smallest vertex id,
    single-vertex components moved to the right end."""
    return per_component(g, max_be_drawer)


def star_sort_demo(weights):
    """Sorting via the drawer: build a star, embed it, merge the two
    monotone sides around the center.  Weights must be pairwise distinct."""
    ws = [Fraction(w) for w in weights]
    if len(set(ws)) != len(ws):
        raise ValueError("weights must be pairwise distinct")
    if not ws:
        return []
    labels = ["c"] + [f"u{i}" for i in range(len(ws))]
    edges = [(0, i + 1, w) for i, w in enumerate(ws)]
    from .graph import WeightedGraph

    g = WeightedGraph(labels, edges)
    result = max_be_drawer(g)
    if not isinstance(result, BookEmbedding):
        raise RuntimeError("star embedding unexpectedly failed")
    center_pos = result.position[0]
    # leaf v is joined to the center by edge v - 1, of weight ws[v - 1]
    left = [ws[v - 1] for v in result.order[:center_pos]]
    right = [ws[v - 1] for v in result.order[center_pos + 1:]]
    # left reads outermost-first (descending), right innermost-first (ascending)
    left.reverse()
    merged = []
    i = j = 0
    while i < len(left) and j < len(right):
        if left[i] < right[j]:
            merged.append(left[i])
            i += 1
        else:
            merged.append(right[j])
            j += 1
    merged.extend(left[i:])
    merged.extend(right[j:])
    return merged
