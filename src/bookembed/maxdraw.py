"""Drawer for book-embeddings in which every wrapping edge strictly
outweighs each edge it wraps (the "max" class)."""

from __future__ import annotations

from fractions import Fraction

from . import seq
from .blocks import rooted_block_orders
from .embedding import BookEmbedding, Failure, per_component
from .exact import INF
from .graph import build_bc_tree

_WRAPS = "an edge does not outweigh an edge it wraps"


# The benchmark tracer (perfbench/tracer.py) counts max rejections through
# isinstance(result, maxdraw.MaxFailure).
MaxFailure = Failure


def max_be_drawer(g):
    """Test and construct over a connected outerplanar graph; returns a
    BookEmbedding or a Failure.

    condition 1: some block admits no embedding of the class.
    condition 2: a block's forced order has its parent cut vertex inside.
    condition 3: a block subtree fits on neither side of its cut vertex.
    """
    if g.n == 1:
        return BookEmbedding((0,))
    rooted = build_bc_tree(g)
    den = g.scaled[1]

    block_order, block_steps, failure = rooted_block_orders(g, rooted, max, _WRAPS)
    if failure is not None:
        return failure

    ropes = {}
    for bid in rooted.block_postorder:
        repl = {}
        order = block_order[bid]
        steps = block_steps[bid]
        pos = {v: i for i, v in enumerate(order)} if rooted.child_cuts[bid] else None
        for ci in rooted.child_cuts[bid]:
            # the lowest edges on either side of ci join it to its neighbours
            p = pos[ci]
            left_w = steps[p - 1] if p > 0 else INF
            right_w = steps[p] if p < len(steps) else INF
            left_parts = []
            right_parts = []
            kids = sorted(
                rooted.child_blocks[ci], key=lambda b2: (-rooted.w_plus[b2], b2)
            )
            for b2 in kids:
                w_plus = rooted.w_plus[b2]
                if w_plus >= left_w and w_plus >= right_w:  # so neither side is INF
                    return Failure(
                        3, "subtree fits on neither side of its cut vertex",
                        block=bid, cut_vertex=ci,
                        weights=tuple(Fraction(x, den) for x in (w_plus, left_w, right_w)),
                    )
                child = seq.skipping(ropes[b2], ci)
                r_child = block_steps[b2][0]  # ci is first in b2's order
                if w_plus < right_w:
                    right_parts.append(child)
                    right_w = r_child
                else:
                    left_parts.append(seq.flip(child))
                    left_w = r_child
            repl[ci] = seq.cat(
                *left_parts, seq.one(ci), *reversed(right_parts)
            )
        ropes[bid] = seq.blk(order, repl or None)
    return BookEmbedding(seq.materialize(ropes[rooted.root]))


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
    left = [g.weight(g.edge_between(0, v)) for v in result.order[:center_pos]]
    right = [g.weight(g.edge_between(0, v)) for v in result.order[center_pos + 1:]]
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
