"""Internal helpers shared by the drawers: the forced block orders of the
max and sum classes, with the weights of their consecutive edges."""

from __future__ import annotations

from .embedding import Failure
from .errors import NotOuterplanarError
from .outerplanar import block_outer_cycle, cut_cycle, nesting_forest, span


def forced_block_order(g, block, under, reason):
    """The one order of a block that the max and sum classes allow:
    ``(order, steps, None)``, or ``(None, None, detail)`` when the block
    has none.

    The block's unique maximum-weight edge must lie on its outer cycle; the
    cycle is cut there (canonical flip).  Every edge must then strictly
    outweigh ``under`` (``max`` or ``sum``) of the weights of the edges
    directly under it, else the detail is ``reason``.  The outer cycle is
    searched after the maximum-edge test; :class:`NotOuterplanarError` is
    raised when there is none.

    ``steps[x]`` is the weight, in units of ``1/g.scaled[1]``, of the edge
    joining ``order[x]`` and ``order[x + 1]``.  Consecutive vertices of a cut
    outer cycle are adjacent, so these are the lowest edges on either side
    of every vertex of the order.
    """
    vertices, edge_ids = block.vertices, block.edge_ids
    if len(vertices) == 2:
        return sorted(vertices), [block.max_weight], None
    e_m = unique_max_edge(g, block)
    if e_m is None:
        return None, None, "no unique maximum-weight edge"
    cycle = block_outer_cycle(g, vertices, edge_ids)
    if cycle is None:
        raise NotOuterplanarError("block is not outerplanar")
    s, t = g.endpoints(e_m)
    order = cut_cycle(cycle, s, t)
    if order is None:
        return None, None, "maximum-weight edge is not on the outer face"
    order = min(order, cut_cycle(cycle, t, s))
    nums = g.scaled[0]
    pos = {v: i for i, v in enumerate(order)}
    spans = []
    ends = g.ends
    for eid in edge_ids:
        u, v = ends[eid]
        spans.append(span(pos, u, v) + (eid,))
    _parent, children, _roots = nesting_forest(len(order), spans)
    for idx, kids in enumerate(children):
        if kids and not nums[spans[idx][2]] > under(nums[spans[k][2]] for k in kids):
            return None, None, reason
    steps = [0] * (len(order) - 1)
    for a, b, eid in spans:
        if b == a + 1:
            steps[a] = nums[eid]
    return order, steps, None


def rooted_block_orders(g, rooted, under, reason):
    """Forced orders of every block of ``rooted``, each with its parent cut
    vertex first: ``(orders, steps, None)``, both keyed by block id, or
    ``(None, None, failure)`` for the first block without one.  The
    :class:`Failure` has condition 1 and the detail of
    :func:`forced_block_order`, or condition 2 for a parent cut vertex
    inside the order."""
    orders = {}
    block_steps = {}
    for bid, block in enumerate(rooted.tree.blocks):
        order, steps, detail = forced_block_order(g, block, under, reason)
        if order is None:
            return None, None, Failure(1, detail, block=bid)
        parent = rooted.parent_cut[bid]
        if parent is not None:
            if order[-1] == parent:
                order = order[::-1]
                steps = steps[::-1]
            elif order[0] != parent:
                return None, None, Failure(
                    2, "parent cut vertex is interior to the block order",
                    block=bid, cut_vertex=parent,
                )
        orders[bid] = order
        block_steps[bid] = steps
    return orders, block_steps, None


def unique_max_edge(g, block):
    """The block's unique maximum-weight edge id, or None on a tie."""
    nums = g.scaled[0]
    top = block.max_weight
    found = [eid for eid in block.edge_ids if nums[eid] == top]
    return found[0] if len(found) == 1 else None
