"""Internal helpers shared by the drawers: the forced block orders of the
max and sum classes, and the edges of a block around a vertex."""

from __future__ import annotations

from .embedding import Failure
from .errors import NotOuterplanarError
from .outerplanar import block_outer_cycle, cut_cycle, nesting_forest, span


def forced_block_order(g, vertices, edge_ids, under, reason):
    """The one order of a block that the max and sum classes allow:
    ``(order, None)``, or ``(None, detail)`` when the block has none.

    The block's unique maximum-weight edge must lie on its outer cycle; the
    cycle is cut there (canonical flip).  Every edge must then strictly
    outweigh ``under`` (``max`` or ``sum``) of the weights of the edges
    directly under it, else the detail is ``reason``.  The outer cycle is
    searched after the maximum-edge test; :class:`NotOuterplanarError` is
    raised when there is none.
    """
    if len(vertices) == 2:
        return sorted(vertices), None
    e_m = unique_max_edge(g, edge_ids)
    if e_m is None:
        return None, "no unique maximum-weight edge"
    cycle = block_outer_cycle(g, vertices, edge_ids)
    if cycle is None:
        raise NotOuterplanarError("block is not outerplanar")
    s, t = g.endpoints(e_m)
    order = cut_cycle(cycle, s, t)
    if order is None:
        return None, "maximum-weight edge is not on the outer face"
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
            return None, reason
    return order, None


def rooted_block_orders(g, rooted, under, reason):
    """Forced orders of every block of ``rooted``, each with its parent cut
    vertex first: ``(orders by block id, None)``, or ``(None, failure)`` for
    the first block without one.  The :class:`Failure` has condition 1 and
    the detail of :func:`forced_block_order`, or condition 2 for a parent
    cut vertex inside the order."""
    orders = {}
    for bid, block in enumerate(rooted.tree.blocks):
        order, detail = forced_block_order(
            g, block.vertices, block.edge_ids, under, reason
        )
        if order is None:
            return None, Failure(1, detail, block=bid)
        parent = rooted.parent_cut[bid]
        if parent is not None:
            if order[-1] == parent:
                order = order[::-1]
            elif order[0] != parent:
                return None, Failure(
                    2, "parent cut vertex is interior to the block order",
                    block=bid, cut_vertex=parent,
                )
        orders[bid] = order
    return orders, None


def unique_max_edge(g, edge_ids):
    """The block's unique maximum-weight edge id, or None on a tie."""
    nums = g.scaled[0]
    top = max(nums[eid] for eid in edge_ids)
    found = [eid for eid in edge_ids if nums[eid] == top]
    return found[0] if len(found) == 1 else None


def incident_in_block(g, v, block_id, block_of_edge):
    return [eid for eid in g.adjacency[v] if block_of_edge[eid] == block_id]


def lowest_edges(g, pos, v, incident_eids):
    """(lowest-left, lowest-right) edge ids of v among the given edges;
    None where no neighbor precedes/follows."""
    p = pos[v]
    best_l = best_r = None
    bl = br = None
    ends = g.ends
    for eid in incident_eids:
        a, b = ends[eid]
        q = pos[b if a == v else a]
        if q < p:
            if bl is None or q > bl:
                bl, best_l = q, eid
        else:
            if br is None or q < br:
                br, best_r = q, eid
    return best_l, best_r
