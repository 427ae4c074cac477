"""Internal helpers shared by the drawers: the forced block orders of the
max and sum classes, each a cut of the block's outer-cycle record, with
the weights of their consecutive edges; and the fold of a cut vertex's
child blocks into a Pareto front, for the sum and minres drawers."""

from __future__ import annotations

from operator import itemgetter

from . import seq
from .embedding import Failure
from .exact import INF
from .errors import NotOuterplanarError
from .outerplanar import block_outer_cycle, nesting_forest


def forced_block_order(g, block, under, reason):
    """The one order of a block that the max and sum classes allow:
    ``(order, steps, None)``, or ``(None, None, detail)`` when the block
    has none.

    The block's outer cycle is searched first, so a block that is not
    outerplanar raises :class:`NotOuterplanarError` whatever its weights.
    Its unique maximum-weight edge must lie on that cycle, which is cut
    there (canonical flip).  Every edge must then strictly outweigh
    ``under`` (``max`` or ``sum``) of the weights of the edges directly
    under it, else the detail is ``reason``.

    ``steps[x]`` is the weight, in units of ``1/g.scaled[1]``, of the edge
    joining ``order[x]`` and ``order[x + 1]``.  Consecutive vertices of a cut
    outer cycle are adjacent, so these are the lowest edges on either side
    of every vertex of the order.
    """
    vertices, edge_ids = block.vertices, block.edge_ids
    if len(vertices) == 2:
        return sorted(vertices), [block.max_weight], None
    record = block_outer_cycle(g, vertices, edge_ids)
    if record is None:
        raise NotOuterplanarError("block is not outerplanar")
    nums = g.scaled[0]
    top = [eid for eid in edge_ids if nums[eid] == block.max_weight]
    if len(top) != 1:
        return None, None, "no unique maximum-weight edge"
    # the two flips start at s and at t: the smaller one starts at min(s, t)
    cut = record.cut(*sorted(g.ends[top[0]]))
    if cut is None:
        return None, None, "maximum-weight edge is not on the outer face"
    spans = cut.spans()
    _parent, children, _roots = nesting_forest(len(vertices), spans)
    for idx, kids in enumerate(children):
        if kids and not nums[spans[idx][2]] > under(nums[spans[k][2]] for k in kids):
            return None, None, reason
    steps = [0] * (len(vertices) - 1)
    for a, b, eid in spans:
        if b == a + 1:
            steps[a] = nums[eid]
    return cut.order(), steps, None


def rooted_block_orders(g, rooted, under, reason):
    """Forced orders of every block of ``rooted``, each with its parent cut
    vertex first: ``(orders, steps, None)``, both keyed by block id, or
    ``(None, None, failure)`` for the first block in id order without one.
    The :class:`Failure` has condition 1 and the detail of
    :func:`forced_block_order`, or condition 2 for a parent cut vertex
    inside the order."""
    orders = {}
    block_steps = {}
    blocks = rooted.tree.blocks
    for bid in sorted(rooted.parent_cut):
        order, steps, detail = forced_block_order(g, blocks[bid], under, reason)
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


def fold_cut(c, children, keep):
    """The Pareto front ``[(rope, left, right), ...]`` of cut vertex ``c``
    over its child blocks, ``left`` rising and ``right`` falling strictly,
    or None when the children do not fit together.

    ``children`` gives each child's options ``(rope, room, grow)`` in fold
    order: block ropes with ``c`` first, and ``room > 0``.  The first child
    takes its first option, which must have its least ``grow``, on either
    side.  A later child fits beside extension ``x`` when ``room > x`` and
    makes it ``grow + keep * x``: sum passes 0 as ``keep``, minres 1.  Of
    equal values the first placed wins, and an entry is extended to the
    right before the left.
    """
    children = iter(children)
    rope, _room, grow = next(children)[0]
    entries = [(rope, 0, grow), (seq.flip(rope), grow, 0)]
    for options in children:
        tails = [(seq.skipping(rope, c), room, grow) for rope, room, grow in options]
        new = []
        for rope, left, right in entries:
            for tail, room, grow in tails:
                if room > right:
                    new.append((seq.cat(rope, tail), left, grow + keep * right))
                if room > left:
                    new.append((seq.cat(seq.flip(tail), rope), grow + keep * left, right))
        if not new:
            return None
        # a stable sort by left, and of equal lefts the first least right
        # wins: a (left, right) tuple key would allocate a tuple per entry
        new.sort(key=itemgetter(1))
        entries, least = [], INF
        for entry in new:
            if entry[2] < least:
                least = entry[2]
                if entries and entries[-1][1] == entry[1]:
                    entries[-1] = entry
                else:
                    entries.append(entry)
    return entries
