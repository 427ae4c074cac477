"""Internal helpers shared by the drawers: the forced block orders of the
max and sum classes, each a cut of the block's outer-cycle record with its
parent cut vertex first, and the weights of their consecutive edges; and
the fold of a cut vertex's child blocks, for the sum and minres drawers."""

from __future__ import annotations

from dataclasses import replace
from operator import itemgetter

from . import seq
from .embedding import Failure
from .exact import INF
from .errors import NotOuterplanarError
from .outerplanar import block_outer_cycle, nesting_forest


def forced_block_order(g, block, parent, under, reason):
    """The one order of a block that the max and sum classes allow:
    ``(cut, steps, None)`` with the cut read from ``parent``, or from the
    smaller end when ``parent`` is None; else ``(None, None, failure)``.

    The block's outer cycle is searched first, so a block that is not
    outerplanar raises :class:`NotOuterplanarError` whatever its weights.
    Condition 1 fails unless its unique maximum-weight edge lies on that
    cycle, which is cut there, and every edge strictly outweighs ``under``
    (``max`` or ``sum``) of the weights of the edges directly under it (the
    detail of this last test is ``reason``).  Condition 2 fails when
    ``parent`` is no end of the cut edge and so lies inside the order.

    ``steps[x]`` is the weight, in units of ``1/g.scaled[1]``, of the edge
    joining the vertices at positions x and x + 1.  Consecutive vertices of
    a cut outer cycle are adjacent, so these are the lowest edges on either
    side of every vertex of the order.
    """
    record = block_outer_cycle(g, block.vertices, block.edge_ids)
    if record is None:
        raise NotOuterplanarError("block is not outerplanar")
    if len(block.vertices) == 2:  # a bridge: its one edge is the whole order
        s = block.vertices[0] if parent is None else parent
        return record.cuts(s)[0], (block.max_weight,), None
    nums = g.scaled[0]
    top = [eid for eid in block.edge_ids if nums[eid] == block.max_weight]
    if len(top) != 1:
        return None, None, Failure(1, "no unique maximum-weight edge")
    s, t = g.ends[top[0]]
    if t == parent or parent != s and t < s:
        s, t = t, s
    cut = record.cut(s, t)
    if cut is None:
        return None, None, Failure(1, "maximum-weight edge is not on the outer face")
    spans = cut.spans()
    _walk, children, _roots = nesting_forest(len(block.vertices), spans)
    for idx, kids in enumerate(children):
        if kids and not nums[spans[idx][2]] > under(nums[spans[k][2]] for k in kids):
            return None, None, Failure(1, reason)
    if parent not in (None, s):
        detail = "parent cut vertex is interior to the block order"
        return None, None, Failure(2, detail, cut_vertex=parent)
    steps = [0] * (len(block.vertices) - 1)
    for a, b, eid in spans:
        if b == a + 1:
            steps[a] = nums[eid]
    return cut, tuple(steps), None


def rooted_block_orders(g, walk, under, reason):
    """Forced orders of every block of the :class:`Component` ``g`` that
    ``walk`` (:meth:`BlockCutTree.walk`) roots, as cuts with the parent cut
    vertex first: ``(cuts, steps, None)``, both keyed by block id, or
    ``(None, None, failure)`` for the first block in id order without one,
    the :class:`Failure` of :func:`forced_block_order` naming the block."""
    cuts = {}
    block_steps = {}
    for bid, parent in sorted(walk):
        cut, steps, failure = forced_block_order(g, g.tree.blocks[bid], parent, under, reason)
        if cut is None:
            return None, None, replace(failure, block=bid)
        cuts[bid] = cut
        block_steps[bid] = steps
    return cuts, block_steps, None


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
