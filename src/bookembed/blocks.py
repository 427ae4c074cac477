"""Internal helpers shared by the drawers: the forced block orders of the
max and sum classes, with the parent cut vertex first, and the weights of
their consecutive edges; and the fold of a cut vertex's child blocks, for
the sum and minres drawers.

A block of at most three vertices is a bridge or a triangle: its vertices
already lie along its outer cycle, so its forced order is read from its
weights alone, as a :class:`Listed` order.  A larger block's order is a
:class:`~bookembed.outerplanar.Cut` of its outer-cycle record."""

from __future__ import annotations

from dataclasses import replace
from operator import gt, itemgetter

from . import seq
from .embedding import Failure
from .exact import INF
from .errors import NotOuterplanarError
from .outerplanar import block_outer_cycle


class Listed:
    """An order of a bridge or a triangle, read as a
    :class:`~bookembed.outerplanar.Cut` is read: ``order()`` is the tuple
    of its vertices, ``position(v)`` the index of ``v`` in it and
    ``spans()`` the ``(a, b, eid)`` of its edges when they were given."""

    __slots__ = ("_order", "_spans")

    def __init__(self, order, spans=()):
        self._order = order
        self._spans = spans

    def order(self):
        return self._order

    def position(self, v):
        return self._order.index(v)

    def spans(self):
        return self._spans


def forced_block_order(g, block, parent, under, reason):
    """The one order of a block that the max and sum classes allow:
    ``(order, steps, None)``, the order read from ``parent``, or from the
    smaller end when ``parent`` is None; else ``(None, None, failure)``.
    The order is a :class:`Listed` for a block of two or three vertices
    and a :class:`~bookembed.outerplanar.Cut` for a larger one.

    A bridge is its two ends, ``parent`` first.  Any other block is its
    outer cycle cut at its unique maximum-weight edge, from the end that is
    ``parent`` or else from the smaller end.  The outer cycle of a block of
    four or more vertices is searched first, so such a block that is not
    outerplanar raises :class:`NotOuterplanarError` whatever its weights.
    Condition 1 fails unless that edge is unique and on the cycle, and
    every edge strictly outweighs the weights of the edges directly under
    it folded by the two-argument ``under`` (``max`` or ``operator.add``;
    the detail of this last test is ``reason``).  Condition 2 fails when ``parent`` is no end of the cut
    edge and so lies inside the order.

    ``steps[x]`` is the weight, in units of ``1/g.scaled[1]``, of the edge
    joining the vertices at positions x and x + 1.  Consecutive vertices of
    a cut outer cycle are adjacent, so these are the lowest edges on either
    side of every vertex of the order.
    """
    vertices = block.vertices
    if len(vertices) == 2:  # a bridge: its one edge is the whole order
        u, v = vertices
        return Listed((v, u) if parent == v else vertices), (block.max_weight,), None
    k = len(vertices)
    if k > 3:
        record = block_outer_cycle(g, vertices, block.edge_ids)
        if record is None:
            raise NotOuterplanarError("block is not outerplanar")
    nums = g.scaled[0]
    top = [eid for eid in block.edge_ids if nums[eid] == block.max_weight]
    if len(top) != 1:
        return None, None, Failure(1, "no unique maximum-weight edge")
    top = top[0]
    s, t = g.ends[top]
    if t == parent or parent != s and t < s:
        s, t = t, s
    if k == 3:
        # the third vertex lies between s and t; the graph is simple, so
        # each of the two lighter edges has it as one end and s or t as the
        # other
        a, b, c = vertices
        order = Listed((s, a + b + c - s - t, t))
        first = last = 0
        for eid in block.edge_ids:
            if eid != top:
                if s in g.ends[eid]:
                    first = nums[eid]
                else:
                    last = nums[eid]
        if not nums[top] > under(first, last):
            return None, None, Failure(1, reason)
        steps = (first, last)
    else:
        order = record.cut(s, t)
        if order is None:
            return None, None, Failure(1, "maximum-weight edge is not on the outer face")
        steps = [0] * (k - 1)
        # One sweep of the spans by (left, -right), the nesting forest's
        # preorder.  The stacks hold the open chords, outermost first: their
        # right ends, their weights, and the weights met directly under each
        # so far, folded by ``under``.  A span's weight is folded into the
        # innermost open chord when the span is met.  Every weight is
        # positive, so 0 stands for nothing under a chord yet.  A sentinel
        # below the cut edge, the root, wraps it and never closes; a ring
        # edge wraps nothing, so it is never opened.
        rights, weights, below = [k], [INF], [0]
        for a, neg_b, eid in sorted([(a, -b, eid) for a, b, eid in order.spans()]):
            while rights[-1] <= a:
                rights.pop()
                if not weights.pop() > below.pop():
                    return None, None, Failure(1, reason)
            w = nums[eid]
            below[-1] = under(below[-1], w)
            if neg_b == -1 - a:
                steps[a] = w
            else:
                rights.append(-neg_b)
                weights.append(w)
                below.append(0)
        if not all(map(gt, weights, below)):
            return None, None, Failure(1, reason)
        steps = tuple(steps)
    if parent not in (None, s):
        detail = "parent cut vertex is interior to the block order"
        return None, None, Failure(2, detail, cut_vertex=parent)
    return order, steps, None


def rooted_block_orders(g, walk, under, reason):
    """Forced orders of every block of the :class:`Component` ``g`` that
    ``walk`` (:meth:`BlockCutTree.walk`) roots, with the parent cut vertex
    first: ``(orders, steps, None)``, both keyed by block id, or
    ``(None, None, failure)`` for the first block in id order without one,
    the :class:`Failure` of :func:`forced_block_order` naming the block."""
    blocks = g.tree.blocks
    orders = {}
    block_steps = {}
    for bid, parent in sorted(walk):
        order, steps, failure = forced_block_order(g, blocks[bid], parent, under, reason)
        if order is None:
            return None, None, replace(failure, block=bid)
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
