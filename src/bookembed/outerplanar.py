"""Outerplanarity recognition: the outer cycle of a biconnected block with
its edge spans, the cuts of that cycle into linear orders, and the nesting
forest of edge spans over a linear order, walked in its sort order."""

from __future__ import annotations

from .errors import NotOnePageError, PreconditionError
from .graph import BlockCutTree


def span(pos, u, v):
    """Order positions ``(left, right)`` of the edge ``(u, v)``, smaller
    first; ``pos`` maps a vertex to its position."""
    a, b = pos[u], pos[v]
    return (a, b) if a < b else (b, a)


def nesting_forest(num_positions, edge_spans):
    """Nesting forest of edge intervals over a linear order, in O(m log m).

    ``edge_spans`` is a list of ``(left_pos, right_pos, key)`` with
    ``left_pos < right_pos``; ``key`` identifies the edge to the caller.
    Returns ``(walk, children, roots)`` over the input list indices:
    ``walk`` lists them by ``(left, -right)``, which is the forest's
    preorder (each parent before its children, the children left to right;
    read reversed, every node follows its children), and ``children`` and
    ``roots`` are ordered left to right.  Raises :class:`NotOnePageError`
    (with the two offending keys) if two spans cross.  The spans are sorted
    once; ``num_positions``, the order's length, is not needed by the sweep.
    """
    walk = []
    children = [[] for _ in edge_spans]
    roots = []
    # the open spans, outermost first, and their right ends
    stack = []
    rights = []
    for left, neg_right, idx in sorted(
        [(a, -b, i) for i, (a, b, _key) in enumerate(edge_spans)]
    ):
        while rights and rights[-1] <= left:
            rights.pop()
            stack.pop()
        if stack:
            top = stack[-1]
            if -neg_right > rights[-1]:
                raise NotOnePageError(edge_spans[top][2], edge_spans[idx][2])
            children[top].append(idx)
        else:
            roots.append(idx)
        walk.append(idx)
        stack.append(idx)
        rights.append(-neg_right)
    return walk, children, roots


class OuterCycle:
    """The outer cycle of an outerplanar block, placed once: the tuple
    ``cycle`` in its canonical flip (of the two reflections, the one that
    reads smaller from the smallest id), ``pos`` each vertex's position on
    it, and the tuple ``spans``, one ``(p, q, eid)`` per block edge, ``p < q``
    the positions of its ends.  Every 1-page order of the block is one of
    its cuts."""

    __slots__ = ("cycle", "pos", "spans")

    def __init__(self, cycle, pos, spans):
        self.cycle, self.pos, self.spans = cycle, pos, spans

    def cut(self, s, t):
        """The :class:`Cut` with s first and t last, or None unless the
        block vertices s and t are consecutive on the cycle."""
        i, j, k = self.pos[s], self.pos[t], len(self.cycle)
        # the cycle reads ... s t ...: walk back from s
        step = -1 if (i + 1) % k == j else 1 if (j + 1) % k == i else 0
        return Cut(self, i, step) if step else None

    def cuts(self, s):
        """The cuts with block vertex s first: the one that reads the cycle
        forward from s, then the one that reads it backward, unless the
        cycle has two vertices and the two are one order."""
        i = self.pos[s]
        forward = Cut(self, i, 1)
        return [forward, Cut(self, i, -1)] if len(self.cycle) > 2 else [forward]


class Cut:
    """A linear order cut from an :class:`OuterCycle`: the vertex at cycle
    position x sits at ``(x - start) * step mod k`` in the order."""

    __slots__ = ("record", "start", "step")

    def __init__(self, record, start, step):
        self.record, self.start, self.step = record, start, step

    def order(self):
        """The vertices in order, a tuple built on each call."""
        cycle, i = self.record.cycle, self.start
        if self.step > 0:
            return cycle[i:] + cycle[:i]
        return cycle[i::-1] + cycle[:i:-1]

    def last(self):
        """The last vertex of the order."""
        return self.record.cycle[(self.start - self.step) % len(self.record.cycle)]

    def dropped(self):
        """The cycle position j whose ring edge to position j + 1 the cut drops."""
        return (self.start - (self.step > 0)) % len(self.record.cycle)

    def position(self, v):
        """The position of block vertex ``v`` in the order."""
        return (self.record.pos[v] - self.start) * self.step % len(self.record.cycle)

    def spans(self):
        """``(a, b, eid)`` per block edge, ``a < b`` the positions of its
        ends in the order: the cycle's spans rotated, with no sort."""
        k, start, step = len(self.record.cycle), self.start, self.step
        out = []
        for p, q, eid in self.record.spans:
            a, b = (p - start) * step % k, (q - start) * step % k
            out.append((a, b, eid) if a < b else (b, a, eid))
        return out


def _reduce_to_outer_cycle(n, neighbor_sets):
    """Degree-2 elimination. Returns the Hamiltonian outer cycle from vertex
    0, or None.

    ``neighbor_sets`` is consumed.  Needs n >= 3 and every degree >= 2; the
    caller validates the result against the original edges, so the
    elimination order does not decide the answer.
    """
    alive = n
    removals = []
    stack = [v for v in range(n) if len(neighbor_sets[v]) == 2]
    while alive > 3:
        if not stack:
            return None
        v = stack.pop()
        around = neighbor_sets[v]
        if len(around) != 2:  # already removed, or its degree changed
            continue
        u, w = around
        around.clear()
        alive -= 1
        removals.append((v, u, w))
        at_u, at_w = neighbor_sets[u], neighbor_sets[w]
        at_u.discard(v)
        at_w.discard(v)
        if w not in at_u:
            at_u.add(w)
            at_w.add(u)
        for x, at_x in ((u, at_u), (w, at_w)):
            if len(at_x) == 2:
                stack.append(x)
            elif len(at_x) < 2:
                return None
    # Every live vertex keeps two live neighbours, so the three left form a
    # triangle; each reinsertion below grows the ring by one vertex.
    a, b, c = [v for v in range(n) if neighbor_sets[v]]
    nxt = [-1] * n
    nxt[a], nxt[b], nxt[c] = b, c, a
    for v, u, w in reversed(removals):
        if nxt[u] == w:
            nxt[u] = v
            nxt[v] = w
        elif nxt[w] == u:
            nxt[w] = v
            nxt[v] = u
        else:
            return None
    cycle = [0]
    while step := nxt[cycle[-1]]:
        cycle.append(step)
    return cycle


def block_outer_cycle(g, vertices, edge_ids):
    """The :class:`OuterCycle` of a biconnected block, its ``vertices`` in
    increasing order, or None if the block is not outerplanar."""
    k = len(vertices)
    if k == 2:  # a bridge
        u, v = vertices
        return OuterCycle((u, v), {u: 0, v: 1}, ((0, 1, edge_ids[0]),))
    if k <= 3:
        # a simple block of 1 or 3 vertices is outerplanar exactly when it is
        # one vertex or a triangle; the vertices increase along the cycle
        if k == 3 and len(edge_ids) != 3:
            return None
        pos = {v: i for i, v in enumerate(vertices)}
        spans = []
        for eid in edge_ids:
            u, v = g.ends[eid]
            spans.append((pos[u], pos[v], eid) if u < v else (pos[v], pos[u], eid))
        return OuterCycle(tuple(vertices), pos, tuple(spans))
    if len(edge_ids) > 2 * k - 3:
        return None
    local = {v: i for i, v in enumerate(vertices)}
    ends = g.ends
    neighbor_sets = [set() for _ in range(k)]
    pairs = []
    for eid in edge_ids:
        u, v = ends[eid]
        a, b = local[u], local[v]
        neighbor_sets[a].add(b)
        neighbor_sets[b].add(a)
        pairs.append((a, b))
    if any(len(s) < 2 for s in neighbor_sets):
        return None
    cycle_local = _reduce_to_outer_cycle(k, neighbor_sets)
    if cycle_local is None:
        return None
    # The canonical flip reads from the smallest id towards its smaller
    # neighbour; the vertices increase, so that is local vertex 0.
    if cycle_local[1] > cycle_local[-1]:
        cycle_local[1:] = cycle_local[:0:-1]
    pos = [0] * k
    for i, a in enumerate(cycle_local):
        pos[a] = i
    # The block is simple, so k edges joining cyclically consecutive
    # positions are the whole ring; the rest are chords, which must not cross.
    ring = 0
    spans = []
    chords = []
    for (a, b), eid in zip(pairs, edge_ids):
        a, b = pos[a], pos[b]
        if a > b:
            a, b = b, a
        spans.append((a, b, eid))
        if b - a == 1 or b - a == k - 1:
            ring += 1
        else:
            chords.append((a, -b))
    if ring != k:
        return None
    chords.sort()
    rights = []
    for a, neg_b in chords:
        while rights and rights[-1] <= a:
            rights.pop()
        if rights and -neg_b > rights[-1]:
            return None
        rights.append(-neg_b)
    cycle = tuple([vertices[a] for a in cycle_local])
    return OuterCycle(cycle, {v: i for i, v in enumerate(cycle)}, tuple(spans))


def _whole_graph_cycle(g):
    """:func:`block_outer_cycle` of a biconnected graph;
    :class:`PreconditionError` on any other graph."""
    if g.n > 1 and len(BlockCutTree(g, forest=True).blocks) != 1:
        raise PreconditionError("outerplane embedding requires a biconnected graph")
    return block_outer_cycle(g, range(g.n), range(g.m))


def outerplane_embedding(g):
    """Outer cycle of the unique outerplane embedding of a biconnected graph
    as a tuple of vertex ids (canonical flip: of the two reflections, the
    one that reads smaller from the smallest id), or None if the graph is
    not outerplanar.

    Raises :class:`PreconditionError` on non-biconnected input.
    """
    record = _whole_graph_cycle(g)
    return record.cycle if record is not None else None
