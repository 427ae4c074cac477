"""Outerplanarity recognition: the outer cycle of a biconnected block, the
cut of that cycle into a linear order, and the nesting forest of edge spans
over a linear order."""

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
    Returns ``(parent, children, roots)`` as parallel structures over the
    input list indices, children ordered left to right.  Raises
    :class:`NotOnePageError` (with the two offending keys) if two spans cross.
    The spans are sorted once; ``num_positions``, the order's length, is not
    needed by the sweep.
    """
    parent = [-1] * len(edge_spans)
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
            parent[idx] = top
            children[top].append(idx)
        else:
            roots.append(idx)
        stack.append(idx)
        rights.append(-neg_right)
    return parent, children, roots


def cut_cycle(cycle, s, t):
    """Linear order with s first and t last, cutting the cycle at edge (s,t).

    Returns None unless s and t are cyclically consecutive (either
    direction)."""
    n = len(cycle)
    if n == 2:
        return [s, t] if {s, t} == set(cycle) else None
    pos = {v: i for i, v in enumerate(cycle)}
    if s not in pos or t not in pos:
        return None
    i, j = pos[s], pos[t]
    if (i + 1) % n == j:
        # cycle reads ... s t ...: walk backwards from s around to t
        return [cycle[(i - k) % n] for k in range(n)]
    if (j + 1) % n == i:
        return [cycle[(i + k) % n] for k in range(n)]
    return None


def _canonical_cycle(cycle):
    n = len(cycle)
    start = cycle.index(min(cycle))
    fwd = tuple(cycle[(start + k) % n] for k in range(n))
    bwd = tuple(cycle[(start - k) % n] for k in range(n))
    return min(fwd, bwd)


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
    """Outer cycle of a biconnected block (canonical flip, g-vertex ids),
    or None if the block is not outerplanar."""
    k = len(vertices)
    if k == 1:
        return [vertices[0]]
    if k == 2:
        return sorted(vertices)
    if k == 3:
        # a simple 3-vertex block is outerplanar exactly when it is a triangle
        return sorted(vertices) if len(edge_ids) == 3 else None
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
    pos = [0] * k
    for i, a in enumerate(cycle_local):
        pos[a] = i
    # The block is simple, so k edges joining cyclically consecutive
    # positions are the whole ring; the rest are chords, which must not cross.
    ring = 0
    chords = []
    for a, b in pairs:
        a, b = pos[a], pos[b]
        if a > b:
            a, b = b, a
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
    return list(_canonical_cycle([vertices[a] for a in cycle_local]))


def outerplane_embedding(g):
    """Outer cycle of the unique outerplane embedding of a biconnected graph
    as a tuple of vertex ids (canonical flip: of the two reflections, the
    one that reads smaller from the smallest id), or None if the graph is
    not outerplanar.

    Raises :class:`PreconditionError` on non-biconnected input.
    """
    if g.n > 1 and len(BlockCutTree(g, forest=True).blocks) != 1:
        raise PreconditionError("outerplane embedding requires a biconnected graph")
    cycle = block_outer_cycle(g, range(g.n), range(g.m))
    return tuple(cycle) if cycle is not None else None
