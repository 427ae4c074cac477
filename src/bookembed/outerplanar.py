"""Outerplanarity recognition: the outer cycle of a biconnected block, the
cut of that cycle into a linear order, and the nesting forest of edge spans
over a linear order."""

from __future__ import annotations

from collections import deque

from .errors import NotOnePageError, PreconditionError
from .graph import BlockCutTree


def span(pos, u, v):
    """Order positions ``(left, right)`` of the edge ``(u, v)``, smaller
    first; ``pos`` maps a vertex to its position."""
    a, b = pos[u], pos[v]
    return (a, b) if a < b else (b, a)


def nesting_forest(num_positions, edge_spans):
    """Nesting forest of edge intervals over a linear order.

    ``edge_spans`` is a list of ``(left_pos, right_pos, key)`` with
    ``left_pos < right_pos``; ``key`` identifies the edge to the caller.
    Returns ``(parent, children, roots)`` as parallel structures over the
    input list indices, children ordered left to right.  Raises
    :class:`NotOnePageError` (with the two offending keys) if two spans cross.
    """
    starts = [[] for _ in range(num_positions)]
    ends = [[] for _ in range(num_positions)]
    for idx, (a, b, _key) in enumerate(edge_spans):
        starts[a].append(idx)
        ends[b].append(idx)
    for bucket in starts:
        bucket.sort(key=lambda idx: -edge_spans[idx][1])
    parent = [-1] * len(edge_spans)
    children = [[] for _ in range(len(edge_spans))]
    roots = []
    stack = []
    for p in range(num_positions):
        enders = ends[p]
        # In a crossing-free order the spans ending at p are exactly the top
        # len(enders) stack entries (they share the right endpoint).
        for _ in enders:
            top = stack.pop()
            if edge_spans[top][1] != p:
                below = next(
                    i for i in reversed(stack) if edge_spans[i][1] == p
                )
                raise NotOnePageError(edge_spans[below][2], edge_spans[top][2])
        for idx in starts[p]:
            if stack:
                parent[idx] = stack[-1]
                children[stack[-1]].append(idx)
            else:
                roots.append(idx)
            stack.append(idx)
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
    """Degree-2 elimination. Returns the Hamiltonian outer cycle or None.

    ``neighbor_sets`` is consumed.  Needs n >= 3 and every degree >= 2; the
    caller validates the result against the original edges.
    """
    alive = n
    dead = [False] * n
    removals = []
    queue = deque(v for v in range(n) if len(neighbor_sets[v]) == 2)
    while alive > 3:
        if not queue:
            return None
        v = queue.popleft()
        if dead[v] or len(neighbor_sets[v]) != 2:
            continue
        u, w = neighbor_sets[v]
        dead[v] = True
        alive -= 1
        removals.append((v, u, w))
        neighbor_sets[u].discard(v)
        neighbor_sets[w].discard(v)
        neighbor_sets[v].clear()
        if w not in neighbor_sets[u]:
            neighbor_sets[u].add(w)
            neighbor_sets[w].add(u)
        for x in (u, w):
            if len(neighbor_sets[x]) == 2:
                queue.append(x)
        if len(neighbor_sets[u]) < 2 or len(neighbor_sets[w]) < 2:
            return None
    # Every live vertex keeps two live neighbours, so the three left form a
    # triangle; each reinsertion below grows the ring by one vertex.
    core = [v for v in range(n) if not dead[v]]
    nxt = {v: core[(i + 1) % 3] for i, v in enumerate(core)}
    for v, u, w in reversed(removals):
        if nxt.get(u) == w:
            nxt[u] = v
            nxt[v] = w
        elif nxt.get(w) == u:
            nxt[w] = v
            nxt[v] = u
        else:
            return None
    cycle = [min(nxt)]
    while (step := nxt[cycle[-1]]) != cycle[0]:
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
    if len(edge_ids) > 2 * k - 3:
        return None
    local = {v: i for i, v in enumerate(vertices)}
    ends = g.ends
    neighbor_sets = [set() for _ in range(k)]
    for eid in edge_ids:
        u, v = ends[eid]
        neighbor_sets[local[u]].add(local[v])
        neighbor_sets[local[v]].add(local[u])
    if any(len(s) < 2 for s in neighbor_sets):
        return None
    cycle_local = _reduce_to_outer_cycle(k, neighbor_sets)
    if cycle_local is None:
        return None
    cycle = [vertices[i] for i in cycle_local]
    pos = {v: i for i, v in enumerate(cycle)}
    spans = []
    for eid in edge_ids:
        u, v = ends[eid]
        spans.append(span(pos, u, v) + (eid,))
    # Every consecutive cycle pair must be an edge, and the chords must not
    # cross with respect to the cycle order.
    ring = {(i, i + 1) for i in range(k - 1)} | {(0, k - 1)}
    if not ring <= {(a, b) for a, b, _ in spans}:
        return None
    try:
        nesting_forest(k, spans)
    except NotOnePageError:
        return None
    return list(_canonical_cycle(cycle))


def _is_biconnected(g):
    if g.n <= 1:
        return True
    try:
        return len(BlockCutTree(g).blocks) == 1
    except PreconditionError:  # disconnected
        return False


def outerplane_embedding(g):
    """Outer cycle of the unique outerplane embedding of a biconnected graph
    as a tuple of vertex ids (canonical flip: of the two reflections, the
    one that reads smaller from the smallest id), or None if the graph is
    not outerplanar.

    Raises :class:`PreconditionError` on non-biconnected input.
    """
    if not _is_biconnected(g):
        raise PreconditionError("outerplane embedding requires a biconnected graph")
    cycle = block_outer_cycle(g, range(g.n), range(g.m))
    return tuple(cycle) if cycle is not None else None
