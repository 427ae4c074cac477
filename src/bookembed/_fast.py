"""The oracle kernel, in pure Python.

One explicit-stack walk enumerates the vertex orders in which no two edges
cross, lexicographically, placing vertices left to right.  The placed
vertices that still have unplaced neighbours form the waiting stack S, in
position order.  Vertex v fits at position p iff its placed neighbours are
none, or exactly a suffix S[j..] whose entries above j wait for v alone:
a vertex between v's leftmost placed neighbour a and p that still waited
would close an edge across (a, p), and every crossing a < c < b < d is
caught when b is placed, as c waits for d.  Each depth builds its fitting
suffixes once, as neighbour bitmasks, so a candidate costs a dict lookup.

A class sweep also drops a prefix that no completion can pass.  An edge is
pending while one end s is placed and the other is not; once v is placed at
p it will span at least p + 1 - pos(s) and contain every edge closed at or
after s.  So each test below is necessary, and a dropped prefix has no
passing order:
- max: a pending edge outweighs every closed edge at or after s, and the
  edges v closes, which nest at v, lose weight strictly inward;
- sum: a pending edge outweighs the best disjoint chain of closed edges
  from s, and an edge v closes outweighs the best chain under it;
- minres: a pending weight is at least p + 1 - pos(s) times the common
  denominator, which an edge v closes met one step earlier.
No closed edge spans a waiting vertex, or it would cross that vertex's
pending edge; so chains add up gap by gap between stack entries, and each
test reads a prefix minimum kept on the entries.

Every order the sweep counts still passes ``check_order``, which checks
each class from its definition (pairwise wrap scan, maximum
disjoint-sequence weight, burden spans) and shares nothing with the
optimized validators.  Weights are Python integers of any size.
"""

from __future__ import annotations

from math import inf

IMPLEMENTATION = "pure"

CLASS_ONE_PAGE = 0
CLASS_MAX = 1
CLASS_SUM = 2
CLASS_MINRES = 3


def _walk(n, eu, ev, wnum, wden, cls):
    """Yield, lexicographically, every crossing-free order whose prefixes
    all pass the bounds of ``cls`` (none for ``CLASS_ONE_PAGE``)."""
    adj = [0] * n
    weight = [[0] * n for _ in range(n)]
    for u, v, w in zip(eu, ev, wnum):
        adj[u] |= 1 << v
        adj[v] |= 1 << u
        weight[u][v] = weight[v][u] = w
    lightest_first = [
        sorted((w, 1 << u) for u, w in enumerate(row) if adj[v] >> u & 1)
        for v, row in enumerate(weight)
    ]

    def key(s, ps, left, below, under):
        """The prefix minimum of the bound key at the waiting entry s."""
        for w, b in lightest_first[s]:
            if b & left:
                break
        if cls == CLASS_SUM:
            w += under
        elif cls == CLASS_MINRES:
            w = ps + w // wden
        return min(below, w)

    def closing(stack, j, v, chain):
        """Test the edges v closes to S[j..]; None if one fails, else, for
        max, the heaviest and, for sum, the best chain from S[0] to v."""
        ws = [weight[v][e[0]] for e in stack[j:]]
        if cls == CLASS_MAX:
            return ws[0] if all(a > c for a, c in zip(ws, ws[1:])) else None
        inner, above = 0, chain
        for e, w in zip(reversed(stack[j:]), reversed(ws)):
            if above - e[3] + inner >= w:
                return None
            inner, above = w, e[3]
        return above + inner

    if not n:
        yield ()
        return
    # A stack entry is (vertex, position, prefix minimum of the bound key,
    # sum: best chain from S[0] to it); ``chain`` is that chain up to the
    # last position, ``reach`` the unplaced neighbours of placed vertices,
    # and ``fits`` maps the placed neighbours of a fitting vertex to j.
    rest = todo = (1 << n) - 1
    order, saved, stack = [], [], ()
    chain = reach = 0
    fits = {0: 0}
    while True:
        if not todo:
            if not saved:
                return
            todo, fits, stack, chain, reach = saved.pop()
            rest |= 1 << order.pop()
            continue
        b = todo & -todo
        todo ^= b
        v = b.bit_length() - 1
        j = fits.get(adj[v] & ~rest)
        if j is None:
            continue
        p = len(order)
        left = rest ^ b
        nxt = stack[:j]
        below = nxt[-1][2] if j else inf
        gate = p if cls == CLASS_MINRES else 0  # every key left must exceed it
        upto = chain
        if j < len(stack):
            s, ps, _, under = stack[j]
            if cls == CLASS_MAX or cls == CLASS_SUM:
                gate = upto = closing(stack, j, v, chain)
                if gate is None:
                    continue
            if adj[s] & left:
                if cls:
                    below = key(s, ps, left, below, under)
                nxt += ((s, ps, below, under),)
        if below <= gate:
            continue
        if adj[v] & left:
            mine = key(v, p, left, below, upto) if cls else inf
            if cls == CLASS_MINRES and mine <= p:
                continue
            nxt += ((v, p, mine, upto),)
        if p + 1 == n:
            yield (*order, v)
            continue
        saved.append((todo, fits, stack, chain, reach))
        order.append(v)
        rest = left
        reach = (reach | adj[v]) & rest
        stack = nxt
        chain = upto
        # a fitting suffix holds the top, so only the top's unplaced
        # neighbours and vertices with no placed neighbour can fit
        todo = rest & ~reach | adj[stack[-1][0]] & rest if stack else rest
        fits = {0: len(stack)}
        mask = 0
        for k in range(len(stack) - 1, -1, -1):
            s = stack[k][0]
            mask |= 1 << s
            fits[mask] = k
            r = adj[s] & rest
            if r & (r - 1):
                break


def check_order(order, eu, ev, wnum, wden, cls):
    """Definitional class check of one complete order.

    Weights arrive as integers ``wnum[i] / wden`` (a common denominator), so
    every comparison below is exact integer arithmetic.
    """
    n = len(order)
    pos = [0] * n
    for i, v in enumerate(order):
        pos[v] = i
    m = len(eu)
    lo = [0] * m
    hi = [0] * m
    for i in range(m):
        a, b = pos[eu[i]], pos[ev[i]]
        if a > b:
            a, b = b, a
        lo[i] = a
        hi[i] = b
    if cls == CLASS_ONE_PAGE:
        return True
    if cls == CLASS_MAX:
        for i in range(m):
            for j in range(m):
                if i != j and lo[i] <= lo[j] and hi[j] <= hi[i]:
                    if wnum[i] <= wnum[j]:
                        return False
        return True
    if cls == CLASS_MINRES:
        # weight >= burden + 1 = span  <=>  wnum >= span * wden
        for i in range(m):
            if wnum[i] < (hi[i] - lo[i]) * wden:
                return False
        return True
    # CLASS_SUM: for each edge, the maximum total weight over sequences of
    # disjointly placed edges under it must stay strictly below its weight.
    order_by_left = sorted(range(m), key=lambda i: lo[i])
    for i in range(m):
        memo = {}

        def best_from(start):
            if start in memo:
                return memo[start]
            best = 0
            for j in order_by_left:
                if j == i or lo[j] < start or hi[j] > hi[i] or lo[j] < lo[i]:
                    continue
                total = wnum[j] + best_from(hi[j])
                if total > best:
                    best = total
            memo[start] = best
            return best

        if best_from(lo[i]) >= wnum[i]:
            return False
    return True


def one_page_orders(n, eu, ev, cap):
    """All crossing-free orders, lexicographically, up to ``cap`` (0 = all)."""
    out = []
    for order in _walk(n, eu, ev, [0] * len(eu), 1, CLASS_ONE_PAGE):
        out.append(order)
        if cap and len(out) >= cap:
            break
    return out


def class_sweep(n, eu, ev, wnum, wden, cls, max_witnesses, exhaustive):
    """Count orders passing the class check; collect up to ``max_witnesses``.

    Stops at the first passing order unless ``exhaustive`` (existence is the
    usual question); the returned count is the number of passes seen.
    """
    count = 0
    witnesses = []
    for order in _walk(n, eu, ev, wnum, wden, cls):
        if check_order(order, eu, ev, wnum, wden, cls):
            count += 1
            if len(witnesses) < max_witnesses:
                witnesses.append(order)
            if not exhaustive and count >= max(1, max_witnesses):
                break
    return count, witnesses
