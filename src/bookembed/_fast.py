"""The oracle kernel, in pure Python.

Orders are enumerated by backtracking over positions, in lexicographic
order.  ``waiting[x]`` counts x's unplaced neighbours, and v may take
position p only if no vertex placed strictly between p and v's leftmost
placed neighbour a still waits once v is placed.  The rule is exact:
- a pruned prefix is dead: a waiting neighbour of such a vertex c must land
  beyond p, and its edge then crosses (a, p);
- every crossing a < c < b < d is caught when b is placed, as c waits for d.
Each embedding class is checked straight from its definition (pairwise wrap
scan, maximum disjoint-sequence weight, burden spans) with no shared
machinery with the optimized validators.  Weights are Python integers, so
no weight is too large for it.
"""

from __future__ import annotations

IMPLEMENTATION = "pure"

CLASS_ONE_PAGE = 0
CLASS_MAX = 1
CLASS_SUM = 2
CLASS_MINRES = 3


def _orders(n, eu, ev):
    """Yield every vertex order in which no two edges cross, lexicographically."""
    adj = [[] for _ in range(n)]
    for u, v in zip(eu, ev):
        adj[u].append(v)
        adj[v].append(u)
    waiting = [len(a) for a in adj]
    pos = [-1] * n
    order = []

    def extend():
        p = len(order)
        if p == n:
            yield tuple(order)
            return
        for v in range(n):
            if pos[v] >= 0:
                continue
            lo = p
            for u in adj[v]:
                waiting[u] -= 1
                if 0 <= pos[u] < lo:
                    lo = pos[u]
            if not any(map(waiting.__getitem__, order[lo + 1:])):
                pos[v] = p
                order.append(v)
                yield from extend()
                order.pop()
                pos[v] = -1
            for u in adj[v]:
                waiting[u] += 1

    yield from extend()


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
    for order in _orders(n, eu, ev):
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
    for order in _orders(n, eu, ev):
        if check_order(order, eu, ev, wnum, wden, cls):
            count += 1
            if len(witnesses) < max_witnesses:
                witnesses.append(order)
            if not exhaustive and count >= max(1, max_witnesses):
                break
    return count, witnesses
