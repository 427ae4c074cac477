"""The oracle kernel, in pure Python.

Everything here is deliberately definitional: orders are enumerated by
backtracking over positions, and each embedding class is checked straight
from its definition (pairwise wrap scan, maximum disjoint-sequence weight,
burden spans) with no shared machinery with the optimized validators.
Weights are Python integers, so no weight is too large for it.
"""

from __future__ import annotations

IMPLEMENTATION = "pure"

CLASS_ONE_PAGE = 0
CLASS_MAX = 1
CLASS_SUM = 2
CLASS_MINRES = 3


def _adjacency(n, eu, ev):
    adj = [[] for _ in range(n)]
    for eid, (u, v) in enumerate(zip(eu, ev)):
        adj[u].append((v, eid))
        adj[v].append((u, eid))
    return adj


def _orders(n, eu, ev):
    """Yield every vertex order in which no two edges cross."""
    if n == 0:
        yield ()
        return
    adj = _adjacency(n, eu, ev)
    pos = [-1] * n
    order = []
    closed = []  # (left_pos, right_pos) of placed edges

    def extend():
        p = len(order)
        if p == n:
            yield tuple(order)
            return
        for v in range(n):
            if pos[v] >= 0:
                continue
            new = []
            ok = True
            for u, _eid in adj[v]:
                a = pos[u]
                if a < 0:
                    continue
                for ca, cb in closed:
                    if ca < a < cb:
                        ok = False
                        break
                if not ok:
                    break
                new.append((a, p))
            if not ok:
                continue
            pos[v] = p
            order.append(v)
            closed.extend(new)
            yield from extend()
            del closed[len(closed) - len(new):]
            order.pop()
            pos[v] = -1

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
