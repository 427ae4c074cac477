"""Validators and metrics, checked against independent recomputation."""

import random
import tracemalloc
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bookembed.embedding import (
    BookEmbedding,
    burdens,
    is_one_page,
    metrics,
    validate_max,
    validate_minres_supporting,
    validate_sum,
)
from bookembed.exact import INF
from bookembed.errors import NotOnePageError
from bookembed.graph import WeightedGraph
from bookembed.oracle import (
    definitional_check,
    enumerate_one_page,
    random_outerplanar,
)

from conftest import graph_from

import planted  # the benchmark's generator (perfbench/planted.py)


def order_of(g, labels):
    return BookEmbedding(g.resolve(v) for v in labels)


def test_is_one_page_examples(triangle_5_6_11):
    assert is_one_page(triangle_5_6_11, order_of(triangle_5_6_11, "abc"))
    square = graph_from(
        [("a", "b", 1), ("b", "c", 1), ("c", "d", 1), ("d", "a", 1)]
    )
    assert not is_one_page(square, order_of(square, "acbd"))
    k2 = graph_from([("a", "b", 1)])
    assert is_one_page(k2, order_of(k2, "ab"))


def test_validate_max_nested_weights():
    g = graph_from(
        [("5", "6", 5), ("6", "7", 6), ("5", "7", 11), ("3", "7", 12), ("3", "5", 1)]
    )
    L = order_of(g, ["3", "5", "6", "7"])
    assert validate_max(g, L) is None


def test_validate_max_equal_triangle(triangle_equal):
    violation = validate_max(triangle_equal, order_of(triangle_equal, "abc"))
    assert violation is not None
    assert violation.outer_edge == triangle_equal.edge_between(0, 2)


def test_validate_max_single_edge(k2):
    assert validate_max(k2, order_of(k2, "ab")) is None


def test_validate_sum_reports_maximum_witness():
    g = graph_from([("3", "4", 3), ("5", "7", 11), ("3", "7", 12)])
    violation = validate_sum(g, order_of(g, ["3", "4", "5", "7"]))
    assert violation is not None
    assert violation.edge == g.edge_between(g.resolve("3"), g.resolve("7"))
    witness_w = sum(g.weight(e) for e in violation.witness)
    assert witness_w == 14


def test_validate_sum_is_linear_on_a_deep_nest():
    # a path of n vertices (edge i joins i and i + 1) under k nested
    # chords, the outermost first; with every weight 1 the whole path
    # outweighs the outermost chord
    k = 2000
    n = 2 * k + 2
    edges = [(i, i + 1, 1) for i in range(n - 1)] + [(i, n - 1 - i, 1) for i in range(k)]
    g = WeightedGraph([str(v) for v in range(n)], edges)
    L = BookEmbedding(range(n))
    tracemalloc.start()
    try:
        violation = validate_sum(g, L)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert (violation.edge, violation.witness) == (n - 1, tuple(range(n - 1)))
    assert peak / g.m < 1000, f"{peak / g.m:.0f} bytes an edge"


def test_validate_sum_ok_triangle():
    g = graph_from([("a", "b", 4), ("b", "c", 2), ("a", "c", 1)])
    # order (a, c, b) puts the w=4 edge outermost: 4 > 2 + 1
    L = order_of(g, "acb")
    assert validate_sum(g, L) is None
    # with the w=1 edge outermost the antichain {4, 2} wins
    assert validate_sum(g, order_of(g, "abc")) is not None


def test_validate_minres_examples(triangle_equal):
    v = validate_minres_supporting(triangle_equal, order_of(triangle_equal, "abc"))
    assert v is not None and v.burden == 1
    g = graph_from([("a", "b", 2), ("b", "c", 1), ("a", "c", 1)])
    assert validate_minres_supporting(g, order_of(g, "acb")) is None
    k2 = graph_from([("a", "b", 1)])
    assert validate_minres_supporting(k2, order_of(k2, "ab")) is None


def test_validators_raise_on_crossing():
    square = graph_from(
        [("a", "b", 1), ("b", "c", 1), ("c", "d", 1), ("d", "a", 1)]
    )
    with pytest.raises(NotOnePageError):
        validate_max(square, order_of(square, "acbd"))
    with pytest.raises(NotOnePageError):
        validate_minres_supporting(square, order_of(square, "acbd"))


def test_flip_involution(triangle_5_6_11):
    L = order_of(triangle_5_6_11, "abc")
    assert L.flip().flip() == L
    assert L.flip().order == (2, 1, 0)


def test_metrics_k2(k2):
    m = metrics(k2, order_of(k2, "ab"))
    assert m.burden == (0,)
    assert m.right_residual[0] == 4
    assert m.residual_capacity == 4
    assert m.total_extension == 5
    assert m.free_space == 5
    assert m.right_residual[-1] is INF and m.left_residual[0] is INF


def test_metrics_triangle(triangle_5_6_11):
    m = metrics(triangle_5_6_11, order_of(triangle_5_6_11, "abc"))
    eid = triangle_5_6_11.edge_between(0, 2)
    assert m.burden[eid] == 1
    assert m.total_extension == 11
    assert m.visible == (0, 2)


def test_metrics_single_vertex():
    g = graph_from([], vertices=["a"])
    m = metrics(g, BookEmbedding((0,)))
    assert m.total_extension == 0
    assert m.free_space is INF
    assert m.right_residual == (INF,)


# -- independent quadratic recomputations -----------------------------------


def naive_metrics(g, L):
    pos = L.position
    n = g.n
    spans = []
    for u, v, w in g.edges:
        a, b = sorted((pos[u], pos[v]))
        spans.append((a, b, w))
    beta = tuple(b - a - 1 for a, b, _ in spans)

    def residual(i, left):
        best = INF
        for (a, b, w), bt in zip(spans, beta):
            hit = (a <= i - 1 and b >= i) if left else (a <= i and b >= i + 1)
            if hit:
                slack = w - (bt + 1)
                if slack < best:
                    best = slack
        return best

    left_res = tuple(INF if i == 0 else residual(i, True) for i in range(n))
    right_res = tuple(INF if i == n - 1 else residual(i, False) for i in range(n))

    top = [
        i
        for i in range(g.m)
        if not any(
            j != i and spans[j][0] <= spans[i][0] and spans[i][1] <= spans[j][1]
            for j in range(g.m)
        )
    ]
    tau = sum((spans[i][2] for i in top), Fraction(0))
    visible = tuple(
        L.order[p]
        for p in range(n)
        if not any(a < p < b for a, b, _ in spans)
    )
    lam = {}
    rho = {}
    for v in visible:
        p = pos[v]
        lam[v] = sum((spans[i][2] for i in top if spans[i][1] <= p), Fraction(0))
        rho[v] = sum((spans[i][2] for i in top if spans[i][0] >= p), Fraction(0))
    at_first = g.adjacency[L.order[0]] if n else ()
    if at_first:
        first = L.order[0]
        low = min(at_first, key=lambda e: pos[g.other_end(e, first)])
        b = max(pos[g.edges[low][0]], pos[g.edges[low][1]])
        # induced subgraph: the low edge's right endpoint plus everything
        # strictly under the low edge (positions 1..b)
        inner = [
            i
            for i in range(g.m)
            if i != low and spans[i][0] >= 1 and spans[i][1] <= b
        ]
        inner_top = [
            i
            for i in inner
            if not any(
                j != i and spans[j][0] <= spans[i][0] and spans[i][1] <= spans[j][1]
                for j in inner
            )
        ]
        alpha = g.weight(low) - sum((spans[i][2] for i in inner_top), Fraction(0))
    else:
        alpha = INF
    return beta, left_res, right_res, tau, alpha, visible, lam, rho


@settings(max_examples=120, deadline=None)
@given(seed=st.integers(0, 10_000), pick=st.integers(0, 10_000))
def test_metrics_matches_quadratic_recomputation(seed, pick):
    g = random_outerplanar(1 + seed % 8, (1, 9), seed=seed)
    orders = enumerate_one_page(g)
    L = orders[pick % len(orders)]
    m = metrics(g, L)
    beta, lres, rres, tau, alpha, visible, lam, rho = naive_metrics(g, L)
    assert m.burden == beta
    assert m.left_residual == lres
    assert m.right_residual == rres
    assert m.total_extension == tau
    assert m.free_space == alpha
    assert m.visible == visible
    assert m.left_extension == lam
    assert m.right_extension == rho
    for v in visible:
        assert m.n_left[v] + m.n_right[v] + 1 == g.n


@settings(max_examples=100, deadline=None)
@given(seed=st.integers(0, 10_000), pick=st.integers(0, 10_000))
def test_validators_match_definitional_checks(seed, pick):
    g = random_outerplanar(1 + seed % 8, (1, 6), seed=seed ^ 0x5EED)
    orders = enumerate_one_page(g)
    L = orders[pick % len(orders)]
    assert (validate_max(g, L) is None) == definitional_check(g, L, "max")
    assert (validate_sum(g, L) is None) == definitional_check(g, L, "sum")
    assert (validate_minres_supporting(g, L) is None) == definitional_check(
        g, L, "minres-supporting"
    )


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 10_000), pick=st.integers(0, 10_000))
def test_flip_preserves_max_verdict(seed, pick):
    g = random_outerplanar(1 + seed % 8, (1, 6), seed=seed)
    orders = enumerate_one_page(g)
    L = orders[pick % len(orders)]
    assert (validate_max(g, L) is None) == (validate_max(g, L.flip()) is None)


def test_burdens_are_spans():
    g = graph_from([("a", "b", 3), ("a", "d", 9), ("b", "c", 1)])
    L = order_of(g, "abcd")
    assert burdens(g, L) == (0, 2, 0)


def test_is_one_page_agrees_with_enumeration_on_random_orders():
    import random

    rng = random.Random(0)
    for seed in range(60):
        g = random_outerplanar(1 + seed % 7, (1, 5), seed=seed)
        valid = {e.order for e in enumerate_one_page(g)}
        verts = list(range(g.n))
        for _ in range(30):
            rng.shuffle(verts)
            order = tuple(verts)
            assert is_one_page(g, BookEmbedding(order)) == (order in valid)


def _mutated(cls, seed):
    """A planted ``cls`` yes-instance with a fifth of its weights redrawn,
    and its planted order."""
    inst = planted.planted_yes(40 + seed % 30, cls, seed, seed % 2 == 1)
    rng = random.Random(seed)
    weights = list(inst.graph.weights)
    for e in rng.sample(range(len(weights)), len(weights) // 5):
        weights[e] = rng.choice(weights)
    g = inst.graph
    return WeightedGraph(g.labels, [(u, v, w) for (u, v), w in zip(g.ends, weights)]), \
        BookEmbedding(inst.order)


def _spans_by_edge(g, L):
    pos = L.position
    return [tuple(sorted((pos[u], pos[v]))) for u, v in g.ends]


def _best_under(g, spans, i):
    """Largest total weight of edges strictly under edge ``i`` of which no
    one lies under another: a sweep over the positions of ``i``'s span."""
    a, b = spans[i]
    best = {a: Fraction(0)}
    for x in range(a + 1, b + 1):
        best[x] = max([best[x - 1]] + [
            best[s] + g.weight(e) for e, (s, t) in enumerate(spans)
            if t == x and s >= a and e != i
        ])
    return best[b]


def test_validators_report_the_first_violation_on_mutated_instances():
    reported = {"max": 0, "sum": 0}
    for seed in range(24):
        for cls in ("max", "sum"):
            g, L = _mutated(cls, seed)
            spans = _spans_by_edge(g, L)
            if cls == "max":
                # the innermost edge over each edge, and every parent/child
                # pair whose parent does not strictly outweigh its child
                found = []
                for j, (c, d) in enumerate(spans):
                    over = [i for i, (a, b) in enumerate(spans)
                            if i != j and a <= c and d <= b]
                    if over:
                        i = min(over, key=lambda i: spans[i][1] - spans[i][0])
                        if not g.weight(i) > g.weight(j):
                            found.append(((spans[i][0], -spans[i][1], c), i, j))
                got = validate_max(g, L)
                if found:
                    _, outer, inner = min(found)
                    assert (got.outer_edge, got.inner_edge) == (outer, inner), seed
                else:
                    assert got is None, seed
            else:
                found = []
                for i, (a, b) in enumerate(spans):
                    under = [e for e, (c, d) in enumerate(spans) if e != i and a <= c and d <= b]
                    if under and not g.weight(i) > _best_under(g, spans, i):
                        found.append(((a, -b), i))
                got = validate_sum(g, L)
                if found:
                    edge = min(found)[1]
                    assert got.edge == edge, seed
                    assert sum(map(g.weight, got.witness)) == _best_under(g, spans, edge)
                else:
                    assert got is None, seed
            reported[cls] += len(found) > 1
    assert min(reported.values()) >= 12  # most instances have several violations
