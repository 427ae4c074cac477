"""Oracle enumeration, verdicts, generator determinism."""

import itertools
from fractions import Fraction

import pytest

from bookembed.embedding import BookEmbedding
from bookembed.errors import PreconditionError
from bookembed.graph import WeightedGraph, serialize_graph
from bookembed.maxdraw import embed_max
from bookembed.minres import embed_minres
from bookembed.oracle import (
    definitional_check,
    enumerate_one_page,
    oracle_exists,
    random_outerplanar,
)
from bookembed.sumdraw import embed_sum

from conftest import fractional, graph_from
from planted import CLASSES, ORACLE_CLASS, VALIDATORS, planted_no, planted_yes

K4 = graph_from([("a", "b", 1), ("a", "c", 1), ("a", "d", 1),
                 ("b", "c", 1), ("b", "d", 1), ("c", "d", 1)])
K23 = graph_from([(x, y, 1) for x in "ab" for y in "xyz"])
# K4 with the edge a-d subdivided by e: not outerplanar
K4_SUBDIVIDED = graph_from([("a", "b", 1), ("a", "c", 1), ("a", "e", 1), ("e", "d", 1),
                            ("b", "c", 1), ("b", "d", 1), ("c", "d", 1)])
# two components and an isolated vertex
SCATTERED = graph_from([("a", "b", 2), ("b", "c", 1), ("a", "c", 3), ("d", "e", 1)],
                       vertices=["f"])


def reference_orders(g):
    """Every permutation in which no two edges cross (a < c < b < d),
    in lexicographic order."""
    out = []
    for order in itertools.permutations(range(g.n)):
        pos = [0] * g.n
        for i, v in enumerate(order):
            pos[v] = i
        spans = [sorted((pos[u], pos[v])) for u, v in g.ends]
        if not any(a < c < b < d for a, b in spans for c, d in spans):
            out.append(order)
    return out


REFERENCE_GRAPHS = [
    random_outerplanar(n, (1, 6), seed=seed, biconnected=seed % 2 == 0)
    for n in range(1, 8) for seed in (n, n + 1)
] + [K4, K23, K4_SUBDIVIDED, SCATTERED]


@pytest.mark.parametrize("g", REFERENCE_GRAPHS)
def test_enumeration_matches_the_permutation_reference(g):
    expected = reference_orders(g)
    assert [e.order for e in enumerate_one_page(g)] == expected
    for cls in ORACLE_CLASS.values():
        passing = [o for o in expected if definitional_check(g, BookEmbedding(o), cls)]
        verdict = oracle_exists(g, cls, exhaustive=True, max_witnesses=3)
        assert verdict.count == len(passing)
        assert [w.order for w in verdict.witnesses] == passing[:3]


def test_enumerate_counts():
    tri = graph_from([("a", "b", 1), ("b", "c", 1), ("a", "c", 1)])
    assert len(enumerate_one_page(tri)) == 6
    k2 = graph_from([("a", "b", 1)])
    assert len(enumerate_one_page(k2)) == 2
    assert enumerate_one_page(K4) == []


def test_enumerate_cap():
    tri = graph_from([("a", "b", 1), ("b", "c", 1), ("a", "c", 1)])
    assert len(enumerate_one_page(tri, cap=4)) == 4


def test_guard():
    big = graph_from([(str(i), str(i + 1), 1) for i in range(11)])
    with pytest.raises(PreconditionError):
        enumerate_one_page(big)


def test_verdicts():
    eq = graph_from([("a", "b", 1), ("b", "c", 1), ("a", "c", 1)])
    assert not oracle_exists(eq, "max").exists
    assert not oracle_exists(eq, "minres-supporting").exists
    t42 = graph_from([("a", "b", 4), ("b", "c", 2), ("a", "c", 1)])
    v = oracle_exists(t42, "sum")
    assert v.exists and v.count >= 1 and v.witnesses
    for w in v.witnesses:
        assert isinstance(w, BookEmbedding)


def test_exhaustive_count():
    tri = graph_from([("a", "b", 1), ("b", "c", 1), ("a", "c", 1)])
    v = oracle_exists(tri, "one-page", exhaustive=True)
    assert v.count == 6


def test_generator_determinism_and_outerplanarity():
    a = random_outerplanar(8, seed=7)
    b = random_outerplanar(8, seed=7)
    assert serialize_graph(a) == serialize_graph(b)
    assert random_outerplanar(1, seed=0).n == 1
    for seed in range(50):
        g = random_outerplanar(1 + seed % 8, (1, 9), seed=seed)
        assert len(enumerate_one_page(g, cap=1)) == 1  # outerplanar => 1-page order
    for seed in range(30):
        g = random_outerplanar(3 + seed % 6, (1, 9), seed=seed, biconnected=True)
        assert g.m >= g.n  # cycle plus chords


def test_kernel_fallback_on_large_weights():
    # weights far beyond 64 bits must still give exact verdicts
    big = 1 << 80
    g = graph_from([("a", "b", big), ("b", "c", big - 1), ("a", "c", 2 * big - 2)])
    assert not oracle_exists(g, "sum").exists  # 2b-2 > (b)+(b-1) fails by 1
    g2 = graph_from([("a", "b", big), ("b", "c", big - 1), ("a", "c", 2 * big)])
    assert oracle_exists(g2, "sum").exists


def test_drawers_agree_with_the_oracle_at_n_9_10_and_11():
    # the oracle's own limit; CI runs a larger seeded corpus at n = 11.
    # Planted instances give yes and no verdicts for every class.
    graphs = [
        make(n, cls, n + i, i % 2 == 0).graph
        for n in (9, 10, 11) for i, cls in enumerate(CLASSES)
        for make in (planted_yes, planted_no)
    ] + [random_outerplanar(n, (1, 12), seed=seed, biconnected=seed % 2 == 0)
         for n, seed in ((9, 1), (9, 2), (10, 3), (10, 4), (11, 5), (11, 6))]
    drawers = {"max": embed_max, "sum": embed_sum, "minres": embed_minres}
    for g in graphs:
        for cls in CLASSES:
            got = drawers[cls](g)
            ok = isinstance(got, BookEmbedding)
            assert ok == oracle_exists(g, ORACLE_CLASS[cls]).exists, (g.n, cls)
            if ok:
                assert VALIDATORS[cls](g, got) is None
                assert definitional_check(g, got, ORACLE_CLASS[cls])


def cycle_graph(weights):
    """The cycle 0-1-...-(k-1)-0 with ``weights`` in that edge order."""
    k = len(weights)
    return WeightedGraph([str(i) for i in range(k)],
                         [(i, (i + 1) % k, w) for i, w in enumerate(weights)])


# Orders 0..7 and 7..0 nest every edge of these cycles under the last one;
# each cycle sits at, or one step from, the edge of a class condition.
TIGHT_CYCLES = [
    cycle_graph([1] * 7 + [w]) for w in (1, 6, 7, 8, Fraction(13, 2), Fraction(15, 2))
] + [cycle_graph([Fraction(1, 2)] * 8), cycle_graph([2, 1, 1, 1, 1, 1, 1, 2])]

BOUND_GRAPHS = [
    make(n, cls, seed, biconnected).graph
    for n in (8, 9) for i, cls in enumerate(CLASSES) for biconnected in (False, True)
    for make, seeds in ((planted_yes, (n + i, n + i + 20)), (planted_no, (n + i,)))
    for seed in seeds
] + [
    random_outerplanar(n, weights, seed=seed)
    for n in (8, 9) for weights in ((1, 3), (1, 12)) for seed in (n, n + 1)
]
BOUND_GRAPHS += [fractional(g) for g in BOUND_GRAPHS] + TIGHT_CYCLES


@pytest.mark.parametrize("g", BOUND_GRAPHS)
def test_class_bounds_drop_no_passing_order(g):
    # the sweep's prefix bounds against the plain filter of every one-page
    # order (the permutation reference stops at n = 7)
    orders = enumerate_one_page(g)
    for cls in ("one-page", *ORACLE_CLASS.values()):
        passing = [e.order for e in orders if definitional_check(g, e, cls)]
        verdict = oracle_exists(g, cls, exhaustive=True, max_witnesses=3)
        assert verdict.count == len(passing), cls
        assert [w.order for w in verdict.witnesses] == passing[:3], cls


def test_sweeps_at_n_0_and_1_and_under_a_cap():
    for g in (WeightedGraph([], []), WeightedGraph(["a"], [])):
        assert [e.order for e in enumerate_one_page(g)] == [tuple(range(g.n))]
        for cls in ("one-page", *ORACLE_CLASS.values()):
            verdict = oracle_exists(g, cls, exhaustive=True, max_witnesses=3)
            assert verdict.count == 1
            assert [w.order for w in verdict.witnesses] == [tuple(range(g.n))]
    g = planted_yes(9, "max", 9, False).graph
    orders = enumerate_one_page(g)
    for cap in (1, 2, 5, len(orders), len(orders) + 1):
        assert enumerate_one_page(g, cap=cap) == orders[:cap]
