"""Oracle enumeration, verdicts, generator determinism."""

import itertools

import pytest

from bookembed.embedding import BookEmbedding
from bookembed.errors import PreconditionError
from bookembed.graph import serialize_graph
from bookembed.maxdraw import embed_max
from bookembed.minres import embed_minres
from bookembed.oracle import (
    definitional_check,
    enumerate_one_page,
    oracle_exists,
    random_outerplanar,
)
from bookembed.sumdraw import embed_sum

from conftest import graph_from
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


def test_drawers_agree_with_the_oracle_at_n_9_and_10():
    # the oracle's own limit; CI runs a larger seeded corpus at n = 10.
    # Planted instances give yes and no verdicts for every class.
    graphs = [
        make(n, cls, n + i, i % 2 == 0).graph
        for n in (9, 10) for i, cls in enumerate(CLASSES)
        for make in (planted_yes, planted_no)
    ] + [random_outerplanar(n, (1, 12), seed=seed, biconnected=seed % 2 == 0)
         for n, seed in ((9, 1), (9, 2), (10, 3), (10, 4))]
    drawers = {"max": embed_max, "sum": embed_sum, "minres": embed_minres}
    for g in graphs:
        for cls in CLASSES:
            got = drawers[cls](g)
            ok = isinstance(got, BookEmbedding)
            assert ok == oracle_exists(g, ORACLE_CLASS[cls]).exists, (g.n, cls)
            if ok:
                assert VALIDATORS[cls](g, got) is None
                assert definitional_check(g, got, ORACLE_CLASS[cls])
