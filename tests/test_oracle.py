"""Oracle enumeration, verdicts, generator determinism."""

import pytest

from bookembed.embedding import BookEmbedding
from bookembed.errors import PreconditionError
from bookembed.graph import serialize_graph
from bookembed.oracle import (
    enumerate_one_page,
    oracle_exists,
    random_outerplanar,
)

from conftest import graph_from


def test_enumerate_counts():
    tri = graph_from([("a", "b", 1), ("b", "c", 1), ("a", "c", 1)])
    assert len(enumerate_one_page(tri)) == 6
    k2 = graph_from([("a", "b", 1)])
    assert len(enumerate_one_page(k2)) == 2
    k4 = graph_from(
        [("a", "b", 1), ("a", "c", 1), ("a", "d", 1),
         ("b", "c", 1), ("b", "d", 1), ("c", "d", 1)]
    )
    assert enumerate_one_page(k4) == []


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
