"""Structured medium-size families with known verdicts (beyond oracle reach)."""

from fractions import Fraction

from bookembed.embedding import (
    BookEmbedding,
    Failure,
    validate_max,
    validate_minres_supporting,
    validate_sum,
)
from bookembed.maxdraw import max_be_drawer
from bookembed.minres import minres_be_drawer, minres_be_drawer_anchor
from bookembed.oracle import random_outerplanar
from bookembed.sumdraw import sum_be_drawer

from conftest import graph_from, small_corpus


def test_max_star_distinct_weights_succeeds():
    star = graph_from([("c", f"u{i}", i + 1) for i in range(200)])
    out = max_be_drawer(star)
    assert isinstance(out, BookEmbedding)
    assert validate_max(star, out) is None


def test_sum_geometric_star_succeeds():
    star = graph_from([("c", f"u{i}", 3**i) for i in range(80)])
    out = sum_be_drawer(star)
    assert isinstance(out, BookEmbedding)
    assert validate_sum(star, out) is None


def test_sum_geometric_caterpillar_succeeds():
    # path with geometrically growing weights plus light pendant edges
    edges = []
    for i in range(40):
        edges.append((f"p{i}", f"p{i+1}", Fraction(4) ** (i + 1)))
        edges.append((f"p{i}", f"h{i}", Fraction(1, 2 ** (i + 1))))
    g = graph_from(edges)
    out = sum_be_drawer(g)
    assert isinstance(out, BookEmbedding)
    assert validate_sum(g, out) is None


def test_minres_unit_path_succeeds():
    path = graph_from([(f"v{i}", f"v{i+1}", 1) for i in range(150)])
    out = minres_be_drawer(path)
    assert isinstance(out, BookEmbedding)
    assert validate_minres_supporting(path, out) is None


def test_minres_heavy_star_succeeds():
    n = 60
    star = graph_from([("c", f"u{i}", n) for i in range(n - 1)])
    out = minres_be_drawer(star)
    assert isinstance(out, BookEmbedding)
    assert validate_minres_supporting(star, out) is None


def test_medium_random_outputs_always_validate():
    for seed in range(12):
        n = 20 + seed * 11
        g = random_outerplanar(n, (1, 10**6), seed=seed * 71, biconnected=(seed % 2 == 0))
        got = max_be_drawer(g)
        if isinstance(got, BookEmbedding):
            assert validate_max(g, got) is None
        got = sum_be_drawer(g)
        if isinstance(got, BookEmbedding):
            assert validate_sum(g, got) is None
        got = minres_be_drawer(g)
        if isinstance(got, BookEmbedding):
            assert validate_minres_supporting(g, got) is None


def test_fractional_weights_agree_with_oracle():
    import random

    from bookembed.graph import WeightedGraph
    from bookembed.oracle import oracle_exists

    for seed in range(120):
        base = random_outerplanar(1 + seed % 8, (1, 5), seed=seed + 60_000)
        rng = random.Random(seed)
        g = WeightedGraph(
            base.labels,
            [
                (u, v, Fraction(rng.randint(1, 40), rng.randint(1, 12)))
                for u, v, _ in base.edges
            ],
        )
        for cls, drawer, val in (
            ("max", max_be_drawer, validate_max),
            ("sum", sum_be_drawer, validate_sum),
            ("minres-supporting", minres_be_drawer, validate_minres_supporting),
        ):
            got = drawer(g)
            ok = isinstance(got, BookEmbedding)
            assert ok == oracle_exists(g, cls).exists
            if ok:
                assert val(g, got) is None


def test_drawers_return_embedding_or_failure():
    drawers = {
        "max": max_be_drawer,
        "sum": sum_be_drawer,
        "minres": minres_be_drawer,
        "minres-anchor": lambda g: minres_be_drawer_anchor(g, 0),
    }
    kinds = {name: set() for name in drawers}
    for g in small_corpus(60, weights=(1, 4), seed0=2024):
        for name, drawer in drawers.items():
            if name == "minres-anchor" and g.m == 0:
                continue
            result = drawer(g)
            assert isinstance(result, (BookEmbedding, Failure)), (name, result)
            kinds[name].add(type(result))
    assert all(found == {BookEmbedding, Failure} for found in kinds.values()), kinds


def test_nested_triangle_tower_sum():
    # triangles sharing cut vertices in a chain, weights shrinking so each
    # level fits under the previous one's light edge
    edges = []
    w = Fraction(1)
    for i in range(25):
        a, b, c = f"a{i}", f"b{i}", f"a{i+1}"
        edges.append((a, b, w * 4))
        edges.append((b, c, w * 2))
        edges.append((a, c, w))
        w /= 16
    g = graph_from(edges)
    out = sum_be_drawer(g)
    want = out if isinstance(out, BookEmbedding) else None
    if want is not None:
        assert validate_sum(g, out) is None
