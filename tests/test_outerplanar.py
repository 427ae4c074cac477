"""Outerplanarity recognition and outerplane embeddings."""

import sys

import pytest

from bookembed import graph, outerplanar
from bookembed.embedding import BookEmbedding, is_one_page
from bookembed.errors import PreconditionError
from bookembed.maxdraw import max_be_drawer
from bookembed.minres import minres_be_drawer_anchor
from bookembed.oracle import enumerate_one_page, oracle_exists, random_outerplanar
from bookembed.outerplanar import cut_cycle, outerplane_embedding
from bookembed.sumdraw import sum_be_drawer
from bookembed.twodim import one_page_order, twodim_biconnected

from conftest import graph_from, small_corpus


def test_triangle_cycle():
    g = graph_from([("a", "b", 1), ("b", "c", 1), ("a", "c", 1)])
    assert outerplane_embedding(g) == (0, 1, 2)


def test_k4_not_outerplanar():
    g = graph_from(
        [("a", "b", 1), ("a", "c", 1), ("a", "d", 1),
         ("b", "c", 1), ("b", "d", 1), ("c", "d", 1)]
    )
    assert outerplane_embedding(g) is None
    # brute force agrees: no crossing-free order at all
    assert enumerate_one_page(g) == []


def test_k23_not_outerplanar():
    g = graph_from(
        [("a", "x", 1), ("a", "y", 1), ("a", "z", 1),
         ("b", "x", 1), ("b", "y", 1), ("b", "z", 1)]
    )
    assert outerplane_embedding(g) is None


def test_square_with_chord():
    g = graph_from(
        [("a", "b", 1), ("b", "c", 1), ("c", "d", 1), ("d", "a", 1), ("a", "c", 5)]
    )
    cycle = outerplane_embedding(g)
    assert [g.labels[v] for v in cycle] == ["a", "b", "c", "d"]
    # exhaustively: 1-page orders are exactly the cycle's cuts (and flips)
    orders = {e.order for e in enumerate_one_page(g)}
    expected = set()
    cyc = list(cycle)
    for i in range(4):
        rot = tuple(cyc[i:] + cyc[:i])
        expected.add(rot)
        expected.add(rot[::-1])
    # cutting is only legal at cycle edges; chord (a,c) blocks cuts at b and d
    legal = {o for o in expected if g.edge_between(o[0], o[-1]) is not None}
    assert orders == legal


def test_requires_biconnected():
    path = graph_from([("a", "b", 1), ("b", "c", 1)])
    with pytest.raises(PreconditionError):
        outerplane_embedding(path)


def test_embedding_matches_oracle_existence():
    # for biconnected instances: embedding found <=> some 1-page order exists
    for seed in range(60):
        g = random_outerplanar(3 + seed % 6, (1, 5), seed=seed, biconnected=True)
        cycle = outerplane_embedding(g)
        assert cycle is not None
        order = cut_cycle(cycle, cycle[0], cycle[-1])
        assert is_one_page(g, BookEmbedding(order))


def test_recognition_agrees_with_oracle_on_densified_graphs():
    # densify random biconnected instances with extra edges; recognition must
    # agree with brute force (some stay outerplanar, many do not)
    import random
    from fractions import Fraction
    from bookembed.graph import WeightedGraph

    verdicts = {True: 0, False: 0}
    for seed in range(120):
        rng = random.Random(seed)
        g0 = random_outerplanar(3 + seed % 6, (1, 5), seed=seed, biconnected=True)
        extra = []
        for _ in range(rng.randint(0, 3)):
            u, v = rng.sample(range(g0.n), 2)
            if g0.edge_between(u, v) is None and not any(
                {u, v} == {a, b} for a, b, _ in extra
            ):
                extra.append((u, v, Fraction(1)))
        g = WeightedGraph(g0.labels, list(g0.edges) + extra)
        got = outerplane_embedding(g) is not None
        want = len(enumerate_one_page(g, cap=1)) > 0
        assert got == want, (seed, g.edges)
        verdicts[got] += 1
    assert verdicts[True] and verdicts[False], "both verdicts must occur"


def _count_calls(monkeypatch, module, name):
    """Count calls of ``module.name`` made through any bookembed module."""
    original = getattr(module, name)
    calls = []

    def counted(*args, **kwargs):
        calls.append(1)
        return original(*args, **kwargs)

    for mod in list(sys.modules.values()):
        if getattr(mod, "__name__", "").startswith("bookembed") and (
            getattr(mod, name, None) is original
        ):
            monkeypatch.setattr(mod, name, counted)
    return calls


@pytest.mark.parametrize(
    "entry_point,forests",
    [
        (lambda g, s, t: outerplane_embedding(g), 1),
        (lambda g, s, t: max_be_drawer(g), 2),
        (lambda g, s, t: sum_be_drawer(g), 2),
        (lambda g, s, t: minres_be_drawer_anchor(g, g.edge_between(s, t)), 1),
        (lambda g, s, t: twodim_biconnected(g, s, t, g.total_weight(), 1), 2),
    ],
    ids=["outerplane_embedding", "max", "sum", "minres", "twodim"],
)
def test_biconnected_entry_points_do_their_work_once(
    monkeypatch, entry_point, forests
):
    # distinct weights, so no tie ends a drawer before its size-dependent work
    g = random_outerplanar(40, (1, 10**9), seed=3, biconnected=True)
    s, t = outerplane_embedding(g)[:2]
    components = _count_calls(monkeypatch, graph, "component_vertex_sets")
    nestings = _count_calls(monkeypatch, outerplanar, "nesting_forest")
    entry_point(g, s, t)
    assert (len(components), len(nestings)) == (0, forests)


def test_nesting_forest_lists_children_and_roots_left_to_right():
    lists = 0
    for g in small_corpus(400, max_n=24):
        order = one_page_order(g)
        pos = {v: i for i, v in enumerate(order)}
        spans = [
            outerplanar.span(pos, u, v) + (eid,) for eid, (u, v, _) in enumerate(g.edges)
        ]
        _parent, children, roots = outerplanar.nesting_forest(g.n, spans)
        for kids in [roots, *children]:
            lefts = [spans[k][0] for k in kids]
            assert lefts == sorted(set(lefts)), (g.edges, kids)
            lists += 1
    assert lists > 6000


def test_biconnected_drawers_answer_the_forced_order():
    # a biconnected outerplanar graph has one outer cycle, so a max or sum
    # embedding, when one exists, is unique up to its flip
    answers = {"max": 0, "sum": 0}
    for i in range(280):
        g = random_outerplanar(2 + i % 7, (1, 20), seed=i, biconnected=True)
        for cls, drawer in (("max", max_be_drawer), ("sum", sum_be_drawer)):
            got = drawer(g)
            want = oracle_exists(g, cls, exhaustive=True, max_witnesses=3)
            assert isinstance(got, BookEmbedding) == want.exists, (cls, g.edges)
            if want.exists:
                answers[cls] += 1
                assert want.count == 2
                assert {w.order for w in want.witnesses} == {got.order, got.order[::-1]}
    assert answers["max"] > 100 and answers["sum"] > 40, answers
