"""Outerplanarity recognition and outerplane embeddings."""

import itertools
import random
import sys
from fractions import Fraction

import pytest

from bookembed import graph, outerplanar
from bookembed.embedding import BookEmbedding, is_one_page
from bookembed.errors import NotOnePageError, PreconditionError
from bookembed.maxdraw import max_be_drawer
from bookembed.minres import minres_be_drawer_anchor
from bookembed.oracle import enumerate_one_page, oracle_exists, random_outerplanar
from bookembed.outerplanar import OuterCycle, outerplane_embedding
from bookembed.sumdraw import sum_be_drawer
from bookembed.twodim import one_page_order, twodim_biconnected

from conftest import cut_cycle, graph_from, small_corpus


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
    "entry_point,forests,cuts",
    [
        (lambda g, s, t: outerplane_embedding(g), 0, 0),
        (lambda g, s, t: max_be_drawer(g), 0, 1),
        (lambda g, s, t: sum_be_drawer(g), 0, 1),
        (lambda g, s, t: minres_be_drawer_anchor(g, g.edge_between(s, t)), 0, 1),
        (lambda g, s, t: twodim_biconnected(g, s, t, g.total_weight(), 1), 1, 1),
    ],
    ids=["outerplane_embedding", "max", "sum", "minres", "twodim"],
)
def test_biconnected_entry_points_do_their_work_once(
    monkeypatch, entry_point, forests, cuts
):
    # distinct weights, so no tie ends a drawer before its size-dependent work
    g = random_outerplanar(40, (1, 10**9), seed=3, biconnected=True)
    s, t = outerplane_embedding(g)[:2]
    components = _count_calls(monkeypatch, graph, "component_vertex_sets")
    nestings = _count_calls(monkeypatch, outerplanar, "nesting_forest")
    # the block's outer cycle is searched once, and cut at most once
    reductions = _count_calls(monkeypatch, outerplanar, "_reduce_to_outer_cycle")
    cut, made = OuterCycle.cut, []
    monkeypatch.setattr(OuterCycle, "cut", lambda *args: made.append(1) or cut(*args))
    entry_point(g, s, t)
    assert (len(components), len(nestings), len(reductions)) == (0, forests, 1)
    assert len(made) == cuts


def _block_graph(g, vertices, edge_ids):
    """The block as a graph of its own, vertex ``i`` being ``vertices[i]``."""
    local = {v: i for i, v in enumerate(vertices)}
    return graph.WeightedGraph(
        [str(v) for v in vertices],
        [(local[u], local[v], Fraction(1)) for u, v in (g.ends[e] for e in edge_ids)],
    )


def _check_outer_cycle(g, block):
    """``block_outer_cycle`` of ``block`` against the definition; returns
    whether the block is outerplanar."""
    vertices, edge_ids = block.vertices, block.edge_ids
    record = outerplanar.block_outer_cycle(g, vertices, edge_ids)
    if record is None:
        assert enumerate_one_page(_block_graph(g, vertices, edge_ids), cap=1) == []
        return False
    cycle = record.cycle
    k = len(cycle)
    assert sorted(cycle) == sorted(vertices), (vertices, cycle)
    pairs = {frozenset(g.ends[e]) for e in edge_ids}
    assert all(frozenset((cycle[i - 1], cycle[i])) in pairs for i in range(1, k))
    assert k < 3 or frozenset((cycle[0], cycle[-1])) in pairs
    pos = {v: i for i, v in enumerate(cycle)}
    spans = [sorted((pos[u], pos[v])) for u, v in (g.ends[e] for e in edge_ids)]
    for (a, b), (c, d) in itertools.combinations(spans, 2):
        assert not (a < c < b < d or c < a < d < b), (cycle, (a, b), (c, d))
    # the canonical flip: smallest id first, then its smaller neighbour
    assert cycle[0] == min(cycle) and (k < 3 or cycle[1] < cycle[-1]), cycle
    assert record.pos == pos
    assert list(record.spans) == [outerplanar.span(pos, *g.ends[e]) + (e,) for e in edge_ids]
    _check_cuts(g, record, edge_ids)
    return True


def _check_cuts(g, record, edge_ids):
    """Each cut of ``record`` against ``cut_cycle`` and ``span``: both
    orientations of every ring edge, and None for every other pair."""
    cycle = record.cycle
    k = len(cycle)
    ring = {(cycle[i - 1], cycle[i]) for i in range(1, k)} | {(cycle[-1], cycle[0])}
    for s, t in itertools.permutations(cycle, 2):
        cut = record.cut(s, t)
        if (s, t) not in ring and (t, s) not in ring:
            assert cut is None, (cycle, s, t)
            continue
        order = cut.order()
        assert list(order) == cut_cycle(cycle, s, t), (cycle, s, t)
        pos = {v: i for i, v in enumerate(order)}
        want = [outerplanar.span(pos, *g.ends[e]) + (e,) for e in edge_ids]
        assert cut.spans() == want, (cycle, s, t)
        assert [cut.position(v) for v in order] == list(range(k))
        j = cut.dropped()
        assert {cycle[j], cycle[(j + 1) % k]} == {s, t}


def _check_outer_cycles(g):
    found = []
    for sub in graph.connected_components(g):
        for block in graph.BlockCutTree(sub).blocks:
            found.append((len(block.vertices), _check_outer_cycle(sub, block)))
    return found


def test_outer_cycle_matches_the_definition_on_every_small_graph():
    verdicts = {True: 0, False: 0}
    for n in range(1, 6):
        pairs = list(itertools.combinations(range(n), 2))
        for mask in range(1 << len(pairs)):
            edges = [(u, v, Fraction(1)) for i, (u, v) in enumerate(pairs) if mask >> i & 1]
            g = graph.WeightedGraph([str(v) for v in range(n)], edges)
            for _k, outer in _check_outer_cycles(g):
                verdicts[outer] += 1
    assert verdicts[True] > 1000 and verdicts[False] > 100, verdicts


def _with_chords(rng, edges, n):
    """The graph on ``n`` vertices with ``edges`` plus up to two random
    chords, vertices shuffled."""
    edges = list(edges)
    for _ in range(rng.randint(0, 2)):
        u, v = rng.sample(range(n), 2)
        if (u, v) not in edges and (v, u) not in edges:
            edges.append((u, v))
    perm = list(range(n))
    rng.shuffle(perm)
    return graph.WeightedGraph(
        [str(v) for v in range(n)], [(perm[u], perm[v], Fraction(1)) for u, v in edges]
    )


def _subdivided(rng, edges, n):
    """``edges`` with random edges subdivided until there are ``n`` vertices."""
    edges = list(edges)
    top = 1 + max(max(e) for e in edges)
    while top < n:
        u, v = edges.pop(rng.randrange(len(edges)))
        edges += [(u, top), (top, v)]
        top += 1
    return edges


def test_outer_cycle_matches_the_definition_on_larger_blocks():
    # K4, K2,3 and their subdivisions are the blocks that are not outerplanar
    cores = (
        list(itertools.combinations(range(4), 2)),
        [(a, b) for a in (0, 1) for b in (2, 3, 4)],
    )
    rng = random.Random(14)
    large = {True: 0, False: 0}
    for i in range(90):
        n = 6 + i % 4
        if i % 3 == 2:
            edges = random_outerplanar(n, seed=i, biconnected=True).ends
        else:
            edges = _subdivided(rng, cores[i % 3], n)
        for k, outer in _check_outer_cycles(_with_chords(rng, edges, n)):
            if k >= 6:
                large[outer] += 1
    assert large[True] >= 20 and large[False] >= 60, large


@pytest.mark.parametrize(
    "edges",
    [
        # every ring pair is an edge, but the chords 0-3 and 1-4 cross
        [(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (5, 0), (0, 3), (1, 4)],
        # the chords do not cross, but the ring pair 5-0 is no edge
        [(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (0, 2), (3, 5)],
    ],
    ids=["crossing-chords", "missing-ring-edge"],
)
def test_outer_cycle_checks_the_reduced_ring(monkeypatch, edges):
    # the degree-2 reduction proposes the ring 0..5; the check alone refuses it
    g = graph.WeightedGraph([str(v) for v in range(6)], [(u, v, Fraction(1)) for u, v in edges])
    monkeypatch.setattr(outerplanar, "_reduce_to_outer_cycle", lambda n, sets: list(range(6)))
    assert outerplanar.block_outer_cycle(g, range(6), range(g.m)) is None


def _forest_reference(spans):
    """Children and roots by left end, each span's parent being its
    tightest enclosing span: the nesting forest read pairwise."""
    parent = []
    for a, b, _key in spans:
        around = [
            j for j, (c, d, _k) in enumerate(spans) if c <= a and b <= d and (c, d) != (a, b)
        ]
        parent.append(min(around, key=lambda j: spans[j][1] - spans[j][0], default=-1))
    by_left = sorted(range(len(spans)), key=lambda i: spans[i][0])
    children = [[i for i in by_left if parent[i] == j] for j in range(len(spans))]
    roots = [i for i in by_left if parent[i] == -1]
    return children, roots


def _cross(s, t):
    (a, b, _), (c, d, _) = sorted((s, t))
    return a < c < b < d


def test_nesting_forest_matches_the_pairwise_reference():
    rng = random.Random(3)
    verdicts = {True: 0, False: 0}
    for _ in range(1500):
        positions = rng.randint(2, 12)
        pairs = list(itertools.combinations(range(positions), 2))
        chosen = rng.sample(pairs, rng.randint(0, min(len(pairs), 9)))
        spans = [(a, b, f"e{i}") for i, (a, b) in enumerate(chosen)]
        crossing = any(_cross(s, t) for s, t in itertools.combinations(spans, 2))
        by_key = {key: (a, b, key) for a, b, key in spans}
        try:
            got = outerplanar.nesting_forest(positions, spans)
        except NotOnePageError as exc:
            assert crossing, spans
            assert _cross(by_key[exc.edge_a], by_key[exc.edge_b]), (spans, exc)
        else:
            assert not crossing, spans
            walk, children, roots = got
            assert (children, roots) == _forest_reference(spans), spans
            assert walk == sorted(range(len(spans)), key=lambda i: (spans[i][0], -spans[i][1]))
        verdicts[crossing] += 1
    assert verdicts[True] > 300 and verdicts[False] > 300, verdicts


def test_nesting_forest_lists_children_and_roots_left_to_right():
    lists = 0
    for g in small_corpus(400, max_n=24):
        order = one_page_order(g)
        pos = {v: i for i, v in enumerate(order)}
        spans = [
            outerplanar.span(pos, u, v) + (eid,) for eid, (u, v, _) in enumerate(g.edges)
        ]
        _walk, children, roots = outerplanar.nesting_forest(g.n, spans)
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
