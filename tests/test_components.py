"""Drawing every component in place: the drawers read each component of a
graph on the graph's own ids, from one block-cut pass, and answer what
drawing each component as a subgraph of its own answers."""

import json
import random
from array import array
from dataclasses import replace
from fractions import Fraction

import planted  # the benchmark's generator (perfbench/planted.py)
from bookembed import cli, graph
from bookembed.embedding import BookEmbedding
from bookembed.graph import (
    BlockCutTree,
    WeightedGraph,
    component_vertex_sets,
    components,
    parse_graph,
    serialize_graph,
)
from bookembed.maxdraw import embed_max, max_be_drawer
from bookembed.minres import embed_minres, minres_be_drawer
from bookembed.oracle import random_outerplanar
from bookembed.sumdraw import embed_sum, sum_be_drawer
from bookembed.twodim import one_page_order, twodim_general

from conftest import coprime, fractional, small_corpus
from test_graph import _counted_fractions, _shuffled_union


def _reference(g, drawer):
    """Each component drawn as a subgraph of its own, the orders mapped back
    to ``g``'s ids and concatenated, single vertices last: ``(result,
    vertices)``, with the failing component's vertices on a failure."""
    order, tail = [], []
    for verts in component_vertex_sets(g):
        if len(verts) == 1:
            tail.extend(verts)
            continue
        result = drawer(g.induced(verts)[0])
        if not isinstance(result, BookEmbedding):
            return result, verts
        order.extend(verts[v] for v in result.order)
    return BookEmbedding(order + tail), None


def _union_corpus():
    corpus = small_corpus(60, max_n=12, weights=(1, 6))
    parts = [
        make(n, cls, seed, seed % 3 == 2, check=False).graph
        for make in (planted.planted_yes, planted.planted_no)
        for cls in ("max", "sum", "minres")
        for n, seed in ((9, 1), (20, 2), (30, 3))
    ]
    rng = random.Random(5)
    for i in range(120):
        chosen = rng.sample(corpus, 2 + i % 3) + rng.sample(parts, 1 + i % 2)
        if i % 4 == 1:
            chosen = [fractional(h) for h in chosen]
        elif i % 4 == 2:
            chosen = [coprime(h) for h in chosen]
        elif i % 4 == 3:  # the union's view overflows, most parts' fit
            chosen = [coprime(chosen[0])] + [fractional(h) for h in chosen[1:]]
        g = _shuffled_union(chosen, i)
        yield g
        yield parse_graph(serialize_graph(g))


def test_in_place_drawers_match_the_subgraph_reference():
    outcomes = set()
    for g in _union_corpus():
        for embed, drawer in (
            (embed_max, max_be_drawer),
            (embed_sum, sum_be_drawer),
            (embed_minres, minres_be_drawer),
        ):
            got = embed(g)
            want, verts = _reference(g, drawer)
            outcomes.add((drawer.__name__, isinstance(want, BookEmbedding)))
            if isinstance(want, BookEmbedding):
                assert got == want
                continue
            assert (got.condition, got.detail) == (want.condition, want.detail)
            # the ids of the failure are g's: the same block and cut vertex
            forest = BlockCutTree(g, forest=True)
            sub_tree = BlockCutTree(g.induced(verts)[0])
            if want.block is not None:
                want_block = [verts[v] for v in sub_tree.blocks[want.block].vertices]
                assert list(forest.blocks[got.block].vertices) == want_block
            if want.cut_vertex is not None:
                assert got.cut_vertex == verts[want.cut_vertex]
        want = []
        for verts in component_vertex_sets(g):
            want.extend(verts[v] for v in one_page_order(g.induced(verts)[0]))
        assert list(twodim_general(g).support.order) == want
    assert len(outcomes) == 6, outcomes  # every drawer says yes and no


def test_component_views_fit_where_the_union_overflows():
    union = planted.disjoint_union([
        planted.planted_yes(30, "minres", seed, seed % 3 == 2, check=False)
        for seed in range(20)
    ]).graph
    for g in (union, coprime(union)):
        parts = list(components(g))
        assert len(parts) == 20
        nums = parts[0].scaled[0]
        # coprime weights overflow 64 bits within each part as well
        assert (type(nums) is array) == (g is union)
        for part in parts:
            nums, den = part.scaled
            assert (den > 1) == (g is union)
            blocks = [part.tree.blocks[b] for b in part.block_ids]
            assert all(
                Fraction(nums[e], den) == g.weight(e) for b in blocks for e in b.edge_ids
            )


def _joined(h):
    """The path p0-p1-p2 followed by ``h``, whose ids move up by 3."""
    labels = ["p0", "p1", "p2"] + [f"h{label}" for label in h.labels]
    path = [(0, 1, Fraction(1)), (1, 2, Fraction(2))]
    return WeightedGraph(labels, path + [(u + 3, v + 3, w) for u, v, w in h.edges])


def test_failure_ids_name_the_failing_component():
    for embed, drawer, seed in ((embed_max, max_be_drawer, 1), (embed_sum, sum_be_drawer, 62)):
        h = random_outerplanar(7, (1, 4), seed=seed)
        g = _joined(h)
        alone = drawer(h)
        assert alone.condition == 2 and alone.cut_vertex is not None
        failure = embed(g)
        # the path's two blocks come first in the forest
        assert failure == replace(
            alone, block=alone.block + 2, cut_vertex=alone.cut_vertex + 3
        )
        block = BlockCutTree(g, forest=True).blocks[failure.block]
        assert all(g.labels[v].startswith("h") for v in block.vertices)
        assert g.labels[failure.cut_vertex].startswith("h")
        assert failure.cut_vertex in block.vertices


def test_embed_cli_builds_no_fraction_and_no_subgraph(monkeypatch, tmp_path):
    minres_union = planted.disjoint_union([
        planted.planted_yes(30, "minres", seed, seed % 3 == 2, check=False)
        for seed in range(20)
    ]).graph
    inputs = [(minres_union, "minres", 0)]
    max_no = planted.planted_no(500, "max", 7, False)  # weights: multiples of 1/scale
    for cls in ("max", "sum"):
        yes = planted.disjoint_union([
            planted.planted_yes(150, cls, seed, seed == 2, check=False)
            for seed in range(3)
        ]).graph
        no = max_no if cls == "max" else planted.planted_no(500, cls, 7, False)
        inputs += [(yes, cls, 0), (no.graph, cls, 1)]
    paths = []
    for i, (g, cls, code) in enumerate(inputs):
        path = tmp_path / f"g{i}.json"
        path.write_text(serialize_graph(g))
        paths.append((path, cls, code))
    checked = WeightedGraph._of_checked.__func__
    built = []

    def counting(cls, labels, *rest):
        built.append(labels)
        return checked(cls, labels, *rest)

    monkeypatch.setattr(WeightedGraph, "_of_checked", classmethod(counting))
    made = _counted_fractions(monkeypatch)
    codes = []
    for path, cls, _code in paths:
        g = parse_graph(path.read_text())
        # the union overflows
        assert (graph._word_view(*g.ratios()) is None) == (cls == "minres")
        for command in ("embed-max", "embed-sum", "embed-minres"):
            out = tmp_path / f"{path.stem}.{command}"
            code = cli.main([command, str(path), "--output", str(out)])
            if command == f"embed-{cls}":
                codes.append(code)
        if cls == "minres":
            # each edge is checked against its own burden, on its own (p, q)
            out = tmp_path / f"{path.stem}.check"
            order = tmp_path / f"{path.stem}.embed-minres"
            checked = cli.main(["check", "minres", str(path), "--order", f"@{order}",
                                "--output", str(out)])
    assert made == [] and built == []
    # on the minres union and the fractional max no-instance, embed-2d,
    # serialize_graph and a failing check max write each weight from its
    # (p, q): no graph builds its Fraction weight tuple
    weights = WeightedGraph.weights
    tuples = []
    monkeypatch.setattr(WeightedGraph, "weights",
                        property(lambda g: tuples.append(g.m) or weights.fget(g)))
    order = tmp_path / "g2.order"
    order.write_text(json.dumps([max_no.graph.labels[v] for v in max_no.order]))
    drawn = []
    for path, _cls, _code in (paths[0], paths[2]):
        out = tmp_path / f"{path.stem}.embed-2d"
        drawn.append(cli.main(["embed-2d", str(path), "--output", str(out)]))
        assert serialize_graph(parse_graph(path.read_text())) == path.read_text()
    out = tmp_path / "g2.check-max"
    failed = cli.main(["check", "max", str(paths[2][0]), "--order", f"@{order}",
                       "--output", str(out)])
    assert tuples == [] and built == []
    monkeypatch.undo()
    assert codes == [code for _, _, code in paths] and checked == 0
    assert json.loads((tmp_path / "g4.embed-sum").read_text())["exists"] is False
    assert drawn == [0, 0] and failed == 1
    assert json.loads(out.read_text())["violation"]["class"] == "max"


def test_forest_cut_vertices_and_blocks_match_the_definition():
    corpus = small_corpus(40, max_n=10)
    graphs = corpus + [
        _shuffled_union(random.Random(i).sample(corpus, 2 + i % 3), i) for i in range(30)
    ]
    for g in graphs:
        forest = BlockCutTree(g, forest=True)
        count = len(component_vertex_sets(g))
        adjacency = g.adjacency  # made anew on every access
        # a vertex with edges is a cut vertex when removing it splits its component
        cuts = tuple(
            v for v in range(g.n) if adjacency[v] and len(
                component_vertex_sets(g.induced([x for x in range(g.n) if x != v])[0])
            ) > count
        )
        assert forest.cut_vertices == cuts
        assert all(block.cuts == tuple(v for v in block.vertices if v in cuts)
                   for block in forest.blocks)
        # the components' blocks are contiguous and partition the edges
        parts = list(components(g))
        assert [part.root for part in parts] == [
            verts[0] for verts in component_vertex_sets(g)
        ]
        assert [first for _, first, _ in forest.parts] == [
            part.block_ids[0] for part in parts
        ]
        assert [b for part in parts for b in part.block_ids] == list(
            range(len(forest.blocks))
        )
        assert sorted(e for b in forest.blocks for e in b.edge_ids) == list(range(g.m))
