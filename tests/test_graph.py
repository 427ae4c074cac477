"""Graph model, parsing, components, and the block-cut-vertex tree."""

import json
import math
import random
import tracemalloc
from fractions import Fraction

import pytest

import planted  # the benchmark's generator (perfbench/planted.py)
from bookembed import cli, graph
from bookembed.embedding import per_component
from bookembed.errors import GraphFormatError, PreconditionError
from bookembed.exact import format_rational, parse_rational
from bookembed.graph import (
    BlockCutTree,
    WeightedGraph,
    build_bc_tree,
    component_vertex_sets,
    connected_components,
    is_connected,
    parse_graph,
    serialize_graph,
)
from bookembed.maxdraw import max_be_drawer
from bookembed.minres import minres_be_drawer, minres_be_drawer_anchor
from bookembed.sumdraw import sum_be_drawer

from conftest import coprime, fractional, graph_from, small_corpus, subtree, walk_reference


def test_parse_json_triangle():
    g = parse_graph('{"edges":[["a","b","5"],["b","c","6"],["a","c","11"]]}')
    assert g.n == 3 and g.m == 3
    assert g.weight(0) == 5 and g.weight(2) == 11


def test_parse_edge_list_k2():
    g = parse_graph("a b 1\n", format="edge-list")
    assert g.n == 2 and g.m == 1 and g.weight(0) == 1


def test_parse_rational_forms():
    g = parse_graph('{"edges":[["a","b","3.25"],["b","c","7/2"],["a","c",4]]}')
    assert g.weight(0) == Fraction(13, 4)
    assert g.weight(1) == Fraction(7, 2)
    assert g.weight(2) == 4


# the weight grammar, the same on every supported Python: ASCII digits and
# digits/digits take a fast path, other forms go to Fraction's parser, and
# interior whitespace and "_" (which Fraction accepts from 3.12 and 3.11 on)
# are rejected; None means "malformed"
RATIONALS = {
    "5": Fraction(5), "007": Fraction(7), "0": Fraction(0),
    "7/2": Fraction(7, 2), "14/4": Fraction(7, 2), " 7/2 ": Fraction(7, 2),
    "\t7\n": Fraction(7), "3.25": Fraction(13, 4), "1e3": Fraction(1000),
    ".5": Fraction(1, 2), "+5": Fraction(5), "-3/4": Fraction(-3, 4),
    "\u0663": Fraction(3), "\u00b2": None,
    "1_000": None, "1_000/3": None, "1_0.5": None, "1e1_0": None,
    "5/0": None, "5/": None, "/5": None, "7 /2": None, "7/ 2": None,
    "2 / 3": None, "1 000": None, "": None, "x": None,
}


@pytest.mark.parametrize("text", RATIONALS, ids=repr)
def test_parse_rational_matches_fraction(text):
    expected = RATIONALS[text]
    doc = json.dumps({"edges": [["a", "b", text]]})
    if expected is None:
        with pytest.raises(ValueError, match="not a rational number"):
            parse_rational(text)
        with pytest.raises(GraphFormatError) as err:
            parse_graph(doc)
        assert err.value.kind == "syntax"
        assert str(err.value) == f"malformed weight {text!r} (edges[0]) (at edges[0])"
        return
    got = parse_rational(text)
    assert type(got) is Fraction and got == expected
    if expected > 0:
        assert parse_graph(doc).weight(0) == expected
    else:
        with pytest.raises(GraphFormatError) as err:
            parse_graph(doc)
        assert err.value.kind == "non-positive-weight"


def test_scaled_weights_are_exact():
    base = small_corpus(60, max_n=12)
    corpus = [fractional(g) for g in base] + [coprime(g) for g in base]
    graphs = corpus + [
        _shuffled_union(random.Random(i).sample(corpus, 3), i) for i in range(20)
    ]
    # a parsed graph gets its view from the parser, and its parts theirs
    # from its integers
    graphs += [parse_graph(serialize_graph(g)) for g in graphs]
    edgeless = graph_from([], vertices=["a", "b"])
    assert len(edgeless.scaled[0]) == 0 and edgeless.scaled[1] == 1
    views = set()
    for g in graphs:
        parts = connected_components(g)
        parts.append(g.induced(range(0, g.n, 2))[0])
        for h in [g] + parts:
            nums, den = h.scaled
            again = h.scaled  # made anew on each read, and equal
            assert again[1] == den and list(again[0]) == list(nums)
            assert len(nums) == h.m
            assert all(Fraction(nums[e], den) == h.weight(e) for e in range(h.m))
            lcm = math.lcm(*(w.denominator for _, _, w in h.edges))
            if lcm < 2**63:
                views.add("words")
                assert den == lcm and nums.typecode == "q"
            else:
                # past 64 bits the view is the weights themselves
                views.add("fractions")
                assert den == 1 and nums == tuple(w for _, _, w in h.edges)
    assert views == {"words", "fractions"}


@pytest.mark.parametrize("fmt", ["json", "edge-list"])
def test_parsed_graph_matches_the_constructed_one(fmt):
    base = small_corpus(40, max_n=12)
    graphs = base + [fractional(g) for g in base] + [coprime(g) for g in base]
    graphs += [_shuffled_union(random.Random(i).sample(graphs, 3), i) for i in range(10)]
    for g in graphs:
        h = parse_graph(serialize_graph(g, fmt), format=fmt)
        # an edge list lists isolated vertices last but declares them first
        ids = [h.label_index[lab] for lab in g.labels]
        g = WeightedGraph(h.labels, [(ids[u], ids[v], w) for u, v, w in g.edges])
        g_nums, g_den = g.scaled
        nums, den = h.scaled
        assert den == g_den and list(nums) == list(g_nums)
        assert type(nums) is type(g_nums)
        assert h.labels == g.labels and h.label_index == g.label_index
        assert h.ends == g.ends and h.adjacency == g.adjacency
        _assert_lookups(h)
        assert [h.weight(e) for e in range(h.m)] == list(g.weights)
        assert h.edges == g.edges and h == g and hash(h) == hash(g)
        assert all(type(w) is Fraction for w in h.weights)


def _assert_lookups(g):
    """``edge_between`` and ``label_index`` agree with brute force."""
    pairs = {frozenset(end): eid for eid, end in enumerate(g.ends)}
    for u in range(g.n):
        for v in range(g.n):
            assert g.edge_between(u, v) == pairs.get(frozenset((u, v))), (u, v)
    assert g.label_index == {lab: i for i, lab in enumerate(g.labels)}
    assert all(g.resolve(lab) == i for i, lab in enumerate(g.labels))


def test_edge_between_and_label_index_match_brute_force():
    base = small_corpus(30, max_n=12)
    built = [fractional(g) for g in base] + [
        _shuffled_union(random.Random(i).sample(base, 3), i) for i in range(6)
    ]
    kinds = set()
    for g in base + built:
        for fmt in ("json", "edge-list"):
            _assert_lookups(parse_graph(serialize_graph(g, fmt), format=fmt))
        _assert_lookups(g)
        _assert_lookups(g.induced(range(0, g.n, 2))[0])
        parts = connected_components(g)
        for sub in parts:
            _assert_lookups(sub)
        kinds.add(len(parts) > 1)
    assert kinds == {False, True}  # subgraphs of many-component graphs too


def _triangles(k):
    """``k`` disjoint triangles with integer weights 1, 2 and 4."""
    labels = [f"{c}{i}" for i in range(k) for c in "abc"]
    return labels, [
        e for i in range(k)
        for e in ((3 * i, 3 * i + 1, 1), (3 * i + 1, 3 * i + 2, 2), (3 * i, 3 * i + 2, 4))
    ]


def _bytes_an_edge(build):
    """Bytes an edge that the graph ``build()`` returns holds, by
    ``tracemalloc``."""
    tracemalloc.start()
    try:
        g = build()
        held = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    return held / g.m


def test_constructed_graph_holds_at_most_130_bytes_an_edge():
    # the labels, ends and (p, q) lists: about 88 bytes an edge; no weight
    # view, adjacency rows, Fraction, edge lookup or label index
    labels, edges = _triangles(20_000)
    held = _bytes_an_edge(lambda: WeightedGraph(labels, edges))
    assert held <= 130, held


@pytest.mark.parametrize("fmt", ["json", "edge-list"])
def test_parsed_graph_holds_at_most_250_bytes_an_edge(fmt):
    # as a constructed graph, plus the labels' strings and the parser's
    # label index: about 210 bytes an edge
    text = serialize_graph(WeightedGraph(*_triangles(20_000)), fmt)
    held = _bytes_an_edge(lambda: parse_graph(text, format=fmt))
    assert held <= 250, held


def test_a_graph_keeps_no_weight_view(monkeypatch, tmp_path):
    # the view is made where it is read, never with the graph
    made = []
    word_view = graph._word_view
    monkeypatch.setattr(graph, "_word_view", lambda *pair: made.append(1) or word_view(*pair))
    labels, edges = _triangles(50)
    g = WeightedGraph(labels, edges)
    for fmt in ("json", "edge-list"):
        parse_graph(serialize_graph(g, fmt), format=fmt)
    assert made == []
    path, order = tmp_path / "g.json", tmp_path / "order.json"
    path.write_text(serialize_graph(g))
    order.write_text(json.dumps(labels))  # each triangle's heaviest edge wraps the other two
    args = ["check", "max", str(path), "--order", f"@{order}", "--output", str(tmp_path / "out")]
    assert cli.main(args) == 0
    assert len(made) == 1


def test_equal_denominators_are_one_object():
    labels, edges = _triangles(300)
    # three odd denominators past the small-int cache: each Fraction and each
    # parsed weight makes its own int
    edges = [(u, v, Fraction(w, 10**20 + 1 + 2 * (e % 3)))
             for e, (u, v, w) in enumerate(edges)]
    g = WeightedGraph(labels, edges)
    graphs = [g] + [parse_graph(serialize_graph(g, fmt), format=fmt)
                    for fmt in ("json", "edge-list")]
    for h in graphs:
        dens = h.ratios()[1]
        assert dens == g.ratios()[1] and len(set(dens)) == 3
        assert len(set(map(id, dens))) == 3


def _counted_fractions(monkeypatch):
    """Arguments of every Fraction built from here on."""
    made = []
    new = Fraction.__new__

    def counted(cls, *args, **kwargs):
        made.append(args)
        return new(cls, *args, **kwargs)

    monkeypatch.setattr(Fraction, "__new__", staticmethod(counted))
    return made


@pytest.mark.parametrize("read", [
    lambda g: g.weights, lambda g: g.weight(4), lambda g: g.edges,
], ids=["weights", "weight", "edges"])
def test_constructed_graph_builds_no_fraction_until_read(monkeypatch, read):
    labels, edges = _triangles(20_000)
    made = _counted_fractions(monkeypatch)
    g = WeightedGraph(labels, edges)
    nums, den = g.scaled
    assert nums.typecode == "q" and den == 1 and g.ratios()[1][:3] == [1, 1, 1]
    assert g.edge_between(0, 2) == 2 and g.label_index["c1"] == 5
    assert serialize_graph(g, "edge-list").startswith("a0 b0 1\nb0 c0 2\na0 c0 4\n")
    assert made == []
    read(g)
    assert made
    assert g.weight(4) == 2 and g.weights[3:6] == (1, 2, 4)


def test_parse_and_embed_max_build_no_fraction(monkeypatch, tmp_path):
    texts = [
        serialize_graph(make(500, "max", 7, biconnected).graph)
        for make in (planted.planted_yes, planted.planted_no)
        for biconnected in (False, True)
    ]
    path = tmp_path / "no.json"
    path.write_text(texts[2])  # the connected no-instance
    out = tmp_path / "out.json"
    made = _counted_fractions(monkeypatch)
    for text in texts:
        g = parse_graph(text)
        assert g.scaled[0].typecode == "q" and g.scaled[1] > 1
    assert made == []
    assert cli.main(["embed-max", str(path), "--output", str(out)]) == 1
    assert made == []
    monkeypatch.undo()
    assert json.loads(out.read_text())["exists"] is False


def test_minres_union_takes_the_fraction_view_and_its_parts_words():
    # the planted-yes minres inputs of the benchmark: 20 parts of 30
    # vertices, each with its own weight scale, overflow 64 bits together
    union = planted.disjoint_union([
        planted.planted_yes(30, "minres", seed, seed % 3 == 2, check=False)
        for seed in range(20)
    ]).graph
    for g in (union, parse_graph(serialize_graph(union))):
        nums, den = g.scaled
        assert den == 1 and nums == g.weights
        parts = connected_components(g)
        assert len(parts) == 20
        for sub in parts:
            assert sub.scaled[0].typecode == "q" and sub.scaled[1] > 1


@pytest.mark.parametrize(
    "top, words", [((2**63 - 1) // 3, True), ((2**63 - 1) // 3 + 1, False)]
)
def test_scaled_view_holds_64_bit_numerators(top, words):
    # over den == 3, 3 * top is the largest numerator; one that needs 64
    # bits sends the whole view to the Fractions
    g = graph_from([("a", "b", top), ("b", "c", 7), ("a", "c", Fraction(5, 3))])
    nums, den = g.scaled
    assert all(Fraction(nums[e], den) == g.weight(e) for e in range(g.m))
    if words:
        assert den == 3 and nums.typecode == "q"
    else:
        assert den == 1 and nums == tuple(w for _, _, w in g.edges)


@pytest.mark.parametrize(
    "text,kind",
    [
        ('{"edges":[["a","b","0"]]}', "non-positive-weight"),
        ('{"edges":[["a","a","1"]]}', "self-loop"),
        ('{"edges":[["a","b","1"],["b","a","2"]]}', "duplicate-edge"),
        ('{"edges":[["a","b","x"]]}', "syntax"),
        ('{"vertices":5,"edges":[]}', "syntax"),
        ('{"vertices":"ab","edges":[]}', "syntax"),
    ],
)
def test_parse_errors(text, kind):
    with pytest.raises(GraphFormatError) as err:
        parse_graph(text)
    assert err.value.kind == kind


def test_parse_error_carries_line():
    with pytest.raises(GraphFormatError) as err:
        parse_graph("a b 1\na b\n", format="edge-list")
    assert err.value.line == 2


def test_json_floats_rejected():
    with pytest.raises(GraphFormatError):
        parse_graph('{"edges":[["a","b",1.5]]}')


@pytest.mark.parametrize("fmt", ["json", "edge-list"])
def test_round_trip(fmt):
    g = parse_graph(
        '{"vertices":["z"],"edges":[["a","b","13/4"],["b","c","2"],["a","c","9"]]}'
    )
    assert parse_graph(serialize_graph(g, fmt), format=fmt) == g


@pytest.mark.parametrize("fmt", ["json", "edge-list"])
@pytest.mark.parametrize("w", [10**5000, Fraction(10**5000 + 1, 3)], ids=["int", "ratio"])
def test_round_trip_past_the_digit_limit(fmt, w):
    # 5,001-digit numbers pass Python's int-from-str limit of 4,300
    g = WeightedGraph(["a", "b", "c"], [(0, 1, w), (1, 2, 2)])
    h = parse_graph(serialize_graph(g, fmt), format=fmt)
    assert h == g and h.ratios() == g.ratios()
    assert parse_rational(format_rational(Fraction(w))) == w


def test_long_malformed_weights_are_quoted_in_part():
    text = "9" * 5000 + "x"
    with pytest.raises(GraphFormatError) as err:
        parse_graph(json.dumps({"edges": [["a", "b", text]]}))
    assert str(err.value).startswith(f"malformed weight {'9' * 40!r}... (5001 characters)")
    with pytest.raises(ValueError) as err:
        parse_rational(text)
    assert len(str(err.value)) < 100


@pytest.mark.parametrize("sign", ["-", "+", ""])
def test_signed_digit_strings_past_the_digit_limit(sign):
    # 5,000 digits pass Python's int-from-str limit of 4,300
    value = -(10**5000 - 1) if sign == "-" else 10**5000 - 1
    text = sign + "9" * 5000
    assert parse_rational(text) == value
    assert parse_rational(text + "/6") == Fraction(value, 6)
    assert parse_rational(sign + "5") == (-5 if sign == "-" else 5)
    for doc in (json.dumps({"edges": [["a", "b", text]]}),  # a string weight
                '{"edges": [["a", "b", %s]]}' % text.lstrip("+")):  # a JSON number
        if sign == "-":
            # the error "-5" gives, not "malformed weight"
            with pytest.raises(GraphFormatError) as err:
                parse_graph(doc)
            assert err.value.kind == "non-positive-weight"
            assert str(err.value).startswith("non-positive weight -9999")
        else:
            g = parse_graph(doc)
            assert g.weight(0) == value and g.ratios() == ([value], [1])


def test_json_integer_labels_past_the_digit_limit():
    big = "9" * 5000
    g = parse_graph('{"vertices": [%s], "edges": [["a", %s, "1"], [-%s, "a", 2]]}'
                    % (big, big, big))
    assert g.labels == (big, "a", "-" + big)
    assert g.resolve_labels([10**5000 - 1, "a", 1 - 10**5000]) == [0, 1, 2]
    with pytest.raises(GraphFormatError, match="unknown vertex '1000"):
        g.resolve_labels([10**5000])


LONG = "x" * 5000
CUT = f"{'x' * 40!r}... (5000 characters)"  # how an error message quotes LONG


@pytest.mark.parametrize("edges, message", [
    ([(LONG, LONG, "1")], f"self-loop at vertex {CUT}"),
    ([("a", LONG, "1"), (LONG, "a", "2")], f"duplicate edge {CUT}--'a'"),
    ([("a", LONG, "-" + "9" * 4999)],
     f"non-positive weight -{'9' * 39}... (5000 characters) on edge 'a'--{CUT}"),
    # 40 characters are quoted whole
    ([("y" * 40, "y" * 40, "1")], f"self-loop at vertex {'y' * 40!r}"),
    ([("a", "b", "-" + "9" * 39)], f"non-positive weight -{'9' * 39} on edge 'a'--'b'"),
], ids=["self-loop", "duplicate-edge", "non-positive-weight", "label-of-40", "weight-of-40"])
def test_long_values_are_cut_in_structural_errors(edges, message):
    with pytest.raises(GraphFormatError) as parsed:
        parse_graph(json.dumps({"edges": [list(e) for e in edges]}))
    labels = list(dict.fromkeys(label for u, v, _ in edges for label in (u, v)))
    with pytest.raises(GraphFormatError) as built:
        WeightedGraph(labels, [(labels.index(u), labels.index(v), parse_rational(w))
                               for u, v, w in edges])
    assert str(parsed.value) == str(built.value) == message
    assert parsed.value.kind == built.value.kind


def test_components_order_and_content():
    g = graph_from([("a", "b", 1), ("c", "d", 1)])
    comps = connected_components(g)
    assert [c.labels for c in comps] == [("a", "b"), ("c", "d")]
    assert connected_components(graph_from([("a", "b", 1), ("b", "c", 2), ("a", "c", 3)]))[0].m == 3
    assert connected_components(graph_from([], vertices=[])) == []


def _shuffled_union(parts, seed):
    """Disjoint union of ``parts`` with the dense ids of all parts
    interleaved at random, plus two isolated vertices."""
    rng = random.Random(seed)
    total = sum(g.n for g in parts) + 2
    ids = list(range(total))
    rng.shuffle(ids)
    labels = [None] * total
    edges = []
    base = 0
    for p, g in enumerate(parts):
        for v, lab in enumerate(g.labels):
            labels[ids[base + v]] = f"{p}.{lab}"
        edges += [(ids[base + u], ids[base + v], w) for u, v, w in g.edges]
        base += g.n
    labels[ids[base]], labels[ids[base + 1]] = "iso0", "iso1"
    rng.shuffle(edges)
    return WeightedGraph(labels, edges)


def test_connected_components_match_induced():
    corpus = small_corpus(60)
    graphs = corpus + [
        _shuffled_union(random.Random(i).sample(corpus, 2 + i % 4), i)
        for i in range(40)
    ]
    graphs.append(graph_from([], vertices=[]))
    for g in graphs:
        subs = connected_components(g)
        comps = component_vertex_sets(g)
        assert len(subs) == len(comps)
        for verts, sub in zip(comps, subs):
            # the checked constructor over the old induced() filter
            to_sub = {v: i for i, v in enumerate(verts)}
            ref = WeightedGraph(
                [g.labels[v] for v in verts],
                [(to_sub[u], to_sub[v], w) for u, v, w in g.edges
                 if u in to_sub and v in to_sub],
            )
            for other in (ref, g.induced(verts)[0]):
                assert sub.labels == other.labels
                assert sub.label_index == other.label_index
                assert sub.edges == other.edges
                assert sub.adjacency == other.adjacency
            _assert_lookups(sub)
            assert g.induced(verts)[1] == to_sub
            assert all(type(w) is Fraction for _, _, w in sub.edges)


def test_per_component_builds_no_subgraph_past_a_failure(monkeypatch):
    g = _shuffled_union(small_corpus(4, seed0=10)[1:], 1)
    built = []
    checked = WeightedGraph._of_checked.__func__

    def counting(cls, labels, *rest):
        built.append(labels)
        return checked(cls, labels, *rest)

    monkeypatch.setattr(WeightedGraph, "_of_checked", classmethod(counting))
    failure = object()
    assert per_component(g, lambda part: failure) is failure
    # components are drawn in place: not even the failing one is rebuilt
    assert len(built) == 0 and len(component_vertex_sets(g)) > 2


# -10**5000 is past the int-to-str digit limit: its message still formats
@pytest.mark.parametrize("w", [Fraction(0), Fraction(-1, 2), 0, "-3/4", -0.5,
                               pytest.param(-10**5000, id="-10**5000")])
def test_non_positive_weights_rejected(w):
    with pytest.raises(GraphFormatError) as err:
        WeightedGraph(["a", "b"], [(0, 1, w)])
    assert err.value.kind == "non-positive-weight"


@pytest.mark.parametrize(
    "w,expected",
    [(3, Fraction(3)), ("7/2", Fraction(7, 2)), (0.25, Fraction(1, 4)),
     (Fraction(5, 3), Fraction(5, 3))],
)
def test_weights_coerced_to_fraction(w, expected):
    g = WeightedGraph(["a", "b"], [(0, 1, w)])
    assert type(g.weight(0)) is Fraction and g.weight(0) == expected


def test_bc_tree_path():
    g = graph_from([("a", "b", 1), ("b", "c", 1)])
    tree = BlockCutTree(g)
    assert len(tree.blocks) == 2
    assert [g.labels[c] for c in tree.cut_vertices] == ["b"]
    # the first edge is the smallest-id heaviest: its block is the root
    ab, bc = tree.block_of_edge
    assert build_bc_tree(g) == [(bc, g.resolve("b")), (ab, None)]


def test_bc_tree_triangle():
    g = graph_from([("a", "b", 1), ("b", "c", 2), ("a", "c", 3)])
    tree = BlockCutTree(g)
    assert len(tree.blocks) == 1
    assert tree.cut_vertices == ()
    assert build_bc_tree(g) == [(0, None)]


def test_bc_tree_root_policy_star():
    g = graph_from([("c", "x", 1), ("c", "y", 2), ("c", "z", 3)])
    tree = BlockCutTree(g)
    root, parent = build_bc_tree(g)[-1]
    assert parent is None
    ws = [g.weight(e) for e in tree.blocks[root].edge_ids]
    assert ws == [Fraction(3)]
    eid = g.edge_between(g.resolve("c"), g.resolve("y"))
    root2, parent2 = tree.walk(tree.block_of_edge[eid])[-1]
    assert parent2 is None and eid in tree.blocks[root2].edge_ids


def test_bc_tree_requires_connected():
    with pytest.raises(PreconditionError):
        BlockCutTree(graph_from([("a", "b", 1), ("c", "d", 1)]))


@pytest.mark.parametrize(
    "text",
    [
        '{"edges":[["a","b","1"],["c","d","1"]]}',
        '{"vertices":["z"],"edges":[["a","b","1"]]}',
    ],
)
@pytest.mark.parametrize(
    "build",
    [
        BlockCutTree,
        max_be_drawer,
        sum_be_drawer,
        minres_be_drawer,
        lambda g: minres_be_drawer_anchor(g, 0),
    ],
    ids=["BlockCutTree", "max", "sum", "minres", "minres-anchor"],
)
def test_disconnected_input_raises(build, text):
    with pytest.raises(PreconditionError):
        build(parse_graph(text))


def test_bc_tree_reconstruction_identity():
    # union of blocks == graph; every vertex counted once per incident block
    from bookembed.oracle import random_outerplanar

    for seed in range(40):
        g = random_outerplanar(2 + seed % 9, (1, 9), seed=seed)
        tree = BlockCutTree(g)
        edge_union = sorted(e for b in tree.blocks for e in b.edge_ids)
        assert edge_union == list(range(g.m))
        vertex_count = sum(len(b.vertices) for b in tree.blocks)
        cut_adjacencies = sum(
            len(tree.blocks_of_vertex[c]) for c in tree.cut_vertices
        )
        assert vertex_count == g.n + cut_adjacencies - len(tree.cut_vertices)
        for i, b1 in enumerate(tree.blocks):
            for b2 in tree.blocks[i + 1:]:
                assert len(set(b1.vertices) & set(b2.vertices)) <= 1
        # bridges and larger blocks alike: sorted ids, endpoints, largest weight
        for bid, b in enumerate(tree.blocks):
            assert b.vertices == tuple(sorted({v for e in b.edge_ids for v in g.ends[e]}))
            assert b.edge_ids == tuple(sorted(b.edge_ids))
            assert {tree.block_of_edge[e] for e in b.edge_ids} == {bid}
            assert b.max_weight == max(g.scaled[0][e] for e in b.edge_ids)


def test_rooted_aggregates():
    #   r --- c === (two blocks under c)
    g = graph_from(
        [("r", "c", 5), ("c", "x", 1), ("c", "y", 2), ("y", "z", 7), ("c", "z", 3)]
    )
    tree = BlockCutTree(g)
    walk = build_bc_tree(g)
    assert tree.blocks[walk[-1][0]].max_weight == 7
    c = g.resolve("c")
    # the root block is {c, y, z}; {r, c} and {c, x} hang below c
    assert subtree(g, tree, walk, "C", c) == {c, g.resolve("r"), g.resolve("x")}
    # subtree counts and heaviest weights folded along the walk, as the
    # drawers fold them, agree with a search of the graph, also when the
    # weights are held over a common denominator
    for h, den in ((g, 1), (fractional(g), 30), (coprime(g), 1)):
        assert h.scaled[1] == den
        tree = BlockCutTree(h)
        walk = build_bc_tree(h)
        count, heaviest, checked_cuts = {}, {}, set()
        for bid, parent in walk:
            block = tree.blocks[bid]
            count[bid], heaviest[bid] = len(block.vertices), block.max_weight
            for cc in block.cuts:
                if cc == parent:
                    continue
                kids = [b for b in tree.blocks_of_vertex[cc] if b != bid]
                below = 1 + sum(count[b] - 1 for b in kids)
                assert below == len(subtree(h, tree, walk, "C", cc))
                count[bid] += below - 1
                heaviest[bid] = max(heaviest[bid], *(heaviest[b] for b in kids))
                checked_cuts.add(cc)
            seen = subtree(h, tree, walk, "B", bid)
            assert count[bid] == len(seen)
            assert Fraction(heaviest[bid], den) == max(
                h.weight(e) for e in range(h.m) if set(h.ends[e]) <= seen
            )
        assert checked_cuts == set(tree.cut_vertices)


@pytest.mark.parametrize("weighted", [None, fractional, coprime],
                         ids=["integer", "fractional", "coprime"])
def test_walk_by_definition(weighted):
    graphs = small_corpus(150, max_n=24, weights=(1, 9), seed0=31)
    for g in map(weighted, graphs) if weighted else graphs:
        tree = BlockCutTree(g)
        for root in range(len(tree.blocks)):
            walk = tree.walk(root)
            # the sum drawer's failure digest pins this order
            assert walk == walk_reference(tree, root)
            assert sorted(b for b, _ in walk) == list(range(len(tree.blocks)))
            assert walk[-1] == (root, None)
            at = {b: i for i, (b, _) in enumerate(walk)}
            top = set(tree.blocks[root].vertices)
            for bid, parent in walk[:-1]:
                seen = subtree(g, tree, walk, "B", bid)
                # the parent cut is the block's vertex that parts it from
                # the root, so the next block toward the root holds it too
                assert parent in tree.blocks[bid].vertices
                assert seen & top <= {parent}
                for b in range(len(tree.blocks)):
                    if b != bid and set(tree.blocks[b].vertices) <= seen:
                        assert at[b] < at[bid]
        e = min(range(g.m), key=lambda e: (-g.weight(e), e), default=None)
        root = build_bc_tree(g)[-1][0]
        assert e is None or e in tree.blocks[root].edge_ids


def test_is_connected():
    assert is_connected(graph_from([("a", "b", 1)]))
    assert not is_connected(graph_from([("a", "b", 1), ("c", "d", 1)]))
