"""Exact-area and augmented 2-D constructions, plus the serializer."""

import importlib
import json
import os
import tracemalloc
from collections import Counter
from fractions import Fraction

import pytest

from bookembed import cli, twodim
from bookembed.embedding import BookEmbedding
from bookembed.errors import GraphFormatError, PreconditionError
from bookembed.graph import BlockCutTree, WeightedGraph, serialize_graph
from bookembed.minres import minres_be_drawer
from bookembed.oracle import random_outerplanar
from bookembed.outerplanar import nesting_forest, outerplane_embedding, span
from bookembed.twodim import (
    TwoDimEmbedding,
    check_twodim,
    default_box_width,
    minres_construct,
    one_page_order,
    twodim_biconnected,
    twodim_general,
)

from conftest import MALFORMED_2D, coprime, fractional, graph_from, small_corpus

PERFBENCH = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                         "perfbench")


def test_k2_box():
    g = graph_from([("a", "b", 6)])
    t = twodim_biconnected(g, "a", "b", 2, 3)
    assert t.rects[0] == (0, 2, 0, 3)
    assert check_twodim(g, t, exact_box=(2, 3)) == []
    with pytest.raises(TypeError):  # the Fraction views are read-only
        t.rects[0] = (0, 1, 0, 6)


def test_triangle_slabs():
    g = graph_from([("a", "b", 1), ("b", "c", 1), ("a", "c", 1)])
    t = twodim_biconnected(g, "a", "c", 1, 3)
    top = g.edge_between(0, 2)
    assert t.rects[top] == (0, 1, 2, 3)
    lows = sorted(t.rects[e] for e in range(3) if e != top)
    assert lows == [
        (0, Fraction(1, 2), 0, 2),
        (Fraction(1, 2), 1, 0, 2),
    ]
    assert check_twodim(g, t, exact_box=(1, 3)) == []


def test_biconnected_preconditions():
    g = graph_from([("a", "b", 6)])
    with pytest.raises(PreconditionError):
        twodim_biconnected(g, "a", "b", 2, 2)  # area mismatch
    sq = graph_from(
        [("a", "b", 1), ("b", "c", 1), ("c", "d", 1), ("d", "a", 1)]
    )
    with pytest.raises(PreconditionError):
        twodim_biconnected(sq, "a", "c", 2, 2)  # (a, c) not an edge


def test_exact_area_random():
    for seed in range(60):
        g = random_outerplanar(3 + seed % 20, (1, 30), seed=seed, biconnected=True)
        s, t = outerplane_embedding(g)[:2]
        total = g.total_weight()
        length = default_box_width(total)
        height = total / length
        drawing = twodim_biconnected(g, s, t, length, height)
        assert check_twodim(g, drawing, exact_box=(length, height)) == []
        # no holes: the rectangles tile the box exactly
        assert sum(
            ((r[1] - r[0]) * (r[3] - r[2]) for r in drawing.rects.values()),
            Fraction(0),
        ) == total


def test_general_equal_triangle():
    g = graph_from([("a", "b", 1), ("b", "c", 1), ("a", "c", 1)])
    t = twodim_general(g, eps=1)
    assert t.area() <= 4
    assert check_twodim(g, t) == []


def test_general_biconnected_is_exact():
    g = graph_from([("a", "b", 2), ("b", "c", 3), ("a", "c", 4)])
    t = twodim_general(g, eps=1)
    assert t.area() == 9  # no dummies needed
    assert check_twodim(g, t) == []


def test_general_two_k2s():
    g = graph_from([("a", "b", 2), ("c", "d", 3)])
    t = twodim_general(g, eps=1)
    assert check_twodim(g, t) == []
    assert t.area() <= 6
    # no vertex of one component lies under the other's edge
    pos = t.support.position
    for eid, (u, v, _) in enumerate(g.edges):
        a, b = sorted((pos[u], pos[v]))
        assert b - a == 1


def test_general_disconnected_and_isolated():
    g = graph_from([("a", "b", 5)], vertices=["z", "w"])
    t = twodim_general(g, eps=Fraction(1, 2))
    assert check_twodim(g, t) == []
    assert t.area() <= Fraction(11, 2)
    xs = [t.x[v] for v in t.support.order]
    assert all(x < y for x, y in zip(xs, xs[1:]))


def test_general_eps_bound_random():
    for seed in range(60):
        g = random_outerplanar(2 + seed % 16, (1, 9), seed=seed * 13 + 5)
        t = twodim_general(g, eps=1)
        assert t.area() <= g.total_weight() + 1
        assert check_twodim(g, t) == []


def test_minres_construct_examples():
    k2 = graph_from([("a", "b", 1)])
    t = minres_construct(k2, minres_be_drawer(k2))
    assert t.rects[0] == (1, 2, 0, 1)
    t211 = graph_from([("a", "b", 2), ("b", "c", 1), ("a", "c", 1)])
    out = minres_be_drawer(t211)
    t = minres_construct(t211, out)
    assert check_twodim(t211, t, require_minres=True) == []
    widths = sorted(r[1] - r[0] for r in t.rects.values())
    heights = sorted(r[3] - r[2] for r in t.rects.values())
    assert widths == [1, 1, 2] and heights == [Fraction(1), 1, 1]


def test_minres_construct_rejects_non_supporting():
    t111 = graph_from([("a", "b", 1), ("b", "c", 1), ("a", "c", 1)])
    with pytest.raises(PreconditionError):
        minres_construct(t111, BookEmbedding((0, 1, 2)))


def _box_triangle():
    # a=0, b=1/2, c=1; the top edge a-c (id 2) sits on the two lower ones
    g = graph_from([("a", "b", 1), ("b", "c", 1), ("a", "c", 1)])
    return g, twodim_biconnected(g, "a", "c", 1, 3), {"exact_box": (1, 3)}


def _unit_triangle():
    # order a, c, b at x = 1, 2, 3; edge a-b (id 0, weight 2) over the others
    g = graph_from([("a", "b", 2), ("b", "c", 1), ("a", "c", 1)])
    return g, minres_construct(g, minres_be_drawer(g)), {"require_minres": True}


def _two_edges():
    # a-c (id 0) and b-d (id 1) side by side over the order a, c, b, d
    g = graph_from([("a", "c", 2), ("b", "d", 2)])
    x = {v: Fraction(v) for v in range(4)}
    rects = {0: (0, 1, 0, 2), 1: (2, 3, 0, 2)}
    return g, TwoDimEmbedding(BookEmbedding((0, 1, 2, 3)), x, rects), {}


def _changed(t, support=None, x=(), rects=()):
    """A copy of drawing ``t`` with ``support`` as its order and the given
    ``x`` and ``rects`` entries replaced; an entry given as None is
    dropped."""
    x, rects = {**t.x, **dict(x)}, {**t.rects, **dict(rects)}
    return TwoDimEmbedding(support or t.support,
                           {v: c for v, c in x.items() if c is not None},
                           {eid: r for eid, r in rects.items() if r is not None})


def _cross(t):
    # the order a, b, c, d with every rectangle at its endpoints and of its
    # weight's area, b-d on top of a-c: only the crossing is wrong
    return _changed(t, BookEmbedding((0, 2, 1, 3)), x={2: Fraction(1), 1: Fraction(2)},
                    rects={0: (0, 2, 0, 1), 1: (1, 3, 1, 2)})


# one defective copy of a correct drawing per message check_twodim reports
_DEFECTS = {
    "support order is not a permutation":
        (_box_triangle, lambda t: _changed(t, BookEmbedding((0, 0, 1)))),
    "x not strictly increasing at b": (_box_triangle, lambda t: _changed(t, x={1: Fraction(0)})),
    "edge 1 has no rectangle": (_box_triangle, lambda t: _changed(t, rects={1: None})),
    "edge 0: rectangle ends differ from endpoint x":
        (_box_triangle, lambda t: _changed(t, x={1: Fraction(1, 4)})),
    "edge 0: degenerate rectangle":
        (_box_triangle, lambda t: _changed(t, rects={0: (0, Fraction(1, 2), 2, 2)})),
    "edge 2: area is not exactly the weight":
        (_box_triangle, lambda t: _changed(t, rects={2: (0, 1, 2, 4)})),
    "edge 2: width below 1":
        (_unit_triangle, lambda t: _changed(t, rects={2: (1, Fraction(3, 2), 0, 2)})),
    "edge 0: height below 1":
        (_unit_triangle, lambda t: _changed(t, rects={0: (1, 3, 1, Fraction(3, 2))})),
    "vertex spacing below 1": (_unit_triangle, lambda t: _changed(t, x={1: Fraction(5, 2)})),
    "edge 2: bottom does not meet the nested tops":
        (_box_triangle,
         lambda t: _changed(t, rects={2: (0, 1, Fraction(5, 2), Fraction(7, 2))})),
    "edges 0 and 1 cross": (_two_edges, _cross),
    "bounding box differs from the requested box":
        (_box_triangle, lambda t: _changed(t, rects={2: (0, 1, 2, 4)})),
    "holes: rectangle areas do not fill the box":
        (_box_triangle, lambda t: _changed(t, rects={1: None})),
    "vertex c has no x-coordinate": (_box_triangle, lambda t: _changed(t, x={2: None})),
    "x-coordinate for unknown vertex 3":
        (_box_triangle, lambda t: _changed(t, x={3: Fraction(2)})),
    "rectangle for unknown edge 9":
        (_box_triangle, lambda t: _changed(t, rects={9: (0, 1, 3, 4)})),
}


@pytest.mark.parametrize("message", _DEFECTS)
def test_check_twodim_reports_each_defect(message):
    build, mutate = _DEFECTS[message]
    g, drawing, options = build()
    assert check_twodim(g, drawing, **options) == []
    drawing = mutate(drawing)
    assert message in check_twodim(g, drawing, **options)
    assert bool(check_twodim(g, drawing)) == bool(_pairwise_problems(g, drawing))


def test_check_twodim_rejects_a_foreign_order_before_placing_it():
    # the support's position list is as long as its largest id + 1
    g = graph_from([("a", "b", 1)])
    far = 10**7
    drawing = TwoDimEmbedding(BookEmbedding((0, far)), {0: 0, far: 1}, {0: (0, 1, 0, 1)})
    tracemalloc.start()
    assert check_twodim(g, drawing) == ["support order is not a permutation"]
    peak = tracemalloc.get_traced_memory()[1]
    tracemalloc.stop()
    assert peak < 1_000_000, peak


# mutations whose messages only the pairwise definition gives
_PAIRWISE_DEFECTS = {
    "edges 0 and 2: rectangles overlap":
        (_box_triangle, lambda t: _changed(t, rects={2: (0, 1, 1, 2)})),
    "edge 2: connector at x=0 pierces edge 0":
        (_box_triangle,
         lambda t: _changed(t, rects={0: (Fraction(-1, 2), Fraction(1, 2), 0, 2)})),
}


@pytest.mark.parametrize("message", _PAIRWISE_DEFECTS)
def test_pairwise_defects_are_rejected(message):
    build, mutate = _PAIRWISE_DEFECTS[message]
    g, drawing, options = build()
    assert check_twodim(g, drawing, **options) == [] == _pairwise_problems(g, drawing)
    drawing = mutate(drawing)
    assert message in _pairwise_problems(g, drawing)
    assert check_twodim(g, drawing) and check_twodim(g, drawing, **options)


# -- the forest audit against the pairwise definition --------------------


def _pairwise_problems(g, emb):
    """The definitional audit compared pair by pair, in O(m^2): each bottom
    meets the largest top nested under it, no two rectangles overlap, and no
    connector pierces a rectangle, besides the per-edge checks."""
    problems = []
    order = emb.support.order
    pos = emb.support.position
    if sorted(order) != list(range(g.n)):
        return ["support order is not a permutation"]
    rect = emb.rects
    problems += [f"x-coordinate for unknown vertex {v}" for v in emb.x if v not in order]
    problems += [f"rectangle for unknown edge {e}" for e in rect if not 0 <= e < g.m]
    if any(v not in emb.x for v in order):
        return problems + [f"vertex {g.labels[v]} has no x-coordinate"
                           for v in order if v not in emb.x]
    for a, b in zip(order, order[1:]):
        if not emb.x[a] < emb.x[b]:
            problems.append(f"x not strictly increasing at {g.labels[b]}")
    norm = [span(pos, u, v) for u, v in g.ends]
    for eid, w in enumerate(g.weights):
        if eid not in rect:
            problems.append(f"edge {eid} has no rectangle")
            continue
        xmin, xmax, ymin, ymax = rect[eid]
        a, b = norm[eid]
        if xmin != emb.x[order[a]] or xmax != emb.x[order[b]]:
            problems.append(f"edge {eid}: rectangle ends differ from endpoint x")
        if ymin < 0 or xmax <= xmin or ymax <= ymin:
            problems.append(f"edge {eid}: degenerate rectangle")
            continue
        if (xmax - xmin) * (ymax - ymin) != w:
            problems.append(f"edge {eid}: area is not exactly the weight")
    for i in range(g.m):
        if i not in rect:
            continue
        nested_tops = [
            rect[j][3]
            for j in range(g.m)
            if j != i and j in rect
            and norm[i][0] <= norm[j][0] and norm[j][1] <= norm[i][1]
        ]
        if rect[i][2] != max(nested_tops, default=Fraction(0)):
            problems.append(f"edge {i}: bottom does not meet the nested tops")
    items = sorted(rect.items())
    for idx, (i, (ax0, ax1, ay0, ay1)) in enumerate(items):
        for j, (bx0, bx1, by0, by1) in items[idx + 1:]:
            if ax0 < bx1 and bx0 < ax1 and ay0 < by1 and by0 < ay1:
                problems.append(f"edges {i} and {j}: rectangles overlap")
    # a connector runs from a rectangle's lower corner straight down to the
    # baseline; it must stay clear of every open rectangle
    for i, (x0, x1, y0, _y1) in rect.items():
        for j, (bx0, bx1, by0, by1) in rect.items():
            for xs in (x0, x1):
                if i != j and bx0 < xs < bx1 and by0 < y0 and by1 > 0:
                    problems.append(f"edge {i}: connector at x={xs} pierces edge {j}")
    return problems


def _mutated(emb):
    """Copies of ``emb`` broken in one way each: every rectangle lifted by 1,
    lowered by 1/2, its top grown by 1/3 or its left end moved by -1/2;
    every vertex x moved by 1/7; every adjacent pair of the support order
    swapped, with the x-coordinates kept in place, which makes crossings."""
    def copy(x=emb.x, rects=emb.rects, support=emb.support):
        return TwoDimEmbedding(support, x, rects)

    for eid, (x0, x1, y0, y1) in emb.rects.items():
        for rect in ((x0, x1, y0 + 1, y1 + 1),
                     (x0, x1, y0 - Fraction(1, 2), y1 - Fraction(1, 2)),
                     (x0, x1, y0, y1 + Fraction(1, 3)),
                     (x0 - Fraction(1, 2), x1, y0, y1)):
            yield copy(rects={**emb.rects, eid: rect})
    for v in emb.x:
        yield copy(x={**emb.x, v: emb.x[v] + Fraction(1, 7)})
    order = emb.support.order
    for i in range(len(order) - 1):
        swapped = list(order)
        swapped[i], swapped[i + 1] = order[i + 1], order[i]
        x = {**emb.x, swapped[i]: emb.x[order[i]], swapped[i + 1]: emb.x[order[i + 1]]}
        yield copy(x=x, support=BookEmbedding(swapped))


def test_forest_audit_agrees_with_the_pairwise_definition():
    graphs = [
        random_outerplanar(n, (1, 9), seed=seed, biconnected=biconnected)
        for n in range(2, 11) for biconnected in (False, True) for seed in range(3)
    ]
    drawings = []
    for g in graphs:
        drawings.append((g, twodim_general(g, eps=Fraction(1, 2))))
        order = minres_be_drawer(g)
        if isinstance(order, BookEmbedding):
            drawings.append((g, minres_construct(g, order)))
    verdicts = Counter()
    for g, emb in drawings:
        assert check_twodim(g, emb) == []
        for drawing in (emb, *_mutated(emb)):
            found = check_twodim(g, drawing)
            assert bool(found) == bool(_pairwise_problems(g, drawing)), found
            verdicts[bool(found)] += 1
    assert verdicts[False] >= len(drawings) and verdicts[True] > 0
    assert sum(verdicts.values()) > 3000


def test_serialization_round_trip():
    g = graph_from([("a", "b", 2), ("b", "c", 3), ("a", "c", 4)])
    t = twodim_general(g, eps=1)
    g2, t2 = TwoDimEmbedding.from_json(t.to_json(g))
    assert g2.total_weight() == g.total_weight()
    assert t2.rects == t.rects
    assert [g2.labels[v] for v in t2.support.order] == [
        g.labels[v] for v in t.support.order
    ]


@pytest.mark.parametrize("text", MALFORMED_2D.values(), ids=MALFORMED_2D.keys())
def test_from_json_rejects_malformed_documents(text):
    with pytest.raises(GraphFormatError):
        TwoDimEmbedding.from_json(text)


def test_one_page_order_always_works():
    from bookembed.embedding import BookEmbedding, is_one_page

    for seed in range(80):
        g = random_outerplanar(1 + seed % 9, (1, 5), seed=seed)
        order = one_page_order(g)
        assert is_one_page(g, BookEmbedding(order))


# -- the integer build against a per-operation Fraction reference --------


def _reference_draw_region(order, spans, nums, den, length):
    """Reference drawing with one Fraction operation per step: an edge takes
    w / width off the top of its region, and a child's width is its
    subtree total / the height left.  Coordinates are Fractions."""
    _walk, children, roots = nesting_forest(len(order), spans)
    weights = [Fraction(p, den) for p in nums]
    subtree = [None] * len(spans)
    post = []
    stack = list(roots)
    while stack:
        i = stack.pop()
        post.append(i)
        stack.extend(children[i])
    for i in reversed(post):
        total = weights[i]
        for k in children[i]:
            total += subtree[k]
        subtree[i] = total

    length = Fraction(*length)
    vx = {order[0]: Fraction(0), order[-1]: length}
    rects = {}
    frames = [(roots[0], Fraction(0), length, subtree[roots[0]] / length)]
    while frames:
        i, x_lo, x_hi, h_region = frames.pop()
        width = x_hi - x_lo
        kids = children[i]
        if not kids:
            rects[i] = (x_lo, x_hi, Fraction(0), h_region)
            continue
        h_top = weights[i] / width
        rects[i] = (x_lo, x_hi, h_region - h_top, h_region)
        h_rest = h_region - h_top
        cursor = x_lo
        for idx, k in enumerate(kids):
            if idx + 1 < len(kids):
                nxt = cursor + subtree[k] / h_rest
                vx[order[spans[k][1]]] = nxt
            else:
                nxt = x_hi
            frames.append((k, cursor, nxt, h_rest))
            cursor = nxt
    return vx, rects


def _reference_json(g, emb):
    return json.dumps({
        "vertices": [
            {"id": g.labels[v], "x": str(emb.x[v])} for v in emb.support.order
        ],
        "edges": [
            {"u": g.labels[u], "v": g.labels[v], "w": str(w),
             "rect": [str(c) for c in emb.rects[eid]]}
            for eid, (u, v, w) in enumerate(g.edges)
        ],
    })


def _reference_pairs(*args):
    """:func:`_reference_draw_region` with its Fractions as the ``(p, q)``
    pairs that ``_draw_region`` returns."""
    vx, rects = _reference_draw_region(*args)
    pair = {id(c): (c.numerator, c.denominator)
            for c in (*vx.values(), *(c for rect in rects.values() for c in rect))}
    return ({v: pair[id(c)] for v, c in vx.items()},
            {eid: tuple(pair[id(c)] for c in rect) for eid, rect in rects.items()})


def _both_ways(monkeypatch, build):
    """``build()``, and the same build drawn by the reference."""
    emb = build()
    with monkeypatch.context() as patch:
        patch.setattr(twodim, "_draw_region", _reference_pairs)
        return emb, build()


ESCAPED_LABELS = ["é", 'b"q', "a\\b", "\n"]


def _relabeled(g, labels):
    names = labels + [f"v{i}" for i in range(len(labels), g.n)]
    return WeightedGraph(names[: g.n], g.edges)


@pytest.mark.parametrize("weights", [lambda g: g, fractional, coprime],
                         ids=["integer", "fractional", "coprime"])
def test_integer_build_is_byte_identical_to_the_fraction_reference(
    monkeypatch, weights
):
    base = small_corpus(45, max_n=14, seed0=300)
    base += [_relabeled(g, ESCAPED_LABELS) for g in base[:15] if g.n >= 4]
    graphs = [weights(g) for g in base]
    checked = 0
    for g in graphs:
        for eps, length in ((1, None), (Fraction(1, 3), None), (1, Fraction(7, 3))):
            emb, ref = _both_ways(
                monkeypatch, lambda: twodim_general(g, eps=eps, length=length))
            text = emb.to_json(g)
            assert text == _reference_json(g, ref) == _reference_json(g, emb)
            g2, emb2 = TwoDimEmbedding.from_json(text)
            assert list(g2.labels) == [g.labels[v] for v in emb.support.order]
            assert list(emb2.rects.values()) == [emb.rects[e] for e in range(g.m)]
            checked += 1
        if g.m and len(BlockCutTree(g).blocks) == 1:
            cycle = outerplane_embedding(g)
            total = g.total_weight()
            for s, t in (cycle[:2], cycle[1::-1]):
                emb, ref = _both_ways(
                    monkeypatch,
                    lambda: twodim_biconnected(g, s, t, Fraction(5, 2), total / Fraction(5, 2)))
                assert emb.to_json(g) == _reference_json(g, ref)
                checked += 1
    assert checked > 180


def test_draw_region_does_no_fraction_arithmetic(monkeypatch, tmp_path):
    monkeypatch.syspath_prepend(PERFBENCH)
    planted = importlib.import_module("planted")
    g = planted.planted_yes(120, "sum", seed=4, biconnected=False).graph
    calls = []
    for name in ("__add__", "__radd__", "__sub__", "__rsub__",
                 "__mul__", "__rmul__", "__truediv__", "__rtruediv__"):
        original = getattr(Fraction, name)

        def counted(*args, _original=original, _name=name):
            calls.append(_name)
            return _original(*args)

        monkeypatch.setattr(Fraction, name, counted)
    drawn = []
    draw = twodim._draw_region

    def watched(*args):
        before = len(calls)
        result = draw(*args)
        drawn.append(len(calls) - before)
        return result

    monkeypatch.setattr(twodim, "_draw_region", watched)
    emb = twodim_general(g, eps=Fraction(1, 3))
    assert drawn == [0]
    monkeypatch.undo()
    assert check_twodim(g, emb) == []

    # and an embed-2d call builds as many Fractions at n = 240 as at 60:
    # every coordinate stays a pair of ints from the drawing to the JSON
    made = Counter()
    new = Fraction.__new__

    def counted(cls, *args, **kwargs):
        made[n] += 1
        return new(cls, *args, **kwargs)

    out = tmp_path / "drawing.json"
    for n in (60, 240):
        parts = [planted.planted_no(n // 3, cls, s, s % 3 == 2, check=False)
                 for s, cls in enumerate(planted.CLASSES)]
        path = tmp_path / f"g{n}.json"
        path.write_text(serialize_graph(planted.disjoint_union(parts).graph))
        with monkeypatch.context() as patch:
            patch.setattr(Fraction, "__new__", staticmethod(counted))
            assert cli.main(["embed-2d", str(path), "--output", str(out)]) == 0
    assert made[60] == made[240] < 20, made

    # so does the unit-resolution drawing of embed-2d --minres
    made.clear()
    for n in (60, 240):
        parts = [planted.planted_yes(n // 3, "minres", s, s % 3 == 2) for s in range(3)]
        path = tmp_path / f"minres{n}.json"
        path.write_text(serialize_graph(planted.disjoint_union(parts).graph))
        with monkeypatch.context() as patch:
            patch.setattr(Fraction, "__new__", staticmethod(counted))
            assert cli.main(["embed-2d", "--minres", str(path), "--output", str(out)]) == 0
    assert made[60] < 20 and made[240] < 20, made
