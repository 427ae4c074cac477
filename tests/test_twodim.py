"""Exact-area and augmented 2-D constructions, plus the serializer."""

from fractions import Fraction

import pytest

from bookembed.errors import GraphFormatError, PreconditionError
from bookembed.minres import minres_be_drawer
from bookembed.oracle import random_outerplanar
from bookembed.outerplanar import outerplane_embedding
from bookembed.twodim import (
    TwoDimEmbedding,
    check_twodim,
    default_box_width,
    minres_construct,
    one_page_order,
    twodim_biconnected,
    twodim_general,
)

from conftest import MALFORMED_2D, graph_from


def test_k2_box():
    g = graph_from([("a", "b", 6)])
    t = twodim_biconnected(g, "a", "b", 2, 3)
    assert t.rects[0] == (0, 2, 0, 3)
    assert check_twodim(g, t, exact_box=(2, 3)) == []


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
    from bookembed.embedding import BookEmbedding

    with pytest.raises(PreconditionError):
        minres_construct(t111, BookEmbedding((0, 1, 2)))


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
