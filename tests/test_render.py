"""SVG output: determinism, structure, float-boundary accuracy."""

from fractions import Fraction

from bookembed.embedding import BookEmbedding
from bookembed.exact import format_ratio
from bookembed.graph import WeightedGraph
from bookembed.maxdraw import embed_max
from bookembed.render import RenderSpec, render_arcs, render_rects
from bookembed.twodim import TwoDimEmbedding, twodim_biconnected, twodim_general

from conftest import graph_from


def test_arc_k2():
    g = graph_from([("a", "b", 1)])
    svg = render_arcs(g, BookEmbedding((0, 1)))
    assert svg.count("<path") == 1
    assert svg.count("<circle") == 2
    assert svg.startswith("<?xml")


def test_arc_triangle_geometry():
    g = graph_from([("a", "b", 1), ("b", "c", 1), ("a", "c", 1)])
    svg = render_arcs(g, BookEmbedding((0, 1, 2)))
    # the (a, c) arc has twice the radius of the inner two
    assert 'A 40.000000 40.000000' in svg
    assert 'A 20.000000 20.000000' in svg


def test_arc_determinism():
    g = graph_from([("a", "b", 2), ("b", "c", 5), ("a", "c", 9)])
    L = BookEmbedding((0, 1, 2))
    assert render_arcs(g, L) == render_arcs(g, L)


def test_rect_pixel_areas():
    g = graph_from([("a", "b", 2), ("b", "c", 3), ("a", "c", 4)])
    t = twodim_general(g, eps=1)
    spec = RenderSpec(style="rect", scale=17.0)
    svg = render_rects(g, t, spec)
    import re

    boxes = re.findall(r'<rect x="[^"]+" y="[^"]+" width="([^"]+)" height="([^"]+)"', svg)
    assert len(boxes) == 3
    # the float pipeline (the only float boundary) is accurate to 1e-9 ...
    pixel = sorted(
        (float(r[1] - r[0]) * spec.scale) * (float(r[3] - r[2]) * spec.scale)
        for r in t.rects.values()
    )
    for got, want in zip(pixel, [2.0, 3.0, 4.0]):
        assert abs(got / spec.scale**2 - want) < 1e-9
    # ... and the serialized attributes agree with it at 6-decimal precision
    parsed = sorted(float(w) * float(h) / spec.scale**2 for w, h in boxes)
    for got, want in zip(parsed, [2.0, 3.0, 4.0]):
        assert abs(got - want) < 5e-6


def test_rect_triangle_tiling():
    g = graph_from([("a", "b", 1), ("b", "c", 1), ("a", "c", 1)])
    t = twodim_biconnected(g, "a", "c", 1, 3)
    svg = render_rects(g, t, RenderSpec(style="rect", scale=1.0))
    assert svg.count("<rect") == 3


def test_rect_determinism_and_disk():
    g = graph_from([("a", "b", 2), ("b", "c", 3), ("a", "c", 4)])
    t = twodim_general(g, eps=1)
    spec = RenderSpec(style="disk")
    a = render_rects(g, t, spec)
    b = render_rects(g, t, spec)
    assert a == b
    assert a.count("<circle") >= g.n + 1  # vertex dots plus the disk frame
    rect_svg = render_rects(g, t, RenderSpec(style="rect"))
    assert rect_svg.count("<rect") == a.count("<rect")


def test_weight_labels_flag():
    g = graph_from([("a", "b", 7)])
    svg = render_arcs(g, BookEmbedding((0, 1)), RenderSpec(weight_labels=True))
    assert ">7<" in svg


def test_weight_labels_past_the_int_to_str_digit_limit():
    # 5000 digits, past the limit of str(int); the labels are written whole
    p = 10**5000 + 1
    g = WeightedGraph(["a", "b"], [(0, 1, Fraction(p, 3))])
    label = f">{format_ratio(p, 3)}<"
    svg = render_arcs(g, embed_max(g), RenderSpec(weight_labels=True))
    assert label in svg
    # the rectangle is drawn small, as the renderer takes it
    drawing = TwoDimEmbedding(BookEmbedding((0, 1)), {0: 0, 1: 1}, {0: (0, 1, 0, 1)})
    svg = render_rects(g, drawing, RenderSpec(style="rect", weight_labels=True))
    assert label in svg
