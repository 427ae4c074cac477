"""Exact O(m log m) audit of an ``embed-2d`` JSON document.

``twodim.check_twodim`` compares every pair of rectangles, which is too slow
for drawings with thousands of edges.  This audit checks, over the nesting
forest of the support order:

1. the vertices are the graph's, with x strictly increasing in support order;
2. every edge is the graph's edge with its exact weight, and no two cross;
3. every rectangle's x-ends equal its endpoints' x;
4. every rectangle's area equals its weight;
5. every rectangle's bottom equals the largest top among its children
   (0 for a leaf).

These imply the pairwise conditions of ``check_twodim``.  By (1) and (3), a
rectangle spans a positive width, and by (4) a positive height, so by (5)
every top exceeds every top nested under it.  Two non-nested edges have
x-ranges that meet at most at an end, and a nested rectangle lies below its
ancestor's bottom, so no two rectangles overlap.  A connector drops from a
vertex x; a rectangle whose x-range holds that x in its interior wraps the
connector's edge, so its bottom is at least that edge's top.
"""

from __future__ import annotations

import json
from fractions import Fraction

from bookembed.errors import NotOnePageError
from bookembed.outerplanar import nesting_forest


def audit_twodim(g, text):
    """Problems found in the ``embed-2d`` output ``text`` for graph ``g``
    (an empty list when the drawing is exact)."""
    doc = json.loads(text)
    vertices = doc["vertices"]
    labels = [entry["id"] for entry in vertices]
    if sorted(labels) != sorted(g.labels):
        return ["vertex set differs from the graph's"]
    position = {label: i for i, label in enumerate(labels)}
    xs = [Fraction(entry["x"]) for entry in vertices]
    problems = [
        f"x not strictly increasing at {labels[i + 1]}"
        for i in range(len(xs) - 1)
        if not xs[i] < xs[i + 1]
    ]
    edges = doc["edges"]
    if len(edges) != g.m:
        return problems + [f"{len(edges)} rectangles for {g.m} edges"]
    spans = []
    rects = []
    for eid, (entry, (u, v, w)) in enumerate(zip(edges, g.edges)):
        if {entry["u"], entry["v"]} != {g.labels[u], g.labels[v]}:
            return problems + [f"edge {eid}: endpoints differ from the graph's"]
        if Fraction(entry["w"]) != w:
            problems.append(f"edge {eid}: weight differs from the graph's")
        x0, x1, y0, y1 = (Fraction(c) for c in entry["rect"])
        a, b = sorted((position[entry["u"]], position[entry["v"]]))
        if x0 != xs[a] or x1 != xs[b]:
            problems.append(f"edge {eid}: rectangle ends differ from endpoint x")
        if (x1 - x0) * (y1 - y0) != w:
            problems.append(f"edge {eid}: area is not exactly the weight")
        spans.append((a, b, eid))
        rects.append((y0, y1))
    try:
        _parent, children, _roots = nesting_forest(len(labels), spans)
    except NotOnePageError as exc:
        return problems + [f"edges cross: {exc}"]
    for i, kids in enumerate(children):
        floor = max((rects[k][1] for k in kids), default=Fraction(0))
        if rects[i][0] != floor:
            problems.append(f"edge {i}: bottom does not meet the children's tops")
    return problems


def max_denominator_bits(text):
    """Bit length of the largest denominator among the document's rationals."""
    doc = json.loads(text)
    values = [entry["x"] for entry in doc["vertices"]]
    for entry in doc["edges"]:
        values.extend(entry["rect"])
    return max((Fraction(v).denominator.bit_length() for v in values), default=0)
