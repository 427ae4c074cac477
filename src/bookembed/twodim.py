"""Two-dimensional book-embeddings: edges drawn as stacked axis-parallel
rectangles of exactly their weight's area over a vertex baseline.

Three constructions: exact-area boxes for biconnected graphs, the
epsilon-augmented construction for arbitrary outerplanar graphs (dummy edges
added, drawn, then deleted), and the unit-resolution construction from a
supporting 1-page embedding.
"""

from __future__ import annotations

import json
import math
from fractions import Fraction

from . import seq
from .embedding import BookEmbedding, _forest_or_raise, validate_minres_supporting
from .errors import GraphFormatError, NotOnePageError, NotOuterplanarError, PreconditionError
from .exact import format_ratio, format_rational, parse_rational, read_digits
from .graph import WeightedGraph, _coerce_label, _over_lcm, component, components
from .outerplanar import _whole_graph_cycle, block_outer_cycle, nesting_forest, span


class TwoDimEmbedding:
    """Vertex x-coordinates plus one rectangle per edge, all exact rationals."""

    __slots__ = ("support", "x", "rects")

    def __init__(self, support, x, rects):
        self.support = support
        self.x = dict(x)
        self.rects = dict(rects)

    def bounding_box(self):
        """(width, height) of the smallest box enclosing the rectangles."""
        if not self.rects:
            return Fraction(0), Fraction(0)
        xmin = min(r[0] for r in self.rects.values())
        xmax = max(r[1] for r in self.rects.values())
        ymin = min(r[2] for r in self.rects.values())
        ymax = max(r[3] for r in self.rects.values())
        return xmax - xmin, ymax - ymin

    def area(self):
        w, h = self.bounding_box()
        return w * h

    def to_json(self, g):
        """The document ``{"vertices": [{"id", "x"}], "edges": [{"u", "v",
        "w", "rect"}]}`` as the text ``json.dumps`` gives; each coordinate
        object is formatted once."""
        text = {}  # by id: every value formatted is held by self or g meanwhile

        def quoted(value):
            out = text.get(id(value))
            if out is None:
                out = text[id(value)] = f'"{format_rational(value)}"'
            return out

        labels = [json.dumps(label) for label in g.labels]
        vertices = ", ".join(
            f'{{"id": {labels[v]}, "x": {quoted(self.x[v])}}}' for v in self.support.order
        )
        edges = ", ".join(
            f'{{"u": {labels[u]}, "v": {labels[v]}, "w": "{format_ratio(p, q)}", "rect": '
            f'[{", ".join(map(quoted, self.rects[eid]))}]}}'
            for eid, ((u, v), p, q) in enumerate(zip(g.ends, *g.ratios()))
        )
        return f'{{"vertices": [{vertices}], "edges": [{edges}]}}'

    @staticmethod
    def from_json(text):
        """Parse the serialized form; returns ``(graph, embedding)``.

        Raises :class:`GraphFormatError` when a member is missing, has the
        wrong type or names an unknown vertex, a number is not a rational
        string, or a rectangle does not have four coordinates.
        """
        # read as graph documents are: any length, ids as the labels they name
        doc = json.loads(text, parse_int=read_digits)
        try:
            labels = [
                _coerce_label(entry["id"], f"vertices[{i}]")
                for i, entry in enumerate(doc["vertices"])
            ]
            index = {lab: i for i, lab in enumerate(labels)}
            g = WeightedGraph(
                labels,
                [
                    (
                        index[_coerce_label(entry["u"], f"edges[{eid}]")],
                        index[_coerce_label(entry["v"], f"edges[{eid}]")],
                        parse_rational(entry["w"]),
                    )
                    for eid, entry in enumerate(doc["edges"])
                ],
            )
            x = {i: parse_rational(entry["x"]) for i, entry in enumerate(doc["vertices"])}
            rects = {}
            for eid, entry in enumerate(doc["edges"]):
                rects[eid] = tuple(parse_rational(c) for c in entry["rect"])
                if len(rects[eid]) != 4:
                    raise GraphFormatError(f"edges[{eid}]: rect needs four coordinates")
        except (KeyError, TypeError, ValueError) as exc:
            raise GraphFormatError(
                f"malformed 2-D embedding document ({type(exc).__name__}: {exc})"
            ) from None
        order = list(range(g.n))  # vertices are serialized in support order
        return g, TwoDimEmbedding(BookEmbedding(order), x, rects)


def _draw_region(order, ends, nums, den, length):
    """Exact-area drawing of a biconnected structure given its forced order,
    in a box of width ``length`` whose area is the weight total.

    Edge i joins ``ends[i]`` and weighs ``nums[i] / den``; the nesting
    forest must have a single root (the edge joining the order's
    endpoints).  Returns (vx, rects by edge index).

    A region of width W whose subtree weighs S (in units of 1/den) is
    S/(den·W) tall; its edge takes the top and leaves C/(den·W) to the
    children, C being their total, and child k gets the width W·S_k/C.
    Widths and the running junction are reduced (num, den) pairs of ints;
    each new coordinate is one Fraction, shared by ``vx`` and the rectangles.
    """
    pos = {v: i for i, v in enumerate(order)}
    spans = [span(pos, u, v) + (i,) for i, (u, v) in enumerate(ends)]
    _parent, children, roots = nesting_forest(len(order), spans)
    assert len(roots) == 1, "top edge must wrap every other edge"
    subtree = list(nums)
    rest = [0] * len(ends)  # C: the children's total
    post = []
    stack = list(roots)
    while stack:
        i = stack.pop()
        post.append(i)
        stack.extend(children[i])
    for i in reversed(post):
        for k in children[i]:
            rest[i] += subtree[k]
        subtree[i] += rest[i]

    gcd = math.gcd
    zero = Fraction(0)
    length = Fraction(length)
    ln, ld = length.numerator, length.denominator
    vx = {order[0]: zero, order[-1]: length}
    rects = {}
    frames = [(roots[0], zero, length, ln, ld, Fraction(subtree[roots[0]] * ld, den * ln))]
    while frames:
        i, x_lo, x_hi, wn, wd, top = frames.pop()
        kids = children[i]
        if not kids:
            rects[i] = (x_lo, x_hi, zero, top)
            continue
        c = rest[i]
        y = Fraction(c * wd, den * wn)
        rects[i] = (x_lo, x_hi, y, top)
        cursor, xn, xd = x_lo, x_lo.numerator, x_lo.denominator
        for idx, k in enumerate(kids):
            g = gcd(subtree[k], c)
            sn, sd = subtree[k] // g, c // g
            g1, g2 = gcd(wn, sd), gcd(sn, wd)
            kn, kd = wn // g1 * (sn // g2), wd // g2 * (sd // g1)
            if idx + 1 < len(kids):
                g = gcd(xd, kd)
                nxt = Fraction(xn * (kd // g) + kn * (xd // g), xd // g * kd)
                xn, xd = nxt.numerator, nxt.denominator
                vx[order[spans[k][1]]] = nxt
            else:
                nxt = x_hi
            frames.append((k, cursor, nxt, kn, kd, y))
            cursor = nxt
    assert len(vx) == len(order), "every vertex must receive an x-coordinate"
    return vx, rects


def twodim_biconnected(g, s, t, length, height):
    """Exact-area embedding of a biconnected outerplanar graph in a
    ``length x height`` box, with s first and t last in the supporting order.

    Requires (s, t) to be an outer-face edge with its endpoints consecutive
    on the outer cycle, and ``length * height`` to equal the total weight
    exactly.
    """
    s, t = g.resolve(s), g.resolve(t)
    length = Fraction(length)
    height = Fraction(height)
    if length <= 0 or height <= 0:
        raise PreconditionError("box sides must be positive")
    if length * height != g.total_weight():
        raise PreconditionError("box area must equal the total edge weight")
    if g.edge_between(s, t) is None:
        raise PreconditionError("(s, t) must be an edge")
    record = _whole_graph_cycle(g)
    if record is None:
        raise NotOuterplanarError("graph is not outerplanar")
    cut = record.cut(s, t)
    if cut is None:
        raise PreconditionError("(s, t) is not on the outer face")
    order = cut.order()
    vx, rects = _draw_region(order, g.ends, *_over_lcm(*g.ratios()), length)
    return TwoDimEmbedding(BookEmbedding(order), vx, rects)


def one_page_order(g):
    """A 1-page order of a connected outerplanar graph or one ``Component``
    of any graph (one always exists): block outer cycles hung on cuts."""
    g = component(g)
    if g.n == 1:
        return [g.root]
    tree = g.tree
    rooted = tree.rooted(g.block_ids[0])
    ropes = {}
    for bid in rooted.block_postorder:
        block = tree.blocks[bid]
        record = block_outer_cycle(g, block.vertices, block.edge_ids)
        if record is None:
            raise NotOuterplanarError("graph is not outerplanar")
        parent = rooted.parent_cut[bid]
        cut = record.cuts(block.vertices[0] if parent is None else parent)[0]
        repl = {}
        for c in rooted.child_cuts[bid]:
            parts = [seq.one(c)]
            parts.extend(
                seq.skipping(ropes[b2], c) for b2 in rooted.child_blocks[c]
            )
            repl[c] = seq.cat(*parts)
        ropes[bid] = seq.blk(cut.order(), repl or None)
    return seq.materialize(ropes[rooted.root])


def twodim_general(g, eps=Fraction(1), length=None):
    """Embedding of any outerplanar graph with area at most the total weight
    plus ``eps``.

    Component orders are concatenated (so no vertex lies under another
    component's edge), the order is completed to a Hamiltonian-cycle
    biconnected supergraph by at most n dummy edges of weight eps/n (missing
    consecutive pairs plus one spanning edge), the supergraph is drawn in an
    exactly filled box, and the dummy rectangles are deleted.
    """
    eps = Fraction(eps)
    if eps <= 0:
        raise PreconditionError("eps must be positive")
    if length is not None and Fraction(length) <= 0:
        raise PreconditionError("length must be positive")
    n = g.n
    order_all = [v for part in components(g) for v in one_page_order(part)]

    if g.m == 0:
        x = {v: Fraction(i) for i, v in enumerate(order_all)}
        return TwoDimEmbedding(BookEmbedding(order_all), x, {})

    pos = {v: i for i, v in enumerate(order_all)}
    present = {span(pos, u, v) for u, v in g.ends}
    # the dummy edges are the indices from g.m on
    ends = list(g.ends)
    ends += [(order_all[i], order_all[i + 1])
             for i in range(n - 1) if (i, i + 1) not in present]
    if n >= 2 and (0, n - 1) not in present:
        ends.append((order_all[0], order_all[-1]))
    # the dummy weight eps/n is one more pair, after the graph's, and its
    # numerator is then dealt to every dummy edge
    dummy_w = eps / n
    ps, qs = g.ratios()
    nums, den = _over_lcm(ps + [dummy_w.numerator], qs + [dummy_w.denominator])
    nums += [nums.pop()] * (len(ends) - g.m)
    total = Fraction(sum(nums), den)

    length = default_box_width(total) if length is None else Fraction(length)
    vx, all_rects = _draw_region(order_all, ends, nums, den, length)
    rects = {eid: rect for eid, rect in all_rects.items() if eid < g.m}
    return TwoDimEmbedding(BookEmbedding(order_all), vx, rects)


def minres_construct(g, embedding):
    """Unit-resolution drawing from a supporting 1-page embedding:
    unit vertex spacing, every rectangle at least 1 wide and 1 tall."""
    violation = validate_minres_supporting(g, embedding)
    if violation is not None:
        raise PreconditionError(
            f"order is not a supporting embedding: {violation}"
        )
    pos = embedding.position
    # the spans are listed by edge id, so index i is edge i
    spans, _parent, children, roots = _forest_or_raise(g, embedding)
    ps, qs = g.ratios()
    x = {v: Fraction(pos[v] + 1) for v in embedding.order}
    rects = {}
    post = []
    stack = list(roots)
    while stack:
        i = stack.pop()
        post.append(i)
        stack.extend(children[i])
    for i in reversed(post):
        a, b, _eid = spans[i]
        y_min = Fraction(0)
        for k in children[i]:
            y_top = rects[k][3]
            if y_top > y_min:
                y_min = y_top
        h = Fraction(ps[i], qs[i] * (b - a))
        rects[i] = (Fraction(a + 1), Fraction(b + 1), y_min, y_min + h)
    return TwoDimEmbedding(embedding, x, rects)


def default_box_width(total_weight):
    """Near-square default: the denominator<=64 rational closest to the
    square root of the total weight.  A total too large for a float gets
    the integer square root of its integer part."""
    total_weight = Fraction(total_weight)
    if total_weight <= 0:
        return Fraction(1)
    try:
        approx = float(total_weight)
    except OverflowError:
        return Fraction(math.isqrt(math.floor(total_weight)))
    root = Fraction(approx ** 0.5).limit_denominator(64)
    return root if root > 0 else Fraction(1)


def check_twodim(g, emb, *, exact_box=None, require_minres=False):
    """Definitional audit of a drawing; returns a list of violation
    messages (empty when everything holds), in O(m log m).

    Besides the per-edge and per-option checks, the audit reads the
    nesting forest of the support order and requires:

    1. x strictly increasing along the support order;
    2. every rectangle's x-ends at its endpoints' x;
    3. every rectangle of positive width and height, with a bottom at or
       above 0 and an area exactly its weight;
    4. no two edges crossing (reported as "edges i and j cross");
    5. every rectangle's bottom equal to the largest top among its
       children in the forest, or 0 for a leaf.

    The definition is pairwise: each bottom equals the largest top nested
    under it, no two rectangles overlap, and no connector (the segment
    from a rectangle's lower corner straight down to the baseline)
    pierces a rectangle.  Where 1-3 fail, both audits report it; where
    they hold, the two agree.

    4 and 5 imply the pairwise conditions.  By 3 and 5, every top
    exceeds every top nested under it, so the largest child top is the
    largest nested top.  Two edges that do not nest have x-ranges meeting
    at most at an end (1, 2), and a rectangle nested under another lies
    below its bottom, so no two rectangles overlap.  A connector drops at
    an endpoint's x; a rectangle whose open x-range holds that x wraps the
    connector's edge, so its bottom is at or above that edge's top.

    The pairwise conditions imply 4 and 5.  Take edges ab and cd crossing
    as a < c < b < d.  The connector at c must not pierce ab, so cd's
    bottom is at most ab's; the one at b must not pierce cd, so ab's is
    at most cd's.  The bottoms are equal, and the two rectangles overlap
    over (x_c, x_b).  So nothing crosses.  Each bottom meets the largest
    top nested under it, so every top exceeds the tops nested under it,
    and the largest nested top is the largest child top.
    """
    problems = []
    order = emb.support.order
    pos = emb.support.position
    if sorted(order) != list(range(g.n)):
        return ["support order is not a permutation"]
    for a, b in zip(order, order[1:]):
        if not emb.x[a] < emb.x[b]:
            problems.append(f"x not strictly increasing at {g.labels[b]}")
    rect = emb.rects
    for eid, ((u, v), w) in enumerate(zip(g.ends, g.weights)):
        if eid not in rect:
            problems.append(f"edge {eid} has no rectangle")
            continue
        xmin, xmax, ymin, ymax = rect[eid]
        a, b = span(pos, u, v)
        if xmin != emb.x[order[a]] or xmax != emb.x[order[b]]:
            problems.append(f"edge {eid}: rectangle ends differ from endpoint x")
        if ymin < 0 or xmax <= xmin or ymax <= ymin:
            problems.append(f"edge {eid}: degenerate rectangle")
            continue
        if (xmax - xmin) * (ymax - ymin) != w:
            problems.append(f"edge {eid}: area is not exactly the weight")
        if require_minres:
            if xmax - xmin < 1:
                problems.append(f"edge {eid}: width below 1")
            if ymax - ymin < 1:
                problems.append(f"edge {eid}: height below 1")
    if require_minres:
        xs = sorted(emb.x[v] for v in order)
        for a, b in zip(xs, xs[1:]):
            if b - a < 1:
                problems.append("vertex spacing below 1")
                break
    try:
        # the spans are listed by edge id, so forest node i is edge i
        _spans, _parent, children, _roots = _forest_or_raise(g, emb.support)
    except NotOnePageError as exc:
        problems.append(str(exc))
    else:
        for i, kids in enumerate(children):
            top = max((rect[k][3] for k in kids if k in rect), default=Fraction(0))
            if i in rect and rect[i][2] != top:
                problems.append(f"edge {i}: bottom does not meet the nested tops")
    if exact_box is not None:
        want_l, want_h = Fraction(exact_box[0]), Fraction(exact_box[1])
        width, height = emb.bounding_box()
        if (width, height) != (want_l, want_h):
            problems.append("bounding box differs from the requested box")
        covered = sum(
            ((r[1] - r[0]) * (r[3] - r[2]) for r in rect.values()), Fraction(0)
        )
        if covered != want_l * want_h:
            problems.append("holes: rectangle areas do not fill the box")
    return problems
