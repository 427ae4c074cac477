"""Two-dimensional book-embeddings: edges drawn as stacked axis-parallel
rectangles of exactly their weight's area over a vertex baseline.

Three constructions: exact-area boxes for biconnected graphs, the
epsilon-augmented construction for arbitrary outerplanar graphs (dummy edges
added, drawn, then deleted), and the unit-resolution construction from a
supporting 1-page embedding.
"""

from __future__ import annotations

import math
from fractions import Fraction
from itertools import chain
from json.encoder import encode_basestring_ascii
from types import MappingProxyType

from .embedding import BookEmbedding, _forest_or_raise, validate_minres_supporting
from .errors import GraphFormatError, NotOnePageError, NotOuterplanarError, PreconditionError
from .exact import format_ratio, parse_ratio, parse_rational, read_json
from .graph import WeightedGraph, _coerce_label, _over_lcm, component, components
from .outerplanar import Cut, _whole_graph_cycle, block_outer_cycle, nesting_forest, span


def _mapped(x, rects, f):
    """``x`` and ``rects`` with ``f`` applied to every coordinate, once per
    distinct coordinate, so that equal coordinates share one result."""
    made = dict.fromkeys(chain(x.values(), chain.from_iterable(rects.values())))
    for c in made:
        made[c] = f(c)
    f = made.__getitem__
    return ({v: f(c) for v, c in x.items()},
            {eid: tuple(map(f, rect)) for eid, rect in rects.items()})


class TwoDimEmbedding:
    """Vertex x-coordinates plus one rectangle per edge, all exact rationals.

    The embedding holds each coordinate as a reduced ``(p, q)`` pair of
    ints, one pair object per distinct coordinate, and :meth:`to_json`
    writes the pairs.  :attr:`x` and :attr:`rects` are read-only
    ``Fraction`` views of them, made on first use and kept beside them.
    """

    __slots__ = ("support", "_pairs", "_fractions")

    def __init__(self, support, x, rects):
        """``x``: exact rationals (ints or Fractions) by vertex; ``rects``:
        ``(xmin, xmax, ymin, ymax)`` of them by edge id."""
        self.support = support
        self._pairs = _mapped(x, rects, lambda c: (c.numerator, c.denominator))
        self._fractions = None

    @classmethod
    def _of_pairs(cls, support, x, rects):
        """The embedding of the pairs ``x`` by vertex and the 4-tuples of
        pairs ``rects`` by edge id, held as given."""
        emb = cls.__new__(cls)
        emb.support, emb._pairs, emb._fractions = support, (x, rects), None
        return emb

    @property
    def x(self):
        """x-coordinates by vertex as Fractions, read-only."""
        return self._views()[0]

    @property
    def rects(self):
        """``(xmin, xmax, ymin, ymax)`` as Fractions by edge id, read-only."""
        return self._views()[1]

    def _views(self):
        if self._fractions is None:
            x, rects = _mapped(*self._pairs, lambda pair: Fraction(*pair))
            self._fractions = MappingProxyType(x), MappingProxyType(rects)
        return self._fractions

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
        "w", "rect"}]}`` as the text ``json.dumps`` gives.  Each distinct
        coordinate and each label is formatted once, and the document is
        filled in with no Python call per coordinate."""
        x, rects = self._pairs
        order = self.support.order
        n = len(order)
        coords = list(map(x.__getitem__, order))
        coords += chain.from_iterable(map(rects.__getitem__, range(g.m)))
        distinct = dict.fromkeys(coords)
        text = dict(zip(distinct, [format_ratio(p, q) for p, q in distinct]))
        coords = list(map(text.__getitem__, coords))
        labels = list(map(encode_basestring_ascii, g.labels))
        ends = list(map(labels.__getitem__, chain.from_iterable(g.ends)))
        vertices = ", ".join(['{"id": %s, "x": "%s"}'] * n) % tuple(
            chain.from_iterable(zip(map(labels.__getitem__, order), coords)))
        edges = ", ".join(
            ['{"u": %s, "v": %s, "w": "%s", "rect": ["%s", "%s", "%s", "%s"]}'] * g.m
        ) % tuple(chain.from_iterable(zip(
            ends[0::2], ends[1::2], map(format_ratio, *g.ratios()),
            coords[n::4], coords[n + 1::4], coords[n + 2::4], coords[n + 3::4],
        )))
        return f'{{"vertices": [{vertices}], "edges": [{edges}]}}'

    @staticmethod
    def from_json(text):
        """Parse the serialized form; returns ``(graph, embedding)``.

        Raises :class:`GraphFormatError` when a member is missing, has the
        wrong type or names an unknown vertex, a number is not a rational
        string, or a rectangle is not an array of four coordinates.
        """
        # read as graph documents are: any length, ids as the labels they name
        doc = read_json(text)
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
            x = {i: parse_ratio(entry["x"]) for i, entry in enumerate(doc["vertices"])}
            rects = {}
            for eid, entry in enumerate(doc["edges"]):
                rect = entry["rect"]
                if type(rect) is not list or len(rect) != 4:
                    raise GraphFormatError(
                        f"edges[{eid}]: rect must be an array of four coordinates")
                rects[eid] = tuple(map(parse_ratio, rect))
        except (KeyError, TypeError, ValueError) as exc:
            raise GraphFormatError(
                f"malformed 2-D embedding document ({type(exc).__name__}: {exc})"
            ) from None
        order = list(range(g.n))  # vertices are serialized in support order
        return g, TwoDimEmbedding._of_pairs(BookEmbedding(order), x, rects)


def _draw_region(order, spans, nums, den, length):
    """Exact-area drawing of a biconnected structure given its forced order,
    in a box of width ``length`` whose area is the weight total.

    ``spans[i]`` is ``(a, b, i)``, the order positions ``a < b`` of edge
    i's ends, and edge i weighs ``nums[i] / den``; ``length`` is a reduced
    ``(p, q)`` pair.  The nesting forest must have a single root (the edge
    joining the order's endpoints).  Returns (vx, rects by edge index) with
    every coordinate a reduced ``(p, q)`` pair of ints, one pair object per
    distinct coordinate, shared by ``vx`` and the rectangles.

    A region whose subtree weighs S (in units of 1/den) and whose top is
    at height T is S/(den·T) wide.  Its edge takes the top and leaves the
    height y = T·C/S to the children, C being their total; so every child
    region's top is y, and child k ends at x_lo + P/(den·y), P the
    children's total up to k.  Each new coordinate costs one gcd.  The
    subtree totals are summed over the nesting forest's walk (its sort
    order) reversed, and the regions are filled over the walk itself.
    """
    walk, children, roots = nesting_forest(len(order), spans)
    assert len(roots) == 1, "top edge must wrap every other edge"
    subtree = list(nums)
    for i in reversed(walk):
        for k in children[i]:
            subtree[i] += subtree[k]

    gcd = math.gcd
    zero = (0, 1)
    ln, ld = length
    vx = {order[0]: zero, order[-1]: length}
    rects = {}
    root = roots[0]
    tn, td = subtree[root] * ld, den * ln
    g = gcd(tn, td)
    # (x_lo, x_hi, top) of each region, set by its parent and dropped once
    # read, so that only the regions still to be drawn hold one
    frames = [None] * len(spans)
    frames[root] = (zero, length, (tn // g, td // g))
    for i in walk:
        x_lo, x_hi, top = frames[i]
        frames[i] = None
        kids = children[i]
        if not kids:
            rects[i] = (x_lo, x_hi, zero, top)
            continue
        tn, td = top
        yn, yd = tn * (subtree[i] - nums[i]), td * subtree[i]
        g = gcd(yn, yd)
        yn, yd = yn // g, yd // g
        y = (yn, yd)
        rects[i] = (x_lo, x_hi, y, top)
        # x_lo + P/(den·y) is (a + P·b) / d
        xn, xd = x_lo
        d = xd * den * yn
        a, b = xn * den * yn, yd * xd
        cursor = x_lo
        prefix = 0
        last = kids[-1]
        for k in kids:
            if k != last:
                prefix += subtree[k]
                t = a + prefix * b
                g = gcd(t, d)
                nxt = (t // g, d // g)
                vx[order[spans[k][1]]] = nxt
            else:
                nxt = x_hi
            frames[k] = (cursor, nxt, y)
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
    # the whole graph's cycle lists its spans by edge id
    vx, rects = _draw_region(order, cut.spans(), *_over_lcm(*g.ratios()),
                             (length.numerator, length.denominator))
    return TwoDimEmbedding._of_pairs(BookEmbedding(order), vx, rects)


def one_page_order(g):
    """A 1-page order of a connected outerplanar graph or one ``Component``
    of any graph (one always exists): block outer cycles hung on cuts.

    Each block is read along its outer cycle from its parent cut vertex
    (the root block, the first, from its smallest vertex); a cut vertex is
    followed by its child blocks' orders, less the cut vertex itself.  A
    block of at most three vertices lists them along its cycle already, so
    it is read with no outer-cycle record."""
    g = component(g)
    if g.n == 1:
        return [g.root]
    blocks, blocks_of_vertex = g.tree.blocks, g.tree.blocks_of_vertex

    def block_order(bid, first):
        block = blocks[bid]
        vertices = block.vertices
        if len(vertices) <= 3:
            i = vertices.index(first)
            return iter(vertices[i:] + vertices[:i])
        record = block_outer_cycle(g, vertices, block.edge_ids)
        if record is None:
            raise NotOuterplanarError("graph is not outerplanar")
        return iter(Cut(record, record.pos[first], 1).order())

    root = g.block_ids[0]
    out = []
    stack = [(root, block_order(root, blocks[root].vertices[0]))]
    while stack:
        bid, rest = stack[-1]
        for v in rest:
            out.append(v)
            if len(blocks_of_vertex[v]) > 1:
                # the blocks of a cut vertex but this one hang below it
                for child in reversed(blocks_of_vertex[v]):
                    if child != bid:
                        below = block_order(child, v)
                        next(below)
                        stack.append((child, below))
                break
        else:
            stack.pop()
    return out


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
        x = {v: (i, 1) for i, v in enumerate(order_all)}
        return TwoDimEmbedding._of_pairs(BookEmbedding(order_all), x, {})

    pos = {v: i for i, v in enumerate(order_all)}
    spans = [span(pos, u, v) + (eid,) for eid, (u, v) in enumerate(g.ends)]
    present = {(a, b) for a, b, _eid in spans}
    # the dummy edges are the indices from g.m on
    dummies = [(i, i + 1) for i in range(n - 1) if (i, i + 1) not in present]
    if (0, n - 1) not in present:
        dummies.append((0, n - 1))
    spans += [(a, b, eid) for eid, (a, b) in enumerate(dummies, g.m)]
    # the dummy weight eps/n is one more pair, after the graph's, and its
    # numerator is then dealt to every dummy edge
    dummy_w = eps / n
    ps, qs = g.ratios()
    nums, den = _over_lcm(ps + [dummy_w.numerator], qs + [dummy_w.denominator])
    nums += [nums.pop()] * (len(spans) - g.m)
    total = Fraction(sum(nums), den)

    length = default_box_width(total) if length is None else Fraction(length)
    vx, all_rects = _draw_region(order_all, spans, nums, den,
                                 (length.numerator, length.denominator))
    m = g.m
    rects = {eid: rect for eid, rect in all_rects.items() if eid < m}
    return TwoDimEmbedding._of_pairs(BookEmbedding(order_all), vx, rects)


def minres_construct(g, embedding):
    """Unit-resolution drawing from a supporting 1-page embedding:
    unit vertex spacing, every rectangle at least 1 wide and 1 tall.

    Edge ``(a, b)`` of weight p/q, at order positions ``a < b``, spans
    x = a + 1 to b + 1 and is p/(q·(b - a)) tall; its bottom is the highest
    top among its children in the nesting forest, or 0.  Every coordinate
    is a reduced ``(p, q)`` pair of ints, and the pairs compare by
    cross-multiplication."""
    violation = validate_minres_supporting(g, embedding)
    if violation is not None:
        raise PreconditionError(
            f"order is not a supporting embedding: {violation}"
        )
    spans, walk, children, _roots = _forest_or_raise(g, embedding)
    ps, qs = g.ratios()
    xs = [(i + 1, 1) for i in range(g.n)]
    x = dict(zip(embedding.order, xs))
    rects = {}
    for i in reversed(walk):
        a, b, _eid = spans[i]
        y_min = (0, 1)
        for k in children[i]:
            top = rects[k][3]
            if top[0] * y_min[1] > y_min[0] * top[1]:
                y_min = top
        # the top is y_min + p/(q·(b - a)), reduced
        mn, md = y_min
        hd = qs[i] * (b - a)
        tn, td = mn * hd + ps[i] * md, md * hd
        d = math.gcd(tn, td)
        rects[i] = (xs[a], xs[b], y_min, (tn // d, td // d))
    return TwoDimEmbedding._of_pairs(embedding, x, rects)


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

    An x-coordinate or rectangle keyed by an id that is no vertex or edge
    of ``g`` is reported, and so is each vertex without an x-coordinate;
    the audit stops there, as every later check reads every vertex's x.

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
    order = emb.support.order
    if sorted(order) != list(range(g.n)):
        return ["support order is not a permutation"]
    pos = emb.support.position  # a list as long as the largest id + 1
    x, rect = emb.x, emb.rects
    problems = [f"x-coordinate for unknown vertex {v}" for v in x if v not in range(g.n)]
    problems += [f"rectangle for unknown edge {e}" for e in rect if e not in range(g.m)]
    missing = [f"vertex {g.labels[v]} has no x-coordinate" for v in order if v not in x]
    if missing:
        return problems + missing
    for a, b in zip(order, order[1:]):
        if not x[a] < x[b]:
            problems.append(f"x not strictly increasing at {g.labels[b]}")
    spans = [span(pos, u, v) + (eid,) for eid, (u, v) in enumerate(g.ends)]
    for (a, b, eid), w in zip(spans, g.weights):
        if eid not in rect:
            problems.append(f"edge {eid} has no rectangle")
            continue
        xmin, xmax, ymin, ymax = rect[eid]
        if xmin != x[order[a]] or xmax != x[order[b]]:
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
        xs = sorted(x[v] for v in order)
        for a, b in zip(xs, xs[1:]):
            if b - a < 1:
                problems.append("vertex spacing below 1")
                break
    try:
        # the spans are listed by edge id, so forest node i is edge i
        _walk, children, _roots = nesting_forest(g.n, spans)
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
