"""Weighted graph model, exact I/O, connectivity, and the block-cut-vertex tree."""

from __future__ import annotations

import json
import math
from array import array
from fractions import Fraction

from .errors import GraphFormatError, PreconditionError
from .exact import excerpt, format_ratio, parse_ratio, read_digits, read_json


def _word_view(nums, dens):
    """The ratios ``nums[e] / dens[e]`` over their least common denominator
    ``den``, as ``(array("q"), den)`` at 8 bytes an edge; None if a number
    needs more than 64 bits (huge weights, or coprime denominators, whose
    lcm grows with m)."""
    den = 1
    for d in set(dens):
        if (den := math.lcm(den, d)) >= 2**63:
            return None
    try:
        if den == 1:
            return array("q", nums), 1
        return array("q", [p * (den // q) for p, q in zip(nums, dens)]), den
    except OverflowError:
        return None


def _over_lcm(nums, dens):
    """The ratios ``nums[e] / dens[e]`` as ``(ints, den)`` over their least
    common denominator ``den``, unbounded: a new list of Python ints."""
    den = math.lcm(*set(dens))
    if den == 1:
        return list(nums), 1
    return [p * (den // q) for p, q in zip(nums, dens)], den


def _first_fault(labels, ends, nums, dens):
    """The error for the first edge that is a self-loop, repeats an earlier
    edge or has a non-positive weight ``nums[e] / dens[e]``, checked in that
    order within an edge; None if every edge is good."""
    seen = set()  # each pair so far, the smaller id first
    for end, p, q in zip(ends, nums, dens):
        u, v = end
        key = end if u < v else (v, u)
        if u == v:
            return GraphFormatError(
                f"self-loop at vertex {excerpt(labels[u])}", kind="self-loop"
            )
        if key in seen or p <= 0:
            edge = f"{excerpt(labels[u])}--{excerpt(labels[v])}"
            if key in seen:
                return GraphFormatError(f"duplicate edge {edge}", kind="duplicate-edge")
            weight = excerpt(format_ratio(p, q), quote=str)
            return GraphFormatError(
                f"non-positive weight {weight} on edge {edge}", kind="non-positive-weight"
            )
        seen.add(key)
    return None


class WeightedGraph:
    """Undirected simple graph with exact positive rational edge weights.

    Vertex labels are interned to dense integers ``0..n-1`` in first-seen
    order; every internal structure works on the dense ids.  Edge ``e``
    joins ``ends[e] == (u, v)``.  Instances are immutable after
    construction and safe to share across threads.

    Every graph holds its weights as reduced ``(p, q)`` pairs,
    :meth:`ratios`, however it was built, and no other form of them:
    :attr:`scaled` is made from the pairs on every access.  ``Fraction``s
    come only from :attr:`weights`, :meth:`weight` and :attr:`edges`, and
    are built on first use; so is :attr:`label_index`, unless the parser
    kept the one it interned with.  Equal denominators are one ``int``
    object.  No adjacency rows and no edge lookup are stored:
    :attr:`adjacency` is made anew on every access, and
    :meth:`edge_between` scans :attr:`ends`.
    """

    __slots__ = ("labels", "_label_index", "ends", "_weights", "_ratios")

    def __init__(self, labels, edges):
        """``labels``: iterable of strings; ``edges``: triples (u, v, w) of dense ids."""
        labels = tuple(labels)
        if len(set(labels)) != len(labels):
            raise GraphFormatError("duplicate vertex label", kind="syntax")
        n = len(labels)
        ends, nums, dens = [], [], []
        shared = {}  # one int per distinct denominator
        for u, v, w in edges:
            if not (0 <= u < n and 0 <= v < n):
                raise GraphFormatError("edge endpoint out of range", kind="syntax")
            if type(w) is not int and type(w) is not Fraction:
                w = Fraction(w)
            ends.append((u, v))
            # an int is w/1; a Fraction is in lowest terms with q > 0
            nums.append(w.numerator)
            dens.append(shared.setdefault(w.denominator, w.denominator))
        fault = _first_fault(labels, ends, nums, dens)
        if fault is not None:
            raise fault
        self._link(labels, ends, (nums, dens))

    @classmethod
    def _of_checked(cls, labels, ends, ratios):
        """Graph over distinct ``labels`` and ``ends`` taken from a graph
        that is already checked: dense ids, no self-loops, no duplicate
        edges, positive weights as reduced ``(p, q)`` pairs.  Skips the
        per-edge checks."""
        g = cls.__new__(cls)
        g._link(labels, ends, ratios)
        return g

    def _link(self, labels, ends, ratios, index=None):
        self.labels = tuple(labels)
        self._label_index = index
        self.ends = tuple(ends)
        self._ratios = ratios
        self._weights = None

    def _part(self, verts, eids):
        """Checked subgraph whose vertex i is ``verts[i]`` and edge i is
        edge ``eids[i]`` of this graph (both lists increasing).  Its
        :attr:`scaled` is its own: over its weights' least common
        denominator, which may fit 64 bits when this graph's does not."""
        local = {v: i for i, v in enumerate(verts)}
        labels = [self.labels[v] for v in verts]
        ends = [(local[u], local[v]) for u, v in map(self.ends.__getitem__, eids)]
        ps, qs = self._ratios
        return WeightedGraph._of_checked(
            labels, ends, ([ps[e] for e in eids], [qs[e] for e in eids])
        )

    def ratios(self):
        """The weights as lists of numerators and denominators in lowest
        terms, by edge id; the caller must not change them."""
        return self._ratios

    # -- basic accessors ---------------------------------------------------

    @property
    def n(self):
        return len(self.labels)

    @property
    def m(self):
        return len(self.ends)

    @property
    def label_index(self):
        """The dense id of each label: the dict the parser interned with,
        or built on first use."""
        if self._label_index is None:
            self._label_index = {lab: i for i, lab in enumerate(self.labels)}
        return self._label_index

    @property
    def weights(self):
        """The ``Fraction`` weights by edge id, built from :meth:`ratios`
        on first use."""
        if self._weights is None:
            self._weights = tuple(map(Fraction, *self._ratios))
        return self._weights

    @property
    def adjacency(self):
        """The edge ids at each vertex, increasing, as a tuple of tuples by
        vertex id: made anew from :attr:`ends` on every access, in O(n + m)."""
        return tuple(map(tuple, _rows(self.n, self.ends)))

    @property
    def edges(self):
        """``(u, v, w)`` triples with ``Fraction`` weights, built anew on
        every access; the hot paths read :attr:`ends` and :attr:`scaled`."""
        return tuple((u, v, w) for (u, v), w in zip(self.ends, self.weights))

    def weight(self, eid):
        """The weight of edge ``eid`` as a ``Fraction``: from :attr:`weights`
        when that is built, else a new one from the edge's ``(p, q)`` on
        every call."""
        if self._weights is None:
            ps, qs = self._ratios
            return Fraction(ps[eid], qs[eid])
        return self._weights[eid]

    @property
    def scaled(self):
        """``(nums, den)`` with ``Fraction(nums[e], den) == weight(e)``,
        made from :meth:`ratios` on every access: :func:`_word_view`, or,
        when that needs more than 64 bits, the :attr:`weights` over 1."""
        view = _word_view(*self._ratios)
        return view if view is not None else (self.weights, 1)

    def endpoints(self, eid):
        return self.ends[eid]

    def other_end(self, eid, v):
        u, w = self.ends[eid]
        return w if v == u else u

    def edge_between(self, u, v):
        """Edge id joining u and v, or None: an O(m) scan of :attr:`ends`."""
        for end in (u, v), (v, u):
            try:
                return self.ends.index(end)
            except ValueError:
                pass
        return None

    def resolve(self, vertex):
        """Accept either a dense id (int) or a label (str)."""
        if isinstance(vertex, int):
            if not 0 <= vertex < self.n:
                raise KeyError(vertex)
            return vertex
        return self.label_index[vertex]

    def resolve_labels(self, labels):
        """Dense ids of a JSON array of vertex labels (a vertex order), each
        coerced as graph JSON labels are: ``1`` is the label ``"1"``, not the
        dense id 1."""
        if not isinstance(labels, list):
            raise GraphFormatError("order must be a JSON array of vertex labels")
        index = self.label_index
        ids = []
        for i, label in enumerate(labels):
            if not isinstance(label, str):
                label = _coerce_label(label, f"order[{i}]")
            v = index.get(label)
            if v is None:
                raise GraphFormatError(f"unknown vertex {excerpt(label)} (order[{i}])")
            ids.append(v)
        return ids

    def total_weight(self):
        nums, den = self.scaled
        return Fraction(sum(nums), den)

    def __eq__(self, other):
        return (
            isinstance(other, WeightedGraph)
            and self.labels == other.labels
            and self.ends == other.ends
            and self._ratios == other._ratios  # lowest terms: equal values
        )

    def __hash__(self):
        return hash((self.labels, self.ends, *map(tuple, self._ratios)))

    def __repr__(self):
        return f"WeightedGraph(n={self.n}, m={self.m})"

    def induced(self, vertices):
        """Induced subgraph on the given dense ids.

        Returns ``(subgraph, to_sub)`` where ``to_sub`` maps original dense
        ids to the subgraph's dense ids.  Labels are preserved.
        """
        verts = sorted(set(vertices))
        to_sub = {v: i for i, v in enumerate(verts)}
        eids = [e for e, (u, v) in enumerate(self.ends) if u in to_sub and v in to_sub]
        return self._part(verts, eids), to_sub


# -- parsing / serialization ----------------------------------------------


def _coerce_label(value, where):
    if isinstance(value, str):
        return value
    if type(value) is int or type(value) is float and value.is_integer():
        return format_ratio(int(value), 1)
    raise GraphFormatError(f"vertex labels must be strings or integers ({where})")


def _coerce_weight(value, where):
    """``(p, q)`` of a JSON weight that is not a string: an integer, or an
    error."""
    if isinstance(value, bool):
        raise GraphFormatError(f"weight must be a string rational ({where})")
    if isinstance(value, int):
        return value, 1
    raise GraphFormatError(
        f"weight must be a string rational, not {type(value).__name__} "
        f"(floats are inexact) ({where})",
        position=where,
    )


def _build(vertex_labels, rows, fault):
    """The graph of ``rows``, each ``[u, v, w]``.

    Labels are interned in first-seen order, ``vertex_labels`` first.  Each
    weight is read into ``(p, q)`` in lowest terms, and no ``Fraction`` is
    built.  ``fault(i, text)`` makes the error for row ``i``: the malformed
    weight ``text``, or, when ``text`` is None, a row that is not
    ``[u, v, w]``.

    A syntax fault raises at once; the structural faults are looked for
    only after the last row, so a syntax fault in any row wins.  Of the
    structural faults the first row's is raised (:func:`_first_fault`).
    """
    labels = []
    index = {}
    for lab in vertex_labels:
        if lab not in index:
            index[lab] = len(labels)
            labels.append(lab)
    ends, nums, dens = [], [], []
    shared = {}  # one int per distinct denominator
    for i, row in enumerate(rows):
        if not isinstance(row, list) or len(row) != 3:
            raise fault(i, None)
        u, v, w = row
        if not isinstance(u, str):
            u = _coerce_label(u, f"edges[{i}]")
        if not isinstance(v, str):
            v = _coerce_label(v, f"edges[{i}]")
        if not isinstance(w, str):
            p, q = _coerce_weight(w, f"edges[{i}]")
        elif w.isdigit() and w.isascii():
            p, q = read_digits(w), 1
        else:
            try:
                p, q = parse_ratio(w)
            except ValueError:
                raise fault(i, w) from None
        a = index.get(u)
        if a is None:
            a = index[u] = len(labels)
            labels.append(u)
        b = index.get(v)
        if b is None:
            b = index[v] = len(labels)
            labels.append(v)
        ends.append((a, b))
        nums.append(p)
        dens.append(shared.setdefault(q, q))
    found = _first_fault(labels, ends, nums, dens)
    if found is not None:
        raise found
    g = WeightedGraph.__new__(WeightedGraph)
    g._link(labels, ends, (nums, dens), index)  # the dict labels were interned with
    return g


def parse_graph(text, format="json"):
    """Parse a graph from JSON or edge-list text.

    JSON: ``{"vertices": [...], "edges": [[u, v, w], ...]}`` with ``w`` a
    string rational ("5", "3.25", "7/2").  Edge list: one ``u v w`` per line,
    ``#`` starts a comment, a lone token declares an isolated vertex.
    """
    if isinstance(text, bytes):
        text = text.decode("utf-8")
    if format == "json":
        return _parse_json(text)
    if format == "edge-list":
        return _parse_edge_list(text)
    raise ValueError(f"unknown graph format {format!r}")


def _json_fault(i, text):
    where = f"edges[{i}]"
    if text is None:
        return GraphFormatError(f"edge must be [u, v, w] ({where})", position=where)
    return GraphFormatError(
        f"malformed weight {excerpt(text)} ({where})", position=where
    )


def _parse_json(text):
    try:
        doc = read_json(text)
    except json.JSONDecodeError as exc:
        raise GraphFormatError(
            f"invalid JSON: {exc.msg}", line=exc.lineno, position=exc.colno
        ) from None
    if not isinstance(doc, dict) or "edges" not in doc:
        raise GraphFormatError('expected an object with an "edges" array')
    vertices = doc.get("vertices", [])
    if not isinstance(vertices, list):
        raise GraphFormatError('"vertices" must be an array')
    vertex_labels = [
        v if isinstance(v, str) else _coerce_label(v, f"vertices[{i}]")
        for i, v in enumerate(vertices)
    ]
    edges = doc["edges"]
    if not isinstance(edges, list):
        raise GraphFormatError('"edges" must be an array')
    return _build(vertex_labels, edges, _json_fault)


def _parse_edge_list(text):
    vertex_labels = []
    rows = []
    lines = []  # (line number, text) of each row
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split()
        if len(parts) == 1:
            vertex_labels.append(parts[0])
            continue
        rows.append(parts)
        lines.append((lineno, line))

    def fault(i, text):
        lineno, line = lines[i]
        if text is None:
            return GraphFormatError(f"expected 'u v w', got {excerpt(line)}", line=lineno)
        return GraphFormatError(f"malformed weight {excerpt(text)}", line=lineno)

    return _build(vertex_labels, rows, fault)


def serialize_graph(g, format="json"):
    """Inverse of :func:`parse_graph`; round-trips bit-exactly."""
    labels = g.labels
    edges = [
        (labels[u], labels[v], format_ratio(p, q))
        for (u, v), p, q in zip(g.ends, *g.ratios())
    ]
    if format == "json":
        doc = {"vertices": list(labels), "edges": [list(e) for e in edges]}
        return json.dumps(doc)
    if format == "edge-list":
        used = set()
        for u, v in g.ends:
            used.add(u)
            used.add(v)
        lines = [f"{u} {v} {w}" for u, v, w in edges]
        lines.extend(labels[v] for v in range(g.n) if v not in used)
        return "\n".join(lines) + ("\n" if lines else "")
    raise ValueError(f"unknown graph format {format!r}")


# -- connectivity ----------------------------------------------------------


def _rows(n, ends):
    """The edge ids at each of the ``n`` vertices, increasing: a list of
    lists the caller owns.  A graph stores no rows; each pass that walks
    them builds its own and drops them when it returns."""
    rows = [[] for _ in range(n)]
    for eid, (u, v) in enumerate(ends):
        rows[u].append(eid)
        rows[v].append(eid)
    return rows


def component_vertex_sets(g):
    """Vertex sets of connected components, ordered by smallest dense id."""
    n = g.n
    ends = g.ends
    adjacency = _rows(n, ends)
    seen = [False] * n
    comps = []
    for start in range(n):
        if seen[start]:
            continue
        seen[start] = True
        stack = [start]
        comp = [start]
        while stack:
            v = stack.pop()
            for eid in adjacency[v]:
                a, b = ends[eid]
                u = b if a == v else a
                if not seen[u]:
                    seen[u] = True
                    comp.append(u)
                    stack.append(u)
        comps.append(sorted(comp))
    return comps


def connected_components(g):
    """Maximal connected subgraphs, ordered by smallest vertex id; subgraph
    id ``i`` is the ``i``-th smallest vertex of its component in ``g``, and
    a connected graph is its own single component."""
    parts = list(components(g))
    if len(parts) == 1:
        return [g]
    subs = []
    for part in parts:
        blocks = [part.tree.blocks[b] for b in part.block_ids]
        verts = sorted({v for b in blocks for v in b.vertices})
        subs.append(g._part(verts, sorted(e for b in blocks for e in b.edge_ids)))
    return subs


def is_connected(g):
    return g.n <= 1 or len(component_vertex_sets(g)) == 1


# -- block-cut-vertex tree -------------------------------------------------


class Block:
    """One biconnected component: a vertex subset, an edge subset,
    ``max_weight``, the largest edge weight in units of its component's
    view (None if edgeless), and ``cuts``, the tuple of its cut vertices in
    id order (set by :class:`BlockCutTree`; the shared ``()`` for a block
    without cut vertices)."""

    __slots__ = ("vertices", "edge_ids", "max_weight", "cuts")

    def __init__(self, vertices, edge_ids, max_weight):
        self.vertices = vertices
        self.edge_ids = edge_ids
        self.max_weight = max_weight
        self.cuts = ()

    def __repr__(self):
        return f"Block(vertices={self.vertices})"


def _biconnected_components(g):
    """Iterative Hopcroft-Tarjan, restarted at the smallest unvisited vertex.

    Returns ``(root, size, blocks)`` per connected component: its smallest
    vertex, its vertex count and its blocks as edge-id lists, in the order
    a search of the component alone finds them.
    """
    n = g.n
    disc = [0] * n  # 0 = unvisited, else discovery index + 1
    low = [0] * n
    # tree_edge_at[v]: edge-stack index of the tree edge that reached v
    tree_edge_at = [0] * n
    edge_stack = []
    parts = []
    counter = 1
    ends = g.ends
    adjacency = _rows(n, ends)
    for root in range(n):
        if disc[root]:
            continue
        first, blocks = counter, []
        disc[root] = low[root] = counter
        counter += 1
        frames = [(root, -1, iter(adjacency[root]))]
        while frames:
            v, parent_eid, edges = frames[-1]
            for eid in edges:
                if eid == parent_eid:
                    continue
                a, u = ends[eid]
                if u == v:
                    u = a
                if not disc[u]:
                    tree_edge_at[u] = len(edge_stack)
                    edge_stack.append(eid)
                    disc[u] = low[u] = counter
                    counter += 1
                    frames.append((u, eid, iter(adjacency[u])))
                    break
                if disc[u] < disc[v]:
                    edge_stack.append(eid)
                    if disc[u] < low[v]:
                        low[v] = disc[u]
            else:
                frames.pop()
                if frames:
                    parent = frames[-1][0]
                    if low[v] < low[parent]:
                        low[parent] = low[v]
                    if low[v] >= disc[parent]:
                        # the block is the stack from v's tree edge up, top first
                        start = tree_edge_at[v]
                        blocks.append(edge_stack[start:][::-1])
                        del edge_stack[start:]
        parts.append((root, counter - first, blocks))
    return parts


def _component_views(g, groups):
    """``(nums, dens)`` with ``Fraction(nums[e], dens[c])`` the weight of
    every edge ``e`` in the blocks ``groups[c]`` of component ``c``.

    That is :attr:`WeightedGraph.scaled` for one component or when the
    whole graph fits 64 bits.  Otherwise one ``array("q")`` holds each
    component's edges over the component's own least common denominator,
    or, for a component that needs more than 64 bits, its ``Fraction``
    weights over 1."""
    words = _word_view(*g.ratios())
    if words is not None or len(groups) < 2:
        nums, den = words or (g.weights, 1)
        return nums, [den] * len(groups)
    ps, qs = g.ratios()
    nums, dens = array("q", bytes(8 * g.m)), []
    for group in groups:
        eids = [e for block in group for e in block]
        pairs = [ps[e] for e in eids], [qs[e] for e in eids]
        view = _word_view(*pairs)
        if view is None:
            if type(nums) is array:
                nums = list(nums)
            view = list(map(Fraction, *pairs)), 1
        for e, x in zip(eids, view[0]):
            nums[e] = x
        dens.append(view[1])
    return nums, dens


class BlockCutTree:
    """Unrooted block decomposition of a connected graph, or with
    ``forest`` of every connected component of any graph.

    B-nodes are :class:`Block` objects indexed ``0..len(blocks)-1``; C-nodes
    are identified by their cut-vertex dense id.  ``parts`` holds each
    component's smallest vertex, its first block id and its vertex count;
    a component's blocks run up to the next component's first (a vertex
    without edges is a block without edges).  Edge ``e`` of
    component ``c`` weighs ``Fraction(nums[e], dens[c])``, the units of
    ``Block.max_weight`` (:func:`_component_views`).  :meth:`walk` roots
    one component.
    """

    __slots__ = ("blocks", "cut_vertices", "blocks_of_vertex", "block_of_edge",
                 "parts", "nums", "dens")

    def __init__(self, g, forest=False):
        found = _biconnected_components(g)
        if len(found) > 1 and not forest:
            raise PreconditionError("block-cut-vertex tree requires a connected graph")
        nums, self.dens = _component_views(g, [group for _, _, group in found])
        self.nums = nums
        ends = g.ends
        blocks = []
        block_of_edge = [-1] * g.m
        blocks_of_vertex = [[] for _ in range(g.n)]
        self.parts = []
        for root, size, group in found:
            start = len(blocks)
            if size == 1:
                blocks_of_vertex[root].append(start)
                blocks.append(Block((root,), (), None))
            for edge_ids in group:
                bid = len(blocks)
                if len(edge_ids) == 1:  # a bridge
                    eid = edge_ids[0]
                    u, v = ends[eid]
                    block_of_edge[eid] = bid
                    blocks_of_vertex[u].append(bid)
                    blocks_of_vertex[v].append(bid)
                    blocks.append(Block((u, v) if u < v else (v, u), (eid,), nums[eid]))
                    continue
                for eid in edge_ids:
                    block_of_edge[eid] = bid
                vertices = tuple(sorted({x for eid in edge_ids for x in ends[eid]}))
                for v in vertices:
                    blocks_of_vertex[v].append(bid)
                edge_ids.sort()
                best = max(map(nums.__getitem__, edge_ids))
                blocks.append(Block(vertices, tuple(edge_ids), best))
            self.parts.append((root, start, size))
        # a vertex is a cut vertex exactly when it lies in several blocks
        self.cut_vertices = tuple(
            v for v, bids in enumerate(blocks_of_vertex) if len(bids) > 1
        )
        cuts = {}  # only the blocks that have cut vertices
        for v in self.cut_vertices:
            for bid in blocks_of_vertex[v]:
                cuts.setdefault(bid, []).append(v)
        for bid, vs in cuts.items():
            blocks[bid].cuts = tuple(vs)
        self.blocks = tuple(blocks)
        self.blocks_of_vertex = tuple(map(tuple, blocks_of_vertex))
        self.block_of_edge = tuple(block_of_edge)

    def walk(self, root_block):
        """The blocks of ``root_block``'s component as ``(block, parent
        cut)`` pairs in postorder, ``(root_block, None)`` last, so
        ``dict(walk)`` is the parent map.

        A block's child cuts are its ``cuts`` but its parent cut, in that
        order, and the child blocks of cut ``c`` under block ``b`` are
        ``blocks_of_vertex[c]`` but ``b``; the subtrees of a block's
        children come in that order before it.  Iterative, so the depth of
        the forest does not meet the recursion limit."""
        blocks, blocks_of_vertex = self.blocks, self.blocks_of_vertex
        # a preorder that meets a block's children last-first, reversed
        order = []
        stack = [(root_block, None)]
        while stack:
            b, parent = stack.pop()
            order.append((b, parent))
            for c in blocks[b].cuts:
                if c != parent:
                    for b2 in blocks_of_vertex[c]:
                        if b2 != b:
                            stack.append((b2, c))
        order.reverse()
        return order


class Component:
    """One connected component of a graph on the graph's own ids, as the
    drawers read it: the block ids ``block_ids`` of the forest ``tree``,
    the smallest vertex ``root``, the vertex count ``n``, the graph's
    ``ends`` and the component's weight view ``scaled``."""

    __slots__ = ("tree", "block_ids", "root", "n", "ends", "scaled")

    def __init__(self, g, tree, c):
        self.tree = tree
        self.root, start, self.n = tree.parts[c]
        stop = tree.parts[c + 1][1] if c + 1 < len(tree.parts) else len(tree.blocks)
        self.block_ids = range(start, stop)
        self.ends = g.ends
        self.scaled = tree.nums, tree.dens[c]


def component(g):
    """``g`` if it is a :class:`Component`, else the one component of the
    connected graph ``g`` (:class:`PreconditionError` if it is not)."""
    return g if isinstance(g, Component) else Component(g, BlockCutTree(g), 0)


def components(g):
    """The connected components of ``g`` as :class:`Component` objects, in
    order of smallest vertex id, from one block-cut pass over ``g``."""
    tree = BlockCutTree(g, forest=True)
    return (Component(g, tree, c) for c in range(len(tree.parts)))


def build_bc_tree(g):
    """The :meth:`BlockCutTree.walk` of a connected graph or a
    :class:`Component`, rooted at the block containing its smallest-id
    maximum-weight edge."""
    part = component(g)
    tree, ids = part.tree, part.block_ids
    blocks, nums = tree.blocks, part.scaled[0]
    top = max(blocks[b].max_weight for b in ids)  # None for a lone vertex
    best = min((e for b in ids if blocks[b].max_weight == top
                for e in blocks[b].edge_ids if nums[e] == top), default=None)
    return tree.walk(ids[0] if best is None else tree.block_of_edge[best])
