"""Weighted graph model, exact I/O, connectivity, and the block-cut-vertex tree."""

from __future__ import annotations

import json
import math
from array import array
from fractions import Fraction

from .errors import GraphFormatError, PreconditionError
from .exact import format_rational, parse_rational


def _word_numerators(edges):
    """The weights over their least common denominator ``den``, as
    ``(array("q"), den)`` at 8 bytes an edge; None if a number needs more than
    64 bits (huge weights, or coprime denominators, whose lcm grows with m)."""
    den = 1
    for d in {w.denominator for _, _, w in edges}:
        if (den := math.lcm(den, d)) >= 2**63:
            return None
    try:
        return array("q", (w.numerator * (den // w.denominator) for _, _, w in edges)), den
    except OverflowError:
        return None


class WeightedGraph:
    """Undirected simple graph with exact positive rational edge weights.

    Vertex labels are interned to dense integers ``0..n-1`` in first-seen
    order; every internal structure works on the dense ids.  Instances are
    immutable after construction and safe to share across threads.
    """

    __slots__ = ("labels", "label_index", "edges", "adjacency", "_edge_lookup", "_scaled")

    def __init__(self, labels, edges):
        """``labels``: iterable of strings; ``edges``: triples (u, v, w) of dense ids."""
        self.labels = tuple(labels)
        self.label_index = {lab: i for i, lab in enumerate(self.labels)}
        if len(self.label_index) != len(self.labels):
            raise GraphFormatError("duplicate vertex label", kind="syntax")
        n = len(self.labels)
        lookup = {}
        checked = []
        for eid, (u, v, w) in enumerate(edges):
            if u == v:
                raise GraphFormatError(
                    f"self-loop at vertex {self.labels[u]!r}", kind="self-loop"
                )
            if not (0 <= u < n and 0 <= v < n):
                raise GraphFormatError("edge endpoint out of range", kind="syntax")
            key = (u, v) if u < v else (v, u)
            if key in lookup:
                raise GraphFormatError(
                    f"duplicate edge {self.labels[u]!r}--{self.labels[v]!r}",
                    kind="duplicate-edge",
                )
            if type(w) is not Fraction:
                w = Fraction(w)
            # exact: a Fraction's denominator is always positive
            if w.numerator <= 0:
                raise GraphFormatError(
                    f"non-positive weight {w} on edge "
                    f"{self.labels[u]!r}--{self.labels[v]!r}",
                    kind="non-positive-weight",
                )
            lookup[key] = eid
            checked.append((u, v, w))
        self._link(checked, lookup)

    @classmethod
    def _of_checked(cls, labels, edges):
        """Graph over distinct ``labels`` and ``edges`` taken from a graph
        that is already checked: dense ids, no self-loops, no duplicate
        edges, positive ``Fraction`` weights.  Skips the per-edge checks."""
        g = cls.__new__(cls)
        g.labels = tuple(labels)
        g.label_index = {lab: i for i, lab in enumerate(g.labels)}
        g._link(edges, {
            ((u, v) if u < v else (v, u)): eid for eid, (u, v, _) in enumerate(edges)
        })
        return g

    def _link(self, edges, lookup):
        adjacency = [[] for _ in self.labels]
        for eid, (u, v, _) in enumerate(edges):
            adjacency[u].append(eid)
            adjacency[v].append(eid)
        self.edges = tuple(edges)
        self.adjacency = tuple(map(tuple, adjacency))
        self._edge_lookup = lookup
        self._scaled = None

    # -- basic accessors ---------------------------------------------------

    @property
    def n(self):
        return len(self.labels)

    @property
    def m(self):
        return len(self.edges)

    def weight(self, eid):
        return self.edges[eid][2]

    @property
    def scaled(self):
        """``(nums, den)`` with ``Fraction(nums[e], den) == weight(e)``, computed
        on first use: :func:`_word_numerators`, or the Fraction weights over 1."""
        if self._scaled is None:
            self._scaled = _word_numerators(self.edges) or (tuple(e[2] for e in self.edges), 1)
        return self._scaled

    def endpoints(self, eid):
        u, v, _ = self.edges[eid]
        return u, v

    def other_end(self, eid, v):
        u, w, _ = self.edges[eid]
        return w if v == u else u

    def edge_between(self, u, v):
        """Edge id joining u and v, or None."""
        return self._edge_lookup.get((u, v) if u < v else (v, u))

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
                raise GraphFormatError(f"unknown vertex {label!r} (order[{i}])")
            ids.append(v)
        return ids

    def total_weight(self):
        return sum((w for _, _, w in self.edges), Fraction(0))

    def __eq__(self, other):
        return (
            isinstance(other, WeightedGraph)
            and self.labels == other.labels
            and self.edges == other.edges
        )

    def __hash__(self):
        return hash((self.labels, self.edges))

    def __repr__(self):
        return f"WeightedGraph(n={self.n}, m={self.m})"

    def induced(self, vertices):
        """Induced subgraph on the given dense ids.

        Returns ``(subgraph, to_sub)`` where ``to_sub`` maps original dense
        ids to the subgraph's dense ids.  Labels are preserved.
        """
        verts = sorted(set(vertices))
        to_sub = {v: i for i, v in enumerate(verts)}
        sub_edges = []
        for u, v, w in self.edges:
            if u in to_sub and v in to_sub:
                sub_edges.append((to_sub[u], to_sub[v], w))
        sub = WeightedGraph._of_checked([self.labels[v] for v in verts], sub_edges)
        return sub, to_sub


# -- parsing / serialization ----------------------------------------------


def _build_from_triples(vertex_labels, triples):
    labels = []
    index = {}

    def intern(label):
        if label not in index:
            index[label] = len(labels)
            labels.append(label)
        return index[label]

    for lab in vertex_labels:
        intern(lab)
    edges = []
    for u_lab, v_lab, w in triples:
        edges.append((intern(u_lab), intern(v_lab), w))
    return WeightedGraph(labels, edges)


def _coerce_label(value, where):
    if isinstance(value, str):
        return value
    if isinstance(value, (int, float)) and not isinstance(value, bool):
        if isinstance(value, float) and not value.is_integer():
            raise GraphFormatError(
                f"vertex labels must be strings or integers ({where})"
            )
        return str(int(value) if isinstance(value, float) else value)
    raise GraphFormatError(f"vertex labels must be strings or integers ({where})")


def _coerce_weight(value, where):
    if isinstance(value, bool):
        raise GraphFormatError(f"weight must be a string rational ({where})")
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, str):
        try:
            return parse_rational(value)
        except ValueError:
            raise GraphFormatError(
                f"malformed weight {value!r} ({where})", position=where
            ) from None
    raise GraphFormatError(
        f"weight must be a string rational, not {type(value).__name__} "
        f"(floats are inexact) ({where})",
        position=where,
    )


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


def _parse_json(text):
    try:
        doc = json.loads(text)
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
    triples = []
    edges = doc["edges"]
    if not isinstance(edges, list):
        raise GraphFormatError('"edges" must be an array')
    for i, entry in enumerate(edges):
        if not isinstance(entry, list) or len(entry) != 3:
            where = f"edges[{i}]"
            raise GraphFormatError(f"edge must be [u, v, w] ({where})", position=where)
        u, v, w = entry
        u = u if isinstance(u, str) else _coerce_label(u, f"edges[{i}]")
        v = v if isinstance(v, str) else _coerce_label(v, f"edges[{i}]")
        try:
            w = parse_rational(w)
        except ValueError:  # not a string, or malformed: reported as before
            w = _coerce_weight(w, f"edges[{i}]")
        triples.append((u, v, w))
    return _build_from_triples(vertex_labels, triples)


def _parse_edge_list(text):
    vertex_labels = []
    triples = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split()
        if len(parts) == 1:
            vertex_labels.append(parts[0])
            continue
        if len(parts) != 3:
            raise GraphFormatError(
                f"expected 'u v w', got {line!r}", line=lineno
            )
        try:
            w = parse_rational(parts[2])
        except ValueError:
            raise GraphFormatError(
                f"malformed weight {parts[2]!r}", line=lineno
            ) from None
        triples.append((parts[0], parts[1], w))
    return _build_from_triples(vertex_labels, triples)


def serialize_graph(g, format="json"):
    """Inverse of :func:`parse_graph`; round-trips bit-exactly."""
    if format == "json":
        doc = {
            "vertices": list(g.labels),
            "edges": [
                [g.labels[u], g.labels[v], format_rational(w)]
                for u, v, w in g.edges
            ],
        }
        return json.dumps(doc)
    if format == "edge-list":
        used = set()
        for u, v, _ in g.edges:
            used.add(u)
            used.add(v)
        lines = [
            f"{g.labels[u]} {g.labels[v]} {format_rational(w)}"
            for u, v, w in g.edges
        ]
        lines.extend(g.labels[v] for v in range(g.n) if v not in used)
        return "\n".join(lines) + ("\n" if lines else "")
    raise ValueError(f"unknown graph format {format!r}")


# -- connectivity ----------------------------------------------------------


def component_vertex_sets(g):
    """Vertex sets of connected components, ordered by smallest dense id."""
    n = g.n
    edges = g.edges
    adjacency = g.adjacency
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
                a, b, _ = edges[eid]
                u = b if a == v else a
                if not seen[u]:
                    seen[u] = True
                    comp.append(u)
                    stack.append(u)
        comps.append(sorted(comp))
    return comps


def component_subgraphs(g):
    """Connected components as ``(vertices, subgraph)`` pairs, ordered by
    smallest dense id.  ``vertices`` lists the component's dense ids in
    increasing order, so subgraph id ``i`` is ``vertices[i]`` in ``g``, and
    the subgraph equals ``g.induced(vertices)[0]``.

    The edges are split over the components in one pass; each subgraph is
    built only when the caller reaches it, so a caller that stops at a
    failing component builds no more.  A connected graph is its own
    single component.
    """
    comps = component_vertex_sets(g)
    if len(comps) == 1:
        yield comps[0], g
        return
    comp_of = [0] * g.n
    local = [0] * g.n
    for c, verts in enumerate(comps):
        for i, v in enumerate(verts):
            comp_of[v] = c
            local[v] = i
    parts = [[] for _ in comps]
    for u, v, w in g.edges:
        parts[comp_of[u]].append((local[u], local[v], w))
    labels = g.labels
    for verts, edges in zip(comps, parts):
        yield verts, WeightedGraph._of_checked([labels[v] for v in verts], edges)


def connected_components(g):
    """Maximal connected subgraphs, ordered by smallest vertex id."""
    return [sub for _, sub in component_subgraphs(g)]


def is_connected(g):
    return g.n <= 1 or len(component_vertex_sets(g)) == 1


# -- block-cut-vertex tree -------------------------------------------------


class Block:
    """One biconnected component: a vertex subset, an edge subset and
    ``max_weight``, the largest edge weight in units of ``1/g.scaled[1]`` (None if edgeless)."""

    __slots__ = ("vertices", "edge_ids", "max_weight")

    def __init__(self, vertices, edge_ids, max_weight):
        self.vertices = vertices
        self.edge_ids = edge_ids
        self.max_weight = max_weight

    def __repr__(self):
        return f"Block(vertices={self.vertices})"


def _biconnected_components(g):
    """Iterative Hopcroft-Tarjan. Returns (blocks as edge-id lists, cut flags).

    Raises :class:`PreconditionError` when the graph is not connected: the
    search from vertex 0 leaves some vertex unvisited.
    """
    n = g.n
    disc = [0] * n  # 0 = unvisited, else discovery index + 1
    low = [0] * n
    is_cut = [False] * n
    edge_stack = []
    blocks = []
    counter = 1
    adjacency = g.adjacency
    if n == 0:
        return blocks, is_cut
    disc[0] = low[0] = counter
    counter += 1
    root_children = 0
    # frames: [vertex, parent edge id, adjacency cursor]
    frames = [[0, -1, 0]]
    while frames:
        frame = frames[-1]
        v, parent_eid, cursor = frame
        adj = adjacency[v]
        advanced = False
        while cursor < len(adj):
            eid = adj[cursor]
            cursor += 1
            if eid == parent_eid:
                continue
            u = g.other_end(eid, v)
            if not disc[u]:
                frame[2] = cursor
                edge_stack.append(eid)
                disc[u] = low[u] = counter
                counter += 1
                frames.append([u, eid, 0])
                advanced = True
                break
            if disc[u] < disc[v]:
                edge_stack.append(eid)
                if disc[u] < low[v]:
                    low[v] = disc[u]
        if advanced:
            continue
        frames.pop()
        if frames:
            parent = frames[-1][0]
            if low[v] < low[parent]:
                low[parent] = low[v]
            if low[v] >= disc[parent]:
                if parent == 0:
                    root_children += 1
                    if root_children > 1:
                        is_cut[parent] = True
                else:
                    is_cut[parent] = True
                block = []
                while True:
                    top = edge_stack.pop()
                    block.append(top)
                    if top == parent_eid:
                        break
                blocks.append(block)
    if counter <= n:
        raise PreconditionError("block-cut-vertex tree requires a connected graph")
    return blocks, is_cut


class BlockCutTree:
    """Unrooted block decomposition of a connected graph.

    B-nodes are :class:`Block` objects indexed ``0..len(blocks)-1``; C-nodes
    are identified by their cut-vertex dense id.  Use :meth:`rooted` to attach
    rooting-dependent aggregates.
    """

    __slots__ = ("blocks", "cut_vertices", "blocks_of_vertex", "block_of_edge")

    def __init__(self, g):
        raw_blocks, is_cut = _biconnected_components(g)
        nums = g.scaled[0]
        blocks = []
        block_of_edge = [-1] * g.m
        blocks_of_vertex = [[] for _ in range(g.n)]
        for bid, edge_ids in enumerate(raw_blocks):
            verts = set()
            for eid in edge_ids:
                u, v, _ = g.edges[eid]
                verts.add(u)
                verts.add(v)
                block_of_edge[eid] = bid
            vertices = tuple(sorted(verts))
            for v in vertices:
                blocks_of_vertex[v].append(bid)
            best = max(nums[eid] for eid in edge_ids)
            blocks.append(Block(vertices, tuple(sorted(edge_ids)), best))
        if not blocks and g.n == 1:
            blocks.append(Block((0,), (), None))
            blocks_of_vertex[0].append(0)
        self.blocks = tuple(blocks)
        # a vertex is a cut vertex exactly when it lies in several blocks
        self.cut_vertices = tuple(
            v for v in range(g.n) if len(blocks_of_vertex[v]) > 1
        )
        assert self.cut_vertices == tuple(
            v for v in range(g.n) if is_cut[v]
        ), "articulation flags disagree with block membership"
        self.blocks_of_vertex = tuple(tuple(b) for b in blocks_of_vertex)
        self.block_of_edge = tuple(block_of_edge)

    def rooted(self, root_block):
        return RootedBCTree(self, root_block)


class RootedBCTree:
    """Rooting of a :class:`BlockCutTree` plus the subtree aggregates.

    For every B-node ``b``: ``parent_cut[b]`` (vertex id or None),
    ``child_cuts[b]``, ``w_plus[b]`` (max edge weight in the rooted subgraph,
    in units of ``1/g.scaled[1]`` as ``Block.max_weight``),
    ``n_plus_b[b]`` (vertex count of the rooted subgraph).  For every C-node
    ``c``: ``child_blocks[c]``, ``n_plus_c[c]``.
    """

    __slots__ = (
        "tree",
        "root",
        "parent_cut",
        "child_cuts",
        "child_blocks",
        "w_plus",
        "n_plus_b",
        "n_plus_c",
        "block_postorder",
    )

    def __init__(self, tree, root_block):
        self.tree = tree
        self.root = root_block
        nb = len(tree.blocks)
        cuts = set(tree.cut_vertices)
        self.parent_cut = [None] * nb
        self.child_cuts = [[] for _ in range(nb)]
        self.child_blocks = {c: [] for c in tree.cut_vertices}
        order = []
        seen_block = [False] * nb
        seen_block[root_block] = True
        queue = [root_block]
        while queue:
            b = queue.pop()
            order.append(b)
            for v in tree.blocks[b].vertices:
                if v in cuts and v != self.parent_cut[b]:
                    self.child_cuts[b].append(v)
                    for nb2 in tree.blocks_of_vertex[v]:
                        if not seen_block[nb2]:
                            seen_block[nb2] = True
                            self.parent_cut[nb2] = v
                            self.child_blocks[v].append(nb2)
                            queue.append(nb2)
        # `order` is a DFS preorder over B-nodes; reversed it is a postorder.
        self.block_postorder = tuple(reversed(order))
        self.w_plus = [None] * nb
        self.n_plus_b = [0] * nb
        self.n_plus_c = {}
        for b in self.block_postorder:
            block = tree.blocks[b]
            w = block.max_weight
            count = len(block.vertices)
            for c in self.child_cuts[b]:
                # Each cut has a unique parent block, so this runs once per cut.
                cc = 1
                for b2 in self.child_blocks[c]:
                    cc += self.n_plus_b[b2] - 1
                    wc = self.w_plus[b2]
                    if wc is not None and (w is None or wc > w):
                        w = wc
                self.n_plus_c[c] = cc
                count += cc - 1
            self.w_plus[b] = w
            self.n_plus_b[b] = count


def build_bc_tree(g):
    """Block-cut-vertex tree of a connected graph, rooted at the block
    containing the smallest-id maximum-weight edge."""
    tree = BlockCutTree(g)
    if g.m == 0:
        return tree.rooted(0)
    # max returns the first maximum met, so the smallest id on a tie
    best = max(range(g.m), key=g.scaled[0].__getitem__)
    return tree.rooted(tree.block_of_edge[best])
