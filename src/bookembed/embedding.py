"""Book embeddings: the linear-order type, the exact validators for each
embedding class, and the weight/burden metrics."""

from __future__ import annotations

import bisect
import heapq
import json
from dataclasses import dataclass
from fractions import Fraction

from .errors import NotOnePageError, PreconditionError
from .exact import INF, format_ratio, read_json
from .graph import components
from .outerplanar import nesting_forest, span


class BookEmbedding:
    """A linear order of all vertices plus its inverse position map."""

    __slots__ = ("order", "_position")

    def __init__(self, order):
        self.order = tuple(order)
        self._position = None

    @property
    def position(self):
        """Order position by vertex id (-1 if absent), built on first use."""
        if self._position is None:
            position = [-1] * (max(self.order) + 1 if self.order else 0)
            for i, v in enumerate(self.order):
                position[v] = i
            self._position = tuple(position)
        return self._position

    def flip(self):
        return BookEmbedding(self.order[::-1])

    def __len__(self):
        return len(self.order)

    def __eq__(self, other):
        return isinstance(other, BookEmbedding) and self.order == other.order

    def __hash__(self):
        return hash(self.order)

    def __repr__(self):
        return f"BookEmbedding{self.order}"

    def to_json(self, g):
        return json.dumps([g.labels[v] for v in self.order])

    @staticmethod
    def from_json(text, g):
        return BookEmbedding(g.resolve_labels(read_json(text)))


@dataclass(frozen=True)
class Failure:
    """Why a drawer found no embedding of its class.

    ``condition`` names the rule that failed, as each drawer documents it
    (None when the drawer gives no finer reason); ``detail`` says it in
    words.  ``block`` and ``cut_vertex`` locate it in the block-cut-vertex
    tree, ``anchor`` is the anchored edge of a minres attempt, and
    ``weights`` holds the weights a failed comparison read.
    """

    condition: object
    detail: str
    block: int = None
    cut_vertex: int = None
    anchor: int = None
    weights: tuple = ()


def per_component(g, drawer):
    """Run ``drawer`` on every component (a ``graph.Component``, on ``g``'s
    ids) with two or more vertices, in order of smallest vertex id, and
    concatenate the orders; single-vertex components go to the right end.
    The first result that is not a :class:`BookEmbedding` is returned as it
    is, and no later component is drawn."""
    order = []
    tail = []
    for part in components(g):
        if part.n == 1:
            tail.append(part.root)
            continue
        result = drawer(part)
        if not isinstance(result, BookEmbedding):
            return result
        order.extend(result.order)
    return BookEmbedding(order + tail)


def _check_permutation(g, embedding):
    if sorted(embedding.order) != list(range(g.n)):
        raise PreconditionError("order is not a permutation of the vertex set")


def is_one_page(g, embedding):
    """True iff no two edges cross in the given order."""
    try:
        _forest_or_raise(g, embedding)
    except NotOnePageError:
        return False
    return True


def _forest_or_raise(g, embedding):
    """``(spans, walk, children, roots)``: the span of every edge, by edge
    id, and their nesting forest, whose node i is thus edge i."""
    _check_permutation(g, embedding)
    pos = embedding.position
    spans = [span(pos, u, v) + (eid,) for eid, (u, v) in enumerate(g.ends)]
    return (spans, *nesting_forest(g.n, spans))


@dataclass(frozen=True)
class OnePageViolation:
    """Two edges cross in the order."""

    def to_json(self, g, embedding=None):
        return {"crossing": True}


def validate_one_page(g, embedding):
    """None if no two edges cross, else a :class:`OnePageViolation`."""
    return None if is_one_page(g, embedding) else OnePageViolation()


def _labelled(g, eid):
    """Edge ``eid`` as the violation documents print it: ``[u, v, w]``
    with labels and the weight's exact string."""
    u, v = g.ends[eid]
    ps, qs = g.ratios()
    return [g.labels[u], g.labels[v], format_ratio(ps[eid], qs[eid])]


@dataclass(frozen=True)
class MaxViolation:
    """An edge pair breaking the strictly-heavier-wrapper rule."""

    outer_edge: int
    inner_edge: int

    def to_json(self, g, embedding=None):
        ou, ov = g.ends[self.outer_edge]
        iu, iv = g.ends[self.inner_edge]
        doc = {
            "class": "max",
            "edge_ids": [self.outer_edge, self.inner_edge],
            "outer": _labelled(g, self.outer_edge),
            "inner": _labelled(g, self.inner_edge),
        }
        if embedding is not None:
            pos = embedding.position
            doc["positions"] = {
                "outer": list(span(pos, ou, ov)),
                "inner": list(span(pos, iu, iv)),
            }
        return doc


@dataclass(frozen=True)
class SumViolation:
    """An edge whose weight does not exceed some disjoint sequence under it."""

    edge: int
    witness: tuple  # edge ids of a maximum-weight antichain under `edge`

    def to_json(self, g, embedding=None):
        u, v = g.ends[self.edge]
        doc = {
            "class": "sum",
            "edge_id": self.edge,
            "witness_ids": list(self.witness),
            "edge": _labelled(g, self.edge),
            "witness": [_labelled(g, e) for e in self.witness],
        }
        if embedding is not None:
            pos = embedding.position
            doc["positions"] = list(span(pos, u, v))
        return doc


@dataclass(frozen=True)
class MinresViolation:
    """An edge with weight below burden + 1."""

    edge: int
    burden: int

    def to_json(self, g, embedding=None):
        u, v = g.ends[self.edge]
        doc = {
            "class": "minres",
            "edge_id": self.edge,
            "edge": _labelled(g, self.edge),
            "burden": self.burden,
        }
        if embedding is not None:
            pos = embedding.position
            doc["positions"] = list(span(pos, u, v))
        return doc


def validate_max(g, embedding):
    """None if every wrapping edge strictly outweighs each edge it wraps,
    else the first violating pair in lexicographic span order.

    Checking parent/child pairs of the nesting forest suffices: strict
    inequality is transitive along nesting chains.  The forest is read in
    its walk, the spans' ``(left, -right)`` order, so the pair reported has
    the outer edge smallest in that order and, under it, the leftmost inner
    edge.
    """
    _spans, walk, children, _roots = _forest_or_raise(g, embedding)
    nums = g.scaled[0]
    for eid in walk:
        w = nums[eid]
        for kid in children[eid]:
            if not w > nums[kid]:
                return MaxViolation(eid, kid)
    return None


def validate_sum(g, embedding):
    """None if every edge strictly outweighs every sequence of disjointly
    placed edges under it, else a violation carrying a maximum-weight witness:
    for the violating edge smallest in ``(left, -right)``.

    The most weight placed disjointly under an edge is, summed over its
    children, each child's weight or, when more, the most under the child.
    The sums are taken over the forest's walk reversed, and the witness is
    rebuilt for the reported edge only, from the edges under it: the run of
    the walk after it up to the first span that starts at or past its right
    end.  So past the forest's one sort, time and memory are linear in the
    edge count.
    """
    spans, walk, children, _roots = _forest_or_raise(g, embedding)
    nums = g.scaled[0]
    best = [0] * len(children)
    for eid in reversed(walk):
        total = 0
        for kid in children[eid]:
            under, w = best[kid], nums[kid]
            total += under if under > w else w
        best[eid] = total
    for at, eid in enumerate(walk):
        if children[eid] and not nums[eid] > best[eid]:
            # a kid with more weight beneath it than its own gives way to
            # its kids, as in the sums
            witness = []
            open_kids = set(children[eid])
            right = spans[eid][1]
            for kid in walk[at + 1:]:
                if spans[kid][0] >= right:
                    break
                if kid in open_kids:
                    if best[kid] > nums[kid]:
                        open_kids.update(children[kid])
                    else:
                        witness.append(kid)
            return SumViolation(eid, tuple(witness))
    return None


def burdens(g, embedding):
    """Burden of every edge: the count of vertices strictly under it, which
    for a permutation order is the position span minus one."""
    _check_permutation(g, embedding)
    pos = embedding.position
    return tuple(abs(pos[u] - pos[v]) - 1 for u, v in g.ends)


def validate_minres_supporting(g, embedding):
    """None if ``weight >= burden + 1`` holds for every edge (exact
    comparison), else the first violating edge in span order.  Each edge
    is compared with its own burden only, so its reduced ``(p, q)`` serves
    and no graph-wide view is built."""
    spans, walk, _children, _roots = _forest_or_raise(g, embedding)
    ps, qs = g.ratios()
    for eid in walk:
        a, b, _eid = spans[eid]
        if ps[eid] < (b - a) * qs[eid]:  # the burden is b - a - 1
            return MinresViolation(eid, b - a - 1)
    return None


@dataclass
class EmbeddingMetrics:
    """Exact size measures of a 1-page embedding.

    ``left_residual`` / ``right_residual`` are indexed by order position;
    ``left_extension`` / ``right_extension`` / ``n_left`` / ``n_right`` are
    keyed by visible vertex id.  Residuals and the free space use the INF
    top element where the defining minimum is empty.
    """

    burden: tuple
    left_residual: tuple
    right_residual: tuple
    total_extension: Fraction
    free_space: object
    visible: tuple
    left_extension: dict
    right_extension: dict
    n_left: dict
    n_right: dict

    @property
    def residual_capacity(self):
        return self.right_residual[0]


def metrics(g, embedding):
    """All embedding metrics in one O((n+m) log m) pass.

    The burden of an edge equals its position span minus one, so the
    biconnected-augmentation detour (unit-weight consecutive edges plus one
    spanning edge) computes identical numbers; the minima below range over
    the original edges only, exactly as that construction prescribes.
    """
    spans, _walk, children, roots = _forest_or_raise(g, embedding)
    n = g.n
    pos = embedding.position
    beta = tuple(b - a - 1 for a, b, _ in spans)

    # Gap minima of slack = w - (burden+1) over edges covering each gap.
    slack = [g.weight(spans[i][2]) - (beta[i] + 1) for i in range(g.m)]
    gap_min = [INF] * max(n - 1, 0)
    by_left = sorted(range(g.m), key=lambda i: spans[i][0])
    heap = []
    ptr = 0
    for gap in range(n - 1):
        while ptr < len(by_left) and spans[by_left[ptr]][0] <= gap:
            i = by_left[ptr]
            heapq.heappush(heap, (slack[i], spans[i][1]))
            ptr += 1
        while heap and heap[0][1] <= gap:
            heapq.heappop(heap)
        if heap:
            gap_min[gap] = heap[0][0]
    right_residual = tuple(gap_min[i] if i < n - 1 else INF for i in range(n))
    left_residual = tuple(INF if i == 0 else gap_min[i - 1] for i in range(n))

    root_spans = [spans[i] for i in roots]  # left to right
    total = sum((g.weight(s[2]) for s in root_spans), Fraction(0))

    covered = [False] * n
    for a, b, _ in root_spans:
        for p in range(a + 1, b):
            covered[p] = True
    visible = tuple(embedding.order[p] for p in range(n) if not covered[p])

    left_ext, right_ext, n_left, n_right = {}, {}, {}, {}
    prefix = [Fraction(0)]
    for s in root_spans:
        prefix.append(prefix[-1] + g.weight(s[2]))
    rights = [s[1] for s in root_spans]
    lefts = [s[0] for s in root_spans]
    for v in visible:
        p = pos[v]
        k = bisect.bisect_right(rights, p)
        left_ext[v] = prefix[k]
        j = bisect.bisect_left(lefts, p)
        right_ext[v] = prefix[-1] - prefix[j]
        n_left[v] = p
        n_right[v] = n - 1 - p

    free = INF
    first = embedding.order[0] if n else None
    at_first = [eid for eid, end in enumerate(g.ends) if first in end]
    if at_first:
        low_eid = min(at_first, key=lambda e: pos[g.other_end(e, first)])
        under = sum((g.weight(k) for k in children[low_eid]), Fraction(0))
        free = g.weight(low_eid) - under

    return EmbeddingMetrics(
        burden=beta,
        left_residual=left_residual,
        right_residual=right_residual,
        total_extension=total,
        free_space=free,
        visible=visible,
        left_extension=left_ext,
        right_extension=right_ext,
        n_left=n_left,
        n_right=n_right,
    )
