"""The forced block orders of the max and sum classes against the outer-cycle
reference, and the small blocks that need no outer-cycle record in any
drawer."""

import sys
from functools import reduce
from operator import add

import pytest

from bookembed import outerplanar
from bookembed.blocks import forced_block_order
from bookembed.embedding import BookEmbedding, Failure
from bookembed.errors import NotOuterplanarError
from bookembed.graph import BlockCutTree, WeightedGraph
from bookembed.maxdraw import embed_max
from bookembed.minres import embed_minres
from bookembed.oracle import random_outerplanar
from bookembed.outerplanar import Cut, OuterCycle, block_outer_cycle, nesting_forest
from bookembed.sumdraw import embed_sum
from bookembed.twodim import one_page_order

from conftest import coprime, fractional, graph_from

import planted  # the benchmark's generator (perfbench/planted.py)


def forced_order_reference(g, block, parent, under, reason):
    """:func:`forced_block_order` through the outer-cycle machinery for every
    block: the block's record, its cut at the heaviest edge (a bridge's
    first cut from ``parent``), the nesting forest of the cut's spans for
    condition 1, its children's weights folded by ``under``, and ``steps``
    from the spans of consecutive positions."""
    record = block_outer_cycle(g, block.vertices, block.edge_ids)
    if record is None:
        raise NotOuterplanarError("block is not outerplanar")
    if len(block.vertices) == 2:
        s = block.vertices[0] if parent is None else parent
        return record.cuts(s)[0], (block.max_weight,), None
    nums = g.scaled[0]
    top = [eid for eid in block.edge_ids if nums[eid] == block.max_weight]
    if len(top) != 1:
        return None, None, Failure(1, "no unique maximum-weight edge")
    s, t = g.ends[top[0]]
    if t == parent or parent != s and t < s:
        s, t = t, s
    cut = record.cut(s, t)
    if cut is None:
        return None, None, Failure(1, "maximum-weight edge is not on the outer face")
    spans = cut.spans()
    _walk, children, _roots = nesting_forest(len(block.vertices), spans)
    for idx, kids in enumerate(children):
        if kids and not nums[spans[idx][2]] > reduce(under, [nums[spans[k][2]] for k in kids]):
            return None, None, Failure(1, reason)
    if parent not in (None, s):
        detail = "parent cut vertex is interior to the block order"
        return None, None, Failure(2, detail, cut_vertex=parent)
    steps = [0] * (len(block.vertices) - 1)
    for a, b, eid in spans:
        if b == a + 1:
            steps[a] = nums[eid]
    return cut, tuple(steps), None


def _reference_corpus():
    for seed in range(240):
        weights = ((1, 3), (1, 10**6))[seed % 2]
        g = random_outerplanar(2 + seed % 29, weights, seed=seed,
                               biconnected=(seed // 2) % 2 == 1)
        yield (g, fractional(g), coprime(g))[seed // 4 % 3]
    for cls in ("max", "sum"):
        for seed in range(8):
            yield planted.planted_no(30, cls, seed, seed % 2 == 1).graph


def _outcome(result, vertices):
    """What the drawers read of a forced order: its tuple, every block
    vertex's position, the steps and the failure."""
    order, steps, failure = result
    if order is None:
        return None, None, steps, failure
    return order.order(), [order.position(v) for v in vertices], steps, failure


def test_forced_orders_match_the_outer_cycle_reference():
    seen = {"small": 0, "large": 0, "condition 1": 0, "condition 2": 0, "tied": 0}
    for g in _reference_corpus():
        for block in BlockCutTree(g).blocks:
            if len(block.vertices) < 2:
                continue
            seen["small" if len(block.vertices) <= 3 else "large"] += 1
            for under in (max, add):
                for parent in (None, *block.vertices):
                    got = forced_block_order(g, block, parent, under, "r")
                    want = forced_order_reference(g, block, parent, under, "r")
                    assert _outcome(got, block.vertices) == _outcome(want, block.vertices), (
                        g.edges, block.vertices, parent, under)
                    failure = got[2]
                    if failure is not None and failure.condition == 1:
                        seen["tied" if failure.detail != "r" else "condition 1"] += 1
                    elif failure is not None:
                        seen["condition 2"] += 1
    assert min(seen.values()) > 50, seen


@pytest.mark.parametrize("edges", [
    # K4
    [("a", "b", 1), ("a", "c", 2), ("a", "d", 3), ("b", "c", 4), ("b", "d", 5), ("c", "d", 6)],
    # K2,3
    [("a", "x", 1), ("a", "y", 2), ("a", "z", 3), ("b", "x", 4), ("b", "y", 5), ("b", "z", 6)],
], ids=["K4", "K2,3"])
def test_a_block_that_is_not_outerplanar_raises_before_any_weight_test(edges):
    g = graph_from(edges)
    (block,) = BlockCutTree(g).blocks
    for build in (forced_block_order, forced_order_reference):
        for parent in (None, *block.vertices):
            with pytest.raises(NotOuterplanarError):
                build(g, block, parent, add, "r")


def _count(monkeypatch, target, name):
    """Count calls of ``target.name``, patched on ``target`` and wherever a
    bookembed module imported it by name."""
    original = getattr(target, name)
    calls = []

    def counted(*args, **kwargs):
        calls.append(1)
        return original(*args, **kwargs)

    monkeypatch.setattr(target, name, counted)
    for mod in list(sys.modules.values()):
        if getattr(mod, "__name__", "").startswith("bookembed") and (
            getattr(mod, name, None) is original
        ):
            monkeypatch.setattr(mod, name, counted)
    return calls


def _bridges_and_triangles():
    k = 12
    # a path of bridges, edge i weighing i + 1
    path = WeightedGraph([str(v) for v in range(k + 1)], [(i, i + 1, i + 1) for i in range(k)])
    # a chain of triangles on 2i, 2i + 1 and 2i + 2, the chord weighing 3
    # over two edges weighing 1
    chain = WeightedGraph([str(v) for v in range(2 * k + 1)], [
        e for i in range(k)
        for e in ((2 * i, 2 * i + 2, 3), (2 * i, 2 * i + 1, 1), (2 * i + 1, 2 * i + 2, 1))
    ])
    return [path, chain]


@pytest.mark.parametrize("g", _bridges_and_triangles(), ids=["bridges", "triangles"])
def test_bridges_and_triangles_need_no_outer_cycle(monkeypatch, g):
    cycles = _count(monkeypatch, outerplanar, "block_outer_cycle")
    forests = _count(monkeypatch, outerplanar, "nesting_forest")
    records = _count(monkeypatch, OuterCycle, "__init__")
    cuts = _count(monkeypatch, Cut, "__init__")
    for embed in (embed_max, embed_sum, embed_minres):
        assert isinstance(embed(g), BookEmbedding)
    assert sorted(one_page_order(g)) == list(range(g.n))
    assert (len(cycles), len(forests), len(records), len(cuts)) == (0, 0, 0, 0)
