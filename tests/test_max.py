"""The max-class drawer against the oracle and hand-checked examples."""

from fractions import Fraction

import pytest

from bookembed.blocks import forced_block_order, rooted_block_orders
from bookembed.embedding import BookEmbedding, Failure, validate_max
from bookembed.errors import NotOuterplanarError
from bookembed.exact import INF
from bookembed.graph import BlockCutTree, build_bc_tree
from bookembed.maxdraw import embed_max, max_be_drawer, star_sort_demo
from bookembed.oracle import oracle_exists, random_outerplanar

from conftest import coprime, fractional, graph_from, small_corpus

import planted  # the benchmark's generator (perfbench/planted.py)


def test_biconnected_triangle(triangle_5_6_11):
    g = triangle_5_6_11
    L = max_be_drawer(g)
    assert isinstance(L, BookEmbedding)
    heavy = g.edge_between(0, 2)
    assert {L.order[0], L.order[-1]} == set(g.endpoints(heavy))
    assert L.order == (0, 1, 2)


def test_biconnected_equal_triangle(triangle_equal):
    res = max_be_drawer(triangle_equal)
    assert isinstance(res, Failure) and res.condition == 1


def test_biconnected_k2(k2):
    assert max_be_drawer(k2).order == (0, 1)


def test_drawer_star_examples():
    eq = graph_from([("c", "a", 1), ("c", "b", 1), ("c", "d", 1)])
    res = max_be_drawer(eq)
    assert isinstance(res, Failure) and res.condition == 3
    ok = graph_from([("c", "a", 1), ("c", "b", 2), ("c", "d", 3)])
    out = max_be_drawer(ok)
    assert isinstance(out, BookEmbedding)
    assert validate_max(ok, out) is None


def test_drawer_path():
    g = graph_from([("a", "b", 2), ("b", "c", 1)])
    out = max_be_drawer(g)
    assert isinstance(out, BookEmbedding)
    assert validate_max(g, out) is None


def test_drawer_not_outerplanar():
    k4 = graph_from(
        [("a", "b", 1), ("a", "c", 2), ("a", "d", 3),
         ("b", "c", 4), ("b", "d", 5), ("c", "d", 6)]
    )
    with pytest.raises(NotOuterplanarError):
        max_be_drawer(k4)


def test_failure_conditions_witness():
    eq = graph_from([("a", "b", 1), ("b", "c", 1), ("a", "c", 1)])
    res = max_be_drawer(eq)
    assert res.condition == 1 and res.detail == "no unique maximum-weight edge"
    star = graph_from([("c", "a", 1), ("c", "b", 1), ("c", "d", 1)])
    res = max_be_drawer(star)
    assert res.condition == 3 and len(res.weights) == 3
    # a-b roots the triangle with c inside its order; the leaf edge c-d
    # outweighs both triangle edges at c
    g = graph_from(
        [("a", "b", 10), ("a", "c", "1/3"), ("c", "b", "1/2"), ("c", "d", "2/3")]
    )
    res = max_be_drawer(g)
    assert res.condition == 3 and res.cut_vertex == g.resolve("c")
    assert res.weights[0] == Fraction(2, 3)
    assert sorted(res.weights[1:]) == [Fraction(1, 3), Fraction(1, 2)]
    assert all(type(w) is Fraction for w in res.weights)


def test_oracle_agreement_corpus():
    for g in small_corpus(250, weights=(1, 12), seed0=5000):
        got = max_be_drawer(g)
        assert isinstance(got, BookEmbedding) == oracle_exists(g, "max").exists
        if isinstance(got, BookEmbedding):
            assert validate_max(g, got) is None


@pytest.mark.parametrize("weighted", [fractional, coprime])
def test_oracle_agreement_fractional_weights(weighted):
    # a distinct denominator per edge: the drawer's scaled integers have a
    # common denominator above 1 (fractional), or past 256 bits the view
    # holds the Fractions themselves (coprime)
    seen = set()
    for g in map(weighted, small_corpus(200, weights=(1, 12), seed0=4242)):
        got = max_be_drawer(g)
        exists = oracle_exists(g, "max", exhaustive=True).exists
        assert isinstance(got, BookEmbedding) == exists
        if exists:
            assert validate_max(g, got) is None
        else:
            seen.add(got.condition)
            weights = {w for _, _, w in g.edges}
            assert all(type(w) is Fraction and w in weights for w in got.weights)
    assert seen == {1, 2, 3}


def test_extreme_parent_property():
    # in every success the parent cut of each block is first or last among
    # the subtree's vertices
    for g in small_corpus(150, weights=(1, 9), seed0=777):
        out = max_be_drawer(g)
        if not isinstance(out, BookEmbedding) or g.n < 3:
            continue
        rooted = build_bc_tree(g)
        pos = out.position
        for bid in range(len(rooted.tree.blocks)):
            parent = rooted.parent_cut[bid]
            if parent is None:
                continue
            subtree = set()
            stack = [bid]
            while stack:
                b = stack.pop()
                subtree.update(rooted.tree.blocks[b].vertices)
                for c in rooted.child_cuts[b]:
                    stack.extend(rooted.child_blocks[c])
            positions = sorted(pos[v] for v in subtree)
            assert pos[parent] in (positions[0], positions[-1])


def test_monotone_star_sides():
    star = graph_from([("c", f"u{i}", 3 + i) for i in range(6)])
    out = max_be_drawer(star)
    pos_c = out.position[0]
    left = [star.weight(star.edge_between(0, v)) for v in out.order[:pos_c]]
    right = [star.weight(star.edge_between(0, v)) for v in out.order[pos_c + 1:]]
    assert left == sorted(left, reverse=True)
    assert right == sorted(right)


def test_star_sort_demo():
    assert star_sort_demo([3, 1, 2]) == [1, 2, 3]
    assert star_sort_demo([5]) == [5]
    assert star_sort_demo([2, 1]) == [1, 2]
    assert star_sort_demo([]) == []
    with pytest.raises(ValueError):
        star_sort_demo([2, 2])
    assert star_sort_demo([Fraction(5, 2), 2, 3]) == [2, Fraction(5, 2), 3]


def test_embed_max_components():
    g = graph_from(
        [("a", "b", 2), ("c", "d", 1)], vertices=["z"]
    )
    out = embed_max(g)
    assert isinstance(out, BookEmbedding)
    assert out.order[-1] == g.resolve("z")  # isolated vertex at the right end
    assert validate_max(g, out) is None


def _lowest_edges_by_scan(g, tree, bid, order, x):
    """Weights of the lowest-left and lowest-right edges at ``order[x]``
    (INF where there is none), found by scanning the vertex's whole
    adjacency for the edges of block ``bid``: the rule the drawers used
    before the forced orders carried their consecutive-edge weights."""
    pos = {v: i for i, v in enumerate(order)}
    v = order[x]
    left = right = None
    lw = rw = INF
    nums = g.scaled[0]
    for eid in g.adjacency[v]:
        if tree.block_of_edge[eid] != bid:
            continue
        a, b = g.ends[eid]
        q = pos[b if a == v else a]
        if q < x:
            if left is None or q > left:
                left, lw = q, nums[eid]
        elif right is None or q < right:
            right, rw = q, nums[eid]
    return lw, rw


def _assert_steps_are_the_lowest_edges(g, tree, bid, order, steps):
    assert len(steps) == len(order) - 1
    for flip in (False, True):
        if flip:
            order, steps = order[::-1], steps[::-1]
        padded = [INF, *steps, INF]
        for x in range(len(order)):
            assert _lowest_edges_by_scan(g, tree, bid, order, x) == (padded[x], padded[x + 1])


def _step_corpus():
    for seed in range(600):
        weights = ((1, 2), (1, 3), (1, 6), (1, 10**6))[seed % 4]
        yield random_outerplanar(
            2 + seed % 39, weights, seed=seed, biconnected=(seed // 4) % 2 == 1
        )
    for cls in ("max", "sum"):
        for seed in range(6):
            yield planted.planted_yes(120, cls, seed, seed % 3 == 2).graph


def test_block_steps_are_the_lowest_edges_of_every_vertex():
    checked = 0
    for g in _step_corpus():
        tree = BlockCutTree(g)
        for under in (max, sum):
            for bid, block in enumerate(tree.blocks):
                order, steps, detail = forced_block_order(g, block, under, "r")
                if order is None:
                    assert steps is None and detail
                    continue
                _assert_steps_are_the_lowest_edges(g, tree, bid, order, steps)
                checked += len(order) > 2
        # the orders as the drawers get them, parent cut vertex first
        rooted = build_bc_tree(g)
        orders, steps, failure = rooted_block_orders(g, rooted, max, "r")
        if failure is None:
            for bid, order in orders.items():
                _assert_steps_are_the_lowest_edges(g, tree, bid, order, steps[bid])
    assert checked > 500  # cycles with chords, not only bridges


def test_max_drawer_reads_each_adjacency_entry_at_most_once_on_a_star():
    reads = 0

    class CountingRow(tuple):
        """An adjacency row that counts the entries read through it."""

        def __iter__(self):
            nonlocal reads
            for eid in super().__iter__():
                reads += 1
                yield eid

    leaves = 2000
    g = graph_from([("c", f"u{i}", (i * 7919) % leaves + 1) for i in range(leaves)])
    assert len(set(g.weights)) == g.m
    g.adjacency = tuple(map(CountingRow, g.adjacency))
    out = max_be_drawer(g)
    assert 0 < reads <= 2 * g.m
    assert isinstance(out, BookEmbedding) and validate_max(g, out) is None
