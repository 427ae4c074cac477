"""The resolution-supporting drawer: oracle agreement, front invariants,
residual optimality, end-to-end construction."""

from fractions import Fraction

import pytest

from bookembed import minres
from bookembed.embedding import BookEmbedding, Failure, validate_minres_supporting
from bookembed.graph import BlockCutTree, WeightedGraph
from bookembed.minres import embed_minres, minres_be_drawer, minres_be_drawer_anchor
from bookembed.oracle import enumerate_one_page, oracle_exists, random_outerplanar
from bookembed.outerplanar import Cut, block_outer_cycle
from bookembed.seq import materialize
from bookembed.twodim import check_twodim, minres_construct

import planted  # the benchmark's generator (perfbench/planted.py)
from conftest import coprime, cut_cycle, fractional, graph_from, small_corpus, subtree


def test_biconnected_with_edge_examples():
    t211 = graph_from([("a", "b", 2), ("b", "c", 1), ("a", "c", 1)])
    out = minres_be_drawer_anchor(t211, t211.edge_between(0, 1))
    assert isinstance(out, BookEmbedding)
    assert (out.order[0], out.order[-1]) == (0, 1)
    assert validate_minres_supporting(t211, out) is None
    t111 = graph_from([("a", "b", 1), ("b", "c", 1), ("a", "c", 1)])
    for eid in range(t111.m):
        res = minres_be_drawer_anchor(t111, eid)
        assert isinstance(res, Failure) and res.condition == 1
    k2 = graph_from([("a", "b", 1)])
    assert minres_be_drawer_anchor(k2, 0).order == (0, 1)


def test_drawer_examples():
    t211 = graph_from([("a", "b", 2), ("b", "c", 1), ("a", "c", 1)])
    assert isinstance(minres_be_drawer(t211), BookEmbedding)
    t111 = graph_from([("a", "b", 1), ("b", "c", 1), ("a", "c", 1)])
    assert isinstance(minres_be_drawer(t111), Failure)
    path = graph_from([("a", "b", 1), ("b", "c", 1), ("c", "d", 1)])
    out = minres_be_drawer(path)
    assert isinstance(out, BookEmbedding)
    assert validate_minres_supporting(path, out) is None
    pendant = graph_from(
        [("a", "b", 1), ("b", "c", 1), ("a", "c", 1), ("a", "p", 1)]
    )
    assert isinstance(minres_be_drawer(pendant), Failure)
    star = graph_from([("c", "a", 1), ("c", "b", 1), ("c", "d", 1)])
    assert isinstance(minres_be_drawer(star), BookEmbedding) == oracle_exists(
        star, "minres-supporting"
    ).exists


def test_anchor_failure_conditions():
    t111 = graph_from([("a", "b", 1), ("b", "c", 1), ("a", "c", 1)])
    res = minres_be_drawer_anchor(t111, 0)
    assert isinstance(res, Failure) and res.condition == 1
    star = graph_from([("c", "a", 1), ("c", "b", 1), ("c", "d", 1)])
    res = minres_be_drawer_anchor(star, 0)
    assert isinstance(res, Failure)


def test_anchor_success_leaves_anchor_unnested():
    g = graph_from([("c", "x", 2), ("c", "y", 1), ("c", "p", 1)])
    for e_star in range(g.m):
        res = minres_be_drawer_anchor(g, e_star)
        if isinstance(res, BookEmbedding):
            pos = res.position
            u, v = g.endpoints(e_star)
            a, b = sorted((pos[u], pos[v]))
            for eid in range(g.m):
                if eid == e_star:
                    continue
                x, y = g.endpoints(eid)
                c, d = sorted((pos[x], pos[y]))
                assert not (c <= a and b <= d), "anchor must not be nested"


def _divided(graphs, d):
    """The graphs with every weight divided by ``d`` (exact)."""
    return [
        WeightedGraph(g.labels, [(u, v, w / d) for u, v, w in g.edges])
        for g in graphs
    ]


def _assert_oracle_agreement(corpus):
    verdicts = set()
    for g in corpus:
        got = minres_be_drawer(g)
        ok = isinstance(got, BookEmbedding)
        verdicts.add(ok)
        assert ok == oracle_exists(g, "minres-supporting").exists
        if ok:
            assert validate_minres_supporting(g, got) is None
    assert verdicts == {True, False}


def test_oracle_agreement_corpus():
    _assert_oracle_agreement(small_corpus(250, weights=(1, 6), seed0=4242))


def test_oracle_agreement_fractional_weights():
    _assert_oracle_agreement(
        _divided(small_corpus(150, weights=(2, 18), seed0=4242), 3)
    )


def test_oracle_agreement_coprime_denominators():
    _assert_oracle_agreement(map(coprime, small_corpus(150, weights=(1, 6), seed0=4343)))


def test_front_invariants_and_b2_optimality():
    _assert_fronts_and_b2(small_corpus(120, max_n=7, weights=(1, 5), seed0=99))


def test_front_invariants_and_b2_fractional_weights():
    # a residual reported in scaled units (here 3x) fails (B2)
    _assert_fronts_and_b2(
        _divided(small_corpus(80, max_n=7, weights=(2, 15), seed0=99), 3)
    )


def _assert_fronts_and_b2(corpus):
    for g in corpus:
        if g.n < 3:
            continue
        tree = BlockCutTree(g)
        for e_star in range(g.m):
            records = []

            def audit(kind, node, payload):
                records.append((kind, node, payload))

            res = minres_be_drawer_anchor(g, e_star, audit=audit)
            walk = tree.walk(tree.block_of_edge[e_star])
            for kind, node, payload in records:
                if kind == "C":
                    nls = [e[1] for e in payload]
                    assert all(x < y for x, y in zip(nls, nls[1:])), "(C2)"
                    bound = len(subtree(g, tree, walk, "C", node))
                    assert len(payload) <= bound, "front size bound"
                    for rope, nl, nr in payload:
                        order = materialize(rope)
                        assert nl + nr + 1 == len(order)
                        p = order.index(node)
                        assert p == nl, "(C1) bookkeeping"
                        sub, to_sub = g.induced(order)
                        L = BookEmbedding(to_sub[v] for v in order)
                        assert validate_minres_supporting(sub, L) is None
                else:
                    rope, residual = payload
                    order = materialize(rope)
                    parent = dict(walk)[node]
                    if parent is None:
                        continue
                    assert order[0] == parent, "(B1)"
                    sub, to_sub = g.induced(order)
                    L = BookEmbedding(to_sub[v] for v in order)
                    assert validate_minres_supporting(sub, L) is None
                    # (B2): residual is maximal over supporting embeddings
                    # of the subtree with the parent first
                    best = None
                    first = to_sub[parent]
                    for cand in enumerate_one_page(sub):
                        if cand.order[0] != first:
                            continue
                        if validate_minres_supporting(sub, cand) is not None:
                            continue
                        r = _residual(sub, cand)
                        if best is None or r > best:
                            best = r
                    assert best is not None and residual == best, "(B2)"


def _residual(g, embedding):
    pos = embedding.position
    first = embedding.order[0]
    best = None
    for eid in g.adjacency[first]:
        (u, v), w = g.ends[eid], g.weight(eid)
        slack = w - abs(pos[u] - pos[v])
        if best is None or slack < best:
            best = slack
    return best


def test_end_to_end_construction():
    for g in small_corpus(150, weights=(1, 6), seed0=51):
        out = minres_be_drawer(g)
        if not isinstance(out, BookEmbedding):
            continue
        drawing = minres_construct(g, out)
        assert check_twodim(g, drawing, require_minres=True) == []


def test_drawer_is_first_anchor_success():
    corpus = _divided(small_corpus(120, max_n=9, weights=(2, 16), seed0=777), 3)
    corpus += _divided(
        [random_outerplanar(24, (2, 60), seed=s) for s in range(12)], 4
    )
    outcomes = set()
    for g in corpus:
        if g.n < 2:
            continue
        expected = Failure(None, "no supporting embedding")
        for e_star in range(g.m):
            result = minres_be_drawer_anchor(g, e_star)
            if isinstance(result, BookEmbedding):
                expected = result
                break
        outcomes.add(
            (isinstance(expected, BookEmbedding), len(BlockCutTree(g).blocks) > 1)
        )
        assert minres_be_drawer(g) == expected
    assert outcomes == {(True, True), (True, False), (False, True), (False, False)}


def test_long_path_draws_without_recursion():
    n = 5000
    g = WeightedGraph(
        [str(i) for i in range(n)], [(i, i + 1, Fraction(1)) for i in range(n - 1)]
    )
    out = minres_be_drawer(g)
    assert isinstance(out, BookEmbedding)
    assert validate_minres_supporting(g, out) is None


def test_empty_cut_fold_fails_every_anchor_with_condition_3():
    # four unit edges meet at "3", and only two neighbours can sit next to it
    g = random_outerplanar(6, (1, 3), seed=68)
    cut = g.resolve("3")
    for e_star in range(g.m):
        assert minres_be_drawer_anchor(g, e_star) == Failure(
            3, "no feasible combination at a cut vertex",
            cut_vertex=cut, anchor=e_star,
        )
    # in one shared search the anchor 2-3 reuses the cached failure at "3"
    assert minres_be_drawer(g) == Failure(None, "no supporting embedding")
    assert not oracle_exists(g, "minres-supporting").exists


def _supporting_cut(g, cycle, edge_ids, s, t):
    """Definitional condition 1: the cycle cut with s first and t last if
    every block edge weighs at least its span there, else None."""
    order = cut_cycle(cycle, s, t)
    if order is None:
        return None
    pos = {v: i for i, v in enumerate(order)}
    for eid in edge_ids:
        (u, v), w = g.ends[eid], g.weight(eid)
        if w < abs(pos[u] - pos[v]):
            return None
    return order


def _assert_sweep_matches_definition(graphs):
    verdicts = set()
    for g in graphs:
        if g.m == 0:
            continue
        tree = BlockCutTree(g)
        cycles = [block_outer_cycle(g, b.vertices, b.edge_ids) for b in tree.blocks]
        search = minres._AnchorSearch(g, tree, cycles)
        for bid, block in enumerate(tree.blocks):
            cycle = cycles[bid].cycle
            for i, s in enumerate(cycle):
                t = cycle[(i + 1) % len(cycle)]
                for first, last in ((s, t), (t, s)):
                    expected = _supporting_cut(g, cycle, block.edge_ids, first, last)
                    verdicts.add(expected is not None)
                    cut = cycles[bid].cut(first, last)
                    assert (list(cut.order()) if search._supports(bid, cut) else None) == expected
    assert verdicts == {True, False}


def test_sweep_matches_definition_on_corpus():
    corpus = small_corpus(200, max_n=10, weights=(1, 8), seed0=2024)
    _assert_sweep_matches_definition(corpus)
    _assert_sweep_matches_definition(map(fractional, corpus))
    with_fractions = [coprime(g) for g in corpus]
    assert all(g.scaled[1] == 1 for g in with_fractions)  # the Fraction view
    _assert_sweep_matches_definition(with_fractions)


def test_sweep_matches_definition_on_planted_instances():
    _assert_sweep_matches_definition(
        make(n, "minres", seed, biconnected).graph
        for make in (planted.planted_yes, planted.planted_no)
        for n, seed in ((40, 3), (300, 4), (1500, 5))
        for biconnected in (True, False)
    )


@pytest.mark.parametrize("biconnected", [True, False])
def test_every_block_is_swept_once_per_drawer_call(monkeypatch, biconnected):
    # a planted no-instance: every anchor fails, the most anchors a call
    # tries.  Only the blocks of four or more vertices have a record and a
    # sweep; the cycle of a bridge or a triangle is its vertex tuple.
    g = planted.planted_no(1000, "minres", 1, biconnected).graph
    tree = BlockCutTree(g)
    blocks = tree.blocks
    large = [bid for bid, block in enumerate(blocks) if len(block.vertices) > 3]
    swept, verdicts, orders, anchors = [], [], [], []
    search = minres._AnchorSearch
    sweep, run, supports, order_of = search._sweep, search.run, search._supports, Cut.order
    candidates, solve_pendant = search._candidates, search._solve_pendant

    def expected(self, bid, s, t):
        """The order of block ``bid`` from s to t if it meets condition 1 by
        definition, else None; the verdict is recorded with the block's
        shape."""
        block = blocks[bid]
        cycle = block.vertices if len(block.vertices) <= 3 else self.cycles[bid].cycle
        order = _supporting_cut(g, cycle, block.edge_ids, s, t)
        verdicts.append((len(block.vertices) <= 3, order is not None))
        return order

    def counted_sweep(self, bid):
        swept.append(bid)
        return sweep(self, bid)

    def checked_supports(self, bid, cut):
        verdict = supports(self, bid, cut)
        order = order_of(cut)
        assert (list(order) if verdict else None) == expected(self, bid, order[0], order[-1])
        return verdict

    def checked_candidates(self, bid, c):
        got = candidates(self, bid, c)
        vertices = blocks[bid].vertices
        if len(vertices) <= 3:  # every other vertex is a cycle neighbour of c
            want = [expected(self, bid, c, t) for t in vertices if t != c]
            assert [list(order.order()) for order in got] == [o for o in want if o is not None]
        return got

    def checked_pendant(self, bid, c):
        solved = solve_pendant(self, bid, c)
        block = blocks[bid]
        if len(block.vertices) == 2 and block.cuts == (c,):
            (t,) = set(block.vertices) - {c}
            assert solved == (expected(self, bid, c, t) is not None)
        else:
            assert not solved
        return solved

    def counted_order(cut):
        assert len(cut.record.cycle) > 3
        orders.append(cut)
        return order_of(cut)

    def checked_run(self, e_star):
        result = run(self, e_star)
        assert result is None or isinstance(result, Failure)  # None: condition 1
        bid = tree.block_of_edge[e_star]
        if len(blocks[bid].vertices) <= 3:
            s, t = sorted(g.ends[e_star])
            assert (result is None) == (expected(self, bid, s, t) is None)
        anchors.append(e_star)
        return result

    monkeypatch.setattr(search, "_sweep", counted_sweep)
    monkeypatch.setattr(search, "run", checked_run)
    monkeypatch.setattr(search, "_supports", checked_supports)
    monkeypatch.setattr(search, "_candidates", checked_candidates)
    monkeypatch.setattr(search, "_solve_pendant", checked_pendant)
    monkeypatch.setattr(Cut, "order", counted_order)
    for _call in range(2):
        swept.clear()
        anchors.clear()
        orders.clear()
        assert isinstance(embed_minres(g), Failure)
        assert anchors == list(range(g.m))
        assert sorted(swept) == large
        # biconnected: one block whose every cut fails, so no order is
        # built.  Connected: some cuts pass, and the blocks solved before a
        # walk meets its failure are extended, each once per parent.
        assert len(orders) <= len(blocks)
        assert (orders == []) == biconnected
    # biconnected: every cut of the one block fails.  Connected: both
    # verdicts, on the small blocks and on the larger ones
    large_verdicts = {ok for small, ok in verdicts if not small}
    small_verdicts = {ok for small, ok in verdicts if small}
    assert large_verdicts == ({False} if biconnected else {True, False})
    assert small_verdicts == (set() if biconnected else {True, False})


def test_each_node_below_a_root_is_entered_once_per_drawer_call(monkeypatch):
    # every anchor fails, and each walk meets its failure below the root
    g = planted.planted_no(2000, "minres", 1, False).graph
    tree = BlockCutTree(g)
    search = minres._AnchorSearch
    candidates = search._candidates
    process_cut, process_block = search._process_cut, search._process_block
    entered, solved = [], []

    def counted_candidates(self, bid, c):
        entered.append(("B", bid, c))
        return candidates(self, bid, c)

    def counted_cut(self, c, parent):
        entered.append(("C", c, parent))
        solved.append(("C", c, parent))
        return process_cut(self, c, parent)

    def counted_block(self, bid, parent, cuts):
        if parent is not None:  # a root block is solved once per anchor
            solved.append(("B", bid, parent))
        return process_block(self, bid, parent, cuts)

    monkeypatch.setattr(search, "_candidates", counted_candidates)
    monkeypatch.setattr(search, "_process_cut", counted_cut)
    monkeypatch.setattr(search, "_process_block", counted_block)
    assert isinstance(embed_minres(g), Failure)
    assert len(entered) <= 2 * sum(len(block.cuts) for block in tree.blocks)
    assert solved and len(set(solved)) == len(solved)


def test_a_pendant_bridge_is_solved_at_its_cut_without_a_frame(monkeypatch):
    entered = []
    candidates = minres._AnchorSearch._candidates

    def counted(self, bid, c):
        entered.append(bid)
        return candidates(self, bid, c)

    monkeypatch.setattr(minres._AnchorSearch, "_candidates", counted)
    # "b" and "d" hang from "c"; "d"'s bridge weighs exactly its span
    g = graph_from([("a", "c", 3), ("c", "d", 1), ("c", "b", 2)])
    assert isinstance(minres_be_drawer_anchor(g, 0), BookEmbedding)
    assert entered == []
    # a pendant bridge lighter than its span takes a frame, and fails there
    g = graph_from([("a", "c", 3), ("c", "b", Fraction(1, 2))])
    light = BlockCutTree(g).block_of_edge[1]
    assert minres_be_drawer_anchor(g, 0) == Failure(
        2, "no supporting order keeps the parent cut extreme",
        block=light, cut_vertex=g.resolve("c"), anchor=0,
    )
    assert entered == [light]


def test_records_of_every_block_change_no_anchor_result():
    # the call the traced benchmark makes passes the record of every block,
    # bridges and triangles included, which the search does not read
    corpus = small_corpus(90, max_n=12, weights=(1, 8), seed0=909)
    graphs = corpus + [fractional(g) for g in corpus] + [coprime(g) for g in corpus]
    graphs += [make(40, "minres", seed, seed % 2 == 0).graph
               for make in (planted.planted_yes, planted.planted_no) for seed in range(4)]
    graphs.append(random_outerplanar(6, (1, 3), seed=68))  # condition 3 at "3"
    outcomes = set()
    for g in graphs:
        tree = BlockCutTree(g)
        records = [block_outer_cycle(g, b.vertices, b.edge_ids) for b in tree.blocks]
        for e_star in range(g.m):
            runs = []
            for cycles in (None, records):
                audits = []
                result = minres_be_drawer_anchor(
                    g, e_star, decomposition=tree, cycles=cycles,
                    audit=lambda *record: audits.append(record),
                )
                runs.append((result, audits))
            assert runs[0] == runs[1]
            outcomes.add(getattr(runs[0][0], "condition", "ok"))
    assert outcomes == {"ok", 1, 2, 3, 4}


def test_shared_search_caches_agree_with_fresh_searches():
    # successes cached by a walk that later fails are reused by later
    # anchors; one of these graphs catches a failure cached on a sibling of
    # the failing path, which a later root reaches from another side
    corpus = small_corpus(150, max_n=16, weights=(1, 8), seed0=606)
    verdicts = set()
    for g in corpus + [fractional(g) for g in corpus] + [coprime(g) for g in corpus]:
        tree = BlockCutTree(g)
        cycles = [block_outer_cycle(g, b.vertices, b.edge_ids) for b in tree.blocks]
        search = minres._AnchorSearch(g, tree, cycles)
        failed = False
        for e_star in range(g.m):
            shared = search.run(e_star)
            fresh = minres_be_drawer_anchor(g, e_star)
            ok = isinstance(fresh, BookEmbedding)
            verdicts.add((ok, failed and len(tree.blocks) > 1))
            assert isinstance(shared, BookEmbedding) == ok
            assert (shared is None) == (not ok and fresh.condition == 1)
            if ok:
                assert shared == fresh
            failed = failed or not ok
    # successes and failures, also after a failed anchor in a shared search
    assert verdicts == {(True, False), (True, True), (False, False), (False, True)}
