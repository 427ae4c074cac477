"""The sum-class drawer: oracle agreement, Pareto invariants, completeness."""

from fractions import Fraction

import pytest

from bookembed.embedding import BookEmbedding, Failure, metrics, validate_sum
from bookembed.graph import BlockCutTree, build_bc_tree
from bookembed.oracle import enumerate_one_page, oracle_exists, random_outerplanar
from bookembed.seq import materialize
from bookembed.sumdraw import sum_be_drawer

from conftest import coprime, fractional, graph_from, small_corpus, subtree


def test_biconnected_triangles():
    t42 = graph_from([("a", "b", 4), ("b", "c", 2), ("a", "c", 1)])
    out = sum_be_drawer(t42)
    assert isinstance(out, BookEmbedding) and validate_sum(t42, out) is None
    t32 = graph_from([("a", "b", 3), ("b", "c", 2), ("a", "c", 1)])
    assert isinstance(sum_be_drawer(t32), Failure)
    k2 = graph_from([("a", "b", 7)])
    assert sum_be_drawer(k2).order == (0, 1)


def test_forced_heavy_antichain_rejected():
    # 4-cycle: the best order still puts {(3,4), (5,7)} under (3,7): 14 >= 12
    g = graph_from(
        [("3", "4", 3), ("4", "5", 1), ("5", "7", 11), ("3", "7", 12)]
    )
    res = sum_be_drawer(g)
    assert isinstance(res, Failure)
    assert not oracle_exists(g, "sum").exists


def test_two_triangles_sharing_cut():
    g = graph_from(
        [("a", "b", 4), ("b", "c", 2), ("a", "c", 1),
         ("a", "d", 4), ("d", "e", 2), ("a", "e", 1)]
    )
    got = sum_be_drawer(g)
    want = oracle_exists(g, "sum").exists
    assert isinstance(got, BookEmbedding) == want
    if isinstance(got, BookEmbedding):
        assert validate_sum(g, got) is None


def test_oracle_agreement_corpus():
    for g in small_corpus(250, weights=(1, 12), seed0=31337):
        got = sum_be_drawer(g)
        assert isinstance(got, BookEmbedding) == oracle_exists(g, "sum").exists
        if isinstance(got, BookEmbedding):
            assert validate_sum(g, got) is None


@pytest.mark.parametrize("weighted", [fractional, coprime])
def test_oracle_agreement_fractional_weights(weighted):
    # a distinct denominator per edge: the fronts' scaled integers have a
    # common denominator above 1 (fractional), or past 256 bits the view
    # holds the Fractions themselves (coprime)
    yes = 0
    for g in map(weighted, small_corpus(200, weights=(1, 12), seed0=4242)):
        got = sum_be_drawer(g)
        exists = oracle_exists(g, "sum", exhaustive=True).exists
        assert isinstance(got, BookEmbedding) == exists
        if exists:
            yes += 1
            assert validate_sum(g, got) is None
    assert 0 < yes < 200


def _collect_audit(records):
    def audit(kind, node, entries):
        records.append((kind, node, entries))

    return audit


def test_pareto_invariants_and_metrics_agreement():
    # (C1)/(C2), (B1)/(B2), size bounds, and stored values vs metrics()
    _check_fronts(small_corpus(120, weights=(1, 9), seed0=2024))


@pytest.mark.parametrize("weighted", [fractional, coprime])
def test_pareto_fronts_fractional_weights(weighted):
    # the audit converts the fronts' scaled numbers back to Fractions
    _check_fronts(map(weighted, small_corpus(120, weights=(1, 9), seed0=2024)))


def _check_fronts(graphs):
    for g in graphs:
        if g.n < 2:
            continue
        records = []
        out = sum_be_drawer(g, audit=_collect_audit(records))
        tree, walk = BlockCutTree(g), build_bc_tree(g)
        for kind, node, entries in records:
            assert all(type(x) is Fraction for e in entries for x in e[1:])
            if kind == "C":
                lams = [e[1] for e in entries]
                rhos = [e[2] for e in entries]
                assert all(x < y for x, y in zip(lams, lams[1:]))
                assert all(x > y for x, y in zip(rhos, rhos[1:]))
                assert len(entries) <= len(subtree(g, tree, walk, "C", node))
                for rope, lam, rho in entries:
                    order = materialize(rope)
                    sub, to_sub = g.induced(order)
                    L = BookEmbedding(to_sub[v] for v in order)
                    m = metrics(sub, L)
                    c_local = to_sub[node]
                    assert c_local in m.left_extension, "cut must be visible (C1)"
                    assert m.left_extension[c_local] == lam
                    assert m.right_extension[c_local] == rho
                    assert validate_sum(sub, L) is None
            else:
                alphas = [e[1] for e in entries]
                taus = [e[2] for e in entries]
                assert all(x < y for x, y in zip(alphas, alphas[1:]))
                assert all(x < y for x, y in zip(taus, taus[1:]))
                assert len(entries) <= len(subtree(g, tree, walk, "B", node))
                parent = dict(walk)[node]
                for rope, alpha, tau in entries:
                    order = materialize(rope)
                    assert order[0] == parent, "parent must be first (B1)"
                    sub, to_sub = g.induced(order)
                    L = BookEmbedding(to_sub[v] for v in order)
                    m = metrics(sub, L)
                    assert m.total_extension == tau
                    assert m.free_space == alpha
                    assert validate_sum(sub, L) is None


def test_c3_completeness_small_scale():
    # every sum-embedding of a cut subtree with the cut visible must be
    # dominated-or-equal by a stored entry
    for g in small_corpus(100, max_n=7, weights=(1, 6), seed0=909):
        if g.n < 3:
            continue
        records = []
        out = sum_be_drawer(g, audit=_collect_audit(records))
        tree, walk = BlockCutTree(g), build_bc_tree(g)
        for kind, node, entries in records:
            if kind != "C":
                continue
            sub, to_sub = g.induced(subtree(g, tree, walk, "C", node))
            c_local = to_sub[node]
            fronts = [(e[1], e[2]) for e in entries]
            for L in enumerate_one_page(sub):
                if validate_sum(sub, L) is not None:
                    continue
                m = metrics(sub, L)
                if c_local not in m.left_extension:
                    continue  # cut not visible
                lam = m.left_extension[c_local]
                rho = m.right_extension[c_local]
                assert any(fl <= lam and fr <= rho for fl, fr in fronts), (
                    "stored front must dominate every feasible embedding"
                )


def test_empty_pareto_names_the_first_failing_node_of_the_walk():
    # Several nodes of this graph have empty fronts.  The walk visits
    # the blocks in the order of build_bc_tree, each after its child cuts,
    # and block 11
    # comes before the failing cut vertex "15".
    g = random_outerplanar(26, (1, 6), seed=390)
    assert sum_be_drawer(g) == Failure(
        "empty-pareto", "no feasible block extension", block=11
    )
