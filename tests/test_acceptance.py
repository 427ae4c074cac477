"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with ``pytest tests/test_acceptance.py -v -s``.
"""

import time
from fractions import Fraction

import pytest

from bookembed.embedding import (
    BookEmbedding,
    validate_max,
    validate_minres_supporting,
    validate_sum,
)
from bookembed.graph import build_bc_tree, BlockCutTree
from bookembed.maxdraw import max_be_drawer, star_sort_demo
from bookembed.minres import minres_be_drawer, minres_be_drawer_anchor
from bookembed.oracle import (
    definitional_check,
    enumerate_one_page,
    oracle_exists,
    random_outerplanar,
)
from bookembed.outerplanar import nesting_forest, outerplane_embedding
from bookembed.seq import materialize
from bookembed.sumdraw import sum_be_drawer
from bookembed.twodim import (
    check_twodim,
    default_box_width,
    minres_construct,
    twodim_biconnected,
    twodim_general,
)

from conftest import subtree


def _corpus(count, weights, seed0, max_n=8):
    out = []
    for i in range(count):
        n = 1 + (i * 5) % max_n
        out.append(
            random_outerplanar(n, weights, seed=seed0 + i, biconnected=(i % 3 == 0))
        )
    return out


@pytest.fixture(scope="module")
def corpus_a():
    return _corpus(500, (1, 20), seed0=100_000)


@pytest.fixture(scope="module")
def corpus_b():
    return _corpus(300, (1, 6), seed0=200_000)


def test_criterion_1_oracle_agreement_max(corpus_a):
    start = time.perf_counter()
    for g in corpus_a:
        got = max_be_drawer(g)
        ok = isinstance(got, BookEmbedding)
        assert ok == oracle_exists(g, "max").exists
        if ok:
            assert validate_max(g, got) is None
    elapsed = time.perf_counter() - start
    assert elapsed < 60.0
    print(f"\nCRITERION 1 PASS - max agrees with the oracle on "
          f"{len(corpus_a)}/{len(corpus_a)} instances in {elapsed:.1f}s")


def test_criterion_2_oracle_agreement_sum(corpus_a):
    start = time.perf_counter()
    for g in corpus_a:
        got = sum_be_drawer(g)
        ok = isinstance(got, BookEmbedding)
        assert ok == oracle_exists(g, "sum").exists
        if ok:
            assert validate_sum(g, got) is None
            # full definitional sequence check, independent implementation
            assert definitional_check(g, got, "sum")
    elapsed = time.perf_counter() - start
    assert elapsed < 60.0
    print(f"\nCRITERION 2 PASS - sum agrees with the oracle on "
          f"{len(corpus_a)}/{len(corpus_a)} instances in {elapsed:.1f}s")


def test_criterion_3_oracle_agreement_minres(corpus_b):
    start = time.perf_counter()
    for g in corpus_b:
        got = minres_be_drawer(g)
        ok = isinstance(got, BookEmbedding)
        assert ok == oracle_exists(g, "minres-supporting").exists
        if ok:
            assert validate_minres_supporting(g, got) is None
            drawing = minres_construct(g, got)
            assert check_twodim(g, drawing, require_minres=True) == []
    elapsed = time.perf_counter() - start
    print(f"\nCRITERION 3 PASS - minres agrees with the oracle on "
          f"{len(corpus_b)}/{len(corpus_b)} instances in {elapsed:.1f}s")


def _direct_wrap_equality(g, drawing):
    pos = drawing.support.position
    spans = []
    for eid, (u, v, _) in enumerate(g.edges):
        a, b = pos[u], pos[v]
        if a > b:
            a, b = b, a
        spans.append((a, b, eid))
    _walk, children, _roots = nesting_forest(g.n, spans)
    for idx, kids in enumerate(children):
        eid = spans[idx][2]
        for k in kids:
            kid_eid = spans[k][2]
            assert drawing.rects[kid_eid][3] == drawing.rects[eid][2], (
                "direct-wrap tops must meet the wrapper's bottom exactly"
            )


def test_criterion_4_exact_area():
    count = 200
    for i in range(count):
        n = 3 + (i * 7) % 48
        g = random_outerplanar(n, (1, 50), seed=300_000 + i, biconnected=True)
        s, t = outerplane_embedding(g)[:2]
        total = g.total_weight()
        length = default_box_width(total)
        height = total / length
        drawing = twodim_biconnected(g, s, t, length, height)
        assert check_twodim(g, drawing, exact_box=(length, height)) == []
        _direct_wrap_equality(g, drawing)
    print(f"\nCRITERION 4 PASS - exact-area boxes on {count} biconnected "
          f"instances (zero tolerance)")


def test_criterion_5_eps_bound():
    count = 200
    for i in range(count):
        n = 2 + (i * 11) % 49
        g = random_outerplanar(n, (1, 50), seed=400_000 + i, biconnected=False)
        drawing = twodim_general(g, eps=1)
        assert drawing.area() <= g.total_weight() + 1
        assert check_twodim(g, drawing) == []
    print(f"\nCRITERION 5 PASS - area <= total+1 with all conditions on "
          f"{count} instances")


def test_criterion_6_worked_instances():
    from test_cli import run_cli

    tri = '{"edges":[["a","b","1"],["b","c","1"],["a","c","1"]]}'
    code_max, _, _ = run_cli(["embed-max"], stdin_text=tri)
    code_sum, _, _ = run_cli(["embed-sum"], stdin_text=tri)
    code_2d, _, _ = run_cli(["embed-2d", "--eps", "1"], stdin_text=tri)
    assert (code_max, code_sum, code_2d) == (1, 1, 0)

    from conftest import graph_from

    g = graph_from([("3", "4", 3), ("5", "7", 11), ("3", "7", 12)])
    order = BookEmbedding(g.resolve(v) for v in ["3", "4", "5", "7"])
    violation = validate_sum(g, order)
    assert violation is not None
    assert violation.edge == g.edge_between(g.resolve("3"), g.resolve("7"))
    assert sum(g.weight(e) for e in violation.witness) == 14
    print("\nCRITERION 6 PASS - worked instances behave as stated")


def test_criterion_7_sorting_reduction():
    import random

    rng = random.Random(7)
    weights = rng.sample(range(1, 10_000_000), 10_000)
    got = star_sort_demo(weights)
    assert got == sorted(Fraction(w) for w in weights)
    print("\nCRITERION 7 PASS - 10,000 weights sorted exactly via the star drawer")


def test_criterion_8_performance():
    g_big = random_outerplanar(100_000, (1, 20), seed=808, biconnected=False)
    start = time.perf_counter()
    max_be_drawer(g_big)
    t_max = time.perf_counter() - start
    assert t_max < 5.0

    g_sum = random_outerplanar(2_000, (1, 20), seed=809, biconnected=False)
    start = time.perf_counter()
    sum_be_drawer(g_sum)
    t_sum = time.perf_counter() - start
    assert t_sum < 30.0

    g_min = random_outerplanar(300, (1, 6), seed=810, biconnected=False)
    start = time.perf_counter()
    minres_be_drawer(g_min)
    t_min = time.perf_counter() - start
    assert t_min < 60.0

    from test_cli import run_cli

    code, csv, _ = run_cli(
        ["bench", "--algo", "max", "--sizes", "4000,16000,64000", "--seed", "4"]
    )
    assert code == 0
    rows = [line.split(",") for line in csv.strip().splitlines()[1:]]
    times = [float(r[2]) for r in rows]
    sizes = [int(r[1]) for r in rows]
    assert times == sorted(times), "growth must be monotone"
    # polynomially bounded: a 16x size growth must cost at most ~16^3
    assert times[-1] <= times[0] * (sizes[-1] / sizes[0]) ** 3
    print(f"\nCRITERION 8 PASS - max@100k {t_max:.2f}s, sum@2k {t_sum:.2f}s, "
          f"minres@300 {t_min:.2f}s; bench growth {times}")


def test_criterion_9_pareto_instrumentation(corpus_a, corpus_b):
    checked_nodes = 0

    for g in corpus_a:
        if g.n < 2:
            continue
        tree, walk = BlockCutTree(g), build_bc_tree(g)
        records = []
        sum_be_drawer(g, audit=lambda k, node, e, _r=records: _r.append((k, node, e)))
        for kind, node, entries in records:
            checked_nodes += 1
            if kind == "C":
                lams = [e[1] for e in entries]
                rhos = [e[2] for e in entries]
                assert all(x < y for x, y in zip(lams, lams[1:])), "(C2)"
                assert all(x > y for x, y in zip(rhos, rhos[1:])), "(C2)"
                assert len(entries) <= len(subtree(g, tree, walk, "C", node)), "front size bound"
                for rope, _lam, _rho in entries:
                    order = materialize(rope)
                    pos = {v: i for i, v in enumerate(order)}
                    inside = set(order)
                    for u, v, _w in g.edges:
                        if u in inside and v in inside:
                            a, b = sorted((pos[u], pos[v]))
                            assert not a < pos[node] < b, "(C1) cut visible"
            else:
                alphas = [e[1] for e in entries]
                taus = [e[2] for e in entries]
                assert all(x < y for x, y in zip(alphas, alphas[1:])), "(B2)"
                assert all(x < y for x, y in zip(taus, taus[1:])), "(B2)"
                assert len(entries) <= len(subtree(g, tree, walk, "B", node)), "front size bound"
                parent = dict(walk)[node]
                for rope, _a, _t in entries:
                    assert materialize(rope)[0] == parent, "(B1)"

    for g in corpus_b:
        if g.n < 2:
            continue
        tree = BlockCutTree(g)
        for e_star in range(g.m):
            records = []
            minres_be_drawer_anchor(
                g, e_star,
                audit=lambda k, node, p, _r=records: _r.append((k, node, p)),
            )
            walk = tree.walk(tree.block_of_edge[e_star])
            for kind, node, payload in records:
                checked_nodes += 1
                if kind == "C":
                    nls = [e[1] for e in payload]
                    assert all(x < y for x, y in zip(nls, nls[1:])), "(C2)"
                    bound = len(subtree(g, tree, walk, "C", node))
                    assert len(payload) <= bound, "front size bound"
                    for rope, nl, _nr in payload:
                        assert materialize(rope).index(node) == nl, "(C1)"
                else:
                    rope, residual = payload
                    parent = dict(walk)[node]
                    if parent is not None:
                        order = materialize(rope)
                        assert order[0] == parent, "(B1)"
                        # (B2): maximal residual among parent-first supports
                        sub, to_sub = g.induced(order)
                        best = None
                        first = to_sub[parent]
                        for cand in enumerate_one_page(sub):
                            if cand.order[0] != first:
                                continue
                            if validate_minres_supporting(sub, cand) is not None:
                                continue
                            r = _cand_residual(sub, cand)
                            if best is None or r > best:
                                best = r
                        assert best is not None and residual == best, "(B2)"
    print(f"\nCRITERION 9 PASS - front invariants held at {checked_nodes} "
          f"tree nodes with zero violations")


def _cand_residual(g, embedding):
    pos = embedding.position
    first = embedding.order[0]
    best = None
    for eid in g.adjacency[first]:
        (u, v), w = g.ends[eid], g.weight(eid)
        slack = w - abs(pos[u] - pos[v])
        if best is None or slack < best:
            best = slack
    return best
