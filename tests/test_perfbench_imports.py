"""The benchmark under ``perfbench/`` imports names from ``bookembed`` and
reads fields of its results; a rename in ``src`` must fail here, not only
when the benchmark runs."""

from types import SimpleNamespace

from bookembed import cli, graph, maxdraw, sumdraw
from bookembed.blocks import block_outer_cycle
from bookembed.graph import BlockCutTree
from bookembed.minres import minres_be_drawer_anchor

import harness  # the benchmark's modules; conftest puts perfbench/ on the path
import tracer
import workloads  # noqa: F401
from conftest import graph_from


def test_tracer_counts_max_rejections(tmp_path):
    path = tmp_path / "t.json"
    path.write_text('{"edges":[["a","b","1"],["b","c","1"],["a","c","1"]]}')
    trace = tracer.Tracer()
    trace.first_visit = True
    with trace.installed():
        code = cli.main(["embed-max", str(path), "--output", str(tmp_path / "out.json")])
    assert code == 1
    assert trace.counts["maxdraw.reject.cond1"] == 1


def test_anchor_probe_reads_an_integer_condition():
    g = graph_from([("a", "b", 1), ("b", "c", 1), ("a", "c", 1)])
    tree = BlockCutTree(g)
    cycles = [block_outer_cycle(g, b.vertices, b.edge_ids) for b in tree.blocks]
    result = minres_be_drawer_anchor(g, 0, decomposition=tree, cycles=cycles)
    assert isinstance(result.condition, int)
    bench = harness.Bench(tracer=tracer.Tracer())
    bench.probe_anchors(SimpleNamespace(key="t111", graph=g))
    counts = bench.tracer.counts
    assert counts["minres.anchors_tried"] == 3 and counts["minres.reject.cond1"] == 3
    assert bench.anchor_ok == 0


def test_tracer_times_the_drawers_rooting():
    # BlockCutTree is timed under the same layer, so a nonzero graph.bctree_s
    # alone would not show that the rooting is still timed
    patched = {(owner, attr) for owner, attr, original, _wrapper in tracer.Tracer()._patches
               if original is graph.build_bc_tree}
    assert {(maxdraw, "build_bc_tree"), (sumdraw, "build_bc_tree")} <= patched
