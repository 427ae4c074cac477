"""Tests of the benchmark itself, at a tiny scale.

Run from the root of a checkout with ``python3 -m pytest perfbench/tests``.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
import time
from collections import Counter
from fractions import Fraction

import pytest

from bookembed.oracle import oracle_exists, random_outerplanar
from bookembed.twodim import TwoDimEmbedding, check_twodim, twodim_general

import check2d
import harness
import run
from planted import CLASSES, ORACLE_CLASS, disjoint_union, planted_no, planted_yes
from workloads import NAMES, Pool

BENCH = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ROOT = os.path.dirname(BENCH)

TINY = {
    "planted-yes": {"max": Pool(60, 3), "sum": Pool(60, 3),
                    "minres": Pool(60, 3, parts=2), "twodim": Pool(40, 3),
                    "oracle": Pool(6, 3)},
    "planted-no": {"max": Pool(60, 3), "sum": Pool(60, 3), "minres": Pool(30, 3),
                   "twodim": Pool(40, 3), "oracle": Pool(6, 3)},
    "small-certified": {"small": Pool(6, 4)},
}


def _spec():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        return json.load(handle)


# -- the planted generator ------------------------------------------------


@pytest.mark.parametrize("cls", CLASSES)
def test_planted_instances_agree_with_the_oracle(cls):
    for n in range(3, 9):
        for seed in range(3):
            for biconnected in (False, True):
                yes = planted_yes(n, cls, seed, biconnected)
                assert oracle_exists(yes.graph, ORACLE_CLASS[cls]).exists, (n, seed)
                no = planted_no(n, cls, seed, biconnected)
                assert not oracle_exists(no.graph, ORACLE_CLASS[cls]).exists, (n, seed)


def test_union_of_planted_components_keeps_the_verdict():
    for cls in CLASSES:
        parts = [planted_yes(n, cls, n, False) for n in (3, 4)]
        assert oracle_exists(disjoint_union(parts).graph, ORACLE_CLASS[cls]).exists
        parts.append(planted_no(3, cls, 0, True))
        union = disjoint_union(parts)
        assert not union.yes
        assert not oracle_exists(union.graph, ORACLE_CLASS[cls]).exists


def test_planted_weights_are_true_rationals():
    inst = planted_yes(40, "sum", 5, False)
    assert all(w.denominator > 1 for _u, _v, w in inst.graph.edges)


# -- the exact 2-D audit ----------------------------------------------------


def _drawings():
    for n in range(2, 9):
        for seed in range(4):
            g = random_outerplanar(n, (1, 9), seed=seed, biconnected=seed % 2 == 1)
            yield g, twodim_general(g, eps=Fraction(1)).to_json(g)


def test_audit_accepts_what_check_twodim_accepts():
    for g, text in _drawings():
        assert check2d.audit_twodim(g, text) == []
        assert check_twodim(*TwoDimEmbedding.from_json(text)) == []


def _mutations(text):
    """Drawings broken in one way each: lift a rectangle (area kept), grow a
    rectangle's top, move a vertex."""
    doc = json.loads(text)
    for eid in range(len(doc["edges"])):
        lifted = json.loads(text)
        x0, x1, y0, y1 = (Fraction(c) for c in lifted["edges"][eid]["rect"])
        lifted["edges"][eid]["rect"] = [str(c) for c in (x0, x1, y0 + 1, y1 + 1)]
        yield lifted
        grown = json.loads(text)
        grown["edges"][eid]["rect"][3] = str(y1 + Fraction(1, 3))
        yield grown
    for i in range(len(doc["vertices"])):
        moved = json.loads(text)
        moved["vertices"][i]["x"] = str(Fraction(moved["vertices"][i]["x"]) + Fraction(1, 7))
        yield moved


def test_audit_rejects_what_check_twodim_rejects():
    seen = 0
    for g, text in _drawings():
        if g.m == 0:
            continue
        for doc in _mutations(text):
            broken = json.dumps(doc)
            assert check2d.audit_twodim(g, broken), broken
            assert check_twodim(*TwoDimEmbedding.from_json(broken)), broken
            seen += 1
    assert seen > 100


def test_max_denominator_bits():
    text = json.dumps({"vertices": [{"id": "a", "x": "1/8"}],
                       "edges": [{"rect": ["0", "3/1024", "0", "1"]}]})
    assert check2d.max_denominator_bits(text) == 11


# -- metrics ---------------------------------------------------------------


def test_measure_runs_whole_passes(tmp_path):
    calls = Counter()

    class Inputs:
        workdir = str(tmp_path)

        def pass_tasks(self):
            return [lambda _bench, i=i: calls.update([i]) or time.sleep(0.002)
                    for i in range(5)]

    # the deadline falls inside a pass, which still runs to its end
    bench = harness.Bench()
    passes = harness.measure(bench, Inputs(), 0.015, seed=1)
    assert calls == Counter({i: passes for i in range(5)})
    assert 1 <= len(bench.gauge) <= 5 * passes


def test_speed_scale_takes_times_to_the_nominal_gauge(tmp_path):
    slow = [2 * harness.GAUGE_NOMINAL_S] * 3
    assert harness.speed_scale(slow) == pytest.approx(0.5)
    assert harness.reference_seconds(str(tmp_path)) > 0


def test_tail_leaves_ten_samples_beyond_it():
    assert harness.tail(list(range(1, 21))) == (10, 50.0)
    assert harness.tail(list(range(100, 0, -1))) == (90, 90.0)
    assert harness.tail([3, 1, 2]) == (3, 100.0)


@pytest.mark.parametrize("name", NAMES)
@pytest.mark.parametrize("trace", (0, 1))
def test_tiny_run_emits_every_metric_without_failures(name, trace):
    meta, result = run.run(name, seed=3, seconds=0.3, trace=trace, sizes=TINY[name])
    spec = _spec()
    wanted = spec["per_layer"] if trace else spec["end_to_end"]
    assert result["failed"] == 0, meta
    assert result["correct"]
    assert result["attempted"] >= 1
    assert {m["name"]: m["unit"] for m in wanted} == {
        name: metric["unit"] for name, metric in result["metrics"].items()
    }
    if not trace:
        assert meta["fail_ratio"] == 0
        assert result["metrics"]["ok_ratio"]["value"] == 1.0
    assert set(meta["attempted"]) == set(harness.COMMANDS)
    assert meta["kernel"] in ("pure", "native")


def test_benchmark_spec_names_the_workloads():
    assert [w["name"] for w in _spec()["workloads"]] == list(NAMES)


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "planted-yes",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
