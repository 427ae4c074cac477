"""Golden CLI output: one sha256 per command over a fixed set of inputs.

Each digest covers the exit code and stdout of one command on every input,
so a refactor that claims byte-identical output is checked here.  A change
that alters output on purpose updates a digest and says why.  The writers
have digests too: ``render`` with weight labels over every ``embed-max``
order and ``embed-2d`` document, ``serialize_graph`` as an edge list, and
``gen``.
"""

import hashlib
import io
import json
import sys

import pytest

from bookembed.cli import main
from bookembed.embedding import Failure
from bookembed.errors import NotOuterplanarError
from bookembed.graph import components, serialize_graph
from bookembed.maxdraw import max_be_drawer
from bookembed.sumdraw import sum_be_drawer
from bookembed.twodim import one_page_order

import planted  # the benchmark's generator (perfbench/planted.py)
from conftest import coprime, fractional, graph_from, small_corpus

COMMANDS = {
    "embed-max": ["embed-max"],
    "embed-sum": ["embed-sum"],
    "embed-minres": ["embed-minres"],
    "embed-2d": ["embed-2d", "--eps", "1"],
    "check-one-page": ["check", "one-page"],
    "check-max": ["check", "max"],
    "check-sum": ["check", "sum"],
    "check-minres": ["check", "minres"],
}

DIGESTS = {
    "embed-max": "64e90dbd10d128d1394a2598d1be61ab56a962745c368895c3da553a9160d887",
    "embed-sum": "d6c57f6a48bfc05fe40524a68d4b579554782523b5383e701a9a4856e6e0f4ac",
    "embed-minres": "7f49fe80a75e27c0d4defdf71f903ceab04ec509c32693b8285ad61b7c1fc4c0",
    "embed-2d": "26662ae5c87b3c95058998135fb8d56af11cc3e11bf7c33883727aefe233efc5",
    "check-one-page": "695424fc6e9a29b272b2d3c5d9af6322722a0bb5009dc828f2bc641e1be19db7",
    "check-max": "1e7fa22bcf5d25568b3104c7c4004558e91b3b1d7b453971e8e0362d9d7c64f3",
    "check-sum": "87fe0c0cfa2fa50c78278b052f32dab39fee921917ee8b90de3bb1f215acb42b",
    "check-minres": "416fb3698ec79fd80d8d0d3e4a7a4cf160ef10ed449ffe46308d09ca8f69cd3a",
    "render-arc": "c16b22f094406c6dcd030c4d68bcba2cf7ff782e6509d302945b2b84c857b063",
    "render-rect": "7d4e42900ae1085ed1c9ff9f07ddb88b5914d2e23fd20db759dec0fa5cddfefe",
    "serialize-edge-list": "694b91f2644f4e46b0b3ac84dc94182cabe5b4cb5a372711de19d6f20932e639",
    "gen": "3c85fa97ae6591e9c19060f16502c79f2258e6a135fcea9b6371b1de634718e9",
}

# render the output of a command: (its name, the render arguments)
RENDERS = {
    "render-arc": ("embed-max", ["--style", "arc", "--weight-labels", "--graph"]),
    "render-rect": ("embed-2d", ["--style", "rect", "--weight-labels"]),
}

GEN = [
    ["gen", "--n", str(n), "--seed", str(seed)] + extra
    for seed, n in ((0, 1), (1, 2), (2, 7), (3, 12), (4, 30))
    for extra in ([], ["--biconnected"], ["--wmin", "7", "--wmax", str(10**30)])
]


def _inputs():
    corpus = small_corpus(30, max_n=9, weights=(1, 8), seed0=1717)
    graphs = [(f"corpus-{i}", g) for i, g in enumerate(corpus)]
    graphs += [(f"fractional-{i}", fractional(g)) for i, g in enumerate(corpus)]
    graphs += [(f"coprime-{i}", coprime(g)) for i, g in enumerate(corpus)]
    for cls in ("max", "sum", "minres"):
        for biconnected in (True, False):
            for make in (planted.planted_yes, planted.planted_no):
                inst = make(14, cls, 5, biconnected)
                graphs.append((f"{make.__name__}-{cls}-{biconnected}", inst.graph))
    # K4 with distinct weights: not outerplanar
    graphs.append(("k4", graph_from([
        ("a", "b", 1), ("a", "c", 2), ("a", "d", 3),
        ("b", "c", 4), ("b", "d", 5), ("c", "d", 6),
    ])))
    return graphs


def _order(g):
    try:
        order = [v for part in components(g) for v in one_page_order(part)]
    except NotOuterplanarError:
        order = range(g.n)
    return json.dumps([g.labels[v] for v in order])


def _run(argv):
    old_out, old_err = sys.stdout, sys.stderr
    sys.stdout, sys.stderr = io.StringIO(), io.StringIO()
    try:
        code = main(argv)
        return code, sys.stdout.getvalue()
    finally:
        sys.stdout, sys.stderr = old_out, old_err


@pytest.fixture(scope="module")
def digests(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("golden")
    hashes = {name: hashlib.sha256() for name in DIGESTS}
    for key, g in _inputs():
        path = tmp / f"{key}.json"
        path.write_text(serialize_graph(g))
        order = tmp / f"{key}.order"
        order.write_text(_order(g))
        outputs = {}
        for name, argv in COMMANDS.items():
            argv = argv + [str(path)]
            if argv[0] == "check":
                argv += ["--order", f"@{order}"]
            code, out = _run(argv)
            hashes[name].update(f"{key}\n{code}\n{out}\n".encode())
            outputs[name] = code, out
        for name, (command, argv) in RENDERS.items():
            code, out = outputs[command]
            if code != 0:
                continue
            drawn = tmp / f"{key}.{command}"
            drawn.write_text(out)
            argv = ["render", str(drawn)] + argv
            code, out = _run(argv + [str(path)] if argv[-1] == "--graph" else argv)
            hashes[name].update(f"{key}\n{code}\n{out}\n".encode())
        text = serialize_graph(g, "edge-list")
        hashes["serialize-edge-list"].update(f"{key}\n{text}\n".encode())
    for argv in GEN:
        code, out = _run(argv)
        hashes["gen"].update(f"{argv}\n{code}\n{out}\n".encode())
    return {name: h.hexdigest() for name, h in hashes.items()}


@pytest.mark.parametrize("name", sorted(DIGESTS))
def test_cli_output_matches_its_golden_digest(digests, name):
    assert digests[name] == DIGESTS[name]


# The inputs above give cut fronts of at most two entries.  These give sum
# fronts of four entries and minres fronts of four, and twelve at the
# centre of a minres yes-star.
FRONT_DIGESTS = {
    "embed-sum": "34d8396b638d2672f14cb25da49a5ec96f24d4c61cddcc3fdc44f3cf8278d792",
    "embed-minres": "fededbc7f294895ea54be697a46ba1f372cab9aaffb5dd6c87ddfd59871e3240",
}


def _front_inputs(command):
    if command == "embed-sum":
        return [(f"sum-{s}", planted.planted_yes(40, "sum", s, False).graph)
                for s in range(10)]
    star = graph_from([("c", f"l{i}", 13) for i in range(12)])
    return [(f"minres-{s}", planted.planted_yes(20, "minres", s, False).graph)
            for s in range(8)] + [("star-12", star)]


@pytest.mark.parametrize("command", sorted(FRONT_DIGESTS))
def test_multi_entry_fronts_match_their_golden_digest(tmp_path, command):
    digest = hashlib.sha256()
    for key, g in _front_inputs(command):
        path = tmp_path / f"{key}.json"
        path.write_text(serialize_graph(g))
        code, out = _run([command, str(path)])
        digest.update(f"{key}\n{code}\n{out}\n".encode())
    assert digest.hexdigest() == FRONT_DIGESTS[command]


# The drawers' Failures beyond what the CLI prints: the block, cut vertex
# and weights that locate each rejection, per component, for max and sum.
FAILURE_DIGEST = "e4cd5686e1cfb1b8778530f1aae0df0abfd6a68236397a280124afc0f697034c"


def _failure_inputs():
    for n in (40, 120):
        for cls in ("max", "sum"):
            for s in range(10):
                yield f"planted-no-{n}-{cls}-{s}", planted.planted_no(n, cls, s, s % 3 == 2).graph
    yield from _inputs()


def test_drawer_failures_match_their_golden_digest():
    digest = hashlib.sha256()
    for key, g in _failure_inputs():
        for drawer in (max_be_drawer, sum_be_drawer):
            for part in components(g):
                try:
                    f = drawer(part)
                except NotOuterplanarError:
                    f = "not outerplanar"
                if isinstance(f, Failure):
                    f = (f.condition, f.detail, f.block, f.cut_vertex, f.weights)
                elif not isinstance(f, str):
                    f = "ok"
                digest.update(f"{key}\n{drawer.__name__}\n{f!r}\n".encode())
    assert digest.hexdigest() == FAILURE_DIGEST


# The inputs above give 2-D coordinates of a few dozen bits.  These unions
# of three planted components, of every class, give denominators of about
# 130 bits at n = 60 and 330-360 bits at n = 150.
TWODIM_DIGEST = "29aa09b4de69d51b77a943eadecee85a853f10bcb181fa8656f62a90730019b1"
TWODIM_COMMANDS = (
    ["embed-2d", "--eps", "1"],
    ["embed-2d", "--eps", "1/3", "--L", "7/3"],
)


def _twodim_inputs():
    for n in (60, 150):
        for cls in planted.CLASSES:
            for make in (planted.planted_yes, planted.planted_no):
                parts = [make(n // 3, cls, s, s % 3 == 2, check=False) for s in range(3)]
                inst = planted.disjoint_union(parts)
                yield f"{make.__name__}-{n}-{cls}", inst.graph, make is planted.planted_yes


def test_large_2d_coordinates_match_their_golden_digest(tmp_path):
    digest = hashlib.sha256()
    for key, g, yes in _twodim_inputs():
        path = tmp_path / f"{key}.json"
        path.write_text(serialize_graph(g))
        commands = TWODIM_COMMANDS + ((["embed-2d", "--minres"],) if yes else ())
        for argv in commands:
            code, out = _run(argv + [str(path)])
            digest.update(f"{key}\n{argv}\n{code}\n{out}\n".encode())
    assert digest.hexdigest() == TWODIM_DIGEST
