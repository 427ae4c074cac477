"""CLI behavior: subcommands, exit codes, pipelines, determinism."""

import io
import json
import os
import subprocess
import sys
from fractions import Fraction

import pytest

import bookembed
from bookembed.cli import main
from bookembed.graph import parse_graph, serialize_graph
from bookembed.oracle import random_outerplanar
from bookembed.twodim import TwoDimEmbedding, check_twodim, twodim_general

from conftest import K2_2D, MALFORMED_2D, coprime

TRI111 = '{"edges":[["a","b","1"],["b","c","1"],["a","c","1"]]}'
TRI_5_6_11 = '{"edges":[["a","b","5"],["b","c","6"],["a","c","11"]]}'


def run_cli(argv, stdin_text=""):
    old_in, old_out, old_err = sys.stdin, sys.stdout, sys.stderr
    sys.stdin = io.StringIO(stdin_text)
    sys.stdout = io.StringIO()
    sys.stderr = io.StringIO()
    try:
        code = main(argv)
        return code, sys.stdout.getvalue(), sys.stderr.getvalue()
    finally:
        sys.stdin, sys.stdout, sys.stderr = old_in, old_out, old_err


def test_embed_max_rejects_equal_triangle(tmp_path):
    path = tmp_path / "t.json"
    path.write_text(TRI111)
    code, out, _ = run_cli(["embed-max", str(path)])
    assert code == 1
    doc = json.loads(out)
    assert doc["exists"] is False
    assert doc["reason"] == "no unique maximum-weight edge"


def test_embed_sum_rejects_equal_triangle(tmp_path):
    path = tmp_path / "t.json"
    path.write_text(TRI111)
    code, out, _ = run_cli(["embed-sum", str(path)])
    assert code == 1 and not json.loads(out)["exists"]


def test_embed_max_success_stdout():
    code, out, _ = run_cli(["embed-max"], stdin_text=TRI_5_6_11)
    assert code == 0
    order = json.loads(out)
    assert sorted(order) == ["a", "b", "c"]
    assert {order[0], order[-1]} == {"a", "c"}


def test_embed_2d_accepts_equal_triangle_and_renders():
    code, out, _ = run_cli(["embed-2d", "--eps", "1"], stdin_text=TRI111)
    assert code == 0
    doc = json.loads(out)
    assert len(doc["edges"]) == 3
    code, svg, _ = run_cli(["render", "--style", "rect"], stdin_text=out)
    assert code == 0 and svg.count("<rect") == 3
    code, svg2, _ = run_cli(["render", "--style", "disk"], stdin_text=out)
    assert code == 0 and "<circle" in svg2
    code, svg3, _ = run_cli(["render", "--style", "arc"], stdin_text=out)
    assert code == 0 and svg3.count("<path") == 3


def test_check_subcommand(tmp_path):
    path = tmp_path / "g.json"
    path.write_text('{"edges":[["3","4","3"],["5","7","11"],["3","7","12"]]}')
    code, out, _ = run_cli(
        ["check", "sum", str(path), "--order", '["3","4","5","7"]']
    )
    assert code == 1
    doc = json.loads(out)
    assert doc["ok"] is False
    assert doc["violation"]["edge"][:2] == ["3", "7"]
    code, out, _ = run_cli(
        ["check", "max", str(path), "--order", '["3","4","5","7"]']
    )
    assert code == 0 and json.loads(out)["ok"]


@pytest.mark.parametrize(
    "argv,stdin_text,code,err",
    [
        (["check", "max", "/dev/stdin", "--order", "-"], TRI_5_6_11, 2,
         "bookembed: the graph and --order cannot both be read from stdin\n"),
        (["check", "max", "-", "--order", "@/dev/fd/0"], TRI_5_6_11, 2,
         "bookembed: the graph and --order cannot both be read from stdin\n"),
        (["render", "--style", "arc", "--graph", "/dev/stdin"], '["a", "b", "c"]', 2,
         "bookembed: the input and --graph cannot both be read from stdin\n"),
        # a graph file that is not stdin leaves the piped order readable
        (["check", "max", "GRAPH", "--order", "-"], '["a", "b", "c"]', 0, ""),
    ],
    ids=["check-dev-stdin", "check-dev-fd-0", "render-dev-stdin", "check-file"],
)
def test_stdin_named_by_path_is_stdin(tmp_path, argv, stdin_text, code, err):
    graph = tmp_path / "g.json"
    graph.write_text(TRI_5_6_11)
    argv = [str(graph) if a == "GRAPH" else a for a in argv]
    src = os.path.dirname(os.path.dirname(os.path.abspath(bookembed.__file__)))
    env = {**os.environ, "PYTHONPATH": src}
    proc = subprocess.run(
        [sys.executable, "-c", "import sys; from bookembed.cli import main; sys.exit(main())",
         *argv],
        input=stdin_text, capture_output=True, text=True, env=env, timeout=120,
    )
    assert (proc.returncode, proc.stderr) == (code, err)


@pytest.mark.parametrize("given", ["inline", "file", "stdin"])
def test_check_sum_violation_document(tmp_path, given):
    path = tmp_path / "g.json"
    path.write_text('{"edges":[["3","4","3"],["5","7","11"],["3","7","12"]]}')
    order = '["3","4","5","7"]'
    (tmp_path / "order.json").write_text(order)
    flag = {"inline": order, "file": f"@{tmp_path / 'order.json'}", "stdin": "-"}
    code, out, err = run_cli(
        ["check", "sum", str(path), "--order", flag[given]], stdin_text=order
    )
    assert (code, err) == (1, "")
    assert out == json.dumps({"ok": False, "violation": {
        "class": "sum", "edge_id": 2, "witness_ids": [0, 1],
        "edge": ["3", "7", "12"], "witness": [["3", "4", "3"], ["5", "7", "11"]],
        "positions": [0, 3],
    }}) + "\n"


def test_gen_embed_pipeline_determinism():
    _, g1, _ = run_cli(["gen", "--n", "6", "--seed", "1"])
    _, g2, _ = run_cli(["gen", "--n", "6", "--seed", "1"])
    assert g1 == g2
    c1, v1, _ = run_cli(["embed-sum"], stdin_text=g1)
    c2, v2, _ = run_cli(["embed-sum"], stdin_text=g2)
    assert (c1, v1) == (c2, v2)


def test_gen_edge_list_round_trip(tmp_path):
    _, gtext, _ = run_cli(["gen", "--n", "5", "--seed", "2", "--biconnected"])
    code, out, _ = run_cli(["embed-minres"], stdin_text=gtext)
    assert code in (0, 1)


def test_render_arc_from_bare_order(tmp_path):
    gpath = tmp_path / "g.json"
    gpath.write_text(TRI_5_6_11)
    code, order, _ = run_cli(["embed-max", str(gpath)])
    assert code == 0
    code, svg, _ = run_cli(
        ["render", "--style", "arc", "--graph", str(gpath)], stdin_text=order
    )
    assert code == 0 and svg.count("<path") == 3


def test_bench_csv():
    code, out, _ = run_cli(
        ["bench", "--algo", "max", "--sizes", "50,100", "--seed", "3"]
    )
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "algo,n,seconds"
    assert len(lines) == 3
    for line in lines[1:]:
        algo, n, seconds = line.split(",")
        assert algo == "max" and float(seconds) >= 0
    code, out, err = run_cli(["bench", "--algo", "oracle-max", "--sizes", "2,3"])
    assert (code, err) == (0, "")
    rows = [line.split(",") for line in out.strip().splitlines()[1:]]
    assert [row[:2] for row in rows] == [["oracle-max", "2"], ["oracle-max", "3"]]


def test_parse_error_exit_2():
    code, _, err = run_cli(["embed-max"], stdin_text='{"edges":[["a","a","1"]]}')
    assert code == 2
    assert "self-loop" in err


def test_usage_error_exit_2():
    for argv in (
        ["embed-unknown"],
        ["bench", "--algo", "oracle-sum", "--sizes", "2", "--impl", "both"],
    ):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2


def test_embed_minres_from_stdin():
    code, out, _ = run_cli(
        ["embed-minres"], stdin_text='{"edges":[["a","b","2"],["b","c","1"]]}'
    )
    assert code == 0
    assert sorted(json.loads(out)) == ["a", "b", "c"]


@pytest.mark.parametrize(
    "argv,expected",
    [
        (["embed-minres"], {"exists": False, "class": "minres"}),
        (["embed-2d", "--minres"], {"exists": False}),
    ],
)
def test_minres_failure_documents(argv, expected):
    code, out, err = run_cli(argv, stdin_text=TRI111)
    assert (code, err) == (1, "")
    assert out == json.dumps({**expected, "reason": "no supporting embedding"}) + "\n"


def test_embed_2d_weight_beyond_float_range():
    # the total weight does not fit a float, which the default box width
    # must not need
    code, out, err = run_cli(["embed-2d"], stdin_text='{"edges":[["a","b","1e400"]]}')
    assert (code, err) == (0, "")
    g, drawing = TwoDimEmbedding.from_json(out)
    assert check_twodim(g, drawing) == []


def test_embed_2d_writes_numbers_past_the_digit_limit():
    # numerators and denominators here pass Python's 4,300-digit limit on
    # integer-to-string conversion
    text = serialize_graph(coprime(random_outerplanar(33, (1, 50), seed=0)))
    code, out, err = run_cli(["embed-2d"], stdin_text=text)
    assert (code, err) == (0, "")
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        g = parse_graph(text)
        drawing = twodim_general(g)
        doc = json.loads(out)
        coordinates = [v["x"] for v in doc["vertices"]]
        coordinates += [c for e in doc["edges"] for c in e["rect"]]
        assert max(len(i) for c in coordinates for i in c.split("/")) > limit
        assert {v["id"]: Fraction(v["x"]) for v in doc["vertices"]} == {
            g.labels[v]: x for v, x in drawing.x.items()
        }
        assert [[Fraction(c) for c in e["rect"]] for e in doc["edges"]] == [
            list(drawing.rects[eid]) for eid in range(g.m)
        ]
    finally:
        sys.set_int_max_str_digits(limit)
    # readers keep the limit on outside input
    code, _, err = run_cli(["render"], stdin_text=out)
    assert code == 2 and "not a rational number" in err


def test_disconnected_input_handled():
    g = '{"vertices":["z"],"edges":[["a","b","2"],["c","d","3"]]}'
    code, out, _ = run_cli(["embed-max"], stdin_text=g)
    assert code == 0
    order = json.loads(out)
    assert order[-1] == "z"
    code, out, _ = run_cli(["embed-2d"], stdin_text=g)
    assert code == 0


# integer labels in graph JSON are read as strings
INT_LABELS = '{"edges":[[1,2,"5"],[2,0,"3"],[1,0,"4"]]}'


def test_check_order_integers_are_labels(tmp_path):
    path = tmp_path / "g.json"
    path.write_text(INT_LABELS)
    as_ints = run_cli(["check", "max", str(path), "--order", "[0,1,2]"])
    as_strings = run_cli(["check", "max", str(path), "--order", '["0","1","2"]'])
    assert as_ints == as_strings
    assert as_ints[0] == 1 and json.loads(as_ints[1])["ok"] is False


def test_unknown_order_labels_exit_2(tmp_path):
    path = tmp_path / "g.json"
    path.write_text(INT_LABELS)
    for order in ('["1","2","9"]', "[1,2,3]", '{"a":1}', "[1.5,2,0]"):
        code, out, err = run_cli(["check", "max", str(path), "--order", order])
        assert code == 2 and out == "", order
        assert "Traceback" not in err and err.startswith("bookembed: ")
    # a graph document is not a bare order
    code, out, err = run_cli(
        ["render", "--style", "arc", "--graph", str(path), str(path)]
    )
    assert code == 2 and out == "" and "order" in err


def test_options_may_precede_the_input(tmp_path):
    path = tmp_path / "g.json"
    path.write_text(TRI_5_6_11)
    order = '["a","b","c"]'
    before = run_cli(["check", "max", "--order", order, str(path)])
    after = run_cli(["check", "max", str(path), "--order", order])
    assert before == after and before[0] == 0
    out_path = tmp_path / "out.json"
    code, _, _ = run_cli(["embed-max", "--output", str(out_path), str(path)])
    assert code == 0 and sorted(json.loads(out_path.read_text())) == ["a", "b", "c"]


def test_repeated_calls_match_a_fresh_parser(tmp_path, monkeypatch):
    from bookembed import cli

    path = tmp_path / "g.json"
    path.write_text(TRI_5_6_11)
    crossing = tmp_path / "c.json"
    crossing.write_text('{"edges":[["a","c","1"],["b","d","1"]]}')
    out_path = str(tmp_path / "out.txt")
    calls = [
        ["check", "max", "--order", '["a","b","c"]', str(path)],
        ["embed-max", str(path), "--output", out_path],
        ["embed-unknown"],
        ["check", "sum", str(crossing), "--order", '["a","b","c","d"]'],
        ["check", "max", "--order", '["a","b"]', str(path), "--output", out_path],
        ["embed-2d", "--minres", str(path)],
        ["check", "one-page", str(crossing), "--order", '["a","b","c","d"]'],
        ["embed-minres", "--output", out_path, str(path)],
        ["check", "minres", str(path)],
        ["embed-sum", str(path)],
        ["check", "max", "--order", '["a","b","c"]', str(path)],
    ]

    def outcome(argv):
        try:
            result = run_cli(argv)
        except SystemExit as exc:
            result = ("exit", exc.code)
        with open(out_path, "a+", encoding="utf-8") as handle:
            handle.seek(0)
            written = handle.read()
            handle.truncate(0)
        return result, written

    fresh = []
    for argv in calls:
        cli._parser.cache_clear()
        fresh.append(outcome(argv))

    built = []
    build = cli.build_parser
    monkeypatch.setattr(cli, "build_parser", lambda: built.append(1) or build())
    cli._parser.cache_clear()
    reused = [outcome(argv) for argv in calls]
    assert reused == fresh and len(built) == 1
    assert ("exit", 2) in [result for result, _ in fresh]
    assert fresh[3][0][:2] == (1, '{"ok": false, "reason": "not a 1-page embedding"}\n')
    assert fresh[4][0][0] == 2 and "not a permutation" in fresh[4][0][2]


# One small graph per failure the max and sum drawers report.  The last
# one is random_outerplanar(6, (1, 9), seed=9063), the smallest a seeded
# search found for a failing cut vertex.
_SQUARE_HEAVY_CHORD = (
    '{"edges":[["a","b","1"],["b","c","2"],["c","d","3"],["d","a","4"],["a","c","5"]]}'
)
_SQUARE_LIGHT_CHORD = (
    '{"edges":[["a","b","2"],["b","c","1"],["c","d","3"],["d","a","10"],["a","c","1"]]}'
)
_CUT_INSIDE = '{"edges":[["x","y","100"],["y","p","1"],["y","q","2"],["p","q","10"]]}'
_HEAVY_PENDANT = '{"edges":[["a","b","10"],["b","c","3"],["a","c","2"],["c","d","5"]]}'
_CROWDED_CUT = (
    '{"vertices": ["0", "1", "2", "3", "4", "5"], "edges": [["1", "4", "9"], '
    '["0", "2", "4"], ["3", "4", "5"], ["4", "2", "4"], ["5", "4", "5"]]}'
)


@pytest.mark.parametrize(
    "cls,graph,condition,reason",
    [
        ("max", TRI111, 1, "no unique maximum-weight edge"),
        ("max", _SQUARE_HEAVY_CHORD, 1, "maximum-weight edge is not on the outer face"),
        ("max", _SQUARE_LIGHT_CHORD, 1, "an edge does not outweigh an edge it wraps"),
        ("max", _CUT_INSIDE, 2, "parent cut vertex is interior to the block order"),
        ("max", _HEAVY_PENDANT, 3, "subtree fits on neither side of its cut vertex"),
        ("sum", TRI111, 1, "no unique maximum-weight edge"),
        ("sum", _SQUARE_HEAVY_CHORD, 1, "maximum-weight edge is not on the outer face"),
        ("sum", _SQUARE_LIGHT_CHORD, 1,
         "an edge does not outweigh the edges directly under it"),
        ("sum", _CUT_INSIDE, 2, "parent cut vertex is interior to the block order"),
        ("sum", _HEAVY_PENDANT, "empty-pareto", "no feasible block extension"),
        ("sum", _CROWDED_CUT, "empty-pareto",
         "no feasible combination at a cut vertex"),
    ],
)
def test_failure_documents(cls, graph, condition, reason):
    code, out, err = run_cli(["embed-" + cls], stdin_text=graph)
    assert (code, err) == (1, "")
    doc = {"exists": False, "class": cls, "reason": reason}
    assert out == json.dumps({**doc, "failure_condition": condition}) + "\n"


# Edges that miss the parser's all-string fast path or fail in it, with the
# message every graph-reading subcommand prints for them.
MALFORMED_EDGE = {
    "weight-zero-denominator": (
        '{"edges": [["a", "b", "5/0"]]}',
        "malformed weight '5/0' (edges[0]) (at edges[0])",
    ),
    "weight-space-before-slash": (
        '{"edges": [["a", "b", "7 /2"]]}',
        "malformed weight '7 /2' (edges[0]) (at edges[0])",
    ),
    "weight-underscore-zero-denominator": (
        '{"edges": [["a", "b", "1_000/0"]]}',
        "malformed weight '1_000/0' (edges[0]) (at edges[0])",
    ),
    "number-label-bad-weight": (
        '{"edges": [["a", 2, "5/0"]]}',
        "malformed weight '5/0' (edges[0]) (at edges[0])",
    ),
    "float-label": (
        '{"edges": [[1.5, "b", "1"]]}',
        "vertex labels must be strings or integers (edges[0])",
    ),
    # several faults in one document: a syntax fault in any edge wins, then
    # the first edge with a structural fault, and within one edge a
    # self-loop, then a duplicate, then a non-positive weight
    "bad-weight-after-self-loop": (
        '{"edges": [["a", "a", "1"], ["b", "c", "x"]]}',
        "malformed weight 'x' (edges[1]) (at edges[1])",
    ),
    "bad-shape-after-zero-weight": (
        '{"edges": [["a", "b", "0"], ["c", "d", "1"], ["x", "y"]]}',
        "edge must be [u, v, w] (edges[2]) (at edges[2])",
    ),
    "float-label-after-duplicate": (
        '{"edges": [["a", "b", "1"], ["b", "a", "1"], [1.5, "c", "1"]]}',
        "vertex labels must be strings or integers (edges[2])",
    ),
    "float-weight-after-self-loop": (
        '{"edges": [["a", "a", "1"], ["c", "d", 1.5]]}',
        "weight must be a string rational, not float (floats are inexact) "
        "(edges[1]) (at edges[1])",
    ),
    "duplicate-before-zero-weight": (
        '{"edges": [["a", "b", "1"], ["a", "b", "0"]]}',
        "duplicate edge 'a'--'b'",
    ),
    "self-loop-before-zero-weight": (
        '{"edges": [["a", "b", "1"], ["c", "c", "0"], ["b", "a", "1"]]}',
        "self-loop at vertex 'c'",
    ),
    "first-structural-edge-wins": (
        '{"edges": [["a", "b", "1"], ["c", "d", "-3/4"], ["e", "e", "1"], '
        '["b", "a", "1"]]}',
        "non-positive weight -3/4 on edge 'c'--'d'",
    ),
}
# the same rules for edge-list input, where faults are located by line
MALFORMED_EDGE_LIST = {
    "bad-weight-after-self-loop": ("a a 1\nb c x\n", "malformed weight 'x' (line 2)"),
    "bad-shape-after-zero-weight": (
        "a b 0\nc d 1\nx y\n", "expected 'u v w', got 'x y' (line 3)"
    ),
    "bad-weight-before-bad-shape": (
        "a b x\nz\nc d\n", "malformed weight 'x' (line 1)"
    ),
    "duplicate-before-zero-weight": ("a b 1\nb a 0\n", "duplicate edge 'b'--'a'"),
    "self-loop-before-zero-weight": ("c c 0\n", "self-loop at vertex 'c'"),
    "first-structural-edge-wins": (
        "a b 1\nc d 0  # zero\ne e 1\nb a 1\n",
        "non-positive weight 0 on edge 'c'--'d'",
    ),
}
MALFORMED = {
    "bad-json": '{"edges": [',
    "not-an-object": '[["a", "b", "1"]]',
    "vertices-not-array": '{"vertices": 5, "edges": []}',
    "edges-not-array": '{"edges": 5}',
    "weight-syntax": '{"edges": [["a", "b", "x"]]}',
    "weight-float": '{"edges": [["a", "b", 1.5]]}',
    "weight-zero": '{"edges": [["a", "b", "0"]]}',
    **{name: doc for name, (doc, _) in MALFORMED_EDGE.items()},
    **MALFORMED_2D,
}
SUBCOMMANDS = {
    "check": ["check", "max", "--order", '["a", "b"]'],
    "embed-max": ["embed-max"],
    "embed-sum": ["embed-sum"],
    "embed-minres": ["embed-minres"],
    "embed-2d": ["embed-2d"],
    "render": ["render"],
}


@pytest.mark.parametrize(
    "argv,stdin_text",
    [
        pytest.param(argv, MALFORMED[doc], id=f"{command}-{doc}")
        for command, argv in SUBCOMMANDS.items()
        for doc in MALFORMED
    ]
    + [
        pytest.param(argv + ["--format", "edge-list"], text,
                     id=f"{command}-edge-list-{name}")
        for command, argv in SUBCOMMANDS.items() if command != "render"
        for name, (text, _) in MALFORMED_EDGE_LIST.items()
    ]
    + [
        pytest.param(
            ["check", "max", "--order", '["a", "zz", "c"]'], TRI_5_6_11,
            id="check-unknown-order-label",
        ),
        pytest.param(
            ["render", "--style", "arc", "--graph", "GRAPH"], '["a", "zz", "c"]',
            id="render-unknown-order-label",
        ),
    ]
    + [
        pytest.param(argv, stdin_text, id=f"{argv[0]}-two-operands-on-stdin-{i}")
        for i, (argv, stdin_text) in enumerate((
            (["check", "max", "--order", "-"], TRI_5_6_11),
            (["check", "max", "--order", "@-"], TRI_5_6_11),
            (["check", "max", "-", "--order", "-"], TRI_5_6_11),
            (["check", "max", "-", "--order", "@-"], TRI_5_6_11),
            (["render", "--style", "arc", "--graph", "-"], '["a", "b", "c"]'),
            (["render", "--style", "arc", "--graph", "-", "-"], '["a", "b", "c"]'),
        ))
    ]
    + [
        pytest.param(["render", "--scale", scale], json.dumps(K2_2D),
                     id=f"render-scale-{scale}")
        for scale in ("nan", "inf", "1e309")
    ]
    + [
        pytest.param(["bench", "--algo", algo, "--sizes", sizes], "",
                     id=f"bench-{algo}-sizes-{sizes}")
        for algo, sizes in (
            ("max", "0"), ("max", "-3"), ("oracle-max", "0"),
            ("oracle-max", "-3"), ("oracle-sum", "2,0"), ("sum", ","),
        )
    ]
    + [
        pytest.param(["gen", "--n", "3", *flags], "", id="gen" + "".join(flags))
        for flags in (
            ["--wmin", "0"], ["--wmin", "-2", "--wmax", "5"],
            ["--wmin", "7", "--wmax", "6"], ["--wmax", "0"],
        )
    ],
)
def test_malformed_input_exits_2(tmp_path, argv, stdin_text):
    graph = tmp_path / "g.json"
    graph.write_text(TRI_5_6_11)
    argv = [str(graph) if a == "GRAPH" else a for a in argv]
    code, out, err = run_cli(argv, stdin_text=stdin_text)
    assert (code, out) == (2, "")
    assert err.startswith("bookembed: ") and "Traceback" not in err
    messages = dict(MALFORMED_EDGE.values()) | dict(MALFORMED_EDGE_LIST.values())
    if argv[0] != "render" and stdin_text in messages:
        assert err == f"bookembed: {messages[stdin_text]}\n"
    if "--order" in argv and argv[argv.index("--order") + 1] in ("-", "@-"):
        assert err == "bookembed: the graph and --order cannot both be read from stdin\n"
    if "--graph" in argv and argv[argv.index("--graph") + 1] == "-":
        assert err == "bookembed: the input and --graph cannot both be read from stdin\n"


def test_render_arc_names_two_crossing_edges(tmp_path):
    path = tmp_path / "c.json"
    path.write_text('{"edges":[["a","c","1"],["b","d","1"]]}')
    code, out, err = run_cli(
        ["render", "--style", "arc", "--graph", str(path)], stdin_text='["a","b","c","d"]'
    )
    assert (code, out, err) == (2, "", "bookembed: edges a--c and b--d cross\n")


K4 = ('{"edges":[["a","b","1"],["a","c","2"],["a","d","3"],'
      '["b","c","4"],["b","d","5"],["c","d","6"]]}')


@pytest.mark.parametrize(
    "argv", [["embed-max"], ["embed-sum"], ["embed-minres"], ["embed-2d"],
             ["embed-2d", "--minres"]],
)
def test_non_outerplanar_input_exits_2(argv):
    code, out, err = run_cli(argv, stdin_text=K4)
    assert (code, out) == (2, "")
    assert err.startswith("bookembed: ") and "not outerplanar" in err
    assert "Traceback" not in err
