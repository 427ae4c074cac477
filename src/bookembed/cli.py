"""Command-line front end.

Subcommands: check, embed-max, embed-sum, embed-minres, embed-2d, render,
gen, bench.  Exit codes: 0 success / embedding exists, 1 no embedding (a
machine-readable reason goes to stdout), 2 usage or input errors.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import stat
import sys
import time
from fractions import Fraction

from .embedding import (
    BookEmbedding,
    validate_max,
    validate_minres_supporting,
    validate_one_page,
    validate_sum,
)
from .errors import BookEmbedError, NotOnePageError
from .exact import parse_rational, read_json
from .graph import parse_graph, serialize_graph
from .maxdraw import embed_max
from .minres import embed_minres, minres_be_drawer
from .oracle import oracle_exists, random_outerplanar
from .render import RenderSpec, render_arcs, render_rects
from .sumdraw import embed_sum
from .twodim import TwoDimEmbedding, minres_construct, twodim_general


def _is_stdin(path):
    return path in (None, "-")


def _both_stdin(path, other):
    """True when reading ``path`` and ``other`` would read stdin twice: one
    is ``-`` and the other is ``-`` too, or names the file that stdin is,
    such as ``/dev/stdin``.  That file is looked up only in the second case."""
    if not _is_stdin(path):
        path, other = other, path
    try:
        return _is_stdin(path) and (
            _is_stdin(other) or os.path.samestat(os.stat(other), os.fstat(0))
        )
    except OSError:
        return False


def _is_stdout(path):
    try:
        return os.path.samestat(os.stat(path), os.fstat(1))
    except OSError:
        return False


def _read_text(path):
    if _is_stdin(path):
        return sys.stdin.read()
    with open(path, "r", encoding="utf-8") as handle:
        return handle.read()


def _load_graph(args):
    return parse_graph(_read_text(args.input), format=args.format)


def _emit(args, text):
    """Write ``text`` to ``--output`` or stdout.  A regular file is rewritten
    in place and cut to length, as closing one truncated to zero starts its
    ext4 writeback (70 µs or more); other files are written as streams.
    A path naming the file that stdout is, such as ``/dev/stdout``, is
    written through stdout at its own offset, so a shell's ``>>`` appends."""
    path = getattr(args, "output", None)
    if path and not _is_stdout(path):
        # open's own flags, O_CLOEXEC and O_BINARY among them, less O_TRUNC
        opener = lambda path, flags: os.open(path, flags & ~os.O_TRUNC, 0o666)
        with open(path, "w", encoding="utf-8", opener=opener) as handle:
            handle.write(text)
            if stat.S_ISREG(os.fstat(handle.fileno()).st_mode):
                handle.truncate()
    else:
        sys.stdout.write(text)


_VALIDATORS = {
    "one-page": validate_one_page,
    "max": validate_max,
    "sum": validate_sum,
    "minres": validate_minres_supporting,
}


def _cmd_check(args):
    order_text = args.order
    if order_text.startswith("@"):
        order_path = order_text[1:]
    else:
        order_path = "-" if order_text == "-" else None
    if order_path is not None and _both_stdin(args.input, order_path):
        raise BookEmbedError("the graph and --order cannot both be read from stdin")
    g = _load_graph(args)
    if order_path is not None:
        order_text = _read_text(order_path)
    embedding = BookEmbedding.from_json(order_text, g)
    try:
        verdict = _VALIDATORS[args.embedding_class](g, embedding)
    except NotOnePageError:
        _emit(args, json.dumps({"ok": False, "reason": "not a 1-page embedding"}) + "\n")
        return 1
    if verdict is None:
        _emit(args, json.dumps({"ok": True}) + "\n")
        return 0
    record = verdict.to_json(g, embedding)
    _emit(args, json.dumps({"ok": False, "violation": record}) + "\n")
    return 1


def _cmd_embed(args, driver, class_name):
    g = _load_graph(args)
    result = driver(g)
    if isinstance(result, BookEmbedding):
        _emit(args, result.to_json(g) + "\n")
        return 0
    doc = {"exists": False, "class": class_name, "reason": result.detail}
    if result.condition is not None:
        doc["failure_condition"] = result.condition
    _emit(args, json.dumps(doc) + "\n")
    return 1


def _cmd_embed_2d(args):
    g = _load_graph(args)
    if args.minres:
        result = embed_minres(g)
        if not isinstance(result, BookEmbedding):
            _emit(args, json.dumps({"exists": False, "reason": result.detail}) + "\n")
            return 1
        emb2d = minres_construct(g, result)
    else:
        eps = parse_rational(args.eps)
        length = parse_rational(args.box_width) if args.box_width else None
        emb2d = twodim_general(g, eps=eps, length=length)
    _emit(args, emb2d.to_json(g) + "\n")
    return 0


def _cmd_render(args):
    spec = RenderSpec(
        style=args.style,
        scale=args.scale,
        labels=not args.no_labels,
        weight_labels=args.weight_labels,
    )
    text = _read_text(args.input)
    doc = read_json(text)
    if isinstance(doc, dict) and "vertices" in doc and "edges" in doc:
        g, emb2d = TwoDimEmbedding.from_json(text)
        if spec.style == "arc":
            _emit(args, render_arcs(g, emb2d.support, spec))
        else:
            _emit(args, render_rects(g, emb2d, spec))
        return 0
    if spec.style != "arc":
        raise BookEmbedError("rect/disk rendering needs a 2-D embedding document")
    if not args.graph:
        raise BookEmbedError("arc rendering from a bare order needs --graph")
    if _both_stdin(args.input, args.graph):
        raise BookEmbedError("the input and --graph cannot both be read from stdin")
    g = parse_graph(_read_text(args.graph), format=args.format)
    embedding = BookEmbedding(g.resolve_labels(doc))
    _emit(args, render_arcs(g, embedding, spec))
    return 0


def _cmd_gen(args):
    if not 1 <= args.wmin <= args.wmax:
        raise BookEmbedError("weights need 1 <= --wmin <= --wmax")
    g = random_outerplanar(
        args.n,
        (args.wmin, args.wmax),
        seed=args.seed,
        biconnected=args.biconnected,
    )
    _emit(args, serialize_graph(g) + "\n")
    return 0


_ORACLE_BENCHES = ("oracle-max", "oracle-sum", "oracle-minres-supporting")


def _bench_once(algo, n, seed):
    """Seconds for one run of ``algo`` at size ``n``."""
    if algo not in _ORACLE_BENCHES:
        # a wide weight range avoids maximum-weight ties that would let the
        # drawers exit before doing size-dependent work
        g = random_outerplanar(n, (1, 10**9), seed=seed, biconnected=True)
        start = time.perf_counter()
        if algo == "max":
            embed_max(g)
        elif algo == "sum":
            embed_sum(g)
        elif algo == "minres":
            minres_be_drawer(g)
        else:
            twodim_general(g, eps=Fraction(1))
        return time.perf_counter() - start
    # oracle benches: n = number of random 8-vertex instances to sweep
    cls = algo.split("-", 1)[1]
    instances = [
        random_outerplanar(8, (1, 6), seed=seed + i, biconnected=False)
        for i in range(n)
    ]
    start = time.perf_counter()
    for g in instances:
        oracle_exists(g, cls, exhaustive=True)
    return time.perf_counter() - start


def _cmd_bench(args):
    sizes = [int(s) for s in args.sizes.split(",") if s]
    if not sizes or min(sizes) < 1:
        raise BookEmbedError("--sizes needs integers >= 1")
    rows = ["algo,n,seconds"]
    for n in sizes:
        seconds = _bench_once(args.algo, n, args.seed)
        rows.append(f"{args.algo},{n},{seconds:.6f}")
    _emit(args, "\n".join(rows) + "\n")
    return 0


class _SubcommandParser(argparse.ArgumentParser):
    """Lets positionals follow options.  argparse alone gives the optional
    ``input`` its default before it reaches ``--order``, so
    ``check max --order X g.json`` would leave ``g.json`` unrecognized;
    such a command line is parsed again with the positionals intermixed."""

    _intermixing = False

    def parse_known_args(self, args=None, namespace=None):
        parsed, extras = super().parse_known_args(args, namespace)
        if not extras or self._intermixing:
            return parsed, extras
        self._intermixing = True
        try:
            return self.parse_known_intermixed_args(args, namespace)
        finally:
            self._intermixing = False


def _add_io(parser, with_output=True):
    parser.add_argument("input", nargs="?", default="-", help="graph file or - for stdin")
    parser.add_argument(
        "--format", choices=("json", "edge-list"), default="json",
        help="input graph format",
    )
    if with_output:
        parser.add_argument("--output", help="write result here instead of stdout")


def build_parser():
    parser = argparse.ArgumentParser(
        prog="bookembed",
        description=(
            "Constrained 1-page and two-dimensional book embeddings of "
            "weighted outerplanar graphs.  Disconnected inputs are embedded "
            "per component and concatenated."
        ),
    )
    sub = parser.add_subparsers(
        dest="command", required=True, parser_class=_SubcommandParser
    )

    p = sub.add_parser("check", help="validate a vertex order against a class")
    p.add_argument(
        "embedding_class", choices=("one-page", "max", "sum", "minres"),
    )
    p.add_argument(
        "--order", required=True,
        help="JSON array of vertex ids, @file, or - for stdin",
    )
    _add_io(p)
    p.set_defaults(func=_cmd_check)

    p = sub.add_parser("embed-max", help="max-constrained 1-page embedding")
    _add_io(p)
    p.set_defaults(func=lambda a: _cmd_embed(a, embed_max, "max"))

    p = sub.add_parser("embed-sum", help="sum-constrained 1-page embedding")
    _add_io(p)
    p.set_defaults(func=lambda a: _cmd_embed(a, embed_sum, "sum"))

    p = sub.add_parser("embed-minres", help="resolution-supporting 1-page embedding")
    _add_io(p)
    p.set_defaults(func=lambda a: _cmd_embed(a, embed_minres, "minres"))

    p = sub.add_parser("embed-2d", help="two-dimensional book embedding (JSON)")
    _add_io(p)
    p.add_argument("--eps", default="1", help="area slack for the augmentation")
    p.add_argument("--L", dest="box_width", help="box width (rational)")
    p.add_argument(
        "--minres", action="store_true",
        help="build the unit-resolution drawing instead",
    )
    p.set_defaults(func=_cmd_embed_2d)

    p = sub.add_parser("render", help="render an embedding as SVG")
    _add_io(p)
    p.add_argument("--style", choices=("arc", "rect", "disk"), default="rect")
    p.add_argument("--scale", type=float, default=40.0)
    p.add_argument("--no-labels", action="store_true")
    p.add_argument("--weight-labels", action="store_true")
    p.add_argument("--graph", help="graph file (for arc style over a bare order)")
    p.set_defaults(func=_cmd_render)

    p = sub.add_parser("gen", help="seeded random outerplanar graph")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--biconnected", action="store_true")
    p.add_argument("--wmin", type=int, default=1)
    p.add_argument("--wmax", type=int, default=20)
    p.add_argument("--output")
    p.set_defaults(func=_cmd_gen)

    p = sub.add_parser("bench", help="timing CSV over instance sizes")
    p.add_argument(
        "--algo", required=True,
        choices=("max", "sum", "minres", "2d") + _ORACLE_BENCHES,
    )
    p.add_argument("--sizes", required=True, help="comma-separated sizes")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--output")
    p.set_defaults(func=_cmd_bench)

    return parser


@functools.cache
def _parser():
    """The parser of :func:`main`, built on its first call rather than at
    import.  Parsing leaves the parser as it found it, so every later call
    reuses it."""
    return build_parser()


def main(argv=None):
    args = _parser().parse_args(argv)
    try:
        return args.func(args)
    except BookEmbedError as exc:
        print(f"bookembed: {exc}", file=sys.stderr)
        return 2
    except (ValueError, OSError, json.JSONDecodeError) as exc:
        print(f"bookembed: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
