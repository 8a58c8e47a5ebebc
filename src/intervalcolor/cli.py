"""Command-line front end.

Subcommands cover generation (gen), the closed-form ladder coloring
(color), verification (verify), exact search (solve, spectrum,
chi-prime), bounds and diameter queries, and DOT export. Graphs come
either from --n (the Moebius ladder on 2n vertices) or from --in as
graph JSON; "-" means standard input.

Exit codes: 0 success or feasible / verdict true; 1 infeasible or
verdict false; 2 inconclusive (node budget exhausted); 3 usage errors;
4 unreadable or malformed input files; 5 internal error (a bug, reported
with its traceback, never a verdict).
"""

from __future__ import annotations

import argparse
import json
import sys
import traceback
from typing import NoReturn

from .coloring import EdgeColoring, is_interval
from .constructions import color_count_bounds, moebius_max_coloring
from .graph import Graph
from .moebius import moebius_ladder
from .solver import (
    FEASIBLE,
    INCONCLUSIVE,
    SearchLimitError,
    chromatic_index_is_delta,
    interval_spectrum,
    search_interval_coloring,
)

EXIT_OK = 0
EXIT_NEGATIVE = 1
EXIT_INCONCLUSIVE = 2
EXIT_USAGE = 3
EXIT_INPUT = 4
EXIT_INTERNAL = 5


class _InputError(Exception):
    """Unreadable or malformed input file; message is user-facing."""


class _Parser(argparse.ArgumentParser):
    # argparse exits 2 on usage errors by default, which collides with
    # the inconclusive exit code
    def error(self, message: str) -> NoReturn:
        self.print_usage(sys.stderr)
        self.exit(EXIT_USAGE, f"{self.prog}: error: {message}\n")


def export_dot(g: Graph, coloring: EdgeColoring | None = None) -> str:
    """Graph as DOT text, edges labeled by color when one is given.

    Output is byte-stable for identical inputs: vertices ascending, then
    edges in the graph's sorted order.
    """
    lines = ["graph G {"]
    for v in range(1, g.vertex_count + 1):
        lines.append(f"  {v};")
    for u, v in g.edges:
        if coloring is None:
            lines.append(f"  {u} -- {v};")
        else:
            lines.append(f'  {u} -- {v} [label="{coloring.color(u, v)}"];')
    lines.append("}")
    return "\n".join(lines) + "\n"


def _read_text(path: str) -> str:
    if path == "-":
        return sys.stdin.read()
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return fh.read()
    except OSError as e:
        raise _InputError(f"{path}: {e.strerror or e}") from None


def _load_json(path: str) -> dict:
    text = _read_text(path)
    where = "standard input" if path == "-" else path
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as e:
        raise _InputError(
            f"{where}: invalid JSON at line {e.lineno} column {e.colno}: {e.msg}"
        ) from None
    if not isinstance(doc, dict):
        raise _InputError(f"{where}: expected a JSON object at top level")
    return doc


def _graph_from_doc(doc: dict, where: str) -> Graph:
    try:
        return Graph.from_json_dict(doc)
    except ValueError as e:
        raise _InputError(f"{where}: {e}") from None


def _coloring_from_doc(doc: dict, where: str) -> EdgeColoring:
    try:
        return EdgeColoring.from_json_dict(doc)
    except ValueError as e:
        raise _InputError(f"{where}: {e}") from None


def _moebius_graph(n: int, parser: _Parser) -> Graph:
    if n < 2:
        parser.error(f"--n must be at least 2, got {n}")
    return moebius_ladder(n).graph


def _graph_from_args(args: argparse.Namespace, parser: _Parser) -> Graph:
    if args.n is not None and args.infile is not None:
        parser.error("give --n or --in, not both")
    if args.n is not None:
        return _moebius_graph(args.n, parser)
    if args.infile is not None:
        where = "standard input" if args.infile == "-" else args.infile
        return _graph_from_doc(_load_json(args.infile), where)
    parser.error("a graph is required: pass --n N or --in PATH")


def _emit(text: str, out_path: str | None) -> None:
    if out_path is None or out_path == "-":
        sys.stdout.write(text)
        return
    try:
        with open(out_path, "w", encoding="utf-8") as fh:
            fh.write(text)
    except OSError as e:
        raise _InputError(f"{out_path}: {e.strerror or e}") from None


def _emit_json(doc: dict, out_path: str | None) -> None:
    # one line, machine-first; pipe through a pretty-printer to browse
    _emit(json.dumps(doc) + "\n", out_path)


def _coloring_doc(coloring: EdgeColoring, g: Graph) -> dict:
    # embed the graph so verify and export-dot can run on the document
    # alone; readers that only want the coloring ignore the extra key
    doc = coloring.to_json_dict()
    doc["graph"] = g.to_json_dict()
    return doc


def _cmd_gen(args: argparse.Namespace, parser: _Parser) -> int:
    g = _moebius_graph(args.n, parser)
    doc = g.to_json_dict()
    doc["family"] = "moebius"
    doc["n"] = args.n
    _emit_json(doc, args.out)
    return EXIT_OK


def _parse_t(value: str, parser: _Parser) -> int | str:
    if value == "max":
        return "max"
    try:
        t = int(value)
    except ValueError:
        parser.error(f'--t must be "max" or a positive integer, got {value!r}')
    if t < 1:
        parser.error(f"--t must be positive, got {t}")
    return t


def _cmd_color(args: argparse.Namespace, parser: _Parser) -> int:
    g = _moebius_graph(args.n, parser)
    t = _parse_t(args.t, parser)
    if t == "max":
        coloring = moebius_max_coloring(args.n)
    else:
        outcome = search_interval_coloring(g, t, node_limit=args.node_limit)
        if outcome.status == INCONCLUSIVE:
            print(f"inconclusive: node budget exhausted at t={t}", file=sys.stderr)
            return EXIT_INCONCLUSIVE
        if outcome.status != FEASIBLE:
            print(f"no interval {t}-coloring exists for this graph", file=sys.stderr)
            return EXIT_NEGATIVE
        coloring = outcome.coloring
    _emit_json(_coloring_doc(coloring, g), args.out)
    return EXIT_OK


def _cmd_verify(args: argparse.Namespace, parser: _Parser) -> int:
    where = "standard input" if args.infile == "-" else args.infile
    doc = _load_json(args.infile)
    coloring = _coloring_from_doc(doc, where)
    if args.n is not None:
        g = _moebius_graph(args.n, parser)
    elif isinstance(doc.get("graph"), dict):
        g = _graph_from_doc(doc["graph"], f"{where} (embedded graph)")
    else:
        parser.error('no graph to verify against: pass --n or embed a "graph" object')
    report = is_interval(g, coloring)
    _emit_json(report.to_json_dict(), args.out)
    return EXIT_OK if report.verdict else EXIT_NEGATIVE


def _cmd_solve(args: argparse.Namespace, parser: _Parser) -> int:
    g = _graph_from_args(args, parser)
    outcome = search_interval_coloring(g, args.t, node_limit=args.node_limit)
    if outcome.status == INCONCLUSIVE:
        _emit_json(
            {"status": INCONCLUSIVE, "t": args.t, "nodes": outcome.nodes}, args.out
        )
        return EXIT_INCONCLUSIVE
    if outcome.status != FEASIBLE:
        _emit_json(
            {"status": outcome.status, "t": args.t, "nodes": outcome.nodes}, args.out
        )
        return EXIT_NEGATIVE
    _emit_json(_coloring_doc(outcome.coloring, g), args.out)
    return EXIT_OK


def _parse_cap(value: str, parser: _Parser) -> int | str:
    if value == "auto":
        return "auto"
    try:
        return int(value)
    except ValueError:
        parser.error(f'--cap must be "auto" or an integer, got {value!r}')


def _spectrum_csv(report, family_n: int | None) -> str:
    n = family_n if family_n is not None else report.vertex_count
    rows = ["n,t,feasible,nodes_searched"]
    for entry in report.entries:
        verdict = {FEASIBLE: "true", INCONCLUSIVE: "inconclusive"}.get(
            entry.status, "false"
        )
        rows.append(f"{n},{entry.t},{verdict},{entry.nodes}")
    return "\n".join(rows) + "\n"


def _cmd_spectrum(args: argparse.Namespace, parser: _Parser) -> int:
    g = _graph_from_args(args, parser)
    cap = _parse_cap(args.cap, parser)
    try:
        report = interval_spectrum(g, cap, node_limit=args.node_limit)
    except ValueError as e:
        parser.error(str(e))
    if args.format == "csv":
        _emit(_spectrum_csv(report, args.n), args.out)
    else:
        _emit_json(report.to_json_dict(), args.out)
    return EXIT_INCONCLUSIVE if report.inconclusive_t else EXIT_OK


def _cmd_bounds(args: argparse.Namespace, parser: _Parser) -> int:
    g = _graph_from_args(args, parser)
    _emit_json(color_count_bounds(g).to_json_dict(), args.out)
    return EXIT_OK


def _cmd_diameter(args: argparse.Namespace, parser: _Parser) -> int:
    g = _graph_from_args(args, parser)
    _emit_json({"vertex_count": g.vertex_count, "diameter": g.diameter()}, args.out)
    return EXIT_OK


def _cmd_chi_prime(args: argparse.Namespace, parser: _Parser) -> int:
    g = _graph_from_args(args, parser)
    try:
        equal = chromatic_index_is_delta(g, node_limit=args.node_limit)
    except SearchLimitError as e:
        print(f"inconclusive: {e}", file=sys.stderr)
        return EXIT_INCONCLUSIVE
    delta = g.max_degree()  # the chromatic index is delta or delta + 1
    _emit_json(
        {
            "max_degree": delta,
            "chromatic_index": delta if equal else delta + 1,
            "equals_max_degree": equal,
        },
        args.out,
    )
    return EXIT_OK if equal else EXIT_NEGATIVE


def _cmd_export_dot(args: argparse.Namespace, parser: _Parser) -> int:
    if args.n is not None and args.infile is None:
        _emit(export_dot(_moebius_graph(args.n, parser)), args.out)
        return EXIT_OK
    if args.infile is None:
        args.infile = "-"
    where = "standard input" if args.infile == "-" else args.infile
    doc = _load_json(args.infile)
    if "colors" in doc:
        coloring = _coloring_from_doc(doc, where)
        if args.n is not None:
            g = _moebius_graph(args.n, parser)
        elif isinstance(doc.get("graph"), dict):
            g = _graph_from_doc(doc["graph"], f"{where} (embedded graph)")
        else:
            parser.error('no graph to draw: pass --n or embed a "graph" object')
        _emit(export_dot(g, coloring), args.out)
    else:
        _emit(export_dot(_graph_from_doc(doc, where)), args.out)
    return EXIT_OK


def _add_graph_source(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--n", type=int, help="use the Moebius ladder on 2n vertices")
    sub.add_argument(
        "--in", dest="infile", metavar="PATH", help='graph JSON file ("-" for stdin)'
    )


def _add_out(sub: argparse.ArgumentParser) -> None:
    sub.add_argument(
        "--out", metavar="PATH", help="write output here instead of stdout"
    )


def build_parser() -> _Parser:
    parser = _Parser(
        prog="intervalcolor",
        description="Construct, verify, and exhaustively search interval edge colorings.",
    )
    sub = parser.add_subparsers(
        dest="command", metavar="COMMAND", parser_class=_Parser
    )

    p = sub.add_parser("gen", help="emit a Moebius ladder as graph JSON")
    p.add_argument("--n", type=int, required=True, help="ladder parameter, 2n vertices")
    _add_out(p)
    p.set_defaults(func=_cmd_gen, subparser=p)

    p = sub.add_parser(
        "color",
        help="emit an interval coloring of a Moebius ladder",
    )
    p.add_argument("--n", type=int, required=True, help="ladder parameter, 2n vertices")
    p.add_argument(
        "--t",
        default="max",
        help='color count: "max" for the closed-form n+2 coloring (default), '
        "or an integer to search for one",
    )
    p.add_argument("--node-limit", type=int, help="search budget for integer --t")
    _add_out(p)
    p.set_defaults(func=_cmd_color, subparser=p)

    p = sub.add_parser(
        "verify", help="check a coloring against the definition"
    )
    p.add_argument(
        "--in",
        dest="infile",
        metavar="PATH",
        default="-",
        help='coloring JSON file ("-" for stdin, the default)',
    )
    p.add_argument("--n", type=int, help="verify against the Moebius ladder on 2n vertices")
    _add_out(p)
    p.set_defaults(func=_cmd_verify, subparser=p)

    p = sub.add_parser(
        "solve", help="search for an interval t-coloring"
    )
    _add_graph_source(p)
    p.add_argument("--t", type=int, required=True, help="exact number of colors")
    p.add_argument("--node-limit", type=int, help="give up after this many search nodes")
    _add_out(p)
    p.set_defaults(func=_cmd_solve, subparser=p)

    p = sub.add_parser(
        "spectrum",
        help="sweep t and report all feasible color counts",
    )
    _add_graph_source(p)
    p.add_argument(
        "--cap",
        default="auto",
        help='largest t to try: "auto" (default) uses the diameter bound',
    )
    p.add_argument("--node-limit", type=int, help="per-t search budget")
    p.add_argument("--format", choices=["json", "csv"], default="json")
    _add_out(p)
    p.set_defaults(func=_cmd_spectrum, subparser=p)

    p = sub.add_parser(
        "bounds", help="upper bounds on interval color counts"
    )
    _add_graph_source(p)
    _add_out(p)
    p.set_defaults(func=_cmd_bounds, subparser=p)

    p = sub.add_parser("diameter", help="graph diameter by BFS")
    _add_graph_source(p)
    _add_out(p)
    p.set_defaults(func=_cmd_diameter, subparser=p)

    p = sub.add_parser(
        "chi-prime",
        help="chromatic index, and whether it equals the max degree",
    )
    _add_graph_source(p)
    p.add_argument("--node-limit", type=int, help="search budget")
    _add_out(p)
    p.set_defaults(func=_cmd_chi_prime, subparser=p)

    p = sub.add_parser(
        "export-dot", help="emit the graph as DOT text"
    )
    _add_graph_source(p)
    _add_out(p)
    p.set_defaults(func=_cmd_export_dot, subparser=p)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if not getattr(args, "command", None):
        parser.error("a subcommand is required")
    if getattr(args, "node_limit", None) is not None and args.node_limit < 1:
        parser.error(f"--node-limit must be positive, got {args.node_limit}")
    try:
        return args.func(args, args.subparser)
    except _InputError as e:
        print(f"intervalcolor: error: {e}", file=sys.stderr)
        return EXIT_INPUT
    except BrokenPipeError:
        return EXIT_OK
    except Exception as e:
        traceback.print_exc()
        print(f"intervalcolor: internal error: {e!r}", file=sys.stderr)
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
