"""Command-line front end.

Subcommands cover generation (gen), the closed-form ladder coloring
(color), verification (verify), exact search (solve, spectrum,
chi-prime), bounds and diameter queries, and DOT export. Graphs come
either from --n (the Moebius ladder on 2n vertices) or from --in as
graph JSON; "-" means standard input. A coloring brings its own graph:
color and solve embed it under "graph", and verify and export-dot read
it from there. solve prints the coloring it finds, or else a status
object {"status", "t", "nodes"}. Every command writes to stdout only.

Exit codes: 0 success or feasible / verdict true; 1 infeasible or
verdict false; 2 inconclusive (node budget exhausted); 3 usage errors,
including a number out of range (--n below 2, --t or --node-limit below
1); 4 unreadable or malformed input files; 5 internal error (a bug,
reported with its traceback, never a verdict). A reader that closes
stdout early changes none of them.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
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
    edges in the graph's sorted order. Raises ValueError when the
    coloring leaves an edge uncolored or colors a pair that is not an edge.
    """
    lines = ["graph G {"]
    for v in range(1, g.vertex_count + 1):
        lines.append(f"  {v};")
    for u, v in g.edges:
        if coloring is None:
            lines.append(f"  {u} -- {v};")
        else:
            lines.append(f'  {u} -- {v} [label="{coloring.color(u, v)}"];')
    # every edge has a color now, so any further pair is not an edge
    if coloring is not None and len(coloring.assignment) != g.edge_count:
        extra = min(set(coloring.assignment) - set(g.edges))
        raise ValueError(f"edge {extra} is assigned a color but is not an edge of the graph")
    lines.append("}")
    return "\n".join(lines) + "\n"


def _number(least: int, word: str | None = None):
    """argparse type: an integer >= least, or word itself when given."""
    expected = f"an integer >= {least}"
    if word is not None:
        expected = f'"{word}" or {expected}'

    def parse(text: str) -> int | str:
        if text == word:
            return word
        try:
            value = int(text)
        except ValueError:
            value = None
        if value is None or value < least:
            raise argparse.ArgumentTypeError(f"expected {expected}, got {text!r}")
        return value

    return parse


def _load_json(path: str) -> tuple[dict, str]:
    """The JSON object at path ("-" for stdin) and the name errors use for it."""
    where = "standard input" if path == "-" else path
    try:
        if path == "-":
            text = sys.stdin.read()
        else:
            with open(path, "r", encoding="utf-8") as fh:
                text = fh.read()
    except (OSError, UnicodeDecodeError) as e:
        raise _InputError(f"{where}: {getattr(e, 'strerror', None) or e}") from None
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as e:
        raise _InputError(
            f"{where}: invalid JSON at line {e.lineno} column {e.colno}: {e.msg}"
        ) from None
    except (RecursionError, ValueError) as e:
        # nesting deeper than the recursion limit, or an integer literal
        # longer than the interpreter's digit limit
        raise _InputError(f"{where}: invalid JSON: {e}") from None
    if not isinstance(doc, dict):
        raise _InputError(f"{where}: expected a JSON object at top level")
    return doc, where


def _parse(cls, doc: dict, where: str):
    """cls.from_json_dict(doc); a malformed document is an input error."""
    try:
        return cls.from_json_dict(doc)
    except ValueError as e:
        raise _InputError(f"{where}: {e}") from None


def _graph(args: argparse.Namespace, parser: _Parser) -> Graph:
    if args.n is not None and args.infile is not None:
        parser.error("give --n or --in, not both")
    if args.n is not None:
        return moebius_ladder(args.n).graph
    if args.infile is None:
        parser.error("a graph is required: pass --n N or --in PATH")
    return _parse(Graph, *_load_json(args.infile))


def _colored(doc: dict, where: str, parser: _Parser) -> tuple[Graph, EdgeColoring]:
    """The coloring in doc and the graph embedded beside it."""
    coloring = _parse(EdgeColoring, doc, where)
    if "graph" not in doc:
        parser.error('no graph for the coloring: embed a "graph" object')
    return _parse(Graph, doc["graph"], f"{where} (embedded graph)"), coloring


def _emit(text: str) -> None:
    try:
        sys.stdout.write(text)
        sys.stdout.flush()
    except BrokenPipeError:
        # the reader left, which changes no answer; fd 1 goes to devnull
        # so that the interpreter's flush at exit cannot fail again
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)


def _emit_json(doc: dict) -> None:
    # one line, machine-first; pipe through a pretty-printer to browse
    _emit(json.dumps(doc) + "\n")


def _coloring_doc(coloring: EdgeColoring, g: Graph) -> dict:
    # embed the graph so verify and export-dot can run on the document
    # alone; readers that only want the coloring ignore the extra key
    doc = coloring.to_json_dict()
    doc["graph"] = g.to_json_dict()
    return doc


def _cmd_gen(args: argparse.Namespace, parser: _Parser) -> int:
    doc = moebius_ladder(args.n).graph.to_json_dict()
    doc["family"] = "moebius"
    doc["n"] = args.n
    _emit_json(doc)
    return EXIT_OK


def _cmd_color(args: argparse.Namespace, parser: _Parser) -> int:
    g = moebius_ladder(args.n).graph
    _emit_json(_coloring_doc(moebius_max_coloring(args.n), g))
    return EXIT_OK


def _cmd_verify(args: argparse.Namespace, parser: _Parser) -> int:
    report = is_interval(*_colored(*_load_json(args.infile), parser))
    _emit_json(report.to_json_dict())
    return EXIT_OK if report.verdict else EXIT_NEGATIVE


def _cmd_solve(args: argparse.Namespace, parser: _Parser) -> int:
    """Search for an interval args.t-coloring; emit it, or else the status."""
    g = _graph(args, parser)
    outcome = search_interval_coloring(g, args.t, node_limit=args.node_limit)
    if outcome.status == FEASIBLE:
        _emit_json(_coloring_doc(outcome.coloring, g))
        return EXIT_OK
    _emit_json({"status": outcome.status, "t": args.t, "nodes": outcome.nodes})
    return EXIT_INCONCLUSIVE if outcome.status == INCONCLUSIVE else EXIT_NEGATIVE


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
    g = _graph(args, parser)
    try:
        report = interval_spectrum(g, args.cap, node_limit=args.node_limit)
    except ValueError as e:
        parser.error(str(e))
    if args.format == "csv":
        _emit(_spectrum_csv(report, args.n))
    else:
        _emit_json(report.to_json_dict())
    return EXIT_INCONCLUSIVE if report.inconclusive_t else EXIT_OK


def _cmd_bounds(args: argparse.Namespace, parser: _Parser) -> int:
    _emit_json(color_count_bounds(_graph(args, parser)).to_json_dict())
    return EXIT_OK


def _cmd_diameter(args: argparse.Namespace, parser: _Parser) -> int:
    g = _graph(args, parser)
    _emit_json({"vertex_count": g.vertex_count, "diameter": g.diameter()})
    return EXIT_OK


def _cmd_chi_prime(args: argparse.Namespace, parser: _Parser) -> int:
    g = _graph(args, parser)
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
        }
    )
    return EXIT_OK if equal else EXIT_NEGATIVE


def _cmd_export_dot(args: argparse.Namespace, parser: _Parser) -> int:
    if args.n is not None:
        _emit(export_dot(_graph(args, parser)))
        return EXIT_OK
    doc, where = _load_json(args.infile or "-")
    if "colors" in doc:
        try:
            text = export_dot(*_colored(doc, where, parser))
        except ValueError as e:  # an edge uncolored, or a colored non-edge
            raise _InputError(f"{where}: {e}") from None
    else:
        text = export_dot(_parse(Graph, doc, where))
    _emit(text)
    return EXIT_OK


def build_parser() -> _Parser:
    parser = _Parser(
        prog="intervalcolor",
        description="Construct, verify, and exhaustively search interval edge colorings."
        " Every command writes its result to stdout.",
    )
    sub = parser.add_subparsers(
        dest="command", metavar="COMMAND", parser_class=_Parser
    )
    shared = {
        "--n": {"type": _number(2)},
        "--in": {"dest": "infile", "metavar": "PATH"},
        "--node-limit": {"type": _number(1)},
    }

    def command(name, func, summary, *options) -> None:
        # options are (flag, help) or (flag, help, keywords), in help order
        p = sub.add_parser(name, help=summary)
        for flag, text, *more in options:
            p.add_argument(flag, help=text, **shared.get(flag, {}), **(more[0] if more else {}))
        p.set_defaults(func=func, subparser=p)

    ladder = ("--n", "ladder parameter, 2n vertices", {"required": True})
    graph = (
        ("--n", "use the Moebius ladder on 2n vertices"),
        ("--in", 'graph JSON file ("-" for stdin)'),
    )
    command("gen", _cmd_gen, "emit a Moebius ladder as graph JSON", ladder)
    command("color", _cmd_color, "closed-form n+2 coloring of a Moebius ladder", ladder)
    command(
        "verify",
        _cmd_verify,
        "check a coloring on its embedded graph against the definition",
        ("--in", 'coloring JSON file ("-" for stdin, the default)', {"default": "-"}),
    )
    command(
        "solve",
        _cmd_solve,
        "search for an interval t-coloring",
        *graph,
        ("--t", "exact number of colors", {"type": _number(1), "required": True}),
        ("--node-limit", "give up after this many search nodes"),
    )
    command(
        "spectrum",
        _cmd_spectrum,
        "sweep t and report all feasible color counts",
        *graph,
        (
            "--cap",
            'largest t to try: "auto" (default) uses the diameter bound',
            {"default": "auto", "type": _number(0, "auto")},
        ),
        ("--node-limit", "per-t search budget"),
        ("--format", None, {"choices": ["json", "csv"], "default": "json"}),
    )
    command("bounds", _cmd_bounds, "upper bounds on interval color counts", *graph)
    command("diameter", _cmd_diameter, "graph diameter by BFS", *graph)
    command(
        "chi-prime",
        _cmd_chi_prime,
        "chromatic index, and whether it equals the max degree",
        *graph,
        ("--node-limit", "search budget"),
    )
    command(
        "export-dot",
        _cmd_export_dot,
        "emit a graph, or a coloring on its embedded graph, as DOT text",
        graph[0],
        ("--in", 'graph or coloring JSON file ("-" for stdin, the default)'),
    )
    return parser


_main_parser = functools.cache(build_parser)  # parsing leaves no state in it


def main(argv: list[str] | None = None) -> int:
    parser = _main_parser()
    args = parser.parse_args(argv)
    if not getattr(args, "command", None):
        parser.error("a subcommand is required")
    try:
        return args.func(args, args.subparser)
    except _InputError as e:
        print(f"intervalcolor: error: {e}", file=sys.stderr)
        return EXIT_INPUT
    except Exception as e:
        traceback.print_exc()
        print(f"intervalcolor: internal error: {e!r}", file=sys.stderr)
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
