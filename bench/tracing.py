"""Spans around calls into the package's modules, recorded from outside.

Tracer.install replaces each traced function or method with a wrapper
that records (name, start, end, parent, info) and restores the originals
on exit. A function imported into several modules (``from .x import f``)
is replaced in every module that holds it, so calls between modules are
seen too. Spans stay in memory for one pass and are reduced to per-layer
totals by layer_metrics.
"""

from __future__ import annotations

import contextlib
import sys
import time

# (module, owner attribute or None for a module-level function, attribute, span name)
TRACED = (
    ("graph", "Graph", "__init__", "graph.build"),
    ("graph", "Graph", "diameter", "graph.diameter"),
    ("graph", "Graph", "is_bipartite", "graph.bipartite"),
    ("graph", "Graph", "from_json_dict", "graph.json"),
    ("graph", "Graph", "to_json_dict", "graph.json"),
    ("moebius", None, "moebius_ladder", "moebius.ladder"),
    ("constructions", None, "moebius_max_coloring", "constructions.max_coloring"),
    ("constructions", None, "color_count_bounds", "constructions.bounds"),
    ("constructions", None, "bipartite_upper_bound", "constructions.bounds"),
    ("constructions", None, "odd_cycle_upper_bound", "constructions.bounds"),
    ("coloring", None, "is_interval", "coloring.verify"),
    ("coloring", "EdgeColoring", "__init__", "coloring.build"),
    ("coloring", "EdgeColoring", "from_json_dict", "coloring.json"),
    ("coloring", "EdgeColoring", "to_json_dict", "coloring.json"),
    ("solver", None, "search_interval_coloring", "solver.search"),
    ("solver", None, "chromatic_index_is_delta", "solver.chi_index"),
    ("solver", None, "bfs_edge_order", "solver.bfs_order"),
    ("solver", None, "interval_spectrum", "solver.sweep"),
    ("solver", None, "chromatic_index", "solver.sweep"),
    ("cli", None, "main", "cli.main"),
    ("cli", None, "build_parser", "cli.parse"),
    ("cli", "_Parser", "parse_args", "cli.parse"),
    ("cli", None, "_load_json", "cli.json_load"),
    ("cli", None, "_emit_json", "cli.json_dump"),
)


def _info(name: str, args: tuple, result) -> tuple | None:
    if name == "solver.search":
        return (result.status, result.nodes, args[0].edge_count)
    if name == "coloring.verify":
        return (result.verdict,)
    return None


class Tracer:
    """Records nested spans; one instance per traced run."""

    def __init__(self) -> None:
        self.spans: list = []
        self._stack: list[int] = []
        # root span of one benchmark query; its self time is harness glue
        self.query = self.span("bench.query", lambda body: body())

    def span(self, name: str, fn):
        stack = self._stack
        clock = time.perf_counter

        def traced(*args, **kwargs):
            spans = self.spans
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                end = clock()
                stack.pop()
                # an exception is a failure of the innermost layer it leaves
                first = not getattr(exc, "_bench_seen", False)
                exc._bench_seen = True
                spans[index] = (name, start, end, parent, ("error", type(exc).__name__, first))
                raise
            end = clock()
            stack.pop()
            spans[index] = (name, start, end, parent, _info(name, args, result))
            return result

        return traced

    @contextlib.contextmanager
    def install(self, package: str):
        """Wrap every TRACED callable of `package` for the duration."""
        modules = [m for k, m in sys.modules.items() if k == package or k.startswith(package + ".")]
        undo: list = []
        try:
            for mod_name, owner_name, attr, span_name in TRACED:
                mod = sys.modules[f"{package}.{mod_name}"]
                if owner_name is not None:
                    owner = getattr(mod, owner_name)
                    raw = owner.__dict__.get(attr)
                    if isinstance(raw, classmethod):
                        replacement = classmethod(self.span(span_name, raw.__func__))
                    else:
                        replacement = self.span(span_name, getattr(owner, attr))
                    undo.append((owner, attr, raw))
                    setattr(owner, attr, replacement)
                    continue
                original = getattr(mod, attr)
                wrapped = self.span(span_name, original)
                for m in modules:
                    for key, value in list(vars(m).items()):
                        if value is original:
                            undo.append((m, key, value))
                            setattr(m, key, wrapped)
            yield self
        finally:
            for target, key, value in reversed(undo):
                if value is None:
                    delattr(target, key)
                else:
                    setattr(target, key, value)


def self_times(spans: list) -> list[float]:
    """Each span's duration minus the durations of its direct children.

    Spans nest strictly (one thread, no overlap between siblings), so
    the children's durations are the covered part of the parent.
    """
    own = [end - start for (_, start, end, _, _) in spans]
    for (_, start, end, parent, _) in spans:
        if parent >= 0:
            own[parent] -= end - start
    return own


def layer_metrics(spans: list, queries: int) -> dict[str, float]:
    """Per-layer totals of one traced pass."""
    own = self_times(spans)
    time_by = {}
    calls_by = {}
    for (name, _, _, _, _), s in zip(spans, own):
        time_by[name] = time_by.get(name, 0.0) + s
        calls_by[name] = calls_by.get(name, 0) + 1
    out = {
        "solver.search_s": time_by.get("solver.search", 0.0),
        "solver.bfs_order_s": time_by.get("solver.bfs_order", 0.0),
        "solver.chi_index_s": time_by.get("solver.chi_index", 0.0),
        "solver.sweep_s": time_by.get("solver.sweep", 0.0),
        "graph.build_s": time_by.get("graph.build", 0.0),
        "graph.diameter_s": time_by.get("graph.diameter", 0.0),
        "graph.diameter_calls": calls_by.get("graph.diameter", 0),
        "graph.bipartite_s": time_by.get("graph.bipartite", 0.0),
        "graph.bipartite_calls": calls_by.get("graph.bipartite", 0),
        "graph.json_s": time_by.get("graph.json", 0.0),
        "constructions.bounds_s": time_by.get("constructions.bounds", 0.0),
        "constructions.max_coloring_s": time_by.get("constructions.max_coloring", 0.0),
        "moebius.ladder_s": time_by.get("moebius.ladder", 0.0),
        "moebius.ladder_calls": calls_by.get("moebius.ladder", 0),
        "coloring.verify_s": time_by.get("coloring.verify", 0.0),
        "coloring.verify_calls": calls_by.get("coloring.verify", 0),
        "coloring.json_s": time_by.get("coloring.json", 0.0),
        "coloring.build_s": time_by.get("coloring.build", 0.0),
        "cli.parse_s": time_by.get("cli.parse", 0.0),
        "cli.json_load_s": time_by.get("cli.json_load", 0.0),
        "cli.json_dump_s": time_by.get("cli.json_dump", 0.0),
        "cli.main_s": time_by.get("cli.main", 0.0),
        "bench.self_s": time_by.get("bench.query", 0.0),
        "trace.spans": len(spans),
    }
    nodes = {"feasible": 0, "infeasible": 0}
    search_time = {"feasible": 0.0, "infeasible": 0.0}
    feasible_edges = 0
    valid_s = invalid_s = 0.0
    failures: dict[str, int] = {}
    searches = 0
    for (name, _, _, _, info), s in zip(spans, own):
        if name in ("solver.search", "solver.chi_index"):
            searches += 1
        if info is None:
            continue
        if info[0] == "error":
            if info[2] and name.startswith("solver."):
                failures[info[1]] = failures.get(info[1], 0) + 1
        elif name == "solver.search":
            status, count, edges = info
            if status in nodes:
                nodes[status] += count
                search_time[status] += s
            if status == "feasible":
                feasible_edges += edges
        elif name == "coloring.verify":
            if info[0]:
                valid_s += s
            else:
                invalid_s += s
    total_nodes = sum(nodes.values())
    out.update({
        "solver.nodes": total_nodes,
        "solver.nodes_per_s": total_nodes / out["solver.search_s"] if out["solver.search_s"] else 0.0,
        "solver.proof_nodes": nodes["infeasible"],
        "solver.proof_s": search_time["infeasible"],
        "solver.witness_nodes": nodes["feasible"],
        "solver.witness_s": search_time["feasible"],
        "solver.path_share": feasible_edges / nodes["feasible"] if nodes["feasible"] else 0.0,
        "solver.searches_per_query": searches / queries,
        "solver.failures": sum(failures.values()),
        "solver.failures.RecursionError": failures.get("RecursionError", 0),
        "solver.failures.other": sum(v for k, v in failures.items() if k != "RecursionError"),
        "coloring.verify_valid_s": valid_s,
        "coloring.verify_invalid_s": invalid_s,
    })
    return out
