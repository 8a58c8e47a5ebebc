"""The three benchmark workloads.

Each workload builds its inputs from a seed in its constructor (that is
the set-up the benchmark times), exposes `queries`, a list of
zero-argument callables that each run one query through the package,
and judges what a query returned against answers known without the
package. `record` reduces a query's result to plain data, so later
passes, and traced passes, can be compared with the first for equality;
`summary` keeps the part of it that goes into the printed fingerprint.

Judgements are "ok", "wrong" (contradicts a known answer) or "failed"
(no checked verdict: an exception, an inconclusive status, or an exit
code without the status document that should come with it).
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import random

import checker


def _stratified(rng: random.Random, count: int, lo: int, hi: int) -> list[int]:
    """`count` values in lo..hi, one drawn from each of `count` equal strata.

    Seeds then move each size only within its stratum, so the size mix,
    and with it the spread of per-query times, is nearly seed-independent.
    """
    width = (hi - lo + 1) / count
    return [lo + int((i + rng.random()) * width) for i in range(count)]


def _graph(family: str, size: tuple[int, ...]):
    return {"path": checker.path, "cycle": checker.cycle, "ladder": checker.ladder,
            "grid": checker.grid}[family](*size)


def _size(family: str, vertex_count: int) -> tuple[int, ...]:
    """The family member with about `vertex_count` vertices."""
    if family == "path":
        return (vertex_count,)
    if family in ("cycle", "ladder"):
        even = vertex_count - vertex_count % 2
        return (even,) if family == "cycle" else (even // 2,)
    a = round((vertex_count * 0.6) ** 0.5)
    return (a, vertex_count // a)


def _known_coloring(family: str, size: tuple[int, ...], t: int) -> dict:
    if family == "path":
        return checker.path_coloring(size[0], t)
    if family == "cycle":
        return checker.cycle_coloring(size[0], t)
    if family == "ladder":
        return checker.ladder_coloring(size[0])
    return checker.grid_coloring(size[0], size[1], t)


CORRUPTIONS = ("out_of_range", "uncolored", "repeated")


def _corrupt(rng: random.Random, kind: str, vertex_count: int, edges: list, t: int) -> tuple:
    """A seeded plan for one corrupted copy: (kind, edge, other edge or color)."""
    if kind == "out_of_range":
        return (kind, edges[rng.randrange(len(edges))], rng.choice((0, t + 1)))
    if kind == "uncolored":
        return (kind, edges[rng.randrange(len(edges))], None)
    at: dict[int, list] = {}
    for e in edges:
        at.setdefault(e[0], []).append(e)
        at.setdefault(e[1], []).append(e)
    x = rng.choice([v for v in range(1, vertex_count + 1) if len(at.get(v, ())) >= 2])
    first, second = rng.sample(at[x], 2)
    return (kind, second, first)


def _apply(plan: tuple, colors: dict) -> dict:
    kind, edge, arg = plan
    copy = dict(colors)
    if kind == "out_of_range":
        copy[edge] = arg
    elif kind == "uncolored":
        del copy[edge]
    else:
        copy[edge] = copy[arg]
    return copy


class LadderSpectrum:
    """interval_spectrum(moebius_ladder(n).graph, "auto") for n = 2..7 and 9."""

    name = "ladder-spectrum"
    NS = (2, 3, 4, 5, 6, 7, 9)

    def __init__(self, ic, seed: int, workdir: str):
        rng = random.Random(seed)
        self.ic = ic
        self.ns = list(self.NS)
        rng.shuffle(self.ns)
        self.graphs = {n: ic.moebius_ladder(n).graph for n in self.ns}
        self.queries = [self._query(n) for n in self.ns]

    def _query(self, n: int):
        graph = self.graphs[n]
        return lambda: self.ic.interval_spectrum(graph, "auto")

    def record(self, i: int, report) -> tuple:
        return (
            self.ns[i],
            report.feasible_t,
            report.inconclusive_t,
            report.min_colors,
            report.max_colors,
            report.t_max_searched,
            tuple((e.t, e.status, e.nodes) for e in report.entries),
            tuple((t, tuple(sorted(c.assignment.items()))) for t, c in sorted(report.witnesses.items())),
        )

    def judge(self, i: int, rec: tuple) -> str:
        n, feasible, inconclusive, lo, hi, cap, entries, witnesses = rec
        if inconclusive:
            return "failed"
        expected_cap = n + 2 if n % 2 else n + 3
        statuses = {t: s for t, s, _ in entries}
        if (
            feasible != tuple(range(3, n + 3))
            or (lo, hi, cap) != (3, n + 2, expected_cap)
            or any(statuses[t] != "infeasible" for t in range(n + 3, cap + 1))
        ):
            return "wrong"
        vertex_count, edges = checker.ladder(n)
        if tuple(sorted(e for e, _ in witnesses[0][1])) != tuple(sorted(edges)):
            return "wrong"
        for t, items in witnesses:
            if not checker.is_interval_coloring(vertex_count, edges, t, dict(items)):
                return "wrong"
        return "ok"

    def summary(self, i: int, rec: tuple) -> tuple:
        return rec[0], rec[6]

    def fingerprint(self, summaries: list) -> dict:
        by_n = {n: {t: nodes for t, _, nodes in entries} for n, entries in summaries if n != "raised"}
        differs = [
            f"M{2 * n} t={t}"
            for n, per_t in checker.REFERENCE_NODES.items()
            for t, nodes in per_t.items()
            if by_n.get(n, {}).get(t) != nodes
        ] + [
            f"M{2 * n} total"
            for n, total in checker.REFERENCE_TOTALS.items()
            if sum(by_n.get(n, {}).values()) != total
        ]
        return {
            "nodes": {f"M{2 * n}": {str(t): c for t, c in sorted(by_n[n].items())} for n in sorted(by_n)},
            "totals": {f"M{2 * n}": sum(by_n[n].values()) for n in sorted(by_n)},
            "reference": "match" if not differs else differs,
        }


class CliSparse:
    """A seeded mix of in-process solve, bounds, chi-prime and verify calls
    on graph JSON files of 300-1,600 vertices."""

    name = "cli-sparse"

    def __init__(self, ic, seed: int, workdir: str):
        rng = random.Random(seed)
        self.ic = ic
        plan = []

        def add(command, family, vertex_counts, t_lo=None, t_hi=None):
            for v in vertex_counts:
                t = rng.randint(t_lo, t_hi) if t_lo is not None else None
                plan.append((command, family, _size(family, v), t))

        def strata(count, lo, hi):
            return _stratified(rng, count, lo, hi)

        # Searches recurse once per edge, so graphs that should be decided
        # stay at or below 880 edges and the three big ones (P_1500, M_1600,
        # 20x30 grid) at 1,150 edges and more: they raise RecursionError.
        add("solve", "path", strata(9, 300, 880), 2, 6)
        add("solve", "cycle", strata(9, 300, 880), 2, 6)
        add("solve", "ladder", strata(9, 300, 580), 3, 6)
        add("solve", "grid", strata(10, 300, 450), 6, 6)
        add("solve", "path", [1500], 2, 6)
        add("solve", "ladder", [1600], 3, 6)
        plan.append(("solve", "grid", (20, 30), 6))
        # bounds runs an all-pairs BFS, the slowest query here and the
        # one that sets query_ms_tail: one size per stratum of 300-600
        # vertices, families in turn, keeps its cost spread seed-independent
        families = ("path", "cycle", "ladder", "grid")
        for i, v in enumerate(strata(16, 300, 600)):
            plan.append(("bounds", families[i % 4], _size(families[i % 4], v), None))
        add("chi-prime", "path", strata(5, 300, 880))
        add("chi-prime", "cycle", strata(5, 300, 880))
        add("chi-prime", "ladder", strata(4, 300, 580))
        add("chi-prime", "grid", strata(5, 300, 450))
        add("chi-prime", "ladder", [1600])
        add("verify", "path", strata(6, 300, 1600), 2, 6)
        add("verify", "cycle", strata(6, 300, 1600), 2, 6)
        add("verify", "ladder", strata(6, 300, 1600), 3, 3)
        add("verify", "grid", strata(6, 300, 1600), 4, 8)
        rng.shuffle(plan)

        self.plan = []
        self.queries = []
        verify_seen = 0
        for i, (command, family, size, t) in enumerate(plan):
            vertex_count, edges = _graph(family, size)
            doc = {"vertices": vertex_count, "edges": [list(e) for e in edges]}
            corruption = None
            if command == "verify":
                # every other verify input is a corrupted copy, kinds in turn
                if verify_seen % 2:
                    kind = CORRUPTIONS[(verify_seen // 2) % len(CORRUPTIONS)]
                    corruption = _corrupt(rng, kind, vertex_count, edges, t)
                verify_seen += 1
                colors = self._colors(family, size, t, corruption)
                doc = {
                    "t": t,
                    "colors": [{"edge": list(e), "color": c} for e, c in sorted(colors.items())],
                    "graph": doc,
                }
            self.plan.append((command, family, size, t, corruption))
            path = os.path.join(workdir, f"q{i:03d}.json")
            with open(path, "w", encoding="utf-8") as fh:
                fh.write(json.dumps(doc))
            argv = [command, "--in", path]
            if command == "solve":
                argv += ["--t", str(t)]
            self.queries.append(self._query(argv))

    @staticmethod
    def _colors(family, size, t, corruption) -> dict:
        colors = _known_coloring(family, size, t)
        return _apply(corruption, colors) if corruption else colors

    def _query(self, argv: list[str]):
        def run():
            out = io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
                code = self.ic.cli.main(argv)
            return code, out.getvalue()

        return run

    def record(self, i: int, result) -> tuple:
        return result

    def judge(self, i: int, rec: tuple) -> str:
        command, family, size, t, corruption = self.plan[i]
        vertex_count, edges = _graph(family, size)
        code, out = rec
        try:
            doc = json.loads(out) if out else None
        except json.JSONDecodeError:
            doc = None
        if not isinstance(doc, dict):
            return "failed"
        if command == "solve":
            if code == 1 and doc.get("status") == "infeasible":
                return "wrong" if t in checker.feasible_t(family, size) else "ok"
            if code != 0:
                return "failed"
            graph = doc.get("graph", {})
            witness = {tuple(r["edge"]): r["color"] for r in doc.get("colors", [])}
            ok = (
                doc.get("t") == t
                and graph.get("vertices") == vertex_count
                and sorted(map(tuple, graph.get("edges", []))) == sorted(edges)
                and checker.is_interval_coloring(vertex_count, edges, t, witness)
            )
            return "ok" if ok else "wrong"
        if command == "bounds":
            if code != 0:
                return "failed"
            known = checker.bounds(family, size)
            return "ok" if all(doc.get(k) == v for k, v in known.items()) else "wrong"
        if command == "chi-prime":
            if code not in (0, 1) or "chromatic_index" not in doc:
                return "failed"
            delta = checker.max_degree(family)
            ok = code == 0 and doc["chromatic_index"] == delta and doc.get("equals_max_degree") is True
            return "ok" if ok and doc.get("max_degree") == delta else "wrong"
        if code not in (0, 1) or "verdict" not in doc:
            return "failed"
        got = {
            "proper": doc.get("proper"),
            "surjective": doc.get("surjective"),
            "interval": doc.get("interval_at_each_vertex"),
        }
        expect = checker.check(vertex_count, edges, t, self._colors(family, size, t, corruption))
        verdict = all(expect.values())
        ok = got == expect and doc["verdict"] is verdict and code == (0 if verdict else 1)
        return "ok" if ok else "wrong"

    def summary(self, i: int, rec: tuple) -> tuple:
        return rec[:1]

    def fingerprint(self, summaries: list) -> dict:
        outcomes = {}
        for (command, *_), rec in zip(self.plan, summaries):
            key = f"{command} raised {rec[1]}" if rec[0] == "raised" else f"{command} exit {rec[0]}"
            outcomes[key] = outcomes.get(key, 0) + 1
        return {"outcomes": dict(sorted(outcomes.items()))}


class LadderVerify:
    """moebius_ladder, moebius_max_coloring, is_interval and a JSON round
    trip for n = 2..400 in seeded order, then three seeded corrupted
    copies per n."""

    name = "ladder-verify"
    NS = range(2, 401)

    def __init__(self, ic, seed: int, workdir: str):
        rng = random.Random(seed)
        self.ic = ic
        # shuffled, so each pass's median and tail queries are spread over
        # the pass instead of sitting in one stretch of it
        self.ns = list(self.NS)
        rng.shuffle(self.ns)
        self.plans = {}
        for n in self.ns:
            vertex_count, edges = checker.ladder(n)
            self.plans[n] = [_corrupt(rng, kind, vertex_count, edges, n + 2) for kind in CORRUPTIONS]
        self.queries = [self._query(n) for n in self.ns]

    def _query(self, n: int):
        ic = self.ic
        plans = self.plans[n]

        def run():
            ladder = ic.moebius_ladder(n)
            coloring = ic.moebius_max_coloring(n)
            report = ic.is_interval(ladder.graph, coloring)
            text = json.dumps(coloring.to_json_dict())
            back = ic.EdgeColoring.from_json_dict(json.loads(text))
            corrupted = [
                ic.is_interval(ladder.graph, ic.EdgeColoring(coloring.t, _apply(p, coloring.assignment)))
                for p in plans
            ]
            return ladder, coloring, report, back, corrupted

        return run

    def record(self, i: int, result) -> tuple:
        ladder, coloring, report, back, corrupted = result

        def parts(r):
            return (r.verdict, r.proper, r.surjective, r.interval_at_each_vertex, len(r.violations))

        return (
            self.ns[i],
            ladder.graph.edges,
            coloring.t,
            tuple(sorted(coloring.assignment.items())),
            back.t == coloring.t and back.assignment == coloring.assignment,
            parts(report),
            tuple(parts(r) for r in corrupted),
        )

    def judge(self, i: int, rec: tuple) -> str:
        n, graph_edges, t, items, round_trip, valid, corrupted = rec
        vertex_count, edges = checker.ladder(n)
        colors = dict(items)
        if (
            tuple(sorted(graph_edges)) != tuple(sorted(edges))
            or t != n + 2
            or not round_trip
            or not checker.is_interval_coloring(vertex_count, edges, t, colors)
            or valid[:4] != (True, True, True, True)
        ):
            return "wrong"
        for plan, got in zip(self.plans[n], corrupted):
            known = checker.check(vertex_count, edges, t, _apply(plan, colors))
            if got[0] or got[1:4] != (known["proper"], known["surjective"], known["interval"]) or known["proper"]:
                return "wrong"
        return "ok"

    def summary(self, i: int, rec: tuple) -> tuple:
        return rec[5:]

    def fingerprint(self, summaries: list) -> dict:
        decided = [s for s in summaries if s[0] != "raised"]
        return {
            "valid_verdicts": sum(valid[0] for valid, _ in decided),
            "invalid_verdicts": sum(not p[0] for _, corrupted in decided for p in corrupted),
        }


WORKLOADS = {w.name: w for w in (LadderSpectrum, CliSparse, LadderVerify)}
