"""Edge colorings and the interval-property verifier.

An interval t-coloring assigns colors 1..t to the edges so that no two
edges sharing a vertex get the same color, every color in 1..t is used by
at least one edge, and the colors incident to each vertex x form d(x)
consecutive integers. Color counts, colors and edge endpoints must be
exact ints, so a JSON true is rejected rather than read as 1.

Verification reports rather than throws: a malformed coloring yields a
report with its violations listed, so the CLI can print diagnostics.
"""

from __future__ import annotations

from collections.abc import Iterable, Mapping
from dataclasses import dataclass, field

from .graph import Edge, Graph, normalize_edge


@dataclass(frozen=True)
class EdgeColoring:
    """An assignment of colors 1..t to edges.

    Built from a mapping or from (edge, color) pairs, as dict() is; an
    edge may be any pair of ints, such as a JSON list. Keys are stored
    as normalized edge pairs (smaller endpoint first), one per edge, so
    two pairs for one edge are an error. The assignment is copied on
    construction; treat instances as immutable.
    """

    t: int
    assignment: Mapping[Edge, int]

    def __init__(
        self, t: int, assignment: Mapping[Edge, int] | Iterable[tuple[Edge, int]]
    ):
        if type(t) is not int or t < 1:
            raise ValueError(f"color count t must be a positive integer, got {t!r}")
        if isinstance(assignment, Mapping):
            assignment = assignment.items()
        normalized: dict[Edge, int] = {}
        for e, c in assignment:
            try:
                u, v = e
            except (TypeError, ValueError):
                u = v = None
            if type(u) is not int or type(v) is not int:
                raise ValueError(f"edge {e!r} is not a pair of integer vertex ids")
            if type(c) is not int:
                raise ValueError(f"color for edge {e} must be an integer, got {c!r}")
            e = (u, v) if u < v else (v, u)
            if e in normalized:
                raise ValueError(f"edge {e} is assigned twice")
            normalized[e] = c
        object.__setattr__(self, "t", t)
        object.__setattr__(self, "assignment", normalized)

    def color(self, u: int, v: int) -> int:
        """Color of edge (u, v); raises if the edge is not assigned."""
        e = normalize_edge(u, v)
        try:
            return self.assignment[e]
        except KeyError:
            raise ValueError(f"edge {e} has no assigned color") from None

    def to_json_dict(self) -> dict:
        """Plain-JSON form: {"t": t, "colors": [{"edge": [u, v], "color": c}, ...]}."""
        assignment = self.assignment
        # edges are unique keys: sorting them alone gives the same order
        # without comparing nested (edge, color) tuples
        records = [{"edge": [u, v], "color": assignment[u, v]} for u, v in sorted(assignment)]
        return {"t": self.t, "colors": records}

    @classmethod
    def from_json_dict(cls, doc: dict) -> "EdgeColoring":
        """Parse the coloring JSON format; unknown keys are ignored."""
        if not isinstance(doc, dict):
            raise ValueError("coloring JSON must be an object")
        if "t" not in doc or "colors" not in doc:
            raise ValueError('coloring JSON needs "t" and "colors" fields')
        records = doc["colors"]
        if not isinstance(records, list):
            raise ValueError('coloring JSON "colors" must be an array')
        for rec in records:
            if not isinstance(rec, dict) or "edge" not in rec or "color" not in rec:
                raise ValueError(f"coloring record {rec!r} needs \"edge\" and \"color\"")
        return cls(doc["t"], [(rec["edge"], rec["color"]) for rec in records])


@dataclass(frozen=True)
class VerificationReport:
    """Outcome of an interval-coloring check, with per-vertex palettes.

    verdict is true exactly when all three component checks pass, which
    happens exactly when violations is empty.
    """

    proper: bool
    surjective: bool
    interval_at_each_vertex: bool
    violations: tuple[tuple[str, str], ...]
    palettes: Mapping[int, tuple[int, ...]] = field(default_factory=dict)

    @property
    def verdict(self) -> bool:
        return self.proper and self.surjective and self.interval_at_each_vertex

    def to_json_dict(self) -> dict:
        return {
            "verdict": self.verdict,
            "proper": self.proper,
            "surjective": self.surjective,
            "interval_at_each_vertex": self.interval_at_each_vertex,
            "violations": [{"subject": s, "reason": r} for s, r in self.violations],
            "palettes": {str(v): list(p) for v, p in sorted(self.palettes.items())},
        }


def is_interval(g: Graph, coloring: EdgeColoring) -> VerificationReport:
    """Check the interval t-coloring definition exactly; never raises.

    The verdict is true iff the coloring is (a) a proper edge coloring of
    g with colors inside 1..t, (b) surjective, using every color 1..t on
    at least one edge, and (c) interval at each vertex, the incident
    colors forming d(x) consecutive integers. Malformed input (uncolored
    edges, colors out of range, assignments for non-edges) is reported as
    a violation under (a). One pass over the edges, then one over the
    vertices; violations come as non-edge keys (sorted), edges in graph
    order, vertices ascending, then each run of unused colors.
    """
    t = coloring.t
    assignment = coloring.assignment
    neighbors = g._neighbors
    incident: list[list[int]] = [[] for _ in neighbors]
    violations: list[tuple[str, str]] = []
    matched = 0
    for e in g.edges:
        c = assignment.get(e)
        if c is None:
            violations.append((f"edge {e}", "no color assigned"))
            continue
        matched += 1
        if not 1 <= c <= t:
            violations.append((f"edge {e}", f"color {c} outside 1..{t}"))
        u, v = e
        incident[u].append(c)
        incident[v].append(c)
    values = assignment.values()
    if matched != len(assignment):  # some keys are not edges
        edge_set = set(g.edges)
        violations[:0] = [
            (f"edge {e}", "assigned a color but not an edge of the graph")
            for e in sorted(set(assignment) - edge_set)
        ]
        values = [c for e, c in assignment.items() if e in edge_set]
    proper = not violations

    palettes: dict[int, tuple[int, ...]] = {}
    interval_ok = True
    for v in range(1, g.vertex_count + 1):
        colors = sorted(incident[v])
        d = len(neighbors[v])
        # at most d colors meet v: consecutive only if d distinct span d
        if len(set(colors)) == d and (not d or colors[-1] - colors[0] == d - 1):
            palettes[v] = tuple(colors)
            continue
        distinct = sorted(set(colors))
        palettes[v] = tuple(distinct)
        if len(distinct) != len(colors):
            proper = False
            for c in sorted({c for c in colors if colors.count(c) > 1}):
                violations.append((f"vertex {v}", f"color {c} repeats on incident edges"))
        interval_ok = False
        violations.append((f"vertex {v}", f"palette {distinct} is not {d} consecutive colors"))

    # one violation per maximal run of unused colors, found between the
    # used ones, so the cost does not grow with t
    used = sorted(c for c in set(values) if 1 <= c <= t)
    for before, after in zip([0] + used, used + [t + 1]):
        if after > before + 1:
            lo, hi = before + 1, after - 1
            subject = f"color {lo}" if lo == hi else f"colors {lo}..{hi}"
            violations.append((subject, "not used by any edge"))

    return VerificationReport(
        proper=proper,
        surjective=len(used) == t,
        interval_at_each_vertex=interval_ok,
        violations=tuple(violations),
        palettes=palettes,
    )

