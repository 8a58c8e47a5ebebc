"""Closed-form colorings and color-count bounds.

moebius_max_coloring builds an interval (n+2)-coloring of the Moebius
ladder with 2n vertices directly from index formulas, no search. The
bound functions give upper limits on how many colors any interval
coloring of a graph can use, in terms of diameter and maximum degree.
"""

from __future__ import annotations

from dataclasses import dataclass

from .coloring import EdgeColoring, is_interval
from .graph import Edge, Graph
from .moebius import moebius_ladder


def moebius_max_coloring(n: int) -> EdgeColoring:
    """Interval (n+2)-coloring of the Moebius ladder on 2n vertices.

    Built by direct index formulas in two parity cases. n+2 is the
    largest color count for which the ladder has an interval coloring,
    so this witnesses the top of the spectrum.
    """
    if not isinstance(n, int) or n < 2:
        raise ValueError(f"need n >= 2, got {n!r}")

    colors: dict[Edge, int] = {}
    if n % 2 == 0:
        m = n // 2
        for i in range(1, m + 1):
            colors[m - 1 + i, 3 * m - 1 + i] = 2 * i - 1
        for i in range(1, m):
            colors[m - i, 3 * m - i] = 2 * (i + 1)
        for i in range(1, m + 1):
            colors[m - 1 + i, m + i] = 2 * i
            colors[3 * m - 1 + i, 3 * m + i] = 2 * i
        for i in range(1, m):
            colors[m - i, m + 1 - i] = 2 * i + 1
            colors[3 * m - i, 3 * m + 1 - i] = 2 * i + 1
        colors[1, 4 * m] = 2 * m + 1
        colors[2 * m, 2 * m + 1] = 2 * m + 1
        colors[2 * m, 4 * m] = 2 * m + 2
    else:
        m = (n - 1) // 2
        for i in range(1, m + 2):
            colors[m + i, 3 * m + 1 + i] = 2 * i - 1
        for i in range(1, m):
            colors[m + 1 - i, 3 * m + 2 - i] = 2 * (i + 1)
        for i in range(1, m + 1):
            colors[m + i, m + 1 + i] = 2 * i
            colors[3 * m + 1 + i, 3 * m + 2 + i] = 2 * i
        for i in range(1, m + 1):
            colors[m + 1 - i, m + 2 - i] = 2 * i + 1
            colors[3 * m + 2 - i, 3 * m + 3 - i] = 2 * i + 1
        colors[1, 4 * m + 2] = 2 * m + 2
        colors[2 * m + 1, 2 * m + 2] = 2 * m + 2
        colors[1, 2 * m + 2] = 2 * m + 3

    result = EdgeColoring(n + 2, colors)
    # index arithmetic is the dominant failure mode, and the verdict
    # catches all of it: 3n assignments that hit an edge twice or a
    # non-edge leave some edge of the ladder uncolored
    if not is_interval(moebius_ladder(n).graph, result).verdict:
        raise AssertionError(f"construction broken at n={n}")
    return result


@dataclass(frozen=True)
class BoundReport:
    """Upper bounds on the color count of any interval coloring of a graph.

    Exactly one of bipartite_bound / odd_cycle_bound is set, matching
    whether the graph is bipartite. The bounds presume the graph has an
    interval coloring at all; for a graph with none they are vacuous.
    """

    max_degree: int
    diameter: int
    bipartite: bool
    bipartite_bound: int | None
    odd_cycle_bound: int | None

    @property
    def applicable_bound(self) -> int:
        b = self.bipartite_bound if self.bipartite else self.odd_cycle_bound
        assert b is not None
        return b

    def to_json_dict(self) -> dict:
        doc: dict = {
            "max_degree": self.max_degree,
            "diameter": self.diameter,
            "bipartite": self.bipartite,
            "applicable_bound": self.applicable_bound,
        }
        if self.bipartite_bound is not None:
            doc["bipartite_bound"] = self.bipartite_bound
        if self.odd_cycle_bound is not None:
            doc["odd_cycle_bound"] = self.odd_cycle_bound
        return doc


def bipartite_upper_bound(g: Graph) -> int:
    """d(G) * (max_degree - 1) + 1, valid for bipartite graphs."""
    if not g.is_bipartite():
        raise ValueError("bound applies to bipartite graphs only")
    return g.diameter() * (g.max_degree() - 1) + 1


def odd_cycle_upper_bound(g: Graph) -> int:
    """(d(G) + 1) * (max_degree - 1) + 1, valid when an odd cycle exists."""
    if g.is_bipartite():
        raise ValueError("bound applies to graphs containing an odd cycle only")
    return (g.diameter() + 1) * (g.max_degree() - 1) + 1


def color_count_bounds(g: Graph) -> BoundReport:
    """Evaluate whichever upper bound matches the graph's parity structure."""
    bipartite = g.is_bipartite()
    return BoundReport(
        max_degree=g.max_degree(),
        diameter=g.diameter(),
        bipartite=bipartite,
        bipartite_bound=bipartite_upper_bound(g) if bipartite else None,
        odd_cycle_bound=None if bipartite else odd_cycle_upper_bound(g),
    )

