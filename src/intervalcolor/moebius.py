"""Moebius ladder generator with the canonical rim/rung labeling.

M_{2n} is the cycle x_1, x_2, ..., x_{2n} (the rim) together with the n
chords (x_i, x_{n+i}) (the rungs). The labeling matters: the closed-form
coloring in :mod:`intervalcolor.constructions` addresses rim and rung
edges by these indices.
"""

from __future__ import annotations

from dataclasses import dataclass

from .graph import Edge, Graph, normalize_edge


@dataclass(frozen=True)
class MoebiusLadder:
    """M_{2n} together with its canonical edge partition.

    The graph is 3-regular with 2n vertices and 3n edges; rim and rung
    edges partition the edge set. The package itself reads only graph;
    the partition is there for callers, such as tests that check edge
    orbits against it.
    """

    n: int
    graph: Graph
    rim_edges: tuple[Edge, ...]
    rung_edges: tuple[Edge, ...]


def moebius_ladder(n: int) -> MoebiusLadder:
    """Build M_{2n} with vertices 1..2n.

    Requires n >= 2. For n = 2 the formula yields K_4; no special case
    is needed.
    """
    if not isinstance(n, int) or n < 2:
        raise ValueError(f"Moebius ladder needs n >= 2, got {n!r}")
    rim = [normalize_edge(i, i + 1) for i in range(1, 2 * n)] + [(1, 2 * n)]
    rungs = [(i, n + i) for i in range(1, n + 1)]
    graph = Graph(2 * n, rim + rungs)
    assert graph.edge_count == 3 * n and graph.is_regular()
    return MoebiusLadder(n=n, graph=graph, rim_edges=tuple(rim), rung_edges=tuple(rungs))


def closed_form_diameter(n: int) -> int:
    """Diameter of M_{2n} in closed form: ceil(n / 2).

    Cross-checked against BFS over a range of n in the test suite.
    """
    if not isinstance(n, int) or n < 2:
        raise ValueError(f"Moebius ladder needs n >= 2, got {n!r}")
    return (n + 1) // 2
