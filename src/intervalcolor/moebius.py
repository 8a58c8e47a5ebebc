"""Moebius ladder generator with the canonical rim/rung labeling.

M_{2n} is the cycle x_1, x_2, ..., x_{2n} (the rim) together with the n
chords (x_i, x_{n+i}) (the rungs). The labeling matters: the closed-form
coloring in :mod:`intervalcolor.constructions` addresses rim and rung
edges by these indices.
"""

from __future__ import annotations

from dataclasses import dataclass

from .graph import Graph


@dataclass(frozen=True)
class MoebiusLadder:
    """M_{2n} with its n: a 3-regular graph on 2n vertices and 3n edges."""

    n: int
    graph: Graph


def moebius_ladder(n: int) -> MoebiusLadder:
    """Build M_{2n} with vertices 1..2n.

    Requires n >= 2. For n = 2 the formula yields K_4; no special case
    is needed.
    """
    if not isinstance(n, int) or n < 2:
        raise ValueError(f"Moebius ladder needs n >= 2, got {n!r}")
    rim = [(i, i + 1) for i in range(1, 2 * n)] + [(1, 2 * n)]
    rungs = [(i, n + i) for i in range(1, n + 1)]
    graph = Graph(2 * n, rim + rungs)
    assert graph.edge_count == 3 * n and graph.is_regular()
    return MoebiusLadder(n=n, graph=graph)


def closed_form_diameter(n: int) -> int:
    """Diameter of M_{2n} in closed form: ceil(n / 2).

    Cross-checked against BFS over a range of n in the test suite.
    """
    if not isinstance(n, int) or n < 2:
        raise ValueError(f"Moebius ladder needs n >= 2, got {n!r}")
    return (n + 1) // 2
