"""Closed-form colorings and color-count bounds.

moebius_max_coloring builds an interval (n+2)-coloring of the Moebius
ladder with 2n vertices from one index formula, with no search and no
verification; the tests check it. color_count_bounds gives the least
and the largest number of colors an interval coloring of a graph can
use: the maximum degree, and Asratian and Kamalian's bound in terms of
diameter and maximum degree.
"""

from __future__ import annotations

from .coloring import EdgeColoring
from .graph import Edge, Graph


def moebius_max_coloring(n: int) -> EdgeColoring:
    """Interval (n+2)-coloring of the Moebius ladder on 2n vertices.

    One index formula for both parities. With c = (n-1)//2, rungs c+1,
    c+2, ... take the odd colors 1, 3, 5, ..., rungs c, c-1, ... take
    4, 6, ..., and each rim edge between two of them the color that
    makes both palettes intervals. The rim edges (1, 2n) and (n, n+1)
    take n+1. Only the last rung, colored n+2, depends on parity: (n, 2n)
    for even n, (1, n+1) for odd n. n+2 is the largest color count for
    which the ladder has an interval coloring, so this witnesses the top
    of the spectrum.

    The result is not verified here; a caller that needs a verdict runs
    is_interval. The tests pin the output for n = 2..400 by digest,
    check n = 2..40 against an independent definition check, and verify
    n = 4096 and 4097.
    """
    if not isinstance(n, int) or n < 2:
        raise ValueError(f"need n >= 2, got {n!r}")

    c = (n - 1) // 2
    colors: dict[Edge, int] = {}
    for i in range(1, (n + 1) // 2 + 1):
        colors[c + i, c + n + i] = 2 * i - 1
    for i in range(1, n // 2):
        colors[c + 1 - i, c + n + 1 - i] = 2 * i + 2
    for i in range(1, n // 2 + 1):
        colors[c + i, c + i + 1] = colors[c + n + i, c + n + i + 1] = 2 * i
    for i in range(1, (n - 1) // 2 + 1):
        colors[c + 1 - i, c + 2 - i] = colors[c + n + 1 - i, c + n + 2 - i] = 2 * i + 1
    colors[1, 2 * n] = colors[n, n + 1] = n + 1
    colors[(n, 2 * n) if n % 2 == 0 else (1, n + 1)] = n + 2
    return EdgeColoring(n + 2, colors)


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


def color_count_bounds(g: Graph) -> tuple[int, int]:
    """The least and the largest t at which g can have an interval t-coloring.

    Every such coloring uses max_degree colors at a busiest vertex (and
    at least one), and none uses more than the diameter bound of g's
    parity.
    """
    largest = bipartite_upper_bound(g) if g.is_bipartite() else odd_cycle_upper_bound(g)
    return max(g.max_degree(), 1), largest
