"""Edge orbits under a graph's automorphism group, for Graph._edge_orbit.

Kept out of graph.py and imported on first use, since most searches
never need an orbit. Color refinement with an edge's endpoints
individualized screens the candidate edges; an individualization search
then looks for a vertex permutation that maps the edge onto the
candidate, and only a permutation checked to map the edge set onto
itself admits one. Permutations found are applied to the known members
first, so edge-transitive families cost few searches.
"""

from __future__ import annotations

from typing import Callable

from .graph import Edge, Graph, normalize_edge

# Work one orbit may take, in refinement rounds: a round visits every
# vertex and both ends of every edge once, so the budget is proportional
# to the edge count of a connected graph.
ROUNDS = 256


class _OutOfWork(Exception):
    """An orbit computation spent its work budget."""


def edge_orbit(g: Graph, edge: Edge) -> set[Edge]:
    """Edges proved to share edge's orbit within the work budget: always
    edge itself, never an edge outside the true orbit."""
    neighbors = g._neighbors
    edge_set = frozenset(g.edges)
    left = ROUNDS * (g.vertex_count + 2 * g.edge_count + 1)

    def spend(units: int) -> None:
        nonlocal left
        left -= units
        if left < 0:
            raise _OutOfWork

    def is_automorphism(perm: list[int]) -> bool:
        spend(2 * g.edge_count)
        return all(normalize_edge(perm[a], perm[b]) in edge_set for a, b in g.edges)

    members = {edge}
    perms: list[list[int]] = []
    try:
        *_, (_, base) = _refinement(neighbors, [0] * (g.vertex_count + 1), spend)
        k = max(base) + 1

        def marked(x: int, y: int) -> list[int]:
            colors = list(base)
            colors[x], colors[y] = k, k + 1
            return colors

        u, v = edge
        ends = sorted((base[u], base[v]))
        rounds = list(_refinement(neighbors, marked(u, v), spend))
        for x, y in g.edges:
            if (x, y) in members or sorted((base[x], base[y])) != ends:
                continue
            for right in marked(x, y), marked(y, x):
                perm = _matching_automorphism(neighbors, rounds, right, spend, is_automorphism)
                if perm is not None:
                    break
            else:
                continue
            perms.append(perm)
            frontier = list(members)
            while frontier:
                a, b = frontier.pop()
                for p in perms:
                    image = normalize_edge(p[a], p[b])
                    if image not in members:
                        members.add(image)
                        frontier.append(image)
    except _OutOfWork:
        pass
    return members


def _refinement(neighbors, colors: list[int], spend: Callable[[int], None]):
    """Yield the rounds of color refinement from colors until stable.

    Each round renames every vertex by its color and the multiset of its
    neighbors' colors, numbered in sorted order, so the names depend
    only on the colored graph up to isomorphism. Yields (trace, colors)
    per round, where trace is the sorted list of those signatures; two
    colored graphs that are isomorphic yield equal traces throughout.
    """
    count = len(set(colors))
    units = len(colors) + sum(map(len, neighbors))
    while True:
        spend(units)
        signatures = [
            (c, tuple(sorted([colors[w] for w in ns]))) for c, ns in zip(colors, neighbors)
        ]
        names = {s: i for i, s in enumerate(sorted(set(signatures)))}
        colors = [names[s] for s in signatures]
        yield sorted(signatures), colors
        if len(names) == count:
            return
        count = len(names)


def _matching_automorphism(neighbors, rounds, right, spend, is_automorphism):
    """An automorphism taking each vertex of color c in the refinement
    rounds' last coloring to one of color c in right refined, or None if
    the search finds none.

    Individualization-refinement on an explicit stack: refine both sides
    in step, give up on a pair whose traces differ, and while a color
    holds several vertices, individualize the first of them on the left
    against each of them on the right in turn.
    """
    stack = [iter([(rounds, right)])]
    while stack:
        for rounds, b in stack[-1]:
            refined = _refine_pair(rounds, _refinement(neighbors, b, spend))
            if refined is None:
                continue
            a, b = refined
            held = [0] * len(a)
            for c in a:
                held[c] += 1
            shared = next((c for c, count in enumerate(held) if count > 1), None)
            if shared is None:
                where = {c: x for x, c in enumerate(b)}
                perm = [where[c] for c in a]
                if is_automorphism(perm):
                    return perm
                continue
            stack.append(
                (_refinement(neighbors, left, spend), right)
                for left, right in _individualized(a, b, shared)
            )
            break
        else:
            stack.pop()
    return None


def _refine_pair(rounds_a, rounds_b):
    """The last colorings of two refinements run in step, or None once
    their traces differ."""
    for (trace_a, a), (trace_b, b) in zip(rounds_a, rounds_b):
        if trace_a != trace_b:
            return None
    return a, b


def _individualized(a: list[int], b: list[int], color: int):
    """The first vertex of color in a, and in turn each vertex of color in
    b, given a fresh color of their own."""
    fresh = max(a) + 1
    w = a.index(color)
    for x, c in enumerate(b):
        if c == color:
            left, right = list(a), list(b)
            left[w] = right[x] = fresh
            yield left, right
