"""Edge orbits under a graph's automorphism group, for solver._edge_orbit.

Kept out of solver.py and imported on first use, since most searches
never need an orbit. For the edge (u, v) and each candidate edge (x, y),
an extension search on an explicit stack looks for a vertex permutation
taking u to x and v to y: it places the other vertices one at a time in
BFS order from the edge, each onto a free neighbor of its BFS parent's
image that has the same degree and the same adjacency to the images
already placed, and backtracks when none is left. Only a permutation
checked to map the edge set onto itself admits an edge. Permutations
found are applied to the known members first, so edge-transitive
families cost few searches.
"""

from __future__ import annotations

from .graph import Edge, Graph, normalize_edge

# Work one orbit may take, in rounds of V + 2E + 1 units. A unit is one
# image tried or one adjacency entry compared, so a round is about one
# pass over the graph; when it is spent, the members found so far stand.
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

    steps = _placement_order(g, edge)
    members = {edge}
    perms: list[list[int]] = []
    try:
        for x, y in g.edges:
            if (x, y) in members:
                continue
            for target in (x, y), (y, x):
                perm = _extension(neighbors, edge, steps, target, spend)
                if perm is not None:
                    spend(2 * g.edge_count)
                    if all(normalize_edge(perm[a], perm[b]) in edge_set for a, b in g.edges):
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


def _placement_order(g: Graph, edge: Edge) -> list[tuple[int, int, frozenset[int]]]:
    """Every vertex but u and v in BFS order from the edge, neighbors taken
    ascending, as (w, anchor, before): anchor is w's BFS parent, before
    holds w's neighbors placed ahead of it."""
    neighbors = g._neighbors
    rank = [0] * (g.vertex_count + 1)  # 1 + place in the order, 0 until reached
    anchor = {}
    order = list(edge)
    rank[edge[0]], rank[edge[1]] = 1, 2
    for w in order:  # the list is the queue: iteration sees appends
        for x in neighbors[w]:
            if not rank[x]:
                order.append(x)
                rank[x] = len(order)
                anchor[x] = w
    return [
        (w, anchor[w], frozenset(x for x in neighbors[w] if rank[x] < rank[w]))
        for w in order[2:]
    ]


def _extension(neighbors, edge: Edge, steps, target: Edge, spend) -> list[int] | None:
    """A vertex permutation taking edge onto target and each later vertex
    onto a free neighbor of its anchor's image with its degree and its
    adjacency to the images already placed, or None if none exists."""
    perm = [0] * len(neighbors)  # image of each placed vertex
    pre = [0] * len(neighbors)  # placed vertex of each image, 0 if free
    for w, z in zip(edge, target):
        if len(neighbors[w]) != len(neighbors[z]):
            return None
        perm[w], pre[z] = z, w
    tries: list = [None] * len(steps)  # images left to try at each step
    k = 0
    while k < len(steps):
        w, anchor, before = steps[k]
        if tries[k] is None:
            tries[k] = iter(neighbors[perm[anchor]])
        degree = len(neighbors[w])
        for z in tries[k]:
            spend(1)
            if pre[z] or len(neighbors[z]) != degree:
                continue
            spend(degree)
            if {pre[x] for x in neighbors[z] if pre[x]} == before:
                break
        else:
            tries[k] = None
            k -= 1
            if k < 0:
                return None
            pre[perm[steps[k][0]]] = 0
            continue
        perm[w], pre[z] = z, w
        k += 1
    return perm
