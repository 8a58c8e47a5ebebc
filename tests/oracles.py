"""Independent reference implementations for cross-checking.

Everything here recomputes results from raw (vertex_count, edges) data
with algorithms unlike the package's own, so agreement is meaningful:
brute-force enumeration instead of backtracking, plain enumeration with
Python sets instead of the package's pruned search with bitmasks, its
failure cache and its symmetry bans, edge coloring without its edge
order or color-symmetry breaking, Floyd-Warshall instead of BFS, and a
from-scratch palette check. Nothing here imports intervalcolor.
"""

from __future__ import annotations

from itertools import permutations

import numpy as np

# The largest assignment tensor brute_force_feasible builds: one byte per
# assignment, so t^|E| may not exceed it.
BRUTE_FORCE_MAX_BYTES = 1 << 25


def brute_force_feasible(n_vertices: int, edges: list[tuple[int, int]], t: int) -> bool:
    """Try every one of the t^|E| color assignments.

    True iff some assignment is proper, uses all of 1..t, and gives every
    vertex a consecutive palette. The assignments are one boolean tensor
    with an axis per edge, index c - 1 for color c. Each vertex's table of
    palettes (colors distinct, spanning exactly its degree) is broadcast
    over its edges' axes and ANDed in; surjectivity is then tested on the
    survivors only. Raises ValueError, rather than allocate, when the
    tensor would exceed BRUTE_FORCE_MAX_BYTES (16.8 MB for 12 edges at
    t = 4 is the largest call in the tests).
    """
    m = len(edges)
    if m == 0:
        return False  # t >= 1 colors can never all be used
    if t**m > BRUTE_FORCE_MAX_BYTES:
        raise ValueError(f"{t}^{m} assignments exceed {BRUTE_FORCE_MAX_BYTES} bytes")
    ok = np.ones((t,) * m, dtype=bool)
    for v in range(1, n_vertices + 1):
        axes = [j for j, e in enumerate(edges) if v in e]
        d = len(axes)
        if d > t:
            return False  # d distinct colors do not fit in 1..t
        if d == 0:
            continue
        # True where the d colors are lo..lo+d-1 in some order
        table = np.zeros((t,) * d, dtype=bool)
        orders = np.array(list(permutations(range(d)))).T
        for lo in range(t - d + 1):
            table[tuple(orders + lo)] = True
        ok &= table.reshape([t if j in axes else 1 for j in range(m)])
    used = np.zeros(1, dtype=np.int64)  # the colors of each survivor, as bits
    for colors in np.nonzero(ok):
        used = used | np.left_shift(1, colors)
    return bool(np.any(used == (1 << t) - 1))


def first_interval_coloring(
    n_vertices: int, edges: list[tuple[int, int]], t: int, node_limit: int | None = None
) -> tuple[str, dict | None]:
    """The first interval t-coloring of plain enumeration, or why there is none.

    Edges are taken in first-seen order of a BFS from vertex 1, neighbors
    ascending, and each tries the colors 1..t ascending that neither end
    already has. A vertex's palette is checked for consecutiveness once
    its last edge in that order has a color, and surjectivity at the
    leaf. The check cuts only subtrees that hold no interval coloring, so
    the witness is the lexicographically first interval coloring in that
    order. Returns ("feasible", colors keyed by (u, v) with u < v),
    ("infeasible", None), or ("inconclusive", None) once node_limit
    colors have been tried without a verdict.
    """
    adj: dict[int, list[int]] = {v: [] for v in range(1, n_vertices + 1)}
    for a, b in edges:
        adj[a].append(b)
        adj[b].append(a)
    order: list[tuple[int, int]] = []
    queue = [1]
    reached = {1}
    for u in queue:  # grows while it is walked: the BFS queue
        for w in sorted(adj[u]):
            if w not in reached:
                reached.add(w)
                queue.append(w)
            edge = (min(u, w), max(u, w))
            if edge not in order:
                order.append(edge)
    last = {}
    for i, (a, b) in enumerate(order):
        last[a] = last[b] = i
    closes: list[list[int]] = [[] for _ in order]
    for v, i in last.items():
        closes[i].append(v)

    palettes: dict[int, set[int]] = {v: set() for v in adj}
    colors: dict[tuple[int, int], int] = {}
    nodes = 0

    def extend(i: int) -> str:
        nonlocal nodes
        if i == len(order):
            used = set().union(*palettes.values())
            return "feasible" if used == set(range(1, t + 1)) else "infeasible"
        a, b = order[i]
        for c in range(1, t + 1):
            if c in palettes[a] or c in palettes[b]:
                continue
            if nodes == node_limit:
                return "inconclusive"
            nodes += 1
            palettes[a].add(c)
            palettes[b].add(c)
            colors[a, b] = c
            if all(max(palettes[x]) - min(palettes[x]) + 1 == len(palettes[x]) for x in closes[i]):
                status = extend(i + 1)
                if status != "infeasible":
                    return status
            palettes[a].remove(c)
            palettes[b].remove(c)
        return "infeasible"

    status = extend(0)
    return status, colors if status == "feasible" else None


def delta_edge_coloring(n_vertices: int, edges: list[tuple[int, int]]) -> dict | None:
    """A proper edge coloring with max-degree colors, or None if none exists.

    Plain backtracking over the edges in the order given, each trying the
    colors 1..max degree that neither end has yet, with Python sets: no
    BFS order, no symmetry breaking and no bitmasks.
    """
    degree = dict.fromkeys(range(1, n_vertices + 1), 0)
    for a, b in edges:
        degree[a] += 1
        degree[b] += 1
    delta = max(degree.values())
    palettes: dict[int, set[int]] = {v: set() for v in degree}
    colors: dict[tuple[int, int], int] = {}

    def extend(i: int) -> bool:
        if i == len(edges):
            return True
        a, b = edges[i]
        for c in range(1, delta + 1):
            if c in palettes[a] or c in palettes[b]:
                continue
            palettes[a].add(c)
            palettes[b].add(c)
            colors[a, b] = c
            if extend(i + 1):
                return True
            palettes[a].remove(c)
            palettes[b].remove(c)
        return False

    return colors if extend(0) else None


def naive_interval_verdict(
    n_vertices: int, edges: list[tuple[int, int]], colors: dict, t: int
) -> bool:
    """Definition check written independently of the package verifier."""
    if set(colors) != {tuple(sorted(e)) for e in edges}:
        return False
    if any(not isinstance(c, int) or c < 1 or c > t for c in colors.values()):
        return False
    if set(colors.values()) != set(range(1, t + 1)):
        return False
    for v in range(1, n_vertices + 1):
        pal = [c for (a, b), c in colors.items() if v in (a, b)]
        if len(set(pal)) != len(pal):
            return False
        if pal and max(pal) - min(pal) + 1 != len(pal):
            return False
    return True


def naive_interval_components(
    n_vertices: int, edges: list[tuple[int, int]], colors: dict, t: int
) -> tuple[bool, bool, bool]:
    """(proper, surjective, interval at each vertex), each checked on its own.

    Mirrors the package's reading of a malformed coloring: a key that is
    not an edge, an uncolored edge or a color outside 1..t makes it
    improper; only colors on edges count as used; and a vertex is
    interval iff the colors on its colored edges are d(x) distinct
    consecutive integers, whatever their range.
    """
    edge_keys = {tuple(sorted(e)) for e in edges}
    on_edges = {e: c for e, c in colors.items() if e in edge_keys}
    proper = set(colors) == edge_keys and all(1 <= c <= t for c in on_edges.values())
    interval = True
    for v in range(1, n_vertices + 1):
        degree = sum(v in e for e in edge_keys)
        pal = [c for e, c in on_edges.items() if v in e]
        if len(pal) != len(set(pal)):
            proper = False
        if degree and not (len(set(pal)) == degree and max(pal) - min(pal) + 1 == degree):
            interval = False
    surjective = all(c in on_edges.values() for c in range(1, t + 1))
    return proper, surjective, interval


def floyd_warshall_diameter(n_vertices: int, edges: list[tuple[int, int]]) -> int:
    """All-pairs shortest paths by relaxation, then the maximum."""
    inf = float("inf")
    dist = [[0 if i == j else inf for j in range(n_vertices)] for i in range(n_vertices)]
    for u, v in edges:
        dist[u - 1][v - 1] = 1
        dist[v - 1][u - 1] = 1
    for k in range(n_vertices):
        dk = dist[k]
        for i in range(n_vertices):
            dik = dist[i][k]
            if dik == inf:
                continue
            di = dist[i]
            for j in range(n_vertices):
                alt = dik + dk[j]
                if alt < di[j]:
                    di[j] = alt
    best = max(max(row) for row in dist)
    assert best != inf, "disconnected input"
    return int(best)


def find_odd_cycle(n_vertices: int, edges: list[tuple[int, int]]) -> list[int] | None:
    """Some odd cycle as a vertex list, or None if the graph is bipartite.

    DFS two-coloring; a same-color edge closes an odd cycle through the
    tree paths of its endpoints.
    """
    adj: dict[int, list[int]] = {v: [] for v in range(1, n_vertices + 1)}
    for u, v in edges:
        adj[u].append(v)
        adj[v].append(u)
    color = {}
    parent = {}
    for root in adj:
        if root in color:
            continue
        color[root] = 0
        parent[root] = None
        stack = [root]
        while stack:
            u = stack.pop()
            for w in adj[u]:
                if w not in color:
                    color[w] = color[u] ^ 1
                    parent[w] = u
                    stack.append(w)
                elif color[w] == color[u]:
                    path_u = []
                    x = u
                    while x is not None:
                        path_u.append(x)
                        x = parent[x]
                    path_w = []
                    x = w
                    while x is not None:
                        path_w.append(x)
                        x = parent[x]
                    common = (set(path_u) & set(path_w))
                    cut_u = next(i for i, x in enumerate(path_u) if x in common)
                    meet = path_u[cut_u]
                    cut_w = path_w.index(meet)
                    cycle = path_u[: cut_u + 1] + path_w[:cut_w][::-1]
                    assert len(cycle) % 2 == 1
                    return cycle
    return None


def small_connected_graphs(
    max_vertices: int = 6, max_edges: int = 9
) -> list[tuple[int, list[tuple[int, int]]]]:
    """Every connected graph up to the given size, one per isomorphism class.

    Backed by the networkx graph atlas (complete through 7 vertices),
    relabeled to 1-based vertices.
    """
    import networkx as nx

    out = []
    for G in nx.graph_atlas_g()[1:]:
        nv = G.number_of_nodes()
        if nv > max_vertices or G.number_of_edges() > max_edges:
            continue
        if not nx.is_connected(G):
            continue
        out.append((nv, sorted((u + 1, v + 1) for u, v in G.edges())))
    return out


def petersen() -> tuple[int, list[tuple[int, int]]]:
    outer = [(i, i % 5 + 1) for i in range(1, 6)]
    spokes = [(i, i + 5) for i in range(1, 6)]
    inner = [(6, 8), (8, 10), (10, 7), (7, 9), (9, 6)]
    return 10, sorted(tuple(sorted(e)) for e in outer + spokes + inner)


def cycle(k: int) -> tuple[int, list[tuple[int, int]]]:
    return k, [(i, i + 1) for i in range(1, k)] + [(1, k)]


def path(k: int) -> tuple[int, list[tuple[int, int]]]:
    return k, [(i, i + 1) for i in range(1, k)]


def grid(a: int, b: int) -> tuple[int, list[tuple[int, int]]]:
    """P_a x P_b, vertex (r, c) numbered r * b + c + 1."""
    edges = []
    for r in range(a):
        for c in range(b):
            x = r * b + c + 1
            if c + 1 < b:
                edges.append((x, x + 1))
            if r + 1 < a:
                edges.append((x, x + b))
    return a * b, edges


def star(leaves: int) -> tuple[int, list[tuple[int, int]]]:
    return leaves + 1, [(1, i) for i in range(2, leaves + 2)]


def complete(k: int) -> tuple[int, list[tuple[int, int]]]:
    return k, [(i, j) for i in range(1, k + 1) for j in range(i + 1, k + 1)]


def moebius(n: int) -> tuple[int, list[tuple[int, int]]]:
    """M_2n from its definition: the cycle on 1..2n plus the rungs (i, n+i)."""
    return 2 * n, cycle(2 * n)[1] + [(i, n + i) for i in range(1, n + 1)]
