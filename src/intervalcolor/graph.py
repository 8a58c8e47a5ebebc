"""Immutable simple-graph core: degrees, distances, diameter, bipartiteness.

One breadth-first search serves every distance fact: connectivity, the
distance between two vertices, the diameter, bipartiteness, and the
edge order of the exact search (``solver.bfs_edge_order``); the
constructor's BFS from vertex 1 is kept for the last three. The exact
diameter uses every BFS run as a root: a pair lies within lower, the
largest eccentricity found, when it holds a root or when its levels from
one root sum to at most lower. The runs start with iFUB's 2-sweep
(Crescenzi et al., TCS 514, 2013) and go on from the vertex farthest
from all roots until every pair lies within lower. Paths, cycles,
grids, tori and hypercubes take the 2-sweep's two runs, most trees and
Moebius ladders a few more, and no graph more than V + 1.

Vertices are labeled 1..vertex_count. Edges are unordered pairs, stored
normalized (smaller endpoint first) and sorted. Only connected graphs
without loops or parallel edges are representable; the constructor rejects
anything else instead of repairing it. Vertex ids and counts must be exact
ints: bool subclasses int, and JSON true must not pass as 1.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Iterable

Edge = tuple[int, int]

# the most bits the suffix sets of one diameter root may hold (4 MiB)
_SUFFIX_BITS = 1 << 25


def normalize_edge(u: int, v: int) -> Edge:
    """Return the endpoint pair ordered smaller id first."""
    return (u, v) if u < v else (v, u)


@dataclass(frozen=True)
class Graph:
    """A connected simple undirected graph on vertices 1..vertex_count.

    Immutable after construction and safe to share between concurrent
    readers. Equality compares the vertex count and the canonical edge
    list, so two graphs built from the same edges in any order are equal.
    """

    vertex_count: int
    edges: tuple[Edge, ...]

    def __init__(self, vertex_count: int, edges: Iterable[Iterable[int]]):
        if type(vertex_count) is not int or vertex_count < 1:
            raise ValueError(f"vertex count must be a positive integer, got {vertex_count!r}")
        normalized: list[Edge] = []
        for item in edges:
            try:
                u, v = item
            except (TypeError, ValueError):
                raise ValueError(f"edge {item!r} is not a pair of vertex ids") from None
            if type(u) is not int or type(v) is not int:
                raise ValueError(f"edge {item!r} has non-integer endpoints")
            if not (1 <= u <= vertex_count and 1 <= v <= vertex_count):
                x = v if 1 <= u <= vertex_count else u
                raise ValueError(f"vertex {x} is outside 1..{vertex_count}")
            if u == v:
                raise ValueError(f"self-loop at vertex {u} is not allowed")
            normalized.append((u, v) if u < v else (v, u))
        if len(set(normalized)) != len(normalized):
            seen: set[Edge] = set()
            for e in normalized:
                if e in seen:
                    raise ValueError(f"duplicate edge {e}")
                seen.add(e)
        # connected needs vertex_count - 1 edges: a huge count fails before the BFS
        if len(normalized) < vertex_count - 1:
            raise ValueError("graph is not connected")
        object.__setattr__(self, "vertex_count", vertex_count)
        normalized.sort()
        object.__setattr__(self, "edges", tuple(normalized))
        root = self._bfs(1)
        if len(root[0]) < vertex_count:
            raise ValueError("graph is not connected")
        # not fields: equality and hashing still see only the two above
        object.__setattr__(self, "_root_bfs", root)
        # solver.py's tables that depend on this graph alone, such as the
        # search's edge order, live band and reach tables; each graph has
        # its own, grown by the searches run on it
        object.__setattr__(self, "_search_memo", {})

    @property
    def edge_count(self) -> int:
        return len(self.edges)

    @cached_property
    def _neighbors(self) -> tuple[tuple[int, ...], ...]:
        """Adjacency lists, 1-indexed, entry 0 a filler; ascending, as edges are sorted."""
        adj: list[list[int]] = [[] for _ in range(self.vertex_count + 1)]
        for u, v in self.edges:
            adj[u].append(v)
            adj[v].append(u)
        return tuple(map(tuple, adj))

    def neighbors(self, v: int) -> tuple[int, ...]:
        self._check_vertex(v)
        return self._neighbors[v]

    def degree(self, v: int) -> int:
        """Number of edges incident to v."""
        return len(self.neighbors(v))

    def max_degree(self) -> int:
        """Largest vertex degree."""
        return self._max_degree

    @cached_property
    def _max_degree(self) -> int:
        return max(map(len, self._neighbors[1:]))

    def is_regular(self) -> bool:
        """True iff every vertex has the same degree."""
        return len(set(map(len, self._neighbors[1:]))) == 1

    def distance(self, u: int, v: int) -> int:
        """Length of a shortest path between u and v (0 iff u == v)."""
        self._check_vertex(u)
        self._check_vertex(v)
        return self._bfs(u)[1][v]

    def diameter(self) -> int:
        """Largest distance over all vertex pairs (computed on first use)."""
        return self._diameter

    def is_bipartite(self) -> bool:
        """True iff the vertices split into two sides with all edges across,
        equivalently iff the graph has no odd cycle."""
        return self._bipartite

    @cached_property
    def _diameter(self) -> int:
        # A certificate from every BFS run so far, each a root r with
        # levels l_r. lower, the largest eccentricity found, is a real
        # distance, so it is the diameter once d(x, y) <= lower holds for
        # every pair. A pair is settled when x or y is a root (d(x, y) <=
        # its eccentricity <= lower) or when l_r(x) + l_r(y) <= lower for
        # some root r (the walk through r). x stays open while it is no
        # root and some other open vertex is an unsettled partner. Closing
        # x checks it against every vertex open at that moment, and a new
        # root or a larger lower only settles more pairs, so when no
        # vertex is open every pair is settled.
        #
        # The first roots are vertex 1 (the constructor's BFS), a farthest
        # from it, and u halfway along a shortest path from a to b, the
        # vertex farthest from a: iFUB's 2-sweep (Crescenzi et al., TCS
        # 514, 2013). Each round closes, root by root from u, every x with
        # l_r(x) + max l_r(open) <= lower (iFUB's own test at r = u, where
        # paths stop); then, until a pass closes none, every x with no
        # partner left in open & AND_r S_r[lower + 1 - l_r(x)], where
        # S_r[k] = {y : l_r(y) >= k}; then it runs the BFS of the open
        # vertex farthest from all roots, ties to the deepest from u.
        # At most V + 1 runs: a, u, then each other vertex at most once.
        order, levels = self._bfs(self._root_bfs[0][-1])
        u = order[-1]
        for _ in range(levels[u] // 2):
            u = next(w for w in self._neighbors[u] if levels[w] < levels[u])
        roots = [self._bfs(u), self._root_bfs, (order, levels)]
        deep = roots[0][1]
        lower = max(levels[order[-1]] for order, levels in roots)
        open_ = range(1, self.vertex_count + 1)
        tests: list[tuple[list[int], list[int], int]] = []  # levels, suffix sets, step
        while True:
            # a root closes itself: l_r(r) = 0 and max l_r(open) <= lower
            for _, levels in roots:
                if open_:
                    cut = lower - max(map(levels.__getitem__, open_))
                    open_ = [x for x in open_ if levels[x] > cut]
            if not open_:
                return lower
            for order, levels in roots[len(tests):]:
                tests.append((levels, *self._suffix_sets(order, levels)))
            # the cuts above keep lower + 1 - l_r(x) <= max l_r(open): in range
            mask = sum(1 << x for x in open_)
            size = 0
            while size != len(open_):
                size = len(open_)
                for x in open_:
                    partners = mask ^ 1 << x
                    for levels, sets, step in tests:
                        partners &= sets[(lower + 1 - levels[x]) // step]
                        if not partners:
                            mask ^= 1 << x
                            break
                open_ = [x for x in open_ if mask >> x & 1]
            if not open_:
                return lower
            near = list(map(min, *(levels for _, levels in roots)))  # distance to the roots
            order, levels = self._bfs(max(open_, key=lambda x: (near[x], deep[x])))
            roots.append((order, levels))
            lower = max(lower, levels[order[-1]])

    def _suffix_sets(self, order: list[int], levels: list[int]) -> tuple[list[int], int]:
        """The bit sets S[k] = {y : level(y) >= k} of one BFS, stored at
        every step-th level: entry j is S[j * step]. Reading S[k] from
        entry k // step gives a superset, which only keeps vertices open.
        step is 1 unless all (eccentricity + 1) * (V + 1) bits exceed
        _SUFFIX_BITS."""
        ecc = levels[order[-1]]
        step = 1 + (ecc + 1) * (self.vertex_count + 1) // _SUFFIX_BITS
        sets = [0] * (ecc // step + 1)
        mask = 0
        for v in reversed(order):  # deepest level first
            mask |= 1 << v
            sets[levels[v] // step] = mask
        return sets, step

    @cached_property
    def _bipartite(self) -> bool:
        # BFS levels 2-color the graph unless an edge joins one level
        levels = self._root_bfs[1]
        return all(levels[u] != levels[v] for u, v in self.edges)

    def _bfs(self, source: int) -> tuple[list[int], list[int]]:
        """Vertices in BFS order from source, neighbors visited ascending,
        and the level of each vertex (-1 if unreached, index 0 a filler)."""
        levels = [-1] * (self.vertex_count + 1)
        levels[source] = 0
        order = [source]
        neighbors = self._neighbors
        for u in order:  # the list is the queue: iteration sees appends
            level = levels[u] + 1
            for w in neighbors[u]:
                if levels[w] < 0:
                    levels[w] = level
                    order.append(w)
        return order, levels

    def _check_vertex(self, v: int) -> None:
        if type(v) is not int or not 1 <= v <= self.vertex_count:
            raise ValueError(f"vertex {v!r} is not in 1..{self.vertex_count}")

    def to_json_dict(self) -> dict:
        """Plain-JSON form: {"vertices": n, "edges": [[u, v], ...]}."""
        return {"vertices": self.vertex_count, "edges": [list(e) for e in self.edges]}

    @classmethod
    def from_json_dict(cls, doc: dict) -> "Graph":
        """Parse the JSON graph format; unknown keys are ignored."""
        if not isinstance(doc, dict):
            raise ValueError("graph JSON must be an object")
        if "vertices" not in doc or "edges" not in doc:
            raise ValueError('graph JSON needs "vertices" and "edges" fields')
        edges = doc["edges"]
        if not isinstance(edges, list):
            raise ValueError('graph JSON "edges" must be an array of pairs')
        return cls(doc["vertices"], edges)

