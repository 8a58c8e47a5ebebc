"""Exhaustive backtracking search for interval colorings.

Edges are colored one at a time in a breadth-first order from vertex 1,
colors tried ascending, so results are deterministic: the same query
always yields the same witness. A negative answer is a proof of
nonexistence, not a timeout, unless a node budget was set and exhausted,
which is reported as an explicit inconclusive status. Both searches, and
the orbit search of _orbits.py, run on one depth-first loop whose stack
is a list, so the depth (one level per edge) is not bounded by the
interpreter's recursion limit. The loop calls a search's undo only once
every continuation of a placement has failed, which is where the search
below learns from its failures. Color sets are bitmasks, bit c for
color c.

Pruning rests on four facts about any completed interval t-coloring:
the colors at a vertex of degree d span exactly d consecutive integers,
so every incident color lies within d-1 of every other (which also rules
out a partial palette with more gaps than uncolored incident edges); no
more colors can be unused than edges are left; every color in 1..t must
end up on some edge, so a color no later edge can take kills the branch;
and along a path each vertex y moves the color by at most d(y)-1 <= D-1
(D the max degree; Asratian and Kamalian, JCTB 62, 1994), so an edge k
steps from a vertex x lies within d(x)-1 + (D-1)k of every color at x,
which spans 1..t from k = ceil((t-1)/(D-1)) on. The third check ORs the
free colors of the later edges from the last edge back, from the first
failure on each held to that reach from the live vertices near it (a
vertex with all edges placed bounds no more than a neighbor one step
nearer). Each rule cuts only subtrees that hold no interval coloring, so
the search meets interval colorings in the order that plain
proper-coloring enumeration does, as the tests check against such an
enumeration, written apart from the package, in tests/oracles.py.

The search also caches failures. What remains below depth i depends
only on the set of unused colors and on the palettes of the vertices
with edges both before and at or after i, a frontier of 5 vertices on
every Moebius ladder, read off a band of the BFS visit order
(_live_band) built on the first failure. A state whose every candidate
failed is recorded as the loop backs out of it, and a color leading
into a recorded state is rejected without search. Only failures are
cached, so verdicts, witnesses and the search order are those of the
search without the cache; node counts fall. Each search keeps at most
2^18 states (about 70 MB) and drops them all when full.

Two symmetries cut the search further. Reversal, c -> t+1-c, maps
interval t-colorings onto interval t-colorings, so edge 0 tries only
colors up to (t+1)//2. And once every continuation of color c on edge 0
has failed, no interval t-coloring has c or t+1-c on any edge of edge
0's orbit under the automorphism group (_edge_orbit, computed at that
moment), and the rest of the search bans both there. Each ban drops
only assignments that no interval coloring has, so the first witness,
every verdict and every cached failure stand.
The bans are one mask of allowed colors per edge, which every candidate
list is taken through, added each time a color on edge 0 fails: when
its continuations are exhausted or the hosting check rejects it.

A node costs a few list and dict lookups, whatever the depth or the
vertex count. After a placement, a vertex's free mask is its window
less its palette; with t fixed for the search it depends only on the
vertex's degree and palette, so each search memoizes it per degree
(never across searches: the window is clipped to 1..t), as it does the
candidate list of each mask. The hosting check tests the last edge
alone first: edges far ahead are untouched, with the whole palette free
and no placed vertex near them, so it settles most nodes whatever the
depth. The palettes of a placement are written once and taken back only
when it is rejected. The slack tables of the reach (_color_slack) and
the orbit depend on the graph alone: both are memoized in a private
dict that each Graph carries for this module, so the searches of one
sweep compute them once.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass
from itertools import accumulate
from operator import itemgetter
from typing import Callable

from .coloring import EdgeColoring
from .constructions import color_count_bounds
from .graph import Edge, Graph

FEASIBLE = "feasible"
INFEASIBLE = "infeasible"
INCONCLUSIVE = "inconclusive"

# Failed states one interval search keeps before it drops them all and
# starts over; about 70 MB when full.
_FAIL_CAP = 1 << 18


class SearchLimitError(RuntimeError):
    """A definite answer was required but the node budget ran out."""


@dataclass(frozen=True)
class SearchOutcome:
    """Result of one bounded search at a fixed color count."""

    status: str
    t: int
    coloring: EdgeColoring | None
    nodes: int


@dataclass(frozen=True)
class SpectrumReport:
    """The SearchOutcome of each t swept, ascending, as entries.

    min_colors / max_colors are None when the sweep did not settle them:
    min_colors needs every t below the smallest feasible value decided,
    max_colors additionally needs the sweep to reach the upper bound
    beyond which no interval coloring can exist.
    """

    vertex_count: int
    edge_count: int
    t_min_searched: int
    t_max_searched: int
    min_colors: int | None
    max_colors: int | None
    entries: tuple[SearchOutcome, ...]

    @property
    def feasible_t(self) -> tuple[int, ...]:
        return tuple(e.t for e in self.entries if e.status == FEASIBLE)

    @property
    def inconclusive_t(self) -> tuple[int, ...]:
        return tuple(e.t for e in self.entries if e.status == INCONCLUSIVE)

    @property
    def witnesses(self) -> dict[int, EdgeColoring]:
        return {e.t: e.coloring for e in self.entries if e.coloring is not None}

    @property
    def nodes_searched(self) -> int:
        return sum(e.nodes for e in self.entries)

    def to_json_dict(self) -> dict:
        return {
            "vertex_count": self.vertex_count,
            "edge_count": self.edge_count,
            "t_min_searched": self.t_min_searched,
            "t_max_searched": self.t_max_searched,
            "feasible_t": list(self.feasible_t),
            "inconclusive_t": list(self.inconclusive_t),
            "min_colors": self.min_colors,
            "max_colors": self.max_colors,
            "nodes_searched": self.nodes_searched,
            "witnesses": {
                str(t): c.to_json_dict() for t, c in self.witnesses.items()
            },
        }


def bfs_edge_order(g: Graph) -> list[Edge]:
    """Edges in first-seen order of a BFS from vertex 1 (sorted adjacency).

    Each edge is emitted once, from whichever endpoint the BFS visits
    first. Keeps each new edge adjacent to already-ordered ones, which is
    what makes the per-vertex pruning bite early.
    """
    visit = g._root_bfs[0]
    neighbors = g._neighbors
    rank = [0] * (g.vertex_count + 1)
    for i, v in enumerate(visit):
        rank[v] = i
    return [
        (u, w) if u < w else (w, u)
        for u in visit
        for w in neighbors[u]
        if rank[w] > rank[u]
    ]


def _live_band(g: Graph, order: list[Edge]) -> tuple[Callable[[int], list[int]], list[int]]:
    """The vertices live at depth i of the search over order, as a function
    of i, and first_edge: each vertex's first edge index.

    Vertex x is live at depth i, with edges 0..i-1 placed, when some but
    not all of its edges are placed: first_edge[x] < i <= last[x], the
    indices of its first and last edge in order. For the order of
    bfs_edge_order, first_edge does not decrease along the BFS visit order
    it was built from: x's first edge is the one from its BFS parent (edge
    0 for vertex 1), the edges come parent by parent in visit order, and
    one parent's children in visit order too. So the vertices with
    first_edge[x] < i are a prefix of visit, and those before the first
    whose running maximum of last reaches i are all done: the live ones
    lie in the band between, about as wide as the BFS frontier, and each
    depth's list costs that band, not V, once.
    """
    visit = g._root_bfs[0]
    first_edge = [0] * (g.vertex_count + 1)
    last = [0] * (g.vertex_count + 1)
    for j in range(len(order) - 1, -1, -1):
        a, b = order[j]
        first_edge[a] = first_edge[b] = j
    for j, (a, b) in enumerate(order):
        last[a] = last[b] = j
    firsts = [first_edge[x] for x in visit]
    reach = list(accumulate([last[x] for x in visit], max))
    memo: list[list[int] | None] = [None] * (len(order) + 1)

    def live_at(i: int) -> list[int]:
        live = memo[i]
        if live is None:
            band = visit[bisect_left(reach, i) : bisect_left(firsts, i)]
            live = memo[i] = [x for x in band if last[x] >= i]
        return live

    return live_at, first_edge


def _depth_first(
    m: int,
    candidates: Callable,
    place: Callable,
    undo: Callable,
    node_limit: int | None,
) -> tuple[str, int, list[int]]:
    """Depth-first search over steps 0..m-1 with its stack kept in lists.

    The caller's rule owns the state: candidates(i) lists the choices for
    step i, in the order to try them; place(i, c) makes choice c at step
    i and returns True, or rejects it and leaves the state as it was;
    undo(i, c) takes a placed choice back, and is called only once every
    continuation of c at step i has failed, so it may learn from that
    failure. A node is one choice offered to place. Returns the status,
    the node count and each step's choice.
    """
    chosen = [0] * m
    if m == 0:
        return FEASIBLE, 0, chosen
    pending = [iter(())] * m
    pending[0] = iter(candidates(0))
    nodes = 0
    i = 0
    while True:
        for c in pending[i]:
            if nodes == node_limit:
                return INCONCLUSIVE, nodes, chosen
            nodes += 1
            if place(i, c):
                break
        else:
            if i == 0:
                return INFEASIBLE, nodes, chosen
            i -= 1
            undo(i, chosen[i])
            continue
        chosen[i] = c
        i += 1
        if i == m:
            return FEASIBLE, nodes, chosen
        pending[i] = iter(candidates(i))


def _check_node_limit(node_limit: int | None) -> None:
    """Reject a node budget that is neither None nor an int >= 1."""
    if node_limit is not None and (type(node_limit) is not int or node_limit < 1):
        raise ValueError(f"node_limit must be a positive integer, got {node_limit!r}")


def _colors(mask: int) -> list[int]:
    """The colors whose bits are set in mask, ascending (linear in t)."""
    return [c for c, bit in enumerate(bin(mask)[:1:-1]) if bit == "1"]


def _window(palette: int, d: int, t: int) -> int:
    """The colors a further edge may take at a vertex of degree d.

    Those within d-1 of every color in the (nonempty) palette, clipped to
    1..t, less the palette. The palette spans at most d colors while only
    window colors are placed, so the window holds it.
    """
    lo = palette.bit_length() - d  # largest color - (d - 1)
    hi = (palette & -palette).bit_length() + d - 2  # smallest color + (d - 1)
    if lo < 1:
        lo = 1
    if hi > t:
        hi = t
    return ((2 << hi) - (1 << lo)) & ~palette


def _reach_radius(t: int, delta: int) -> int:
    """Largest k >= 1 with (delta - 1) * k < t - 1, where palettes cut, or 0."""
    return (t - 2) // (delta - 1) if t > delta > 1 else 0


def _color_slack(g: Graph, edge: Edge, radius: int) -> dict[int, int]:
    """Each vertex x at distance k in 1..radius from edge, mapped to
    deg(x) - 1 + (max_degree - 1) * k, memoized per graph: an interval
    coloring puts edge's color within that of every color at x, as x's
    colors span deg(x) - 1 and each vertex y further on moves it by
    deg(y) - 1 at most."""
    key = edge, radius  # never equal to an orbit's key, a bare edge
    slack = g._search_memo.get(key)
    if slack is None:
        slack = g._search_memo[key] = {}
        adj, step, ring = g._neighbors, g.max_degree() - 1, edge
        for k in range(1, radius + 1):
            ring = {w for u in ring for w in adj[u] if w not in edge and w not in slack}
            slack.update((x, len(adj[x]) - 1 + step * k) for x in ring)
    return slack


def _reach(slack: dict[int, int], live: list[int], vmask: list[int], t: int) -> int:
    """The colors in 1..t an edge may take: each live vertex with a slack s
    (_color_slack) holds them to [max - s, min + s] of its palette."""
    lo, hi = 1, t
    for x in live:
        s = slack.get(x)
        if s is not None:
            p = vmask[x]
            a = p.bit_length() - 1 - s  # largest color - slack
            b = (p & -p).bit_length() - 1 + s  # smallest color + slack
            if a > lo:
                lo = a
            if b < hi:
                hi = b
    return (2 << hi) - (1 << lo) if lo <= hi else 0


def _edge_orbit(g: Graph, edge: Edge) -> frozenset[Edge]:
    """Edges that some automorphism maps edge onto, memoized per graph.

    Each member is proved by a vertex permutation checked to map the
    edge set onto itself, and the work is capped (see _orbits.py), so
    the result always holds edge and is a subset of the true orbit,
    which is all a caller may rely on.
    """
    orbit = g._search_memo.get(edge)
    if orbit is None:
        # imported on first use: most searches never need an orbit
        from ._orbits import edge_orbit

        orbit = g._search_memo[edge] = frozenset(edge_orbit(g, edge))
    return orbit


def search_interval_coloring(
    g: Graph,
    t: int,
    *,
    node_limit: int | None = None,
) -> SearchOutcome:
    """Decide whether g has an interval t-coloring, with a witness if so.

    A node is one attempted edge-color assignment; the search gives up
    with INCONCLUSIVE rather than try more than node_limit of them.
    """
    if type(t) is not int or t < 1:
        raise ValueError(f"color count t must be a positive integer, got {t!r}")
    _check_node_limit(node_limit)

    order = bfs_edge_order(g)
    m = len(order)
    if t > m:  # m edges carry at most m colors; the edgeless graph included
        return SearchOutcome(INFEASIBLE, t, None, 0)
    nv = g.vertex_count
    deg = list(map(len, g._neighbors))
    palette = (2 << t) - 2  # bits 1..t
    vmask = [0] * (nv + 1)  # colors on the placed edges at each vertex
    unused = palette  # colors on no placed edge
    # colors a further edge at each vertex may take: those inside the
    # window and not already there
    free = [palette] * (nv + 1)
    saved = [(0, 0, 0)] * m  # free[u], free[v], unused before edge i
    colors_of: dict[int, list[int]] = {}  # candidate lists by mask
    # free masks by palette, one memo per degree and reached per vertex;
    # they hold for this t only, as the window is clipped to 1..t
    by_degree: dict[int, dict[int, int]] = {d: {} for d in set(deg)}
    windows = list(map(by_degree.__getitem__, deg))
    za, zb = order[-1]  # the last edge, the first the hosting scan reads

    # Failure cache. Below depth i the search sees only `unused` and the
    # palettes of the vertices live at i (edges placed before i and edges
    # left at or after i); free masks and reaches follow from them.
    # fails[i] holds the (unused, live palettes) states at depth i whose
    # every candidate failed, with the getter of those palettes, and
    # place() rejects a color that leads into one of them.
    fails: list[tuple[Callable, set] | None] = [None] * (m + 1)
    stored = 0

    # Learned root bans: allowed[i] drops the colors that no interval
    # t-coloring has on edge i (see back below).
    allowed = [palette] * m

    def candidates(i: int) -> list[int]:
        u, v = order[i]
        mask = free[u] & free[v] & allowed[i]
        colors = colors_of.get(mask)
        if colors is None:
            colors = colors_of[mask] = _colors(mask)
        return colors

    def place(i: int, c: int) -> bool:
        nonlocal unused
        bit = 1 << c
        left = unused & ~bit
        if left.bit_count() > m - 1 - i:
            return False  # fewer edges remain than colors still to use
        u, v = order[i]
        mu = vmask[u] = vmask[u] | bit
        mv = vmask[v] = vmask[v] | bit
        failed = fails[i + 1]
        if failed is not None:
            live, seen = failed
            if (left, live(vmask)) in seen:
                vmask[u] ^= bit
                vmask[v] ^= bit
                return False  # leads into a state already exhausted
        saved[i] = free[u], free[v], unused
        fu = windows[u].get(mu)
        if fu is None:
            fu = windows[u][mu] = _window(mu, deg[u], t)
        fv = windows[v].get(mv)
        if fv is None:
            fv = windows[v][mv] = _window(mv, deg[v], t)
        free[u] = fu
        free[v] = fv
        # every color still unused must fit some later edge, within its reach
        # once armed; scanned from the far end, where edges are untouched
        if left and (left & ~(free[za] & free[zb]) or near_z <= i):
            need = left
            for j in range(m - 1, i, -1):
                a, b = order[j]
                host = free[a] & free[b] & need
                if host:
                    slack, touched = near[j] or ball(j)
                    if touched <= i:
                        host &= _reach(slack, live_at(i + 1), vmask, t)
                    need ^= host
                    if not need:
                        break
            else:
                back(i, c)
                return False
        unused = left
        return True

    # built on the first failure: a search that never fails pays nothing
    live_at = first_edge = None
    radius = 0
    # per edge, its slack table and the first depth placing an edge at a
    # vertex in it (near_z: the last edge's), never until the rule is armed
    near: list = [({}, m)] * m
    near_z = m
    orbit = None  # indices of edge 0's orbit, found on the first root ban

    def ball(j: int) -> tuple[dict[int, int], int]:
        slack = _color_slack(g, order[j], radius)
        near[j] = slack, min(map(first_edge.__getitem__, slack), default=m)
        return near[j]

    def undo(i: int, c: int) -> None:
        # every continuation of c failed: the state at depth i + 1 is exhausted
        nonlocal stored, live_at, first_edge, radius, near, near_z
        if stored == _FAIL_CAP:
            fails[:] = [None] * (m + 1)
            stored = 0
        failed = fails[i + 1]
        if failed is None:
            if live_at is None:
                live_at, first_edge = _live_band(g, order)
                radius = _reach_radius(t, g.max_degree())
                if radius:
                    near = [None] * m
                    near_z = ball(m - 1)[1]
            failed = fails[i + 1] = itemgetter(*live_at(i + 1)), set()
        failed[1].add((unused, failed[0](vmask)))
        stored += 1
        back(i, c)

    def back(i: int, c: int) -> None:  # c failed on edge i: take it back
        nonlocal unused, orbit
        u, v = order[i]
        vmask[u] ^= 1 << c
        vmask[v] ^= 1 << c
        free[u], free[v], unused = saved[i]
        if i == 0 and c < half:
            # no interval t-coloring has c on edge 0, so by symmetry none
            # has c on an edge of its orbit, and by reversal none has
            # t+1-c there; after the last root color nothing is left to ban
            if orbit is None:
                edges = _edge_orbit(g, order[0])
                orbit = [j for j, e in enumerate(order) if e in edges]
            ban = ~((1 << c) | (1 << (t + 1 - c)))
            for j in orbit:
                allowed[j] &= ban

    # Reversal c -> t+1-c maps interval t-colorings onto interval
    # t-colorings, so the first witness gives edge 0 at most (t+1)//2.
    half = (t + 1) // 2
    allowed[0] = (2 << half) - 2

    status, nodes, chosen = _depth_first(m, candidates, place, undo, node_limit)
    if status != FEASIBLE:
        return SearchOutcome(status, t, None, nodes)
    return SearchOutcome(FEASIBLE, t, EdgeColoring(t, dict(zip(order, chosen))), nodes)


def _t_range(g: Graph) -> range:
    """Every t at which g can have an interval coloring, ascending.

    Each needs max_degree colors at a busiest vertex, and none of a
    connected graph exceeds the diameter bound of color_count_bounds.
    """
    return range(max(g.max_degree(), 1), color_count_bounds(g).applicable_bound + 1)


def interval_spectrum(
    g: Graph,
    t_cap: int | str = "auto",
    *,
    node_limit: int | None = None,
) -> SpectrumReport:
    """Search each t from max_degree up to the cap, ascending.

    cap="auto" is the diameter bound, above which no t is feasible (see
    _t_range), so the sweep decides the whole spectrum. A lower integer
    cap, not below the first t, trades completeness at the top for time;
    a higher one is lowered to the bound. node_limit is applied per t,
    and budget-exhausted values land in inconclusive_t.
    """
    _check_node_limit(node_limit)  # also where the sweep searches nothing
    ts = _t_range(g)
    bound = ts.stop - 1
    if t_cap == "auto":
        cap = bound
    elif isinstance(t_cap, int) and not isinstance(t_cap, bool):
        if t_cap < ts.start:
            raise ValueError(f"cap {t_cap} is below {ts.start}, the first t of the sweep")
        cap = min(t_cap, bound)
    else:
        raise ValueError(f't_cap must be "auto" or an integer, got {t_cap!r}')

    entries = tuple(
        search_interval_coloring(g, t, node_limit=node_limit)
        for t in range(ts.start, cap + 1)
    )
    # an end of the spectrum is settled when the outermost t not proved
    # infeasible is feasible; the top only once the sweep reached the bound
    live = [e for e in entries if e.status != INFEASIBLE]
    min_colors = live[0].t if live and live[0].status == FEASIBLE else None
    top = live[-1].t if live and live[-1].status == FEASIBLE else None
    max_colors = top if cap == bound else None

    return SpectrumReport(
        vertex_count=g.vertex_count,
        edge_count=g.edge_count,
        t_min_searched=ts.start,
        t_max_searched=cap,
        min_colors=min_colors,
        max_colors=max_colors,
        entries=entries,
    )


def chromatic_index_is_delta(g: Graph, *, node_limit: int | None = None) -> bool:
    """Whether g has a proper edge coloring with exactly max_degree colors.

    Exhaustive backtracking over the BFS edge order. New colors are
    introduced in order (an edge may take at most one more than the
    largest color used so far), which removes color-permutation
    symmetry. For a regular graph this decides interval colorability.
    """
    _check_node_limit(node_limit)
    delta = g.max_degree()
    order = bfs_edge_order(g)
    m = len(order)
    vmask = [0] * (g.vertex_count + 1)
    top = [0] * (m + 1)  # largest color on edges 0..i-1
    # colors 1..min(k + 1, delta): those an edge may take once k is the top
    opened = [(2 << min(k + 1, delta)) - 2 for k in range(delta + 1)]
    colors_of: dict[int, list[int]] = {}  # candidate lists by mask

    def candidates(i: int) -> list[int]:
        u, v = order[i]
        mask = opened[top[i]] & ~(vmask[u] | vmask[v])
        colors = colors_of.get(mask)
        if colors is None:
            colors = colors_of[mask] = _colors(mask)
        return colors

    def place(i: int, c: int) -> bool:
        u, v = order[i]
        vmask[u] |= 1 << c
        vmask[v] |= 1 << c
        top[i + 1] = c if c > top[i] else top[i]
        return True

    def undo(i: int, c: int) -> None:
        u, v = order[i]
        vmask[u] ^= 1 << c
        vmask[v] ^= 1 << c

    status, _, _ = _depth_first(m, candidates, place, undo, node_limit)
    if status == INCONCLUSIVE:
        raise SearchLimitError(f"node budget {node_limit} exhausted without a verdict")
    return status == FEASIBLE


def chromatic_index(g: Graph, *, node_limit: int | None = None) -> int:
    """Minimum colors in any proper edge coloring of g.

    Always max_degree or max_degree + 1 (Vizing), so one search settles it.
    """
    delta = g.max_degree()
    return delta if chromatic_index_is_delta(g, node_limit=node_limit) else delta + 1


def is_interval_colorable(g: Graph, *, node_limit: int | None = None) -> bool:
    """Whether g has an interval t-coloring for at least one t.

    An edgeless graph has none (color 1 is never used). A regular graph
    has one exactly when its chromatic index equals its degree, which is
    a much cheaper search. Other graphs are searched at each t that could
    be feasible, ascending, and the first feasible t answers True; if
    none is, the answer is a genuine no. Raises SearchLimitError if a
    node budget left some t undecided while none was feasible.
    """
    _check_node_limit(node_limit)
    if g.edge_count == 0:
        return False
    if g.is_regular():
        return chromatic_index_is_delta(g, node_limit=node_limit)
    inconclusive = []
    for t in _t_range(g):
        status = search_interval_coloring(g, t, node_limit=node_limit).status
        if status == FEASIBLE:
            return True
        if status == INCONCLUSIVE:
            inconclusive.append(t)
    if inconclusive:
        raise SearchLimitError(
            f"undecided at t in {inconclusive} under node budget {node_limit}"
        )
    return False
