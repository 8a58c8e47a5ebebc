import hashlib
import json
import random

import networkx as nx
import pytest
from hypothesis import assume, example, given, settings, strategies as st

import intervalcolor._orbits
import intervalcolor.solver
from intervalcolor import (
    FEASIBLE,
    INCONCLUSIVE,
    INFEASIBLE,
    EdgeColoring,
    Graph,
    SearchLimitError,
    bfs_edge_order,
    chromatic_index,
    chromatic_index_is_delta,
    color_count_bounds,
    interval_spectrum,
    is_interval,
    is_interval_colorable,
    moebius_ladder,
    moebius_max_coloring,
    normalize_edge,
    search_interval_coloring,
)
from oracles import (
    brute_force_feasible,
    cycle,
    delta_edge_coloring,
    first_interval_coloring,
    grid,
    moebius,
    naive_interval_verdict,
    path,
    petersen,
    small_connected_graphs,
    star,
)
from strategies import connected_graphs

PETERSEN = Graph(*petersen())
K2 = Graph(2, [(1, 2)])


def as_bytes(coloring):
    return json.dumps(coloring.to_json_dict(), sort_keys=True).encode()


def outcome(out):
    """A search's status, node count and whole witness."""
    return out.status, out.nodes, as_bytes(out.coloring) if out.coloring else None


class TestEdgeOrder:
    def test_covers_each_edge_once_starting_at_vertex_one(self):
        g = moebius_ladder(3).graph
        order = bfs_edge_order(g)
        assert sorted(order) == list(g.edges)
        assert order[0][0] == 1 or order[0][1] == 1

    def test_deterministic(self):
        g = moebius_ladder(4).graph
        assert bfs_edge_order(g) == bfs_edge_order(g)

    def test_search_keeps_it_with_the_degrees(self):
        g = Graph(*grid(3, 4))
        order, deg = intervalcolor.solver._search_order(g)
        assert order == bfs_edge_order(g)
        assert deg == [0] + [g.degree(x) for x in range(1, g.vertex_count + 1)]
        assert intervalcolor.solver._search_order(g)[0] is order  # built once

    def test_matches_networkx_edge_bfs(self):
        # edge_bfs visits neighbors in insertion order, so sorted edges
        # give it the sorted adjacency the search walks
        for n, edges in small_connected_graphs(7, 21):
            G = nx.Graph()
            G.add_nodes_from(range(1, n + 1))
            G.add_edges_from(sorted(edges))
            expected = [normalize_edge(u, v) for u, v in nx.edge_bfs(G, 1)]
            assert bfs_edge_order(Graph(n, edges)) == expected, (n, edges)


class TestFindColoring:
    def test_ladder_at_top_of_spectrum(self):
        g = moebius_ladder(2).graph
        out = search_interval_coloring(g, 4)
        assert out.status == FEASIBLE
        assert is_interval(g, out.coloring).verdict

    def test_ladder_above_top_is_infeasible(self):
        out = search_interval_coloring(moebius_ladder(2).graph, 5)
        assert (out.status, out.coloring) == (INFEASIBLE, None)

    def test_single_edge(self):
        out = search_interval_coloring(K2, 1)
        assert out.status == FEASIBLE
        assert out.coloring.assignment == {(1, 2): 1}

    def test_petersen_has_no_three_coloring(self):
        out = search_interval_coloring(PETERSEN, 3)
        assert (out.status, out.coloring) == (INFEASIBLE, None)

    def test_rejects_bad_t(self):
        with pytest.raises(ValueError):
            search_interval_coloring(K2, 0)

    def test_more_colors_than_edges_is_infeasible(self):
        # m edges carry at most m colors: decided before any node, for any t
        for t in (2, 10**9):
            out = search_interval_coloring(K2, t)
            assert (out.status, out.coloring, out.nodes) == (INFEASIBLE, None, 0)


class TestSpectrum:
    def test_m4(self):
        report = interval_spectrum(moebius_ladder(2).graph)
        assert report.feasible_t == (3, 4)
        assert report.min_colors == 3
        assert report.max_colors == 4
        assert report.t_min_searched == 3
        assert report.t_max_searched == 5
        assert report.inconclusive_t == ()

    def test_m6(self):
        report = interval_spectrum(moebius_ladder(3).graph)
        assert report.feasible_t == (3, 4, 5)
        assert (report.min_colors, report.max_colors) == (3, 5)
        assert report.t_max_searched == 5

    def test_m8_bound_is_not_tight(self):
        # the sweep reaches the odd-cycle bound 7 but the top color
        # count is 6; t=7 must come back infeasible, not skipped
        report = interval_spectrum(moebius_ladder(4).graph)
        assert report.feasible_t == (3, 4, 5, 6)
        assert report.max_colors == 6
        assert report.t_max_searched == 7
        top = report.entries[-1]
        assert (top.t, top.status) == (7, INFEASIBLE)

    def test_witnesses_verify(self):
        report = interval_spectrum(moebius_ladder(3).graph)
        g = moebius_ladder(3).graph
        assert set(report.witnesses) == set(report.feasible_t)
        for t, coloring in report.witnesses.items():
            assert coloring.t == t
            assert is_interval(g, coloring).verdict

    def test_single_edge(self):
        report = interval_spectrum(K2)
        assert report.feasible_t == (1,)
        assert (report.min_colors, report.max_colors) == (1, 1)

    def test_odd_cycle_has_empty_spectrum(self):
        report = interval_spectrum(Graph(*cycle(5)))
        assert report.feasible_t == ()
        assert report.min_colors is None
        assert report.max_colors is None

    def test_cap_above_bound_searches_as_auto(self):
        # every sweep runs to the diameter bound, 9 for M_12
        report = interval_spectrum(moebius_ladder(6).graph)
        assert report.t_max_searched == 9
        assert report.nodes_searched == 482

    def test_no_t_above_bound_is_feasible(self):
        # the theorem a sweep that stops at the bound relies on: 31 cases
        # on the atlas graphs, 27 on the ladders (t > m needs no search)
        graphs = [Graph(nv, edges) for nv, edges in small_connected_graphs(6, 15)]
        graphs += [moebius_ladder(n).graph for n in range(2, 7)]
        for g in graphs:
            _, bound = color_count_bounds(g)
            for t in range(bound + 1, g.edge_count + 1):
                assert search_interval_coloring(g, t).status == INFEASIBLE, (g, t)

    def test_derived_fields_agree_with_entries(self):
        report = interval_spectrum(moebius_ladder(4).graph, node_limit=20)
        entries = report.entries
        assert report.feasible_t == tuple(e.t for e in entries if e.status == FEASIBLE)
        undecided = tuple(e.t for e in entries if e.status == INCONCLUSIVE)
        assert report.inconclusive_t == undecided != ()
        assert report.witnesses == {e.t: e.coloring for e in entries if e.coloring}
        assert list(report.witnesses) == list(report.feasible_t)
        assert report.nodes_searched == sum(e.nodes for e in entries)

    def test_cap_type_checked(self):
        # "auto" is the only cap: a sweep always ends at the bound
        for cap in ("everything", True, 9):
            with pytest.raises(ValueError, match="t_cap"):
                interval_spectrum(K2, cap)


class TestNodeBudget:
    def test_outcome_is_inconclusive(self):
        out = search_interval_coloring(moebius_ladder(4).graph, 7, node_limit=10)
        assert out.status == INCONCLUSIVE
        assert out.coloring is None
        assert out.nodes == 10
        # the reference enumeration gives up the same way
        assert first_interval_coloring(*moebius(4), 7, node_limit=1) == (INCONCLUSIVE, None)

    def test_spectrum_collects_inconclusive_t(self):
        report = interval_spectrum(moebius_ladder(4).graph, node_limit=20)
        assert report.inconclusive_t != ()
        assert report.max_colors is None

    @pytest.mark.parametrize("limit", [0, -1, 2.5, True])
    def test_rejects_nonpositive_limit(self, limit):
        # only None or an exact int >= 1: 2.5 would never equal a node
        # count, so the budget would silently not apply, and True is no count
        with pytest.raises(ValueError):
            search_interval_coloring(K2, 1, node_limit=limit)
        with pytest.raises(ValueError):
            chromatic_index_is_delta(PETERSEN, node_limit=limit)
        # also where no search runs at all
        with pytest.raises(ValueError):
            is_interval_colorable(Graph(1, []), node_limit=limit)
        with pytest.raises(ValueError, match="node_limit"):
            interval_spectrum(Graph(1, []), "auto", node_limit=limit)

    def test_generous_limit_changes_nothing(self):
        g = moebius_ladder(3).graph
        free = search_interval_coloring(g, 4)
        budgeted = search_interval_coloring(g, 4, node_limit=10**9)
        assert budgeted == free


class TestFailureCache:
    """Failed subtrees are skipped, never solutions: the search with its
    pruning, failure cache and root bans must decide exactly like the plain
    enumeration of oracles.first_interval_coloring."""

    @settings(max_examples=300)
    @given(connected_graphs(max_vertices=7), st.integers(1, 18))
    # a tree whose first witness is lost if the key leaves out the unused
    # colors: two states there differ only in them
    @example(Graph(7, [(1, 2), (1, 3), (1, 4), (1, 5), (2, 6), (6, 7)]), 5)
    # symmetric graphs where color 1 on edge 0 fails, so the rest of the
    # search runs under bans spread over edge 0's orbit: C_6, K_4 and
    # K_{2,3} are infeasible; the path and the last graph have witnesses
    # with color 2 on edge 0, found after the bans
    @example(Graph(*cycle(6)), 5)
    @example(Graph(4, [(1, 2), (1, 3), (1, 4), (2, 3), (2, 4), (3, 4)]), 5)
    @example(Graph(5, [(1, 3), (1, 4), (1, 5), (2, 3), (2, 4), (2, 5)]), 3)
    @example(Graph(5, [(1, 2), (1, 5), (2, 3), (3, 4)]), 4)
    @example(Graph(6, [(1, 2), (1, 4), (1, 6), (2, 3), (3, 4), (4, 5), (5, 6)]), 5)
    def test_same_verdict_and_witness_as_reference(self, g, t):
        assume(t <= 3 * g.max_degree())
        status, colors = first_interval_coloring(
            g.vertex_count, list(g.edges), t, node_limit=20_000
        )
        if status == INCONCLUSIVE:
            return  # the reference could not decide within its budget
        # the same budget: at each state the search tries a subset of the
        # colors the reference tries, so it decides whatever the reference
        # does, and a pruning bug fails here instead of hanging the suite
        fast = search_interval_coloring(g, t, node_limit=20_000)
        assert fast.status == status
        if fast.status == FEASIBLE:
            assert dict(fast.coloring.assignment) == colors

    def test_clearing_when_full_keeps_results(self, monkeypatch):
        ladders = [moebius_ladder(n).graph for n in (6, 7)]
        full = [interval_spectrum(g) for g in ladders]
        monkeypatch.setattr(intervalcolor.solver, "_FAIL_CAP", 4)
        for g, expected in zip(ladders, full):
            tiny = interval_spectrum(g)
            assert [(e.t, e.status) for e in tiny.entries] == [
                (e.t, e.status) for e in expected.entries
            ]
            assert {t: as_bytes(c) for t, c in tiny.witnesses.items()} == {
                t: as_bytes(c) for t, c in expected.witnesses.items()
            }
            # a cache that keeps dropping its entries saves fewer nodes
            assert tiny.nodes_searched > expected.nodes_searched

    def test_budget_runs_out_mid_search(self):
        # the full proof takes 22,357 nodes, so the cache is in use by then
        out = search_interval_coloring(moebius_ladder(14).graph, 17, node_limit=10_000)
        assert out.status == INCONCLUSIVE
        assert out.coloring is None
        assert out.nodes == 10_000


def random_connected(rng: random.Random, max_vertices: int) -> Graph:
    """A random tree on shuffled labels plus up to as many extra edges."""
    nv = rng.randint(1, max_vertices)
    labels = list(range(1, nv + 1))
    rng.shuffle(labels)
    edges = set()
    for k in range(1, nv):
        a, b = labels[k], labels[rng.randrange(k)]
        edges.add((min(a, b), max(a, b)))
    for _ in range(rng.randint(0, nv) if nv > 1 else 0):
        a, b = rng.sample(labels, 2)
        edges.add((min(a, b), max(a, b)))
    return Graph(nv, sorted(edges))


class TestLiveBand:
    """The failure cache keys a state by the palettes of the vertices live
    at its depth; _live_band finds them from the BFS band, which relies on
    the shape of bfs_edge_order, and keeps them with the graph. Here the
    kept lists against the definition itself."""

    @staticmethod
    def assert_matches_definition(g):
        order = bfs_edge_order(g)
        live_at, _ = intervalcolor.solver._live_band(g)
        assert intervalcolor.solver._live_band(g)[0] is live_at  # built once
        degree = {x: len(g.neighbors(x)) for x in range(1, g.vertex_count + 1)}
        placed = dict.fromkeys(degree, 0)
        for i in range(len(order) + 1):
            # live: some but not all of the vertex's edges are in order[:i]
            live = {x for x, k in placed.items() if 0 < k < degree[x]}
            found = live_at(i)
            assert len(found) == len(set(found)), (g, i)
            assert set(found) == live, (g, i)
            if i < len(order):
                for x in order[i]:
                    placed[x] += 1

    def test_ladders_and_grids(self):
        for n in range(2, 21):
            self.assert_matches_definition(moebius_ladder(n).graph)
        for a, b in [(1, 7), (2, 2), (3, 5), (5, 3), (6, 6), (4, 9)]:
            self.assert_matches_definition(Graph(*grid(a, b)))

    def test_random_connected_graphs(self):
        rng = random.Random(13)
        for _ in range(200):
            self.assert_matches_definition(random_connected(rng, 40))


class TestReach:
    """The distance bound on hosting, checked against interval colorings
    that exist: along a path the colors of consecutive edges differ by at
    most max_degree - 1, so placed palettes bound each later edge's color."""

    def test_radius_is_the_last_distance_that_can_cut(self):
        reach_radius = intervalcolor.solver._reach_radius
        assert reach_radius(1, 1) == reach_radius(5, 1) == 0  # one edge
        for delta in range(2, 9):
            for t in range(1, 41):
                r = reach_radius(t, delta)
                if t <= delta:
                    assert r == 0, (t, delta)
                else:
                    # distance r leaves colors out, distance r + 1 spans 1..t
                    assert (delta - 1) * r < t - 1 <= (delta - 1) * (r + 1), (t, delta)

    def test_slack_tables_match_distances(self):
        graphs = [moebius_ladder(n).graph for n in (3, 7)]
        graphs += [Graph(*grid(4, 5)), Graph(*path(9)), PETERSEN]
        for g in graphs:
            G = nx.Graph(list(g.edges))
            step = g.max_degree() - 1
            for radius in (1, 2, 4):
                near, ball = intervalcolor.solver._reach_tables(g, radius)
                for j, (a, b) in enumerate(bfs_edge_order(g)):
                    da = nx.single_source_shortest_path_length(G, a)
                    db = nx.single_source_shortest_path_length(G, b)
                    expected = {}
                    for x in G:
                        k = min(da[x], db[x])
                        if 1 <= k <= radius:
                            expected[x] = G.degree(x) - 1 + step * k
                    assert ball(j)[1] == expected, (g, a, b, radius)
                    assert near[j][1] == expected  # kept

    @staticmethod
    def assert_inside_reach(g, coloring):
        """At every prefix of the search's edge order, each later edge's
        color lies in its reach from all placed palettes; within the free
        masks of its ends, the live palettes alone give the same reach,
        and an edge not yet touched has none to cut with. The tables read
        are those the graph keeps; the pairs that earlier searches kept
        must be the live ones. Returns the cuts and the kept pairs read."""
        solver = intervalcolor.solver
        t = coloring.t
        order = bfs_edge_order(g)
        color = [coloring.assignment[e] for e in order]
        deg = [0] + [len(g.neighbors(x)) for x in range(1, g.vertex_count + 1)]
        radius = solver._reach_radius(t, g.max_degree())
        live_at, _ = solver._live_band(g)
        near, ball = solver._reach_tables(g, radius)
        full = (2 << t) - 2
        vmask = [0] * (g.vertex_count + 1)
        placed = []
        cuts = kept = 0
        for i in range(len(order) + 1):
            for j in range(i, len(order)):
                touched, slack, aligned = near[j] or ball(j)
                reach = solver._reach([(x, slack[x]) for x in placed if x in slack], vmask, t)
                assert reach >> color[j] & 1, (g, t, i, j)
                free = full
                for x in order[j]:
                    if vmask[x]:
                        free &= solver._window(vmask[x], deg[x], t)
                pairs = [(x, slack[x]) for x in live_at(i) if x in slack]
                if i in aligned:
                    assert aligned[i] == pairs, (g, t, i, j)
                    kept += 1
                live = solver._reach(pairs, vmask, t) if touched < i else full
                assert reach & free == live & free, (g, t, i, j)
                cuts += reach != full
            if i < len(order):
                for x in order[i]:
                    if not vmask[x]:
                        placed.append(x)
                    vmask[x] |= 1 << color[i]
        return cuts, kept

    def test_closed_form_colorings(self):
        cuts = 0
        for n in range(2, 41):
            cuts += self.assert_inside_reach(moebius_ladder(n).graph, moebius_max_coloring(n))[0]
        assert cuts > 0  # the bound is not vacuous

    def test_ladder_witnesses(self):
        kept = 0
        for n in range(2, 11):
            g = moebius_ladder(n).graph
            for coloring in interval_spectrum(g).witnesses.values():
                kept += self.assert_inside_reach(g, coloring)[1]
        assert kept > 0  # the sweeps kept pairs, and they were read

    def test_grids_where_steps_are_shorter_than_max_degree(self):
        # border vertices have degree 2 or 3 against max degree 4; the
        # witnesses up to t = 8 come from the reference enumeration
        for a, b in [(3, 4), (4, 4)]:
            nv, edges = grid(a, b)
            g = Graph(nv, edges)
            for t in range(4, 9):
                status, colors = first_interval_coloring(nv, edges, t)
                assert status == FEASIBLE, (a, b, t)
                self.assert_inside_reach(g, EdgeColoring(t, colors))
        g = Graph(*grid(4, 4))
        for t in (9, 10):
            self.assert_inside_reach(g, search_interval_coloring(g, t).coloring)


class TestWarmMemo:
    """A Graph keeps the search's tables that depend on the graph alone
    (the edge order, the live band, the reach tables and edge 0's orbit),
    so no earlier search on it, whatever its t or however it ended, may
    change an outcome: status, nodes and the whole witness."""

    CUT = 25  # the node budget of the searches cut short

    def assert_warm_same_as_cold(self, g, budget):
        """Every t up to the bound under a node budget per search, whose
        inconclusive outcomes must agree too; returns the statuses."""
        nv, edges = g.vertex_count, g.edges
        ts = range(1, color_count_bounds(g)[1] + 1)

        def run(graph, t, limit=budget):
            return outcome(search_interval_coloring(graph, t, node_limit=limit))

        ascending = {t: run(g, t) for t in ts}
        for t in reversed(ts):  # the same Graph again, every table warm
            assert run(g, t) == ascending[t], (g, t)
        cut = Graph(nv, edges)
        for t in ts:
            assert run(cut, t, self.CUT) == run(Graph(nv, edges), t, self.CUT), (g, t)
        for t in ts:  # after searches left unfinished
            assert run(cut, t) == ascending[t], (g, t)
        for t in ts:  # a fresh equal Graph for each t: nothing kept
            assert run(Graph(nv, edges), t) == ascending[t], (g, t)
        return {status for status, _, _ in ascending.values()}

    def test_ladders(self):
        # M_4..M_20, each t decided: the M_20 t=13 proof takes 3,708 nodes
        statuses = set()
        for n in range(2, 11):
            statuses |= self.assert_warm_same_as_cold(moebius_ladder(n).graph, 4_000)
        assert statuses == {FEASIBLE, INFEASIBLE}

    def test_grids_and_petersen(self):
        statuses = self.assert_warm_same_as_cold(PETERSEN, 1_000)
        for a, b in [(3, 4), (3, 5), (4, 4), (4, 5), (5, 5)]:
            statuses |= self.assert_warm_same_as_cold(Graph(*grid(a, b)), 500)
        assert statuses == {FEASIBLE, INFEASIBLE, INCONCLUSIVE}

    def test_random_connected_graphs(self):
        statuses = set()
        rng = random.Random(24)
        for _ in range(50):
            statuses |= self.assert_warm_same_as_cold(random_connected(rng, 12), 1_000)
        assert statuses == {FEASIBLE, INFEASIBLE, INCONCLUSIVE}

    def test_memo_stays_out_of_equality_and_hashing(self):
        swept = moebius_ladder(6).graph
        interval_spectrum(swept)
        fresh = Graph(swept.vertex_count, swept.edges)
        assert swept._search_memo and not fresh._search_memo
        assert swept == fresh and hash(swept) == hash(fresh)
        assert repr(swept) == repr(fresh)
        twin = Graph(fresh.vertex_count, fresh.edges)
        assert fresh._search_memo is not twin._search_memo
        search_interval_coloring(fresh, 9)
        assert fresh._search_memo and not twin._search_memo


class TestDeepSearches:
    """Searches 842 to 2,400 edges deep; their witnesses are pinned as
    first found, before the search's per-node cost was made independent of
    the depth, and their node counts as distance-bounded hosting left them."""

    @pytest.mark.parametrize(
        "graph, t, nodes, digest",
        [
            # (vertices and edges, t, nodes, sha256 of the witness's sorted JSON)
            (moebius(800), 6, 2_415,
             "92eda98df8dec6126ed9f62d39e6f653e8a283c6e95cffe86408622fc2874339"),
            (path(1500), 6, 1_504,
             "8254b2a9b022488f4983b6cf21565f4695b838dcd5d1cd575030a3cc607f5b40"),
            (cycle(842), 3, 843,
             "204b9226c41a26a29a5f891080bc72a4d86890e972f5537c57d7f15c222d0694"),
            (grid(20, 30), 6, 1_274,
             "4cc227380dcbe22b642fbc9b4565732e4c06fb570dbff1b1c5bc0ba84ea9fc3d"),
        ],
        ids=["M1600", "P1500", "C842", "grid20x30"],
    )
    def test_pinned_and_interval(self, graph, t, nodes, digest):
        # the budget turns a search that stops pruning into a failure
        out = search_interval_coloring(Graph(*graph), t, node_limit=10 * nodes)
        assert (out.status, out.nodes) == (FEASIBLE, nodes)
        assert hashlib.sha256(as_bytes(out.coloring)).hexdigest() == digest
        assert naive_interval_verdict(*graph, dict(out.coloring.assignment), t)


class TestRootBans:
    """Reversal and symmetry only drop assignments that no interval
    coloring has, so they may cut proofs but never move a witness."""

    # sha256 over the witnesses of the ladder spectra M_4..M_20, as the
    # search found them before it used reversal or symmetry
    LADDER_WITNESSES = "d47e567c10b31e62c8b3688bf12314ab04d252f6875fccd12fc24635fa247c77"

    def test_ladder_witnesses_pinned(self):
        digest = hashlib.sha256()
        for n in range(2, 11):
            report = interval_spectrum(moebius_ladder(n).graph)
            for t, c in sorted(report.witnesses.items()):
                digest.update(json.dumps([n, t, c.to_json_dict()], sort_keys=True).encode())
        assert digest.hexdigest() == self.LADDER_WITNESSES

    def test_reversal_limits_edge_0_to_the_lower_half(self, monkeypatch):
        g = moebius_ladder(4).graph
        plain = search_interval_coloring(g, 7)
        assert (plain.status, plain.nodes) == (INFEASIBLE, 43)
        offered = []
        depth_first = intervalcolor.solver._depth_first

        def recording(m, candidates, place, undo, limit):
            def watched(i, c):
                if i == 0:
                    offered.append(c)
                return place(i, c)

            return depth_first(m, candidates, watched, undo, limit)

        monkeypatch.setattr(intervalcolor.solver, "_depth_first", recording)
        out = search_interval_coloring(g, 7)
        assert (out.status, out.nodes) == (plain.status, plain.nodes)
        assert offered == [1, 2, 3, 4]

    def test_bans_cut_the_m12_proof(self):
        out = search_interval_coloring(moebius_ladder(6).graph, 9)
        # 1,569 without reversal and bans
        assert (out.status, out.nodes) == (INFEASIBLE, 275)

    def test_no_orbit_until_a_color_on_edge_0_fails(self, monkeypatch):
        monkeypatch.setattr(intervalcolor.solver, "_edge_orbit", None)  # any use fails
        grid = nx.convert_node_labels_to_integers(nx.grid_2d_graph(15, 30), 1)
        out = search_interval_coloring(Graph(450, list(grid.edges())), 6)
        assert out.status == FEASIBLE
        # nor after the last color edge 0 may take: t = 2 offers only 1
        assert search_interval_coloring(K2, 2).status == INFEASIBLE
        assert search_interval_coloring(Graph(*cycle(5)), 2).status == INFEASIBLE

    def test_orbit_computed_once_per_sweep(self, monkeypatch):
        searched = []
        edge_orbit = intervalcolor._orbits.edge_orbit

        def counting(g, edge):
            searched.append(edge)
            return edge_orbit(g, edge)

        monkeypatch.setattr(intervalcolor._orbits, "edge_orbit", counting)
        interval_spectrum(moebius_ladder(6).graph)
        assert searched == [(1, 2)]


class TestChromaticIndex:
    def test_ladders_are_class_one(self):
        for n in range(2, 9):
            assert chromatic_index_is_delta(moebius_ladder(n).graph)

    def test_petersen_is_not(self):
        assert not chromatic_index_is_delta(PETERSEN)
        assert chromatic_index(PETERSEN) == 4

    def test_odd_cycle_is_not(self):
        assert not chromatic_index_is_delta(Graph(*cycle(5)))
        assert chromatic_index(Graph(*cycle(5))) == 3

    def test_path_and_even_cycle(self):
        assert chromatic_index(Graph(*path(4))) == 2
        assert chromatic_index(Graph(*cycle(6))) == 2

    def test_edgeless(self):
        assert chromatic_index(Graph(1, [])) == 0
        assert chromatic_index_is_delta(Graph(1, []))

    def test_budget_exhaustion_raises(self):
        with pytest.raises(SearchLimitError):
            chromatic_index_is_delta(PETERSEN, node_limit=3)

    @pytest.mark.parametrize(
        "graph, nodes, verdict",
        [
            (petersen(), 58, False),
            (moebius(4), 15, True),
            (moebius(800), 2_403, True),
            (grid(20, 30), 1_150, True),
        ],
        ids=["petersen", "M8", "M1600", "grid20x30"],
    )
    def test_node_counts_pinned(self, graph, nodes, verdict):
        # decided with exactly that many nodes and not one fewer
        g = Graph(*graph)
        assert chromatic_index_is_delta(g, node_limit=nodes) is verdict
        with pytest.raises(SearchLimitError):
            chromatic_index_is_delta(g, node_limit=nodes - 1)

    def test_matches_plain_backtracking(self):
        for nv, edges in small_connected_graphs():
            colors = delta_edge_coloring(nv, edges)
            if colors is not None:
                delta = Graph(nv, edges).max_degree()
                assert set(colors) == set(edges)
                assert set(colors.values()) <= set(range(1, delta + 1))
                for v in range(1, nv + 1):
                    at_v = [c for e, c in colors.items() if v in e]
                    assert len(at_v) == len(set(at_v)), (nv, edges)
            assert chromatic_index_is_delta(Graph(nv, edges)) == (colors is not None), (nv, edges)


class TestIntervalColorable:
    def test_ladders(self):
        assert is_interval_colorable(moebius_ladder(5).graph)

    def test_petersen(self):
        assert not is_interval_colorable(PETERSEN)

    def test_single_edge(self):
        assert is_interval_colorable(K2)

    def test_edgeless(self):
        assert not is_interval_colorable(Graph(1, []))

    def test_non_regular_positive(self):
        assert is_interval_colorable(Graph(*star(3)))
        assert is_interval_colorable(Graph(*path(5)))

    def test_odd_cycles_negative(self):
        assert not is_interval_colorable(Graph(*cycle(3)))
        assert not is_interval_colorable(Graph(*cycle(7)))

    @pytest.mark.parametrize(
        "nv, edges",
        [
            (5, [(1, 4), (1, 5), (2, 4), (2, 5), (3, 4), (3, 5), (4, 5)]),  # K_{1,1,3}
            (5, [(1, 3), (1, 4), (1, 5), (2, 3), (2, 4), (2, 5), (3, 5)]),
        ],
        ids=["K1,1,3", "K2,3+e"],
    )
    def test_non_regular_negative(self, nv, edges):
        # every t is searched and none is feasible: the last answer, a no
        g = Graph(nv, edges)
        assert not g.is_regular()
        assert not is_interval_colorable(g)
        for t in range(1, len(edges) + 1):
            assert not brute_force_feasible(nv, edges, t), t

    def test_stops_at_first_feasible_t(self, monkeypatch):
        searched = []
        search = intervalcolor.solver.search_interval_coloring

        def counting(g, t, **kw):
            searched.append(t)
            return search(g, t, **kw)

        monkeypatch.setattr(intervalcolor.solver, "search_interval_coloring", counting)
        # the 4x4 grid: max degree 4, bound 6 * 3 + 1 = 19, feasible at t = 4
        grid = nx.convert_node_labels_to_integers(nx.grid_2d_graph(4, 4), 1)
        assert is_interval_colorable(Graph(16, list(grid.edges())))
        assert searched == [4]

    def test_budget_exhaustion_raises_for_non_regular(self):
        with pytest.raises(SearchLimitError):
            is_interval_colorable(Graph(*star(3)), node_limit=1)


class TestDeterminism:
    def test_repeated_runs_byte_identical(self):
        g = moebius_ladder(3).graph
        first = search_interval_coloring(g, 4)
        second = search_interval_coloring(g, 4)
        assert first.status == second.status == FEASIBLE
        assert as_bytes(first.coloring) == as_bytes(second.coloring)

    # sha256 over the expected table below, as the search found it once
    # hosting was bounded by distance (only node counts moved then)
    CARRY_OVER_TABLE = "5a97dd4a0b62f80da11a0d175bdf1787bf13796b74e91b158ff2d5543d770d43"

    def test_no_state_carries_between_searches(self):
        # each graph's own ascending run: the whole sweep of M_12 (bound 9)
        # and P_7 (bound 7), and t = 4..9 of the 5x6 grid, whose sweep to
        # its bound of 28 takes minutes; each t of 3..9 outside that run
        # (below the max degree or above the bound) by a lone search; then
        # descending t with three graphs of different degrees in turn. The
        # table is pinned too: state shared by every search could give
        # both runs the same wrong answers.
        grid56 = Graph(*grid(5, 6))
        graphs = [moebius_ladder(6).graph, grid56, Graph(*path(7))]
        expected = {}
        digest = hashlib.sha256()
        for k, g in enumerate(graphs):
            if g is grid56:
                run = [search_interval_coloring(g, t) for t in range(4, 10)]
            else:
                run = interval_spectrum(g).entries
            swept = {e.t: outcome(e) for e in run}
            for t in range(3, 10):
                expected[k, t] = swept.get(t) or outcome(search_interval_coloring(g, t))
                digest.update(repr((k, t, expected[k, t])).encode())
        assert digest.hexdigest() == self.CARRY_OVER_TABLE
        for t in range(9, 2, -1):
            for k, g in enumerate(graphs):
                assert outcome(search_interval_coloring(g, t)) == expected[k, t], (g, t)

    def test_same_witness_and_verdicts_as_plain_enumeration(self):
        # the search against plain enumeration, and that enumeration
        # against brute force and the definition
        for nv, edges in small_connected_graphs(max_vertices=5, max_edges=7)[:20]:
            g = Graph(nv, edges)
            for t in range(1, 5):
                fast = search_interval_coloring(g, t)
                status, colors = first_interval_coloring(nv, edges, t)
                assert fast.status == status, (nv, edges, t)
                assert (status == FEASIBLE) == brute_force_feasible(nv, edges, t)
                if status == FEASIBLE:
                    assert naive_interval_verdict(nv, edges, colors, t)
                    assert dict(fast.coloring.assignment) == colors


class TestSoundness:
    @given(connected_graphs(max_vertices=6), st.integers(1, 6))
    def test_witnesses_satisfy_definition(self, g, t):
        # these graphs need at most about 1,100 nodes; the budget turns a
        # search that stops pruning into a failure (inconclusive), not a hang
        out = search_interval_coloring(g, t, node_limit=50_000)
        if out.status == FEASIBLE:
            colors = dict(out.coloring.assignment)
            assert naive_interval_verdict(g.vertex_count, list(g.edges), colors, t)
        else:
            assert out.status == INFEASIBLE
            assert out.coloring is None


class TestBruteForceAgreement:
    def test_ten_edge_graph(self):
        # wheel on 6 vertices: hub 1, rim 2..6
        nv, edges = 6, [(1, k) for k in range(2, 7)] + [
            (2, 3), (3, 4), (4, 5), (5, 6), (2, 6),
        ]
        g = Graph(nv, edges)
        for t in range(1, 5):
            mine = search_interval_coloring(g, t).status == FEASIBLE
            assert mine == brute_force_feasible(nv, edges, t), t

    def test_twelve_edge_graph(self):
        nv, edges = 8, [tuple(e) for e in moebius_ladder(4).graph.edges]
        for t in (3, 4):
            mine = search_interval_coloring(Graph(nv, edges), t).status == FEASIBLE
            assert mine == brute_force_feasible(nv, edges, t), t

    def test_oracle_refuses_what_it_cannot_hold(self):
        # 4^13 assignments, one byte each, are over the oracle's cap
        with pytest.raises(ValueError, match="exceed"):
            brute_force_feasible(*path(14), 4)
