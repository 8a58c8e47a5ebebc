import hashlib
import random
import re

import networkx as nx
import pytest
from hypothesis import given, strategies as st
from networkx.algorithms.isomorphism import GraphMatcher

import intervalcolor._orbits
import intervalcolor.graph
from intervalcolor import Graph, bfs_edge_order, moebius_ladder, normalize_edge
from intervalcolor.solver import _edge_orbit
from oracles import (
    complete,
    cycle,
    find_odd_cycle,
    floyd_warshall_diameter,
    moebius,
    path,
    small_connected_graphs,
    star,
)
from strategies import connected_graphs


@pytest.fixture
def bfs_sources(monkeypatch):
    """Source of every Graph._bfs call made while the test runs."""
    sources = []
    bfs = Graph._bfs

    def counted(self, source):
        sources.append(source)
        return bfs(self, source)

    monkeypatch.setattr(Graph, "_bfs", counted)
    return sources


def test_normalize_edge_orders_endpoints():
    assert normalize_edge(3, 1) == (1, 3)
    assert normalize_edge(1, 3) == (1, 3)


class TestConstruction:
    def test_edges_are_normalized_and_sorted(self):
        g = Graph(3, [(3, 2), (2, 1), (1, 3)])
        assert g.edges == ((1, 2), (1, 3), (2, 3))
        assert g.edge_count == 3

    def test_rejects_nonpositive_vertex_count(self):
        for bad in (0, -1, True, 2.0, "4"):
            with pytest.raises(ValueError, match="^vertex count must be a positive integer"):
                Graph(bad, [])

    def test_rejects_self_loop(self):
        with pytest.raises(ValueError, match=r"^self-loop at vertex 1 is not allowed$"):
            Graph(2, [(1, 2), (1, 1)])

    def test_rejects_duplicate_edge_either_order(self):
        with pytest.raises(ValueError, match=r"^duplicate edge \(1, 2\)$"):
            Graph(2, [(1, 2), (2, 1)])
        with pytest.raises(ValueError, match=r"^duplicate edge \(1, 2\)$"):
            Graph(2, [(1, 2), (1, 2)])
        # the first repeat in input order is named, not the first in sorted order
        with pytest.raises(ValueError, match=r"^duplicate edge \(3, 4\)$"):
            Graph(4, [(3, 4), (2, 3), (1, 2), (4, 3), (2, 1)])

    def test_rejects_out_of_range_vertex(self):
        # the first bad endpoint of the first bad pair, in input order
        for edges, bad in (
            ([(1, 3)], 3), ([(0, 1)], 0), ([(1, 2), (5, 0)], 5), ([(0, 5)], 0), ([(2, -1)], -1),
        ):
            with pytest.raises(ValueError, match=rf"^vertex {bad} is outside 1\.\.2$"):
                Graph(2, edges)

    @pytest.mark.parametrize(
        "item, why",
        [
            (5, "is not a pair of vertex ids"),
            (None, "is not a pair of vertex ids"),
            ((1,), "is not a pair of vertex ids"),
            ((1, 2, 3), "is not a pair of vertex ids"),
            ((True, 2), "has non-integer endpoints"),
            ([1, False], "has non-integer endpoints"),
            ((1.0, 2), "has non-integer endpoints"),
        ],
    )
    def test_rejects_item_that_is_not_an_integer_pair(self, item, why):
        with pytest.raises(ValueError, match=rf"^edge {re.escape(repr(item))} {why}$"):
            Graph(2, [(1, 2), item])

    def test_checks_each_item_in_order(self):
        # pair, int type, range, self-loop within an item; items in input order
        for edges, message in (
            ([(0, 0)], "vertex 0 is outside"),
            ([(True, 9)], "has non-integer endpoints"),
            ([("a", 0, 0)], "is not a pair"),
            ([(1, 2), (2, 2), (0, 1), (1, "x"), 7], "self-loop at vertex 2"),
            ([(9, 1), (2, 2)], "vertex 9 is outside"),
        ):
            with pytest.raises(ValueError, match=message):
                Graph(3, edges)

    def test_rejects_non_integer_endpoints(self):
        with pytest.raises(ValueError, match="has non-integer endpoints"):
            Graph(2, [(1, "2")])

    def test_rejects_disconnected(self):
        with pytest.raises(ValueError, match="^graph is not connected$"):
            Graph(4, [(1, 2), (3, 4)])
        with pytest.raises(ValueError, match="^graph is not connected$"):
            Graph(4, [(1, 2), (1, 3), (2, 3)])  # enough edges, vertex 4 isolated
        with pytest.raises(ValueError, match="^graph is not connected$"):
            Graph(2, [])  # isolated vertex 2

    def test_too_few_edges_rejected_before_allocation(self):
        # 10**10 vertices would need ~80 GB of BFS levels; refused at once
        with pytest.raises(ValueError, match="^graph is not connected$"):
            Graph(10**10, [])
        with pytest.raises(ValueError, match="^graph is not connected$"):
            Graph(10**10, [(1, 2), (2, 3)])

    def test_single_vertex_is_fine(self):
        g = Graph(1, [])
        assert g.edge_count == 0
        assert g.diameter() == 0


class TestDegrees:
    def test_moebius_ladders_are_cubic(self):
        assert moebius_ladder(2).graph.degree(1) == 3
        assert moebius_ladder(5).graph.degree(7) == 3

    def test_path_interior_vertex(self):
        g = Graph(*path(3))
        assert g.degree(2) == 2
        assert g.degree(1) == 1

    def test_degree_rejects_bad_vertex(self):
        g = Graph(*path(3))
        with pytest.raises(ValueError):
            g.degree(0)
        with pytest.raises(ValueError):
            g.degree(4)
        with pytest.raises(ValueError):
            g.neighbors(True)  # bool is not a vertex id, even as 1

    def test_max_degree(self):
        assert moebius_ladder(3).graph.max_degree() == 3
        assert Graph(*star(4)).max_degree() == 4
        assert Graph(2, [(1, 2)]).max_degree() == 1

    def test_is_regular(self):
        assert moebius_ladder(4).graph.is_regular()
        assert not Graph(*path(3)).is_regular()
        assert Graph(*cycle(5)).is_regular()

    def test_neighbors_sorted(self):
        g = moebius_ladder(2).graph
        assert g.neighbors(1) == (2, 3, 4)

    @given(connected_graphs(max_vertices=9), st.randoms(use_true_random=False))
    def test_neighbors_ascending_whatever_the_input_order(self, g, rng):
        # adjacency lists are built unsorted from the sorted edges
        edges = [(v, u) if rng.random() < 0.5 else (u, v) for u, v in g.edges]
        rng.shuffle(edges)
        for built in (Graph(g.vertex_count, edges), Graph(g.vertex_count, reversed(g.edges))):
            assert built == g
            for v in range(1, g.vertex_count + 1):
                expect = sorted({a + b - v for a, b in g.edges if v in (a, b)})
                assert built._neighbors[v] == tuple(expect) == built.neighbors(v)


class TestDistances:
    def test_rung_endpoints_are_adjacent(self):
        assert moebius_ladder(3).graph.distance(1, 4) == 1

    def test_distance_to_self(self):
        assert moebius_ladder(3).graph.distance(5, 5) == 0

    def test_antipodal_distance_in_m8(self):
        # n=4: vertex n + ceil(n/2) = 6 sits at the far end from vertex 1
        assert moebius_ladder(4).graph.distance(1, 6) == 2

    def test_diameter_small_ladders(self):
        assert moebius_ladder(2).graph.diameter() == 1
        assert moebius_ladder(3).graph.diameter() == 2

    def test_diameter_single_edge(self):
        assert Graph(2, [(1, 2)]).diameter() == 1

    def test_diameter_path(self):
        assert Graph(*path(5)).diameter() == 4

    def test_diameter_computed_once(self, bfs_sources):
        g = moebius_ladder(5).graph
        assert g.diameter() == 3
        assert 0 < len(bfs_sources) <= g.vertex_count + 4
        bfs_sources.clear()
        assert g.diameter() == 3
        assert bfs_sources == []

    def test_path_diameter_in_few_bfs_runs(self, bfs_sources):
        g = Graph(*path(600))
        bfs_sources.clear()
        assert g.diameter() == 599
        assert len(bfs_sources) <= 5

    def test_long_path_diameter_in_few_bfs_runs(self, bfs_sources):
        # vertex 1 at an end, then in the middle; all-sources BFS would
        # make 20,000 runs of 20,000 steps each
        n = 20000
        mid = n // 2
        relabel = {i: (i - mid) % n + 1 for i in range(1, n + 1)}
        for g in (Graph(*path(n)), Graph(n, [(relabel[u], relabel[v]) for u, v in path(n)[1]])):
            bfs_sources.clear()
            assert g.diameter() == n - 1
            assert len(bfs_sources) <= 5

    def test_constructor_bfs_is_reused(self, bfs_sources):
        g = moebius_ladder(6).graph
        assert bfs_sources == [1]
        g.is_bipartite()
        bfs_edge_order(g)
        assert bfs_sources == [1]
        # the kept BFS is not part of the value
        assert g == Graph(g.vertex_count, reversed(g.edges))
        assert hash(g) == hash(Graph(g.vertex_count, reversed(g.edges)))
        assert repr(g) == f"Graph(vertex_count=12, edges={g.edges!r})"


def from_networkx(G):
    G = nx.convert_node_labels_to_integers(G, 1)
    return Graph(G.number_of_nodes(), list(G.edges()))


def grid(rows, cols):
    return from_networkx(nx.grid_2d_graph(rows, cols))


def shuffled(rng, n, edges):
    """The graph with its vertex labels permuted at random, so that the
    BFS from vertex 1 starts anywhere."""
    labels = list(range(1, n + 1))
    rng.shuffle(labels)
    return Graph(n, [(labels[u - 1], labels[v - 1]) for u, v in edges])


def random_tree(rng, n, reach):
    """Each vertex joins one of the reach vertices before it: deep trees
    for a small reach, bushy ones for a large one."""
    return [(rng.randint(max(1, v - reach), v - 1), v) for v in range(2, n + 1)]


def caterpillar(rng, n):
    spine = rng.randint(2, n - 1)
    legs = [(rng.randint(1, spine), v) for v in range(spine + 1, n + 1)]
    return path(spine)[1] + legs


def unicyclic(rng, n):
    k = rng.randint(3, n)
    return cycle(k)[1] + [(rng.randint(1, v - 1), v) for v in range(k + 1, n + 1)]


def connected(rng, n, extra):
    """A random tree plus extra random edges."""
    edges = set(random_tree(rng, n, rng.choice((3, n))))
    while len(edges) < n - 1 + extra:
        u, v = sorted(rng.sample(range(1, n + 1), 2))
        edges.add((u, v))
    return sorted(edges)


def with_pendant_path(rng, n, edges, length):
    """Hang a path of length new vertices off a random vertex."""
    tail = [(rng.randint(1, n), n + 1)] + [(v, v + 1) for v in range(n + 1, n + length)]
    return n + length, edges + tail


class TestDiameterOracle:
    """Graph.diameter against networkx's all-sources BFS maximum, on graphs
    large enough for the 2-sweep midpoint and the stopping rule to matter."""

    def check(self, g, bfs_sources):
        bfs_sources.clear()
        d = g.diameter()
        assert len(bfs_sources) <= g.vertex_count + 4
        G = nx.Graph(list(g.edges))
        G.add_nodes_from(range(1, g.vertex_count + 1))
        assert d == nx.diameter(G), g

    def test_atlas_graphs_to_7_vertices(self, bfs_sources):
        graphs = small_connected_graphs(max_vertices=7, max_edges=21)
        assert len(graphs) == 996
        for nv, edges in graphs:
            self.check(Graph(nv, edges), bfs_sources)

    def test_seeded_sparse_graphs(self, bfs_sources):
        rng = random.Random(2013)
        builders = (
            lambda n: random_tree(rng, n, 3),
            lambda n: random_tree(rng, n, n),
            lambda n: caterpillar(rng, n),
            lambda n: unicyclic(rng, n),
            lambda n: connected(rng, n, n // 10),
        )
        for _ in range(8):
            for build in builders:
                n = rng.randint(50, 200)
                edges = build(n)
                self.check(shuffled(rng, n, edges), bfs_sources)
                length = rng.randint(1, 100)
                self.check(shuffled(rng, *with_pendant_path(rng, n, edges, length)), bfs_sources)

    def test_two_sweep_short_of_the_diameter(self, bfs_sources):
        # the 2-sweep finds d(a, b) = 3 with ecc(u) = 2; the pair 5, 6 at
        # distance 4 lies on u's last level (2 + 2 > 3), so it must stay
        # open until the BFS from one of its ends finds 4
        g = Graph(9, [(1, 4), (1, 6), (2, 4), (2, 5), (2, 8), (2, 9), (3, 4),
                      (3, 9), (4, 7), (4, 9), (6, 7), (7, 8), (8, 9)])
        self.check(g, bfs_sources)
        assert g.diameter() == 4

    def test_seeded_small_dense_graphs(self, bfs_sources):
        rng = random.Random(514)
        for _ in range(1000):
            n = rng.randint(8, 16)
            self.check(shuffled(rng, n, connected(rng, n, rng.randint(0, n))), bfs_sources)

    def test_named_families(self, bfs_sources):
        for n in range(1, 65):
            self.check(Graph(*complete(n)), bfs_sources)
            self.check(Graph(*star(n)), bfs_sources)
        for k in range(3, 129):
            self.check(Graph(*cycle(k)), bfs_sources)
        for n in range(2, 65):
            self.check(moebius_ladder(n).graph, bfs_sources)
        for rows, cols in ((1, 50), (2, 2), (2, 33), (3, 3), (4, 7), (7, 4), (6, 9), (10, 10)):
            self.check(grid(rows, cols), bfs_sources)

    def test_few_bfs_runs_where_one_root_settles_little(self, bfs_sources):
        # iFUB took about half the vertices here (301 runs on C_600, 302 on
        # M_600, 173 on the 19x31 grid). All but the grid are
        # vertex-transitive, so networkx's eccentricity of one vertex is
        # their diameter; the grid's is networkx's all-sources maximum.
        rng = random.Random(1994)
        for g, transitive in (
            (Graph(*cycle(600)), True),
            (moebius_ladder(300).graph, True),
            (moebius_ladder(301).graph, True),
            (grid(19, 31), False),
            (from_networkx(nx.grid_2d_graph(20, 30, periodic=True)), True),
            (from_networkx(nx.hypercube_graph(9)), True),
        ):
            G = nx.Graph(list(g.edges))
            d = nx.eccentricity(G, 1) if transitive else nx.diameter(G)
            for h in (g, shuffled(rng, g.vertex_count, list(g.edges))):
                bfs_sources.clear()
                assert h.diameter() == d
                assert len(bfs_sources) <= 12, h.vertex_count

    @pytest.mark.parametrize("bits", [1, 1000])
    def test_coarse_suffix_sets_stay_exact(self, bfs_sources, monkeypatch, bits):
        # with room for few levels per root a threshold rounds down to a
        # stored level: more vertices stay open, the answer stays exact
        monkeypatch.setattr(intervalcolor.graph, "_SUFFIX_BITS", bits)
        rng = random.Random(2013)
        for _ in range(100):
            n = rng.randint(8, 30)
            self.check(shuffled(rng, n, connected(rng, n, rng.randint(0, n))), bfs_sources)
        for n in range(2, 20):
            self.check(Graph(*cycle(n + 1)), bfs_sources)
            self.check(moebius_ladder(n).graph, bfs_sources)
        self.check(grid(6, 9), bfs_sources)


class TestSuffixSets:
    @pytest.mark.parametrize("bits", [1, 100, 1000, intervalcolor.graph._SUFFIX_BITS])
    def test_entry_j_holds_levels_from_j_times_step(self, monkeypatch, bits):
        monkeypatch.setattr(intervalcolor.graph, "_SUFFIX_BITS", bits)
        g = shuffled(random.Random(9), 60, path(60)[1])
        for source in (1, 30):
            order, levels = g._bfs(source)
            sets, step = g._suffix_sets(order, levels)
            # at most bits for every entry but one
            assert len(sets) * (g.vertex_count + 1) <= bits + g.vertex_count + 1
            assert sets == [sum(1 << y for y in order if levels[y] >= j * step)
                            for j in range(levels[order[-1]] // step + 1)]


class TestBipartiteness:
    def test_examples(self):
        assert moebius_ladder(3).graph.is_bipartite()
        assert not moebius_ladder(2).graph.is_bipartite()
        assert Graph(*cycle(4)).is_bipartite()
        assert not Graph(*cycle(5)).is_bipartite()


class TestJson:
    def test_documented_format_parses(self):
        doc = {"vertices": 4, "edges": [[1, 2], [2, 3], [3, 4], [4, 1], [1, 3], [2, 4]]}
        g = Graph.from_json_dict(doc)
        assert g.vertex_count == 4
        assert g.edges == ((1, 2), (1, 3), (1, 4), (2, 3), (2, 4), (3, 4))

    def test_unknown_keys_ignored(self):
        doc = {"vertices": 2, "edges": [[1, 2]], "family": "moebius", "n": 1}
        assert Graph.from_json_dict(doc).edge_count == 1

    def test_missing_fields_rejected(self):
        with pytest.raises(ValueError):
            Graph.from_json_dict({"edges": []})
        with pytest.raises(ValueError):
            Graph.from_json_dict({"vertices": 2})

    def test_wrong_field_types_rejected(self):
        # the vertex count is the constructor's to judge
        for bad in ("4", True):
            with pytest.raises(ValueError, match="^vertex count must be a positive integer"):
                Graph.from_json_dict({"vertices": bad, "edges": []})
        with pytest.raises(ValueError):
            Graph.from_json_dict({"vertices": 2, "edges": "nope"})

    @given(connected_graphs())
    def test_round_trip(self, g):
        doc = g.to_json_dict()
        again = Graph.from_json_dict(doc)
        assert again.vertex_count == g.vertex_count
        assert again.edges == g.edges
        assert again.to_json_dict() == doc


class TestStructuralProperties:
    @given(connected_graphs())
    def test_degree_sum_is_twice_edge_count(self, g):
        total = sum(g.degree(v) for v in range(1, g.vertex_count + 1))
        assert total == 2 * g.edge_count

    @given(connected_graphs(max_vertices=6), st.data())
    def test_triangle_inequality(self, g, data):
        pick = st.integers(1, g.vertex_count)
        u, v, w = data.draw(st.tuples(pick, pick, pick))
        assert g.distance(u, w) <= g.distance(u, v) + g.distance(v, w)

    @given(connected_graphs())
    def test_distances_match_networkx(self, g):
        G = nx.Graph(list(g.edges))
        G.add_nodes_from(range(1, g.vertex_count + 1))
        for u in range(1, g.vertex_count + 1):
            for v in range(1, g.vertex_count + 1):
                assert g.distance(u, v) == nx.shortest_path_length(G, u, v)

    @given(connected_graphs())
    def test_diameter_matches_independent_oracle(self, g):
        assert g.diameter() == floyd_warshall_diameter(g.vertex_count, list(g.edges))

    @given(connected_graphs())
    def test_bipartite_iff_no_odd_cycle(self, g):
        found = find_odd_cycle(g.vertex_count, list(g.edges))
        assert g.is_bipartite() == (found is None)
        if found is not None:
            assert len(found) % 2 == 1
            edge_set = set(g.edges)
            ring = found + [found[0]]
            for a, b in zip(ring, ring[1:]):
                assert normalize_edge(a, b) in edge_set


def networkx_edge_orbits(g):
    """Each edge's orbit, from every automorphism networkx enumerates."""
    G = nx.Graph()
    G.add_nodes_from(range(1, g.vertex_count + 1))
    G.add_edges_from(g.edges)
    orbits = {e: {e} for e in g.edges}
    for iso in GraphMatcher(G, G).isomorphisms_iter():
        for a, b in g.edges:
            orbits[a, b].add(normalize_edge(iso[a], iso[b]))
    return orbits


class TestEdgeOrbits:
    """solver._edge_orbit against the automorphisms networkx enumerates."""

    def assert_exact(self, g):
        expected = networkx_edge_orbits(g)
        for e in g.edges:
            assert _edge_orbit(g, e) == expected[e], (g, e)
        return {frozenset(o) for o in expected.values()}

    def test_atlas_graphs_to_7_vertices(self):
        graphs = small_connected_graphs(max_vertices=7, max_edges=21)
        assert len(graphs) == 996
        for nv, edges in graphs:
            self.assert_exact(Graph(nv, edges))

    def test_moebius_ladders(self):
        for n in range(2, 41):
            g = moebius_ladder(n).graph
            if n <= 10:
                self.assert_exact(g)
            orbits = {_edge_orbit(g, e) for e in g.edges}
            if n <= 3:  # K_4 and K_{3,3} are edge-transitive
                assert len(orbits) == 1
            else:
                # the definition lists the rim first and the n rungs last
                edges = moebius(n)[1]
                assert orbits == {frozenset(edges[:-n]), frozenset(edges[-n:])}

    def test_grid(self):
        orbits = self.assert_exact(grid(6, 7))
        assert len(orbits) == 21

    @pytest.mark.parametrize(
        "graph",
        [
            nx.petersen_graph(),
            nx.heawood_graph(),
            nx.dodecahedral_graph(),
            nx.circular_ladder_graph(8),  # C_8 x K_2
        ],
        ids=["petersen", "heawood", "dodecahedron", "prism8"],
    )
    def test_named_graphs(self, graph):
        G = nx.convert_node_labels_to_integers(graph, 1)
        self.assert_exact(Graph(G.number_of_nodes(), list(G.edges())))

    @pytest.mark.parametrize(
        "g",
        [
            Graph(*star(30)),
            # the 6-cube: vertices 1..64 are 1 + a bit string, edges flip one bit
            Graph(64, [(x + 1, (x | 1 << b) + 1) for x in range(64) for b in range(6) if not x >> b & 1]),
        ],
        ids=["K1,30", "Q6"],
    )
    def test_edge_transitive_graphs_have_one_orbit(self, g):
        for e in g.edges:
            assert _edge_orbit(g, e) == frozenset(g.edges), e

    @given(connected_graphs(max_vertices=9))
    def test_random_graphs(self, g):
        self.assert_exact(g)

    def test_budget_fallback_is_a_subset_holding_the_edge(self, monkeypatch):
        cases = [moebius_ladder(n).graph for n in (2, 3, 8)] + [grid(6, 7)]
        for rounds in (0, 1, 3, 10, 30):
            monkeypatch.setattr(intervalcolor._orbits, "ROUNDS", rounds)
            for g in cases:
                expected = networkx_edge_orbits(g)
                fresh = Graph(g.vertex_count, g.edges)  # orbits are cached per graph
                for e in fresh.edges:
                    orbit = _edge_orbit(fresh, e)
                    assert e in orbit
                    assert orbit <= expected[e]
                    if rounds == 0:
                        assert orbit == {e}

    def test_budgeted_orbits_are_pinned(self, monkeypatch):
        # the members each budget reaches depend on how the extension
        # search spends its work, which the subset test above cannot see
        named = [nx.petersen_graph(), nx.LCF_graph(16, [7, -7], 8)]
        graphs = [moebius_ladder(10).graph, grid(6, 7)] + [
            Graph(G.number_of_nodes(), list(nx.convert_node_labels_to_integers(G, 1).edges()))
            for G in named
        ]
        digest = hashlib.sha256()
        for rounds in (1, 2, 4, 256):
            monkeypatch.setattr(intervalcolor._orbits, "ROUNDS", rounds)
            for g in graphs:
                for e in g.edges:
                    orbit = sorted(intervalcolor._orbits.edge_orbit(g, e))
                    digest.update(f"{rounds} {e} {orbit}\n".encode())
        assert digest.hexdigest() == (
            "109dd0619547d3f8565c7dc0e03eb0613eb6beb942aec52c21dd000cf5ff7fd6"
        )

    def test_computed_once_per_edge(self, monkeypatch):
        g = moebius_ladder(6).graph
        first = _edge_orbit(g, (1, 2))
        monkeypatch.setattr(intervalcolor._orbits, "edge_orbit", None)  # any recomputation fails
        assert _edge_orbit(g, (1, 2)) is first
