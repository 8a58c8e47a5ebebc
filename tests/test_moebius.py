import pytest

from intervalcolor import Graph, closed_form_diameter, moebius_ladder
from oracles import moebius


def test_m4_is_complete_graph_on_four_vertices():
    g = moebius_ladder(2).graph
    assert g.vertex_count == 4
    assert g.edges == ((1, 2), (1, 3), (1, 4), (2, 3), (2, 4), (3, 4))


def test_m6_shape():
    ladder = moebius_ladder(3)
    assert ladder.graph.vertex_count == 6
    assert ladder.graph.edge_count == 9
    assert {(1, 4), (2, 5), (3, 6)} <= set(ladder.graph.edges)


def test_rejects_small_n():
    for bad in (1, 0, -5):
        with pytest.raises(ValueError):
            moebius_ladder(bad)
        with pytest.raises(ValueError):
            closed_form_diameter(bad)


def test_rim_and_rungs_partition_edge_set():
    # Graph rejects a repeated edge, so the definition's rim and rungs
    # are disjoint, and equality makes them the ladder's whole edge set
    for n in range(2, 12):
        assert moebius_ladder(n).graph == Graph(*moebius(n))


def test_always_cubic_and_sized():
    for n in range(2, 12):
        g = moebius_ladder(n).graph
        assert g.vertex_count == 2 * n
        assert g.edge_count == 3 * n
        assert g.is_regular()
        assert g.max_degree() == 3


def test_closed_form_diameter_values():
    assert closed_form_diameter(2) == 1
    assert closed_form_diameter(3) == 2
    assert closed_form_diameter(7) == 4


def test_closed_form_matches_bfs_diameter():
    for n in range(2, 33):
        assert moebius_ladder(n).graph.diameter() == closed_form_diameter(n)


def test_bipartite_exactly_for_odd_n():
    for n in range(2, 13):
        assert moebius_ladder(n).graph.is_bipartite() == (n % 2 == 1)
