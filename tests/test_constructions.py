import hashlib
import json

import pytest
from hypothesis import given, strategies as st

from intervalcolor import (
    Graph,
    color_count_bounds,
    is_interval,
    moebius_ladder,
    moebius_max_coloring,
)
from intervalcolor.constructions import bipartite_upper_bound, odd_cycle_upper_bound
from oracles import cycle, moebius, naive_interval_verdict


class TestMaxColoring:
    def test_even_case_smallest(self):
        c = moebius_max_coloring(2)
        assert c.t == 4
        assert c.assignment == {
            (1, 3): 1,
            (1, 2): 2,
            (3, 4): 2,
            (1, 4): 3,
            (2, 3): 3,
            (2, 4): 4,
        }

    def test_odd_case_smallest(self):
        c = moebius_max_coloring(3)
        assert c.t == 5
        assert c.assignment == {
            (2, 5): 1,
            (2, 3): 2,
            (5, 6): 2,
            (1, 2): 3,
            (4, 5): 3,
            (3, 6): 3,
            (1, 6): 4,
            (3, 4): 4,
            (1, 4): 5,
        }

    def test_odd_case_palettes(self):
        report = is_interval(moebius_ladder(3).graph, moebius_max_coloring(3))
        assert report.verdict
        assert report.palettes == {
            1: (3, 4, 5),
            2: (1, 2, 3),
            3: (2, 3, 4),
            4: (3, 4, 5),
            5: (1, 2, 3),
            6: (2, 3, 4),
        }

    def test_interval_across_range(self):
        for n in (*range(2, 61), 4096, 4097):
            c = moebius_max_coloring(n)
            assert c.t == n + 2
            report = is_interval(moebius_ladder(n).graph, c)
            assert report.verdict, n

    def test_rejects_small_n(self):
        with pytest.raises(ValueError):
            moebius_max_coloring(1)

    def test_output_pinned_to_400(self):
        # every coloring in this range was verified when the digest was
        # taken, so any change to the closed form shows here
        digest = hashlib.sha256()
        for n in range(2, 401):
            digest.update(json.dumps(moebius_max_coloring(n).to_json_dict()).encode())
        assert digest.hexdigest() == (
            "8c28a6f943b3f864d24c7c3bbe04c69d2f21fea1b0d7da89a29542d431710dc8"
        )

    def test_independent_definition_check(self):
        for n in range(2, 41):
            c = moebius_max_coloring(n)
            assert naive_interval_verdict(*moebius(n), c.assignment, n + 2), n

    @given(st.integers(2, 80))
    def test_total_and_surjective(self, n):
        c = moebius_max_coloring(n)
        ladder = moebius_ladder(n)
        assert set(c.assignment) == set(ladder.graph.edges)
        assert set(c.assignment.values()) == set(range(1, n + 3))


class TestBipartiteBound:
    def test_values(self):
        assert bipartite_upper_bound(moebius_ladder(3).graph) == 5
        assert bipartite_upper_bound(Graph(2, [(1, 2)])) == 1
        assert bipartite_upper_bound(moebius_ladder(5).graph) == 7

    def test_rejects_non_bipartite(self):
        with pytest.raises(ValueError):
            bipartite_upper_bound(moebius_ladder(2).graph)


class TestOddCycleBound:
    def test_values(self):
        assert odd_cycle_upper_bound(moebius_ladder(2).graph) == 5
        assert odd_cycle_upper_bound(moebius_ladder(4).graph) == 7
        assert odd_cycle_upper_bound(Graph(*cycle(3))) == 3

    def test_rejects_bipartite(self):
        with pytest.raises(ValueError):
            odd_cycle_upper_bound(Graph(*cycle(4)))


class TestBoundReport:
    """color_count_bounds(g) is the pair (least, largest)."""

    def test_bipartite_side(self):
        # M_6 is bipartite; at least one color even with no edge
        assert color_count_bounds(moebius_ladder(3).graph) == (3, 5)
        assert color_count_bounds(Graph(1, [])) == (1, 1)
        assert color_count_bounds(Graph(2, [(1, 2)])) == (1, 1)

    def test_odd_cycle_side(self):
        assert color_count_bounds(moebius_ladder(4).graph) == (3, 7)
        assert color_count_bounds(Graph(*cycle(3))) == (2, 3)


class TestClosedFormSpectrumEnds:
    def test_values(self):
        assert moebius_max_coloring(2).t == 4
        assert moebius_max_coloring(5).t == 7

    def test_rejects_small_n(self):
        with pytest.raises(ValueError):
            moebius_max_coloring(1)

    def test_top_of_spectrum_respects_general_bounds(self):
        for n in range(2, 65):
            _, largest = color_count_bounds(moebius_ladder(n).graph)
            assert moebius_max_coloring(n).t <= largest
