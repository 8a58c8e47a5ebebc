import re

import pytest
from hypothesis import given, strategies as st

from intervalcolor import (
    EdgeColoring,
    Graph,
    moebius_ladder,
    moebius_max_coloring,
    is_interval,
)
from oracles import cycle, naive_interval_components, naive_interval_verdict
from strategies import connected_graphs

K2 = Graph(2, [(1, 2)])
K2_COLORED = EdgeColoring(1, {(1, 2): 1})

# the three perfect matchings of K4, one color each
K4 = moebius_ladder(2).graph
K4_MATCHING_COLORING = EdgeColoring(
    3, {(1, 2): 1, (3, 4): 1, (1, 3): 2, (2, 4): 2, (1, 4): 3, (2, 3): 3}
)


class TestEdgeColoring:
    def test_keys_normalized(self):
        c = EdgeColoring(2, {(2, 1): 1, (3, 2): 2})
        assert c.assignment == {(1, 2): 1, (2, 3): 2}
        assert c.color(1, 2) == 1
        assert c.color(2, 1) == 1

    def test_color_unknown_edge(self):
        with pytest.raises(ValueError):
            K2_COLORED.color(1, 3)

    def test_rejects_bad_t(self):
        for bad in (0, -1, "4", True):
            with pytest.raises(ValueError):
                EdgeColoring(bad, {})

    def test_rejects_non_integer_color(self):
        for bad in ("1", True):
            with pytest.raises(ValueError):
                EdgeColoring(2, {(1, 2): bad})

    # (True, 2) would otherwise pass as (1, 2): a valid coloring of K2
    @pytest.mark.parametrize("key", [(True, 2), 5, (1, "a"), (1, 2, 3), (1.0, 2), "12"])
    def test_rejects_key_that_is_not_an_integer_pair(self, key):
        message = rf"^edge {re.escape(repr(key))} is not a pair of integer vertex ids$"
        with pytest.raises(ValueError, match=message):
            EdgeColoring(1, {key: 1})

    def test_rejects_duplicate_edge(self):
        # two keys for one edge would otherwise leave only the last color
        with pytest.raises(ValueError, match=r"edge \(1, 2\) is assigned twice"):
            EdgeColoring(2, {(1, 2): 1, (2, 1): 2})

    def test_pairs_normalize_like_a_mapping(self):
        pairs = EdgeColoring(1, [((2, 1), 1)])
        assert pairs == EdgeColoring(1, {(2, 1): 1})
        assert pairs.assignment == {(1, 2): 1}

    # the JSON reader checks only the document's shape; values are the
    # constructor's to judge, with the same message for the same fault
    @pytest.mark.parametrize(
        "t, edge",
        [(1, [1, 2, 3]), (1, 5), (1, ["a", "b"]), (1, [True, 2]), (True, [1, 2]), (0, [1, 2])],
    )
    def test_json_and_constructor_reject_alike(self, t, edge):
        with pytest.raises(ValueError) as direct:
            EdgeColoring(t, [(edge, 1)])
        doc = {"t": t, "colors": [{"edge": edge, "color": 1}]}
        with pytest.raises(ValueError) as parsed:
            EdgeColoring.from_json_dict(doc)
        assert str(parsed.value) == str(direct.value)

    def test_json_round_trip(self):
        doc = K4_MATCHING_COLORING.to_json_dict()
        assert doc["t"] == 3
        assert {"edge": [1, 2], "color": 1} in doc["colors"]
        again = EdgeColoring.from_json_dict(doc)
        assert again.t == 3
        assert again.assignment == K4_MATCHING_COLORING.assignment

    def test_json_unknown_keys_ignored(self):
        doc = {"t": 1, "colors": [{"edge": [1, 2], "color": 1}], "graph": {}}
        assert EdgeColoring.from_json_dict(doc).t == 1

    def test_json_rejects_duplicate_edge(self):
        for second in ([2, 1], [1, 2]):
            doc = {
                "t": 2,
                "colors": [{"edge": [1, 2], "color": 1}, {"edge": second, "color": 2}],
            }
            with pytest.raises(ValueError, match=r"^edge \(1, 2\) is assigned twice$"):
                EdgeColoring.from_json_dict(doc)

    def test_json_rejects_missing_fields(self):
        with pytest.raises(ValueError):
            EdgeColoring.from_json_dict({"colors": []})
        with pytest.raises(ValueError):
            EdgeColoring.from_json_dict({"t": 1})
        with pytest.raises(ValueError):
            EdgeColoring.from_json_dict({"t": 1, "colors": [{"edge": [1, 2]}]})


class TestPalette:
    def test_ladder_construction_palettes(self):
        palettes = is_interval(K4, moebius_max_coloring(2)).palettes
        assert palettes[1] == (1, 2, 3)
        assert palettes[2] == (2, 3, 4)

    def test_single_edge(self):
        assert is_interval(K2, K2_COLORED).palettes == {1: (1,), 2: (1,)}


class TestIsProper:
    def test_ladder_construction_is_proper(self):
        assert is_interval(K4, moebius_max_coloring(2)).proper

    def test_monochrome_triangle_is_not(self):
        g = Graph(*cycle(3))
        c = EdgeColoring(1, {(1, 2): 1, (2, 3): 1, (1, 3): 1})
        assert not is_interval(g, c).proper

    def test_single_edge_is_proper(self):
        assert is_interval(K2, K2_COLORED).proper


class TestIsInterval:
    def test_ladder_construction_verdict(self):
        report = is_interval(K4, moebius_max_coloring(2))
        assert report.verdict
        assert report.proper and report.surjective and report.interval_at_each_vertex
        assert report.violations == ()
        assert report.palettes == {
            1: (1, 2, 3),
            2: (2, 3, 4),
            3: (1, 2, 3),
            4: (2, 3, 4),
        }

    def test_matching_coloring_of_k4(self):
        assert is_interval(K4, K4_MATCHING_COLORING).verdict

    def test_renamed_color_class_breaks_it(self):
        # rename color class 1 -> 5 and claim t=5: colors 1 and 4 go
        # unused and the palettes stop being consecutive
        shifted = {
            e: (5 if c == 1 else c) for e, c in K4_MATCHING_COLORING.assignment.items()
        }
        report = is_interval(K4, EdgeColoring(5, shifted))
        assert not report.verdict
        assert not report.surjective
        assert not report.interval_at_each_vertex
        subjects = {s for s, _ in report.violations}
        assert "color 1" in subjects and "color 4" in subjects

    def test_alternating_four_cycle(self):
        g = Graph(*cycle(4))
        c = EdgeColoring(2, {(1, 2): 1, (2, 3): 2, (3, 4): 1, (1, 4): 2})
        assert is_interval(g, c).verdict

    def test_uncolored_edge_reported_not_thrown(self):
        report = is_interval(K2, EdgeColoring(1, {}))
        assert not report.verdict
        assert not report.proper
        assert ("edge (1, 2)", "no color assigned") in report.violations

    def test_color_out_of_range_reported(self):
        report = is_interval(K2, EdgeColoring(1, {(1, 2): 7}))
        assert not report.verdict
        assert any("outside 1..1" in reason for _, reason in report.violations)

    def test_non_edge_assignment_reported(self):
        g = Graph(*cycle(4))
        c = EdgeColoring(2, {(1, 2): 1, (2, 3): 2, (3, 4): 1, (1, 4): 2, (1, 3): 1})
        report = is_interval(g, c)
        assert not report.verdict
        assert any("not an edge" in reason for _, reason in report.violations)

    def test_repeated_color_at_vertex_reported(self):
        g = Graph(*cycle(3))
        c = EdgeColoring(2, {(1, 2): 1, (2, 3): 2, (1, 3): 1})
        report = is_interval(g, c)
        assert not report.proper
        assert any(s == "vertex 1" for s, _ in report.violations)

    def test_unused_colors_reported_as_runs(self):
        # 10**9 colors on one edge: one run, found without walking 1..t
        report = is_interval(K2, EdgeColoring(10**9, {(1, 2): 1}))
        assert not report.surjective
        assert report.violations == (("colors 2..1000000000", "not used by any edge"),)
        report = is_interval(K2, EdgeColoring(5, {(1, 2): 3}))
        assert report.violations == (
            ("colors 1..2", "not used by any edge"),
            ("colors 4..5", "not used by any edge"),
        )

    def test_mixed_faults_reported_in_order(self):
        # non-edge keys (one given reversed), an uncolored edge, a color
        # out of range, a color repeated at two vertices, and unused colors
        # on both sides of a used one; non-edge colors do not count as used
        assignment = {
            (7, 2): 1, (1, 5): 3, (1, 3): 9, (1, 4): 2, (2, 3): 2, (2, 4): 2, (3, 4): 5,
        }
        report = is_interval(K4, EdgeColoring(6, assignment))
        assert (report.proper, report.surjective, report.interval_at_each_vertex) == (
            False, False, False,
        )
        assert report.violations == (
            ("edge (1, 5)", "assigned a color but not an edge of the graph"),
            ("edge (2, 7)", "assigned a color but not an edge of the graph"),
            ("edge (1, 2)", "no color assigned"),
            ("edge (1, 3)", "color 9 outside 1..6"),
            ("vertex 1", "palette [2, 9] is not 3 consecutive colors"),
            ("vertex 2", "color 2 repeats on incident edges"),
            ("vertex 2", "palette [2] is not 3 consecutive colors"),
            ("vertex 3", "palette [2, 5, 9] is not 3 consecutive colors"),
            ("vertex 4", "color 2 repeats on incident edges"),
            ("vertex 4", "palette [2, 5] is not 3 consecutive colors"),
            ("color 1", "not used by any edge"),
            ("colors 3..4", "not used by any edge"),
            ("color 6", "not used by any edge"),
        )
        assert report.palettes == {1: (2, 9), 2: (2,), 3: (2, 5, 9), 4: (2, 5)}

    def test_verdict_iff_no_violations(self):
        good = is_interval(K4, moebius_max_coloring(2))
        assert good.verdict and not good.violations
        bad = is_interval(K2, EdgeColoring(2, {(1, 2): 1}))
        assert not bad.verdict and bad.violations


class TestExtremeColorsAppear:
    @given(st.integers(2, 40))
    def test_construction_uses_colors_one_and_t(self, n):
        c = moebius_max_coloring(n)
        used = set(c.assignment.values())
        assert 1 in used
        assert c.t in used


class TestOracleAgreement:
    @given(connected_graphs(max_vertices=6), st.data())
    def test_verdict_matches_naive_reimplementation(self, g, data):
        t = data.draw(st.integers(1, 5))
        colors = {
            e: data.draw(st.integers(0, t + 1), label=f"color{e}") for e in g.edges
        }
        self.check(g, t, colors)

    @given(connected_graphs(max_vertices=6), st.data())
    def test_malformed_colorings_match_naive_reimplementation(self, g, data):
        # as above, but color -1 leaves the edge uncolored, and up to three
        # non-edges (endpoints up to one past the last vertex) get colors
        t = data.draw(st.integers(1, 5))
        colors = {
            e: data.draw(st.integers(-1, t + 1), label=f"color{e}") for e in g.edges
        }
        colors = {e: c for e, c in colors.items() if c >= 0}
        vertex = st.integers(1, g.vertex_count + 1)
        for u, v in data.draw(st.lists(st.tuples(vertex, vertex), max_size=3), label="extra"):
            e = (min(u, v), max(u, v))
            if e not in g.edges:
                colors[e] = data.draw(st.integers(0, t + 1), label=f"color{e}")
        self.check(g, t, colors)

    @staticmethod
    def check(g, t, colors):
        report = is_interval(g, EdgeColoring(t, colors))
        edges = list(g.edges)
        assert report.verdict == naive_interval_verdict(g.vertex_count, edges, colors, t)
        assert (report.proper, report.surjective, report.interval_at_each_vertex) == (
            naive_interval_components(g.vertex_count, edges, colors, t)
        )

    @given(st.integers(2, 30))
    def test_cubic_palettes_are_consecutive_triples(self, n):
        g = moebius_ladder(n).graph
        report = is_interval(g, moebius_max_coloring(n))
        assert report.verdict
        for pal in report.palettes.values():
            assert len(pal) == 3
            assert pal[2] - pal[0] == 2
