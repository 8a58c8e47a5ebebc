import argparse
import io
import json
import os
import subprocess
import sys

import pytest

import intervalcolor.cli
import intervalcolor.solver
from intervalcolor import EdgeColoring, Graph, moebius_ladder, moebius_max_coloring
from intervalcolor.cli import _coloring_doc, export_dot, main
from oracles import naive_interval_verdict, path, petersen


def run(capsys, monkeypatch, argv, stdin=None):
    # usage errors leave main as SystemExit(3) from argparse; fold them
    # into the same return channel as the ordinary exit codes
    if stdin is not None:
        monkeypatch.setattr("sys.stdin", io.StringIO(stdin))
    try:
        code = main(argv)
    except SystemExit as e:
        code = e.code
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestGen:
    def test_emits_graph_with_family_metadata(self, capsys, monkeypatch):
        code, out, _ = run(capsys, monkeypatch, ["gen", "--n", "3"])
        assert code == 0
        doc = json.loads(out)
        assert doc["family"] == "moebius"
        assert doc["n"] == 3
        g = Graph.from_json_dict(doc)
        assert g.edges == moebius_ladder(3).graph.edges

    def test_round_trip_is_stable(self, capsys, monkeypatch):
        code, out, _ = run(capsys, monkeypatch, ["gen", "--n", "4"])
        doc = json.loads(out)
        g = Graph.from_json_dict(doc)
        assert Graph.from_json_dict(g.to_json_dict()).to_json_dict() == g.to_json_dict()

    def test_rejects_small_n(self, capsys, monkeypatch):
        code, _, err = run(capsys, monkeypatch, ["gen", "--n", "1"])
        assert code == 3
        assert "--n" in err


class TestColor:
    def test_max_coloring_document(self, capsys, monkeypatch):
        code, out, _ = run(capsys, monkeypatch, ["color", "--n", "2"])
        assert code == 0
        doc = json.loads(out)
        assert doc["t"] == 4
        assert EdgeColoring.from_json_dict(doc).assignment == (
            moebius_max_coloring(2).assignment
        )
        assert Graph.from_json_dict(doc["graph"]).vertex_count == 4

    def test_default_t_is_max(self, capsys, monkeypatch):
        code, out, _ = run(capsys, monkeypatch, ["color", "--n", "3"])
        assert code == 0
        assert json.loads(out)["t"] == 5

    def test_inconclusive_t(self, capsys, monkeypatch):
        # a 5-node search leaves M_4 at t = 6 undecided; color builds that
        # t from the closed form, so no budget can make it inconclusive
        code, out, _ = run(
            capsys, monkeypatch, ["solve", "--n", "4", "--t", "6", "--node-limit", "5"]
        )
        assert code == 2
        assert json.loads(out) == {"status": "inconclusive", "t": 6, "nodes": 5}
        code, colored, _ = run(capsys, monkeypatch, ["color", "--n", "4"])
        assert code == 0
        doc = json.loads(colored)
        assert doc["t"] == 6 and "status" not in doc
        code, out, _ = run(capsys, monkeypatch, ["verify"], stdin=colored)
        assert code == 0
        assert json.loads(out)["verdict"] is True

    # color only builds the closed form; solve --n is the search
    @pytest.mark.parametrize("option", [["--t", "4"], ["--node-limit", "5"]])
    def test_search_options_are_usage_errors(self, capsys, monkeypatch, option):
        code, out, err = run(capsys, monkeypatch, ["color", "--n", "3", *option])
        assert (code, out) == (3, "")
        assert f"unrecognized arguments: {' '.join(option)}" in err


class TestVerify:
    def test_pipe_from_color(self, capsys, monkeypatch):
        _, colored, _ = run(capsys, monkeypatch, ["color", "--n", "3"])
        code, out, _ = run(capsys, monkeypatch, ["verify"], stdin=colored)
        assert code == 0
        report = json.loads(out)
        assert report["verdict"] is True
        assert report["violations"] == []

    def test_broken_coloring_fails(self, capsys, monkeypatch):
        _, colored, _ = run(capsys, monkeypatch, ["color", "--n", "2"])
        doc = json.loads(colored)
        doc["colors"][0]["color"] = 1  # clobber one edge
        code, out, _ = run(capsys, monkeypatch, ["verify"], stdin=json.dumps(doc))
        assert code == 1
        assert json.loads(out)["verdict"] is False

    def test_file_input(self, capsys, monkeypatch, tmp_path):
        _, colored, _ = run(capsys, monkeypatch, ["color", "--n", "2"])
        src = tmp_path / "c.json"
        src.write_text(colored)
        code, out, _ = run(capsys, monkeypatch, ["verify", "--in", str(src)])
        assert code == 0

    def test_no_graph_available(self, capsys, monkeypatch):
        bare = json.dumps({"t": 1, "colors": [{"edge": [1, 2], "color": 1}]})
        code, _, err = run(capsys, monkeypatch, ["verify"], stdin=bare)
        assert code == 3
        assert "graph" in err

    def test_malformed_json(self, capsys, monkeypatch):
        code, _, err = run(capsys, monkeypatch, ["verify"], stdin="{oops")
        assert code == 4
        assert "line 1" in err and "column" in err

    def test_file_not_utf8(self, capsys, monkeypatch, tmp_path):
        src = tmp_path / "latin1.json"
        src.write_bytes(b"\xff{}")
        code, out, err = run(capsys, monkeypatch, ["verify", "--in", str(src)])
        assert (code, out) == (4, "")
        assert err.startswith(f"intervalcolor: error: {src}: 'utf-8' codec")

    def test_missing_file(self, capsys, monkeypatch, tmp_path):
        code, _, err = run(
            capsys, monkeypatch, ["verify", "--in", str(tmp_path / "absent.json")]
        )
        assert code == 4
        assert "absent.json" in err


class TestStrictInput:
    @pytest.mark.parametrize(
        "doc",
        [
            {"vertices": True, "edges": []},
            {"vertices": 2, "edges": [[True, 2]]},
            {"vertices": 2, "edges": [5]},
            {"vertices": 2, "edges": [None]},
            {"vertices": 10**10, "edges": []},
        ],
    )
    def test_graph_parser_rejects(self, capsys, monkeypatch, doc):
        code, out, err = run(
            capsys, monkeypatch, ["solve", "--in", "-", "--t", "1"], stdin=json.dumps(doc)
        )
        assert (code, out) == (4, "")
        assert err.startswith("intervalcolor: error: standard input: ")

    @pytest.mark.parametrize(
        "t, record, named",
        [
            (True, {"edge": [1, 2], "color": True}, False),
            (True, {"edge": [1, 2], "color": 1}, False),
            (1, {"edge": [1, 2], "color": True}, False),
            (1, {"edge": [1, 2, 3], "color": 1}, True),
            (1, {"edge": 5, "color": 1}, True),
            (1, {"edge": ["a", "b"], "color": 1}, True),
            (1, {"edge": [True, 2], "color": 1}, True),
        ],
    )
    def test_coloring_parser_rejects(self, capsys, monkeypatch, t, record, named):
        doc = {"t": t, "colors": [record], "graph": {"vertices": 2, "edges": [[1, 2]]}}
        code, out, err = run(capsys, monkeypatch, ["verify"], stdin=json.dumps(doc))
        assert (code, out) == (4, "")
        assert err.startswith("intervalcolor: error: standard input: ")
        if named:
            assert f"edge {record['edge']!r} is not a pair of integer vertex ids" in err

    # present but not an object: malformed input, not a missing graph
    @pytest.mark.parametrize("graph", [[[1, 2]], "x", None], ids=["list", "string", "null"])
    @pytest.mark.parametrize("command", ["verify", "export-dot"])
    def test_embedded_graph_not_an_object(self, capsys, monkeypatch, command, graph):
        doc = {"t": 1, "colors": [{"edge": [1, 2], "color": 1}], "graph": graph}
        code, out, err = run(capsys, monkeypatch, [command], stdin=json.dumps(doc))
        assert (code, out) == (4, "")
        assert err == (
            "intervalcolor: error: standard input (embedded graph): "
            "graph JSON must be an object\n"
        )

    @pytest.mark.parametrize(
        "argv",
        [["solve", "--t", "1"], ["verify"], ["export-dot"]],
        ids=["solve", "verify", "export-dot"],
    )
    def test_top_level_array(self, capsys, monkeypatch, tmp_path, argv):
        src = tmp_path / "a.json"
        src.write_text(json.dumps([{"vertices": 2, "edges": [[1, 2]]}]))
        code, out, err = run(capsys, monkeypatch, [*argv, "--in", str(src)])
        assert (code, out) == (4, "")
        assert err == f"intervalcolor: error: {src}: expected a JSON object at top level\n"

    def test_colors_not_an_array(self, capsys, monkeypatch):
        doc = {"t": 1, "colors": {"1-2": 1}, "graph": {"vertices": 2, "edges": [[1, 2]]}}
        code, out, err = run(capsys, monkeypatch, ["verify"], stdin=json.dumps(doc))
        assert (code, out) == (4, "")
        assert err == (
            'intervalcolor: error: standard input: coloring JSON "colors" must be an array\n'
        )

    @pytest.mark.parametrize(
        "text",
        [
            "[" * 100_000,  # deeper than the recursion limit
            # longer than the interpreter's integer digit limit, where it
            # has one; without it the graph is rejected as not connected
            '{"vertices": 1' + "0" * 4999 + ', "edges": []}',
        ],
        ids=["deep-nesting", "long-integer"],
    )
    def test_json_past_interpreter_limits(self, capsys, monkeypatch, tmp_path, text):
        src = tmp_path / "g.json"
        src.write_text(text)
        code, out, err = run(capsys, monkeypatch, ["solve", "--in", str(src), "--t", "1"])
        assert (code, out) == (4, "")
        assert err.startswith(f"intervalcolor: error: {src}: ")
        assert "Traceback" not in err


class TestSolve:
    def test_feasible(self, capsys, monkeypatch):
        code, out, _ = run(capsys, monkeypatch, ["solve", "--n", "2", "--t", "4"])
        assert code == 0
        doc = json.loads(out)
        assert doc["t"] == 4
        assert len(doc["colors"]) == 6

    def test_infeasible(self, capsys, monkeypatch):
        code, out, _ = run(capsys, monkeypatch, ["solve", "--n", "2", "--t", "5"])
        assert code == 1
        assert json.loads(out)["status"] == "infeasible"

    def test_inconclusive(self, capsys, monkeypatch):
        code, out, _ = run(
            capsys,
            monkeypatch,
            ["solve", "--n", "4", "--t", "7", "--node-limit", "5"],
        )
        assert code == 2
        assert json.loads(out) == {"status": "inconclusive", "t": 7, "nodes": 5}

    def test_deterministic_bytes(self, capsys, monkeypatch):
        _, first, _ = run(capsys, monkeypatch, ["solve", "--n", "4", "--t", "3"])
        _, second, _ = run(capsys, monkeypatch, ["solve", "--n", "4", "--t", "3"])
        assert first == second

    def test_graph_from_file(self, capsys, monkeypatch, tmp_path):
        src = tmp_path / "g.json"
        src.write_text(json.dumps({"vertices": 2, "edges": [[1, 2]]}))
        code, out, _ = run(
            capsys, monkeypatch, ["solve", "--in", str(src), "--t", "1"]
        )
        assert code == 0
        assert json.loads(out)["colors"] == [{"edge": [1, 2], "color": 1}]

    def test_graph_from_stdin(self, capsys, monkeypatch):
        code, out, _ = run(
            capsys,
            monkeypatch,
            ["solve", "--in", "-", "--t", "1"],
            stdin=json.dumps({"vertices": 2, "edges": [[1, 2]]}),
        )
        assert code == 0

    def test_requires_graph_source(self, capsys, monkeypatch):
        code, _, err = run(capsys, monkeypatch, ["solve", "--t", "3"])
        assert code == 3
        assert "a graph is required" in err

    def test_rejects_both_sources(self, capsys, monkeypatch):
        code, _, err = run(
            capsys, monkeypatch, ["solve", "--n", "2", "--in", "x", "--t", "3"]
        )
        assert code == 3

    def test_invalid_graph_document(self, capsys, monkeypatch):
        code, _, err = run(
            capsys,
            monkeypatch,
            ["solve", "--in", "-", "--t", "1"],
            stdin=json.dumps({"vertices": 2, "edges": [[1, 1]]}),
        )
        assert code == 4


class TestSpectrum:
    def test_json_report(self, capsys, monkeypatch):
        code, out, _ = run(capsys, monkeypatch, ["spectrum", "--n", "2"])
        assert code == 0
        doc = json.loads(out)
        assert doc["feasible_t"] == [3, 4]
        assert doc["min_colors"] == 3
        assert doc["max_colors"] == 4

    def test_csv_format(self, capsys, monkeypatch):
        code, out, _ = run(
            capsys, monkeypatch, ["spectrum", "--n", "2", "--format", "csv"]
        )
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "n,t,feasible,nodes_searched"
        rows = [line.split(",") for line in lines[1:]]
        assert [(r[0], r[1], r[2]) for r in rows] == [
            ("2", "3", "true"),
            ("2", "4", "true"),
            ("2", "5", "false"),
        ]

    @pytest.mark.parametrize("fmt", ["json", "csv"])
    def test_byte_stable(self, capsys, monkeypatch, fmt):
        argv = ["spectrum", "--n", "3", "--format", fmt]
        first = run(capsys, monkeypatch, argv)
        assert first[0] == 0
        assert run(capsys, monkeypatch, argv) == first

    def test_inconclusive_exit(self, capsys, monkeypatch):
        code, out, _ = run(
            capsys, monkeypatch, ["spectrum", "--n", "4", "--node-limit", "5"]
        )
        assert code == 2
        assert json.loads(out)["inconclusive_t"] != []

    def test_cap_below_degree(self, capsys, monkeypatch):
        code, _, err = run(capsys, monkeypatch, ["spectrum", "--n", "2", "--cap", "2"])
        assert code == 3
        # the one-vertex graph sweeps from t = 1, above its max degree 0
        lone = json.dumps({"vertices": 1, "edges": []})
        argv = ["spectrum", "--in", "-", "--cap"]
        assert run(capsys, monkeypatch, argv + ["0"], stdin=lone)[:2] == (3, "")
        code, out, _ = run(capsys, monkeypatch, argv + ["1"], stdin=lone)
        assert (code, json.loads(out)["t_max_searched"]) == (0, 1)

    def test_bad_cap_word(self, capsys, monkeypatch):
        code, _, _ = run(capsys, monkeypatch, ["spectrum", "--n", "2", "--cap", "all"])
        assert code == 3


class TestBoundsAndDiameter:
    def test_bounds_bipartite(self, capsys, monkeypatch):
        code, out, _ = run(capsys, monkeypatch, ["bounds", "--n", "3"])
        assert code == 0
        doc = json.loads(out)
        assert doc["bipartite"] is True
        assert doc["applicable_bound"] == 5
        assert doc["bipartite_bound"] == 5

    def test_bounds_odd_cycle(self, capsys, monkeypatch):
        code, out, _ = run(capsys, monkeypatch, ["bounds", "--n", "4"])
        doc = json.loads(out)
        assert doc["bipartite"] is False
        assert doc["odd_cycle_bound"] == 7

    def test_diameter(self, capsys, monkeypatch):
        code, out, _ = run(capsys, monkeypatch, ["diameter", "--n", "5"])
        assert code == 0
        assert json.loads(out) == {"vertex_count": 10, "diameter": 3}


class TestChiPrime:
    def test_runs_one_search(self, capsys, monkeypatch):
        calls = []
        search = intervalcolor.solver.chromatic_index_is_delta

        def counted(*args, **kwargs):
            calls.append(args)
            return search(*args, **kwargs)

        # the search is reachable through both modules
        monkeypatch.setattr(intervalcolor.cli, "chromatic_index_is_delta", counted)
        monkeypatch.setattr(intervalcolor.solver, "chromatic_index_is_delta", counted)
        code, out, _ = run(capsys, monkeypatch, ["chi-prime", "--n", "3"])
        assert code == 0
        assert json.loads(out)["chromatic_index"] == 3
        assert len(calls) == 1

    def test_edgeless(self, capsys, monkeypatch):
        code, out, _ = run(
            capsys,
            monkeypatch,
            ["chi-prime", "--in", "-"],
            stdin=json.dumps({"vertices": 1, "edges": []}),
        )
        assert code == 0
        assert json.loads(out) == {
            "max_degree": 0,
            "chromatic_index": 0,
            "equals_max_degree": True,
        }

    def test_class_one(self, capsys, monkeypatch):
        code, out, _ = run(capsys, monkeypatch, ["chi-prime", "--n", "3"])
        assert code == 0
        doc = json.loads(out)
        assert doc == {
            "max_degree": 3,
            "chromatic_index": 3,
            "equals_max_degree": True,
        }

    def test_inconclusive(self, capsys, monkeypatch, tmp_path):
        nv, edges = petersen()
        src = tmp_path / "petersen.json"
        src.write_text(json.dumps({"vertices": nv, "edges": edges}))
        code, out, err = run(
            capsys, monkeypatch, ["chi-prime", "--in", str(src), "--node-limit", "1"]
        )
        assert (code, out) == (2, "")
        assert err.startswith("inconclusive: ")

    def test_class_two(self, capsys, monkeypatch):
        five_cycle = json.dumps(
            {"vertices": 5, "edges": [[1, 2], [2, 3], [3, 4], [4, 5], [1, 5]]}
        )
        code, out, _ = run(
            capsys, monkeypatch, ["chi-prime", "--in", "-"], stdin=five_cycle
        )
        assert code == 1
        doc = json.loads(out)
        assert doc["chromatic_index"] == 3
        assert doc["equals_max_degree"] is False


class TestDeepSearch:
    # one search level per edge; each graph has more edges than the
    # interpreter's default recursion limit of 1,000

    def _solve(self, capsys, monkeypatch, argv, nv, edges, t):
        code, out, _ = run(capsys, monkeypatch, argv)
        assert code == 0
        doc = json.loads(out)
        assert doc["t"] == t
        colors = {tuple(r["edge"]): r["color"] for r in doc["colors"]}
        assert naive_interval_verdict(nv, edges, colors, t)

    def test_solve_long_path(self, capsys, monkeypatch, tmp_path):
        nv, edges = path(1500)
        src = tmp_path / "p1500.json"
        src.write_text(json.dumps({"vertices": nv, "edges": edges}))
        argv = ["solve", "--in", str(src), "--t", "6"]
        self._solve(capsys, monkeypatch, argv, nv, edges, 6)

    def test_solve_large_ladder(self, capsys, monkeypatch):
        g = moebius_ladder(800).graph
        argv = ["solve", "--n", "800", "--t", "3"]
        self._solve(capsys, monkeypatch, argv, g.vertex_count, list(g.edges), 3)

    def test_chi_prime_large_ladder(self, capsys, monkeypatch):
        code, out, _ = run(capsys, monkeypatch, ["chi-prime", "--n", "800"])
        assert code == 0
        assert json.loads(out)["chromatic_index"] == 3


class TestExportDot:
    def test_uncolored_single_edge(self):
        text = export_dot(Graph(2, [(1, 2)]))
        assert text == "graph G {\n  1;\n  2;\n  1 -- 2;\n}\n"

    def test_ladder_labels(self):
        g = moebius_ladder(2).graph
        text = export_dot(g, moebius_max_coloring(2))
        labels = sorted(
            int(part.split('"')[1]) for part in text.splitlines() if "label" in part
        )
        assert labels == [1, 2, 2, 3, 3, 4]

    def test_m6_label_range(self):
        g = moebius_ladder(3).graph
        text = export_dot(g, moebius_max_coloring(3))
        labels = [
            int(part.split('"')[1]) for part in text.splitlines() if "label" in part
        ]
        assert len(labels) == 9
        assert set(labels) <= set(range(1, 6))

    def test_byte_stable(self):
        g = moebius_ladder(3).graph
        assert export_dot(g) == export_dot(g)

    def test_cli_from_bare_graph(self, capsys, monkeypatch):
        code, out, _ = run(
            capsys,
            monkeypatch,
            ["export-dot", "--in", "-"],
            stdin=json.dumps({"vertices": 2, "edges": [[1, 2]]}),
        )
        assert code == 0
        assert "1 -- 2;" in out
        assert "label" not in out

    def test_cli_from_coloring_pipe(self, capsys, monkeypatch):
        _, colored, _ = run(capsys, monkeypatch, ["color", "--n", "2"])
        code, out, _ = run(capsys, monkeypatch, ["export-dot"], stdin=colored)
        assert code == 0
        assert out.count("label") == 6

    def test_cli_ladder_flag(self, capsys, monkeypatch):
        code, out, _ = run(capsys, monkeypatch, ["export-dot", "--n", "2"])
        assert code == 0
        assert out.count(" -- ") == 6

    def test_cli_ladder_flag_beside_graph_file(self, capsys, monkeypatch, tmp_path):
        graph = tmp_path / "g.json"
        graph.write_text(json.dumps({"vertices": 2, "edges": [[1, 2]]}))
        code, out, err = run(
            capsys, monkeypatch, ["export-dot", "--n", "5", "--in", str(graph)]
        )
        assert (code, out) == (3, "")
        assert "give --n or --in, not both" in err

    def test_cli_edge_without_color_is_an_input_error(self, capsys, monkeypatch):
        doc = {
            "t": 1,
            "colors": [{"edge": [1, 2], "color": 1}],
            "graph": {"vertices": 3, "edges": [[1, 2], [2, 3]]},
        }
        code, out, err = run(
            capsys, monkeypatch, ["export-dot"], stdin=json.dumps(doc)
        )
        assert code == 4
        assert out == ""
        assert err == (
            "intervalcolor: error: standard input: edge (2, 3) has no assigned color\n"
        )

    def test_colored_non_edge_is_an_input_error(self, capsys, monkeypatch):
        # verify reports the same pair as a violation; export-dot has no
        # place to draw it, so it refuses the document instead of dropping it
        doc = {
            "t": 1,
            "colors": [{"edge": [1, 2], "color": 1}, {"edge": [1, 3], "color": 1}],
            "graph": {"vertices": 2, "edges": [[1, 2]]},
        }
        with pytest.raises(ValueError, match=r"edge \(1, 3\) is assigned a color"):
            export_dot(Graph(2, [(1, 2)]), EdgeColoring.from_json_dict(doc))
        code, out, err = run(capsys, monkeypatch, ["export-dot"], stdin=json.dumps(doc))
        assert (code, out) == (4, "")
        assert err == (
            "intervalcolor: error: standard input: "
            "edge (1, 3) is assigned a color but is not an edge of the graph\n"
        )
        code, out, _ = run(capsys, monkeypatch, ["verify"], stdin=json.dumps(doc))
        assert code == 1
        assert {
            "subject": "edge (1, 3)",
            "reason": "assigned a color but not an edge of the graph",
        } in json.loads(out)["violations"]


class TestPlumbing:
    def test_no_subcommand(self, capsys, monkeypatch):
        code, _, err = run(capsys, monkeypatch, [])
        assert code == 3
        assert "subcommand" in err

    def test_unknown_flag(self, capsys, monkeypatch):
        code, _, _ = run(capsys, monkeypatch, ["gen", "--n", "2", "--wat"])
        assert code == 3

    def test_negative_node_limit(self, capsys, monkeypatch):
        code, _, err = run(
            capsys, monkeypatch, ["solve", "--n", "2", "--t", "3", "--node-limit", "-1"]
        )
        assert code == 3

    def test_internal_error_is_not_a_verdict(self, capsys, monkeypatch):
        def broken(*args, **kwargs):
            raise RuntimeError("search broke")

        monkeypatch.setattr(intervalcolor.cli, "search_interval_coloring", broken)
        code, out, err = run(capsys, monkeypatch, ["solve", "--n", "2", "--t", "4"])
        assert code == 5
        assert out == ""
        assert "Traceback" in err
        assert "internal error: RuntimeError('search broke')" in err

    def test_closed_stdout_keeps_the_exit_code(self):
        # a child process, as a shell pipeline runs it, whose stdout is a
        # pipe with no reader left: writing it raises BrokenPipeError
        src = os.path.dirname(os.path.dirname(intervalcolor.cli.__file__))
        env = {**os.environ, "PYTHONPATH": src}
        entry = "import sys; from intervalcolor.cli import main; sys.exit(main())"

        def closed_reader(argv, stdin=b""):
            read_end, write_end = os.pipe()
            os.close(read_end)
            try:
                done = subprocess.run(
                    [sys.executable, "-c", entry, *argv],
                    input=stdin, stdout=write_end, stderr=subprocess.PIPE, env=env,
                )
            finally:
                os.close(write_end)
            return done.returncode, done.stderr.decode()

        doc = _coloring_doc(moebius_max_coloring(3), moebius_ladder(3).graph)
        doc["colors"][0]["color"] = doc["t"] + 5
        assert closed_reader(["solve", "--n", "4", "--t", "7"]) == (1, "")
        assert closed_reader(["verify"], json.dumps(doc).encode()) == (1, "")
        assert closed_reader(["color", "--n", "3"]) == (0, "")

    @pytest.mark.parametrize(
        "argv",
        [["--help"]]
        + [[c, "--help"] for c in ("gen", "color", "verify", "solve", "spectrum")]
        + [[c, "--help"] for c in ("bounds", "diameter", "chi-prime", "export-dot")]
        + [["gen"], ["solve", "--n", "3"], ["spectrum", "--n", "3", "--cap", "x"]],
    )
    def test_reused_parser_prints_what_a_fresh_one_does(self, capsys, monkeypatch, argv):
        # main keeps one parser per process; build_parser still makes a new one
        fresh = intervalcolor.cli.build_parser()
        assert fresh is not intervalcolor.cli.build_parser()
        with pytest.raises(SystemExit) as info:
            fresh.parse_args(argv)
        expect = (info.value.code, *capsys.readouterr())
        for _ in range(2):
            assert run(capsys, monkeypatch, argv) == expect
        assert intervalcolor.cli._main_parser() is intervalcolor.cli._main_parser()

    # every option a subcommand takes, in help order; a new knob changes this
    OPTIONS = {
        "gen": ("--n",),
        "color": ("--n",),
        "verify": ("--in",),
        "solve": ("--n", "--in", "--t", "--node-limit"),
        "spectrum": ("--n", "--in", "--cap", "--node-limit", "--format"),
        "bounds": ("--n", "--in"),
        "diameter": ("--n", "--in"),
        "chi-prime": ("--n", "--in", "--node-limit"),
        "export-dot": ("--n", "--in"),
    }

    def test_option_sets_are_pinned(self):
        def flags(parser):
            return tuple(
                flag
                for action in parser._actions
                if not isinstance(action, argparse._HelpAction)
                for flag in action.option_strings
            )

        parser = intervalcolor.cli.build_parser()
        (commands,) = [
            a for a in parser._actions if isinstance(a, argparse._SubParsersAction)
        ]
        assert flags(parser) == ()
        found = {name: flags(p) for name, p in commands.choices.items()}
        assert found == self.OPTIONS
        assert sum(map(len, found.values())) == 21

    # results go to stdout only, and a coloring is judged and drawn on
    # the graph embedded in it, never on a ladder named beside it
    WITH_OUT = [
        ["gen", "--n", "2"],
        ["color", "--n", "2"],
        ["verify"],
        ["solve", "--n", "2", "--t", "3"],
        ["spectrum", "--n", "2"],
        ["bounds", "--n", "2"],
        ["diameter", "--n", "2"],
        ["chi-prime", "--n", "2"],
        ["export-dot", "--n", "2"],
    ]

    @pytest.mark.parametrize(
        "argv, message",
        [([*a, "--out", "{out}"], "unrecognized arguments: --out {out}") for a in WITH_OUT]
        + [
            (["verify", "--n", "3", "--in", "{colored}"], "unrecognized arguments: --n 3"),
            (["export-dot", "--n", "2", "--in", "{colored}"], "give --n or --in, not both"),
        ],
        ids=[f"{a[0]}-out" for a in WITH_OUT] + ["verify-n", "export-dot-n-beside-coloring"],
    )
    def test_removed_option_is_a_usage_error(self, capsys, monkeypatch, tmp_path, argv, message):
        paths = {"out": tmp_path / "out.txt", "colored": tmp_path / "c.json"}
        doc = _coloring_doc(moebius_max_coloring(2), moebius_ladder(2).graph)
        paths["colored"].write_text(json.dumps(doc))
        code, out, err = run(capsys, monkeypatch, [a.format(**paths) for a in argv])
        assert (code, out) == (3, "")
        assert message.format(**paths) in err
        assert not paths["out"].exists()


@pytest.mark.parametrize(
    "argv",
    [
        ["solve", "--n", "3", "--t", "0"],
        ["solve", "--n", "3", "--t", "-2"],
        ["color", "--n", "1"],
        ["spectrum", "--n", "3", "--node-limit", "0"],
        ["chi-prime", "--n", "1"],
        ["export-dot", "--n", "1"],
        ["spectrum", "--n", "3", "--cap", "-1"],
    ],
)
def test_bad_number_is_a_usage_error(capsys, monkeypatch, argv):
    code, out, err = run(capsys, monkeypatch, argv)
    assert (code, out) == (3, "")
    assert err.startswith(f"usage: intervalcolor {argv[0]} ")
    assert f"argument {argv[-2]}: expected " in err


def test_usage_error_exits_nonzero_via_systemexit():
    # argparse raises SystemExit from parse_args; the wrapper maps its
    # own errors to 3, so the raw SystemExit path must carry 3 as well
    with pytest.raises(SystemExit) as info:
        main(["gen"])  # --n is required
    assert info.value.code == 3
