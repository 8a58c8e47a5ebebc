"""End-to-end acceptance run.

Each test covers one headline capability of the package and prints a
single ACCEPTANCE line so the whole gate reads off a `pytest -v` run:

1. the closed-form ladder coloring is a valid interval (n+2)-coloring
   for every n up to 200;
2. the ladder diameter closed form matches BFS for every n up to 400;
3. exhaustive sweeps of the ladders M_2n, n <= 18, find exactly the
   color counts 3..n+2, with the count above that range proven
   infeasible, after exactly the node counts checked in as
   tests/artifacts/moebius_spectrum.csv;
4. ladders have chromatic index 3 and are interval colorable, while the
   Petersen graph and C_5 are class two and excluded;
5. the backtracking solver agrees with brute-force enumeration, for
   t = 1..6, over every connected graph with at most 6 vertices and 9
   edges and every connected graph with 7 vertices and at most 8 edges
   (110 + 111 graphs, 1,326 cases);
6. randomized solver runs over the same corpus are sound, byte-stable,
   and give the same witness as plain enumeration.

The corpus sweeps (5 and 6) take about 6 s together on one core. Wider
corpora cost more than they add: 7 vertices with up to 9 edges adds 107
graphs and about 11 s, and t = 7 on 9 edges needs 7^9 assignments, past
the brute-force oracle's memory cap.
"""

import json
import random
import time
from pathlib import Path

import pytest

from intervalcolor import (
    FEASIBLE,
    INFEASIBLE,
    Graph,
    chromatic_index_is_delta,
    closed_form_diameter,
    interval_spectrum,
    is_interval,
    is_interval_colorable,
    moebius_ladder,
    moebius_max_coloring,
    search_interval_coloring,
)
from oracles import (
    brute_force_feasible,
    cycle,
    first_interval_coloring,
    naive_interval_verdict,
    petersen,
    small_connected_graphs,
)

ARTIFACTS = Path(__file__).parent / "artifacts"


def test_acceptance_1_closed_form_coloring_valid_for_all_ladders_to_200():
    started = time.perf_counter()
    for n in range(2, 201):
        g = moebius_ladder(n).graph
        coloring = moebius_max_coloring(n)
        assert coloring.t == n + 2
        assert set(coloring.assignment) == set(g.edges)
        assert set(coloring.assignment.values()) == set(range(1, n + 3))
        assert is_interval(g, coloring).verdict
    elapsed = time.perf_counter() - started
    assert elapsed < 30.0
    print(f"\nACCEPTANCE 1: PASS (n=2..200 in {elapsed:.2f}s)")


def test_acceptance_2_diameter_closed_form_matches_bfs_to_400():
    started = time.perf_counter()
    for n in range(2, 401):
        assert moebius_ladder(n).graph.diameter() == closed_form_diameter(n)
    elapsed = time.perf_counter() - started
    assert elapsed < 30.0
    print(f"\nACCEPTANCE 2: PASS (n=2..400 in {elapsed:.2f}s)")


def _ladder_spectrum_rows(ns):
    """CSV rows of complete spectrum sweeps of M_2n, after checking that
    each finds exactly 3..n+2 with valid witnesses."""
    rows = []
    for n in ns:
        g = moebius_ladder(n).graph
        report = interval_spectrum(g, "auto")
        assert report.inconclusive_t == ()
        assert report.feasible_t == tuple(range(3, n + 3))
        assert report.min_colors == 3
        assert report.max_colors == n + 2
        for t, witness in report.witnesses.items():
            assert witness.t == t
            assert is_interval(g, witness).verdict
        if n % 2 == 0:
            # the cap leaves room above n+2, so the sweep itself must
            # rule the next count out
            top = report.entries[-1]
            assert top.t == n + 3
            assert top.status == INFEASIBLE
        else:
            # the upper bound already equals n+2; nothing above to try
            assert report.t_max_searched == n + 2
        for entry in report.entries:
            verdict = {FEASIBLE: "true", INFEASIBLE: "false"}[entry.status]
            rows.append(f"{n},{entry.t},{verdict},{entry.nodes}")
    return rows


def _checked_in_rows(ns):
    lines = (ARTIFACTS / "moebius_spectrum.csv").read_text().splitlines()
    assert lines[0] == "n,t,feasible,nodes_searched"
    return [row for row in lines[1:] if int(row.split(",")[0]) in ns]


def test_acceptance_3_small_ladder_spectra_are_exactly_3_to_n_plus_2():
    # node counts change only with a deliberate change to pruning
    ns = range(2, 7)
    assert _ladder_spectrum_rows(ns) == _checked_in_rows(ns)
    print("\nACCEPTANCE 3: PASS (n=2..6; matches tests/artifacts/moebius_spectrum.csv)")


def test_acceptance_3_ladder_spectra_to_n_14():
    # includes the proofs that t = n+3 is infeasible for n = 8, 10, 12, 14
    # (the last takes about 22,000 nodes)
    started = time.perf_counter()
    ns = range(7, 15)
    assert _ladder_spectrum_rows(ns) == _checked_in_rows(ns)
    elapsed = time.perf_counter() - started
    print(f"\nACCEPTANCE 3: PASS (n=7..14 in {elapsed:.1f}s; matches the checked-in CSV)")


def test_acceptance_3_ladder_spectra_n_15_to_18():
    # the paper's even-n upper end: t = 19 and t = 21 are infeasible for
    # n = 16 and n = 18 (the last proof takes about 86,000 nodes)
    started = time.perf_counter()
    ns = range(15, 19)
    assert _ladder_spectrum_rows(ns) == _checked_in_rows(ns)
    elapsed = time.perf_counter() - started
    print(f"\nACCEPTANCE 3: PASS (n=15..18 in {elapsed:.1f}s; matches the checked-in CSV)")


def test_acceptance_4_ladders_class_one_and_interval_colorable():
    for n in range(2, 9):
        g = moebius_ladder(n).graph
        assert chromatic_index_is_delta(g)
        assert is_interval_colorable(g)
    assert not chromatic_index_is_delta(Graph(*petersen()))
    assert not chromatic_index_is_delta(Graph(*cycle(5)))
    assert not is_interval_colorable(Graph(*petersen()))
    print("\nACCEPTANCE 4: PASS (ladders n=2..8 in, Petersen and C_5 out)")


@pytest.fixture(scope="module")
def corpus():
    seven = [(nv, edges) for nv, edges in small_connected_graphs(7, 8) if nv == 7]
    return small_connected_graphs(max_vertices=6, max_edges=9) + seven


def test_acceptance_5_solver_matches_brute_force_on_small_graphs(corpus):
    started = time.perf_counter()
    cases = 0
    for n_vertices, edges in corpus:
        g = Graph(n_vertices, edges)
        for t in range(1, 7):
            expected = brute_force_feasible(n_vertices, edges, t)
            outcome = search_interval_coloring(g, t)
            assert (outcome.status == FEASIBLE) == expected, (n_vertices, edges, t)
            cases += 1
    elapsed = time.perf_counter() - started
    print(f"\nACCEPTANCE 5: PASS ({cases} graph/t cases in {elapsed:.1f}s)")


def test_acceptance_6_randomized_runs_sound_stable_and_prune_invariant(corpus):
    graphs = [Graph(nv, edges) for nv, edges in corpus]

    rng = random.Random(31415)
    draws = [(rng.randrange(len(graphs)), rng.randint(1, 6)) for _ in range(1000)]
    witnesses = 0
    for gi, t in draws:
        g = graphs[gi]
        outcome = search_interval_coloring(g, t)
        if outcome.status == FEASIBLE:
            witnesses += 1
            assert naive_interval_verdict(
                g.vertex_count,
                g.edges,
                outcome.coloring.assignment,
                t,
            )
        else:
            assert outcome.status == INFEASIBLE
            assert outcome.coloring is None
    assert witnesses > 0

    def run_bytes(g, t):
        outcome = search_interval_coloring(g, t)
        doc = {"status": outcome.status, "nodes": outcome.nodes}
        if outcome.coloring is not None:
            doc["colors"] = outcome.coloring.to_json_dict()
        return json.dumps(doc, sort_keys=True).encode()

    for gi, t in draws[::40]:
        assert run_bytes(graphs[gi], t) == run_bytes(graphs[gi], t)

    mismatches = 0
    for (nv, edges), g in zip(corpus, graphs):
        for t in range(1, 7):
            fast = search_interval_coloring(g, t)
            status, colors = first_interval_coloring(nv, edges, t)
            if fast.status != status or (
                colors is not None and dict(fast.coloring.assignment) != colors
            ):
                mismatches += 1
    assert mismatches == 0
    print(f"\nACCEPTANCE 6: PASS (1000 runs, {witnesses} witnesses, same as plain enumeration)")
