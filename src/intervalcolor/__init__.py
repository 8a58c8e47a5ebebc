"""Interval edge colorings: construction, verification, exact search.

An interval t-coloring of a graph is a proper edge coloring with colors
1..t, all t colors used, where the colors incident to each vertex form
a block of consecutive integers. This package builds such colorings in
closed form for Moebius ladders, verifies arbitrary colorings against
the definition, and decides feasibility for small graphs by exhaustive
search.
"""

from .coloring import (
    EdgeColoring,
    VerificationReport,
    is_interval,
)
from .constructions import color_count_bounds, moebius_max_coloring
from .graph import Edge, Graph, normalize_edge
from .moebius import MoebiusLadder, closed_form_diameter, moebius_ladder
from .solver import (
    FEASIBLE,
    INCONCLUSIVE,
    INFEASIBLE,
    SearchLimitError,
    SearchOutcome,
    SpectrumReport,
    bfs_edge_order,
    chromatic_index,
    chromatic_index_is_delta,
    interval_spectrum,
    is_interval_colorable,
    search_interval_coloring,
)

__version__ = "0.1.0"

__all__ = [
    "Edge",
    "EdgeColoring",
    "Graph",
    "MoebiusLadder",
    "VerificationReport",
    "SearchOutcome",
    "SpectrumReport",
    "SearchLimitError",
    "FEASIBLE",
    "INFEASIBLE",
    "INCONCLUSIVE",
    "normalize_edge",
    "moebius_ladder",
    "closed_form_diameter",
    "is_interval",
    "moebius_max_coloring",
    "color_count_bounds",
    "bfs_edge_order",
    "search_interval_coloring",
    "interval_spectrum",
    "chromatic_index",
    "chromatic_index_is_delta",
    "is_interval_colorable",
    "__version__",
]
