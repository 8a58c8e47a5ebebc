"""A fixed reference computation that measures the machine's speed.

On a shared host the speed of the interpreter swings by up to 1.8x over
seconds to minutes: a pass of `cli-sparse` took 2.1 s in one minute and
3.8 s in another, with the same inputs and the same results. The
swing hits all interpreted code alike, so the benchmark times this
computation between queries and scales every time it reports to the
speed the machine has at that moment: a reported time is the measured
time multiplied by NOMINAL_S over the median reference time measured
alongside it. Scaled, the `cli-sparse` passes above stay within 10% of
their median while the raw times span 2.1-3.8 s.

The computation shares no code with the package and never changes, so
a change to the package moves the scaled times by as much as it moves
the raw ones.
"""

from __future__ import annotations

import json
import time

# about the median of `sample()` on a 2-vCPU Intel Xeon with Python 3.11.7;
# a scale only, so scaled times read about as raw ones did there
NOMINAL_S = 0.005

# take a sample at most this often between queries
EVERY_S = 0.1

_DOC = {"t": 9, "edges": [[i, i + 1, i % 7 + 1] for i in range(1, 1500)]}


def _queens(n: int) -> int:
    """Number of ways to place n non-attacking queens: a bitmask
    backtracking search, the shape of the package's own solver."""
    count = 0

    def place(row: int, cols: int, up: int, down: int) -> None:
        nonlocal count
        if row == n:
            count += 1
            return
        for c in range(n):
            if (cols >> c) & 1 or (up >> (row + c)) & 1 or (down >> (row - c + n)) & 1:
                continue
            place(row + 1, cols | 1 << c, up | 1 << (row + c), down | 1 << (row - c + n))

    place(0, 0, 0, 0)
    return count


def sample() -> float:
    """Wall time of one run of the reference computation."""
    start = time.perf_counter()
    solutions = _queens(8)
    doc = json.loads(json.dumps(_DOC))
    by_color: dict[int, int] = {}
    for _, _, color in doc["edges"]:
        by_color[color] = by_color.get(color, 0) + 1
    elapsed = time.perf_counter() - start
    if solutions != 92 or sum(by_color.values()) != len(_DOC["edges"]):
        raise RuntimeError("reference computation gave a wrong answer")
    return elapsed
