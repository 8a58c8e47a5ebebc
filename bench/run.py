"""Benchmark of the intervalcolor package, stdlib only.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout: the package is imported from
./src and nowhere else, and the program exits 2 without a result when
it is not there. Workloads (see BENCHMARK.json and workloads.py):
ladder-spectrum, cli-sparse, ladder-verify.

One run times set-up (a fresh import of the package plus building the
workload's inputs) at least SETUP_REPEATS times and until SETUP_SECONDS
have gone, then makes an untimed warm-up pass over every query of the
workload, whose answers are checked against known answers, and timed
passes until S seconds have gone; later passes must return identical
results. Every reported time is scaled to the machine's speed at the
time, measured by a fixed reference computation run between queries
(see reference.py). With --trace 0 the last line of standard output
holds the end-to-end metrics. With --trace 1 the run alternates
untraced passes with passes that record spans around the package's
modules, and reports per-layer metrics and the tracing overhead instead.
The line before the last holds the machine, the fingerprint (per-query
node counts and verdict digests) and the wrong-verdict count. A run with
a wrong verdict prints "correct": false and exits 1. See METRICS.md.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import importlib
import json
import math
import os
import platform
import resource
import shutil
import statistics
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = "intervalcolor"
SETUP_REPEATS = 7
SETUP_SECONDS = 1.5

# bench/ is on sys.path as the script's directory
import reference  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402


def fresh_import():
    """Import the package from ROOT/src, dropping any earlier import."""
    for name in [k for k in sys.modules if k == PACKAGE or k.startswith(PACKAGE + ".")]:
        del sys.modules[name]
    package = importlib.import_module(PACKAGE)
    importlib.import_module(PACKAGE + ".cli")
    return package


def tail_percentile(count: int) -> int:
    """Highest whole percentile with at least ten samples beyond it, or
    100 (the maximum) when a pass has too few queries for any."""
    for p in range(99, 49, -1):
        if count - math.ceil(p * count / 100) >= 10:
            return p
    return 100


def percentile(values: list[float], p: int) -> float:
    ordered = sorted(values)
    return ordered[max(0, math.ceil(p * len(ordered) / 100) - 1)]


def run_pass(workload, call, judge: "Judge") -> tuple[list[float], float]:
    """Time every query once, judging each result outside the timed part.

    Returns the raw per-query times and the pass's scale: NOMINAL_S over
    the median of the reference samples taken before the first query
    and, at most every EVERY_S, after a query (see reference.py).
    """
    clock = time.perf_counter
    times = []
    samples = [reference.sample()]
    last = clock()
    for i, query in enumerate(workload.queries):
        start = clock()
        try:
            result = call(query)
        except Exception as exc:  # a query that raises is a failed query
            result = ("raised", type(exc).__name__)
        times.append(clock() - start)
        judge.add(i, result)
        if clock() - last >= reference.EVERY_S:
            samples.append(reference.sample())
            last = clock()
    judge.end_pass()
    return times, reference.NOMINAL_S / statistics.median(samples)


class Judge:
    """Checks the first pass against known answers and every later pass,
    traced or not, against the first: identical inputs must give
    identical verdicts, witnesses and node counts."""

    def __init__(self, workload):
        self.workload = workload
        self.digests: list[str] = []
        self.verdicts: list[str] = []
        self.summaries: list = []
        self.first_pass = True
        self.attempted = 0
        self.failed = 0
        self.wrong = 0
        self.failures: dict[str, int] = {}

    def add(self, i: int, result) -> None:
        wl = self.workload
        raised = isinstance(result, tuple) and result[:1] == ("raised",)
        rec = result if raised else wl.record(i, result)
        digest = hashlib.sha256(repr(rec).encode()).hexdigest()
        if self.first_pass:
            self.digests.append(digest)
            self.verdicts.append("failed" if raised else wl.judge(i, rec))
            self.summaries.append(rec if raised else wl.summary(i, rec))
        verdict = self.verdicts[i] if digest == self.digests[i] else "wrong"
        self.attempted += 1
        if verdict == "wrong":
            self.wrong += 1
        elif verdict == "failed":
            self.failed += 1
            kind = rec[1] if raised else "undecided"
            self.failures[kind] = self.failures.get(kind, 0) + 1

    def end_pass(self) -> None:
        self.first_pass = False

    def fingerprint(self) -> dict:
        doc = self.workload.fingerprint(self.summaries)
        doc["sha256"] = hashlib.sha256("".join(self.digests).encode()).hexdigest()
        return doc


def machine(seed: int, traced: bool) -> dict:
    cpu = platform.machine()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh if line.startswith("model name")), cpu)
    except OSError:
        pass
    return {
        "nproc": os.cpu_count(),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "commit": commit(),
        "source_sha256": source_digest(),
        "seed": seed,
        "traced": traced,
    }


def commit() -> str | None:
    """HEAD of ROOT/.git read from its files, or None outside a git checkout."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        loose = git / ref
        if loose.is_file():
            return loose.read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def source_digest() -> str:
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        digest.update(str(path.relative_to(ROOT)).encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()


def measure(workload, judge: Judge, seconds: float, call) -> list[tuple[list[float], float]]:
    """Raw per-query times and scale of each timed pass.

    A first, untimed pass warms the interpreter up and is judged against
    the known answers. Timed passes follow for as long as the next one,
    taken to last as long as the one before, ends within `seconds` of
    the start, so a run never overshoots by a whole pass; there is at
    least one.
    """
    start = time.perf_counter()
    gc.collect()
    run_pass(workload, call, judge)
    passes = []
    while True:
        gc.collect()
        passes.append(run_pass(workload, call, judge))
        if time.perf_counter() - start + sum(passes[-1][0]) > seconds:
            return passes


def end_to_end(passes: list[list[float]], judge: Judge, setup_s: float, tail: int) -> dict:
    return {
        "setup_s": (setup_s, "s"),
        "run_s": (statistics.median(sum(p) for p in passes), "s"),
        "query_ms_p50": (statistics.median(statistics.median(p) * 1e3 for p in passes), "ms"),
        "query_ms_tail": (statistics.median(percentile(p, tail) * 1e3 for p in passes), "ms"),
        "decided_share": ((judge.attempted - judge.failed) / judge.attempted, "share"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }


def unit_of(name: str) -> str:
    if name.endswith("_per_s"):
        return "1/s"
    if name.endswith("_s"):
        return "s"
    if name.endswith("_share"):
        return "share"
    return "count"


def traced_layers(workload, judge: Judge, seconds: float) -> tuple[dict, list[float]]:
    """Per-layer metrics, medians over traced passes, and raw untraced
    pass times. Times are scaled by their pass's reference samples.

    Untraced and traced passes alternate, so both see the same spells of
    machine speed and their ratio measures the tracing overhead.
    """
    tracer = tracing.Tracer()
    per_pass: list[dict] = []
    plain = []
    traced = []
    start = time.perf_counter()
    gc.collect()
    run_pass(workload, lambda q: q(), judge)  # warm-up, as in measure()
    raw = []
    while True:
        gc.collect()
        times, scale = run_pass(workload, lambda q: q(), judge)
        raw.append(sum(times))
        plain.append(raw[-1] * scale)
        gc.collect()
        tracer.spans = []
        with tracer.install(PACKAGE):
            times, scale = run_pass(workload, tracer.query, judge)
        traced.append(sum(times) * scale)
        layers = tracing.layer_metrics(tracer.spans, len(workload.queries))
        for key, value in layers.items():
            if unit_of(key) == "s":
                layers[key] = value * scale
            elif unit_of(key) == "1/s":
                layers[key] = value / scale
        per_pass.append(layers)
        if time.perf_counter() - start + raw[-1] + sum(times) > seconds:
            break
    tracer.spans = []
    layers = {}
    for key, value in per_pass[0].items():
        # counts repeat exactly from pass to pass; keep them integers
        median = statistics.median_low if isinstance(value, int) else statistics.median
        layers[key] = median(p[key] for p in per_pass)
    layers["trace.run_s"] = statistics.median(traced)
    layers["trace.overhead_share"] = layers["trace.run_s"] / statistics.median(plain) - 1
    return layers, raw


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / PACKAGE / "__init__.py").is_file():
        print(f"bench: no {PACKAGE} sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))

    (ROOT / ".bench_build").mkdir(exist_ok=True)
    workdir = tempfile.mkdtemp(prefix="intervalcolor-", dir=ROOT / ".bench_build")
    try:
        setup = []
        samples = []
        while len(setup) < SETUP_REPEATS or sum(setup) < SETUP_SECONDS:
            workload = None  # so the previous set-up's inputs are freed first
            gc.collect()
            samples.append(reference.sample())
            start = time.perf_counter()
            package = fresh_import()
            workload = workloads.WORKLOADS[args.workload](package, args.seed, workdir)
            setup.append(time.perf_counter() - start)
        origin = Path(package.__file__).resolve()
        if ROOT / "src" not in origin.parents:
            print(f"bench: imported {PACKAGE} from {origin}, not from ./src", file=sys.stderr)
            return 2

        judge = Judge(workload)
        queries = len(workload.queries)
        tail = tail_percentile(queries)
        setup_scale = reference.NOMINAL_S / statistics.median(samples)
        raw_metrics = None
        if args.trace:
            layers, passes = traced_layers(workload, judge, args.seconds)
            metrics = {k: (v, unit_of(k)) for k, v in layers.items()}
        else:
            runs = measure(workload, judge, args.seconds, lambda q: q())
            setup_s = statistics.median(setup)
            scaled = [[t * scale for t in times] for times, scale in runs]
            metrics = end_to_end(scaled, judge, setup_s * setup_scale, tail)
            raw_metrics = end_to_end([t for t, _ in runs], judge, setup_s, tail)
            passes = [sum(t) for t, _ in runs]
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    context = {
        "workload": args.workload,
        "machine": machine(args.seed, bool(args.trace)),
        "reference_ms": reference.NOMINAL_S / setup_scale * 1e3,
        "raw_metrics": raw_metrics and {k: v for k, (v, _) in raw_metrics.items()},
        "pass_run_s": passes,
        "queries_per_pass": queries,
        "tail_percentile": tail,
        "setup_repeats": len(setup),
        "wrong_verdicts": {"value": judge.wrong, "unit": "count"},
        "failures_by_type": dict(sorted(judge.failures.items())),
        "fingerprint": judge.fingerprint(),
    }
    print(json.dumps(context))
    correct = judge.wrong == 0
    print(json.dumps({
        "correct": correct,
        "attempted": judge.attempted,
        "failed": judge.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
