"""Run one workload of the treelab benchmark and print its metrics.

    python3 bench/run.py --workload decide --seed 1 --seconds 25 --trace 0

Run it from the root of a checkout: it imports `treelab` from `src/`, writes
its inputs under `.bench_work/`, and exits with code 2, printing no result,
when `src/treelab` is missing.  One closed-loop client on one thread drives
`treelab.cli.main(argv)` in this process, with at most one query in flight.

`--trace 0` times as many whole passes over the workload's queries as fit in
`--seconds` (at least one) and reports the end-to-end metrics, as calibrated
times (see `reference_seconds`).
`--trace 1` makes one untraced pass, then one pass with spans around every
layer (see `tracing.py`), and reports the per-layer metrics.  Both check every
report against the known answer.  The last line of output is one JSON object:
{"correct", "attempted", "failed", "metrics": {name: {"value", "unit"}}}.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import io
import json
import math
import os
import random
import resource
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import tracing  # noqa: E402
import workloads  # noqa: E402

SETUP_REPEATS = 7
# the scale of calibrated times; `reference_seconds()` measured 1.7-2.4 ms on
# a 2-vCPU x86-64 VM with CPython 3.11
NOMINAL_REFERENCE_S = 0.0024


@dataclass
class Pass:
    """What one or more passes over the queries produced."""

    samples: list[list[float]]  # calibrated seconds per run of each query
    first: list[tuple[int | None, str] | None]  # (exit code, report) of each query's first run
    references: list[float] = field(default_factory=list)
    attempted: int = 0
    failed: int = 0
    drift: int = 0  # runs whose report differs from the query's first report
    wall: float = 0.0
    wrong: int = 0
    states: int = 0
    latencies: list[float] = field(default_factory=list)


def reference_seconds() -> float:
    """Fastest of three runs of a fixed piece of dict-and-tuple work.

    The machine's speed drifts by 20-30% over seconds to minutes, in CPU time
    as much as in wall time, so every time the benchmark reports is scaled by
    NOMINAL_REFERENCE_S / (this, measured just before it): a calibrated time.
    """
    best = math.inf
    for _ in range(3):
        start = time.perf_counter()
        table = {}
        for i in range(3000):
            table[(i % 97, i % 89)] = tuple(range(i % 7))
        sum(len(v) for v in table.values())
        best = min(best, time.perf_counter() - start)
    return best


def execute(cli, query: workloads.Query) -> tuple[float, int | None, str]:
    """Time one query from argv to finished report text.  An exception that
    escapes `main` (a traceback) gives exit code None."""
    if query.env_seed is None:
        os.environ.pop("TREELAB_SEED", None)
    else:
        os.environ["TREELAB_SEED"] = str(query.env_seed)
    out, err = io.StringIO(), io.StringIO()
    start = time.perf_counter()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(query.argv)
        except Exception:
            code = None
    return time.perf_counter() - start, code, out.getvalue()


def run_passes(cli, queries, seconds: float, tracer: tracing.Tracer | None = None) -> Pass:
    """Whole passes over the queries: one, then more while another fits in
    ``seconds``.  Garbage left by earlier queries is collected before each
    one, untimed, as a fresh process would start clean.  A query that does
    not exit 0 has failed, and its time counts as infinite.  A query's
    latency is its fastest calibrated run: noise only adds time."""
    result = Pass([[] for _ in queries], [None] * len(queries))
    start = time.perf_counter()
    passes = 0
    while True:
        for k, query in enumerate(queries):
            gc.collect()
            result.references.append(reference_seconds())
            if tracer is not None:
                tracer.begin()
            elapsed, code, report = execute(cli, query)
            result.attempted += 1
            if code != 0:
                result.failed += 1
                elapsed = math.inf
            result.samples[k].append(elapsed * NOMINAL_REFERENCE_S / result.references[-1])
            if result.first[k] is None:
                result.first[k] = (code, report)
            elif result.first[k] != (code, report):
                result.drift += 1
        passes += 1
        spent = time.perf_counter() - start
        if spent * (passes + 1) / passes > seconds:
            break
    result.wall = time.perf_counter() - start
    result.latencies = [min(s) for s in result.samples]
    check(queries, result)
    return result


def check(queries, result: Pass) -> None:
    """Count reports that disagree with the known answer, and printed sizes."""
    result.wrong = result.drift
    for query, (code, report) in zip(queries, result.first):
        if code != 0:
            continue
        try:
            ok, states = query.check(report)
        except Exception:  # a report the check cannot read is a wrong report
            ok, states = False, 0
        result.wrong += not ok
        result.states += states


def percentile(values: list[float], q: float) -> float:
    """The q-quantile, smoothed: the mean of the values ranked within n/20 of
    the nearest rank (ranks 86-95 for the 90th of 100), so one query moving
    across the rank moves it little.  Below 20 values, the nearest rank."""
    ordered = sorted(values)
    rank = max(1, math.ceil(q * len(ordered)))
    half = len(ordered) // 20
    window = ordered[max(0, rank - half): rank + half] if half else ordered[rank - 1: rank]
    return sum(window) / len(window)


def completed_rate(latencies: list[float]) -> float:
    """Queries completed per second of query time, each at its fastest run:
    the rate of the closed loop with one client and no idle time."""
    done = [t for t in latencies if t < math.inf]
    return len(done) / sum(done) if done else 0.0


def setup_seconds() -> float:
    """Median calibrated time for a fresh interpreter to import `treelab.cli`."""
    env = dict(os.environ, PYTHONPATH="src")
    times = []
    for _ in range(SETUP_REPEATS):
        scale = NOMINAL_REFERENCE_S / reference_seconds()
        start = time.perf_counter()
        subprocess.run([sys.executable, "-c", "import treelab.cli"], env=env, check=True)
        times.append((time.perf_counter() - start) * scale)
    return statistics.median(times)


def report_line(name: str, value: float, unit: str) -> None:
    print(f"{name:<48} {value:>14.6g} {unit}")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not Path("src/treelab/cli.py").is_file():
        print("bench: run from the root of a treelab checkout (src/treelab not found)",
              file=sys.stderr)
        return 2
    sys.path.insert(0, "src")
    from treelab import cli

    work = Path(".bench_work")
    inputs = work / f"{args.workload}-{args.seed}-{os.getpid()}"
    rng = random.Random(args.seed)
    try:
        files = workloads.Files(inputs)
        queries = workloads.WORKLOADS[args.workload](rng, files, workloads.Samples(args.seed))
        probes = workloads.deep_spines(rng, files) if args.workload == "bigtrees" else []
        print(f"# {args.workload} seed {args.seed}: {len(queries)} queries")
        # the benchmark's own objects stay out of the program's collections
        gc.collect()
        gc.freeze()
        if args.trace:
            result = traced_run(cli, queries, probes, work / f"spans-{args.workload}-{args.seed}.jsonl")
        else:
            result = timed_run(cli, queries, probes, args.seconds)
    finally:
        shutil.rmtree(inputs, ignore_errors=True)
    print(json.dumps(result))
    return 0


def timed_run(cli, queries, probes, seconds: float) -> dict:
    setup = setup_seconds()
    timed = run_passes(cli, queries, seconds)
    metrics = {
        "setup_s": (setup, "s"),
        "query_p50_ms": (1000 * percentile(timed.latencies, 0.5), "ms"),
        "query_p90_ms": (1000 * percentile(timed.latencies, 0.9), "ms"),
        "queries_per_s": (completed_rate(timed.latencies), "1/s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
        "output_states": (timed.states, "count"),
    }
    print(f"# {timed.attempted} timed runs in {timed.wall:.2f} s; reference loop median "
          f"{1000 * statistics.median(timed.references):.3f} ms, nominal "
          f"{1000 * NOMINAL_REFERENCE_S:.3f} ms")
    for name, (value, unit) in metrics.items():
        report_line(name, value, unit)
    report_line("failed_ratio", timed.failed / timed.attempted, "ratio")
    report_line("wrong_verdicts", timed.wrong, "count")
    wrong = timed.wrong
    if probes:
        probe = run_passes(cli, probes, 0)
        wrong += probe.wrong
        print(f"# deep-spine probe (untimed, spine depth {workloads.SPINE_DEPTH}): "
              f"{probe.failed} of {probe.attempted} queries failed")
    return result_json(wrong, timed.attempted, timed.failed, metrics)


def traced_run(cli, queries, probes, spans_path: Path) -> dict:
    """One untraced pass, then one traced pass, then the probes, traced."""
    untraced = run_passes(cli, queries, 0)
    tracer = tracing.Tracer()
    tracer.install()
    try:
        traced = run_passes(cli, queries, 0, tracer)
        probe = run_passes(cli, probes, 0, tracer) if probes else None
    finally:
        tracer.uninstall()
    tracer.write(spans_path)
    units = {name: unit for name, unit, _ in tracing.METRICS}
    metrics = {
        name: (value, units[name])
        for name, value in tracer.metrics(traced.wall, untraced.wall).items()
    }
    print(f"# traced pass {traced.wall:.2f} s, untraced pass {untraced.wall:.2f} s, "
          f"{len(tracer.spans)} spans written to {spans_path}")
    for name, (value, unit) in metrics.items():
        report_line(name, value, unit)
    runs = [untraced, traced] + ([probe] if probe else [])
    if probe:
        print(f"# deep-spine probe (traced, spine depth {workloads.SPINE_DEPTH}): "
              f"{probe.failed} of {probe.attempted} queries failed")
    return result_json(
        sum(r.wrong for r in runs), untraced.attempted + traced.attempted,
        untraced.failed + traced.failed, metrics,
    )


def result_json(wrong: int, attempted: int, failed: int, metrics: dict) -> dict:
    return {
        "correct": wrong == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }


if __name__ == "__main__":
    sys.exit(main())
