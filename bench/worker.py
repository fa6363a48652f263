"""One round of one workload, in a fresh process.

Set-up is timed first: importing chernforge, in a process that has
not imported it yet.  Building the inputs follows; it runs only the
benchmark's own code, so it is timed apart and not reported as
set-up.  The timed phase then runs every operation of the round once;
outputs are checked only after it.  Before each operation and after
the last, the worker times the reference task of ``pace.py``; each
operation's wall and CPU time is scaled by ``pace.REFERENCE_S`` over
the mean of the two samples around it, and the import time likewise.
The raw times are kept beside the scaled ones.  With ``--trace 1`` the tracer
is installed after set-up and removed before the checks.  The result
is printed as one JSON line on standard output.

Run by run.py as: python3 worker.py --workload W --seed N --round R --trace 0|1
    --workdir DIR --root REPO [--setup-only] [--spans PATH]
"""

from __future__ import annotations

import argparse
import json
import resource
import statistics
import sys
import time

import pace
import workloads


def cpu_time() -> float:
    """CPU seconds of this process and its waited-for children."""
    children = resource.getrusage(resource.RUSAGE_CHILDREN)
    return time.process_time() + children.ru_utime + children.ru_stime


def scale(wall_pace: float, cpu_pace: float) -> tuple[float, float]:
    """Factors that turn wall and CPU seconds into reference seconds."""
    return pace.REFERENCE_S / wall_pace, pace.REFERENCE_S / cpu_pace


def mean_pace(before: tuple[float, float], after: tuple[float, float]) -> tuple[float, float]:
    return (before[0] + after[0]) / 2, (before[1] + after[1]) / 2


def median_pace() -> tuple[float, float]:
    samples = [pace.sample() for _ in range(3)]
    return (statistics.median(w for w, _ in samples),
            statistics.median(c for _, c in samples))


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--round", type=int, default=0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--workdir", required=True)
    parser.add_argument("--root", required=True)
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--spans", default=None)
    args = parser.parse_args()

    pace.sample()  # warm-up
    before = median_pace()
    start = time.perf_counter()
    import chernforge
    import chernforge.cli
    import chernforge.symfun
    raw_setup_s = time.perf_counter() - start
    setup_s = raw_setup_s * scale(*mean_pace(before, median_pace()))[0]
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s, "raw_setup_s": raw_setup_s}))
        return 0
    start = time.perf_counter()
    workload = workloads.WORKLOADS[args.workload](args.seed, args.round, args.workdir,
                                                  args.root, chernforge)
    inputs_s = time.perf_counter() - start

    tracer = None
    if args.trace:
        import tracer as tracing
        tracer = tracing.Tracer()
        tracer.install()

    ops = workload.ops
    raw = []  # (wall, cpu) of each operation
    paces = []  # before each operation, and after the last
    outcomes = []
    for index, op in enumerate(ops):
        paces.append(pace.sample())
        if tracer is not None:
            tracer.begin(index)
        cpu0 = cpu_time()
        began = time.perf_counter()
        try:
            outcome = workload.call(op)
        except Exception as exc:  # a fault of the program under test
            outcome = exc
        wall = time.perf_counter() - began
        raw.append((wall, cpu_time() - cpu0))
        if tracer is not None:
            tracer.end()
        outcomes.append(outcome)
    paces.append(pace.sample())
    latencies = []
    cpu_s = 0.0
    for k, (wall, cpu) in enumerate(raw):
        wall_factor, cpu_factor = scale(*mean_pace(paces[k], paces[k + 1]))
        latencies.append(wall * wall_factor)
        cpu_s += cpu * cpu_factor
    wall_s = sum(latencies)
    peak_rss_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    if tracer is not None:
        tracer.uninstall()

    failed = 0
    errors = []
    digests = []
    kept = []
    for op, outcome, latency in zip(ops, outcomes, latencies):
        try:
            status, digest = workload.check(op, outcome)
        except Exception as exc:  # unreadable output counts as wrong
            status, digest = f"{type(exc).__name__}: {exc}", None
        if digest is not None:
            digests.append(f"{digest}  {op['label']}")
        if status == workloads.FAILED:
            failed += 1
        elif status != workloads.OK:
            errors.append(f"{op['label']}: {status}")
        if not op.get("malformed"):
            kept.append(latency * 1000)

    result = {
        "setup_s": setup_s, "wall_s": wall_s, "cpu_s": cpu_s,
        "raw_setup_s": raw_setup_s, "raw_wall_s": sum(wall for wall, _ in raw),
        "inputs_s": inputs_s,
        "pace_ms": statistics.median(w for w, _ in paces) * 1000,
        "peak_rss_mib": peak_rss_mib, "latencies_ms": kept,
        "attempted": len(ops), "failed": failed, "errors": errors,
        "digests": digests,
    }
    if tracer is not None:
        result["layers"] = tracer.metrics()
        result["missing"] = tracer.missing_metrics()
        result["missing_hooks"] = tracer.missing
        result["spans"] = len(tracer.spans)
        if args.spans:
            tracer.write_spans(args.spans, [op["label"] for op in ops])
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
