#!/usr/bin/env python3
"""chernforge benchmark: four seeded workloads, checked against an oracle.

Usage:
  python3 bench/run.py --workload {classes,calculus,roots,cli,all}
                       --seed N --seconds S --trace 0|1

Run from the repository root; the program is imported from ./src.  A
run repeats whole rounds of the workload, each round in a fresh
single-threaded worker process, until the next round would overrun
``--seconds`` by more than half a round (at least two rounds and 110
latency samples untraced, one round traced).  Untraced
rounds draw their own inputs from the seed and the round number; every
round runs the same number of operations of each kind, so the share of
failed operations never depends on the seed or the run length.
Untraced runs add six set-up-only workers to the samples for
setup_s.  Times are scaled to the reference pace of ``pace.py``.

--trace 0 prints the end-to-end metrics; --trace 1 runs round 0
untraced and then traced, repeatedly, and prints the per-layer metrics
plus trace.overhead_s.  The last line of standard output is one JSON
object with the keys correct, attempted, failed and metrics.
"""

from __future__ import annotations

import argparse
import compileall
import hashlib
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import pace
import selftest
import tracer
import workloads

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "out"
SETUP_PROBES = 6
MIN_ROUNDS = 2
MIN_SAMPLES = 110  # so that at least ten latencies lie beyond op_p90_ms
RUN_DEADLINE_S = 170

END_TO_END = (("setup_s", "s"), ("wall_s", "s"), ("cpu_s", "s"),
              ("op_p50_ms", "ms"), ("op_p90_ms", "ms"), ("peak_rss_mib", "MiB"))
KNOWN_FAULT = ("malformed configs (non-antisymmetric K, even-degree [rho]) raise a "
               "bare ValueError out of cli.main instead of exiting 2")


class BenchError(Exception):
    pass


def spawn(workload: str, seed: int, trace: int, deadline: float, round_: int = 0,
          setup_only: bool = False, spans: Path | None = None) -> dict:
    """Run one worker to completion and return its result line."""
    remaining = deadline - time.monotonic()
    if remaining <= 0:
        raise BenchError("out of time before the next worker")
    workdir = tempfile.mkdtemp(prefix=f"{workload}-", dir=OUT)
    cmd = [sys.executable, str(BENCH / "worker.py"), "--workload", workload,
           "--seed", str(seed), "--round", str(round_), "--trace", str(trace), "--workdir", workdir,
           "--root", str(ROOT)]
    if setup_only:
        cmd.append("--setup-only")
    if spans is not None:
        cmd += ["--spans", str(spans)]
    env = dict(os.environ, PYTHONPATH=str(SRC))
    try:
        proc = subprocess.run(cmd, capture_output=True, text=True, env=env,
                              cwd=str(BENCH), timeout=remaining)
    except subprocess.TimeoutExpired:
        raise BenchError(f"{workload} worker overran the {RUN_DEADLINE_S} s budget") from None
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    if proc.returncode != 0 or not proc.stdout.strip():
        raise BenchError(f"{workload} worker exited {proc.returncode}:\n{proc.stderr[-3000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def run_rounds(workload: str, seed: int, trace: int, seconds: float,
               started: float, deadline: float, spans: Path | None) -> list[dict]:
    """Whole rounds until the next one would end more than half a round
    after ``seconds``, so that a run lasts about ``seconds`` on average.

    Untraced runs make at least MIN_ROUNDS, and MIN_SAMPLES latencies,
    each round with its own inputs (round r draws from the stream
    "<workload>:<seed>:<r>"), so that a run samples more inputs than one
    round holds.  Traced runs repeat round 0, so that their exact counts
    repeat from round to round.
    """
    min_rounds = 1 if trace else MIN_ROUNDS
    rounds = []
    while True:
        began = time.monotonic()
        round_ = 0 if trace else len(rounds)
        rounds.append(spawn(workload, seed, trace, deadline, round_, spans=spans))
        spans = None  # later traced rounds repeat the same spans
        took = time.monotonic() - began
        enough = trace or sum(len(r["latencies_ms"]) for r in rounds) >= MIN_SAMPLES
        if (len(rounds) >= min_rounds and enough
                and time.monotonic() - started + took / 2 > seconds):
            return rounds


def p90(values: list[float]) -> float:
    return statistics.quantiles(values, n=10, method="inclusive")[8]


def round_digest(result: dict) -> str:
    return hashlib.sha256("\n".join(result["digests"]).encode()).hexdigest()


def run_workload(name: str, seed: int, seconds: float, trace: int,
                 deadline: float) -> dict:
    started = time.monotonic()
    setups = [spawn(name, seed, 0, deadline, setup_only=True)["setup_s"]
              for _ in range(0 if trace else SETUP_PROBES)]
    untraced = []
    spans = None
    if trace:
        untraced = [spawn(name, seed, 0, deadline)]
        spans = OUT / f"spans-{name}-seed{seed}.jsonl.gz"
    rounds = run_rounds(name, seed, trace, seconds, started, deadline, spans)
    everything = untraced + rounds

    errors = [e for r in everything for e in r["errors"]]
    # A traced run repeats round 0 in separate processes (with different
    # hash seeds), so its reports must render the same bytes every time.
    if trace and len({round_digest(r) for r in everything}) > 1:
        errors.append(f"rounds of seed {seed} rendered different report bytes")
    first = everything[0]
    digest_file = OUT / f"digests-{name}-seed{seed}.txt"
    digest_file.write_text("".join(f"{line}\n" for line in first["digests"]))

    attempted = sum(r["attempted"] for r in everything)
    failed = sum(r["failed"] for r in everything)
    latencies = [x for r in rounds for x in r["latencies_ms"]]
    print(f"workload {name} seed {seed}: {len(rounds)} {'traced ' if trace else ''}"
          f"round(s) of {rounds[0]['attempted']} operations, {attempted} attempted, "
          f"{failed} failed, {len(latencies)} latency samples")
    if failed:
        print(f"  failed operations: {KNOWN_FAULT}")
    for line in errors[:10]:
        print(f"  WRONG: {line}")
    if first["digests"]:
        print(f"  report digest {round_digest(first)} over round 0's {len(first['digests'])}"
              f" reports (per report: {digest_file.relative_to(ROOT)})")

    if trace:
        layers = [r["layers"] for r in rounds]
        metrics = {}
        for metric, _, field, unit in tracer.METRICS:
            values = [layer[metric] for layer in layers]
            if field != "self_s" and len(set(values)) > 1:
                print(f"  NOTE: {metric} differs between identical rounds: {values}")
            value = statistics.median(values) if field == "self_s" else values[0]
            metrics[metric] = {"value": value, "unit": unit}
        overhead = (statistics.median(r["wall_s"] for r in rounds) - untraced[0]["wall_s"])
        metrics["trace.overhead_s"] = {"value": overhead, "unit": "s"}
        print(f"  traced wall {statistics.median(r['wall_s'] for r in rounds):.3f} s, "
              f"untraced {untraced[0]['wall_s']:.3f} s, {rounds[0]['spans']} spans "
              f"({spans.relative_to(ROOT)})")
        for hook in rounds[0]["missing_hooks"]:
            print(f"  MISSING hook {hook}; metrics {rounds[0]['missing']} read 0")
    else:
        setups += [r["setup_s"] for r in rounds]
        print(f"  {len(setups)} set-up samples")
        metrics = {
            "setup_s": statistics.median(setups),
            "wall_s": statistics.fmean(r["wall_s"] for r in rounds),
            "cpu_s": statistics.fmean(r["cpu_s"] for r in rounds),
            "op_p50_ms": statistics.median(latencies),
            "op_p90_ms": p90(latencies),
            "peak_rss_mib": statistics.median(r["peak_rss_mib"] for r in rounds),
        }
        metrics = {key: {"value": metrics[key], "unit": unit} for key, unit in END_TO_END}
        print("  " + " | ".join(f"{key} {m['value']:.4g} {m['unit']}"
                                for key, m in metrics.items()))
        print(f"  unscaled: wall_s {statistics.median(r['raw_wall_s'] for r in rounds):.4g} s"
              f" | setup_s {statistics.median(r['raw_setup_s'] for r in rounds):.4g} s"
              f" | input building {statistics.median(r['inputs_s'] for r in rounds):.4g} s"
              f" | pace {statistics.median(r['pace_ms'] for r in rounds):.4g} ms"
              f" (reference {pace.REFERENCE_S * 1000:.4g} ms)")
    return {"correct": not errors, "attempted": attempted, "failed": failed,
            "metrics": metrics}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(workloads.WORKLOADS) + ["all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    # On SIGTERM, unwind through subprocess.run, which kills the worker.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))

    if not (SRC / "chernforge" / "__init__.py").is_file():
        print(f"no chernforge sources under {SRC}; run from a full checkout",
              file=sys.stderr)
        return 2
    failures = selftest.run()
    if failures:
        print("oracle self-tests failed:\n  " + "\n  ".join(failures), file=sys.stderr)
        return 1
    OUT.mkdir(exist_ok=True)
    compileall.compile_dir(str(SRC / "chernforge"), quiet=2)

    names = sorted(workloads.WORKLOADS) if args.workload == "all" else [args.workload]
    deadline = time.monotonic() + RUN_DEADLINE_S * len(names)
    try:
        results = {name: run_workload(name, args.seed, args.seconds, args.trace, deadline)
                   for name in names}
    except BenchError as exc:
        print(f"benchmark aborted: {exc}", file=sys.stderr)
        return 1
    if len(results) == 1:
        summary = results[names[0]]
    else:
        summary = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{name}.{key}": value for name, r in results.items()
                        for key, value in r["metrics"].items()},
        }
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
