#!/usr/bin/env python3
"""Alternating base/change pairs of the benchmark, summarised in one JSON file.

Usage:
  python3 scripts/bench_pairs.py --base REV --pairs N --seconds S
                                 --workload {classes,calculus,roots,cli,all}
                                 [--seed FIRST] [--out PATH]

The change is this checkout, uncommitted edits included; the base is
the files of REV, unpacked by ``git archive`` into a temporary
directory that is removed afterwards.  Pair p runs ``bench/run.py --seed FIRST+p --trace 0`` once
in each tree for each workload, the base first in even pairs and the
change first in odd ones.  For every workload and end-to-end metric the
output holds both sides' medians and quartiles, the per-pair
change/base ratios, their median over the pairs where the base ran
first and over those where the change ran first, the geometric mean of
those two medians, the change's wins and a verdict against the bound in
BENCHMARK.json; for every workload,
whether the round-0 report
digests agree and the failed counts of both sides.  The file is
rewritten after each pair, so an interrupted run keeps what it
measured.  Only bench/run.py is driven: no workload, bound or pace
scaling changes.

Verdicts, per metric, on the pairs run:
  worse       the change's median is worse than the base's by more than
              the bound;
  unresolved  the base's own spread (q3 - q1, over its median) is wider
              than the bound, unless every change run beats every base run;
  gain        the change wins at least nine tenths of the pairs, the
              medians differ by more than the base's q3 - q1, and the
              median ratio over the pairs of each run order favours the
              change;
  within      none of these.
The per-order medians differ when the side that runs first in a pair
reads slower or faster than it would run second; a gain has to show in
both, so a run with pairs of one order only never reads gain.  Their
geometric mean is the change/base ratio with the order effect balanced.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import platform
import re
import shutil
import statistics
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
WORKLOADS = ("calculus", "classes", "cli", "roots")
DIGEST_RE = re.compile(r"report digest ([0-9a-f]{64})")


def git(*args: str) -> str:
    return subprocess.run(["git", "-C", str(ROOT), *args], check=True,
                          capture_output=True, text=True).stdout.strip()


@contextlib.contextmanager
def base_tree(rev: str):
    """The files of ``rev`` in a temporary directory; the repository is untouched."""
    holder = tempfile.mkdtemp(prefix="bench-base-")
    try:
        archive = subprocess.run(["git", "-C", str(ROOT), "archive", rev],
                                 check=True, capture_output=True).stdout
        with tarfile.open(fileobj=io.BytesIO(archive)) as tar:
            tar.extractall(holder, filter="data")
        yield Path(holder)
    finally:
        shutil.rmtree(holder, ignore_errors=True)


def run_bench(tree: Path, workload: str, seed: int, seconds: float) -> dict:
    """One untraced bench/run.py run: metric values, counts, round-0 digest."""
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0"],
        cwd=str(tree), capture_output=True, text=True)
    if proc.returncode != 0:
        raise RuntimeError(f"bench/run.py in {tree} exited {proc.returncode}:\n"
                           f"{proc.stderr[-2000:]}")
    summary = json.loads(proc.stdout.strip().splitlines()[-1])
    digest = DIGEST_RE.search(proc.stdout)
    return {
        "metrics": {name: entry["value"] for name, entry in summary["metrics"].items()},
        "attempted": summary["attempted"],
        "failed": summary["failed"],
        "correct": summary["correct"],
        "digest": digest.group(1) if digest else None,
    }


def _quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q2, q3


def base_first(p: int) -> bool:
    """Whether the base runs first in pair ``p`` (counting from 0)."""
    return p % 2 == 0


def _median_or_none(values: list) -> float | None:
    values = [v for v in values if v is not None]
    return statistics.median(values) if values else None


def judge(base: list[float], change: list[float], better: str, bound: float) -> dict:
    """Summary and verdict of one metric over paired runs (base[p], change[p]).

    The per-pair ratios are also summarised by run order, pair p having
    run the base first when ``base_first(p)``; ``gain`` needs both
    per-order medians on the change's side of 1.
    """
    sign = 1 if better == "lower" else -1
    b_q1, b_med, b_q3 = _quartiles(base)
    c_q1, c_med, c_q3 = _quartiles(change)
    # in "cost" terms (sign * value) lower is better for every metric
    cost_base = [sign * v for v in base]
    cost_change = [sign * v for v in change]
    wins = sum(c < b for b, c in zip(cost_base, cost_change))
    spread = b_q3 - b_q1
    ratios = [c / b if b else None for b, c in zip(base, change)]
    by_order = (_median_or_none([r for p, r in enumerate(ratios) if base_first(p)]),
                _median_or_none([r for p, r in enumerate(ratios) if not base_first(p)]))
    both_orders_favour = all(r is not None and sign * (1 - r) > 0 for r in by_order)
    if sign * (c_med - b_med) > bound * abs(b_med):
        verdict = "worse"
    elif spread > bound * abs(b_med) and not max(cost_change) < min(cost_base):
        verdict = "unresolved"
    elif wins >= 0.9 * len(base) and sign * (b_med - c_med) > spread and both_orders_favour:
        verdict = "gain"
    else:
        verdict = "within"
    return {
        "base_median": b_med, "base_q1": b_q1, "base_q3": b_q3,
        "change_median": c_med, "change_q1": c_q1, "change_q3": c_q3,
        "ratio_of_medians": c_med / b_med if b_med else None,
        "ratios": ratios,
        "ratio_base_first": by_order[0],
        "ratio_change_first": by_order[1],
        "ratio_orders_geomean": (by_order[0] * by_order[1]) ** 0.5
        if None not in by_order else None,
        "wins": wins, "pairs": len(base), "better": better, "bound": bound,
        "verdict": verdict,
    }


def summarize(runs: dict, spec: dict) -> dict:
    """Per-workload summary of ``runs[workload] = [(base_run, change_run), ...]``."""
    out = {}
    for workload, pairs in runs.items():
        metrics = {}
        for metric in spec["end_to_end"]:
            name = metric["name"]
            metrics[name] = dict(judge([b["metrics"][name] for b, _ in pairs],
                                       [c["metrics"][name] for _, c in pairs],
                                       metric["better"], metric["bound"]),
                                 unit=metric["unit"])
        out[workload] = {
            "metrics": metrics,
            "digests_equal": all(b["digest"] == c["digest"] for b, c in pairs),
            "digests": [[b["digest"], c["digest"]] for b, c in pairs],
            "attempted": {"base": [b["attempted"] for b, _ in pairs],
                          "change": [c["attempted"] for _, c in pairs]},
            "failed": {"base": [b["failed"] for b, _ in pairs],
                       "change": [c["failed"] for _, c in pairs]},
            "correct": all(b["correct"] and c["correct"] for b, c in pairs),
        }
    return out


def _times(ratio: float | None) -> str:
    return "n/a" if ratio is None else f"{ratio:.3f}x"


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--base", required=True, metavar="REV")
    parser.add_argument("--pairs", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=1, help="seed of the first pair")
    parser.add_argument("--out", default="BENCH.json", metavar="PATH")
    args = parser.parse_args()
    if args.pairs < 1:
        parser.error("--pairs must be at least 1")

    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    workloads = WORKLOADS if args.workload == "all" else (args.workload,)
    record = {
        "base": git("rev-parse", args.base),
        "change": {"head": git("rev-parse", "HEAD"),
                   "uncommitted_edits": bool(git("status", "--porcelain", "--untracked-files=no"))},
        "seconds": args.seconds,
        "seeds": [args.seed + p for p in range(args.pairs)],
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
    }
    runs: dict[str, list] = {name: [] for name in workloads}
    with base_tree(args.base) as base_dir:
        for p, seed in enumerate(record["seeds"]):
            for workload in workloads:
                sides = [("base", base_dir), ("change", ROOT)]
                if not base_first(p):
                    sides.reverse()
                result = {}
                for label, tree in sides:
                    result[label] = run_bench(tree, workload, seed, args.seconds)
                    print(f"pair {p + 1}/{args.pairs} seed {seed} {workload} {label}: "
                          f"wall_s {result[label]['metrics']['wall_s']:.4g}",
                          file=sys.stderr, flush=True)
                runs[workload].append((result["base"], result["change"]))
            record["pairs_done"] = p + 1
            record["workloads"] = summarize(runs, spec)
            Path(args.out).write_text(json.dumps(record, indent=2, sort_keys=True) + "\n",
                                      encoding="utf-8")
    for workload, entry in record["workloads"].items():
        print(f"{workload}: digests {'equal' if entry['digests_equal'] else 'DIFFER'}, "
              f"failed base {sum(entry['failed']['base'])} change {sum(entry['failed']['change'])}")
        for name, m in entry["metrics"].items():
            print(f"  {name:13} {m['base_median']:.4g} -> {m['change_median']:.4g} "
                  f"({_times(m['ratio_of_medians'])}, "
                  f"wins {m['wins']}/{m['pairs']}, "
                  f"base first {_times(m['ratio_base_first'])}, "
                  f"change first {_times(m['ratio_change_first'])}, "
                  f"orders balanced {_times(m['ratio_orders_geomean'])}, "
                  f"base q1-q3 {m['base_q1']:.4g}-{m['base_q3']:.4g}) {m['verdict']}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
