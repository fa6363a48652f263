"""Command-line front end.

Three subcommands: ``chern`` and ``odd`` evaluate classes of a cycle
described by a config file; ``verify`` runs a named property suite over
seeded cases.  Every number in every report is exact and the same seed
produces byte-identical output.

Exit codes: 0 success; 1 an identity check failed (a ``verify`` check
that does not hold or raises, or a ``chern``/``odd`` postcondition,
reported as one ``postcondition failed:`` line); 2 parse/usage error (a
config that cannot be read or parsed, or a report that cannot be
written); 3 precondition violation, among them a torus dimension above
``config.MAX_DIM``.
"""

from __future__ import annotations

import argparse
import functools
import io
import json
import sys

from .config import parse_config
from .diffchar import chern_class, odd_chern_class
from .errors import ConfigError, PreconditionError
from .verify import SUITES, run_suite


class _OutputError(Exception):
    """The report could not be written to ``--out``."""


def _case_count(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected an integer, got {text!r}") from None
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {value}")
    return value


def _subset_key(subset) -> str:
    return ",".join(str(j) for j in subset)


def _class_entry(index: int, char) -> dict:
    periods = {_subset_key(subset): value
               for subset, value in sorted(char.period_table().items())}
    holonomies = {_subset_key(subset): str(value)
                  for subset, value in sorted(char.holonomy_table().items())}
    return {
        "index": index,
        "degree": char.degree,
        "curvature": char.curvature().to_text().splitlines(),
        "periods": periods,
        "holonomies": holonomies,
    }


def _render_text(report: dict) -> str:
    out = io.StringIO()
    command = report["command"]
    if command in ("chern", "odd"):
        out.write(f"# {command} classes on T^{report['dim']}\n")
        for entry in report["classes"]:
            out.write(f"class index {entry['index']} (degree {entry['degree']})\n")
            out.write("  curvature:\n")
            for line in entry["curvature"]:
                out.write(f"    {line}\n")
            out.write("  periods:\n")
            for key, value in entry["periods"].items():
                out.write(f"    [{key}] {value}\n")
            if not entry["periods"]:
                out.write("    (all zero)\n")
            out.write("  holonomies:\n")
            for key, value in entry["holonomies"].items():
                out.write(f"    [{key}] {value}\n")
            if not entry["holonomies"]:
                out.write("    (none)\n")
    else:
        suite = report["suite"]
        out.write(f"# verify suite {suite['suite']} (seed {suite['seed']})\n")
        out.write(f"checks: {suite['checks']}\n")
        out.write(f"passes: {suite['passes']}\n")
        out.write(f"failures: {suite['failures']}\n")
        verdict = "PASS" if suite["ok"] else "FAIL"
        out.write(f"verdict: {verdict}\n")
        if suite["first_counterexample"] is not None:
            out.write("first counterexample: "
                      + json.dumps(suite["first_counterexample"], sort_keys=True)
                      + "\n")
    return out.getvalue()


def _render_csv(report: dict) -> str:
    import csv  # only this renderer needs it, so importing the module stays cheap

    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    command = report["command"]
    if command in ("chern", "odd"):
        writer.writerow(["index", "kind", "key", "value"])
        for entry in report["classes"]:
            for line in entry["curvature"]:
                writer.writerow([entry["index"], "curvature", "", line])
            for key, value in entry["periods"].items():
                writer.writerow([entry["index"], "period", key, value])
            for key, value in entry["holonomies"].items():
                writer.writerow([entry["index"], "holonomy", key, value])
    else:
        writer.writerow(["field", "value"])
        suite = report["suite"]
        for key in ("suite", "seed", "checks", "passes", "failures", "ok"):
            writer.writerow([key, suite[key]])
        if suite["first_counterexample"] is not None:
            writer.writerow(["first_counterexample",
                             json.dumps(suite["first_counterexample"], sort_keys=True)])
    return out.getvalue()


def _emit(report: dict, fmt: str, out_path) -> None:
    if fmt == "json":
        rendered = json.dumps(report, indent=2, sort_keys=True) + "\n"
    elif fmt == "csv":
        rendered = _render_csv(report)
    else:
        rendered = _render_text(report)
    if out_path:
        try:
            with open(out_path, "w", encoding="utf-8") as handle:
                handle.write(rendered)
        except OSError as exc:
            raise _OutputError(exc) from None
    else:
        sys.stdout.write(rendered)


def _read_config(path: str):
    """``parse_config`` of the file at ``path``; unreadable files are config errors."""
    try:
        with open(path, encoding="utf-8") as handle:
            text = handle.read()
    except OSError as exc:
        raise ConfigError(str(exc)) from None
    except UnicodeDecodeError as exc:
        raise ConfigError(f"{path}: not UTF-8 text (byte {exc.start})") from None
    return parse_config(text)


def _cmd_chern(args) -> int:
    indices, cycle, _ = _read_config(args.config)
    indices = indices or list(range(1, cycle.n // 2 + 1))
    if not indices:
        raise PreconditionError(f"T^{cycle.n} carries no even classes")
    classes = [_class_entry(i, chern_class(cycle, i)) for i in indices]
    report = {"command": "chern", "dim": cycle.n, "classes": classes}
    _emit(report, args.format, args.out)
    return 0


def _cmd_odd(args) -> int:
    indices, _, cycle = _read_config(args.config)
    if not cycle.components:
        raise ConfigError("no [component] blocks for an odd cycle")
    indices = indices or list(range(1, cycle.n + 1, 2))
    if not indices:
        raise PreconditionError(f"T^{cycle.n} carries no odd classes")
    classes = [_class_entry(i, odd_chern_class(cycle, i)) for i in indices]
    report = {"command": "odd", "dim": cycle.n, "classes": classes}
    _emit(report, args.format, args.out)
    return 0


def _cmd_verify(args) -> int:
    suite = run_suite(args.suite, seed=args.seed, cases=args.cases)
    report = {"command": "verify", "suite": suite}
    _emit(report, args.format, args.out)
    return 0 if suite["ok"] else 1


class _Parser(argparse.ArgumentParser):
    """Argument parser whose usage errors are one stderr line, exit 2.

    Subparsers inherit the class, so every subcommand reports the same way.
    """

    def error(self, message):
        self.exit(2, f"{self.prog}: error: {message}\n")


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The argument tree, built once per process on the first call.

    Not at import, so importing the module stays cheap; ``parse_args``
    does not change the parser, so every request may share it.
    """
    parser = _Parser(
        prog="chernforge",
        description="Exact differential Chern class computations on flat tori.")
    sub = parser.add_subparsers(dest="command", required=True)

    common = _Parser(add_help=False)
    common.add_argument("--format", choices=("text", "json", "csv"), default="text")
    common.add_argument("--out", metavar="PATH", default=None,
                        help="write the report to a file instead of stdout")

    chern = sub.add_parser("chern", parents=[common],
                           help="evaluate even classes of a configured cycle")
    chern.add_argument("--config", required=True, metavar="PATH")
    chern.set_defaults(func=_cmd_chern)

    odd = sub.add_parser("odd", parents=[common],
                         help="evaluate odd classes of a configured cycle")
    odd.add_argument("--config", required=True, metavar="PATH")
    odd.set_defaults(func=_cmd_odd)

    verify = sub.add_parser("verify", parents=[common],
                            help="run a named verification suite")
    verify.add_argument("--suite", required=True, choices=sorted(SUITES), metavar="NAME")
    verify.add_argument("--seed", type=int, default=0)
    verify.add_argument("--cases", type=_case_count, default=None,
                        help="number of seeded cases (at least 1)")
    verify.set_defaults(func=_cmd_verify)
    return parser


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except _OutputError as exc:
        print(f"output error: {exc}", file=sys.stderr)
        return 2
    except PreconditionError as exc:
        print(f"precondition violated: {exc}", file=sys.stderr)
        return 3
    except ArithmeticError as exc:
        print(f"postcondition failed: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
