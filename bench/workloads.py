"""The four benchmark workloads: inputs, operations and output checks.

An operation is one user-level request.  Every input of round r is
derived from the benchmark seed through
``random.Random(f"<workload>:<seed>:<r>")``; per-request seeds for
``verify`` are drawn from that stream.  Rounds draw different inputs
but the same number of operations of each kind.  The
program receives only the generated inputs.  Outputs are read through
documented interfaces only: JSON reports, rendered polynomial text and
``RootPoly``/``GradedPoly`` equality.

This module does not import chernforge at top level, so that the
worker can time the import as part of set-up.
"""

from __future__ import annotations

import hashlib
import json
import os
from fractions import Fraction
from math import factorial
from random import Random

import oracle

# Round make-up: (suite, cases per request, requests).  Sizes are chosen
# so that one round takes a few seconds and its cost varies little from
# seed to seed.  Every whitney request checks at least one pair on T^6,
# whose cost varies most, so whitney gets few requests; diagram with 5
# cases reaches T^6 and with 4 cases stops at T^5.
CLASSES_PLAN = (("whitney", 5, 1), ("diagram", 5, 22), ("diagram", 4, 15))
CALCULUS_PLAN = (("naturality", 3, 40), ("calculus", 20, 40), ("gauge", 2, 40),
                 ("paths", 2, 40), ("odd", 5, 40))
ROOTS_MAX_DEGREE = 8  # the default truncation degree of the program
ROOTS_MAX_K = 10
# Generated configs per torus dimension; ranks (component counts for
# odd cycles) cycle through 1..MAX_RANK.  A T^6 config costs four times
# a T^5 one and varies most, so n = 6 gets few configs per round: a run
# then holds more rounds, and its percentiles more distinct configs.
CLI_CHERN_CONFIGS = {2: 20, 3: 20, 4: 30, 5: 30, 6: 15}
CLI_ODD_PER_DIM = 15
MAX_RANK = 3

# Malformed configs that must exit 2 (input error).  Both raise a bare
# ValueError out of ``cli.main`` at present, so they are counted as
# failed operations until that exit path is mended.
MALFORMED = {
    "malformed-nonantisymmetric-K": "dim = 2\n\n[line]\nK = 0 1 / 1 0\n",
    "malformed-even-degree-rho":
        "dim = 2\n\n[line]\nK = 0 1 / -1 0\n\n[rho]\nterms = (1/5+0i) exp[0,0] d{1,2}\n",
}

OK, FAILED = "ok", "failed"


def digest(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


class VerifyWorkload:
    """``verify`` requests served in-process by ``chernforge.cli.main``."""

    plan: tuple = ()

    def __init__(self, seed: int, round_: int, workdir: str, root: str, chernforge):
        self.cf = chernforge
        rng = Random(f"{self.name}:{seed}:{round_}")
        self.ops = []
        for suite, cases, count in self.plan:
            seeds: set[int] = set()
            while len(seeds) < count:
                seeds.add(rng.randrange(2 ** 31))
            for req in sorted(seeds):
                out = os.path.join(workdir, f"{suite}-{cases}-{req}.json")
                self.ops.append({
                    "label": f"verify --suite {suite} --seed {req} --cases {cases}",
                    "suite": suite, "seed": req, "cases": cases, "out": out,
                    "argv": ["verify", "--suite", suite, "--seed", str(req),
                             "--cases", str(cases), "--format", "json", "--out", out],
                })
        rng.shuffle(self.ops)

    def call(self, op):
        return self.cf.cli.main(op["argv"])

    def check(self, op, outcome):
        """(status, report digest): status is OK, FAILED or what went wrong."""
        if outcome != 0:
            return f"exit {outcome!r}", None
        with open(op["out"], "rb") as handle:
            data = handle.read()
        suite = json.loads(data)["suite"]
        if suite["suite"] != op["suite"] or suite["seed"] != op["seed"]:
            return "report names another request", digest(data)
        if suite["ok"] is not True or suite["failures"] != 0:
            return f"verdict not ok: {suite['first_counterexample']!r}", digest(data)
        if suite["checks"] < op["cases"] or suite["passes"] != suite["checks"]:
            return f"only {suite['checks']} checks for {op['cases']} cases", digest(data)
        return OK, digest(data)


class ClassesWorkload(VerifyWorkload):
    name = "classes"
    plan = CLASSES_PLAN


class CalculusWorkload(VerifyWorkload):
    name = "calculus"
    plan = CALCULUS_PLAN


class RootsWorkload:
    """Direct ``symfun`` calls: root expansions and sum identities.

    Every (i, k) with i <= 8 and k <= 10 occurs once per polynomial
    family, with a seeded truncation bound in [i, 8], so the triples are
    pairwise distinct and the cost of a round hardly depends on the seed.
    The "chern" family expands chern_polynomial(i) (oracle: e_i by subset
    enumeration), the "ch" family the round trip of ch_from_chern(j)
    (oracle: sum_a x_a^j / j!).
    """

    name = "roots"

    def __init__(self, seed: int, round_: int, workdir: str, root: str, chernforge):
        self.cf = chernforge
        rng = Random(f"roots:{seed}:{round_}")
        self.ops = []
        for family in ("chern", "ch"):
            for i in range(1, ROOTS_MAX_DEGREE + 1):
                for k in range(1, ROOTS_MAX_K + 1):
                    bound = rng.randint(i, ROOTS_MAX_DEGREE)
                    roots = [rng.randint(-4, 4) for _ in range(k)]
                    self.ops.append({"label": f"{family} i={i} k={k} bound={bound}",
                                     "family": family, "i": i, "k": k,
                                     "bound": bound, "roots": roots})
        for bound in range(1, ROOTS_MAX_DEGREE + 1):
            self.ops.append({"label": f"sum identity bound={bound}",
                             "family": "sum", "bound": bound})
        rng.shuffle(self.ops)

    def call(self, op):
        symfun = self.cf.symfun
        if op["family"] == "sum":
            return symfun.verify_sum_identity(op["bound"])
        if op["family"] == "chern":
            poly = symfun.chern_polynomial(op["i"])
            return poly, symfun.expand_in_roots(poly, op["k"], op["bound"])
        # expand_in_roots reads s_m as the character component p_m/m!, so
        # ch_from_chern(j) (written in the Chern classes) is expanded after
        # substituting the universal polynomials: the round trip is s_j.
        poly = symfun.ch_from_chern(op["i"])
        round_trip = poly.substitute(lambda var: symfun.chern_polynomial(var[1]))
        return poly, symfun.expand_in_roots(round_trip, op["k"], op["bound"])

    def check(self, op, outcome):
        symfun = self.cf.symfun
        if op["family"] == "sum":
            ok, discrepancy = outcome
            if ok is not True or discrepancy != symfun.GradedPoly():
                return "sum identity has a nonzero discrepancy", None
            return OK, None
        poly, expanded = outcome
        i, k, bound, roots = op["i"], op["k"], op["bound"], op["roots"]
        if op["family"] == "chern":
            want = oracle.elementary_in_roots(i, k, bound)
            value = oracle.evaluate_rendered(poly.render(), oracle.character_values(roots, i))
            target = oracle.elementary_value(roots, i)
        else:
            want = oracle.character_in_roots(i, k, bound)
            value = oracle.evaluate_rendered(poly.render(), oracle.elementary_values(roots, i))
            target = Fraction(oracle.power_sum(roots, i), factorial(i))
        if expanded != symfun.RootPoly(k, bound, want):
            return "root expansion differs from the enumeration", None
        if value != target:
            return f"polynomial at roots {roots} gives {value}, want {target}", None
        return OK, None


# -- generated configs ----------------------------------------------------


def _frac(rng: Random, num: int = 3, den: int = 6) -> Fraction:
    return Fraction(rng.randint(-num, num), rng.randint(1, den))


def _term(re: Fraction, im: Fraction, freq, idx) -> str:
    sign = "+" if im >= 0 else "-"
    return (f"({re}{sign}{abs(im)}i) exp[{','.join(map(str, freq))}] "
            f"d{{{','.join(map(str, idx))}}}")


def _nonzero_freq(rng: Random, n: int) -> list[int]:
    while True:
        freq = [rng.randint(-1, 1) for _ in range(n)]
        if any(freq):
            return freq


def _real_modes(rng: Random, n: int, degree: int, modes: int) -> list[str]:
    """Conjugate-symmetric Fourier pairs of one degree: a real form."""
    terms = []
    for _ in range(modes):
        idx = sorted(rng.sample(range(1, n + 1), degree))
        freq = _nonzero_freq(rng, n)
        re = Fraction(rng.choice((-3, -2, -1, 1, 2, 3)), rng.randint(1, 6))
        im = _frac(rng)
        terms.append(_term(re, im, freq, idx))
        terms.append(_term(re, -im, [-f for f in freq], idx))
    return terms


def _chern_config(rng: Random, n: int, rank: int) -> str:
    """Lines with random K, theta and one beta mode; rho of degree 1 (and 3)."""
    out = [f"dim = {n}"]
    for _ in range(rank):
        rows = [[0] * n for _ in range(n)]
        for j in range(n):
            for l in range(j + 1, n):
                rows[j][l] = rng.randint(-3, 3)
                rows[l][j] = -rows[j][l]
        out += ["", "[line]",
                "K = " + " / ".join(" ".join(map(str, row)) for row in rows),
                "theta = " + " ".join(str(_frac(rng, 2)) for _ in range(n)),
                "beta = " + " + ".join(_real_modes(rng, n, 1, 1))]
    rho = _real_modes(rng, n, 1, 2)
    rho.append(_term(_frac(rng), Fraction(0), [0] * n, [rng.randint(1, n)]))
    if n >= 3:
        rho += _real_modes(rng, n, 3, 1)
    out += ["", "[rho]", "terms = " + " + ".join(rho)]
    return "\n".join(out) + "\n"


def _odd_config(rng: Random, n: int, components: int) -> str:
    """Components with random windings and a one-mode sine phase."""
    out = [f"dim = {n}"]
    for _ in range(components):
        freq = _nonzero_freq(rng, n)
        half = Fraction(rng.choice((-3, -2, -1, 1, 2, 3)), 2 * rng.randint(1, 6))
        out += ["", "[component]",
                "winding = " + " ".join(str(rng.randint(-3, 3)) for _ in range(n)),
                "phase = " + _term(Fraction(0), -half, freq, []) + " + "
                + _term(Fraction(0), half, [-f for f in freq], [])]
    return "\n".join(out) + "\n"


class CliWorkload:
    """``chern``/``odd`` on generated and example configs, JSON to a file."""

    name = "cli"

    def __init__(self, seed: int, round_: int, workdir: str, root: str, chernforge):
        self.cf = chernforge
        rng = Random(f"cli:{seed}:{round_}")
        jobs = []
        for n, count in CLI_CHERN_CONFIGS.items():
            jobs += [("chern", f"chern-n{n}-{c}", _chern_config(rng, n, 1 + c % MAX_RANK))
                     for c in range(count)]
        for n in range(1, 7):
            jobs += [("odd", f"odd-n{n}-{c}", _odd_config(rng, n, 1 + c % MAX_RANK))
                     for c in range(CLI_ODD_PER_DIM)]
        for command, example in (("chern", "example_even"), ("odd", "example_odd")):
            with open(os.path.join(root, "scripts", f"{example}.cfg"), encoding="utf-8") as handle:
                jobs.append((command, example, handle.read()))
        jobs += [("chern", stem, text) for stem, text in MALFORMED.items()]
        self.ops = []
        for command, stem, text in jobs:
            config = os.path.join(workdir, f"{stem}.cfg")
            with open(config, "w", encoding="utf-8") as handle:
                handle.write(text)
            out = os.path.join(workdir, f"{stem}.json")
            self.ops.append({
                "label": f"{command} --config {stem}.cfg", "command": command,
                "text": text, "out": out, "malformed": stem in MALFORMED,
                "argv": [command, "--config", config, "--format", "json", "--out", out],
            })
        rng.shuffle(self.ops)

    def call(self, op):
        return self.cf.cli.main(op["argv"])

    def check(self, op, outcome):
        if op["malformed"]:
            if outcome == 2:
                return OK, None
            if type(outcome) is ValueError:
                return FAILED, None
            return f"malformed config gave {outcome!r}, want exit 2", None
        if outcome != 0:
            return f"exit {outcome!r}", None
        with open(op["out"], "rb") as handle:
            data = handle.read()
        report = json.loads(data)
        expected = oracle.expected_classes(op["command"], op["text"])
        if report["command"] != op["command"]:
            return "report names another command", digest(data)
        got_indices = [entry["index"] for entry in report["classes"]]
        if got_indices != list(expected):
            return f"classes {got_indices}, want {list(expected)}", digest(data)
        for entry in report["classes"]:
            i = entry["index"]
            want_degree = 2 * i if op["command"] == "chern" else i
            periods = {tuple(int(j) for j in key.split(",")): value
                       for key, value in entry["periods"].items()}
            if entry["degree"] != want_degree or periods != expected[i]:
                return f"class {i} periods {periods}, want {expected[i]}", digest(data)
            for value in entry["holonomies"].values():
                if not 0 <= Fraction(value) < 1:
                    return f"class {i} holonomy {value} outside [0, 1)", digest(data)
        return OK, digest(data)


WORKLOADS = {w.name: w for w in (ClassesWorkload, CalculusWorkload, RootsWorkload, CliWorkload)}
