#!/usr/bin/env python3
"""Time each layer of the stack on fixed seeded operands, with a checksum.

Usage: python scripts/layer_times.py [--repeats N]

The layers, bottom up: ``TorusForm.wedge``, ``TorusForm.d``,
``TorusForm.__add__``, ``chern_transforms``, ``DiffChar.cup`` and
``chern_class``, then the text boundary of a request:
``parse_form(f.to_text(), f.n, f.has_t)`` over every wedge operand,
the public ``TorusForm`` constructor over seeded term dicts, then
``DiffChar.same_class`` of ``chern_class`` against ``chern_class_via_ch``
for every index of the ``chern_class`` layer's cycles, both routes built
untimed on copies of those cycles.  Last, ``draw`` iterates the seeded
case streams of the ``calculus``, ``naturality`` and ``odd`` suites with
no check run; its output is every value each check would read, the
drawn forms, cycles and matrices, so the checksum pins the draws.
Each repeat draws the same operands afresh from ``SEED``, untimed, so
nothing that a form or a cycle keeps from an earlier call is reused;
then each layer runs over its whole batch once, timed.  The host's
speed drifts by a fifth or more within seconds, so each batch time is
scaled as the benchmark worker scales an operation: by
``pace.REFERENCE_S / pace``, where ``pace`` is the mean of two timings
of the reference task of ``bench/pace.py``, one just before the batch
and one just after.  The times then read as milliseconds on a host that
runs that task in ``REFERENCE_S``.  One line per
layer gives the median scaled batch time over the repeats and,
beside it, the time of the first repeat, which also fills the
process-wide tables of the forms kernel (Koszul signs, index sets,
packed key parts).  Last on the line is the work the layer did, counted
untimed on the first repeat: the terms of every form in its outputs
and, for ``wedge``, the term products it forms (pairs of terms whose
index sets are disjoint).
The last line is one sha256 over the ``to_text()`` of every output of
the first repeat, layer by layer.  A changed checksum means that some
layer's output changed; the times do not enter it.
"""

from __future__ import annotations

import argparse
from collections import Counter
import copy
import hashlib
import statistics
import time
from pathlib import Path
from random import Random
import sys

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "bench"))

import pace  # noqa: E402  (bench/pace.py, the benchmark's reference task)
from chernforge.bundles import KCycle, LineBundle, OddKCycle
from chernforge.diffchar import DiffChar, chern_class, chern_class_via_ch, cs_class
from chernforge.forms import TorusForm, chern_transforms, parse_form
from chernforge.generators import (rand_cycle, rand_form, rand_fraction, rand_homogeneous,
                                   rand_line_bundle)
from chernforge.verify import SUITES

SEED = 1
DIMENSIONS = (4, 5, 6)
PER_DIMENSION = 6
TERMS_PER_DICT = 24
# (suite, cases) of the draw layer, each drawn from three seeds
DRAWN = (("calculus", 40), ("naturality", 10), ("odd", 10))


def draw(seed: int) -> dict:
    """The operands of every layer, as argument tuples, drawn from ``seed``."""
    rng = Random(seed)
    operands = {"wedge": [], "d": [], "add": [], "chern_transforms": [],
                "cup": [], "chern_class": []}
    for n in DIMENSIONS:
        for _ in range(PER_DIMENSION):
            has_t = rng.random() < 0.5
            operands["wedge"].append((rand_form(rng, n, 8, has_t=has_t),
                                      rand_form(rng, n, 8, has_t=has_t)))
            # dense real even forms, as the class pass wedges them
            operands["wedge"].append((rand_cycle(rng, n).curvature(),
                                      rand_cycle(rng, n).curvature()))
            operands["d"].append((rand_form(rng, n, 8, has_t=has_t),))
            operands["add"].append((rand_form(rng, n, 8, has_t=has_t),
                                    rand_form(rng, n, 8, has_t=has_t)))
            # an even form with a constant part, as a cycle curvature has
            curvature = sum((rand_homogeneous(rng, n, 2 * j, 4)
                             for j in range(1, n // 2 + 1)), rand_form(rng, n, 1).component(0))
            operands["chern_transforms"].append((curvature, n // 2))
            left = cs_class(rand_line_bundle(rng, n))
            right = cs_class(rand_line_bundle(rng, n))
            operands["cup"].append((left, right.cup(cs_class(rand_line_bundle(rng, n)))
                                    if n >= 6 and rng.random() < 0.5 else right))
            operands["chern_class"].append((rand_cycle(rng, n, max_rank=2), n // 2))
    # drawn from no random numbers, so the other layers' operands stay as they were
    operands["text"] = [(form,) for pair in operands["wedge"] for form in pair]
    # drawn after every other layer's operands, which therefore do not move
    operands["construct"] = [term_dict(rng, n) for n in DIMENSIONS
                             for _ in range(PER_DIMENSION)]
    # copies, so the chern_class layer reuses nothing that a cycle or a
    # form keeps; built from no random numbers, so no other operand moves
    operands["compare"] = [(chern_class(cycle, i), chern_class_via_ch(cycle, i))
                           for cycle, top in copy.deepcopy(operands["chern_class"])
                           for i in range(1, top + 1)]
    # seeds of their own, so the suites' streams leave the other operands alone
    operands["draw"] = [(suite, seed, cases) for suite, cases in DRAWN
                        for seed in range(SEED, SEED + 3)]
    return operands


def term_dict(rng: Random, n: int) -> tuple:
    """``(n, terms, has_t)`` for the constructor: int and Gaussian coefficients."""
    has_t = rng.random() < 0.5
    indices = range(0 if has_t else 1, n + 1)
    terms = {}
    for _ in range(TERMS_PER_DICT):
        idx = tuple(sorted(rng.sample(indices, rng.randint(0, 3))))
        freq = tuple(rng.randint(-1, 1) for _ in range(n))
        t_exp = rng.randint(0, 2) if has_t else 0
        terms[(t_exp, freq, idx)] = (rng.randint(-3, 3) if rng.random() < 0.5
                                     else (rand_fraction(rng), rand_fraction(rng)))
    return n, terms, has_t


def draw_cases(suite: str, seed: int, cases: int) -> list:
    """The values each check of ``suite`` reads, drawn from ``seed``; no check runs.

    A check reads its case through its closure, so the cells are read
    as the check is yielded, before the stream draws the next case.
    """
    stream = SUITES[suite][0](Random(seed), cases)
    return [[cell.cell_contents for cell in check.__closure__ or ()] for _, check in stream]


def _text(value) -> str:
    if isinstance(value, (list, tuple)):
        return "\n;\n".join(map(_text, value))
    if isinstance(value, int):
        return str(value)
    if isinstance(value, DiffChar):
        return f"{value.harmonic.to_text()}\n|\n{value.trans.to_text()}"
    if isinstance(value, KCycle):
        return _text([value.rho, *value.bundle.lines])
    if isinstance(value, LineBundle):
        return f"{value.K} {' '.join(map(str, value.theta))}\n{value.beta.to_text()}"
    if isinstance(value, OddKCycle):
        return _text(value.components)
    return value.to_text()


def _forms(value):
    """Every form in a layer's output; a verdict (bool) or a number holds none."""
    if isinstance(value, (list, tuple)):
        for item in value:
            yield from _forms(item)
    elif isinstance(value, DiffChar):
        yield from (value.harmonic, value.trans)
    elif isinstance(value, KCycle):
        yield value.rho
        yield from _forms(value.bundle.lines)
    elif isinstance(value, LineBundle):
        yield value.beta
    elif isinstance(value, OddKCycle):
        yield from _forms(value.components)
    elif isinstance(value, TorusForm):
        yield value


def _products(a: TorusForm, b: TorusForm) -> int:
    """The term products of ``a.wedge(b)``: term pairs with disjoint index sets."""
    left, right = (Counter(mask for (_, _, mask), _ in form.items()) for form in (a, b))
    return sum(count1 * count2 for mask1, count1 in left.items()
               for mask2, count2 in right.items() if not mask1 & mask2)


LAYERS = (
    ("wedge", lambda a, b: a.wedge(b)),
    ("d", lambda a: a.d()),
    ("add", lambda a, b: a + b),
    ("chern_transforms", chern_transforms),
    ("cup", DiffChar.cup),
    ("chern_class", chern_class),
    ("text", lambda form: parse_form(form.to_text(), form.n, form.has_t)),
    ("construct", TorusForm),
    ("compare", DiffChar.same_class),
    ("draw", draw_cases),
)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--repeats", type=int, default=5)
    args = parser.parse_args()
    if args.repeats < 1:
        parser.error(f"--repeats must be >= 1, got {args.repeats}")

    times = {name: [] for name, _ in LAYERS}
    paces = []
    digest = work = None
    pace.sample()  # warm-up
    for _ in range(args.repeats):
        operands = draw(SEED)
        outputs = []
        for name, layer in LAYERS:
            before = pace.sample()[0]
            start = time.perf_counter()
            results = [layer(*arguments) for arguments in operands[name]]
            elapsed = time.perf_counter() - start
            after = pace.sample()[0]
            paces += before, after
            times[name].append(elapsed * pace.REFERENCE_S / ((before + after) / 2))
            outputs.append(results)
        if digest is None:
            digest = hashlib.sha256(_text(outputs).encode()).hexdigest()
            work = {name: f"{sum(len(form.items()) for form in _forms(results))} terms"
                    for (name, _), results in zip(LAYERS, outputs)}
            work["wedge"] += f", {sum(_products(a, b) for a, b in operands['wedge'])} products"

    print(f"times scaled to a reference pace of {1000 * pace.REFERENCE_S:g} ms;"
          f" this host's median pace {1000 * statistics.median(paces):.3f} ms")
    for name, _ in LAYERS:
        print(f"{name:<18} {1000 * statistics.median(times[name]):9.3f} ms"
              f"  (first {1000 * times[name][0]:.3f} ms; {len(operands[name])} ops,"
              f" median of {args.repeats})  {work[name]}")
    print(f"checksum {digest}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
