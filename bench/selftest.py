#!/usr/bin/env python3
"""Self-tests of the benchmark oracle, against hand-computed values.

Run: python3 bench/selftest.py  (run.py also runs them before measuring)
"""

from __future__ import annotations

import sys
from fractions import Fraction

import oracle


def _cases():
    # Chern number pin: the line with K = [[0, k], [-k, 0]] has c_1 = k dx1^dx2
    for k in range(-3, 4):
        yield (f"chern number pin k={k}",
               oracle.even_periods([[[0, k], [-k, 0]]], 1), {(1, 2): k} if k else {})
    yield ("anticommuting 1-forms", oracle.wedge({(2,): 1}, {(1,): 1}), {(1, 2): -1})
    yield ("dx1 ^ dx1 = 0", oracle.wedge({(1,): 1}, {(1,): 1}), {})
    yield ("dx1dx3 ^ dx2dx4", oracle.wedge({(1, 3): 1}, {(2, 4): 1}), {(1, 2, 3, 4): -1})
    k12 = [[0, 2, 0, 0], [-2, 0, 0, 0], [0, 0, 0, 0], [0, 0, 0, 0]]
    k34 = [[0, 0, 0, 0], [0, 0, 0, 0], [0, 0, 0, 5], [0, 0, -5, 0]]
    yield ("c_2 of a split sum on T^4", oracle.even_periods([k12, k34], 2), {(1, 2, 3, 4): 10})
    yield ("c_1 is additive", oracle.even_periods([k12, k34], 1), {(1, 2): 2, (3, 4): 5})
    yield ("c_2 of one line vanishes", oracle.even_periods([k12], 2), {})
    yield ("odd winding on T^1", oracle.odd_periods([[3]], 1), {(1,): 3})
    yield ("odd windings add", oracle.odd_periods([[2, 0], [0, -1]], 1), {(1,): 2, (2,): -1})
    yield ("odd c_3 of windings", oracle.odd_periods([[1, 0, 0], [0, 1, 0]], 3), {})
    cfg = "dim = 2\nindices = 1\n\n[line]\nK = 0 3 / -3 0\ntheta = 1/3 0\n"
    yield ("config reader", oracle.expected_classes("chern", cfg), {1: {(1, 2): 3}})
    odd_cfg = "dim = 2\n[component]\nwinding = 2 0\n[component]\nwinding = 0 -1\n"
    yield ("odd config reader", oracle.expected_classes("odd", odd_cfg),
           {1: {(1,): 2, (2,): -1}})
    yield ("trivial bundle", oracle.expected_classes("chern", "dim = 4\n"), {1: {}, 2: {}})
    yield ("e_2 in three roots", sorted(oracle.elementary_in_roots(2, 3, 4)),
           [(0, 1, 1), (1, 0, 1), (1, 1, 0)])
    yield ("truncation drops e_3", oracle.elementary_in_roots(3, 4, 2), {})
    yield ("ch_2 in two roots", oracle.character_in_roots(2, 2, 2),
           {(2, 0): Fraction(1, 2), (0, 2): Fraction(1, 2)})
    roots = [1, 2, 3]
    yield ("e_2(1,2,3)", oracle.elementary_value(roots, 2), 11)
    # c_2 = s1^2/2 - s2 at s_j = p_j/j!: (6^2)/2 - 14/2 = 11
    yield ("rendered c_2", oracle.evaluate_rendered(
        "-1*s2 + 1/2*s1^2", oracle.character_values(roots, 2)), 11)
    # ch_2 = (s1^2 - 2 s2)/2 at s_j = e_j: (36 - 22)/2 = p_2/2 = 7
    yield ("rendered ch_2", oracle.evaluate_rendered(
        "-1*s2 + 1/2*s1^2", oracle.elementary_values(roots, 2)), 7)


def run() -> list[str]:
    """Names of the failing self-tests; empty when the oracle is sound."""
    return [f"{name}: got {got!r}, want {want!r}"
            for name, got, want in _cases() if got != want]


if __name__ == "__main__":
    failures = run()
    for line in failures:
        print(f"FAIL {line}")
    print(f"oracle self-tests: {'ok' if not failures else f'{len(failures)} failed'}")
    sys.exit(1 if failures else 0)
