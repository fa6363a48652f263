"""Independent oracle for the benchmark's correctness checks.

Nothing here imports chernforge.  Periods come from a small integer
exterior algebra over the K matrices and winding vectors read straight
from config text; root expansions come from subset enumeration; the
universal polynomials are checked by evaluating their rendered text at
power sums of integer roots.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations
from math import factorial, prod

# An integer form is a dict from a strictly increasing index tuple to a
# nonzero integer coefficient; only translation-invariant forms occur.


def wedge(a: dict, b: dict) -> dict:
    """Exterior product with the Koszul sign from counting inversions."""
    out: dict[tuple[int, ...], int] = {}
    for ia, ca in a.items():
        for ib, cb in b.items():
            if set(ia) & set(ib):
                continue
            inversions = sum(1 for x in ia for y in ib if x > y)
            key = tuple(sorted(ia + ib))
            out[key] = out.get(key, 0) + (-1) ** inversions * ca * cb
    return {k: v for k, v in out.items() if v}


def add(a: dict, b: dict) -> dict:
    out = dict(a)
    for key, value in b.items():
        out[key] = out.get(key, 0) + value
    return {k: v for k, v in out.items() if v}


def elementary(forms: list[dict], i: int) -> dict:
    """i-th elementary symmetric function of commuting even forms."""
    total: dict = {}
    for subset in combinations(forms, i):
        term = {(): 1}
        for form in subset:
            term = wedge(term, form)
        total = add(total, term)
    return total


def two_form(K: list[list[int]]) -> dict:
    """sum_{j<l} K[j][l] dx_j ^ dx_l with 1-based coordinates."""
    n = len(K)
    return {(j + 1, l + 1): K[j][l]
            for j in range(n) for l in range(j + 1, n) if K[j][l]}


def even_periods(matrices: list[list[list[int]]], i: int) -> dict:
    """Period table of the degree-2i class: e_i of the line curvatures."""
    return elementary([two_form(K) for K in matrices], i)


def odd_periods(windings: list[list[int]], i: int) -> dict:
    """Period table of the odd class of index i.

    Each component with winding m suspends to a line on T^(1+n) with
    curvature sum_l m_l dx_1 ^ dx_(l+1), coordinate 1 being the
    suspension circle; the class is e_((i+1)/2) of those curvatures
    integrated over the circle with the front Koszul sign.
    """
    forms = [{(1, l + 1): m for l, m in enumerate(w, start=1) if m} for w in windings]
    total = elementary(forms, (i + 1) // 2)
    out: dict = {}
    for idx, coeff in total.items():
        if 1 not in idx:
            continue
        reduced = tuple(p - 1 for p in idx if p != 1)
        out[reduced] = out.get(reduced, 0) + coeff
    return {k: v for k, v in out.items() if v}


def read_config(text: str) -> dict:
    """The fields the oracle needs: dim, indices, K matrices, windings."""
    cfg = {"dim": None, "indices": [], "lines": [], "windings": []}
    section = None
    for raw in text.splitlines():
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if line.startswith("["):
            section = line[1:-1].strip()
            if section == "line":
                cfg["lines"].append(None)
            continue
        key, value = (part.strip() for part in line.split("=", 1))
        if section is None and key == "dim":
            cfg["dim"] = int(value)
        elif section is None and key == "indices":
            cfg["indices"] = [int(v) for v in value.split()]
        elif section == "line" and key == "K":
            cfg["lines"][-1] = [[int(v) for v in row.split()]
                                for row in value.split("/") if row.strip()]
        elif section == "component" and key == "winding":
            cfg["windings"].append([int(v) for v in value.split()])
    n = cfg["dim"]
    zero = [[0] * n for _ in range(n)]
    cfg["lines"] = [K if K is not None else zero for K in cfg["lines"]] or [zero]
    return cfg


def expected_classes(command: str, text: str) -> dict[int, dict]:
    """Index -> period table for every class ``chern``/``odd`` reports."""
    cfg = read_config(text)
    n = cfg["dim"]
    if command == "chern":
        indices = cfg["indices"] or list(range(1, n // 2 + 1))
        return {i: even_periods(cfg["lines"], i) for i in indices}
    indices = cfg["indices"] or list(range(1, n + 1, 2))
    return {i: odd_periods(cfg["windings"], i) for i in indices}


# -- symmetric functions of roots ---------------------------------------


def elementary_in_roots(i: int, k: int, bound: int) -> dict:
    """e_i(x_1..x_k) truncated at total degree ``bound``, by enumeration."""
    if i > bound:
        return {}
    terms = {}
    for subset in combinations(range(k), i):
        expvec = [0] * k
        for pos in subset:
            expvec[pos] = 1
        terms[tuple(expvec)] = Fraction(1)
    return terms


def character_in_roots(j: int, k: int, bound: int) -> dict:
    """sum_a x_a^j / j! truncated at total degree ``bound``."""
    if j > bound:
        return {}
    terms = {}
    for pos in range(k):
        expvec = [0] * k
        expvec[pos] = j
        terms[tuple(expvec)] = Fraction(1, factorial(j))
    return terms


def elementary_value(roots: list[int], i: int) -> int:
    return sum(prod(subset) for subset in combinations(roots, i))


def power_sum(roots: list[int], j: int) -> int:
    return sum(x ** j for x in roots)


def evaluate_rendered(text: str, values: dict[int, Fraction]) -> Fraction:
    """Evaluate a rendered graded polynomial ``a/b*s1^2*s3 + ...``.

    ``values`` maps the variable index j to the value of s_j; only the
    unprimed alphabet occurs in the polynomials checked here.
    """
    if text.strip() == "0":
        return Fraction(0)
    total = Fraction(0)
    for chunk in text.split(" + "):
        factors = chunk.strip().split("*")
        term = Fraction(factors[0])
        for factor in factors[1:]:
            name, _, exp = factor.partition("^")
            if not name.startswith("s") or name.startswith("sp"):
                raise ValueError(f"unexpected variable {name!r}")
            term *= values[int(name[1:])] ** (int(exp) if exp else 1)
        total += term
    return total


def character_values(roots: list[int], upto: int) -> dict[int, Fraction]:
    """s_j = p_j / j!: the Chern-character components of the roots."""
    return {j: Fraction(power_sum(roots, j), factorial(j)) for j in range(1, upto + 1)}


def elementary_values(roots: list[int], upto: int) -> dict[int, Fraction]:
    """s_j = e_j: the variables of ``ch_from_chern`` stand for Chern classes."""
    return {j: Fraction(elementary_value(roots, j)) for j in range(1, upto + 1)}
