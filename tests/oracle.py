"""Independent brute-force oracles used by the tests.

Everything here is computed by direct enumeration, separate from the
library's own expansion code paths, so the two sides of each check stay
independent.
"""

from fractions import Fraction
from functools import reduce
from itertools import combinations
from math import factorial
from operator import add

from chernforge.forms import TorusForm, chern_transform, chern_transforms
from chernforge.symfun import RootPoly, chern_polynomial, elementary_symmetric


def brute_elementary_symmetric(i: int, k: int) -> RootPoly:
    """sigma_i(x_1..x_k) by enumerating all i-element subsets."""
    terms = {}
    for subset in combinations(range(k), i):
        expvec = [0] * k
        for pos in subset:
            expvec[pos] = 1
        terms[tuple(expvec)] = Fraction(1)
    return RootPoly(k, i, terms)


def subset_elementary_symmetric(factors, i: int, times, plus, zero):
    """e_i of ``factors`` for i >= 1 by enumerating subsets.

    Adds, onto ``zero``, the left-to-right product under ``times`` of
    every i-subset, subsets in lexicographic order.
    """
    total = zero
    for subset in combinations(factors, i):
        total = plus(total, reduce(times, subset))
    return total


def brute_character_component(j: int, k: int, bound: int) -> RootPoly:
    """Degree-j component of sum_i (e^{x_i} - 1): sum_i x_i^j / j!."""
    terms = {}
    if j <= bound:
        for pos in range(k):
            expvec = [0] * k
            expvec[pos] = j
            terms[tuple(expvec)] = Fraction(1, factorial(j))
    return RootPoly(k, bound, terms)


def brute_total_product(k: int, bound: int) -> RootPoly:
    """prod_i (1 + x_i) truncated at total degree ``bound``."""
    terms = {}
    for size in range(0, min(k, bound) + 1):
        for subset in combinations(range(k), size):
            expvec = [0] * k
            for pos in subset:
                expvec[pos] = 1
            terms[tuple(expvec)] = Fraction(1)
    return RootPoly(k, bound, terms)


def evaluate_chern_polynomial(form: TorusForm, i: int) -> TorusForm:
    """chern_polynomial(i) evaluated monomial by monomial on an even form.

    The degree-2j component stands for the j'th variable; each monomial
    is the constant coefficient wedged with one factor per power.
    """
    total = TorusForm.zero(form.n, form.has_t)
    for mono, coeff in chern_polynomial(i).terms.items():
        term = TorusForm.const(form.n, Fraction(coeff), has_t=form.has_t)
        for (_, j), exponent in mono:
            for _ in range(exponent):
                term = term.wedge(form.component(2 * j))
        total = total + term
    return total


def total_chern_transform(form: TorusForm) -> TorusForm:
    """1 + C_1(form) + ... up to the dimension cap, as one form."""
    cap = form.n + (1 if form.has_t else 0)
    one, *components = chern_transforms(form, cap // 2)
    return sum(components, one)


def chern_form(bundle, i: int) -> TorusForm:
    """Degree-2i Chern form of a diagonal bundle, along two routes.

    Evaluates the universal polynomial on the character form and the
    elementary symmetric polynomial of the line curvatures; a
    disagreement raises.
    """
    if i < 1:
        raise ValueError("index must be >= 1")
    if 2 * i > bundle.n:
        raise ValueError(f"no {2 * i}-forms on T^{bundle.n}")
    via_character = chern_transform(bundle.chern_character(), i)
    via_roots = elementary_symmetric(
        [line.curvature() for line in bundle.lines],
        [TorusForm.const(bundle.n, 1)] + [TorusForm.zero(bundle.n)] * i,
        TorusForm.wedge, add)[i]
    if via_character != via_roots:
        raise ArithmeticError(
            f"chern_form route disagreement at i={i}: "
            f"{via_character.to_text()} vs {via_roots.to_text()}"
        )
    return via_roots


def path_transgressions(cycle, rho_t: TorusForm) -> list:
    """[None, T_1, ..., T_top] with T_k = int_t C_k(ch.with_t() + d rho_t).

    One Newton pass over the whole t-extended path curvature, then the
    fiber integral over t of each entry; dt-free terms are computed and
    dropped.  The engine builds the same forms from the product formula.
    """
    curv_path = cycle.bundle.chern_character().with_t() + rho_t.d()
    return [None] + [form.fiber_integrate_t()
                     for form in chern_transforms(curv_path, cycle.n // 2)[1:]]
