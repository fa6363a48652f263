import hashlib
from fractions import Fraction
from math import factorial
from operator import add, mul
from random import Random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracle import brute_character_component, brute_elementary_symmetric
from chernforge import symfun
from chernforge.symfun import (GradedPoly, RootPoly, ch_from_chern,
                               chern_polynomial, collect, divided_powers,
                               elementary_symmetric, expand_in_roots,
                               mono_degree, newton, rational, verify_sum_identity)

s1 = GradedPoly.var(1)
s2 = GradedPoly.var(2)
s3 = GradedPoly.var(3)


def test_add_examples():
    assert s1 + s1 == s1.scale(2)
    C2 = chern_polynomial(2)
    assert C2 + GradedPoly() == C2
    assert (s1 + (-s1)).is_zero()


def test_scale_takes_only_rationals():
    assert s1.scale(Fraction(1, 10)) == s1 * Fraction(1, 10)
    for bad in (0.1, "1/3", (1, 0)):
        with pytest.raises(TypeError):
            s1.scale(bad)


def test_rational_returns_a_fraction_as_it_is():
    value = Fraction(2, 3)
    assert rational(value) is value
    assert type(rational(3)) is Fraction and rational(3) == 3
    for bad in (0.5, "1/3"):
        with pytest.raises(TypeError):
            rational(bad)


def test_coefficients_take_only_rationals():
    assert GradedPoly.const(Fraction(1, 10)) == GradedPoly.const(1) * Fraction(1, 10)
    assert RootPoly.const(1, 2, 3).terms == {(0,): 3}
    for bad in (0.1, "1/3", (1, 0)):
        with pytest.raises(TypeError):
            GradedPoly.const(bad)
        with pytest.raises(TypeError):
            GradedPoly({((((0, 1)), 1),): bad})
        with pytest.raises(TypeError):
            RootPoly.const(1, 2, bad)
        with pytest.raises(TypeError):
            RootPoly(2, 3, {(1, 0): bad})
    # a coefficient is converted before the degree bound drops its term
    with pytest.raises(TypeError):
        RootPoly(2, 1, {(3, 0): 0.5})
    assert RootPoly(2, 1, {(3, 0): 1, (1, 0): 0, (0, 1): Fraction(1, 2)}).terms == {
        (0, 1): Fraction(1, 2)}


def test_mul_examples():
    assert s1 * s1 == GradedPoly({((((0, 1)), 1),): 1}) * s1
    assert chern_polynomial(1) * chern_polynomial(1) == s1 * s1


def test_closed_forms_low_degree():
    assert chern_polynomial(1) == s1
    assert chern_polynomial(2) == s1 * s1 * Fraction(1, 2) - s2
    assert chern_polynomial(3) == (s1 * s1 * s1 * Fraction(1, 6)
                                   - s1 * s2 + s3.scale(2))


def test_chern_polynomial_rejects_bad_index():
    with pytest.raises(ValueError):
        chern_polynomial(0)
    with pytest.raises(ValueError):
        ch_from_chern(-1)


@pytest.mark.parametrize("i", range(1, 9))
def test_homogeneity(i):
    assert all(mono_degree(mono) == i for mono in chern_polynomial(i).terms)


def test_ch_from_chern_low_degree():
    assert ch_from_chern(1) == s1
    assert ch_from_chern(2) == s1 * s1 * Fraction(1, 2) - s2


@pytest.mark.parametrize("i", range(1, 9))
def test_round_trip_identity(i):
    # substituting the inverse conversion back in returns the generator
    composed = chern_polynomial(i).substitute(
        lambda var: ch_from_chern(var[1]))
    assert composed == GradedPoly.var(i)
    inverse = ch_from_chern(i).substitute(
        lambda var: chern_polynomial(var[1]))
    assert inverse == GradedPoly.var(i)


def test_expand_in_roots_examples():
    got = expand_in_roots(chern_polynomial(2), 3, 2)
    assert got == brute_elementary_symmetric(2, 3)
    assert expand_in_roots(s1, 2, 1) == brute_character_component(1, 2, 1)
    # p_1 * p_1 = m_2 + 2 m_11: x1^2 + 2 x1 x2 + x2^2
    square = expand_in_roots(s1 * s1, 2, 2)
    assert square.terms == {(2, 0): 1, (1, 1): 2, (0, 2): 1}
    # a partition with more parts than roots is no monomial: e_3 = 0 in 2 roots
    assert expand_in_roots(chern_polynomial(3), 2, 3) == RootPoly(2, 3)
    assert expand_in_roots(chern_polynomial(3), 2, 3).terms == {}


@pytest.mark.parametrize("i", range(1, 9))
def test_expansion_matches_brute_sigma(i):
    for k in range(1, 11):
        assert expand_in_roots(chern_polynomial(i), k, i) == \
            brute_elementary_symmetric(i, k)


def _expand_by_products(poly, k, bound):
    """s_j -> sum_i x_i^j / j! by multiplying the oracle components out."""
    total = RootPoly(k, bound)
    for mono, coeff in poly.terms.items():
        term = RootPoly.const(k, bound, coeff)
        for (_, idx), exp in mono:
            for _ in range(exp):
                term = term * brute_character_component(idx, k, bound)
        total = total + term
    return total


def _random_unprimed(rng, max_degree):
    terms = {}
    for _ in range(rng.randint(0, 6)):
        mono, degree = {}, 0
        for _ in range(rng.randint(0, 4)):
            idx = rng.randint(1, 5)
            if degree + idx <= max_degree:
                mono[(0, idx)] = mono.get((0, idx), 0) + 1
                degree += idx
        terms[tuple(sorted(mono.items()))] = Fraction(rng.randint(-9, 9), rng.randint(1, 12))
    return GradedPoly(terms)


def test_expansion_matches_oracle_products_seeded():
    rng = Random(4)
    for k in range(1, 7):
        for _ in range(25):
            poly = _random_unprimed(rng, 8)
            degree = max((mono_degree(mono) for mono in poly.terms), default=0)
            for bound in (degree - 2, degree - 1, degree, degree + 2):
                assert expand_in_roots(poly, k, bound) == _expand_by_products(poly, k, bound)


def test_expand_rejects_primed():
    with pytest.raises(ValueError):
        expand_in_roots(GradedPoly.var(1, prime=1), 2, 2)


def _plus(var):
    return GradedPoly.var(var[1], 0) + GradedPoly.var(var[1], 1)


def _primed(var):
    return GradedPoly.var(var[1], 1)


def test_total_class_examples():
    one = GradedPoly.const(1)
    summed = (one + chern_polynomial(1)).substitute(_plus)
    assert summed == one + s1 + GradedPoly.var(1, prime=1)
    expected = one + s1 + s1 * s1 * Fraction(1, 2) - s2
    assert one + chern_polynomial(1) + chern_polynomial(2) == expected
    # the degree-2 part of the sum identity, term by term of its Cauchy sum
    C2 = chern_polynomial(2)
    assert C2.substitute(_plus) == C2 + s1 * GradedPoly.var(1, prime=1) + C2.substitute(_primed)
    assert verify_sum_identity(2) == (True, GradedPoly())


@pytest.mark.parametrize("bound", range(1, 9))
def test_sum_identity(bound):
    assert verify_sum_identity(bound) == (True, GradedPoly())


def test_sum_identity_fails_when_a_class_is_wrong(monkeypatch):
    # C_2 + s2 keeps degree 2 consistent (s2 and s'2 appear on both
    # sides) but its cross terms with C_1 break every degree from 3 on
    original = symfun.chern_polynomial
    monkeypatch.setattr(symfun, "chern_polynomial",
                        lambda i: original(i) + s2 if i == 2 else original(i))
    verdicts = [verify_sum_identity(bound) for bound in range(1, 9)]
    assert [ok for ok, _ in verdicts] == [True] * 2 + [False] * 6
    assert [diff.is_zero() for _, diff in verdicts] == [True] * 2 + [False] * 6


# sha256 over chern_polynomial(i) and ch_from_chern(i), rendered, for
# i = 1..8; pinned while both were still list caches extended in place
POLYNOMIALS_DIGEST = "556801eb3607f9a161c1ce6364349eb8d7e2d5b14ca8437e0ebce56a3b599209"


def test_cached_polynomials_are_unchanged():
    digest = hashlib.sha256()
    for i in range(1, 9):
        for poly in (chern_polynomial(i), ch_from_chern(i)):
            digest.update(poly.render().encode() + b"\n")
    assert digest.hexdigest() == POLYNOMIALS_DIGEST


def test_render_golden():
    assert chern_polynomial(1).render() == "1*s1"
    assert chern_polynomial(2).render() == "1/2*s1^2 + -1*s2"
    assert chern_polynomial(3).render() == "-1*s1*s2 + 1/6*s1^3 + 2*s3"
    assert GradedPoly().render() == "0"
    assert (s1 + GradedPoly.var(1, prime=1)).render() == "1*s1 + 1*sp1"


small_polys = st.builds(
    lambda entries: sum(
        (GradedPoly.var(idx, prime).scale(coeff) for idx, prime, coeff in entries),
        GradedPoly.const(0)),
    st.lists(st.tuples(st.integers(1, 3), st.integers(0, 1),
                       st.fractions(min_value=-3, max_value=3, max_denominator=6)),
             max_size=4))


@settings(max_examples=60)
@given(small_polys, small_polys, small_polys)
def test_ring_laws(a, b, c):
    assert a + b == b + a
    assert a * b == b * a
    assert (a + b) * c == a * c + b * c
    assert (a * b) * c == a * (b * c)


def test_root_poly_equality_and_truncation():
    p = RootPoly(2, 3, {(1, 0): Fraction(1), (0, 1): Fraction(1)})
    q = p * p
    assert q == RootPoly(2, 3, {(2, 0): 1, (1, 1): 2, (0, 2): 1})
    capped = RootPoly(2, 1, {(1, 0): 1, (0, 1): 1})
    assert (capped * capped).is_zero()


def test_mono_degree_grading():
    poly = chern_polynomial(4)
    assert {mono_degree(m) for m in poly.terms} == {4}


def test_collect_sums_per_key_and_drops_zeros():
    pairs = [("a", 1), ("b", 2), ("c", Fraction(1, 2)),
             ("a", -1), ("c", Fraction(1, 2))]
    out = collect(pairs)
    assert out == {"b": 2, "c": 1}
    assert list(out) == ["b", "c"]  # first-appearance order
    assert collect([(0, Fraction(1, 2)), (0, Fraction(-1, 2))]) == {}
    assert collect([((1, 0), 3), ((0, 1), 0)]) == {(1, 0): 3}


def test_sums_drop_zero_coefficients_structurally():
    for i in range(1, 6):
        a, b = chern_polynomial(i), ch_from_chern(i)
        assert (a - a).is_zero() and (a - a).terms == {}
        assert set(((a + b) - b).terms) == set(a.terms)
        assert (a + b) - b == a
        ra, rb = expand_in_roots(a, 3, i), expand_in_roots(b, 3, i)
        assert (ra - ra).is_zero()
        assert set(((ra + rb) - rb).terms) == set(ra.terms)
        assert (ra + rb) - rb == ra


def test_newton_on_power_sums_gives_the_elementary_symmetric_functions():
    rng = Random(29)
    for rank in range(6):
        for _ in range(4):
            roots = [Fraction(rng.randint(-5, 5)) for _ in range(rank)]
            top = rank + 2  # entries above the rank must come out zero
            sums = [None] + [sum(x ** j for x in roots) for j in range(1, top + 1)]
            got = newton(sums, [Fraction(1)], mul, add, mul)
            want = elementary_symmetric(roots, [Fraction(1)] + [Fraction(0)] * top, mul, add)
            assert got == want, roots
            assert newton(sums, want[:rank // 2 + 1], mul, add, mul) == want


def test_divided_powers_over_fractions():
    for x in (Fraction(0), Fraction(-3), Fraction(2, 7)):
        for top in range(6):
            assert divided_powers(x, top, mul, mul) == [
                x ** j / factorial(j) for j in range(1, top + 1)]
