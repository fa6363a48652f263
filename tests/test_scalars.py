from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from chernforge.scalars import GaussRat, collect

rationals = st.fractions(min_value=-5, max_value=5, max_denominator=12)
gaussians = st.builds(GaussRat, rationals, rationals)


def test_basic_arithmetic():
    a = GaussRat(Fraction(1, 2), Fraction(3, 4))
    b = GaussRat(2, -1)
    assert a + b == GaussRat(Fraction(5, 2), Fraction(-1, 4))
    assert a * b == GaussRat(Fraction(7, 4), 1)
    assert -a == GaussRat(Fraction(-1, 2), Fraction(-3, 4))
    assert a - a == GaussRat()
    assert not GaussRat()
    assert a.conj() == GaussRat(Fraction(1, 2), Fraction(-3, 4))


def test_integer_comparison_and_hash():
    assert GaussRat(3) == 3
    assert GaussRat(3, 1) != 3
    assert hash(GaussRat(Fraction(2, 3))) == hash(Fraction(2, 3))


def test_str_folds_imaginary_sign():
    assert str(GaussRat(Fraction(1, 2), Fraction(-3, 4))) == "(1/2-3/4i)"
    assert str(GaussRat(1, 0)) == "(1+0i)"
    assert str(GaussRat(0, 1)) == "(0+1i)"


def test_division_exact():
    a = GaussRat(1, 1)
    b = GaussRat(0, 2)
    assert (a / b) * b == a
    with pytest.raises(ZeroDivisionError):
        a / GaussRat()


@given(gaussians, gaussians, gaussians)
def test_ring_laws(a, b, c):
    assert a + b == b + a
    assert a * b == b * a
    assert (a + b) * c == a * c + b * c
    assert (a * b) * c == a * (b * c)


@given(gaussians, gaussians)
def test_conjugation_is_multiplicative(a, b):
    assert (a * b).conj() == a.conj() * b.conj()
    assert (a + b).conj() == a.conj() + b.conj()


@given(gaussians)
def test_norm_is_real(a):
    assert (a * a.conj()).is_real()


def test_collect_sums_per_key_and_drops_zeros():
    pairs = [("a", GaussRat(1)), ("b", GaussRat(2)), ("c", GaussRat(0, 1)),
             ("a", GaussRat(-1)), ("c", GaussRat(1))]
    out = collect(pairs)
    assert out == {"b": GaussRat(2), "c": GaussRat(1, 1)}
    assert list(out) == ["b", "c"]  # first-appearance order
    assert collect([(0, Fraction(1, 2)), (0, Fraction(-1, 2))]) == {}
    assert collect([((1, 0), 3), ((0, 1), 0)]) == {(1, 0): 3}
